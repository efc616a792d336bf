"""Behaviour lock: every strategy on the shipped configs, 8 rounds, seeds
0 and 1, must reproduce pinned digests of ``rounds.csv`` (wall-clock
``ms`` column dropped) and ``summary.csv``; ``fedsvm run``, ``compare``
and ``sweep`` on a 6-round cut of the same configs must reproduce pinned
digests of their stdout and of every summary, compare and sweep table.

A refactor must pass this unchanged. A change that alters numerics on
purpose re-pins the digests in the same change and says why.
"""

import configparser
import csv
import hashlib
from pathlib import Path

import pytest

from fedsvm.cli import main as cli_main
from fedsvm.harness import parse_config, run_experiment

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# label -> (shipped config, overrides by section)
STRATEGIES = {
    "fedavg": ("synthetic_fedavg.ini", {"strategy": {"name": "fedavg"}}),
    "fedadam": ("synthetic_fedavg.ini", {"strategy": {"name": "fedadam"}}),
    "fedams": ("synthetic_fedavg.ini", {"strategy": {"name": "fedams"}}),
    "fedaws": ("synthetic_fedavg.ini", {"strategy": {"name": "fedaws"}}),
    "fedprox": ("synthetic_fedavg.ini", {"client": {"variant": "prox"}}),
    # With one epoch every client takes a single step from the global
    # model, where the proximal term is zero, so "fedprox" above is
    # bitwise fedavg; a second epoch gives the term something to pull.
    "fedprox_2epochs": ("synthetic_fedavg.ini",
                        {"client": {"variant": "prox", "epochs": "2"}}),
    "moon": ("synthetic_fedavg.ini", {"client": {"variant": "moon"}}),
    "svm_margin": ("synthetic_svm_margin.ini", {}),
}

# label -> (sha256 of rounds.csv without ms, sha256 of summary.csv)
GOLDEN = {
    "fedavg": ("f94b9309712ae384d35d21847ebd8cf22159165d8005a588b6ba435f13651895",
               "17dd92bc8b604fb3b2fcd1a55edb31c4e32ba6cb0f515af03f702782bf061466"),
    "fedadam": ("dc831f66a5a5f91156237d06442359e83b439a2bce56c4aff3779c0ea8086db1",
                "e2e4269a57b499896912d0e7a54366396790b66723c66454aedcdd8b116fe43a"),
    "fedams": ("5588d8fba56e72899953b36fd88ba0b6af2f64e15a9f2b7ffa2f2e0fd3a48ba1",
               "bc205df3d880a7ef3f804540433265baf1f7478d462cb49dd6bf9a067df5f0c0"),
    "fedaws": ("2db2094019f4758ae611032aad9c1f7c87cc3be93c80eb639813774edfa858d0",
               "fb02d0f8fdca7e820b510532265c5258e04f5b37f5cb153481f303342c2c47df"),
    "fedprox": ("80167c807f3662e0a00b3ef7294194e68b1878d9907b952950d57a0d2010518d",
                "17dd92bc8b604fb3b2fcd1a55edb31c4e32ba6cb0f515af03f702782bf061466"),
    "fedprox_2epochs": ("012edcaf80a33fdf846749ad2e84d1a8d2952314e33d106ff3e3169a90aeeaec",
                        "ddc4dab1e1f279742e3592b2609974ebdb6d1a75fc4c85da0c8c43ace76d2212"),
    "moon": ("f30f09c152507d15bb88c6e8820d47f10f4dd7143a284a33fe3f1ad3a7f685ee",
             "23e796075417e0a5e31279ef168b4f90028d3c95e7fbaa1b2b47dd5fa26aecb9"),
    "svm_margin": ("dd9c450112953b8f2aadbeb036e3aa1e512bbaf72a3ccad7a6785a7c17b0eae2",
                   "de8800de1e0f36989058df791610125d0a57fffb34c131a795d515d095ce09cd"),
}


def run_digests(tmp_path, label):
    name, overrides = STRATEGIES[label]
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(CONFIGS / name)
    overrides = {**overrides, "run": {"rounds": "8", "seeds": "0 1"}}
    for section, values in overrides.items():
        for key, value in values.items():
            parser.set(section, key, value)
    path = tmp_path / f"{label}.ini"
    with open(path, "w") as fh:
        parser.write(fh)
    out = run_experiment(parse_config(path), tmp_path / label).output_dir
    with open(out / "rounds.csv", newline="") as fh:
        rows = [",".join(row[:-1]) for row in csv.reader(fh)]
    rounds = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    summary = hashlib.sha256((out / "summary.csv").read_bytes()).hexdigest()
    return rounds, summary


@pytest.mark.parametrize("label", sorted(STRATEGIES))
def test_outputs_match_golden_digests(tmp_path, label):
    assert run_digests(tmp_path, label) == GOLDEN[label]


# Text outputs: the command line on the shipped configs cut to 6 rounds,
# seeds 0 and 1 and a target of 0.3, which some seeds reach and some
# never do, so both forms of the rounds-to-target cell are pinned.
TEXT_RUN = {"rounds": "6", "seeds": "0 1", "target_accuracy": "0.3"}
COMPARED = ("fedavg", "fedadam", "moon", "svm_margin")

# command -> sha256 of its stdout and of each file it writes, by name
TEXT_GOLDEN = {
    "run": {
        "stdout":
            "29613a8b0d333d40ab675b198f8577e69d8a4a05933b3637774cfcd52c81e8fb",
        "summary.csv":
            "7aa66aad878217c6e0954bcbc9dc78ef964cdfa8b06136e06cf095ff4356e97c",
        "summary.txt":
            "29613a8b0d333d40ab675b198f8577e69d8a4a05933b3637774cfcd52c81e8fb",
    },
    "compare": {
        "stdout":
            "c9f950e6d8e1b8cbe647de0d2deb3cd5a9e1743e08865db042074d09463cc358",
        "compare.csv":
            "b1291576a3c4af5de59bb2847e4b54b0531e03cd7e29d7c66d2b604ef6b502d1",
        "compare.txt":
            "c9f950e6d8e1b8cbe647de0d2deb3cd5a9e1743e08865db042074d09463cc358",
        "fedavg/summary.csv":
            "5f45f8ad19797e1bedf50d562f4968330d525670a9f1121d61bf9d13fd11d3d2",
        "fedavg/summary.txt":
            "d0497822df049766180069fe049e34d2e5e19436adda48cc2c5e655ff8d72dce",
        "fedadam/summary.csv":
            "7aa66aad878217c6e0954bcbc9dc78ef964cdfa8b06136e06cf095ff4356e97c",
        "fedadam/summary.txt":
            "29613a8b0d333d40ab675b198f8577e69d8a4a05933b3637774cfcd52c81e8fb",
        "moon/summary.csv":
            "681f14462e597bb70cb5dc37a12cd3b39b6098af503760efe2e5a2d97dfdcc16",
        "moon/summary.txt":
            "dbeab60620d59f5df151e8be46a241c0f091f2138bf8af8dc4c8028dec55343a",
        "svm_margin/summary.csv":
            "24854000a6ea95c49d4dc8d9a07cd70d299317a510a57ce690c31c31b41d2812",
        "svm_margin/summary.txt":
            "77eac5f2cef910da86d89a6a6a198fa9673b67fd17e2489f5e627959d30533d0",
    },
    "sweep": {
        "stdout":
            "dc5c9ffa52aa3bf5c1076b3b019182cf3cb8730bf6bf6cfc9b54d02f85e94c33",
        "sweep.csv":
            "d13186a61a6c30b3fe665ad1c4133e9230bcf8596dd2d79a73f835374cbe4727",
        "d8_c4/summary.csv":
            "9931b7e75c2dd724f15a9ac34471a077260f320f281d50346d266ee59cc9be0b",
        "d8_c4/summary.txt":
            "596df42588adf2a61d7e11e9361d46879c8996003adc777a59d32ddf422efad2",
        "d8_c8/summary.csv":
            "f8d0fbfcb19518d0ca8e21be5090ceabfeeff4d06775577e42c25d22b3792efe",
        "d8_c8/summary.txt":
            "101f27c2622695937f154a0ef5e862284edc0a513da071079c85f6d98d74a4e9",
        "d16_c4/summary.csv":
            "826656bd7539f185b0ee47b027dee6542087864a88ed54553013bf74f150c7ec",
        "d16_c4/summary.txt":
            "911005feaaad11f14480383e5a21c44fc61794123bf7c30526b33181a67ec6e9",
        "d16_c8/summary.csv":
            "24854000a6ea95c49d4dc8d9a07cd70d299317a510a57ce690c31c31b41d2812",
        "d16_c8/summary.txt":
            "77eac5f2cef910da86d89a6a6a198fa9673b67fd17e2489f5e627959d30533d0",
    },
}


def write_text_config(tmp_path, label):
    name, overrides = STRATEGIES[label]
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(CONFIGS / name)
    for section, values in {**overrides, "run": TEXT_RUN}.items():
        for key, value in values.items():
            parser.set(section, key, value)
    path = tmp_path / f"{label}.ini"
    with open(path, "w") as fh:
        parser.write(fh)
    return str(path)


def sha256(data):
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


def text_digests(tmp_path, capsys):
    out = tmp_path / "out"
    summaries = lambda runs: [Path(run, f"summary.{ext}").as_posix()
                              for run in runs for ext in ("csv", "txt")]
    commands = {
        "run": (["run", write_text_config(tmp_path, "fedadam")], summaries(["."])),
        "compare": (["compare", *(write_text_config(tmp_path, label) for label in COMPARED)],
                    ["compare.csv", "compare.txt", *summaries(COMPARED)]),
        "sweep": (["sweep", write_text_config(tmp_path, "svm_margin"),
                   "--dims", "8", "16", "--clients", "4", "8"],
                  ["sweep.csv", *summaries(f"d{d}_c{c}" for d in (8, 16) for c in (4, 8))]),
    }
    digests = {}
    for command, (argv, files) in commands.items():
        capsys.readouterr()
        assert cli_main([*argv, "--output-dir", str(out / command)]) == 0
        digests[command] = {"stdout": sha256(capsys.readouterr().out),
                            **{name: sha256((out / command / name).read_bytes())
                               for name in files}}
    return digests


def test_text_outputs_match_golden_digests(tmp_path, capsys):
    assert text_digests(tmp_path, capsys) == TEXT_GOLDEN
