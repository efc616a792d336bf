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
from fedsvm.config import parse_config
from fedsvm.harness import run_experiment

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
    "fedavg": ("8fa7f55f6d2757febf4227d49687f67a127818caca6b7c9cc511f3800a51576d",
               "881f505212311482bbd7f62800c17144b1fcfb785db3b1b7292ab5f04dc66c10"),
    "fedadam": ("6460addc9da2842f264b10ef0c07a4b3db04861d294f026ebe9b98ddad241058",
                "023cf7ff19da39c8f414d5ef0b29de1d11bde16fbedd43e732a020ee2f6eb352"),
    "fedams": ("4fb85eaaf4a71f0e73e7fbd8e5248a706499016b775cdd2a5790f27aaec1d2af",
               "bc205df3d880a7ef3f804540433265baf1f7478d462cb49dd6bf9a067df5f0c0"),
    "fedaws": ("87ee8f9451d8ef29b6890ddcf7af46dcc53dc1cfda75906a22b0466b483d5a6c",
               "bcc775747ceb9a70ae63d4420db99da18739d078ffe48657e7fcbf19504d4b62"),
    "fedprox": ("eb272b543787d48eeeb14ccfeb0c645d0de96c8cfd8cdf4a868d44478c83525a",
                "881f505212311482bbd7f62800c17144b1fcfb785db3b1b7292ab5f04dc66c10"),
    "fedprox_2epochs": ("66f6fe494fe8f183e9f250d869ff7a4ec126051c69f98720b650e86c4e7b48d7",
                        "ddc4dab1e1f279742e3592b2609974ebdb6d1a75fc4c85da0c8c43ace76d2212"),
    "moon": ("af3c8f203010d5f25eabaf28969d587184d8cfdbfafdc060b846ed3440870845",
             "23e796075417e0a5e31279ef168b4f90028d3c95e7fbaa1b2b47dd5fa26aecb9"),
    "svm_margin": ("e9e51b42154883911ddc49d48e2e69712c09374b9121c9eeac0bbefff4928891",
                   "e276df92c697cd9e544050c08f5d3cca0606cbd5843bf15a8c272c81fc68eb47"),
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
            "71dd4267aec699bd6c8b1a42c43b90682eb0951cb3f3ca8920d7e1a96116c958",
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
            "dcc65f315ca7570cfb9c33bc39a76b8d491f7a9a12b23f469bb9c0a4888ef7e9",
        "fedavg/summary.txt":
            "d0497822df049766180069fe049e34d2e5e19436adda48cc2c5e655ff8d72dce",
        "fedadam/summary.csv":
            "71dd4267aec699bd6c8b1a42c43b90682eb0951cb3f3ca8920d7e1a96116c958",
        "fedadam/summary.txt":
            "29613a8b0d333d40ab675b198f8577e69d8a4a05933b3637774cfcd52c81e8fb",
        "moon/summary.csv":
            "681f14462e597bb70cb5dc37a12cd3b39b6098af503760efe2e5a2d97dfdcc16",
        "moon/summary.txt":
            "dbeab60620d59f5df151e8be46a241c0f091f2138bf8af8dc4c8028dec55343a",
        "svm_margin/summary.csv":
            "ebb1c04288e55b28ab50b4751db07e45b9ec4eebcb33c50d6e3bba527d1a4b8a",
        "svm_margin/summary.txt":
            "77eac5f2cef910da86d89a6a6a198fa9673b67fd17e2489f5e627959d30533d0",
    },
    "sweep": {
        "stdout":
            "dc5c9ffa52aa3bf5c1076b3b019182cf3cb8730bf6bf6cfc9b54d02f85e94c33",
        "sweep.csv":
            "d13186a61a6c30b3fe665ad1c4133e9230bcf8596dd2d79a73f835374cbe4727",
        "d8_c4/summary.csv":
            "26872e68d008c7c4d42bb197d7117099645863935f84e7b21257f1e493ea1c4c",
        "d8_c4/summary.txt":
            "596df42588adf2a61d7e11e9361d46879c8996003adc777a59d32ddf422efad2",
        # One pair fit of seed 1 takes a face step after 16 updates, so
        # its final_loss moves in the ninth significant digit.
        "d8_c8/summary.csv":
            "48364f60e29d9680a4f9781446f2c3258dbb9431abbec4e1156063be38cf8cc0",
        "d8_c8/summary.txt":
            "101f27c2622695937f154a0ef5e862284edc0a513da071079c85f6d98d74a4e9",
        "d16_c4/summary.csv":
            "2e109d9baf91302372e72697b4ed05983d076f762030a851621286f476a27887",
        "d16_c4/summary.txt":
            "911005feaaad11f14480383e5a21c44fc61794123bf7c30526b33181a67ec6e9",
        "d16_c8/summary.csv":
            "ebb1c04288e55b28ab50b4751db07e45b9ec4eebcb33c50d6e3bba527d1a4b8a",
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
