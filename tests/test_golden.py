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
    "fedavg": ("167d1e1a613b5acd55cfec5ca742c0063bec530e5c125c30d1644b2ebac83abe",
               "881f505212311482bbd7f62800c17144b1fcfb785db3b1b7292ab5f04dc66c10"),
    "fedadam": ("bede97cf04694b5f6e32bba298b0e7ef7099b2ca7c90e0e288befb751a9b2b0f",
                "e4299c27fe00eef622500458b16136b778dd684f56b7e23a7fa9765ae3b25e5f"),
    "fedams": ("a4b16e8b5c81227cbf1ee9d328a10f2b75f1461144e66e648dc7b055dae2be1d",
               "d5ca4a291bd57ff373f95caa2dbbe4b1e325279f995186f650862f82c387aa73"),
    "fedaws": ("d2bc1e2363609aa73a753849732760ce2a0e0815233c073130c4b7083291db33",
               "fb02d0f8fdca7e820b510532265c5258e04f5b37f5cb153481f303342c2c47df"),
    "fedprox": ("f6992ddae46df2b41b3122199380ff1cc47851886823152923ca8c18f326f1ab",
                "881f505212311482bbd7f62800c17144b1fcfb785db3b1b7292ab5f04dc66c10"),
    "fedprox_2epochs": ("66f6fe494fe8f183e9f250d869ff7a4ec126051c69f98720b650e86c4e7b48d7",
                        "ddc4dab1e1f279742e3592b2609974ebdb6d1a75fc4c85da0c8c43ace76d2212"),
    "moon": ("af3c8f203010d5f25eabaf28969d587184d8cfdbfafdc060b846ed3440870845",
             "23e796075417e0a5e31279ef168b4f90028d3c95e7fbaa1b2b47dd5fa26aecb9"),
    "svm_margin": ("e5dc1e190195d3dcde68a3b79378e54f8677036b41f3520b7749023797f367d0",
                   "63e9823e7c0eb2dfa6177efe5c60b7e6d25a78aed4dde7817d9105f5cebe9a67"),
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
            "9ecea0cec78b05f10d72230b82ff21e4beb9292fced4504e98aa5db168b7341a",
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
            "9ecea0cec78b05f10d72230b82ff21e4beb9292fced4504e98aa5db168b7341a",
        "fedadam/summary.txt":
            "29613a8b0d333d40ab675b198f8577e69d8a4a05933b3637774cfcd52c81e8fb",
        "moon/summary.csv":
            "681f14462e597bb70cb5dc37a12cd3b39b6098af503760efe2e5a2d97dfdcc16",
        "moon/summary.txt":
            "dbeab60620d59f5df151e8be46a241c0f091f2138bf8af8dc4c8028dec55343a",
        "svm_margin/summary.csv":
            "14789e4e560684766d5e715529bbc2b825df9a55e616161d6e6ae2f3ddccfeeb",
        "svm_margin/summary.txt":
            "77eac5f2cef910da86d89a6a6a198fa9673b67fd17e2489f5e627959d30533d0",
    },
    "sweep": {
        "stdout":
            "dc5c9ffa52aa3bf5c1076b3b019182cf3cb8730bf6bf6cfc9b54d02f85e94c33",
        "sweep.csv":
            "d13186a61a6c30b3fe665ad1c4133e9230bcf8596dd2d79a73f835374cbe4727",
        "d8_c4/summary.csv":
            "fff38c72495a33093d35a780d4bae76b98e9fa59284fd142e25ba3d5b4241b26",
        "d8_c4/summary.txt":
            "596df42588adf2a61d7e11e9361d46879c8996003adc777a59d32ddf422efad2",
        "d8_c8/summary.csv":
            "5982ab001c58d157b4a3111b18ab61dd166854b3cf37fa0b3671dca57d266d5a",
        "d8_c8/summary.txt":
            "101f27c2622695937f154a0ef5e862284edc0a513da071079c85f6d98d74a4e9",
        "d16_c4/summary.csv":
            "217def3f46e3405a05964d1d99f6fe75dad412fb4858ca1b89899874448f8a81",
        "d16_c4/summary.txt":
            "911005feaaad11f14480383e5a21c44fc61794123bf7c30526b33181a67ec6e9",
        "d16_c8/summary.csv":
            "14789e4e560684766d5e715529bbc2b825df9a55e616161d6e6ae2f3ddccfeeb",
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
