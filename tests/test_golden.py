"""Behaviour lock: every strategy on the shipped configs, 8 rounds, seeds
0 and 1, must reproduce pinned digests of ``rounds.csv`` (wall-clock
``ms`` column dropped) and ``summary.csv``.

A refactor must pass this unchanged. A change that alters numerics on
purpose re-pins the digests in the same change and says why.
"""

import configparser
import csv
import hashlib
from pathlib import Path

import pytest

from fedsvm.harness import parse_config, run_experiment

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# label -> (shipped config, overrides by section)
STRATEGIES = {
    "fedavg": ("synthetic_fedavg.ini", {"strategy": {"name": "fedavg"}}),
    "fedadam": ("synthetic_fedavg.ini", {"strategy": {"name": "fedadam"}}),
    "fedams": ("synthetic_fedavg.ini", {"strategy": {"name": "fedams"}}),
    "fedaws": ("synthetic_fedavg.ini", {"strategy": {"name": "fedaws"}}),
    "fedprox": ("synthetic_fedavg.ini", {"client": {"variant": "prox"}}),
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
