"""The config surface: which keys each INI section accepts, that a
misspelt key is rejected by name, and every default a minimal config
parses to. A change to the config code must pass this unchanged."""

import dataclasses
import re
from pathlib import Path

import pytest

from fedsvm.config import (
    DECREASING,
    FEDAVG,
    FEDAWS,
    FEDOPT,
    SVM_MARGIN,
    ClientConfig,
    ConfigError,
    DatasetConfig,
    ModelConfig,
    RunConfig,
    StrategyConfig,
    parse_config,
)
from fedsvm.harness import run_experiment
from fedsvm.optim import ADAM, AMSGRAD

# section -> {key: a valid value}
ACCEPTED = {
    "dataset": {
        "kind": "synthetic", "clients": "40", "classes": "8", "feature_dim": "32",
        "samples_per_client_mean": "60", "samples_per_client_spread": "20",
        "dirichlet_alpha": "0.1", "class_separation": "3.0", "noise_sigma": "1.0",
        "images": "", "labels": "", "partition_clients": "40", "partition_alpha": "0.5",
    },
    "model": {"embedding_dim": "64", "hidden_width": "64"},
    "client": {
        "epochs": "1", "batch_size": "64", "learning_rate": "0.1", "variant": "vanilla",
        "prox_mu": "0.01", "moon_coeff": "1.0", "moon_temperature": "0.5",
    },
    "strategy": {
        "name": "fedavg", "server_optimizer": "adam", "server_learning_rate": "0.01",
        "svm_penalty_initial": "1.0", "svm_penalty_floor": "0.01",
        "svm_penalty_schedule": "decreasing", "reg_steps": "1",
        "reset_server_state": "false", "svm_diagnostics": "false",
    },
    "run": {
        "rounds": "100", "clients_per_round": "8", "target_accuracy": "0.8",
        "seeds": "0 1 2 3 4", "output_dir": "out", "eval_stride": "1",
        "sv_checkpoint_round": "1", "label": "x",
    },
}


def write(tmp_path, text, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_accepted_keys_are_pinned():
    assert {section: set(keys) for section, keys in ACCEPTED.items()} == {
        "dataset": {"kind", "clients", "classes", "feature_dim",
                    "samples_per_client_mean", "samples_per_client_spread",
                    "dirichlet_alpha", "class_separation", "noise_sigma",
                    "images", "labels", "partition_clients", "partition_alpha"},
        "model": {"embedding_dim", "hidden_width"},
        "client": {"epochs", "batch_size", "learning_rate", "variant", "prox_mu",
                   "moon_coeff", "moon_temperature"},
        "strategy": {"name", "server_optimizer", "server_learning_rate",
                     "svm_penalty_initial", "svm_penalty_floor",
                     "svm_penalty_schedule", "reg_steps", "reset_server_state",
                     "svm_diagnostics"},
        "run": {"rounds", "clients_per_round", "target_accuracy", "seeds",
                "output_dir", "eval_stride", "sv_checkpoint_round", "label"},
    }
    assert [len(keys) for keys in ACCEPTED.values()] == [13, 2, 7, 9, 8]


SECTIONS = {"dataset": DatasetConfig, "model": ModelConfig, "client": ClientConfig,
            "strategy": StrategyConfig, "run": RunConfig}


@pytest.mark.parametrize("section", ACCEPTED)
def test_section_fields_are_named_as_its_keys(section):
    # One dataclass per section and no key translated: besides its keys,
    # RunConfig holds only the four other sections.
    fields = {f.name for f in dataclasses.fields(SECTIONS[section])}
    if section == "run":
        fields -= SECTIONS.keys() - {"run"}
    assert fields == set(ACCEPTED[section])


def test_readme_configuration_block_names_every_key():
    # The README's ini block lists each section's keys after its
    # [section]; a key added without docs fails here.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"^## Configuration\n.*?^```ini\n(.*?)^```", readme,
                      re.MULTILINE | re.DOTALL).group(1)
    parts = dict(re.findall(r"^\[(\w+)\](.*?)(?=^\[|\Z)", block, re.MULTILINE | re.DOTALL))
    assert parts.keys() == ACCEPTED.keys()
    for section, keys in ACCEPTED.items():
        missing = [key for key in keys if not re.search(rf"\b{key}\b", parts[section])]
        assert not missing, f"[{section}] in README lacks {missing}"


@pytest.mark.parametrize("section,key", [
    (section, key) for section, keys in ACCEPTED.items() for key in keys])
def test_every_pinned_key_is_accepted(tmp_path, section, key):
    parse_config(write(tmp_path, f"[{section}]\n{key} = {ACCEPTED[section][key]}\n"))


def test_all_pinned_keys_together_are_accepted(tmp_path):
    text = "".join(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for section, keys in ACCEPTED.items())
    parse_config(write(tmp_path, text))


@pytest.mark.parametrize("section,key", [
    ("dataset", "client"), ("model", "embeding_dim"), ("client", "learning_rte"),
    ("strategy", "server_optimiser"), ("run", "seed")])
def test_misspelt_key_is_rejected_by_name(tmp_path, section, key):
    with pytest.raises(ConfigError, match=f"{section}.{key}"):
        parse_config(write(tmp_path, f"[{section}]\n{key} = 1\n"))


def test_minimal_config_defaults(tmp_path):
    cfg = parse_config(write(tmp_path, ""))
    assert cfg.dataset.kind == "synthetic"
    assert cfg.dataset == DatasetConfig()
    assert cfg.dataset == DatasetConfig(
        clients=40, classes=8, feature_dim=32, samples_per_client_mean=60,
        samples_per_client_spread=20, dirichlet_alpha=0.1, class_separation=3.0,
        noise_sigma=1.0)
    assert (cfg.dataset.images, cfg.dataset.labels) == ("", "")
    assert (cfg.dataset.partition_clients, cfg.dataset.partition_alpha) == (40, 0.5)
    assert (cfg.model.embedding_dim, cfg.model.hidden_width) == (64, 64)
    assert cfg.client == ClientConfig(epochs=1, batch_size=64, learning_rate=0.1,
                                      variant="vanilla", prox_mu=0.01, moon_coeff=1.0,
                                      moon_temperature=0.5)
    st = cfg.strategy
    assert (st.kind, st.optimizer, st.learning_rate, st.reg_steps,
            st.reset_server_state) == (FEDAVG, ADAM, 1e-2, 1, False)
    assert cfg.rounds == 100
    assert cfg.clients_per_round == 8
    assert cfg.target_accuracy == 0.8
    assert cfg.seeds == (0, 1, 2, 3, 4)
    assert cfg.output_dir == "out"
    assert cfg.eval_stride == 1
    assert cfg.sv_checkpoint_round is None
    assert cfg.label == ""
    assert cfg.algorithm_name() == "fedavg"


@pytest.mark.parametrize("name,kind,optimizer,rate", [
    ("fedadam", FEDOPT, ADAM, 1e-3),
    ("fedams", FEDOPT, AMSGRAD, 1e-3),
    ("fedopt", FEDOPT, ADAM, 1e-3),
    ("fedaws", FEDAWS, ADAM, 1e-2),
])
def test_server_defaults_per_strategy(tmp_path, name, kind, optimizer, rate):
    cfg = parse_config(write(tmp_path, f"[strategy]\nname = {name}\n"))
    st = cfg.strategy
    assert (st.kind, st.optimizer, st.learning_rate, st.reg_steps,
            st.reset_server_state) == (kind, optimizer, rate, 1, False)
    assert cfg.algorithm_name() == name


def test_svm_margin_defaults(tmp_path):
    cfg = parse_config(write(tmp_path, "[strategy]\nname = svm_margin\n"))
    st = cfg.strategy
    assert (st.kind, st.optimizer, st.learning_rate, st.reg_steps,
            st.reset_server_state) == (SVM_MARGIN, ADAM, 1e-2, 1, False)
    assert (st.svm_penalty_initial, st.svm_penalty_floor, cfg.rounds,
            st.svm_penalty_schedule) == (1.0, 0.01, 100, DECREASING)


def test_svm_diagnostics_default_off(tmp_path):
    cfg = parse_config(write(tmp_path, """
[dataset]
clients = 6
classes = 3
feature_dim = 4
samples_per_client_mean = 8

[model]
embedding_dim = 4
hidden_width = 4

[strategy]
name = svm_margin

[run]
rounds = 1
clients_per_round = 3
seeds = 0
"""))
    out = run_experiment(cfg, tmp_path / "out").output_dir
    assert (out / "rounds.csv").exists()
    assert not (out / "svm_diag.txt").exists()
