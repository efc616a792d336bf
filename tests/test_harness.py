import configparser
import csv
import dataclasses
import math
import os
import signal
import subprocess
import sys
import time
import typing
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import fedsvm
from fedsvm import config
from fedsvm.cli import main as cli_main
from fedsvm.config import (
    ConfigError,
    DatasetConfig,
    ModelConfig,
    RunConfig,
    StrategyConfig,
    parse_config,
)
from fedsvm.data import generate_synthetic, heldout_pool
from fedsvm.harness import (
    COMPARE_CSV_COLUMNS,
    ROUNDS_CSV_COLUMNS,
    SWEEP_CSV_COLUMNS,
    compare_strategies,
    run_experiment,
    sv_sweep,
)

BASE = """
[dataset]
kind = synthetic
clients = 6
classes = 3
feature_dim = 4
samples_per_client_mean = 12
samples_per_client_spread = 4
dirichlet_alpha = 0.5
class_separation = 4.0
noise_sigma = 0.8

[model]
embedding_dim = 4
hidden_width = 8

[client]
learning_rate = 0.1

[strategy]
name = {strategy}

[run]
rounds = {rounds}
clients_per_round = 3
target_accuracy = 0.7
seeds = {seeds}
output_dir = {outdir}
{extra_run}
"""


def write_config(tmp_path, name="cfg.ini", strategy="fedavg", rounds=3,
                 seeds="0", extra_run="", extra=""):
    text = BASE.format(strategy=strategy, rounds=rounds, seeds=seeds,
                       outdir=tmp_path / "out", extra_run=extra_run)
    path = tmp_path / name
    path.write_text(text + extra)
    return path


def read_rounds(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def masked(rows):
    # The wall-clock column is the one legitimately nondeterministic field.
    return [row[:-1] for row in rows]


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def test_defaults_follow_reference_protocol(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("[dataset]\nclients = 40\n\n[strategy]\nname = svm_margin\n")
    cfg = parse_config(path)
    assert cfg.client.epochs == 1
    assert cfg.clients_per_round == 8
    assert cfg.client.batch_size == 64
    assert cfg.client.learning_rate == 0.1
    assert cfg.strategy.learning_rate == 1e-2
    assert cfg.strategy.svm_penalty_initial == 1.0

    path2 = tmp_path / "cfg2.ini"
    path2.write_text("[dataset]\nclients = 40\n\n[strategy]\nname = fedadam\n")
    assert parse_config(path2).strategy.learning_rate == 1e-3


def test_unknown_key_is_hard_error(tmp_path):
    path = tmp_path / "typo.ini"
    path.write_text("[dataset]\nclients = 6\n\n[client]\nlearning_rte = 0.1\n")
    with pytest.raises(ConfigError, match="client.learning_rte"):
        parse_config(path)


def test_unknown_section_is_hard_error(tmp_path):
    path = write_config(tmp_path, extra="\n[serverr]\nx = 1\n")
    with pytest.raises(ConfigError, match="serverr"):
        parse_config(path)


def test_too_many_clients_per_round_names_both_fields(tmp_path):
    path = write_config(tmp_path, extra_run="clients_per_round = 50\n")
    # configparser keeps the later duplicate assignment? No: duplicates in
    # one section are an error, so build the config directly instead.
    path = tmp_path / "big.ini"
    path.write_text("[dataset]\nclients = 6\n\n[run]\nclients_per_round = 50\n")
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert "clients_per_round" in str(err.value)
    assert "dataset.clients" in str(err.value)


def test_too_many_clients_per_round_names_the_idx_key(tmp_path):
    path = tmp_path / "idx.ini"
    path.write_text("[dataset]\nkind = idx\nimages = i.idx\nlabels = l.idx\n"
                    "partition_clients = 3\n\n[run]\nclients_per_round = 3\n")
    with pytest.raises(ConfigError, match=r"dataset\.partition_clients = 3"):
        parse_config(path)


def test_bad_type_reports_field(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("[run]\nrounds = soon\n")
    with pytest.raises(ConfigError, match="run.rounds"):
        parse_config(path)


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        parse_config(tmp_path / "nope.ini")


def test_seed_list_parsing(tmp_path):
    path = write_config(tmp_path, seeds="3, 1 4")
    assert parse_config(path).seeds == (3, 1, 4)


def test_repeated_seed_is_rejected(tmp_path):
    # A repeated seed would run twice and count as two seeds in the std.
    with pytest.raises(ConfigError, match="run.seeds"):
        parse_config(write_config(tmp_path, seeds="0 0"))


@pytest.mark.parametrize("field,value", [
    ("eval_stride", 0), ("rounds", 0), ("seeds", ()), ("seeds", (1, 1)),
])
def test_config_built_in_code_is_checked(tmp_path, monkeypatch, field, value):
    # Building or replacing a config in code checks it as parsing does,
    # so no seed starts on a config the parser would refuse.
    import fedsvm.harness as harness

    monkeypatch.setattr(harness, "_run_seed", lambda *args: pytest.fail("a seed ran"))
    cfg = parse_config(write_config(tmp_path))
    with pytest.raises(ConfigError, match=f"run.{field}"):
        harness.run_experiment(replace(cfg, **{field: value}), tmp_path / "replaced")
    with pytest.raises(ConfigError, match=f"run.{field}"):
        RunConfig(**{field: value})


def test_dataset_and_model_built_in_code_are_checked():
    with pytest.raises(ConfigError, match="dataset.images"):
        DatasetConfig(kind="idx")
    with pytest.raises(ConfigError, match="model.embedding_dim"):
        replace(ModelConfig(), embedding_dim=0)


@pytest.mark.parametrize("section,key,change", [
    ("client", "epochs", lambda cfg: replace(cfg.client, epochs=0)),
    ("strategy", "reg_steps", lambda cfg: replace(cfg.strategy, reg_steps=-1)),
    ("dataset", "clients", lambda cfg: replace(cfg.dataset, clients=1)),
    ("dataset", "partition_alpha", lambda cfg: replace(cfg.dataset, partition_alpha=-1.0)),
    ("model", "embedding_dim", lambda cfg: replace(cfg.model, embedding_dim=0)),
    ("run", "rounds", lambda cfg: replace(cfg, rounds=0)),
])
def test_every_section_checks_itself_with_one_error_type(section, key, change):
    # A section changed in code fails as a parsed one does: a ConfigError
    # that names the offending INI key.
    with pytest.raises(ConfigError, match=rf"\b{section}\.{key}\b"):
        change(RunConfig())


# (section, key) of every float field of every section, float | None
# included, so a float key added later is covered.
FLOAT_KEYS = [(section, f.name) for section, cls in config._SECTIONS.items()
              for f in dataclasses.fields(cls)
              if float in (hint := typing.get_type_hints(cls)[f.name],
                           *typing.get_args(hint))]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("section,key", FLOAT_KEYS)
def test_every_float_key_must_be_finite(section, key, value):
    # Whatever the variant or strategy: a NaN passes every sign rule,
    # and a NaN penalty would run every round at the floor.
    with pytest.raises(ConfigError, match=rf"\b{section}\.{key}\b"):
        config._SECTIONS[section](**{key: value})


def test_non_finite_penalty_in_a_shipped_config_is_a_config_error(tmp_path):
    shipped = Path(__file__).resolve().parents[1] / "configs" / "synthetic_svm_margin.ini"
    text = shipped.read_text().replace("svm_penalty_initial = 1.0", "svm_penalty_initial = nan")
    assert "= nan" in text
    path = tmp_path / "nan_penalty.ini"
    path.write_text(text)
    assert cli_main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 1


def test_largest_accepted_participation_is_the_train_client_count():
    # RunConfig and the data split count the held-out clients alike.
    for n in range(2, 61):
        dataset = DatasetConfig(clients=n, classes=2, feature_dim=1,
                                samples_per_client_mean=2, samples_per_client_spread=0)
        accepted = []
        for c in range(1, n + 1):
            try:
                RunConfig(dataset=dataset, clients_per_round=c)
            except ConfigError:
                continue
            accepted.append(c)
        assert max(accepted) == len(generate_synthetic(dataset, 0).train_client_indices), n


def test_config_module_imports_no_engine_module():
    # The config is a leaf of the package: data, the engine and the
    # harness import it, never the reverse.
    src = str(Path(fedsvm.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, fedsvm.config; print(' '.join(sorted(sys.modules)))"
    loaded = set(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                capture_output=True, text=True).stdout.split())
    assert "fedsvm.config" in loaded
    assert not loaded & {"fedsvm.strategies", "fedsvm.harness", "fedsvm.model", "fedsvm.data"}


# ---------------------------------------------------------------------------
# run_experiment
# ---------------------------------------------------------------------------

def test_rounds_csv_schema_and_determinism(tmp_path):
    cfg = parse_config(write_config(tmp_path, strategy="svm_margin", rounds=3,
                                    seeds="0 1"))
    out1 = run_experiment(cfg, tmp_path / "a")
    out2 = run_experiment(cfg, tmp_path / "b")
    rows1 = read_rounds(out1.output_dir / "rounds.csv")
    rows2 = read_rounds(out2.output_dir / "rounds.csv")
    # Golden schema: fixed column names in fixed order.
    assert rows1[0] == ["seed", "round", "strategy", "loss", "accuracy",
                        "f1", "mcc", "lambda", "sv_counts", "ms"]
    assert rows1[0] == ROUNDS_CSV_COLUMNS
    assert masked(rows1) == masked(rows2)
    assert not out1.failed_seeds
    # svm_margin rows carry the penalty coefficient and per-class counts.
    first = rows1[1]
    assert first[ROUNDS_CSV_COLUMNS.index("lambda")] != ""
    counts = first[ROUNDS_CSV_COLUMNS.index("sv_counts")].split(";")
    assert len(counts) == 3


def test_summary_aggregates_match_recomputation(tmp_path):
    cfg = parse_config(write_config(tmp_path, rounds=3, seeds="0 1 2"))
    result = run_experiment(cfg, tmp_path / "agg")
    with open(result.output_dir / "summary.csv") as fh:
        rows = list(csv.DictReader(fh))
    per_seed = [r for r in rows if r["seed"] not in ("mean", "std")]
    mean_row = next(r for r in rows if r["seed"] == "mean")
    std_row = next(r for r in rows if r["seed"] == "std")
    finals = np.array([float(r["final_accuracy"]) for r in per_seed])
    assert float(mean_row["final_accuracy"]) == pytest.approx(finals.mean(), abs=1e-15)
    assert float(std_row["final_accuracy"]) == pytest.approx(finals.std(), abs=1e-15)


def test_eval_stride_limits_rows_but_keeps_final_round(tmp_path):
    cfg = parse_config(write_config(tmp_path, rounds=5,
                                    extra_run="eval_stride = 2\n"))
    result = run_experiment(cfg, tmp_path / "stride")
    rows = read_rounds(result.output_dir / "rounds.csv")[1:]
    rounds = [int(r[1]) for r in rows]
    assert rounds == [1, 3, 5]


def test_failed_seed_does_not_stop_others(tmp_path, monkeypatch):
    cfg = parse_config(write_config(tmp_path, rounds=2, seeds="0 1"))

    import fedsvm.harness as harness

    original = harness._build_dataset

    def flaky(config, seed):
        if seed == 0:
            raise RuntimeError("injected failure")
        return original(config, seed)

    monkeypatch.setattr(harness, "_build_dataset", flaky)
    result = run_experiment(cfg, tmp_path / "flaky")
    assert [s for s, _ in result.failed_seeds] == [0]
    assert [r.seed for r in result.seed_results] == [1]


def test_round_record_is_released_before_the_next_round(tmp_path, monkeypatch):
    # No round's client buffer may still be alive when the next round
    # trains its clients: neither the (C, P) rows of client_update nor
    # the (C, K·d) logit rows of a one-step round. A round's SVM holds a
    # copy of its class embeddings, not views into that buffer.
    import fedsvm.strategies as strategies

    buffers, alive = [], []

    def tracked(train, index):
        def wrapper(*args, **kwargs):
            alive.append(sum(ref() is not None for ref in buffers))
            result = train(*args, **kwargs)
            buffers.append(weakref.ref(result[index]))
            return result
        return wrapper

    monkeypatch.setattr(strategies, "client_update", tracked(strategies.client_update, 0))
    monkeypatch.setattr(strategies, "one_step_update",
                        tracked(strategies.one_step_update, 1))
    cfg = parse_config(Path(__file__).resolve().parent.parent / "configs"
                       / "synthetic_svm_margin.ini")
    # One epoch takes the one-step path, two the general one.
    for epochs in (1, 2):
        buffers[:], alive[:] = [], []
        run = replace(cfg, rounds=5, seeds=(0,), client=replace(cfg.client, epochs=epochs))
        result = run_experiment(run, tmp_path / f"epochs{epochs}")
        assert not result.failed_seeds
        assert alive == [0, 0, 0, 0, 0], epochs


def test_heldout_pool_is_built_once_per_seed(tmp_path, monkeypatch):
    import fedsvm.harness as harness

    calls = []

    def counting(dataset):
        calls.append(dataset)
        return heldout_pool(dataset)

    monkeypatch.setattr(harness, "heldout_pool", counting)
    cfg = parse_config(write_config(tmp_path, rounds=4, seeds="0 1"))
    result = run_experiment(cfg, tmp_path / "pool")
    assert not result.failed_seeds
    assert len(calls) == 2


def growing_embeddings_run(tmp_path, embedding_dim):
    # The shipped svm_margin config cut to one client per round and two
    # classes, at client rate 1: client training grows the embeddings
    # every round.
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(Path(__file__).resolve().parent.parent / "configs"
                / "synthetic_svm_margin.ini")
    for section, key, value in (("dataset", "classes", "2"),
                                ("model", "embedding_dim", str(embedding_dim)),
                                ("client", "learning_rate", "1.0"),
                                ("run", "clients_per_round", "1"),
                                ("run", "rounds", "15"),
                                ("run", "seeds", "0")):
        parser.set(section, key, value)
    path = tmp_path / "cfg.ini"
    with open(path, "w") as fh:
        parser.write(fh)
    return run_experiment(parse_config(path), tmp_path / "run")


def test_growing_embeddings_keep_their_support_vectors(tmp_path):
    # The dual coefficients shrink like 1/|x|^2; an absolute
    # support-vector threshold lost this seed in round 9 with "class 0
    # has no support vectors".
    result = growing_embeddings_run(tmp_path, embedding_dim=2)
    assert not result.failed_seeds, result.failed_seeds
    assert result.seed_results[0].rows[-1].round == 15


def test_overflowing_embeddings_name_the_gram(tmp_path):
    # At d = 1 the embeddings pass 1e154 and their Gram overflows; the
    # seed used to die as "class 0 has no support vectors".
    result = growing_embeddings_run(tmp_path, embedding_dim=1)
    [(seed, message)] = result.failed_seeds
    assert seed == 0
    assert "SVM fit failed: pair (0, 1): non-finite values in Gram matrix" in message


@pytest.mark.parametrize("strategy,client_extra", [
    ("fedavg", ""),
    ("fedadam", ""),
    ("fedams", ""),
    ("fedaws", ""),
    ("svm_margin", ""),
    ("fedavg", "variant = prox\nprox_mu = 0.01\n"),
    ("fedavg", "variant = moon\nmoon_coeff = 1.0\n"),
])
def test_every_strategy_runs_end_to_end(tmp_path, strategy, client_extra):
    path = tmp_path / "cfg.ini"
    path.write_text(BASE.format(strategy=strategy, rounds=2, seeds="0",
                                outdir=tmp_path / "out", extra_run="")
                    .replace("learning_rate = 0.1",
                             "learning_rate = 0.1\n" + client_extra))
    result = run_experiment(parse_config(path), tmp_path / "run")
    assert not result.failed_seeds
    assert len(result.seed_results[0].rows) == 2


def test_idx_dataset_through_the_harness(tmp_path):
    import struct

    rng = np.random.default_rng(0)
    n, side = 60, 4
    pixels = rng.integers(0, 256, size=(n, side * side), dtype=np.uint8)
    labels = rng.integers(0, 3, size=n, dtype=np.uint8)
    img = tmp_path / "images.idx"
    lab = tmp_path / "labels.idx"
    img.write_bytes(struct.pack(">IIII", 0x803, n, side, side) + pixels.tobytes())
    lab.write_bytes(struct.pack(">II", 0x801, n) + labels.tobytes())

    path = tmp_path / "idx.ini"
    path.write_text(f"""
[dataset]
kind = idx
images = {img}
labels = {lab}
partition_clients = 6
partition_alpha = 0.5

[model]
embedding_dim = 4
hidden_width = 8

[run]
rounds = 2
clients_per_round = 3
target_accuracy = 0.9
seeds = 0
""")
    result = run_experiment(parse_config(path), tmp_path / "idxrun")
    assert not result.failed_seeds
    assert len(result.seed_results[0].rows) == 2


def test_svm_diagnostics_dump(tmp_path):
    # The table covers every round, also the ones eval_stride skips.
    for rounds, extra_run in ((2, ""), (3, "eval_stride = 2\n")):
        path = write_config(tmp_path, strategy="svm_margin", rounds=rounds,
                            extra_run=extra_run)
        text = path.read_text().replace("name = svm_margin",
                                        "name = svm_margin\nsvm_diagnostics = true")
        path.write_text(text)
        result = run_experiment(parse_config(path), tmp_path / f"diag{rounds}")
        diag = (result.output_dir / "svm_diag.txt").read_text()
        assert "duality_gap" in diag
        for t in range(1, rounds + 1):
            assert f"# seed 0 round {t}\n" in diag


def test_run_without_diagnostics_removes_an_earlier_dump(tmp_path):
    # Diagnostics beside fresh CSVs must come from the same run.
    path = write_config(tmp_path, strategy="svm_margin", rounds=2)
    cfg = parse_config(path)
    out = tmp_path / "out"
    run_experiment(replace(cfg, strategy=replace(cfg.strategy, svm_diagnostics=True)), out)
    assert (out / "svm_diag.txt").exists()
    run_experiment(cfg, out)
    assert not (out / "svm_diag.txt").exists()


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def test_compare_identical_strategies_identical_rows(tmp_path):
    a = parse_config(write_config(tmp_path, "a.ini", rounds=2,
                                  extra_run="label = first\n"))
    b = parse_config(write_config(tmp_path, "b.ini", rounds=2,
                                  extra_run="label = second\n"))
    rows = compare_strategies([a, b], tmp_path / "cmp")
    strip = lambda row: {k: v for k, v in row.items() if k != "strategy"}
    assert strip(rows[0]) == strip(rows[1])
    with open(tmp_path / "cmp" / "compare.csv") as fh:
        header = fh.readline().strip().split(",")
    assert header == COMPARE_CSV_COLUMNS


def test_compare_fedopt_sgd_unit_rate_equals_fedavg(tmp_path):
    a = parse_config(write_config(tmp_path, "a.ini", rounds=3, seeds="0 1"))
    path = tmp_path / "b2.ini"
    path.write_text(BASE.format(strategy="fedopt", rounds=3, seeds="0 1",
                                outdir=tmp_path / "out", extra_run="")
                    .replace("name = fedopt",
                             "name = fedopt\nserver_optimizer = sgd\n"
                             "server_learning_rate = 1.0"))
    b = parse_config(path)
    rows = compare_strategies([a, b], tmp_path / "cmp2")
    strip = lambda row: {k: v for k, v in row.items() if k != "strategy"}
    assert strip(rows[0]) == strip(rows[1])
    assert rows[1]["strategy"] == "fedopt_sgd"


def test_compare_rejects_mismatched_datasets(tmp_path):
    a = parse_config(write_config(tmp_path, "a.ini"))
    big = write_config(tmp_path, "b.ini")
    text = big.read_text().replace("clients = 6", "clients = 8")
    big.write_text(text)
    b = parse_config(big)
    with pytest.raises(ConfigError, match="differ only in strategy"):
        compare_strategies([a, b], tmp_path / "cmp3")


def test_compare_reports_never_reached_as_gt_rounds(tmp_path):
    a = parse_config(write_config(tmp_path, "a.ini", rounds=2, seeds="0",
                                  extra_run="label = okay\n"))
    crippled_path = tmp_path / "crippled.ini"
    crippled_path.write_text(
        BASE.format(strategy="fedavg", rounds=2, seeds="0",
                    outdir=tmp_path / "out", extra_run="label = crippled\n")
        .replace("learning_rate = 0.1", "learning_rate = 1e-6"))
    b = parse_config(crippled_path)
    rows = compare_strategies([a, b], tmp_path / "cmp4")
    assert rows[1]["rounds_mean"] == ">2"
    assert rows[1]["rounds_std"] == ""


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_grid_and_schema(tmp_path):
    cfg = parse_config(write_config(tmp_path, strategy="svm_margin", rounds=2))
    rows = sv_sweep(cfg, [2, 4], [2, 3], tmp_path / "sweep")
    assert [(r["d"], r["C"]) for r in rows] == [(2, 2), (2, 3), (4, 2), (4, 3)]
    assert all(r["round"] == 2 for r in rows)
    assert all(1 <= r["sv_count"] <= r["C"] for r in rows)
    with open(tmp_path / "sweep" / "sweep.csv") as fh:
        header = fh.readline().strip().split(",")
    assert header == SWEEP_CSV_COLUMNS


@pytest.mark.parametrize("rounds,extra_run", [
    (2, "sv_checkpoint_round = 5\n"),                   # past the last round
    (3, "sv_checkpoint_round = 2\neval_stride = 2\n"),  # rounds 1 and 3 are evaluated
    (250, "eval_stride = 2\n"),                         # the default, round 200
])
def test_unevaluated_sv_checkpoint_is_rejected(tmp_path, rounds, extra_run):
    path = write_config(tmp_path, strategy="svm_margin", rounds=rounds,
                        extra_run=extra_run)
    with pytest.raises(ConfigError, match="run.sv_checkpoint_round"):
        parse_config(path)


def test_sv_checkpoint_rule_applies_only_to_svm_margin():
    cfg = RunConfig(rounds=250, eval_stride=2)
    assert cfg.strategy.name == "fedavg"
    with pytest.raises(ConfigError, match="run.sv_checkpoint_round"):
        RunConfig(rounds=250, eval_stride=2, strategy=StrategyConfig(name="svm_margin"))


def test_sweep_requires_svm_margin(tmp_path):
    cfg = parse_config(write_config(tmp_path, strategy="fedavg"))
    with pytest.raises(ConfigError, match="svm_margin"):
        sv_sweep(cfg, [2], [2], tmp_path / "sweepbad")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_run_and_exit_codes(tmp_path, capsys):
    path = write_config(tmp_path, rounds=2)
    assert cli_main(["run", str(path), "--output-dir", str(tmp_path / "cli")]) == 0
    out = capsys.readouterr().out
    assert "aggregate" in out
    assert cli_main(["run", str(tmp_path / "missing.ini")]) == 1


def test_cli_seed_override(tmp_path):
    path = write_config(tmp_path, rounds=2, seeds="0 1 2")
    assert cli_main(["run", str(path), "--seed-override", "5",
                     "--output-dir", str(tmp_path / "ovr")]) == 0
    rows = read_rounds(tmp_path / "ovr" / "rounds.csv")[1:]
    assert {r[0] for r in rows} == {"5"}


def test_cli_repeated_seed_override_is_a_config_error(tmp_path, capsys):
    path = write_config(tmp_path, rounds=2)
    assert cli_main(["run", str(path), "--seed-override", "1", "1",
                     "--output-dir", str(tmp_path / "twice")]) == 1
    assert "run.seeds" in capsys.readouterr().err
    assert not (tmp_path / "twice").exists()


def test_cli_config_error_exit_code(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[dataset]\nclients = 6\n\n[run]\nclients_per_round = 50\n")
    assert cli_main(["run", str(path)]) == 1


def test_cli_eval_stride_override_is_validated(tmp_path, capsys):
    path = write_config(tmp_path, rounds=2)
    assert cli_main(["run", str(path), "--eval-stride", "0",
                     "--output-dir", str(tmp_path / "stride0")]) == 1
    assert "eval_stride" in capsys.readouterr().err
    assert not (tmp_path / "stride0").exists()


@pytest.mark.parametrize("name,key,value", [
    ("fedavg", "name", "fedsgd"),
    ("fedavg", "server_optimizer", "rmsprop"),
    ("fedadam", "server_learning_rate", "0"),
    ("fedavg", "svm_penalty_initial", "0"),  # checked for every strategy
    ("fedavg", "svm_penalty_floor", "-1"),
    ("svm_margin", "svm_penalty_schedule", "cyclic"),
    ("fedavg", "reg_steps", "-1"),
])
def test_cli_invalid_strategy_value_names_its_key(tmp_path, capsys, name, key, value):
    strategy = value if key == "name" else f"{name}\n{key} = {value}"
    path = write_config(tmp_path, strategy=strategy, rounds=1)
    assert cli_main(["run", str(path), "--output-dir", str(tmp_path / "bad")]) == 1
    err = capsys.readouterr().err
    assert "config error: strategy." in err and f"strategy.{key}" in err


def test_killed_run_leaves_parseable_csv_prefix(tmp_path):
    path = write_config(tmp_path, rounds=100_000, seeds="0")
    outdir = tmp_path / "killed"
    # The child imports the same fedsvm sources as this test, installed or not.
    src = str(Path(fedsvm.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "fedsvm.cli", "run", str(path),
         "--output-dir", str(outdir)],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env)
    deadline = time.time() + 30
    rounds_csv = outdir / "rounds.csv"
    while time.time() < deadline:
        if rounds_csv.exists() and rounds_csv.stat().st_size > 200:
            break
        time.sleep(0.1)
    os.kill(proc.pid, signal.SIGKILL)
    proc.wait()
    rows = read_rounds(rounds_csv)
    assert rows[0] == ROUNDS_CSV_COLUMNS
    assert len(rows) > 1
    for row in rows[1:]:
        if len(row) == len(ROUNDS_CSV_COLUMNS):
            float(row[3])  # loss parses
