"""Experiment harness: INI-style configs, multi-seed runs streamed to
CSV, cross-strategy comparison tables, and the embedding-size /
participation sweep.

Config files use one section per subsystem ([dataset], [model],
[client], [strategy], [run]). Each section is one dataclass whose
fields are its keys, types and defaults; unknown sections or keys are
hard errors so a typo in a learning-rate key can never silently change
a comparison. All CSV columns and orders are fixed.
"""

from __future__ import annotations

import configparser
import csv
import dataclasses
import logging
import time
import types
import typing
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .data import (
    FederatedDataset,
    HELDOUT_FRACTION,
    SyntheticSpec,
    generate_synthetic,
    load_idx,
    partition_by_client,
)
from .metrics import accuracy, confusion, format_rounds, macro_f1, mcc, rounds_to_target
from .model import init_model
from .strategies import (
    MOON,
    PROX,
    SGD,
    SVM_MARGIN,
    ClientConfig,
    ServerState,
    StrategyConfig,
    run_round,
)
from .svm import format_diagnostics

log = logging.getLogger(__name__)

ROUNDS_CSV_COLUMNS = ["seed", "round", "strategy", "loss", "accuracy", "f1",
                      "mcc", "lambda", "sv_counts", "ms"]
SUMMARY_CSV_COLUMNS = ["seed", "rounds_to_target", "final_accuracy", "final_f1",
                       "final_mcc", "final_loss"]
COMPARE_CSV_COLUMNS = ["strategy", "rounds_mean", "rounds_std", "accuracy_mean",
                       "accuracy_std", "f1_mean", "f1_std", "mcc_mean", "mcc_std"]
SWEEP_CSV_COLUMNS = ["d", "C", "round", "sv_count", "f1"]

class ConfigError(Exception):
    """Invalid configuration; maps to CLI exit code 1."""


@dataclass
class DatasetConfig:
    """[dataset]; the synthetic generator's keys fill ``synthetic``."""

    kind: str = "synthetic"
    synthetic: SyntheticSpec = field(default_factory=SyntheticSpec)
    images: str = ""
    labels: str = ""
    partition_clients: int = 40
    partition_alpha: float = 0.5

    def __post_init__(self):
        if self.kind not in ("synthetic", "idx"):
            raise ConfigError(f"dataset.kind: expected synthetic or idx, got {self.kind!r}")
        if self.kind == "idx" and not (self.images and self.labels):
            raise ConfigError("dataset.images and dataset.labels are required for idx datasets")


@dataclass
class ModelConfig:
    """[model]"""

    embedding_dim: int = 64
    hidden_width: int = 64

    def __post_init__(self):
        if self.embedding_dim < 1 or self.hidden_width < 1:
            raise ConfigError("model.embedding_dim and model.hidden_width must be positive")


@dataclass
class RunConfig:
    """One field per section dataclass; the scalar fields are [run]. Each
    section checks its own values when it is built, ``replace`` included;
    this one also checks the rules that span sections."""

    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    client: ClientConfig = field(default_factory=ClientConfig)
    strategy: StrategyConfig = field(default_factory=StrategyConfig)
    rounds: int = 100
    clients_per_round: int = 8
    target_accuracy: float = 0.8
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    output_dir: str = "out"
    eval_stride: int = 1
    sv_checkpoint_round: int | None = None
    label: str = ""

    def __post_init__(self):
        if self.rounds < 1:
            raise ConfigError("run.rounds must be >= 1")
        if not self.seeds:
            raise ConfigError("run.seeds must be nonempty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"run.seeds must not repeat a seed, got {self.seeds}")
        if not 0.0 < self.target_accuracy < 1.0:
            raise ConfigError("run.target_accuracy must lie in (0, 1)")
        if self.eval_stride < 1:
            raise ConfigError("run.eval_stride must be >= 1")
        train_clients = self.num_clients - max(1, int(round(HELDOUT_FRACTION * self.num_clients)))
        if self.clients_per_round > train_clients:
            key = "clients" if self.dataset.kind == "synthetic" else "partition_clients"
            raise ConfigError(
                f"run.clients_per_round = {self.clients_per_round} exceeds the "
                f"{train_clients} train clients implied by dataset.{key} = {self.num_clients}")
        if self.clients_per_round < 1:
            raise ConfigError("run.clients_per_round must be >= 1")
        # Only a sweep over svm_margin reads the checkpoint round.
        checkpoint = self.sv_checkpoint
        if self.strategy.kind == SVM_MARGIN and (
                not 1 <= checkpoint <= self.rounds or not self.evaluates(checkpoint - 1)):
            raise ConfigError(
                f"run.sv_checkpoint_round = {checkpoint} is not an evaluated round of "
                f"run.rounds = {self.rounds} at run.eval_stride = {self.eval_stride}")

    @property
    def num_clients(self) -> int:
        if self.dataset.kind == "synthetic":
            return self.dataset.synthetic.num_clients
        return self.dataset.partition_clients

    @property
    def sv_checkpoint(self) -> int:
        """The round whose support-vector counts a sweep reports."""
        if self.sv_checkpoint_round is None:
            return min(self.rounds, 200)
        return self.sv_checkpoint_round

    def evaluates(self, t: int) -> bool:
        """Whether the 0-based round ``t`` is evaluated and written."""
        return t % self.eval_stride == 0 or t == self.rounds - 1

    def algorithm_name(self) -> str:
        if self.label:
            return self.label
        if self.client.variant == PROX:
            return "fedprox"
        if self.client.variant == MOON:
            return "moon"
        if self.strategy.name == "fedopt" and self.strategy.server_optimizer == SGD:
            return "fedopt_sgd"
        return self.strategy.name


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

# INI section -> the dataclasses whose scalar fields are its keys.
_SECTIONS = {
    "dataset": (DatasetConfig, SyntheticSpec),
    "model": (ModelConfig,),
    "client": (ClientConfig,),
    "strategy": (StrategyConfig,),
    "run": (RunConfig,),
}
# SyntheticSpec fields under another INI key; the generation seed is the
# run seed and has no key.
_SYNTHETIC_KEYS = {"num_clients": "clients", "num_classes": "classes", "seed": None}


def _section_keys(section: str) -> dict[str, tuple[type, str, object]]:
    """INI key -> (dataclass, field name, field type) for one section."""
    keys = {}
    for cls in _SECTIONS[section]:
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            key = _SYNTHETIC_KEYS.get(f.name, f.name) if cls is SyntheticSpec else f.name
            if key and not dataclasses.is_dataclass(hints[f.name]):
                keys[key] = (cls, f.name, hints[f.name])
    return keys


def _typed(section: str, key: str, raw: str, kind):
    if typing.get_origin(kind) is types.UnionType:  # optional: T | None
        kind = typing.get_args(kind)[0]
    try:
        if kind is bool:
            return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
        if kind == tuple[int, ...]:
            return tuple(int(tok) for tok in raw.replace(",", " ").split())
        return kind(raw)
    except (KeyError, ValueError) as err:
        raise ConfigError(f"{section}.{key}: cannot parse {raw!r} as {kind.__name__}") from err


def parse_config(path) -> RunConfig:
    """Parse a config file into checked section dataclasses; absent keys
    take their defaults, which follow the reference protocol."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read(path)
    except configparser.Error as err:
        raise ConfigError(f"{path}: {err}") from err

    values = {cls: {} for classes in _SECTIONS.values() for cls in classes}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        keys = _section_keys(section)
        for key, raw in parser.items(section):
            if key not in keys:
                raise ConfigError(f"{section}.{key}: unknown key")
            cls, name, kind = keys[key]
            values[cls][name] = _typed(section, key, raw, kind)

    def build(section, cls, **nested):
        try:
            return cls(**values[cls], **nested)
        except ValueError as err:
            raise ConfigError(f"{section}: {err}") from err

    return build("run", RunConfig,
                 dataset=build("dataset", DatasetConfig,
                               synthetic=build("dataset", SyntheticSpec)),
                 model=build("model", ModelConfig),
                 client=build("client", ClientConfig),
                 strategy=build("strategy", StrategyConfig))


# ---------------------------------------------------------------------------
# Experiment execution
# ---------------------------------------------------------------------------

@dataclass
class RoundRow:
    seed: int
    round: int
    strategy: str
    loss: float
    accuracy: float
    f1: float
    mcc: float
    lam: float | None
    sv_counts: tuple[int, ...] | None
    ms: float

    def as_csv(self) -> list[str]:
        return [
            str(self.seed), str(self.round), self.strategy,
            repr(self.loss), repr(self.accuracy), repr(self.f1), repr(self.mcc),
            "" if self.lam is None else repr(self.lam),
            "" if self.sv_counts is None else ";".join(str(c) for c in self.sv_counts),
            f"{self.ms:.3f}",
        ]


@dataclass
class SeedResult:
    seed: int
    rows: list[RoundRow]
    rounds_to_target: int | None

    @property
    def final(self) -> RoundRow:
        """The last round's row; the last round is always evaluated."""
        return self.rows[-1]


@dataclass
class ExperimentResult:
    config: RunConfig
    seed_results: list[SeedResult]
    failed_seeds: list[tuple[int, str]]
    output_dir: Path


def _build_dataset(cfg: RunConfig, seed: int) -> FederatedDataset:
    """Per-seed dataset; the run seed overrides the generation seed so a
    seed fully determines data, initialization, and sampling."""
    if cfg.dataset.kind == "synthetic":
        return generate_synthetic(replace(cfg.dataset.synthetic, seed=seed))
    features, labels = load_idx(cfg.dataset.images, cfg.dataset.labels)
    return partition_by_client(features, labels, cfg.dataset.partition_clients,
                               cfg.dataset.partition_alpha, seed)


def _run_seed(cfg: RunConfig, seed: int, writer, fh, diag_path: Path | None) -> SeedResult:
    dataset = _build_dataset(cfg, seed)
    init_rng = np.random.default_rng(np.random.SeedSequence([seed, 4]))
    model = init_model(dataset.feature_dim, [cfg.model.hidden_width],
                       cfg.model.embedding_dim, dataset.num_classes, init_rng)
    server = ServerState.create(cfg.strategy, cfg.rounds)
    name = cfg.algorithm_name()

    rows: list[RoundRow] = []
    for t in range(cfg.rounds):
        start = time.perf_counter()
        model, rec = run_round(t, model, dataset, server, cfg.client,
                               cfg.clients_per_round, seed)
        if cfg.evaluates(t):
            cm = confusion(model, dataset)
            row = RoundRow(seed, t + 1, name, rec.train_loss, accuracy(cm),
                           macro_f1(cm), mcc(cm), rec.lam, rec.sv_counts,
                           (time.perf_counter() - start) * 1e3)
            rows.append(row)
            writer.writerow(row.as_csv())
            fh.flush()
        if diag_path is not None and rec.svm is not None:
            with open(diag_path, "a") as dfh:
                dfh.write(f"# seed {seed} round {t + 1}\n{format_diagnostics(rec.svm)}\n")

    crossing = rounds_to_target([row.accuracy for row in rows], cfg.target_accuracy)
    reached = None if crossing is None else rows[crossing - 1].round
    return SeedResult(seed, rows, reached)


def run_experiment(cfg: RunConfig, output_dir=None) -> ExperimentResult:
    """Execute the config for every seed, streaming rounds.csv row by row
    (the file is a parseable prefix at any moment). A failing seed aborts
    only itself; remaining seeds still run."""
    out = Path(output_dir if output_dir is not None else cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    diag_path = out / "svm_diag.txt" if cfg.strategy.svm_diagnostics else None
    if diag_path is not None and diag_path.exists():
        diag_path.unlink()

    seed_results: list[SeedResult] = []
    failed: list[tuple[int, str]] = []
    with open(out / "rounds.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ROUNDS_CSV_COLUMNS)
        fh.flush()
        for seed in cfg.seeds:
            try:
                seed_results.append(_run_seed(cfg, seed, writer, fh, diag_path))
            except Exception as err:  # noqa: BLE001 - seed isolation is the contract
                log.error("seed %d failed: %s", seed, err)
                failed.append((seed, str(err)))

    _write_summary(cfg, seed_results, out)
    return ExperimentResult(cfg, seed_results, failed, out)


# ---------------------------------------------------------------------------
# Seed aggregates and output tables
# ---------------------------------------------------------------------------

_METRICS = ("accuracy", "f1", "mcc")
_FINALS = (*_METRICS, "loss")


def _aggregate(results: list[SeedResult]) -> dict[str, tuple[float, float] | None]:
    """(mean, std) over seeds of rounds-to-target and the final accuracy,
    f1, mcc and loss. Rounds-to-target is None when any seed never
    reached the target."""
    reached = [r.rounds_to_target for r in results]
    columns = {name: [getattr(r.final, name) for r in results] for name in _FINALS}
    agg = {"rounds": None}
    if None not in reached:
        columns = {"rounds": reached, **columns}
    for name, values in columns.items():
        arr = np.asarray(values, dtype=np.float64)
        agg[name] = (float(arr.mean()), float(arr.std()))
    return agg


def _cells(pair: tuple[float, float] | None, total_rounds: int) -> tuple:
    """CSV (mean, std) cells of an aggregate; (">T", "") for None."""
    return pair or (format_rounds(None, total_rounds), "")


def _pm(pair: tuple[float, float] | None, fmt: str, total_rounds: int) -> str:
    """Text "mean±std" of an aggregate; ">T" for None."""
    return f"{pair[0]:{fmt}}±{pair[1]:{fmt}}" if pair else format_rounds(None, total_rounds)


def _write_csv(path: Path, columns: list[str], rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)


def text_table(columns: dict[str, str], rows) -> str:
    """Aligned text table: ``columns`` maps each title to its alignment
    and width, e.g. ">9"; ``rows`` hold the cells, already formatted."""
    return "\n".join(" ".join(f"{cell:{spec}}" for cell, spec in zip(row, columns.values()))
                     for row in [list(columns), *rows])


def _write_summary(cfg: RunConfig, results: list[SeedResult], out: Path) -> None:
    total = cfg.rounds
    rows = [(r.seed, format_rounds(r.rounds_to_target, total),
             *(getattr(r.final, name) for name in _FINALS)) for r in results]
    table = text_table(
        {"seed": ">6", "to_target": ">10", "accuracy": ">9", "f1": ">9", "mcc": ">9"},
        [(seed, to_target, *(f"{v:.4f}" for v in metrics))
         for seed, to_target, *metrics, _loss in rows])
    lines = [f"strategy: {cfg.algorithm_name()}",
             f"rounds: {total}  clients/round: {cfg.clients_per_round}  "
             f"target accuracy: {cfg.target_accuracy}", "", table]
    if results:
        agg = _aggregate(results)
        cells = [_cells(agg[name], total) for name in ("rounds", *_FINALS)]
        rows += zip(("mean", "std"), *cells)
        lines += ["", f"aggregate: rounds {_pm(agg['rounds'], '.1f', total)}, "
                  + ", ".join(f"{name} {_pm(agg[name], '.4f', total)}" for name in _METRICS)]
    _write_csv(out / "summary.csv", SUMMARY_CSV_COLUMNS,
               [dict(zip(SUMMARY_CSV_COLUMNS, row)) for row in rows])
    (out / "summary.txt").write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Strategy comparison
# ---------------------------------------------------------------------------

# Parts of a config that may differ between compared configs.
_FREE_IN_COMPARE = ("strategy", "client", "label", "output_dir")


def _comparable_view(cfg: RunConfig) -> dict:
    return {k: v for k, v in dataclasses.asdict(cfg).items() if k not in _FREE_IN_COMPARE}


def compare_strategies(configs: list[RunConfig], output_dir) -> list[dict]:
    """Run several configs that share dataset, model, seeds and round
    budget but differ in strategy; emit compare.csv plus an aligned text
    table. The rounds-to-target cell degrades to ">T" when any seed never
    reaches the target."""
    if len(configs) < 2:
        raise ConfigError("compare needs at least two configs")
    reference = _comparable_view(configs[0])
    for cfg in configs[1:]:
        if _comparable_view(cfg) != reference:
            raise ConfigError(
                "compare configs must differ only in strategy: only the [strategy] "
                "and [client] sections, run.label and run.output_dir may differ")
    names = [cfg.algorithm_name() for cfg in configs]
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate strategy labels in compare: {names}")

    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows, table_rows, failures = [], [], []
    for cfg, name in zip(configs, names):
        result = run_experiment(cfg, out / name)
        failures.extend(result.failed_seeds)
        if failures:
            continue
        agg = _aggregate(result.seed_results)
        cells = [cell for key in ("rounds", *_METRICS) for cell in _cells(agg[key], cfg.rounds)]
        rows.append(dict(zip(COMPARE_CSV_COLUMNS, (name, *cells))))
        table_rows.append((name, _pm(agg["rounds"], ".1f", cfg.rounds),
                           *(_pm(agg[key], ".4f", cfg.rounds) for key in _METRICS)))
    if failures:
        raise RuntimeError(f"compare aborted, failed seeds: {failures}")
    _write_csv(out / "compare.csv", COMPARE_CSV_COLUMNS, rows)
    table = text_table({"strategy": "<12", "rounds": ">14", "accuracy": ">17",
                        "f1": ">17", "mcc": ">17"}, table_rows)
    (out / "compare.txt").write_text(table + "\n")
    return rows


# ---------------------------------------------------------------------------
# Embedding-size / participation sweep
# ---------------------------------------------------------------------------

def sv_sweep(base: RunConfig, embedding_dims: list[int], clients_per_round: list[int],
             output_dir) -> list[dict]:
    """Grid over embedding dimension and participation count, recording
    the class-1 support-vector count at the checkpoint round (seed mean)
    and the final macro-F1."""
    if base.strategy.kind != SVM_MARGIN:
        raise ConfigError("sweep requires strategy.name = svm_margin")
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    checkpoint = base.sv_checkpoint
    rows = []
    for d in embedding_dims:
        for c in clients_per_round:
            cfg = replace(base, model=replace(base.model, embedding_dim=d),
                          clients_per_round=c)
            result = run_experiment(cfg, out / f"d{d}_c{c}")
            if result.failed_seeds:
                raise RuntimeError(f"sweep (d={d}, C={c}) failed seeds: "
                                   f"{result.failed_seeds}")
            # RunConfig makes the checkpoint an evaluated round.
            counts = [next(row.sv_counts[1] for row in res.rows if row.round == checkpoint)
                      for res in result.seed_results]
            rows.append({"d": d, "C": c, "round": checkpoint,
                         "sv_count": float(np.mean(counts)),
                         "f1": float(np.mean([r.final.f1 for r in result.seed_results]))})
    _write_csv(out / "sweep.csv", SWEEP_CSV_COLUMNS, rows)
    return rows
