"""Experiment harness: multi-seed runs streamed to CSV, cross-strategy
comparison tables, and the embedding-size / participation sweep, all
driven by a checked ``config.RunConfig``. All CSV columns and orders are
fixed.
"""

from __future__ import annotations

import csv
import dataclasses
import logging
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import SVM_MARGIN, ConfigError, RunConfig
from .data import (FederatedDataset, generate_synthetic, heldout_pool, load_idx,
                   partition_by_client)
from .metrics import accuracy, confusion, format_rounds, macro_f1, mcc, rounds_to_target
from .model import init_model
from .strategies import ServerState, run_round
from .svm import format_diagnostics

log = logging.getLogger(__name__)

ROUNDS_CSV_COLUMNS = ["seed", "round", "strategy", "loss", "accuracy", "f1",
                      "mcc", "lambda", "sv_counts", "ms"]
SUMMARY_CSV_COLUMNS = ["seed", "rounds_to_target", "final_accuracy", "final_f1",
                       "final_mcc", "final_loss"]
COMPARE_CSV_COLUMNS = ["strategy", "rounds_mean", "rounds_std", "accuracy_mean",
                       "accuracy_std", "f1_mean", "f1_std", "mcc_mean", "mcc_std"]
SWEEP_CSV_COLUMNS = ["d", "C", "round", "sv_count", "f1"]

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
    """Per-seed dataset; the run seed is the generation seed, so a seed
    fully determines data, initialization, and sampling."""
    if cfg.dataset.kind == "synthetic":
        return generate_synthetic(cfg.dataset, seed)
    features, labels = load_idx(cfg.dataset.images, cfg.dataset.labels)
    return partition_by_client(features, labels, cfg.dataset.partition_clients,
                               cfg.dataset.partition_alpha, seed)


def _run_seed(cfg: RunConfig, seed: int, writer, fh, diag_path: Path | None) -> SeedResult:
    dataset = _build_dataset(cfg, seed)
    pool = heldout_pool(dataset)   # fixed for the seed: pooled once, read every evaluation
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
            cm = confusion(model, pool)
            row = RoundRow(seed, t + 1, name, rec.train_loss, accuracy(cm),
                           macro_f1(cm), mcc(cm), rec.lam, rec.sv_counts,
                           (time.perf_counter() - start) * 1e3)
            rows.append(row)
            writer.writerow(row.as_csv())
            fh.flush()
        if diag_path is not None and rec.svm is not None:
            with open(diag_path, "a") as dfh:
                dfh.write(f"# seed {seed} round {t + 1}\n{format_diagnostics(rec.svm)}\n")
        del rec  # free the round's SVM arrays before the next round trains its clients

    crossing = rounds_to_target([row.accuracy for row in rows], cfg.target_accuracy)
    reached = None if crossing is None else rows[crossing - 1].round
    return SeedResult(seed, rows, reached)


def run_experiment(cfg: RunConfig, output_dir=None) -> ExperimentResult:
    """Execute the config for every seed, streaming rounds.csv row by row
    (the file is a parseable prefix at any moment). A failing seed aborts
    only itself; remaining seeds still run."""
    out = Path(output_dir if output_dir is not None else cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    diag_path = out / "svm_diag.txt"
    diag_path.unlink(missing_ok=True)  # an earlier run's, also when this run writes none
    diag_path = diag_path if cfg.strategy.svm_diagnostics else None

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
