"""Experiment harness: INI-style configs, multi-seed runs streamed to
CSV, cross-strategy comparison tables, and the embedding-size /
participation sweep.

Config files use one section per subsystem ([dataset], [model],
[client], [strategy], [run]); unknown sections or keys are hard errors
so a typo in a learning-rate key can never silently change a
comparison. All CSV columns and orders are fixed.
"""

from __future__ import annotations

import configparser
import csv
import dataclasses
import logging
import time
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
    ADAM,
    AMSGRAD,
    DECREASING,
    FEDAVG,
    FEDAWS,
    FEDOPT,
    INCREASING,
    MOON,
    PROX,
    SGD,
    SVM_MARGIN,
    VANILLA,
    ClientConfig,
    PenaltySchedule,
    ServerState,
    ServerStrategy,
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

STRATEGY_NAMES = ("fedavg", "fedadam", "fedams", "fedopt", "fedaws", "svm_margin")


class ConfigError(Exception):
    """Invalid configuration; maps to CLI exit code 1."""


@dataclass
class DatasetConfig:
    kind: str = "synthetic"
    synthetic: SyntheticSpec = field(default_factory=SyntheticSpec)
    images: str = ""
    labels: str = ""
    partition_clients: int = 40
    partition_alpha: float = 0.5


@dataclass
class ModelConfig:
    embedding_dim: int = 64
    hidden_width: int = 64


@dataclass
class RunConfig:
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    client: ClientConfig = field(default_factory=ClientConfig)
    strategy_name: str = "fedavg"
    server_optimizer: str = ADAM
    server_learning_rate: float | None = None
    svm_penalty_initial: float = 1.0
    svm_penalty_floor: float = 0.01
    svm_penalty_schedule: str = DECREASING
    reg_steps: int = 1
    reset_server_state: bool = False
    svm_diagnostics: bool = False
    rounds: int = 100
    clients_per_round: int = 8
    target_accuracy: float = 0.8
    seeds: tuple[int, ...] = (0,)
    output_dir: str = "out"
    eval_stride: int = 1
    sv_checkpoint_round: int | None = None
    label: str = ""

    @property
    def num_clients(self) -> int:
        if self.dataset.kind == "synthetic":
            return self.dataset.synthetic.num_clients
        return self.dataset.partition_clients

    def algorithm_name(self) -> str:
        if self.label:
            return self.label
        if self.client.variant == PROX:
            return "fedprox"
        if self.client.variant == MOON:
            return "moon"
        if self.strategy_name == "fedopt" and self.server_optimizer == SGD:
            return "fedopt_sgd"
        return self.strategy_name

    def build_strategy(self) -> ServerStrategy:
        lr = self.server_learning_rate
        if self.strategy_name == "fedavg":
            return ServerStrategy(kind=FEDAVG)
        if self.strategy_name in ("fedadam", "fedams", "fedopt"):
            optimizer = {"fedadam": ADAM, "fedams": AMSGRAD,
                         "fedopt": self.server_optimizer}[self.strategy_name]
            return ServerStrategy(kind=FEDOPT, server_optimizer=optimizer,
                                  server_learning_rate=1e-3 if lr is None else lr,
                                  reset_server_state=self.reset_server_state)
        if self.strategy_name == "fedaws":
            return ServerStrategy(kind=FEDAWS, server_optimizer=self.server_optimizer,
                                  server_learning_rate=1e-2 if lr is None else lr,
                                  reset_server_state=self.reset_server_state)
        schedule = PenaltySchedule(self.svm_penalty_initial, self.svm_penalty_floor,
                                   self.rounds, self.svm_penalty_schedule)
        return ServerStrategy(kind=SVM_MARGIN, server_optimizer=self.server_optimizer,
                              server_learning_rate=1e-2 if lr is None else lr,
                              schedule=schedule, reg_steps=self.reg_steps,
                              reset_server_state=self.reset_server_state)


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def _typed(section: str, key: str, raw: str, kind):
    try:
        if kind is bool:
            lowered = raw.strip().lower()
            if lowered in ("true", "1", "yes", "on"):
                return True
            if lowered in ("false", "0", "no", "off"):
                return False
            raise ValueError("not a boolean")
        return kind(raw)
    except ValueError as err:
        raise ConfigError(f"{section}.{key}: cannot parse {raw!r} as {kind.__name__}") from err


_SCHEMA = {
    "dataset": {
        "kind": str, "clients": int, "classes": int, "feature_dim": int,
        "samples_per_client_mean": int, "samples_per_client_spread": int,
        "dirichlet_alpha": float, "class_separation": float, "noise_sigma": float,
        "images": str, "labels": str, "partition_clients": int, "partition_alpha": float,
    },
    "model": {"embedding_dim": int, "hidden_width": int},
    "client": {
        "epochs": int, "batch_size": int, "learning_rate": float, "variant": str,
        "prox_mu": float, "moon_coeff": float, "moon_temperature": float,
    },
    "strategy": {
        "name": str, "server_optimizer": str, "server_learning_rate": float,
        "svm_penalty_initial": float, "svm_penalty_floor": float,
        "svm_penalty_schedule": str, "reg_steps": int, "reset_server_state": bool,
        "svm_diagnostics": bool,
    },
    "run": {
        "rounds": int, "clients_per_round": int, "target_accuracy": float,
        "seeds": str, "output_dir": str, "eval_stride": int,
        "sv_checkpoint_round": int, "label": str,
    },
}


def parse_config(path) -> RunConfig:
    """Parse and validate a config file; defaults follow the reference
    protocol (one client epoch, eight clients per round, batch size 64,
    client rate 1e-1, adaptive server rates 1e-3, SVM/cosine server rates
    1e-2)."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read(path)
    except configparser.Error as err:
        raise ConfigError(f"{path}: {err}") from err

    values: dict[str, dict] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        values[section] = {}
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{section}.{key}: unknown key")
            values[section][key] = _typed(section, key, raw, _SCHEMA[section][key])

    cfg = RunConfig()
    ds = values.get("dataset", {})
    kind = ds.get("kind", "synthetic")
    if kind not in ("synthetic", "idx"):
        raise ConfigError(f"dataset.kind: expected synthetic or idx, got {kind!r}")
    if kind == "synthetic":
        spec_kwargs = {}
        mapping = {
            "clients": "num_clients", "classes": "num_classes",
            "feature_dim": "feature_dim",
            "samples_per_client_mean": "samples_per_client_mean",
            "samples_per_client_spread": "samples_per_client_spread",
            "dirichlet_alpha": "dirichlet_alpha",
            "class_separation": "class_separation", "noise_sigma": "noise_sigma",
        }
        for key, attr in mapping.items():
            if key in ds:
                spec_kwargs[attr] = ds[key]
        try:
            synthetic = SyntheticSpec(**spec_kwargs)
        except ValueError as err:
            raise ConfigError(f"dataset: {err}") from err
        cfg.dataset = DatasetConfig(kind="synthetic", synthetic=synthetic)
    else:
        if not ds.get("images") or not ds.get("labels"):
            raise ConfigError("dataset.images and dataset.labels are required for idx datasets")
        cfg.dataset = DatasetConfig(
            kind="idx", images=ds["images"], labels=ds["labels"],
            partition_clients=ds.get("partition_clients", 40),
            partition_alpha=ds.get("partition_alpha", 0.5))

    md = values.get("model", {})
    cfg.model = ModelConfig(embedding_dim=md.get("embedding_dim", 64),
                            hidden_width=md.get("hidden_width", 64))
    if cfg.model.embedding_dim < 1 or cfg.model.hidden_width < 1:
        raise ConfigError("model.embedding_dim and model.hidden_width must be positive")

    cl = values.get("client", {})
    try:
        cfg.client = ClientConfig(
            epochs=cl.get("epochs", 1),
            batch_size=cl.get("batch_size", 64),
            learning_rate=cl.get("learning_rate", 1e-1),
            variant=cl.get("variant", VANILLA),
            prox_mu=cl.get("prox_mu", 0.01),
            moon_coeff=cl.get("moon_coeff", 1.0),
            moon_temperature=cl.get("moon_temperature", 0.5))
    except ValueError as err:
        raise ConfigError(f"client: {err}") from err

    st = values.get("strategy", {})
    cfg.strategy_name = st.get("name", "fedavg")
    if cfg.strategy_name not in STRATEGY_NAMES:
        raise ConfigError(
            f"strategy.name: expected one of {STRATEGY_NAMES}, got {cfg.strategy_name!r}")
    cfg.server_optimizer = st.get("server_optimizer", ADAM)
    if cfg.server_optimizer not in (SGD, ADAM, AMSGRAD):
        raise ConfigError(f"strategy.server_optimizer: unknown {cfg.server_optimizer!r}")
    cfg.server_learning_rate = st.get("server_learning_rate")
    cfg.svm_penalty_initial = st.get("svm_penalty_initial", 1.0)
    cfg.svm_penalty_floor = st.get("svm_penalty_floor", 0.01)
    cfg.svm_penalty_schedule = st.get("svm_penalty_schedule", DECREASING)
    if cfg.svm_penalty_schedule not in (DECREASING, INCREASING):
        raise ConfigError("strategy.svm_penalty_schedule: expected decreasing or increasing")
    cfg.reg_steps = st.get("reg_steps", 1)
    cfg.reset_server_state = st.get("reset_server_state", False)
    cfg.svm_diagnostics = st.get("svm_diagnostics", False)

    rn = values.get("run", {})
    cfg.rounds = rn.get("rounds", 100)
    cfg.clients_per_round = rn.get("clients_per_round", 8)
    cfg.target_accuracy = rn.get("target_accuracy", 0.8)
    seeds_raw = rn.get("seeds", "0 1 2 3 4")
    try:
        cfg.seeds = tuple(int(tok) for tok in seeds_raw.replace(",", " ").split())
    except ValueError as err:
        raise ConfigError(f"run.seeds: cannot parse {seeds_raw!r}") from err
    cfg.output_dir = rn.get("output_dir", "out")
    cfg.eval_stride = rn.get("eval_stride", 1)
    cfg.sv_checkpoint_round = rn.get("sv_checkpoint_round")
    cfg.label = rn.get("label", "")

    _validate(cfg)
    return cfg


def _train_client_count(num_clients: int) -> int:
    return num_clients - max(1, int(round(HELDOUT_FRACTION * num_clients)))


def _validate(cfg: RunConfig) -> None:
    if cfg.rounds < 1:
        raise ConfigError("run.rounds must be >= 1")
    if not cfg.seeds:
        raise ConfigError("run.seeds must be nonempty")
    if not 0.0 < cfg.target_accuracy < 1.0:
        raise ConfigError("run.target_accuracy must lie in (0, 1)")
    if cfg.eval_stride < 1:
        raise ConfigError("run.eval_stride must be >= 1")
    train_clients = _train_client_count(cfg.num_clients)
    if cfg.clients_per_round > train_clients:
        raise ConfigError(
            f"run.clients_per_round = {cfg.clients_per_round} exceeds the "
            f"{train_clients} train clients implied by dataset.clients = {cfg.num_clients}")
    if cfg.clients_per_round < 1:
        raise ConfigError("run.clients_per_round must be >= 1")
    if cfg.sv_checkpoint_round is not None and cfg.sv_checkpoint_round < 1:
        raise ConfigError("run.sv_checkpoint_round must be >= 1")
    try:
        cfg.build_strategy()
    except ValueError as err:
        raise ConfigError(f"strategy: {err}") from err


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
    final_accuracy: float
    final_f1: float
    final_mcc: float
    final_loss: float


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
    if cfg.clients_per_round > len(dataset.train_client_indices):
        raise ConfigError(
            f"run.clients_per_round = {cfg.clients_per_round} exceeds "
            f"{len(dataset.train_client_indices)} train clients")
    init_rng = np.random.default_rng(np.random.SeedSequence([seed, 4]))
    model = init_model(dataset.feature_dim, [cfg.model.hidden_width],
                       cfg.model.embedding_dim, dataset.num_classes, init_rng)
    server = ServerState.create(cfg.build_strategy())
    name = cfg.algorithm_name()

    rows: list[RoundRow] = []
    acc_series: list[float] = []
    acc_rounds: list[int] = []
    for t in range(cfg.rounds):
        start = time.perf_counter()
        model, rec = run_round(t, model, dataset, server, cfg.client,
                               cfg.clients_per_round, seed)
        if t % cfg.eval_stride == 0 or t == cfg.rounds - 1:
            cm = confusion(model, dataset)
            row = RoundRow(seed, t + 1, name, rec.train_loss, accuracy(cm),
                           macro_f1(cm), mcc(cm), rec.lam, rec.sv_counts,
                           (time.perf_counter() - start) * 1e3)
            rows.append(row)
            acc_series.append(row.accuracy)
            acc_rounds.append(t + 1)
            writer.writerow(row.as_csv())
            fh.flush()
        if diag_path is not None and rec.svm is not None:
            with open(diag_path, "a") as dfh:
                dfh.write(f"# seed {seed} round {t + 1}\n{format_diagnostics(rec.svm)}\n")

    crossing = rounds_to_target(acc_series, cfg.target_accuracy)
    reached = None if crossing is None else acc_rounds[crossing - 1]
    last = rows[-1]
    return SeedResult(seed, rows, reached, last.accuracy, last.f1, last.mcc, last.loss)


def run_experiment(cfg: RunConfig, output_dir=None) -> ExperimentResult:
    """Execute the config for every seed, streaming rounds.csv row by row
    (the file is a parseable prefix at any moment). A failing seed aborts
    only itself; remaining seeds still run."""
    out = Path(output_dir if output_dir is not None else cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    diag_path = out / "svm_diag.txt" if cfg.svm_diagnostics else None
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


def _mean_std(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    return float(arr.mean()), float(arr.std())


def _rounds_cells(results: list[SeedResult], total_rounds: int) -> tuple[str, str]:
    """Aggregate rounds-to-target as (mean, std) strings; ">T" when any
    seed never reached the target."""
    if any(r.rounds_to_target is None for r in results) or not results:
        return f">{total_rounds}", ""
    mean, std = _mean_std([r.rounds_to_target for r in results])
    return repr(mean), repr(std)


def _write_summary(cfg: RunConfig, results: list[SeedResult], out: Path) -> None:
    with open(out / "summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_CSV_COLUMNS)
        for r in results:
            writer.writerow([
                str(r.seed), format_rounds(r.rounds_to_target, cfg.rounds),
                repr(r.final_accuracy), repr(r.final_f1), repr(r.final_mcc),
                repr(r.final_loss)])
        if results:
            rounds_mean, rounds_std = _rounds_cells(results, cfg.rounds)
            acc_m, acc_s = _mean_std([r.final_accuracy for r in results])
            f1_m, f1_s = _mean_std([r.final_f1 for r in results])
            mcc_m, mcc_s = _mean_std([r.final_mcc for r in results])
            loss_m, loss_s = _mean_std([r.final_loss for r in results])
            writer.writerow(["mean", rounds_mean, repr(acc_m), repr(f1_m),
                             repr(mcc_m), repr(loss_m)])
            writer.writerow(["std", rounds_std, repr(acc_s), repr(f1_s),
                             repr(mcc_s), repr(loss_s)])

    lines = [f"strategy: {cfg.algorithm_name()}",
             f"rounds: {cfg.rounds}  clients/round: {cfg.clients_per_round}  "
             f"target accuracy: {cfg.target_accuracy}", ""]
    header = f"{'seed':>6} {'to_target':>10} {'accuracy':>9} {'f1':>9} {'mcc':>9}"
    lines.append(header)
    for r in results:
        lines.append(f"{r.seed:>6} {format_rounds(r.rounds_to_target, cfg.rounds):>10} "
                     f"{r.final_accuracy:>9.4f} {r.final_f1:>9.4f} {r.final_mcc:>9.4f}")
    if results:
        rounds_mean, rounds_std = _rounds_cells(results, cfg.rounds)
        acc_m, acc_s = _mean_std([r.final_accuracy for r in results])
        f1_m, f1_s = _mean_std([r.final_f1 for r in results])
        mcc_m, mcc_s = _mean_std([r.final_mcc for r in results])
        if rounds_std:
            rounds_txt = f"{float(rounds_mean):.1f}±{float(rounds_std):.1f}"
        else:
            rounds_txt = rounds_mean
        lines.append("")
        lines.append(f"aggregate: rounds {rounds_txt}, "
                     f"accuracy {acc_m:.4f}±{acc_s:.4f}, f1 {f1_m:.4f}±{f1_s:.4f}, "
                     f"mcc {mcc_m:.4f}±{mcc_s:.4f}")
    (out / "summary.txt").write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Strategy comparison
# ---------------------------------------------------------------------------

def _comparable_view(cfg: RunConfig) -> dict:
    view = dataclasses.asdict(cfg)
    view["dataset"]["synthetic"].pop("seed", None)
    for key in ("strategy_name", "server_optimizer", "server_learning_rate",
                "svm_penalty_initial", "svm_penalty_floor", "svm_penalty_schedule",
                "reg_steps", "reset_server_state", "svm_diagnostics", "label",
                "output_dir", "client"):
        view.pop(key, None)
    return view


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
                "compare configs must differ only in strategy and client variant")
    names = [cfg.algorithm_name() for cfg in configs]
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate strategy labels in compare: {names}")

    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    failures = []
    for cfg in configs:
        result = run_experiment(cfg, out / cfg.algorithm_name())
        failures.extend(result.failed_seeds)
        res = result.seed_results
        rounds_mean, rounds_std = _rounds_cells(res, cfg.rounds)
        acc_m, acc_s = _mean_std([r.final_accuracy for r in res]) if res else (float("nan"),) * 2
        f1_m, f1_s = _mean_std([r.final_f1 for r in res]) if res else (float("nan"),) * 2
        mcc_m, mcc_s = _mean_std([r.final_mcc for r in res]) if res else (float("nan"),) * 2
        rows.append({
            "strategy": cfg.algorithm_name(),
            "rounds_mean": rounds_mean, "rounds_std": rounds_std,
            "accuracy_mean": repr(acc_m), "accuracy_std": repr(acc_s),
            "f1_mean": repr(f1_m), "f1_std": repr(f1_s),
            "mcc_mean": repr(mcc_m), "mcc_std": repr(mcc_s),
        })
    if failures:
        raise RuntimeError(f"compare aborted, failed seeds: {failures}")

    with open(out / "compare.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=COMPARE_CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    (out / "compare.txt").write_text(render_compare_table(rows) + "\n")
    return rows


def render_compare_table(rows: list[dict]) -> str:
    def num(cell: str, fmt: str = ".4f") -> str:
        if cell.startswith(">") or cell == "":
            return cell
        return format(float(cell), fmt)

    lines = [f"{'strategy':<12} {'rounds':>14} {'accuracy':>17} {'f1':>17} {'mcc':>17}"]
    for row in rows:
        if row["rounds_std"]:
            rounds = f"{num(row['rounds_mean'], '.1f')}±{num(row['rounds_std'], '.1f')}"
        else:
            rounds = row["rounds_mean"]
        acc = f"{num(row['accuracy_mean'])}±{num(row['accuracy_std'])}"
        f1 = f"{num(row['f1_mean'])}±{num(row['f1_std'])}"
        mcc_txt = f"{num(row['mcc_mean'])}±{num(row['mcc_std'])}"
        lines.append(f"{row['strategy']:<12} {rounds:>14} {acc:>17} {f1:>17} {mcc_txt:>17}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Embedding-size / participation sweep
# ---------------------------------------------------------------------------

def sv_sweep(base: RunConfig, embedding_dims: list[int], clients_per_round: list[int],
             output_dir) -> list[dict]:
    """Grid over embedding dimension and participation count, recording
    the class-1 support-vector count at the checkpoint round (seed mean)
    and the final macro-F1."""
    if base.strategy_name != "svm_margin":
        raise ConfigError("sweep requires strategy.name = svm_margin")
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    checkpoint = base.sv_checkpoint_round or min(base.rounds, 200)
    rows = []
    for d in embedding_dims:
        for c in clients_per_round:
            cfg = replace(base, model=replace(base.model, embedding_dim=d),
                          clients_per_round=c)
            _validate(cfg)
            result = run_experiment(cfg, out / f"d{d}_c{c}")
            if result.failed_seeds:
                raise RuntimeError(f"sweep (d={d}, C={c}) failed seeds: "
                                   f"{result.failed_seeds}")
            counts = []
            f1s = []
            for res in result.seed_results:
                at_checkpoint = [row for row in res.rows if row.round == checkpoint]
                if not at_checkpoint or at_checkpoint[0].sv_counts is None:
                    raise RuntimeError(
                        f"sweep (d={d}, C={c}) seed {res.seed}: no SV counts at "
                        f"round {checkpoint}")
                counts.append(at_checkpoint[0].sv_counts[1])
                f1s.append(res.final_f1)
            rows.append({"d": d, "C": c, "round": checkpoint,
                         "sv_count": float(np.mean(counts)),
                         "f1": float(np.mean(f1s))})
    with open(out / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_CSV_COLUMNS)
        for row in rows:
            writer.writerow([str(row["d"]), str(row["C"]), str(row["round"]),
                             repr(row["sv_count"]), repr(row["f1"])])
    return rows
