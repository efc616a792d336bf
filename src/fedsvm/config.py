"""The run config: one dataclass per INI section ([dataset], [model],
[client], [strategy], [run]) whose fields are its keys, named as in the
file, with their types and defaults, and the parser that fills them
from a file. ``RunConfig`` also holds the other four sections.

Every section checks its own values when it is built, ``replace``
included, and raises ``ConfigError`` naming ``<section>.<key>`` by its
INI key, so a config built or changed in code fails exactly as a parsed
one does. Unknown sections or keys are hard errors, so a typo in a
learning-rate key can never silently change a comparison.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path

from .optim import ADAM, AMSGRAD, SGD

VANILLA = "vanilla"
PROX = "prox"
MOON = "moon"

FEDAVG = "fedavg"
FEDOPT = "fedopt"
FEDAWS = "fedaws"
SVM_MARGIN = "svm_margin"

DECREASING = "decreasing"
INCREASING = "increasing"

HELDOUT_FRACTION = 0.1


class ConfigError(ValueError):
    """Invalid configuration; maps to CLI exit code 1."""


def heldout_count(num_clients: int) -> int:
    """How many of ``num_clients`` clients are held out for evaluation."""
    return max(1, int(round(HELDOUT_FRACTION * num_clients)))


@dataclass
class DatasetConfig:
    """[dataset]: the synthetic generator's keys, then the idx file pair
    and its partition. The generation seed is the run seed."""

    kind: str = "synthetic"
    clients: int = 40
    classes: int = 8
    feature_dim: int = 32
    samples_per_client_mean: int = 60
    samples_per_client_spread: int = 20
    dirichlet_alpha: float = 0.1
    class_separation: float = 3.0
    noise_sigma: float = 1.0
    images: str = ""
    labels: str = ""
    partition_clients: int = 40
    partition_alpha: float = 0.5

    def __post_init__(self):
        if self.clients < 2 or self.classes < 2:
            raise ConfigError("dataset.clients and dataset.classes must be >= 2")
        if self.feature_dim < 1 or self.samples_per_client_mean < 1:
            raise ConfigError(
                "dataset.feature_dim and dataset.samples_per_client_mean must be positive")
        if self.samples_per_client_spread < 0:
            raise ConfigError("dataset.samples_per_client_spread must be >= 0")
        for key in ("dirichlet_alpha", "class_separation", "noise_sigma", "partition_alpha"):
            if not 0 < getattr(self, key) < math.inf:
                raise ConfigError(f"dataset.{key} must be positive and finite")
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
class ClientConfig:
    epochs: int = 1
    batch_size: int = 64
    learning_rate: float = 0.1
    variant: str = VANILLA
    prox_mu: float = 0.01
    moon_coeff: float = 1.0
    moon_temperature: float = 0.5

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("client.epochs and client.batch_size must be positive")
        for key in ("learning_rate", "prox_mu", "moon_coeff", "moon_temperature"):
            if not math.isfinite(getattr(self, key)):
                raise ConfigError(f"client.{key} must be finite")
        if self.learning_rate < 0:
            raise ConfigError("client.learning_rate must be nonnegative")
        if self.variant not in (VANILLA, PROX, MOON):
            raise ConfigError(f"client.variant must be one of {(VANILLA, PROX, MOON)}, "
                              f"got {self.variant!r}")
        if self.variant == PROX and self.prox_mu < 0:
            raise ConfigError("client.prox_mu must be nonnegative")
        if self.variant == MOON and (self.moon_coeff < 0 or self.moon_temperature <= 0):
            raise ConfigError("client.moon_coeff must be >= 0 and client.moon_temperature > 0")


# strategy name -> (server strategy kind, server optimizer, default server
# rate); a None optimizer means StrategyConfig.server_optimizer.
_STRATEGIES = {
    "fedavg": (FEDAVG, None, 1e-2),
    "fedadam": (FEDOPT, ADAM, 1e-3),
    "fedams": (FEDOPT, AMSGRAD, 1e-3),
    "fedopt": (FEDOPT, None, 1e-3),
    "fedaws": (FEDAWS, None, 1e-2),
    "svm_margin": (SVM_MARGIN, None, 1e-2),
}


@dataclass
class StrategyConfig:
    """[strategy]: the server side of a run. ``name`` resolves through
    ``_STRATEGIES`` to the ``kind``, ``optimizer`` and ``learning_rate``
    the round engine reads; no ``server_learning_rate`` means the name's
    default rate. The SVM slack penalty decays linearly from
    ``svm_penalty_initial`` to ``svm_penalty_floor`` over the run, or
    rises along the time reversal of that schedule."""

    name: str = "fedavg"
    server_optimizer: str = ADAM
    server_learning_rate: float | None = None
    svm_penalty_initial: float = 1.0
    svm_penalty_floor: float = 0.01
    svm_penalty_schedule: str = DECREASING
    reg_steps: int = 1
    reset_server_state: bool = False
    svm_diagnostics: bool = False

    def __post_init__(self):
        if self.name not in _STRATEGIES:
            raise ConfigError(f"strategy.name must be one of {tuple(_STRATEGIES)}, "
                              f"got {self.name!r}")
        if self.server_optimizer not in (SGD, ADAM, AMSGRAD):
            raise ConfigError(f"strategy.server_optimizer must be one of "
                              f"{(SGD, ADAM, AMSGRAD)}, got {self.server_optimizer!r}")
        if not math.isfinite(self.learning_rate):
            raise ConfigError("strategy.server_learning_rate must be finite")
        if self.kind != FEDAVG and self.learning_rate <= 0:
            raise ConfigError("strategy.server_learning_rate must be positive")
        for key in ("svm_penalty_initial", "svm_penalty_floor"):
            if not 0 < getattr(self, key) < math.inf:
                raise ConfigError(f"strategy.{key} must be positive and finite")
        if self.svm_penalty_schedule not in (DECREASING, INCREASING):
            raise ConfigError("strategy.svm_penalty_schedule must be decreasing or increasing")
        if self.reg_steps < 0:
            raise ConfigError("strategy.reg_steps must be >= 0")

    @property
    def kind(self) -> str:
        return _STRATEGIES[self.name][0]

    @property
    def optimizer(self) -> str:
        return _STRATEGIES[self.name][1] or self.server_optimizer

    @property
    def learning_rate(self) -> float:
        if self.server_learning_rate is None:
            return _STRATEGIES[self.name][2]
        return self.server_learning_rate


@dataclass
class RunConfig:
    """One field per section dataclass; the scalar fields are [run]. This
    section also checks the rules that span sections."""

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
        train_clients = self.num_clients - heldout_count(self.num_clients)
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
            return self.dataset.clients
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
# Parsing
# ---------------------------------------------------------------------------

# INI section -> the dataclass whose scalar fields are its keys.
_SECTIONS = {
    "dataset": DatasetConfig,
    "model": ModelConfig,
    "client": ClientConfig,
    "strategy": StrategyConfig,
    "run": RunConfig,
}


def _section_keys(section: str) -> dict[str, object]:
    """INI key -> field type for one section."""
    cls = _SECTIONS[section]
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)
            if not dataclasses.is_dataclass(hints[f.name])}


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

    values = {section: {} for section in _SECTIONS}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        keys = _section_keys(section)
        for key, raw in parser.items(section):
            if key not in keys:
                raise ConfigError(f"{section}.{key}: unknown key")
            values[section][key] = _typed(section, key, raw, keys[key])

    sections = {name: cls(**values[name]) for name, cls in _SECTIONS.items() if name != "run"}
    return RunConfig(**values["run"], **sections)
