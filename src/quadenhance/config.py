"""Run configurations: JSON in, dataclasses out, unknown keys rejected.

Every run is reproducible from (config, code version), so parsing is
strict: an unknown key or a value of the wrong type is a configuration
error, never silently ignored.  One parser reads each schema (key, type,
default) from a declaration that exists anyway:

* the config classes below: their dataclass fields;
* ``DatasetSpec``: the parameters of the builder ``name`` picks from
  ``datasets.BUILDERS``;
* ``ModelSpec``: the parameters of the class ``type`` picks from
  ``models.MODELS``, less ``seed`` and ``dtype``, which the run sets.

An int key takes a JSON integer, a float key any finite number, a bool
key true/false, a str key a string, a tuple key a list; a union takes any
member type, and null only if it lists None.  Value ranges are checked in
``__post_init__``, so a config built in code is checked too.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from dataclasses import asdict, dataclass, field, replace
from types import NoneType
from typing import Any, get_args, get_origin, get_type_hints

from .datasets import BUILDERS
from .enhancer import check_shifts
from .errors import ConfigError
from .models import MODELS, check_optimizer, check_precision

FAMILIES = ("qe_layer", "qe_mlp", "quadranet", "swiglu")

_REQUIRED = inspect.Parameter.empty
_RUN_SET = ("seed", "dtype")          # model parameters the run sets, not the config
_FLOAT_MAX = sys.float_info.max       # excludes NaN and infinities, which JSON lacks


@functools.cache
def _schema(target, skip: tuple[str, ...] = ()) -> dict[str, tuple[Any, Any]]:
    """key -> (type, default) from the signature of a class or function."""
    hints = get_type_hints(target.__init__ if isinstance(target, type) else target)
    return {name: (hints[name], p.default)
            for name, p in inspect.signature(target).parameters.items() if name not in skip}


def _object(d, where: str) -> dict:
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: expected an object, got {type(d).__name__}")
    return d


def _fields(schema: dict, d: dict, where: str) -> dict:
    """The keys ``d`` gives, each value checked against its declared type."""
    unknown = set(_object(d, where)) - set(schema)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    for key, (_, default) in schema.items():
        if default is _REQUIRED and key not in d:
            raise ConfigError(f"{where}: missing required key {key!r}")
    return {key: _value(schema[key][0], v, f"{where}.{key}") for key, v in d.items()}


def _value(tp, v, where: str):
    if type(v) is tp and tp is not float:       # int, bool and str take exactly that JSON type
        return v
    origin = get_origin(tp)
    if origin is tuple:
        if isinstance(v, list):
            return tuple(_value(get_args(tp)[0], x, f"{where}[{i}]") for i, x in enumerate(v))
    elif origin is not None:                    # a union
        members = [m for m in get_args(tp) if m is not NoneType]
        if v is None and len(members) < len(get_args(tp)):
            return None
        for m in members:
            try:
                return _value(m, v, where)
            except ConfigError:
                if len(members) == 1:
                    raise
    elif hasattr(tp, "from_dict"):
        return tp.from_dict(v, where)
    elif tp is float and type(v) in (int, float) and abs(v) <= _FLOAT_MAX:
        return float(v)
    name = tp.__name__ if isinstance(tp, type) else str(tp)
    raise ConfigError(f"{where}: expected {name}, got {v!r}")


def _parse(cls, d, where: str):
    return cls(**_fields(_schema(cls), d, where))


def _choice(d, where: str, tag: str, table: dict, what: str, skip: tuple[str, ...] = (),
            fill: bool = False) -> tuple[str, dict]:
    """(entry, options) for an object whose ``tag`` key names an entry of ``table``.

    The other keys are that entry's parameters, less ``skip``; ``fill``
    adds the defaults (other than None) of the parameters not given.
    """
    if tag not in _object(d, where):
        raise ConfigError(f"{where}: missing required key {tag!r}")
    choice = d[tag]
    if not isinstance(choice, str) or choice not in table:
        raise ConfigError(f"{where}: unknown {what} {choice!r} (choose from {sorted(table)})")
    schema = _schema(table[choice], skip)
    options = _fields(schema, {k: v for k, v in d.items() if k != tag}, where)
    if fill:
        defaults = {k: dv for k, (_, dv) in schema.items() if dv is not _REQUIRED and dv is not None}
        options = {**defaults, **options}
    return choice, options


def _check_at_least(where: str, cfg, low: int, *keys: str) -> None:
    for key in keys:
        if getattr(cfg, key) < low:
            raise ConfigError(f"{where}.{key}: must be >= {low}, got {getattr(cfg, key)}")


@dataclass(frozen=True)
class DatasetSpec:
    """A builder of ``datasets.BUILDERS`` and the keyword arguments given for it."""

    name: str
    options: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, d: dict, where: str = "dataset") -> "DatasetSpec":
        name, opts = _choice(d, where, "name", BUILDERS, "dataset")
        if name == "quadratic_target" and "shifts" in opts and opts["d"] >= 2:
            check_shifts(opts["shifts"], opts["d"], f"{where}.shifts", "drop it or change d")
        return cls(name, opts)


@dataclass(frozen=True)
class ModelSpec:
    """A model of ``models.MODELS`` and its options; from a config, every
    default is filled in, so ``run_config.json`` shows the whole model."""

    kind: str
    options: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, d: dict, where: str = "model") -> "ModelSpec":
        return cls(*_choice(d, where, "type", MODELS, "model type", _RUN_SET, fill=True))


@dataclass(frozen=True)
class OptimizerSpec:
    """``sgd`` or ``adam``; ``beta1``, ``beta2`` and ``eps`` are Adam's alone."""

    algo: str
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if self.algo not in ("sgd", "adam"):
            raise ConfigError(f"optimizer.algo: unknown optimizer {self.algo!r}")
        check_optimizer(self.lr, self.beta1, self.beta2, self.eps)

    @classmethod
    def from_dict(cls, d: dict, where: str = "optimizer") -> "OptimizerSpec":
        if _object(d, where).get("algo") == "sgd":
            adam_only = [k for k in ("beta1", "beta2", "eps") if k in d]
            if adam_only:
                raise ConfigError(f"{where}: sgd does not take {adam_only}")
        fields = _fields(_schema(cls), d, where)
        try:
            return cls(**fields)
        except ConfigError as exc:      # a range error names the section it was parsed in
            raise ConfigError(where + str(exc).removeprefix("optimizer")) from None


@dataclass(frozen=True)
class TrainConfig:
    model: ModelSpec
    dataset: DatasetSpec
    optimizer: OptimizerSpec
    epochs: int
    batch_size: int
    seed: int = 0
    dtype: str = "f32"

    def __post_init__(self):
        _check_at_least("train", self, 1, "epochs", "batch_size")
        check_precision("train.dtype", self.dtype)

    @classmethod
    def from_dict(cls, d: dict, where: str = "train") -> "TrainConfig":
        return _parse(cls, d, where)


@dataclass(frozen=True)
class AblateConfig:
    k_sets: tuple[tuple[int, ...], ...]
    dims: tuple[int, ...]
    optimizer: OptimizerSpec
    epochs: int
    batch_size: int
    seeds: tuple[int, ...] = (0, 1, 2)
    dataset_size: int = 256
    target_shifts: tuple[int, ...] = (1,)
    input_dim: int | None = None          # defaults to the hidden dim
    dtype: str = "f32"

    def __post_init__(self):
        if not self.k_sets:
            raise ConfigError("ablate.k_sets: must be a non-empty list of shift lists")
        if len(self.seeds) < 3:
            raise ConfigError("ablate.seeds: need at least 3 seeds for a median")
        if not self.dims:
            raise ConfigError("ablate.dims: must name at least one dim")
        for key in ("seeds", "dims", "k_sets"):
            vals = getattr(self, key)
            for i, v in enumerate(vals):
                if v in vals[:i]:
                    raise ConfigError(f"ablate.{key}[{i}]: repeats entry {vals.index(v)}")
        for i, d in enumerate(self.dims):
            if d < 2:
                raise ConfigError(f"ablate.dims[{i}]: must be >= 2, got {d}")
        for where, shifts in [*((f"ablate.k_sets[{i}]", ks) for i, ks in enumerate(self.k_sets)),
                              ("ablate.target_shifts", self.target_shifts)]:
            for d in self.dims:
                check_shifts(shifts, d, where, f"drop it or the dim {d}")
        if self.input_dim is not None:
            _check_at_least("ablate", self, 2, "input_dim")
        _check_at_least("ablate", self, 1, "dataset_size", "epochs", "batch_size")
        check_precision("ablate.dtype", self.dtype)

    @classmethod
    def from_dict(cls, d: dict, where: str = "ablate") -> "AblateConfig":
        return _parse(cls, d, where)


@dataclass(frozen=True)
class GradcheckConfig:
    families: tuple[str, ...] = FAMILIES
    instances: int = 100
    tol: float = 1e-4
    step: float = 1e-6
    precision: str = "f64"
    seed: int = 0

    def __post_init__(self):
        if not self.families:
            raise ConfigError("gradcheck.families: must name at least one family")
        bad = set(self.families) - set(FAMILIES)
        if bad:
            raise ConfigError(f"gradcheck.families: unknown families {sorted(bad)}")
        check_precision("gradcheck.precision", self.precision)
        _check_at_least("gradcheck", self, 1, "instances")
        for key in ("step", "tol"):
            if not getattr(self, key) > 0:
                raise ConfigError(f"gradcheck.{key}: must be > 0, got {getattr(self, key)}")

    @classmethod
    def from_dict(cls, d: dict, where: str = "gradcheck") -> "GradcheckConfig":
        cfg = _parse(cls, d, where)
        # difference quotients always run in f64, so the step stays 1e-6;
        # the tolerance widens for f32 analytic gradients
        return cfg if "tol" in d or cfg.precision == "f64" else replace(cfg, tol=1e-2)


@dataclass(frozen=True)
class OracleEquivConfig:
    instances: int = 1000
    seed: int = 0
    precision: str = "f64"
    max_dim: int = 32

    def __post_init__(self):
        check_precision("oracle_equiv.precision", self.precision)
        _check_at_least("oracle_equiv", self, 1, "instances")
        _check_at_least("oracle_equiv", self, 2, "max_dim")

    @classmethod
    def from_dict(cls, d: dict, where: str = "oracle_equiv") -> "OracleEquivConfig":
        return _parse(cls, d, where)

    @property
    def tol(self) -> float:
        return 1e-12 if self.precision == "f64" else 1e-6


@dataclass(frozen=True)
class MonteCarloConfig:
    v_list: tuple[float, ...] = (4.0, 8.0, 16.0)
    samples: int = 10_000_000
    seed: int = 0

    def __post_init__(self):
        _check_at_least("montecarlo", self, 1, "samples")
        if not self.v_list:
            raise ConfigError("montecarlo.v_list: must name at least one threshold")
        for i, v in enumerate(self.v_list):
            if not v > 0:
                raise ConfigError(f"montecarlo.v_list[{i}]: must be > 0, got {v}")

    @classmethod
    def from_dict(cls, d: dict, where: str = "montecarlo") -> "MonteCarloConfig":
        return _parse(cls, d, where)


COST_PRESETS = {
    # single enhanced projection at the width discussed in the overhead analysis
    "layer-192": ModelSpec(kind="qe_mlp", options={
        "layer_dims": (192, 192), "activation": "identity", "shifts": (1,)}),
    # six blocks of 192 -> 768 -> 192 projections, every one enhanced
    "vit-m-ffn": ModelSpec(kind="qe_mlp", options={
        "layer_dims": (192,) + (768, 192) * 6, "activation": "gelu", "shifts": (1,)}),
}


@dataclass(frozen=True)
class CostConfig:
    """A model to account for: a named ``COST_PRESETS`` entry or a full spec."""

    preset: str | None = None
    model: ModelSpec | None = None

    def __post_init__(self):
        if (self.preset is None) == (self.model is None):
            raise ConfigError("cost: give exactly one of 'preset' or 'model'")
        if self.preset is not None and self.preset not in COST_PRESETS:
            raise ConfigError(f"cost: unknown preset {self.preset!r} "
                              f"(choose from {sorted(COST_PRESETS)})")

    @classmethod
    def from_dict(cls, d: dict, where: str = "cost") -> "CostConfig":
        return _parse(cls, d, where)


def load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, huge integer, deep nesting
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None


def canonical_json(obj) -> str:
    """Stable serialization used when echoing configs next to outputs."""
    def default(o):
        if hasattr(o, "__dataclass_fields__"):
            return asdict(o)
        raise TypeError(f"cannot serialize {type(o).__name__}")
    return json.dumps(obj, indent=2, sort_keys=True, default=default) + "\n"
