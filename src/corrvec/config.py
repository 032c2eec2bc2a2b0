"""Run configuration: the dataclass is the schema.

Each section of the JSON file is a frozen dataclass.  Its fields are the
section's keys, a field without a default is a required key, and unknown
keys are refused at every nesting level, so an experiment file cannot
silently drift from what the code reads.  The declared type of a field
says how a JSON value converts, and the class's ``__post_init__`` holds
every value rule, so a section built by the parser, by its constructor or
by ``dataclasses.replace`` obeys the same rules.  The ``optimizer``,
``measurement`` and ``noise`` sections are the runtime types
``SolverOptions``, ``MeasurementSettings`` and ``NoiseModel`` themselves.

One ``parse`` builds any section, and each record a sweep resumes from,
and one ``to_json_dict`` serializes it back to an equivalent dictionary:
the config's is the manifest's permanent record of the run.
"""

from __future__ import annotations

import functools
import json
import math
import types
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

from .circuits import MeasurementSettings, NoiseModel
from .solver import SolverOptions
from .vqe import AnsatzSpec

EMBED_MODES = ("none", "dyson", "nondyson", "both")


class ConfigError(ValueError):
    """Raised for malformed, inconsistent, or unknown configuration."""


def _int(value) -> int:
    """An integer, an integral float or an integer string as ``int``; a bool
    or a fractional value is refused rather than truncated."""
    if isinstance(value, bool) or (isinstance(value, float)
                                   and not value.is_integer()):
        raise ValueError(f"{value!r} is not an integer")
    if not isinstance(value, (int, float, str)):
        raise TypeError(f"{value!r} is not an integer")
    return int(value)


def _convert(value, kind, name: str):
    """A JSON value as the declared type ``kind``.  ``X | None`` takes null,
    ``tuple[T, ...]`` a list, and a nested section an object (null takes
    all its defaults).  A str or bool takes only its own JSON kind, an int
    goes through ``_int`` and a float must be a number or a numeric string,
    not a bool, that comes out finite."""
    if isinstance(kind, types.UnionType):
        if value is None:
            return None
        (kind,) = [a for a in typing.get_args(kind) if a is not type(None)]
    if is_dataclass(kind):
        return parse(kind, value, name)
    if typing.get_origin(kind) is tuple:
        if not isinstance(value, list):
            raise ValueError(f"{value!r} is not a list")
        return tuple(_convert(v, typing.get_args(kind)[0], name) for v in value)
    if kind is str:
        if not isinstance(value, str):
            raise ValueError(f"{value!r} is not a string")
        return value
    if kind is bool:
        if not isinstance(value, bool):
            raise ValueError(f"{value!r} is not true or false")
        return value
    if kind is int:
        return _int(value)
    if kind is float:
        if isinstance(value, bool):
            raise ValueError(f"{value!r} is not a number")
        out = float(value)
        if not math.isfinite(out):
            raise ValueError(f"{value!r} is not a finite number")
        return out
    raise TypeError(f"no conversion to {kind!r}")


@functools.cache
def _hints(cls) -> dict:
    return typing.get_type_hints(cls)


def parse(cls, data: dict | None, name: str):
    """The section ``cls`` built from the JSON object ``data`` (None takes
    every default).  Every ConfigError starts with the section's ``name``;
    a value that does not convert also names its key."""
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"{name}: expected an object")
    known = {f.name: f for f in fields(cls)}
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ConfigError(f"{name}: unknown keys {unknown}")
    missing = sorted(k for k, f in known.items() if k not in data
                     and f.default is MISSING and f.default_factory is MISSING)
    if missing:
        raise ConfigError(f"{name}: missing required keys {missing}")
    hints = _hints(cls)
    values = {}
    for key, value in data.items():
        try:
            values[key] = _convert(value, hints[key], key)
        except ConfigError:
            raise
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{name}: {key}: {exc}") from None
    try:
        return cls(**values)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name}: {exc}") from None


def to_json_dict(section) -> dict:
    """The JSON object that ``parse`` reads back into ``section``: nested
    sections recurse, tuples become lists and a None value leaves its key
    out."""
    out = {}
    for f in fields(section):
        value = getattr(section, f.name)
        if is_dataclass(value):
            value = to_json_dict(value)
        elif isinstance(value, tuple):
            value = list(value)
        if value is not None:
            out[f.name] = value
    return out


@dataclass(frozen=True)
class HamiltonianSource:
    kind: str
    path: str | None = None
    t: float | None = None
    u: float | None = None

    def __post_init__(self):
        if self.kind == "fcidump":
            if not self.path:
                raise ValueError("fcidump source requires 'path'")
            if self.t is not None or self.u is not None:
                raise ValueError("t/u only apply to hubbard-dimer")
        elif self.kind == "hubbard-dimer":
            if self.t is None or self.u is None:
                raise ValueError("hubbard-dimer requires 't' and 'u'")
            if self.path is not None:
                raise ValueError("path only applies to fcidump")
        else:
            raise ValueError(f"unknown kind {self.kind!r}")


@dataclass(frozen=True)
class GridConfig:
    kind: str
    omega_max: float
    n: int
    omega_min: float | None = None
    eta: float | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.kind == "retarded":
            if self.omega_min is None:
                raise ValueError("retarded grid requires omega_min")
            if self.eta is None:
                object.__setattr__(self, "eta", 0.05)
            if self.eta <= 0:
                raise ValueError("retarded grid requires eta > 0")
            if not self.omega_min < self.omega_max:
                raise ValueError("omega_min must be below omega_max")
        elif self.kind == "matsubara":
            if self.omega_min is not None or self.eta is not None:
                raise ValueError("matsubara grid takes only omega_max and n")
            if self.omega_max <= 0:
                raise ValueError("omega_max must be positive")
        else:
            raise ValueError(f"unknown kind {self.kind!r}")
        # every solve reads |z|^2 (CorrectionProblem.qdq), largest at an end
        # of the grid; a Matsubara grid has no omega_min
        for w in (self.omega_min or 0.0, self.omega_max):
            try:
                abs(complex(w, self.eta or 0.0)) ** 2
            except OverflowError:
                raise ValueError(f"|z|^2 overflows at the grid's end omega = {w}") from None

    def points(self) -> np.ndarray:
        """The complex frequencies in grid order.  A retarded grid spaces
        omega_min..omega_max evenly at Im z = eta; a Matsubara grid spaces
        (0, omega_max] logarithmically from omega_max/1000 on the imaginary
        axis, which is continuous at zero temperature."""
        if self.kind == "retarded":
            return np.linspace(self.omega_min, self.omega_max, self.n) + 1j * self.eta
        if self.n == 1:
            return 1j * np.array([self.omega_max])
        return 1j * np.geomspace(self.omega_max / 1000.0, self.omega_max, self.n)


@dataclass(frozen=True)
class AnsatzConfig:
    depth: int = 3
    pattern: tuple[str, ...] = ("RY", "RZ")

    def __post_init__(self):
        # the value rules are the ansatz's own, whatever its width
        AnsatzSpec(1, self.depth, self.pattern)


@dataclass(frozen=True)
class RunConfig:
    hamiltonian: HamiltonianSource
    grid: GridConfig | None = None
    active_space: tuple[int, ...] | None = None
    mu: float = 0.0
    number_penalty: float = 1.0
    spin_penalty: float = 1.0
    ansatz: AnsatzConfig = field(default_factory=AnsatzConfig)
    optimizer: SolverOptions = field(default_factory=SolverOptions)
    measurement: MeasurementSettings = field(default_factory=MeasurementSettings)
    noise: NoiseModel = field(default_factory=NoiseModel)
    embedding: str = "none"
    min_converged_fraction: float = 0.95
    out_dir: str = "runs/out"

    def __post_init__(self):
        if self.active_space is not None:
            active = tuple(sorted(self.active_space))
            object.__setattr__(self, "active_space", active)
            if not active or len(set(active)) != len(active) or active[0] < 0:
                raise ValueError("active_space: need a non-empty list of "
                                 "distinct non-negative orbitals")
        if self.embedding not in EMBED_MODES:
            raise ValueError(f"embedding: must be one of {EMBED_MODES}")
        if self.embedding != "none" and self.active_space is None:
            raise ValueError("embedding requires an active_space")
        if not 0 <= self.min_converged_fraction <= 1:
            raise ValueError("min_converged_fraction must lie in [0, 1]")
        if self.number_penalty < 0 or self.spin_penalty < 0:
            raise ValueError("number_penalty and spin_penalty must be "
                             "non-negative")
        if not self.out_dir:
            raise ValueError("out_dir is empty, which is the current directory")


def load_config(path: str | Path) -> RunConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except OSError as exc:
        raise ConfigError(f"{path}: cannot be read ({exc.strerror or exc})")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})")
    return parse(RunConfig, data, "config")
