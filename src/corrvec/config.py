"""Run configuration: a strict, archival JSON schema.

Unknown keys are rejected at every nesting level so an experiment file
cannot silently drift from what the code actually reads.  The
``optimizer``, ``measurement`` and ``noise`` sections parse straight into
the runtime types ``SolverOptions``, ``MeasurementSettings`` and
``NoiseModel``: their fields are the section's keys, their defaults are
what a missing key means, and their ``__post_init__`` holds every rule.
``GridConfig`` holds every frequency-grid rule and builds the grid's
points.  A parsed config serializes back to an equivalent dictionary,
which the manifest embeds as the run's permanent record.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .circuits import MeasurementSettings, NoiseModel
from .solver import SolverOptions
from .vqe import AnsatzSpec

EMBED_MODES = ("none", "dyson", "nondyson", "both")


class ConfigError(ValueError):
    """Raised for malformed, inconsistent, or unknown configuration."""


def _take(section: dict | None, name: str, keys: dict[str, object]) -> dict:
    """Pop known keys with defaults; reject anything left over.  A missing
    (None) section takes every default."""
    if section is None:
        section = {}
    if not isinstance(section, dict):
        raise ConfigError(f"{name}: expected an object")
    out = {}
    data = dict(section)
    for key, default in keys.items():
        out[key] = data.pop(key, default)
    if data:
        raise ConfigError(f"{name}: unknown keys {sorted(data)}")
    return out


def _int(value) -> int:
    """An integer, an integral float or an integer string as ``int``; a bool
    or a fractional value is refused rather than truncated."""
    if isinstance(value, bool) or (isinstance(value, float)
                                   and not value.is_integer()):
        raise ValueError(f"{value!r} is not an integer")
    if not isinstance(value, (int, float, str)):
        raise TypeError(f"{value!r} is not an integer")
    return int(value)


def _coerce(value, kind: type):
    """``value`` converted to ``kind``: a bool must be JSON true or false,
    an int goes through ``_int`` and a float must be a number or a numeric
    string, not a bool, that comes out finite."""
    if kind is bool:
        if not isinstance(value, bool):
            raise ValueError(f"{value!r} is not true or false")
        return value
    if kind is int:
        return _int(value)
    if kind is float and isinstance(value, bool):
        raise ValueError(f"{value!r} is not a number")
    out = kind(value)
    if kind is float and not math.isfinite(out):
        raise ValueError(f"{value!r} is not a finite number")
    return out


def _parse_flat(cls, name: str, section: dict | None):
    """A flat section parsed into the runtime dataclass ``cls``: its keys
    and defaults are the class's fields, each value is converted with the
    type of its default, and the class checks the result."""
    defaults = {f.name: f.default for f in fields(cls)}
    vals = _take(section, name, defaults)
    try:
        return cls(**{k: _coerce(v, type(defaults[k])) for k, v in vals.items()})
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name}: {exc}") from None


_REQUIRED = object()


def _require(name: str, values: dict) -> None:
    missing = [k for k, v in values.items() if v is _REQUIRED]
    if missing:
        raise ConfigError(f"{name}: missing required keys {sorted(missing)}")


@dataclass(frozen=True)
class HamiltonianSource:
    kind: str
    path: str | None = None
    t: float | None = None
    u: float | None = None

    @staticmethod
    def parse(section: dict) -> "HamiltonianSource":
        vals = _take(section, "hamiltonian",
                     {"kind": _REQUIRED, "path": None, "t": None, "u": None})
        _require("hamiltonian", vals)
        kind = vals["kind"]
        if kind == "fcidump":
            if not vals["path"]:
                raise ConfigError("hamiltonian: fcidump source requires 'path'")
            if vals["t"] is not None or vals["u"] is not None:
                raise ConfigError("hamiltonian: t/u only apply to hubbard-dimer")
            return HamiltonianSource("fcidump", path=str(vals["path"]))
        if kind == "hubbard-dimer":
            if vals["t"] is None or vals["u"] is None:
                raise ConfigError("hamiltonian: hubbard-dimer requires 't' and 'u'")
            if vals["path"] is not None:
                raise ConfigError("hamiltonian: path only applies to fcidump")
            return HamiltonianSource("hubbard-dimer", t=_coerce(vals["t"], float),
                                     u=_coerce(vals["u"], float))
        raise ConfigError(f"hamiltonian: unknown kind {kind!r}")

    def to_json_dict(self) -> dict:
        if self.kind == "fcidump":
            return {"kind": "fcidump", "path": self.path}
        return {"kind": "hubbard-dimer", "t": self.t, "u": self.u}


@dataclass(frozen=True)
class GridConfig:
    kind: str
    omega_min: float | None
    omega_max: float
    n: int
    eta: float | None

    @staticmethod
    def parse(section: dict) -> "GridConfig":
        vals = _take(section, "grid", {"kind": _REQUIRED, "omega_min": None,
                                       "omega_max": _REQUIRED, "n": _REQUIRED,
                                       "eta": None})
        _require("grid", vals)
        kind = vals["kind"]
        n = _int(vals["n"])
        if n < 1:
            raise ConfigError("grid: n must be at least 1")
        if kind == "retarded":
            if vals["omega_min"] is None:
                raise ConfigError("grid: retarded grid requires omega_min")
            eta = 0.05 if vals["eta"] is None else _coerce(vals["eta"], float)
            if eta <= 0:
                raise ConfigError("grid: retarded grid requires eta > 0")
            lo = _coerce(vals["omega_min"], float)
            hi = _coerce(vals["omega_max"], float)
            if not lo < hi:
                raise ConfigError("grid: omega_min must be below omega_max")
            return GridConfig("retarded", lo, hi, n, eta)
        if kind == "matsubara":
            if vals["omega_min"] is not None or vals["eta"] is not None:
                raise ConfigError("grid: matsubara grid takes only omega_max and n")
            hi = _coerce(vals["omega_max"], float)
            if hi <= 0:
                raise ConfigError("grid: omega_max must be positive")
            return GridConfig("matsubara", None, hi, n, None)
        raise ConfigError(f"grid: unknown kind {kind!r}")

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

    def to_json_dict(self) -> dict:
        if self.kind == "retarded":
            return {"kind": "retarded", "omega_min": self.omega_min,
                    "omega_max": self.omega_max, "n": self.n, "eta": self.eta}
        return {"kind": "matsubara", "omega_max": self.omega_max, "n": self.n}


@dataclass(frozen=True)
class AnsatzConfig:
    depth: int = 3
    pattern: tuple[str, ...] = ("RY", "RZ")

    @staticmethod
    def parse(section: dict) -> "AnsatzConfig":
        vals = _take(section, "ansatz", {"depth": 3, "pattern": ["RY", "RZ"]})
        if not isinstance(vals["pattern"], list):
            raise ConfigError("ansatz: pattern must be a list of rotations")
        parsed = AnsatzConfig(_int(vals["depth"]),
                              tuple(str(p) for p in vals["pattern"]))
        try:
            # the value rules are the ansatz's own, whatever its width
            AnsatzSpec(1, parsed.depth, parsed.pattern)
        except ValueError as exc:
            raise ConfigError(f"ansatz: {exc}") from None
        return parsed

    def to_json_dict(self) -> dict:
        return {"depth": self.depth, "pattern": list(self.pattern)}


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

    @staticmethod
    def parse(data: dict) -> "RunConfig":
        d = RunConfig.__dataclass_fields__
        vals = _take(data, "config", {
            "hamiltonian": _REQUIRED, "grid": None, "active_space": None,
            "mu": d["mu"].default, "number_penalty": d["number_penalty"].default,
            "spin_penalty": d["spin_penalty"].default, "ansatz": None,
            "optimizer": None, "measurement": None, "noise": None,
            "embedding": "none",
            "min_converged_fraction": d["min_converged_fraction"].default,
            "out_dir": d["out_dir"].default})
        _require("config", vals)
        # one point turns a value that cannot be converted (a string where
        # a number belongs, a number where a list belongs) into a ConfigError
        try:
            active = vals["active_space"]
            if active is not None:
                if not isinstance(active, list):
                    raise ConfigError("active_space: expected a list of orbitals")
                active = tuple(sorted(_int(a) for a in active))
                if (not active or len(set(active)) != len(active)
                        or any(a < 0 for a in active)):
                    raise ConfigError("active_space: need a non-empty list of "
                                      "distinct non-negative orbitals")
            embedding = str(vals["embedding"])
            if embedding not in EMBED_MODES:
                raise ConfigError(f"embedding: must be one of {EMBED_MODES}")
            if embedding != "none" and active is None:
                raise ConfigError("embedding requires an active_space")
            frac = _coerce(vals["min_converged_fraction"], float)
            if not 0 <= frac <= 1:
                raise ConfigError("min_converged_fraction must lie in [0, 1]")
            number_pen = _coerce(vals["number_penalty"], float)
            spin_pen = _coerce(vals["spin_penalty"], float)
            if number_pen < 0 or spin_pen < 0:
                raise ConfigError(
                    "number_penalty and spin_penalty must be non-negative")
            return RunConfig(
                hamiltonian=HamiltonianSource.parse(vals["hamiltonian"]),
                grid=None if vals["grid"] is None else GridConfig.parse(vals["grid"]),
                active_space=active,
                mu=_coerce(vals["mu"], float),
                number_penalty=number_pen,
                spin_penalty=spin_pen,
                ansatz=AnsatzConfig.parse(vals["ansatz"]),
                optimizer=_parse_flat(SolverOptions, "optimizer", vals["optimizer"]),
                measurement=_parse_flat(MeasurementSettings, "measurement",
                                        vals["measurement"]),
                noise=_parse_flat(NoiseModel, "noise", vals["noise"]),
                embedding=embedding,
                min_converged_fraction=frac,
                out_dir=str(vals["out_dir"]))
        except ConfigError:
            raise
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"config: {exc}") from None

    def to_json_dict(self) -> dict:
        return {
            "hamiltonian": self.hamiltonian.to_json_dict(),
            "grid": None if self.grid is None else self.grid.to_json_dict(),
            "active_space": None if self.active_space is None
            else list(self.active_space),
            "mu": self.mu,
            "number_penalty": self.number_penalty,
            "spin_penalty": self.spin_penalty,
            "ansatz": self.ansatz.to_json_dict(),
            "optimizer": asdict(self.optimizer),
            "measurement": asdict(self.measurement),
            "noise": asdict(self.noise),
            "embedding": self.embedding,
            "min_converged_fraction": self.min_converged_fraction,
            "out_dir": self.out_dir,
        }


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
    return RunConfig.parse(data)
