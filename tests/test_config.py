"""Strict JSON run configuration: parsing, validation, serialization."""

import json
import typing
from dataclasses import is_dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrvec.circuits import MeasurementSettings, NoiseModel
from corrvec.config import (
    AnsatzConfig,
    ConfigError,
    GridConfig,
    HamiltonianSource,
    RunConfig,
    load_config,
    parse,
    to_json_dict,
)
from corrvec.cli import GroundState
from corrvec.solver import HOLE, PARTICLE, PointRecord, SolverOptions
from corrvec.store import dumps_canonical


def minimal(**overrides):
    data = {"hamiltonian": {"kind": "hubbard-dimer", "t": 1.0, "u": 4.0}}
    data.update(overrides)
    return data


def test_defaults():
    cfg = parse(RunConfig, minimal(), "config")
    assert cfg.grid is None and cfg.active_space is None
    assert cfg.mu == 0.0
    assert cfg.number_penalty == 1.0 and cfg.spin_penalty == 1.0
    assert cfg.ansatz == AnsatzConfig()
    assert cfg.optimizer == SolverOptions()
    assert cfg.optimizer.gs_tol == 1e-8
    assert cfg.measurement == MeasurementSettings()
    assert cfg.measurement.seed == 7
    assert cfg.noise == NoiseModel()
    assert cfg.noise.zne
    assert cfg.embedding == "none"
    assert cfg.min_converged_fraction == 0.95


def test_full_roundtrip():
    data = minimal(
        grid={"kind": "retarded", "omega_min": -1.0, "omega_max": 1.0,
              "n": 11, "eta": 0.02},
        active_space=[2, 1],
        mu=0.1,
        number_penalty=2.0,
        spin_penalty=0.5,
        ansatz={"depth": 4, "pattern": ["RX", "RZ"]},
        optimizer={"epsilon": 0.01, "gs_tol": 1e-9},
        measurement={"mode": "sampled", "shots": 2000, "seed": 13},
        noise={"enabled": True, "p2": 1e-3, "boost": 2.0, "zne": True},
        embedding="both",
        min_converged_fraction=0.8,
        out_dir="runs/x")
    cfg = parse(RunConfig, data, "config")
    assert cfg.active_space == (1, 2)
    assert cfg.ansatz.pattern == ("RX", "RZ")
    assert cfg.spin_penalty == 0.5
    assert parse(RunConfig, to_json_dict(cfg), "config") == cfg


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError):
        parse(RunConfig, minimal(typo=1), "config")
    with pytest.raises(ConfigError):
        parse(RunConfig, minimal(optimizer={"epsilonn": 0.1}), "config")
    with pytest.raises(ConfigError):
        parse(RunConfig, {"hamiltonian": {"kind": "fcidump", "path": "x",
                                          "extra": 1}}, "config")


def test_missing_required():
    with pytest.raises(ConfigError):
        parse(RunConfig, {}, "config")
    with pytest.raises(ConfigError):
        parse(GridConfig, {"kind": "retarded", "omega_min": -1.0}, "grid")


def test_hamiltonian_source_validation():
    with pytest.raises(ConfigError):
        parse(HamiltonianSource, {"kind": "fcidump"}, "hamiltonian")
    with pytest.raises(ConfigError):
        parse(HamiltonianSource, {"kind": "fcidump", "path": "x", "t": 1.0},
              "hamiltonian")
    with pytest.raises(ConfigError):
        parse(HamiltonianSource, {"kind": "hubbard-dimer", "t": 1.0},
              "hamiltonian")
    with pytest.raises(ConfigError):
        parse(HamiltonianSource, {"kind": "hubbard-dimer", "t": 1.0, "u": 4.0,
                                  "path": "x"}, "hamiltonian")
    with pytest.raises(ConfigError):
        parse(HamiltonianSource, {"kind": "heisenberg"}, "hamiltonian")
    src = parse(HamiltonianSource, {"kind": "fcidump", "path": "a.fcidump"},
                "hamiltonian")
    assert to_json_dict(src) == {"kind": "fcidump", "path": "a.fcidump"}


def test_grid_validation_and_build():
    g = parse(GridConfig, {"kind": "retarded", "omega_min": -1.0,
                           "omega_max": 1.0, "n": 5}, "grid")
    assert g.eta == 0.05
    assert g.points().shape == (5,)

    m = parse(GridConfig, {"kind": "matsubara", "omega_max": 10.0, "n": 8},
              "grid")
    assert np.all(m.points().real == 0)
    assert to_json_dict(m) == {"kind": "matsubara", "omega_max": 10.0, "n": 8}

    for bad in (
        {"kind": "retarded", "omega_min": 1.0, "omega_max": -1.0, "n": 5},
        {"kind": "retarded", "omega_min": -1.0, "omega_max": 1.0, "n": 0},
        {"kind": "retarded", "omega_min": -1.0, "omega_max": 1.0, "n": 5,
         "eta": 0.0},
        {"kind": "matsubara", "omega_max": 0.0, "n": 5},
        {"kind": "matsubara", "omega_max": 1.0, "n": 0},
        {"kind": "matsubara", "omega_max": 1.0, "n": 5, "eta": 0.1},
        {"kind": "legendre", "omega_max": 1.0, "n": 5},
        # each point's |z|^2 overflows at an end of the grid
        {"kind": "matsubara", "omega_max": 1e300, "n": 2},
        {"kind": "retarded", "omega_min": -1e160, "omega_max": 1.0, "n": 5},
        {"kind": "retarded", "omega_min": -1.0, "omega_max": 1.0, "n": 5,
         "eta": 1e155},
    ):
        with pytest.raises(ConfigError):
            parse(GridConfig, bad, "grid")


def test_retarded_grid_layout():
    grid = parse(GridConfig, {"kind": "retarded", "omega_min": -1.0,
                              "omega_max": 1.0, "n": 5, "eta": 0.1}, "grid")
    points = grid.points()
    assert grid.kind == "retarded"
    assert len(points) == 5
    assert np.allclose(points.real, np.linspace(-1.0, 1.0, 5))
    assert np.allclose(points.imag, 0.1)


def test_matsubara_grid_layout():
    grid = parse(GridConfig, {"kind": "matsubara", "omega_max": 10.0,
                              "n": 64}, "grid")
    points = grid.points()
    assert grid.kind == "matsubara"
    assert len(points) == 64
    assert np.all(points.real == 0)
    omegas = points.imag
    assert omegas[0] == pytest.approx(0.01)
    assert omegas[-1] == pytest.approx(10.0)
    ratios = omegas[1:] / omegas[:-1]
    assert np.allclose(ratios, ratios[0])
    one = parse(GridConfig, {"kind": "matsubara", "omega_max": 3.0, "n": 1},
                "grid")
    assert one.points()[0] == 3.0j


def test_ansatz_validation():
    with pytest.raises(ConfigError):
        parse(AnsatzConfig, {"depth": 0}, "ansatz")
    with pytest.raises(ConfigError):
        parse(AnsatzConfig, {"pattern": ["RY", "H"]}, "ansatz")
    with pytest.raises(ConfigError):
        parse(AnsatzConfig, {"pattern": []}, "ansatz")


def test_optimizer_validation():
    for bad in ({"epsilon": 0.0}, {"sector_penalty": -1.0},
                {"gs_max_sweeps": 0}, {"extra_depth": -1},
                {"stall_sweeps": -1}, {"max_sweeps": "x"},
                {"epsilon": "nan"}, {"max_sweeps": None}):
        with pytest.raises(ConfigError, match="optimizer"):
            parse(RunConfig, minimal(optimizer=bad), "config")


def test_measurement_and_noise_validation():
    for section, bad in (
        ("measurement", {"mode": "tomography"}),
        ("measurement", {"shots": 0}),
        ("measurement", {"shots": 2**63}),
        ("measurement", {"seed": -1}),
        ("noise", {"p2": 1.5}),
        ("noise", {"boost": 1.0, "zne": True}),
        # the channel takes boost > 1 whether or not ZNE is on, and an
        # out-of-range p2 even while the noise is switched off
        ("noise", {"boost": 1.0, "zne": False}),
        ("noise", {"enabled": False, "p2": 0.95}),
        ("noise", {"enabled": True, "p2": 0.5, "boost": 2.0}),
        ("noise", {"boost": "inf"}),
    ):
        with pytest.raises(ConfigError, match=section):
            parse(RunConfig, minimal(**{section: bad}), "config")
    cfg = parse(RunConfig, minimal(noise={"enabled": True, "p2": 0.5,
                                          "zne": False},
                                   measurement={"seed": "11"}), "config")
    assert cfg.noise == NoiseModel(enabled=True, p2=0.5, zne=False)
    assert cfg.measurement.seed == 11


def test_run_config_cross_field_rules():
    with pytest.raises(ConfigError):
        parse(RunConfig, minimal(active_space=[1, 1]), "config")
    with pytest.raises(ConfigError):
        parse(RunConfig, minimal(active_space=[-1]), "config")
    with pytest.raises(ConfigError):
        parse(RunConfig, minimal(active_space=[]), "config")
    with pytest.raises(ConfigError):
        parse(RunConfig, minimal(embedding="dyson"), "config")
    with pytest.raises(ConfigError):
        parse(RunConfig, minimal(embedding="pade", active_space=[0, 1]),
              "config")
    with pytest.raises(ConfigError):
        parse(RunConfig, minimal(min_converged_fraction=1.5), "config")
    with pytest.raises(ConfigError):
        parse(RunConfig, minimal(number_penalty=-1.0), "config")
    with pytest.raises(ConfigError):
        parse(RunConfig, minimal(spin_penalty=-0.1), "config")
    # an empty path is the current directory
    with pytest.raises(ConfigError, match="out_dir"):
        parse(RunConfig, minimal(out_dir=""), "config")
    cfg = parse(RunConfig, minimal(embedding="nondyson", active_space=[0, 1]),
                "config")
    assert cfg.embedding == "nondyson"


def test_unconvertible_values_rejected():
    for bad in (
        minimal(active_space=3),
        minimal(active_space="12"),
        minimal(active_space=[0, "x"]),
        minimal(hamiltonian={"kind": "hubbard-dimer", "t": "a", "u": 4.0}),
        minimal(hamiltonian={"kind": "hubbard-dimer", "t": 1.0, "u": [4.0]}),
        minimal(grid={"kind": "retarded", "omega_min": -1.0, "omega_max": 1.0,
                      "n": "x"}),
        minimal(grid={"kind": "retarded", "omega_min": None,
                      "omega_max": {}, "n": 5}),
        minimal(grid={"kind": "retarded", "omega_min": -1.0, "omega_max": 1.0,
                      "n": 5, "eta": "nan"}),
        minimal(mu="a"),
        minimal(mu=float("inf")),
        minimal(ansatz={"pattern": "RY"}),
        minimal(ansatz={"depth": None}),
        minimal(optimizer=[]),
        # a bool field takes only true or false, and an integer field is
        # never truncated
        minimal(noise={"enabled": "false"}),
        minimal(noise={"zne": "false"}),
        minimal(noise={"zne": 0}),
        minimal(optimizer={"max_sweeps": 2.7}),
        minimal(optimizer={"max_sweeps": True}),
        minimal(measurement={"shots": "1e3"}),
        minimal(grid={"kind": "retarded", "omega_min": -1.0, "omega_max": 1.0,
                      "n": 2.7}),
        minimal(ansatz={"depth": 2.5}),
        minimal(ansatz={"depth": False}),
        minimal(active_space=[0.9]),
        # nor does a float field take a bool as 1.0 or 0.0
        minimal(mu=True),
        minimal(optimizer={"epsilon": True}),
        minimal(hamiltonian={"kind": "hubbard-dimer", "t": True, "u": 4.0}),
        minimal(grid={"kind": "retarded", "omega_min": False,
                      "omega_max": 1.0, "n": 5}),
        # a string field takes only a string, not its str() text
        minimal(out_dir=None),
        minimal(out_dir=5),
        minimal(hamiltonian={"kind": "fcidump", "path": 5}),
        minimal(hamiltonian={"kind": "fcidump", "path": ["x"]}),
    ):
        with pytest.raises(ConfigError):
            parse(RunConfig, bad, "config")
    with pytest.raises(ConfigError,
                       match=r"^config: out_dir: None is not a string$"):
        parse(RunConfig, minimal(out_dir=None), "config")


def test_rules_hold_under_replace():
    cfg = parse(RunConfig, minimal(grid={"kind": "retarded", "omega_min": -1.0,
                                         "omega_max": 1.0, "n": 5}), "config")
    with pytest.raises(ValueError):
        replace(cfg.grid, omega_min=5.0)
    with pytest.raises(ValueError):
        replace(cfg.hamiltonian, kind="fcidump")
    with pytest.raises(ValueError):
        replace(cfg, embedding="dyson")


def reachable_sections(cls) -> set:
    """``cls`` and every section class its fields hold, at any depth."""
    found = {cls}
    for kind in typing.get_type_hints(cls).values():
        for arg in (kind, *typing.get_args(kind)):
            if is_dataclass(arg):
                found |= reachable_sections(arg)
    return found


def test_every_section_roundtrips():
    """Each section class reachable from RunConfig serializes to an object
    that parses back to an equal instance, so a field of a type the parser
    cannot convert fails here."""
    cfg = parse(RunConfig, minimal(
        grid={"kind": "retarded", "omega_min": -1.0, "omega_max": 1.0,
              "n": 11, "eta": 0.02},
        active_space=[2, 1], mu=0.1,
        ansatz={"depth": 4, "pattern": ["RX", "RZ"]},
        optimizer={"epsilon": 0.01, "max_sweeps": 9, "gs_tol": 1e-9},
        measurement={"mode": "sampled", "shots": 2000, "seed": 13},
        noise={"enabled": True, "p2": 1e-3, "zne": False},
        embedding="both"), "config")
    examples = [cfg, cfg.hamiltonian, cfg.grid, cfg.ansatz, cfg.optimizer,
                cfg.measurement, cfg.noise,
                HamiltonianSource("fcidump", path="a.fcidump"),
                GridConfig("matsubara", 10.0, 8)]
    assert {type(x) for x in examples} == reachable_sections(RunConfig)
    for x in examples:
        assert parse(type(x), to_json_dict(x), "section") == x


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def record_fields(draw):
    """(record class, field values): a ``PointRecord`` or a ``GroundState``
    with finite floats of any size, subnormals and -0.0 among them."""
    def floats(min_size=0, max_size=6):
        return tuple(draw(st.lists(FINITE, min_size=min_size, max_size=max_size)))

    if draw(st.booleans()):
        return GroundState, dict(e0=draw(FINITE), converged=draw(st.booleans()),
                                 sweeps=draw(st.integers(0, 10**4)), angles=floats())
    n = draw(st.integers(0, 4))
    return PointRecord, dict(
        k=draw(st.integers(0, 10**4)), z_re=draw(FINITE), z_im=draw(FINITE),
        orbital=draw(st.integers(0, 20)), branch=draw(st.sampled_from((PARTICLE, HOLE))),
        elements_re=floats(n, n), elements_im=floats(n, n), theta=floats(),
        depth=draw(st.integers(1, 9)), sweeps=draw(st.integers(0, 10**4)),
        residual=draw(FINITE), gamma_re=draw(FINITE), gamma_im=draw(FINITE),
        converged=draw(st.booleans()), attempts=draw(st.integers(1, 2)))


@settings(max_examples=80)
@given(record_fields())
def test_records_roundtrip_through_their_line(case):
    """A record is rounded to its stored text as it is built: the line it
    writes parses back to an equal record, and building it again from its
    own values rounds nothing further."""
    cls, values = case
    rec = cls(**values)
    line = dumps_canonical(to_json_dict(rec))
    assert parse(cls, json.loads(line), "record") == rec
    again = replace(rec)
    assert again == rec
    assert dumps_canonical(to_json_dict(again)) == line


def test_integral_values_accepted():
    cfg = parse(RunConfig, minimal(
        grid={"kind": "matsubara", "omega_max": 10.0, "n": 4.0},
        active_space=[1.0, "0"], ansatz={"depth": "2"},
        optimizer={"max_sweeps": 3.0}, measurement={"shots": 1e3},
        noise={"enabled": False, "zne": False}), "config")
    assert cfg.grid.n == 4 and cfg.active_space == (0, 1)
    assert cfg.ansatz.depth == 2 and cfg.optimizer.max_sweeps == 3
    assert cfg.measurement.shots == 1000
    assert cfg.noise.enabled is False and cfg.noise.zne is False
    assert all(type(v) is int for v in (cfg.grid.n, cfg.ansatz.depth,
                                        cfg.optimizer.max_sweeps,
                                        cfg.measurement.shots, *cfg.active_space))


FULL = to_json_dict(parse(RunConfig, minimal(
    grid={"kind": "retarded", "omega_min": -1.0, "omega_max": 1.0, "n": 5},
    active_space=[0, 1]), "config"))
KEYS = ([(None, key) for key in FULL]
        + [(name, key) for name, section in FULL.items()
           if isinstance(section, dict) for key in section]
        + [("hamiltonian", "path")])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6)


@settings(max_examples=300)
@given(st.lists(st.tuples(st.sampled_from(KEYS), JSON_VALUES),
                min_size=1, max_size=3))
def test_parse_rejects_or_roundtrips(edits):
    """Any value at any key either is refused with a ConfigError or parses
    into a config that its own serialization parses back to."""
    data = json.loads(json.dumps(FULL))
    for (section, key), value in edits:
        if section is None:
            data[key] = value
        elif isinstance(data.get(section), dict):
            data[section][key] = value
    try:
        cfg = parse(RunConfig, data, "config")
    except ConfigError:
        return
    assert parse(RunConfig, to_json_dict(cfg), "config") == cfg


def test_load_config(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(minimal(out_dir=str(tmp_path / "out"))))
    cfg = load_config(path)
    assert cfg.hamiltonian.kind == "hubbard-dimer"
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)
