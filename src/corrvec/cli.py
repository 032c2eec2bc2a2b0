"""Command-line batch tool: ground states, frequency sweeps, embedding,
exact references, comparisons, and noise scans.

Every command reads a strict JSON config, writes each output through
``ManifestWriter.write``, an atomic rename that pins the file's digest, and
finishes by writing the manifest.  Fixed (config, seed) pairs reproduce
numeric outputs byte for byte.  A sweep also appends each solved point to
its checkpoint log, which a resume reads back through ``config.parse``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .circuits import NoiseModel, sample_pauli_expectation
from .config import ConfigError, RunConfig, load_config, parse, to_json_dict
from .fermion import BlockedSpinOrbitals, number_penalty, total_spin_squared
from .greens import (dyson_embed, nondyson_embed, spin_up_block, trace_spectrum)
from .molham import build_cas, fock_matrix, hubbard_dimer, read_fcidump
from .oracle import MAX_DENSE_QUBITS, GreensOracle, exact_ground
from .pauli import PauliSum
from .solver import (HOLE, PARTICLE, PointRecord, assemble_matrices,
                     sweep_columns, target_sector)
from .store import (ManifestWriter, append_lines, canonical_fields,
                    dumps_canonical, fmt_float, read_json_log, read_series,
                    series_lines, sha256_of_file, spectrum_csv)
from .vqe import AnsatzSpec, build_hea, hf_start_angles, vqe_ground_state

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INGEST = 3
EXIT_BUDGET = 4
EXIT_COMPARE = 5


class CliFailure(SystemExit):
    def __init__(self, code: int, message: str):
        print(f"corrvec: {message}", file=sys.stderr)
        super().__init__(code)


def _finite(op: PauliSum, field: str) -> PauliSum:
    """``op``, refused (exit 2) when the sum of its |coefficient|, which
    bounds every value read off it, overflows: the config value ``field``
    is too large for it."""
    if not math.isfinite(op.one_norm()):
        raise CliFailure(EXIT_CONFIG, f"{field}: too large, the operator it "
                                      f"builds has coefficients that overflow")
    return op


def _unhidden(size: float, penalty: float, field: str) -> None:
    """Exit 2 when a penalty of sum of |coefficient| ``penalty`` hides an
    operator of sum ``size`` summed into the same cost: the cost carries a
    round-off of eps = 2^-52 times the size of its terms, and the operator
    moves it by at most ``size``, so at size <= eps (size + penalty) all it
    adds lies within that round-off.  An operator of size 0 hides nothing."""
    if 0.0 < size <= np.finfo(float).eps * (size + penalty):
        raise CliFailure(EXIT_CONFIG, f"{field}: too large, the penalty hides "
                                      f"the cost's other terms below its round-off")


def _load_config(args) -> RunConfig:
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        raise CliFailure(EXIT_CONFIG, str(exc))
    try:
        if getattr(args, "seed", None) is not None:
            cfg = replace(cfg, measurement=replace(cfg.measurement,
                                                   seed=args.seed))
        if getattr(args, "out", None) is not None:
            cfg = replace(cfg, out_dir=args.out)
    except ValueError as exc:  # the message names the field
        raise CliFailure(EXIT_CONFIG, f"--seed or --out: {exc}")
    return cfg


class Problem:
    """Everything a command needs once ingestion succeeded (exit 3 if not)."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        if cfg.hamiltonian.kind == "fcidump":
            try:
                self.integrals = read_fcidump(cfg.hamiltonian.path)
            except FileNotFoundError:
                raise CliFailure(EXIT_INGEST, f"fcidump not found: {cfg.hamiltonian.path}")
            except OSError as exc:
                raise CliFailure(EXIT_INGEST, f"{cfg.hamiltonian.path}: cannot "
                                              f"be read ({exc.strerror or exc})")
            except ValueError as exc:
                raise CliFailure(EXIT_INGEST, str(exc))
        else:
            self.integrals = hubbard_dimer(cfg.hamiltonian.t, cfg.hamiltonian.u)
        if cfg.active_space is not None:
            try:
                self.problem_integrals = build_cas(self.integrals,
                                                   cfg.active_space)
            except ValueError as exc:
                raise CliFailure(EXIT_INGEST, f"active_space: {exc}")
        else:
            self.problem_integrals = self.integrals
        self.h_field = "hamiltonian or mu" if cfg.mu else "hamiltonian"
        self.h_op = _finite(self.problem_integrals.to_qubits(mu=cfg.mu),
                            self.h_field)
        self.n_orb = self.problem_integrals.n_orb
        self.n_elec = self.problem_integrals.n_elec
        self.n_modes = 2 * self.n_orb

    def ansatz(self) -> AnsatzSpec:
        return AnsatzSpec(self.n_modes, self.cfg.ansatz.depth,
                          self.cfg.ansatz.pattern)

    def gs_start(self, spec: AnsatzSpec) -> np.ndarray | None:
        """Jittered closed-shell start angles for an even electron count; an
        ansatz pattern that cannot prepare the determinant exits 2."""
        if self.n_elec % 2:
            return None
        modes = BlockedSpinOrbitals(self.n_orb).closed_shell_modes(self.n_elec)
        try:
            return hf_start_angles(spec, modes, jitter=0.02,
                                   rng=self.cfg.measurement.make_rng())
        except ValueError as exc:
            raise CliFailure(EXIT_CONFIG, f"ansatz: {exc}")

    @functools.cached_property
    def gs_penalty(self):
        """The number penalty plus spin_penalty times S^2 for an even count,
        or (S^2 - 3/4)^2, zero on doublets, for an odd one; exit 2 when a
        weight overflows a part or H plus the sum (``_finite``), or when
        the sum hides H below its round-off (``_unhidden``)."""
        cfg = self.cfg
        total = None
        if cfg.number_penalty > 0:
            total = _finite(number_penalty(self.n_modes, self.n_elec, cfg.number_penalty),
                            "number_penalty")
        if cfg.spin_penalty > 0:
            s2 = total_spin_squared(self.n_orb)
            if self.n_elec % 2:
                s2 -= PauliSum.identity(self.n_modes, 0.75)
                s2 = s2 * s2
            spin = _finite(cfg.spin_penalty * s2, "spin_penalty")
            total = spin if total is None else total + spin
        if total is not None:
            field = "number_penalty or spin_penalty"
            _finite(self.h_op + total, field)
            _unhidden(self.h_op.one_norm(), total.one_norm(), field)
        return total

    def check_penalties(self, zs: np.ndarray | None = None) -> None:
        """Build the ground-state penalty, and for a sweep over ``zs`` the
        sector penalty of both branches' targets, so that a weight that
        overflows one exits 2 before a command writes anything.  So does a
        sweep whose solves' Q+Q plus that penalty would overflow: Q+Q sums
        to at most (max |z| + 2 sum|c_H|)^2 in |coefficient|, as
        |E0| <= sum|c_H|; and one whose sector penalty would hide even that
        bound below its round-off (``_unhidden``)."""
        self.gs_penalty  # checked as it is built, once
        if zs is None:
            return
        penalty = max(_finite(number_penalty(self.n_modes,
                                             target_sector(branch, self.n_elec),
                                             self.cfg.optimizer.sector_penalty),
                              "optimizer.sector_penalty").one_norm()
                      for branch in (HOLE, PARTICLE))
        z_max, h_size = float(np.abs(zs).max()), 2.0 * self.h_op.one_norm()
        # a product, which overflows to inf where ** raises OverflowError
        qq_size = (z_max + h_size) * (z_max + h_size)
        if not math.isfinite(qq_size + penalty):
            field = "grid" if z_max > h_size else self.h_field
            raise CliFailure(EXIT_CONFIG, f"{field}: too large, the cost of a "
                                          f"sweep's solves (Q+Q) would overflow")
        _unhidden(qq_size, penalty, "optimizer.sector_penalty")

    def ground_state(self, spec: AnsatzSpec, noise: NoiseModel, theta0):
        """``vqe_ground_state`` at the configured measurement, stop rule and
        penalty, drawing from a fresh stream of the seed."""
        cfg = self.cfg
        return vqe_ground_state(self.h_op, spec, cfg.measurement, noise,
                                cfg.measurement.make_rng(), cfg.optimizer.gs_tol,
                                cfg.optimizer.gs_max_sweeps, self.gs_penalty, theta0)


@dataclass(frozen=True)
class GroundState:
    """The one-line record of ``ground_state.json`` a sweep starts from, its
    floats rounded to their stored text as it is built (``canonical_fields``)."""

    e0: float
    converged: bool
    sweeps: int
    angles: tuple[float, ...]

    def __post_init__(self):
        canonical_fields(self)


def _ground_state(prob: Problem, spec: AnsatzSpec, theta0,
                  manifest: ManifestWriter) -> tuple[float, GroundState]:
    """Search the ground state and write its record and trace: the energy
    as estimated, and the record."""
    e0, theta, trace = prob.ground_state(spec, prob.cfg.noise, theta0)
    gs = GroundState(e0=float(e0), converged=bool(trace.converged),
                     sweeps=trace.sweeps, angles=tuple(theta))
    manifest.write("ground_state.json", dumps_canonical(to_json_dict(gs)) + "\n")
    manifest.write("trace.log", trace.log_lines())
    manifest.stage("ground-state", "ok", e0=gs.e0, sweeps=gs.sweeps,
                   converged=gs.converged)
    return float(e0), gs


def cmd_ground_state(args) -> int:
    cfg = _load_config(args)
    prob = Problem(cfg)
    prob.check_penalties()
    spec = prob.ansatz()
    theta0 = prob.gs_start(spec)
    manifest = ManifestWriter(cfg.out_dir, to_json_dict(cfg))
    e0, gs = _ground_state(prob, spec, theta0, manifest)
    manifest.finish()
    print(f"E0 = {e0:.10f} ({gs.sweeps} sweeps, "
          f"converged={gs.converged}) -> {manifest.out_dir}")
    return EXIT_OK


def _checkpoint_text(records: list[PointRecord]) -> str:
    return "".join(dumps_canonical(to_json_dict(rec)) + "\n" for rec in records)


def _reusable_points(path: Path, prob: Problem, spec: AnsatzSpec,
                     zs: np.ndarray) -> dict[tuple[str, int], dict[int, PointRecord]]:
    """Logged points by column in point order, a point's last line winning.
    Refused unless each line has a branch string and integer orbital and k
    and each point parses (exit 3) and sits where the grid puts its k, on a
    configured orbital, with angles of a depth the ansatz may reach (exit 2)."""
    if not path.exists():
        return {}
    try:
        lines = read_json_log(path)
    except ValueError as exc:
        raise CliFailure(EXIT_INGEST, str(exc))
    latest = {}
    for lineno, d in lines:
        key = (tuple(map(d.get, ("branch", "orbital", "k")))
               if isinstance(d, dict) else ())
        if [type(v) for v in key] != [str, int, int]:
            raise CliFailure(EXIT_INGEST, f"{path}, line {lineno}: not a "
                                          f"checkpoint record")
        latest[key] = d
    depths = range(spec.depth, spec.depth + prob.cfg.optimizer.extra_depth + 1)
    existing: dict[tuple[str, int], dict[int, PointRecord]] = {}
    for (branch, j, k), d in sorted(latest.items()):
        try:
            rec = parse(PointRecord, d, f"{path}: point ({branch}, {j}, k={k})")
        except ConfigError as exc:
            raise CliFailure(EXIT_INGEST, str(exc))
        want = (complex(fmt_float(zs[k].real), fmt_float(zs[k].imag))
                if 0 <= k < len(zs) else None)
        if rec.z != want:
            raise CliFailure(
                EXIT_CONFIG,
                f"checkpoint in {path.parent} holds point ({branch}, {j}, k={k}) "
                f"at z={rec.z}, which is not on the configured grid; "
                f"sweep into a fresh out_dir")
        if not (0 <= j < prob.n_orb and len(rec.elements_re) == prob.n_orb
                and rec.depth in depths
                and len(rec.theta) == replace(spec, depth=rec.depth).n_slots):
            raise CliFailure(
                EXIT_CONFIG,
                f"checkpoint in {path.parent} holds point ({branch}, {j}, k={k}), "
                f"which does not fit the configured ansatz or orbitals; "
                f"sweep into a fresh out_dir")
        existing.setdefault((branch, j), {})[k] = rec
    return existing


def _series_extras(records: list[PointRecord], bound: np.ndarray) -> list[dict]:
    extras = [{"residuals": [], "gamma_re": [], "gamma_im": [], "depth": [],
               "converged": [], "bound": b.ravel()} for b in bound]
    for rec in records:
        e = extras[rec.k]
        e["residuals"].append(rec.residual)
        for name in ("gamma_re", "gamma_im", "depth", "converged"):
            e[name].append(getattr(rec, name))
    return extras


def _grid_points(cfg: RunConfig, command: str) -> np.ndarray:
    """The configured frequencies; a missing grid, or one too large for
    numpy to build, exits 2 before anything is written."""
    if cfg.grid is None:
        raise CliFailure(EXIT_CONFIG, f"{command} requires a grid section")
    try:
        return cfg.grid.points()
    except (ValueError, IndexError, OverflowError) as exc:
        # numpy refuses a size it cannot hold with one of these, by magnitude
        raise CliFailure(EXIT_CONFIG, f"grid: n is too large to build its "
                                      f"points ({exc})")


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    zs = _grid_points(cfg, "sweep")
    prob = Problem(cfg)
    prob.check_penalties(zs)
    spec = prob.ansatz()
    theta0 = prob.gs_start(spec)
    out = Path(cfg.out_dir)
    log = out / "checkpoint.jsonl"
    existing = _reusable_points(log, prob, spec, zs)
    manifest = ManifestWriter(out, to_json_dict(cfg))

    gs_path = out / "ground_state.json"
    if not gs_path.exists():
        _, gs = _ground_state(prob, spec, theta0, manifest)
    else:
        try:
            with open(gs_path) as fh:
                # the record is one line, as _ground_state writes it
                gs = parse(GroundState, json.load(fh), f"{gs_path}, line 1")
        except json.JSONDecodeError as exc:
            raise CliFailure(EXIT_INGEST, f"{gs_path}, line {exc.lineno}: "
                                          f"not JSON ({exc.msg})")
        except ConfigError as exc:
            raise CliFailure(EXIT_INGEST, str(exc))
        if len(gs.angles) != spec.n_slots:
            raise CliFailure(EXIT_CONFIG,
                             "stored ground state does not match the ansatz")
        manifest.register(gs_path)
        if (out / "trace.log").exists():
            manifest.register(out / "trace.log")
        manifest.stage("ground-state", "reused", e0=gs.e0)

    if log.exists():
        # a line cut short by a kill must not run into the next append
        manifest.write(log.name, _checkpoint_text(
            [rec for col in existing.values() for rec in col.values()]))
    records = sweep_columns(
        prob.h_op, gs.e0, build_hea(spec).bound(gs.angles), zs, spec,
        cfg.optimizer, cfg.measurement, cfg.noise, prob.n_elec,
        existing=existing,
        on_point=lambda rec: append_lines(log, _checkpoint_text([rec])))
    records.sort(key=lambda r: (r.branch, r.orbital, r.k))

    n_conv = sum(r.converged for r in records)
    frac = n_conv / len(records)
    g = assemble_matrices(records, prob.n_orb, len(zs))
    # each element's bound sums those of the records that placed it
    bound = assemble_matrices(
        records, prob.n_orb, len(zs),
        values=[np.full(prob.n_orb, r.bound()) for r in records]).real
    manifest.write("series.jsonl",
                   series_lines(zs, g, _series_extras(records, bound)))
    manifest.write("spectrum.csv", spectrum_csv(zs, g))
    manifest.write(log.name, _checkpoint_text(records))
    status = "ok" if frac >= cfg.min_converged_fraction else "budget-exceeded"
    manifest.stage("sweep", status, points=len(records), converged=n_conv,
                   fraction=round(frac, 6))
    manifest.finish()
    print(f"sweep: {len(records)} points, {n_conv} converged "
          f"({100 * frac:.1f}%) -> {out}")
    if frac < cfg.min_converged_fraction:
        raise CliFailure(EXIT_BUDGET,
                         f"converged fraction {frac:.3f} below "
                         f"{cfg.min_converged_fraction}")
    return EXIT_OK


def _embedded_series(mode: str, g_cas_spatial: np.ndarray, f: np.ndarray,
                     active: tuple[int, ...], zs: np.ndarray):
    if mode == "dyson":
        return dyson_embed(g_cas_spatial, f, active, zs)
    return nondyson_embed(g_cas_spatial, f, active, zs), []


def _read_series(path: Path):
    try:
        return read_series(path)
    except ValueError as exc:
        raise CliFailure(EXIT_INGEST, str(exc))


def cmd_embed(args) -> int:
    cfg = _load_config(args)
    if not (math.isfinite(args.inject_sigma) and args.inject_sigma >= 0):
        raise CliFailure(EXIT_CONFIG, "--inject-sigma must be a finite "
                                      "non-negative number")
    if args.realizations < 1:
        raise CliFailure(EXIT_CONFIG, "--realizations must be at least 1")
    if cfg.embedding == "none":
        raise CliFailure(EXIT_CONFIG, "embed requires embedding mode != 'none'")
    if cfg.hamiltonian.kind != "fcidump":
        raise CliFailure(EXIT_CONFIG, "embedding needs a molecular fcidump source")
    prob = Problem(cfg)
    out = Path(cfg.out_dir)
    series_path = out / "series.jsonl"
    if not series_path.exists():
        raise CliFailure(EXIT_INGEST, f"no active-space series at {series_path}")
    zs, g_cas, _ = _read_series(series_path)
    if g_cas.shape[1] != prob.n_modes:
        raise CliFailure(EXIT_INGEST,
                         "stored series does not match the active space")
    manifest = ManifestWriter(out, to_json_dict(cfg))
    manifest.register(series_path)
    f = fock_matrix(prob.integrals)
    active = cfg.active_space
    g_sp = np.array([spin_up_block(gk) for gk in g_cas])

    rng = cfg.measurement.make_rng()
    if args.inject_sigma > 0:
        shape = (args.realizations,) + g_sp.shape
        try:
            noise = (rng.normal(0, args.inject_sigma, shape)
                     + 1j * rng.normal(0, args.inject_sigma, shape))
        except (MemoryError, ValueError, OverflowError) as exc:
            # numpy refuses a draw it cannot hold with one of these
            raise CliFailure(EXIT_CONFIG, f"--realizations {args.realizations} "
                                          f"is too large to draw ({exc})")
    else:
        noise = None

    modes = ("dyson", "nondyson") if cfg.embedding == "both" else (cfg.embedding,)
    report = {"modes": {}, "sigma": args.inject_sigma,
              "realizations": args.realizations if noise is not None else 0}
    spectra = {}
    for mode in modes:
        g_emb, skipped = _embedded_series(mode, g_sp, f, active, zs)
        if skipped:  # only dyson skips points, and it runs first
            raise CliFailure(EXIT_INGEST, f"{series_path}: G is singular at "
                             f"z = {', '.join(f'{zs[k]:.6g}' for k in skipped)}")
        manifest.write(f"embedded_{mode}.jsonl", series_lines(zs, g_emb))
        manifest.write(f"embedded_{mode}.csv", spectrum_csv(zs, g_emb))
        spectra[mode] = np.array([trace_spectrum(m) for m in g_emb])
        entry = {"singular_points": len(skipped)}
        if noise is not None:
            errs = []
            for r in range(args.realizations):
                g_noisy, _ = _embedded_series(mode, g_sp + noise[r], f, active, zs)
                tr = np.array([trace_spectrum(m) for m in g_noisy])
                errs.append(np.abs(tr - spectra[mode]))
            entry["mean_abs_spectrum_error"] = float(np.nanmean(errs))
            entry["max_abs_spectrum_error"] = float(np.nanmax(
                np.nanmean(errs, axis=0)))
        report["modes"][mode] = entry
    if len(modes) == 2:
        diff = np.abs(spectra["dyson"] - spectra["nondyson"])
        report["max_spectrum_delta"] = float(np.nanmax(diff))
    manifest.write("embed_report.json", dumps_canonical(report) + "\n")
    manifest.stage("embed", "ok", **{k: v for k, v in report.items()
                                     if k != "modes"})
    manifest.finish()
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_oracle(args) -> int:
    cfg = _load_config(args)
    zs = _grid_points(cfg, "oracle")
    prob = Problem(cfg)
    if prob.n_modes > MAX_DENSE_QUBITS:
        raise CliFailure(EXIT_CONFIG,
                         f"{prob.n_modes} modes is beyond dense diagonalization")
    sector = args.sector if args.sector is not None else prob.n_elec
    if not 0 <= sector <= prob.n_modes:
        raise CliFailure(EXIT_CONFIG,
                         f"--sector {sector} outside 0..{prob.n_modes}")
    manifest = ManifestWriter(cfg.out_dir, to_json_dict(cfg))
    e0, psi0 = exact_ground(prob.h_op, n_particles=sector)
    oracle = GreensOracle(prob.h_op, e0, psi0, n_particles=sector)
    g = oracle.series(zs)
    manifest.write("series.jsonl", series_lines(zs, g))
    manifest.write("spectrum.csv", spectrum_csv(zs, g))
    manifest.write("ground_state.json", dumps_canonical(
        {"e0": float(e0), "sector": int(sector)}) + "\n")
    manifest.stage("oracle", "ok", e0=float(e0), sector=int(sector))
    manifest.finish()
    print(f"oracle: E0 = {e0:.10f} (sector {sector}), "
          f"{len(zs)} points -> {manifest.out_dir}")
    return EXIT_OK


def _check_manifested(series_path: Path, force: bool) -> None:
    if force:
        return
    manifest_path = series_path.parent / "manifest.json"
    message = None
    if not manifest_path.exists():
        message = f"{series_path} has no manifest"
    else:
        try:
            with open(manifest_path) as fh:
                digest = json.load(fh).get("files", {}).get(series_path.name)
        except (ValueError, AttributeError):
            message = f"{manifest_path} is not a readable manifest"
        else:
            if digest is None:
                message = f"{series_path.name} is not listed in {manifest_path}"
            elif sha256_of_file(series_path) != digest:
                message = f"{series_path} does not match its manifest digest"
    if message:
        raise CliFailure(EXIT_COMPARE, message + " (use --force to override)")


def cmd_compare(args) -> int:
    if args.tol is not None and not args.tol >= 0:
        raise CliFailure(EXIT_CONFIG, "--tol must be a non-negative number")
    path_a, path_b = Path(args.series_a), Path(args.series_b)
    for p in (path_a, path_b):
        if not p.exists():
            raise CliFailure(EXIT_INGEST, f"series not found: {p}")
        _check_manifested(p, args.force)
    zs_a, g_a, extras_a = _read_series(path_a)
    zs_b, g_b, extras_b = _read_series(path_b)
    if zs_a.shape != zs_b.shape or not np.allclose(zs_a, zs_b, atol=1e-12):
        raise CliFailure(EXIT_COMPARE, "frequency grids do not align")
    if g_a.shape != g_b.shape:
        raise CliFailure(EXIT_COMPARE, "Green's function shapes differ")
    tr_a = np.array([trace_spectrum(m) for m in g_a])
    tr_b = np.array([trace_spectrum(m) for m in g_b])
    d_tr = np.abs(tr_a - tr_b)
    d_g = np.abs(g_a - g_b)
    report = {
        "points": int(zs_a.shape[0]),
        "trace_spectrum": {"max_abs": float(d_tr.max()),
                           "mean_abs": float(d_tr.mean())},
        "elements": {"max_abs": float(d_g.max()),
                     "mean_abs": float(d_g.mean())},
    }
    bounds = [np.array([e["bound"] for e in ex]).reshape(g_a.shape)
              for ex in (extras_a, extras_b) if all("bound" in e for e in ex)]
    if bounds:
        report["inside_bound"] = float(np.mean(d_g <= sum(bounds)))
    print(json.dumps(report, indent=2, sort_keys=True))
    if args.tol is not None and d_g.max() > args.tol:
        raise CliFailure(EXIT_COMPARE,
                         f"max |dG| {d_g.max():.6g} exceeds tolerance {args.tol}")
    return EXIT_OK


def cmd_noise_scan(args) -> int:
    cfg = _load_config(args)
    try:
        p2_values = [float(x) for x in args.p2.split(",") if x.strip() != ""]
    except ValueError:
        raise CliFailure(EXIT_CONFIG, f"unparseable p2 list: {args.p2!r}")
    if not p2_values:
        raise CliFailure(EXIT_CONFIG, "p2 list must not be empty")
    try:
        models = [replace(cfg.noise, enabled=p2 != 0, p2=p2) for p2 in p2_values]
    except ValueError as exc:
        raise CliFailure(EXIT_CONFIG, f"--p2: {exc}")
    prob = Problem(cfg)
    prob.check_penalties()
    spec = prob.ansatz()
    theta0 = prob.gs_start(spec)
    manifest = ManifestWriter(cfg.out_dir, to_json_dict(cfg))
    settings = cfg.measurement
    circ = build_hea(spec)
    rows = []
    for p2, noise in zip(p2_values, models):
        e0, theta, trace = prob.ground_state(spec, noise, theta0)
        row = {"p2": p2, "e0": float(e0), "sweeps": trace.sweeps,
               "converged": bool(trace.converged)}
        if p2 > 0 and cfg.noise.zne:
            row["e0_raw"] = float(sample_pauli_expectation(
                circ, theta, prob.h_op, settings, replace(noise, zne=False),
                settings.make_rng()))
        rows.append(row)
    manifest.write("noise_scan.json", dumps_canonical({"rows": rows}) + "\n")
    manifest.stage("noise-scan", "ok", n=len(rows))
    manifest.finish()
    print(json.dumps({"rows": rows}, indent=2, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrvec",
        description="Variational correction-vector Green's function toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--seed", type=int, default=None,
                       help="override the measurement seed")
        p.add_argument("--out", default=None, help="override the output directory")

    p = sub.add_parser("ground-state", help="variational ground-state search")
    add_common(p)
    p.set_defaults(func=cmd_ground_state)

    p = sub.add_parser("sweep", help="correction-vector frequency sweep")
    add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("embed", help="combine an active-space series with the "
                                     "mean-field environment")
    add_common(p)
    p.add_argument("--inject-sigma", type=float, default=0.0,
                   help="standard deviation of per-element Gaussian noise "
                        "added to the stored series (bias diagnostics)")
    p.add_argument("--realizations", type=int, default=100,
                   help="noise realizations when --inject-sigma > 0")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("oracle", help="dense-diagonalization reference outputs")
    add_common(p)
    p.add_argument("--sector", type=int, default=None,
                   help="particle-number sector (default: electron count)")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("compare", help="grid-aligned difference of two series "
                                       "and the share inside stored error bounds")
    p.add_argument("series_a")
    p.add_argument("series_b")
    p.add_argument("--tol", type=float, default=None,
                   help="fail (exit 5) if max |dG| exceeds this")
    p.add_argument("--force", action="store_true",
                   help="allow inputs that are not pinned by a manifest")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("noise-scan", help="ground-state energies across "
                                          "two-qubit error rates")
    add_common(p)
    p.add_argument("--p2", required=True,
                   help="comma-separated error rates, e.g. 0,1e-3,2e-3")
    p.set_defaults(func=cmd_noise_scan)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliFailure as exc:
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
