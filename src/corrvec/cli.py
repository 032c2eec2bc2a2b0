"""Command-line batch tool: ground states, frequency sweeps, embedding,
exact references, comparisons, and noise scans.

Every command reads a strict JSON config, writes its numeric artifacts
through atomic renames, and finishes by writing a manifest that pins each
output file with a content digest.  Fixed (config, seed) pairs reproduce
numeric outputs byte for byte, regardless of worker count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from .circuits import MeasurementSettings, NoiseModel, sample_pauli_expectation
from .config import ConfigError, RunConfig, load_config
from .fermion import BlockedSpinOrbitals, number_penalty, total_spin_squared
from .greens import (dyson_embed, nondyson_embed, spin_up_block, trace_spectrum)
from .molham import build_cas, fock_matrix, hubbard_dimer, read_fcidump
from .oracle import GreensOracle, exact_ground
from .solver import (HOLE, PARTICLE, PointRecord, SolverOptions,
                     assemble_matrices, solve_column)
from .store import (CheckpointStore, ManifestWriter, dumps_canonical,
                    fmt_float, read_series, sha256_of_file, write_series,
                    write_spectrum_csv, write_text_atomic)
from .vqe import AnsatzSpec, build_hea, hf_start_angles, vqe_ground_state

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INGEST = 3
EXIT_BUDGET = 4
EXIT_COMPARE = 5

WORKERS_ENV = "CORRVEC_WORKERS"


class IngestError(RuntimeError):
    """Raised when a Hamiltonian source cannot be loaded."""


class CliFailure(SystemExit):
    def __init__(self, code: int, message: str):
        print(f"corrvec: {message}", file=sys.stderr)
        super().__init__(code)


def _worker_count() -> int:
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        n = int(raw)
    except ValueError:
        raise CliFailure(EXIT_CONFIG, f"{WORKERS_ENV} must be an integer, got {raw!r}")
    return max(1, n)


def _load_config(args) -> RunConfig:
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        raise CliFailure(EXIT_CONFIG, str(exc))
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, measurement=replace(cfg.measurement, seed=args.seed))
    if getattr(args, "out", None) is not None:
        cfg = replace(cfg, out_dir=args.out)
    return cfg


class Problem:
    """Everything a command needs once ingestion succeeded."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        if cfg.hamiltonian.kind == "fcidump":
            try:
                self.integrals = read_fcidump(cfg.hamiltonian.path)
            except FileNotFoundError:
                raise IngestError(f"fcidump not found: {cfg.hamiltonian.path}")
            except ValueError as exc:
                raise IngestError(str(exc))
        else:
            self.integrals = hubbard_dimer(cfg.hamiltonian.t, cfg.hamiltonian.u)
        self.partition = None
        if cfg.active_space is not None:
            for a in cfg.active_space:
                if a >= self.integrals.n_orb:
                    raise IngestError(
                        f"active orbital {a} outside the {self.integrals.n_orb}"
                        f"-orbital problem")
            self.partition, self.problem_integrals = build_cas(
                self.integrals, cfg.active_space)
        else:
            self.problem_integrals = self.integrals
        self.h_op = self.problem_integrals.to_qubits(mu=cfg.mu)
        self.n_orb = self.problem_integrals.n_orb
        self.n_elec = self.problem_integrals.n_elec
        self.n_modes = 2 * self.n_orb

    def ansatz(self) -> AnsatzSpec:
        return AnsatzSpec(self.n_modes, self.cfg.ansatz.depth,
                          self.cfg.ansatz.pattern)

    def measurement(self) -> MeasurementSettings:
        m = self.cfg.measurement
        return MeasurementSettings(mode=m.mode, shots=m.shots, seed=m.seed)

    def noise(self) -> NoiseModel:
        n = self.cfg.noise
        if not n.enabled:
            return NoiseModel()
        return _noise_model(n.p2, n.boost, n.zne)

    def gs_start(self, spec: AnsatzSpec) -> np.ndarray | None:
        if self.n_elec % 2:
            return None
        modes = BlockedSpinOrbitals(self.n_orb).closed_shell_modes(self.n_elec)
        return hf_start_angles(spec, modes, jitter=0.02,
                               rng=self.measurement().make_rng())

    def gs_penalty(self):
        cfg = self.cfg
        total = None
        if cfg.number_penalty > 0:
            total = number_penalty(self.n_modes, self.n_elec, cfg.number_penalty)
        if cfg.spin_penalty > 0:
            spin = cfg.spin_penalty * total_spin_squared(self.n_orb)
            total = spin if total is None else total + spin
        return total


def _noise_model(p2: float, boost: float, zne: bool) -> NoiseModel:
    """An enabled noise model; settings the channel cannot take exit 2."""
    try:
        return NoiseModel(enabled=True, p2=p2, boost=boost, zne=zne)
    except ValueError as exc:
        raise CliFailure(EXIT_CONFIG, f"noise: {exc}")


def _open_problem(cfg: RunConfig) -> Problem:
    try:
        return Problem(cfg)
    except IngestError as exc:
        raise CliFailure(EXIT_INGEST, str(exc))


def _run_ground_state(prob: Problem):
    cfg = prob.cfg
    spec = prob.ansatz()
    e0, theta, trace = vqe_ground_state(
        prob.h_op, spec, prob.measurement(), prob.noise(),
        tol=cfg.optimizer.gs_tol, max_sweeps=cfg.optimizer.gs_max_sweeps,
        penalty=prob.gs_penalty(), theta0=prob.gs_start(spec))
    return e0, theta, trace, spec


def _persist_ground_state(out: Path, e0, theta, trace) -> list[Path]:
    gs_path = out / "ground_state.json"
    payload = {
        "e0": float(e0),
        "converged": bool(trace.converged),
        "sweeps": int(trace.sweeps),
        "angles": [float(t) for t in theta],
    }
    write_text_atomic(gs_path, dumps_canonical(payload) + "\n")
    log_path = out / "trace.log"
    write_text_atomic(log_path, trace.log_lines())
    return [gs_path, log_path]


def cmd_ground_state(args) -> int:
    cfg = _load_config(args)
    prob = _open_problem(cfg)
    prob.noise()  # bad noise settings exit 2 before any output exists
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = ManifestWriter(out, cfg.to_json_dict())
    e0, theta, trace, _ = _run_ground_state(prob)
    files = _persist_ground_state(out, e0, theta, trace)
    for f in files:
        manifest.register(f)
    manifest.stage("ground-state", "ok", e0=float(e0), sweeps=trace.sweeps,
                   converged=bool(trace.converged))
    manifest.finish()
    print(f"E0 = {e0:.10f} ({trace.sweeps} sweeps, "
          f"converged={trace.converged}) -> {out}")
    return EXIT_OK


def _reusable_points(checkpoint: CheckpointStore, zs: np.ndarray,
                     out: Path) -> dict[tuple[str, int], dict[int, PointRecord]]:
    """Checkpointed points by column, refused unless each sits at the
    canonicalized frequency the current grid puts at its index."""
    existing = {key: {k: PointRecord.from_json_dict(d) for k, d in col.items()}
                for key, col in checkpoint.by_column().items()}
    for (branch, j), col in existing.items():
        for k, rec in col.items():
            want = (complex(fmt_float(zs[k].real), fmt_float(zs[k].imag))
                    if 0 <= k < len(zs) else None)
            if rec.z != want:
                raise CliFailure(
                    EXIT_CONFIG,
                    f"checkpoint in {out} holds point ({branch}, {j}, k={k}) "
                    f"at z={rec.z}, which is not on the configured grid; "
                    f"sweep into a fresh out_dir")
    return existing


def _sweep_records(prob: Problem, e0: float, theta: np.ndarray,
                   spec: AnsatzSpec, zs: np.ndarray, checkpoint: CheckpointStore,
                   existing: dict) -> list[PointRecord]:
    cfg = prob.cfg
    opts = SolverOptions(
        epsilon=cfg.optimizer.epsilon, max_sweeps=cfg.optimizer.max_sweeps,
        stall_sweeps=cfg.optimizer.stall_sweeps,
        extra_depth=cfg.optimizer.extra_depth,
        sector_penalty=cfg.optimizer.sector_penalty)
    gs_circ = build_hea(spec).bound(theta)
    orbitals = list(range(prob.n_orb))
    lock = threading.Lock()

    def on_point(rec: PointRecord) -> None:
        with lock:
            checkpoint.add(rec.to_json_dict())

    columns = [(branch, j) for branch in (PARTICLE, HOLE) for j in orbitals]

    def run_column(col):
        branch, j = col
        return solve_column(
            prob.h_op, e0, gs_circ, zs, branch, j, orbitals, spec, opts,
            prob.measurement(), prob.noise(), cfg.measurement.seed,
            n_elec=prob.n_elec, existing=existing.get((branch, j)),
            on_point=on_point)

    workers = _worker_count()
    records: list[PointRecord] = []
    if workers == 1:
        for col in columns:
            records.extend(run_column(col))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for chunk in pool.map(run_column, columns):
                records.extend(chunk)
    records.sort(key=lambda r: (r.branch, r.orbital, r.k))
    return records


def _series_extras(records: list[PointRecord], n_points: int) -> list[dict]:
    extras = [{"residuals": [], "gamma_re": [], "gamma_im": [],
               "depth": [], "converged": []} for _ in range(n_points)]
    for rec in records:
        e = extras[rec.k]
        e["residuals"].append(float(rec.residual))
        e["gamma_re"].append(float(rec.gamma.real))
        e["gamma_im"].append(float(rec.gamma.imag))
        e["depth"].append(int(rec.depth))
        e["converged"].append(bool(rec.converged))
    return extras


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    if cfg.grid is None:
        raise CliFailure(EXIT_CONFIG, "sweep requires a grid section")
    prob = _open_problem(cfg)
    prob.noise()  # bad noise settings exit 2 before any output exists
    out = Path(cfg.out_dir)
    zs = cfg.grid.build().points
    checkpoint = CheckpointStore(out / "checkpoint.jsonl")
    existing = _reusable_points(checkpoint, zs, out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = ManifestWriter(out, cfg.to_json_dict())

    gs_path = out / "ground_state.json"
    spec = prob.ansatz()
    if gs_path.exists():
        with open(gs_path) as fh:
            payload = json.load(fh)
        e0 = float(payload["e0"])
        theta = np.asarray(payload["angles"], dtype=float)
        if theta.shape != (spec.n_slots,):
            raise CliFailure(EXIT_CONFIG,
                             "stored ground state does not match the ansatz")
        manifest.stage("ground-state", "reused", e0=e0)
    else:
        e0, theta, trace, spec = _run_ground_state(prob)
        for f in _persist_ground_state(out, e0, theta, trace):
            manifest.register(f)
        manifest.stage("ground-state", "ok", e0=float(e0), sweeps=trace.sweeps,
                       converged=bool(trace.converged))
        # continue from the canonicalized values on disk, so a later resume
        # reads exactly what this run used
        with open(gs_path) as fh:
            payload = json.load(fh)
        e0 = float(payload["e0"])
        theta = np.asarray(payload["angles"], dtype=float)

    records = _sweep_records(prob, e0, theta, spec, zs, checkpoint, existing)

    n_conv = sum(r.converged for r in records)
    frac = n_conv / len(records)
    g = assemble_matrices(records, list(range(prob.n_orb)), prob.n_orb, len(zs))
    series_path = out / "series.jsonl"
    write_series(series_path, zs, g, _series_extras(records, len(zs)))
    csv_path = out / "spectrum.csv"
    write_spectrum_csv(csv_path, zs, g)
    manifest.register(series_path)
    manifest.register(csv_path)
    manifest.register(out / "checkpoint.jsonl")
    if gs_path.exists():
        manifest.register(gs_path)
        if (out / "trace.log").exists():
            manifest.register(out / "trace.log")
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


def cmd_embed(args) -> int:
    cfg = _load_config(args)
    if cfg.embedding == "none":
        raise CliFailure(EXIT_CONFIG, "embed requires embedding mode != 'none'")
    if cfg.hamiltonian.kind != "fcidump":
        raise CliFailure(EXIT_CONFIG, "embedding needs a molecular fcidump source")
    prob = _open_problem(cfg)
    out = Path(cfg.out_dir)
    series_path = out / "series.jsonl"
    if not series_path.exists():
        raise CliFailure(EXIT_INGEST, f"no active-space series at {series_path}")
    zs, g_cas, _ = read_series(series_path)
    if g_cas.shape[1] != prob.n_modes:
        raise CliFailure(EXIT_INGEST,
                         "stored series does not match the active space")
    manifest = ManifestWriter(out, cfg.to_json_dict())
    manifest.register(series_path)
    f = fock_matrix(prob.integrals)
    active = cfg.active_space
    g_sp = np.array([spin_up_block(gk) for gk in g_cas])

    rng = np.random.default_rng(cfg.measurement.seed)
    if args.inject_sigma > 0:
        shape = (args.realizations,) + g_sp.shape
        noise = (rng.normal(0, args.inject_sigma, shape)
                 + 1j * rng.normal(0, args.inject_sigma, shape))
    else:
        noise = None

    modes = ("dyson", "nondyson") if cfg.embedding == "both" else (cfg.embedding,)
    report = {"modes": {}, "sigma": args.inject_sigma,
              "realizations": args.realizations if noise is not None else 0}
    spectra = {}
    for mode in modes:
        g_emb, skipped = _embedded_series(mode, g_sp, f, active, zs)
        path = out / f"embedded_{mode}.jsonl"
        write_series(path, zs, g_emb)
        manifest.register(path)
        csv_path = out / f"embedded_{mode}.csv"
        write_spectrum_csv(csv_path, zs, g_emb)
        manifest.register(csv_path)
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
    report_path = out / "embed_report.json"
    write_text_atomic(report_path, dumps_canonical(report) + "\n")
    manifest.register(report_path)
    manifest.stage("embed", "ok", **{k: v for k, v in report.items()
                                     if k != "modes"})
    manifest.finish()
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_oracle(args) -> int:
    cfg = _load_config(args)
    if cfg.grid is None:
        raise CliFailure(EXIT_CONFIG, "oracle requires a grid section")
    prob = _open_problem(cfg)
    if prob.n_modes > 14:
        raise CliFailure(EXIT_CONFIG,
                         f"{prob.n_modes} modes is beyond dense diagonalization")
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = ManifestWriter(out, cfg.to_json_dict())
    sector = args.sector if args.sector is not None else prob.n_elec
    e0, psi0 = exact_ground(prob.h_op, n_particles=sector)
    oracle = GreensOracle(prob.h_op, e0, psi0, n_particles=sector)
    zs = cfg.grid.build().points
    g = oracle.series(zs)
    series_path = out / "series.jsonl"
    write_series(series_path, zs, g)
    csv_path = out / "spectrum.csv"
    write_spectrum_csv(csv_path, zs, g)
    gs_path = out / "ground_state.json"
    write_text_atomic(gs_path, dumps_canonical(
        {"e0": float(e0), "sector": int(sector)}) + "\n")
    for f in (series_path, csv_path, gs_path):
        manifest.register(f)
    manifest.stage("oracle", "ok", e0=float(e0), sector=int(sector))
    manifest.finish()
    print(f"oracle: E0 = {e0:.10f} (sector {sector}), "
          f"{len(zs)} points -> {out}")
    return EXIT_OK


def _check_manifested(series_path: Path, force: bool) -> None:
    if force:
        return
    manifest_path = series_path.parent / "manifest.json"
    message = None
    if not manifest_path.exists():
        message = f"{series_path} has no manifest"
    else:
        with open(manifest_path) as fh:
            data = json.load(fh)
        digest = data.get("files", {}).get(series_path.name)
        if digest is None:
            message = f"{series_path.name} is not listed in {manifest_path}"
        elif sha256_of_file(series_path) != digest:
            message = f"{series_path} does not match its manifest digest"
    if message:
        raise CliFailure(EXIT_COMPARE, message + " (use --force to override)")


def cmd_compare(args) -> int:
    path_a, path_b = Path(args.series_a), Path(args.series_b)
    for p in (path_a, path_b):
        if not p.exists():
            raise CliFailure(EXIT_INGEST, f"series not found: {p}")
        _check_manifested(p, args.force)
    zs_a, g_a, _ = read_series(path_a)
    zs_b, g_b, _ = read_series(path_b)
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
    if any(not 0 <= p <= 1 for p in p2_values):
        raise CliFailure(EXIT_CONFIG, "p2 values must lie in [0, 1]")
    models = [NoiseModel() if p2 == 0 else
              _noise_model(p2, cfg.noise.boost, cfg.noise.zne) for p2 in p2_values]
    prob = _open_problem(cfg)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = ManifestWriter(out, cfg.to_json_dict())
    spec = prob.ansatz()
    penalty = prob.gs_penalty()
    settings = prob.measurement()
    rows = []
    for p2, noise in zip(p2_values, models):
        e0, theta, trace = vqe_ground_state(
            prob.h_op, spec, settings, noise, tol=cfg.optimizer.gs_tol,
            max_sweeps=cfg.optimizer.gs_max_sweeps, penalty=penalty,
            theta0=prob.gs_start(spec))
        row = {"p2": p2, "e0": float(e0), "sweeps": trace.sweeps,
               "converged": bool(trace.converged)}
        if p2 > 0 and cfg.noise.zne:
            raw = replace(noise, zne=False)
            circ = build_hea(spec)
            row["e0_raw"] = float(sample_pauli_expectation(
                circ, theta, prob.h_op, settings, raw,
                settings.make_rng()))
        rows.append(row)
    scan_path = out / "noise_scan.json"
    write_text_atomic(scan_path, dumps_canonical({"rows": rows}) + "\n")
    manifest.register(scan_path)
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

    p = sub.add_parser("compare", help="grid-aligned difference of two series")
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
