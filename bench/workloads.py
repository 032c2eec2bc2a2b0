"""The three benchmark workloads: their corrvec configs and commands, and
the checks of each round's outputs against dense references and the
properties the method must have.

Paths are relative to the repository root, where every command runs.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from reference import (SectorGreens, aposteriori_bound, hea_state,
                       hubbard_dimer_energy, pauli_dense)

FIXTURES = Path(__file__).resolve().parent / "fixtures"
LIH_FCIDUMP = "bench/fixtures/lih_2.0.fcidump"


def read_series(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Frequencies and Green's-function matrices of a series.jsonl file."""
    zs, mats = [], []
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            zs.append(complex(rec["z_re"], rec["z_im"]))
            g = np.array(rec["g_re"]) + 1j * np.array(rec["g_im"])
            n = math.isqrt(g.size)
            mats.append(g.reshape(n, n))
    return np.array(zs), np.array(mats)


def read_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def check_manifest(out: Path, problems: list[str]) -> None:
    files = read_json(out / "manifest.json")["files"]
    if not files:
        problems.append(f"{out}: manifest lists no files")
    for rel, digest in files.items():
        data = (out / rel).read_bytes() if (out / rel).exists() else b""
        if hashlib.sha256(data).hexdigest() != digest:
            problems.append(f"{out}/{rel}: digest does not match the manifest")


def check_grid(zs: np.ndarray, grid: dict, problems: list[str]) -> None:
    want = np.linspace(grid["omega_min"], grid["omega_max"], grid["n"]) + 1j * grid["eta"]
    if zs.shape != want.shape or np.max(np.abs(zs - want)) > 1e-9:
        problems.append("series frequencies differ from the configured grid")


def check_embedding(out: Path, g_cas: np.ndarray, active, problems: list[str],
                    sigma: float = 0.0) -> None:
    """Dyson and non-Dyson embeddings of a canonical-orbital CAS series.

    F is diagonal in canonical orbitals, so both schemes are exact: they
    agree to round-off, the active block is G_cas itself and every inactive
    diagonal is the bare 1/(z - eps_p) of the fixture's orbital energies.
    """
    eps = np.array(read_json(FIXTURES / "lih_2.0.json")["orbital_energies"])
    report = read_json(out / "embed_report.json")
    n_act = len(active)
    inactive = [p for p in range(eps.size) if p not in active]
    spectra = {}
    for mode in ("dyson", "nondyson"):
        if report["modes"][mode]["singular_points"] != 0:
            problems.append(f"{mode} embedding reports singular points")
        zs, g = read_series(out / f"embedded_{mode}.jsonl")
        scale = 1.0 + np.abs(g).max()
        spectra[mode] = g.diagonal(axis1=1, axis2=2).imag.sum(axis=1)
        block = g[:, active][:, :, active]
        if np.abs(block - g_cas[:, :n_act, :n_act]).max() > 1e-9 * scale:
            problems.append(f"{mode}: active block differs from G_cas")
        bare = 1.0 / (zs[:, None] - eps[None, inactive])
        diag = g[:, inactive, inactive]
        if np.abs(diag - bare).max() > 1e-7 * np.abs(bare).max():
            problems.append(f"{mode}: inactive diagonal is not 1/(z - eps_p)")
        if sigma > 0:
            err = report["modes"][mode]["mean_abs_spectrum_error"]
            if not (math.isfinite(err) and err > 0):
                problems.append(f"{mode}: injected-noise error {err!r}")
    scale = 1.0 + np.abs(spectra["dyson"]).max()
    if np.abs(spectra["dyson"] - spectra["nondyson"]).max() > 1e-9 * scale:
        problems.append("Dyson and non-Dyson spectra differ beyond round-off")
    if report["max_spectrum_delta"] > 1e-9 * scale:
        problems.append("embed_report max_spectrum_delta beyond round-off")


def _write_config(path: Path, cfg: dict) -> str:
    path.write_text(json.dumps(cfg, indent=1))
    return str(path)


def _problem(config_path: str):
    from corrvec import cli

    return cli.Problem(cli.load_config(config_path))


class LihCasEmbed:
    """LiH 2.0 A CAS(2,2): ground-state, sweep, embed (both modes).

    The measurement seed is fixed: the amount of Rotosolve work depends
    chaotically on it (3-point grids took 26 to 85 sweeps over seeds 1 to
    11), so varying it would drown any code change in input noise.  The
    benchmark seed drives the embedding's injected-noise draws only.
    """

    name = "lih_cas_embed"
    epsilon = 0.05
    hot = ("circuits.run_pure", "vqe.rotosolve_sweep", "vqe.vqe_ground_state",
           "pauli.apply_sum", "circuits.OverlapEngine.estimate_sum",
           "solver.solve_correction_vector", "store.write_text_atomic",
           "greens.dyson_embed", "greens.nondyson_embed")
    sigma = 0.01
    config = {
        "hamiltonian": {"kind": "fcidump", "path": LIH_FCIDUMP},
        "active_space": [1, 2],
        "embedding": "both",
        "ansatz": {"depth": 3, "pattern": ["RY", "RZ"]},
        "grid": {"kind": "retarded", "omega_min": -0.8, "omega_max": 0.0,
                 "n": 3, "eta": 0.05},
        "optimizer": {"epsilon": epsilon, "max_sweeps": 4, "stall_sweeps": 4,
                      "extra_depth": 1, "gs_tol": 1e-6},
        "measurement": {"mode": "exact", "seed": 7},
    }

    def __init__(self, seed: int, run_dir: Path):
        self.seed = seed
        self.cfg = _write_config(run_dir / "lih_cas.json", self.config)
        self.setup_configs = [self.cfg]
        self._ref = None

    def commands(self, out: Path) -> list[dict]:
        common = ["--config", self.cfg, "--out", str(out)]
        return [
            {"name": "ground_state", "argv": ["ground-state"] + common},
            {"name": "sweep", "argv": ["sweep"] + common},
            {"name": "embed", "argv": ["embed"] + common + [
                "--seed", str(self.seed), "--inject-sigma", str(self.sigma),
                "--realizations", "8"]},
        ]

    def reference(self) -> SectorGreens:
        if self._ref is None:
            self._ref = SectorGreens(list(_problem(self.cfg).h_op), 4, 2)
        return self._ref

    def check(self, out: Path, commands: list[dict]) -> tuple[int, int, list[str], dict]:
        problems: list[str] = []
        ref = self.reference()
        eta = self.config["grid"]["eta"]
        gs = read_json(out / "ground_state.json")
        d_e0 = abs(gs["e0"] - ref.e0)
        if d_e0 > 1e-5:
            problems.append(f"E0 off the dense CAS energy by {d_e0:.2e}")
        ansatz = self.config["ansatz"]
        psi = hea_state(4, ansatz["depth"], ansatz["pattern"], gs["angles"])
        delta = math.sqrt(max(0.0, 2.0 - 2.0 * abs(np.vdot(ref.psi0, psi))))

        zs, g = read_series(out / "series.jsonl")
        check_grid(zs, self.config["grid"], problems)
        with open(out / "checkpoint.jsonl") as fh:
            records = {(r["branch"], r["orbital"], r["k"]): r
                       for r in map(json.loads, fh)}
        failed = 0
        for key, r in sorted(records.items()):
            if r["residual"] >= self.epsilon:
                problems.append(f"point {key}: residual {r['residual']:.3g} >= epsilon")
            elif not r["converged"]:
                # the re-solve fault: a point re-solved at epsilon/10 keeps
                # converged=False although its residual is below epsilon
                if r["attempts"] != 2:
                    problems.append(f"point {key}: unconverged on its first solve")
                failed += 1
        g_ref = ref.series(zs)
        n_orb = 2
        margin = math.inf
        for k in range(zs.size):
            bound = np.zeros((n_orb, n_orb))
            for i in range(n_orb):
                for j in range(n_orb):
                    p, h = records[("particle", j, k)], records[("hole", i, k)]
                    bound[i, j] = aposteriori_bound(
                        complex(p["gamma_re"], p["gamma_im"]), p["residual"],
                        complex(h["gamma_re"], h["gamma_im"]), h["residual"],
                        eta, delta, d_e0)
            err = np.abs(g[k] - g_ref[k])
            full = np.tile(bound, (2, 2))
            if np.any(err > full):
                problems.append(f"point {k}: |G - G_ref| exceeds the a-posteriori bound")
            margin = min(margin, float(np.min(full / np.maximum(err, 1e-300))))
        if len(records) != 2 * n_orb * zs.size:
            problems.append(f"{len(records)} point records, want {2 * n_orb * zs.size}")

        rcs = {c["name"]: c["rc"] for c in commands}
        want_sweep_rc = 4 if failed else 0
        for name, rc in rcs.items():
            want = want_sweep_rc if name == "sweep" else 0
            if rc != want:
                problems.append(f"{name} exited {rc}, expected {want}")
        check_embedding(out, g, [1, 2], problems, sigma=self.sigma)
        check_manifest(out, problems)
        attempted = len(commands) + len(records)
        failed_cmds = sum(1 for rc in rcs.values() if rc != 0)
        return attempted, failed + failed_cmds, problems, {
            "bound_margin": margin, "e0_error": d_e0, "gs_distance": delta}


class DimerNoiseScan:
    """Hubbard dimer (t=1, U=2, depth 2) noise scan with depolarizing noise,
    ZNE and sampled shots.  Sampled costs never meet gs_tol, so every row
    runs exactly gs_max_sweeps sweeps: the work is fixed while the benchmark
    seed drives the shot noise."""

    name = "dimer_noise_scan"
    p2 = (0.0, 0.008)
    shots = 1_000_000
    sweeps = 12
    hot = ("circuits.run_density", "circuits.sample_pauli_expectation",
           "pauli.string_action", "vqe.rotosolve_sweep", "vqe.vqe_ground_state")
    config = {
        "hamiltonian": {"kind": "hubbard-dimer", "t": 1.0, "u": 2.0},
        "ansatz": {"depth": 2, "pattern": ["RY", "RZ"]},
        "measurement": {"mode": "sampled", "shots": shots},
        "noise": {"boost": 2.0, "zne": True},
        "optimizer": {"gs_max_sweeps": sweeps},
    }

    def __init__(self, seed: int, run_dir: Path):
        self.seed = seed
        self.cfg = _write_config(run_dir / "dimer.json", self.config)
        self.setup_configs = [self.cfg]
        self._ref = None

    def commands(self, out: Path) -> list[dict]:
        return [{"name": "noise_scan", "argv": [
            "noise-scan", "--config", self.cfg, "--out", str(out),
            "--seed", str(self.seed), "--p2", ",".join(map(str, self.p2))]}]

    def reference(self) -> tuple[float, float]:
        """lambda_min(H) over the full register, and the worst-case shot
        noise of a sum of independently sampled strings."""
        if self._ref is None:
            h = _problem(self.cfg).h_op
            ident = "I" * h.width
            self._ref = (float(np.linalg.eigvalsh(pauli_dense(list(h), h.width))[0]),
                         math.sqrt(sum(abs(c) ** 2 for s, c in h if s != ident)
                                   / self.shots))
        return self._ref

    def check(self, out: Path, commands: list[dict]):
        problems: list[str] = []
        lam_min, sigma = self.reference()
        exact = hubbard_dimer_energy(1.0, 2.0)
        rows = read_json(out / "noise_scan.json")["rows"]
        if [r["p2"] for r in rows] != list(self.p2):
            problems.append("noise-scan rows do not match the p2 list")
        margins, p0_sigmas = [], 0.0
        for r in rows:
            if r["sweeps"] != self.sweeps or r["converged"]:
                problems.append(f"p2={r['p2']}: {r['sweeps']} sweeps, want {self.sweeps}")
            err = abs(r["e0"] - exact)
            if r["p2"] == 0:
                p0_sigmas = err / sigma
                if err > 5 * sigma:
                    problems.append(f"p2=0: E0 off the closed form by {err:.3g} > 5 sigma")
                continue
            raw_err = abs(r["e0_raw"] - exact)
            if r["e0_raw"] < lam_min - 5 * sigma:
                problems.append(f"p2={r['p2']}: raw energy below lambda_min(H)")
            if not err < raw_err:
                problems.append(f"p2={r['p2']}: ZNE error {err:.3g} >= raw {raw_err:.3g}")
            margins.append(raw_err / max(err, 1e-300))
        if commands[0]["rc"] != 0:
            problems.append(f"noise-scan exited {commands[0]['rc']}")
        check_manifest(out, problems)
        failed = sum(1 for c in commands if c["rc"] != 0)
        return len(commands) + len(rows), failed, problems, {
            "zne_margin": min(margins) if margins else 0.0, "p0_sigmas": p0_sigmas,
            "sigma": sigma}


class LihFullOracle:
    """Full-space LiH (12 qubits) oracle, then CAS(2,2) oracle and embed, on
    a fine grid whose window the benchmark seed shifts.  No circuit runs."""

    name = "lih_full_oracle"
    n_points = 48
    hot = ("oracle.exact_ground", "oracle.project_to_sector",
           "oracle.GreensOracle.matrix", "molham.MolecularIntegrals.to_qubits",
           "molham.build_cas", "pauli.sum_multiply", "greens.dyson_embed",
           "greens.nondyson_embed", "store.write_text_atomic")

    def __init__(self, seed: int, run_dir: Path):
        shift = round(float(np.random.default_rng(seed).uniform(0.0, 0.05)), 6)
        self.grid = {"kind": "retarded", "omega_min": -3.0 + shift,
                     "omega_max": 1.5 + shift, "n": self.n_points, "eta": 0.05}
        base = {"hamiltonian": {"kind": "fcidump", "path": LIH_FCIDUMP},
                "grid": self.grid}
        self.full_cfg = _write_config(run_dir / "lih_full.json", base)
        self.cas_cfg = _write_config(run_dir / "lih_cas_oracle.json", dict(
            base, active_space=[1, 2], embedding="both"))
        self.setup_configs = [self.full_cfg, self.cas_cfg]
        self._refs = None

    def commands(self, out: Path) -> list[dict]:
        full, cas = str(out / "full"), str(out / "cas")
        return [
            {"name": "oracle_full", "argv": ["oracle", "--config", self.full_cfg, "--out", full]},
            {"name": "oracle_cas", "argv": ["oracle", "--config", self.cas_cfg, "--out", cas]},
            {"name": "embed", "argv": ["embed", "--config", self.cas_cfg, "--out", cas]},
        ]

    def reference(self):
        if self._refs is None:
            self._refs = {
                "full": SectorGreens(list(_problem(self.full_cfg).h_op), 12, 4),
                "cas": SectorGreens(list(_problem(self.cas_cfg).h_op), 4, 2)}
        return self._refs

    def check(self, out: Path, commands: list[dict]):
        problems: list[str] = []
        refs = self.reference()
        energies, points, series = {}, 0, {}
        for part in ("full", "cas"):
            d = out / part
            energies[part] = read_json(d / "ground_state.json")["e0"]
            if abs(energies[part] - refs[part].e0) > 1e-8:
                problems.append(f"{part}: E0 differs from the dense reference")
            zs, g = read_series(d / "series.jsonl")
            check_grid(zs, self.grid, problems)
            points += zs.size
            scale = 1.0 + np.abs(g).max()
            if np.abs(g - refs[part].series(zs)).max() > 1e-8 * scale:
                problems.append(f"{part}: G differs from the dense Lehmann sum")
            if np.any(g.diagonal(axis1=1, axis2=2).imag >= 0):
                problems.append(f"{part}: Im G_ii >= 0 somewhere")
            if np.abs(g - g.transpose(0, 2, 1)).max() > 1e-10 * scale:
                problems.append(f"{part}: G is not symmetric")
            series[part] = g
            check_manifest(d, problems)
        scf = read_json(FIXTURES / "lih_2.0.json")["scf_energy"]
        if not energies["full"] < energies["cas"] <= scf:
            problems.append(f"energies out of order: full {energies['full']}, "
                            f"CAS {energies['cas']}, SCF {scf}")
        check_embedding(out / "cas", series["cas"], [1, 2], problems)
        for c in commands:
            if c["rc"] != 0:
                problems.append(f"{c['name']} exited {c['rc']}")
        failed = sum(1 for c in commands if c["rc"] != 0)
        return len(commands) + points, failed, problems, {}


WORKLOADS = {w.name: w for w in (LihCasEmbed, DimerNoiseScan, LihFullOracle)}
