"""corrvec benchmark: end-to-end and per-layer metrics of three workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every round runs the workload's corrvec
commands through corrvec.cli.main in a fresh interpreter with one BLAS
thread, then checks the outputs against dense references.  With --trace 0
the run repeats whole rounds until the next one would end after S seconds
(at least one) and reports end-to-end metrics; set-up is sampled in
separate fresh interpreters, one before every round and the rest after the
last, so that its median spans the whole run.  With --trace 1 it runs one untraced and one
traced round and reports the per-layer metrics of the traced one.  The last
line of stdout is the JSON result; ``--workload all`` runs every workload.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from spans import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 8
# a workload's run must end within 180 s; every worker call gets what is
# left of this limit, counted from the start of the run
RUN_LIMIT = 170.0
_deadline = math.inf


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["CORRVEC_WORKERS"] = "1"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(args: list[str]) -> str:
    timeout = _deadline - time.perf_counter()
    if timeout <= 0:
        raise RuntimeError(f"no time left for worker {args[0]} within {RUN_LIMIT:.0f} s")
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py")] + args,
                          cwd=ROOT, env=_env(), capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} failed:\n{proc.stderr}")
    return proc.stdout


def setup_seconds(workload) -> float:
    return json.loads(_worker(["setup"] + workload.setup_configs))["setup_s"]


def run_round(workload, run_dir: Path, index: int, traced: bool) -> dict:
    out = run_dir / f"round{index}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    plan = {"commands": workload.commands(out), "log": str(out / "commands.log")}
    (out / "plan.json").write_text(json.dumps(plan))
    args = ["run", str(out / "plan.json"), str(out / "result.json")]
    if traced:
        args.append(str(run_dir / "trace.npz"))
    _worker(args)
    result = json.loads((out / "result.json").read_text())
    for c in result["commands"]:
        if "error" in c:
            raise RuntimeError(f"{c['name']} raised:\n{c['error']}")
    attempted, failed, problems, info = workload.check(out, result["commands"])
    result.update(attempted=attempted, failed=failed, problems=problems, info=info)
    if not traced:
        shutil.rmtree(out)
    return result


def _per_layer(summary: dict, traced_s: float, untraced_s: float) -> dict:
    calls, incl, counts = summary["calls"], summary["incl_s"], summary["counts"]
    self_s = summary["self_s"]

    def ratio(a, b):
        return a / b if b else 0.0

    m: dict[str, tuple[float, str]] = {}
    for span in ("circuits.run_pure", "circuits.run_density",
                 "circuits.sample_pauli_expectation", "circuits.OverlapEngine.estimate_sum",
                 "pauli.string_action", "pauli.apply_sum", "vqe.rotosolve_sweep",
                 "solver.solve_correction_vector", "oracle.GreensOracle.matrix",
                 "store.write_text_atomic"):
        m[f"{span}.calls"] = (calls.get(span, 0), "count")
        m[f"{span}.s"] = (incl.get(span, 0.0), "s")
    for span in ("vqe.vqe_ground_state", "oracle.exact_ground", "oracle.project_to_sector",
                 "molham.build_cas", "pauli.sum_multiply", "greens.dyson_embed",
                 "greens.nondyson_embed"):
        m[f"{span}.s"] = (incl.get(span, 0.0), "s")
    m["molham.to_qubits.s"] = (incl.get("molham.MolecularIntegrals.to_qubits", 0.0), "s")
    for key in ("circuits.gate_applications", "circuits.strings_estimated",
                "circuits.shots", "vqe.cost_evals", "solver.points", "solver.sweeps",
                "solver.depth_growths", "solver.resolves"):
        m[key] = (counts.get(key, 0), "count")
    m["store.write_text_atomic.bytes"] = (counts.get("store.write_text_atomic.bytes", 0), "bytes")
    m["circuits.pure_us_per_gate"] = (1e6 * ratio(incl.get("circuits.run_pure", 0.0),
                                                  counts.get("circuits.pure_gates", 0)), "us")
    m["circuits.density_us_per_gate"] = (1e6 * ratio(incl.get("circuits.run_density", 0.0),
                                                     counts.get("circuits.density_gates", 0)), "us")
    sims = calls.get("circuits.run_pure", 0) + calls.get("circuits.run_density", 0)
    m["vqe.sims_per_cost_eval"] = (ratio(sims, counts.get("vqe.cost_evals", 0)), "ratio")
    m["solver.useful_ratio"] = (ratio(counts.get("solver.points", 0),
                                      calls.get("solver.solve_correction_vector", 0)), "ratio")
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = (sum(
            v for k, v in self_s.items() if k.startswith(layer + ".")), "s")
    # stage spans are the worker's own, one per corrvec command
    m["layer.cli.self_s"] = (sum(
        v for k, v in self_s.items() if k.startswith("stage.")), "s")
    m["trace.spans"] = (summary["spans"], "count")
    m["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return m


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    global _deadline
    _deadline = time.perf_counter() + RUN_LIMIT
    run_dir = BENCH / "out" / f"{name}-seed{seed}{'-trace' if trace else ''}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    workload = WORKLOADS[name](seed, run_dir)
    rounds = []
    if trace:
        rounds.append(run_round(workload, run_dir, 0, traced=False))
        rounds.append(run_round(workload, run_dir, 1, traced=True))
    else:
        workload.reference()
        setup = []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            setup.append(setup_seconds(workload))
            rounds.append(run_round(workload, run_dir, len(rounds), traced=False))
            now = time.perf_counter()
            if now - start + (now - t0) > seconds:
                break
        while len(setup) < SETUP_SAMPLES:
            setup.append(setup_seconds(workload))
        setup_s = statistics.median(setup)
    problems = [p for r in rounds for p in r["problems"]]
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    for r in rounds:
        stages = ", ".join(f"{c['name']} {c['s']:.2f}s rc={c['rc']}" for c in r["commands"])
        info = ", ".join(f"{k}={v:.3g}" for k, v in r["info"].items())
        print(f"# {name} round: {stages}; total {r['total_s']:.2f}s; "
              f"ops {r['attempted']} failed {r['failed']}" + (f"; {info}" if info else ""))
    for p in problems:
        print(f"# CHECK FAILED: {p}")
    if trace:
        summary = rounds[1]["trace"]
        metrics = _per_layer(summary, rounds[1]["total_s"], rounds[0]["total_s"])
        cold = [h for h in workload.hot if summary["calls"].get(h, 0) == 0]
        if cold:
            raise RuntimeError(f"hot layers recorded no calls on {name}: {cold}")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "total_s": (statistics.median(r["total_s"] for r in rounds), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
        }
    for key, (value, unit) in metrics.items():
        print(f"# {name} {key} = {value:.6g} {unit}")
    if not trace:
        print(f"# {name}: {len(setup)} set-up samples")
    print(f"# {name}: {len(rounds)} round(s), {attempted} operations, {failed} failed")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
