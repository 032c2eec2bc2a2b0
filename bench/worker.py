"""One benchmark round, or one set-up sample, in a fresh interpreter.

    python3 bench/worker.py setup CONFIG [CONFIG ...]
        import corrvec and ingest each config's Hamiltonian; prints
        {"setup_s": ...}
    python3 bench/worker.py run PLAN RESULT [TRACE]
        run the plan's corrvec commands through corrvec.cli.main, timing
        each; with TRACE, wrap corrvec's public call boundaries first and
        save the spans there

Run from the repository root with ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
import traceback


def peak_rss_mb() -> float:
    """High-water resident set of this process image.

    Read from /proc rather than getrusage: after a spawn, ru_maxrss keeps
    the parent's resident size at the moment it forked.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def setup(config_paths: list[str]) -> None:
    t0 = time.perf_counter()
    from corrvec import cli

    for path in config_paths:
        cli.Problem(cli.load_config(path))
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def run(plan_path: str, result_path: str, trace_path: str | None) -> None:
    from corrvec import cli

    with open(plan_path) as fh:
        plan = json.load(fh)
    tracer = None
    if trace_path is not None:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    commands = []
    with open(plan["log"], "w") as log, contextlib.redirect_stdout(log), \
            contextlib.redirect_stderr(log):
        for cmd in plan["commands"]:
            entry = {"name": cmd["name"], "rc": None}
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    entry["rc"] = cli.main(cmd["argv"])
                else:
                    entry["rc"] = tracer.span(f"stage.{cmd['name']}",
                                              cli.main, cmd["argv"])
            except Exception:
                entry["error"] = traceback.format_exc()
            entry["s"] = time.perf_counter() - t0
            commands.append(entry)
            if "error" in entry:
                break
    result = {
        "commands": commands,
        "total_s": sum(c["s"] for c in commands),
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        tracer.save(trace_path)
        result["trace"] = tracer.summary()
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    if len(sys.argv) >= 3 and sys.argv[1] == "setup":
        setup(sys.argv[2:])
    elif len(sys.argv) in (4, 5) and sys.argv[1] == "run":
        run(sys.argv[2], sys.argv[3], sys.argv[4] if len(sys.argv) == 5 else None)
    else:
        sys.exit(__doc__)
