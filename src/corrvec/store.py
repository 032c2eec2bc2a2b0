"""Atomic result persistence: JSON-lines series, CSV export, manifests.

Every write lands via a temporary file in the target directory followed by
an atomic rename, so an interrupted run never leaves a half-written file.
The one exception is an append-only log, grown one fsynced line at a time
by ``append_lines``: a kill can cut short only its last line, which
``read_json_log`` drops.  All floating-point text is canonicalized to 12
significant digits, which makes byte-identical reruns a meaningful promise
and lets the manifest pin each file with a content digest.
``series_lines`` and ``spectrum_csv`` render a series as text; a command
writes that text, and each of its other outputs, through
``ManifestWriter.write``, which pins the file as it lands.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
import time
from pathlib import Path

import numpy as np

FLOAT_FMT = "%.12g"


def fmt_float(x: float) -> float:
    """Round-trip a float through the canonical 12-significant-digit text."""
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x!r} cannot be persisted")
    return float(FLOAT_FMT % x)


def _canonical_floats(values: list[float]) -> list[float]:
    """``fmt_float`` of each value, formatted in one pass."""
    if not all(map(math.isfinite, values)):
        fmt_float(next(x for x in values if not math.isfinite(x)))  # raises
    text = " ".join([FLOAT_FMT] * len(values)) % tuple(values)
    return [float(t) for t in text.split()]


def _canonical(obj):
    if isinstance(obj, float):
        return fmt_float(obj)
    if isinstance(obj, (np.floating,)):
        return fmt_float(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        if obj.ndim == 1 and obj.dtype.kind == "f":
            return _canonical_floats(obj.tolist())
        return [_canonical(v) for v in obj.tolist()]
    if isinstance(obj, complex):
        return {"re": fmt_float(obj.real), "im": fmt_float(obj.imag)}
    if isinstance(obj, dict):
        return {k: _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    return obj


def dumps_canonical(obj) -> str:
    """JSON text with sorted keys and 12-significant-digit floats."""
    return json.dumps(_canonical(obj), sort_keys=True, separators=(",", ":"))


def write_text_atomic(path: str | Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def append_lines(path: str | Path, text: str) -> None:
    """Append whole lines to ``path``; they are durable on return."""
    with open(path, "a") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())


def read_json_log(path: str | Path) -> list[tuple[int, object]]:
    """(line number, JSON value) of each non-blank line of an append log.
    A last line without newline that is not JSON was torn by a kill and is
    dropped; any other such line raises ValueError naming path and line."""
    with open(path) as fh:
        lines = fh.read().split("\n")
    out = []
    for lineno, line in enumerate(lines, 1):
        try:
            if line.strip():
                out.append((lineno, json.loads(line)))
        except ValueError as exc:
            if lineno < len(lines):
                raise ValueError(f"{path}, line {lineno}: not JSON ({exc})") from None
    return out


def sha256_of_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def series_lines(zs: np.ndarray, g: np.ndarray,
                 extras: list[dict] | None = None) -> str:
    """One JSON line per frequency: z, flattened G (re/im), trace spectrum.

    ``extras`` supplies per-point diagnostic fields (residuals, gamma,
    depth, ...) merged into each record.  A sweep adds ``bound``, flattened
    like ``g_re``: each element's error bound from its solves' residuals,
    which excludes the error of the prepared ground state.
    """
    from .greens import trace_spectrum

    lines = []
    for k, z in enumerate(zs):
        rec = {
            "z_re": float(np.real(z)),
            "z_im": float(np.imag(z)),
            "g_re": g[k].real.ravel(),
            "g_im": g[k].imag.ravel(),
            "trace_spectrum": trace_spectrum(g[k]),
        }
        if extras is not None:
            rec.update(extras[k])
        lines.append(dumps_canonical(rec))
    return "\n".join(lines) + "\n"


def read_series(path: str | Path) -> tuple[np.ndarray, np.ndarray, list[dict]]:
    """Load a JSON-lines series back into (zs, G, extras).

    A line that is not a series record, whose G is empty, not square or
    of another size than the first, whose ``bound`` has not one entry per
    element of G, or whose z, G or bound holds a number that is not finite,
    and a file without points, raise ValueError naming the path (and the
    line).
    """
    zs, mats, extras = [], [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                z = rec["z_re"] + 1j * rec["z_im"]
                re = np.asarray(rec["g_re"], dtype=float)
                im = np.asarray(rec["g_im"], dtype=float)
                bound = np.asarray(rec.get("bound", re), dtype=float)
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(f"{path}, line {lineno}: not a series "
                                 f"record ({exc!r})") from None
            n = int(round(math.sqrt(re.size)))
            if n < 1 or n * n != re.size or im.shape != re.shape or (
                    mats and mats[0].shape != (n, n)):
                raise ValueError(f"{path}, line {lineno}: G is not a "
                                 f"non-empty square matrix of one size")
            if bound.shape != re.shape:
                raise ValueError(f"{path}, line {lineno}: bound has not one "
                                 f"entry per element of G")
            if not np.isfinite(np.concatenate(([z.real, z.imag], re, im,
                                               bound))).all():
                raise ValueError(f"{path}, line {lineno}: z, G or bound "
                                 f"holds a number that is not finite")
            zs.append(z)
            mats.append((re + 1j * im).reshape(n, n))
            extras.append({k: v for k, v in rec.items()
                           if k not in ("z_re", "z_im", "g_re", "g_im")})
    if not zs:
        raise ValueError(f"{path}: the series holds no points")
    return np.asarray(zs), np.asarray(mats), extras


def spectrum_csv(zs: np.ndarray, g: np.ndarray) -> str:
    """Plot-ready table: raw Im-trace plus the -(1/pi)-scaled column."""
    from .greens import trace_spectrum

    rows = ["z_re,z_im,trace_spectrum,spectral_function"]
    for k, z in enumerate(zs):
        tr = trace_spectrum(g[k])
        rows.append(",".join(FLOAT_FMT % v for v in
                             (np.real(z), np.imag(z), tr, -tr / math.pi)))
    return "\n".join(rows) + "\n"


class ManifestWriter:
    """Run manifest: config snapshot, stage log, file digests, timing.

    It creates its directory.  ``write`` writes a file of the run and pins
    its digest at once; ``register`` pins a file the run reuses as it is.
    """

    def __init__(self, out_dir: str | Path, config_snapshot: dict):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.data = {
            "config": config_snapshot,
            "stages": [],
            "files": {},
            "versions": {"numpy": np.__version__},
            "wall_clock_s": 0.0,
        }
        self._t0 = time.perf_counter()

    def stage(self, name: str, status: str, **info) -> None:
        entry = {"name": name, "status": status}
        entry.update(info)
        self.data["stages"].append(entry)

    def write(self, name: str, text: str) -> None:
        path = self.out_dir / name
        write_text_atomic(path, text)
        self.register(path)

    def register(self, path: str | Path) -> None:
        path = Path(path)
        rel = os.path.relpath(path, self.out_dir)
        self.data["files"][rel] = sha256_of_file(path)

    def finish(self) -> Path:
        self.data["wall_clock_s"] = round(time.perf_counter() - self._t0, 3)
        target = self.out_dir / "manifest.json"
        text = json.dumps(_canonical(self.data), sort_keys=True, indent=2)
        write_text_atomic(target, text + "\n")
        return target
