"""Atomic persistence: canonical text, series files, the append log,
manifests."""

import json
import math
import os
import re

import numpy as np
import pytest

from corrvec.store import (
    ManifestWriter,
    append_lines,
    dumps_canonical,
    fmt_float,
    read_json_log,
    read_series,
    series_lines,
    sha256_of_file,
    spectrum_csv,
    write_text_atomic,
)
from manifest_check import verify_manifest


def test_fmt_float_canonicalizes():
    assert fmt_float(0.1 + 0.2) == 0.3
    assert fmt_float(1.0) == 1.0
    assert fmt_float(-2.5e-13) == -2.5e-13
    with pytest.raises(ValueError):
        fmt_float(float("nan"))
    with pytest.raises(ValueError):
        fmt_float(float("inf"))


def test_dumps_canonical_is_deterministic():
    obj = {"b": 0.30000000000000004, "a": np.float64(1.5),
           "c": complex(1.25, -0.5), "d": np.arange(3),
           "e": [np.int64(7), (1, 2)]}
    text = dumps_canonical(obj)
    assert text == dumps_canonical(dict(reversed(list(obj.items()))))
    back = json.loads(text)
    assert back["b"] == 0.3
    assert back["c"] == {"im": -0.5, "re": 1.25}
    assert back["d"] == [0, 1, 2]
    assert back["e"] == [7, [1, 2]]
    assert list(back) == sorted(back)


def test_float_arrays_canonicalize_as_each_element():
    """A 1-D float array, formatted in one pass, gives the text of
    ``fmt_float`` per element; a non-finite entry still raises."""
    values = np.array([3.0, -17.0, 0.0, -0.0, 1e-5, 1.2345678901234e-5,
                       1e13, 1e17, 123456789012345.0, 0.1 + 0.2, 1.0 / 3.0,
                       5e-324, -2.5e-310, 2.2250738585072014e-308])
    for arr in (values, values.astype(np.float32), values[:0]):
        expected = json.dumps([fmt_float(v) for v in arr.tolist()],
                              separators=(",", ":"))
        assert dumps_canonical(arr) == expected
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            dumps_canonical(np.array([1.0, bad, 2.0]))


def test_write_text_atomic_replaces_and_leaves_no_temp(tmp_path):
    target = tmp_path / "deep" / "out.txt"
    write_text_atomic(target, "first\n")
    write_text_atomic(target, "second\n")
    assert target.read_text() == "second\n"
    leftovers = [p for p in target.parent.iterdir() if p.name != "out.txt"]
    assert leftovers == []


def test_failed_atomic_write_keeps_the_old_file(tmp_path, monkeypatch):
    """A write that fails before its rename leaves the target's old bytes
    and no temporary file, and the error reaches the caller."""
    target = tmp_path / "out.txt"
    write_text_atomic(target, "first\n")

    def failing(fd):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "fsync", failing)
    with pytest.raises(OSError, match="No space left"):
        write_text_atomic(target, "second\n")
    assert target.read_bytes() == b"first\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_sha256_of_file(tmp_path):
    p = tmp_path / "x.bin"
    p.write_bytes(b"abc")
    assert sha256_of_file(p) == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")


def test_series_roundtrip(tmp_path, rng):
    zs = np.array([0.1 + 0.05j, 0.2 + 0.05j])
    g = rng.normal(size=(2, 3, 3)) + 1j * rng.normal(size=(2, 3, 3))
    extras = [{"residual": 1e-4, "depth": 3}, {"residual": 2e-4, "depth": 4}]
    path = tmp_path / "series.jsonl"
    write_text_atomic(path, series_lines(zs, g, extras))
    zs2, g2, extras2 = read_series(path)
    assert np.array_equal(zs2, zs)
    assert np.max(np.abs(g2 - g)) < 1e-11
    assert extras2[0]["depth"] == 3 and extras2[1]["residual"] == 2e-4
    assert "trace_spectrum" in extras2[0]
    tr = np.trace(g2[0]).imag
    assert extras2[0]["trace_spectrum"] == pytest.approx(tr, abs=1e-10)

    write_text_atomic(path, series_lines(zs, g, extras))
    rewritten = sha256_of_file(path)
    write_text_atomic(path, series_lines(zs, g, extras))
    assert sha256_of_file(path) == rewritten


def test_read_series_rejects_non_square(tmp_path):
    path = tmp_path / "bad.jsonl"
    rec = {"z_re": 0.0, "z_im": 0.1, "g_re": [1.0, 2.0], "g_im": [0.0, 0.0]}
    path.write_text(json.dumps(rec) + "\n")
    with pytest.raises(ValueError):
        read_series(path)


def test_read_series_names_path_and_line_of_a_malformed_record(tmp_path):
    good = {"z_re": 0.0, "z_im": 0.1, "g_re": [1.0], "g_im": [0.0]}
    path = tmp_path / "bad.jsonl"
    for second in ("{not json", "[1, 2]",
                   json.dumps({k: v for k, v in good.items() if k != "z_im"}),
                   json.dumps(dict(good, g_re="x")),
                   json.dumps(dict(good, g_im=[0.0, 0.0])),
                   json.dumps(dict(good, g_re=[1.0] * 4, g_im=[0.0] * 4)),
                   json.dumps(dict(good, g_re=[], g_im=[])),
                   # json reads NaN and Infinity, which no run writes
                   json.dumps(dict(good, z_re=float("nan"))),
                   json.dumps(dict(good, g_im=[float("-inf")])),
                   json.dumps(dict(good, bound=[float("nan")]))):
        path.write_text(json.dumps(good) + "\n\n" + second + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 3")):
            read_series(path)
    path.write_text("\n")
    with pytest.raises(ValueError, match="no points"):
        read_series(path)


def test_spectrum_csv_columns(tmp_path):
    zs = np.array([0.5 + 0.02j])
    g = np.array([[[0.0 - 0.8j, 0.0], [0.0, 0.0 - 0.4j]]])
    text = spectrum_csv(zs, g)
    lines = text.strip().splitlines()
    assert lines[0] == "z_re,z_im,trace_spectrum,spectral_function"
    fields = lines[1].split(",")
    assert float(fields[0]) == 0.5 and float(fields[1]) == 0.02
    assert float(fields[2]) == pytest.approx(-1.2)
    assert float(fields[3]) == pytest.approx(1.2 / math.pi, rel=1e-10)
    out = tmp_path / "spec.csv"
    write_text_atomic(out, text)
    assert out.read_text() == text


def test_append_log_drops_only_a_torn_last_line(tmp_path):
    path = tmp_path / "log.jsonl"
    for rec in ({"k": 0}, {"k": 1}, {"k": 0, "x": 2.5}):
        append_lines(path, dumps_canonical(rec) + "\n")
    assert path.read_text() == '{"k":0}\n{"k":1}\n{"k":0,"x":2.5}\n'
    want = [(1, {"k": 0}), (2, {"k": 1}), (3, {"k": 0, "x": 2.5})]
    assert read_json_log(path) == want

    # a kill partway through an append leaves a last line without newline
    with open(path, "a") as fh:
        fh.write('{"k":2,"x"')
    assert read_json_log(path) == want
    # a complete last line whose newline was lost still counts
    path.write_text('{"k":0}\n{"k":1}')
    assert read_json_log(path) == want[:2]
    # a line that is not JSON anywhere else is refused, with its line
    for text in ('{"k":0}\n{"k":\n{"k":1}\n', '{"k":0}\n{"k":\n'):
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 2")):
            read_json_log(path)


def test_manifest_writer_and_verify(tmp_path):
    out = tmp_path / "run"
    m = ManifestWriter(out, {"seed": 7})
    assert out.is_dir()
    a = out / "a.txt"
    b = out / "sub" / "b.txt"
    # a file the run writes is pinned as it lands, one it reuses as it is
    m.write("a.txt", "alpha\n")
    assert a.read_text() == "alpha\n"
    write_text_atomic(b, "beta\n")
    m.stage("solve", "ok", points=3)
    m.register(b)
    target = m.finish()
    assert target == out / "manifest.json"

    data = json.loads(target.read_text())
    assert data["config"] == {"seed": 7}
    assert data["stages"] == [{"name": "solve", "status": "ok", "points": 3}]
    assert set(data["files"]) == {"a.txt", "sub/b.txt"}
    assert verify_manifest(out) == []

    a.write_text("tampered\n")
    assert verify_manifest(out) == ["a.txt"]
    b.unlink()
    assert sorted(verify_manifest(out)) == ["a.txt", "sub/b.txt"]
