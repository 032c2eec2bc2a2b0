"""End-to-end command-line runs: outputs, determinism, failure modes."""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from corrvec.cli import main
from corrvec.store import read_series, sha256_of_file, verify_manifest

FIXTURES = Path(__file__).parent / "fixtures"


def write_config(path: Path, **overrides) -> Path:
    data = {"hamiltonian": {"kind": "hubbard-dimer", "t": 1.0, "u": 2.0}}
    data.update(overrides)
    path.write_text(json.dumps(data))
    return path


def run(*argv) -> int:
    return main(list(argv))


@pytest.fixture(scope="module")
def dimer_sweep(tmp_path_factory):
    """One full small frequency sweep, shared by the determinism tests."""
    base = tmp_path_factory.mktemp("dimer_sweep")
    out = base / "run_a"
    cfg = write_config(
        base / "cfg.json",
        grid={"kind": "retarded", "omega_min": -1.0, "omega_max": 1.0, "n": 3},
        out_dir=str(out))
    assert run("sweep", "--config", str(cfg)) == 0
    return {"config": cfg, "out": out, "base": base}


def test_ground_state_run_and_reproducibility(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", out_dir=str(tmp_path / "out1"))
    assert run("ground-state", "--config", str(cfg)) == 0
    line = capsys.readouterr().out
    assert "E0 = -1.2360679" in line

    payload = json.loads((tmp_path / "out1" / "ground_state.json").read_text())
    assert payload["converged"]
    assert payload["e0"] == pytest.approx(-1.2360679774997898, abs=1e-6)
    assert verify_manifest(tmp_path / "out1") == []

    assert run("ground-state", "--config", str(cfg),
               "--out", str(tmp_path / "out2")) == 0
    for name in ("ground_state.json", "trace.log"):
        assert sha256_of_file(tmp_path / "out1" / name) == \
            sha256_of_file(tmp_path / "out2" / name)


def test_sweep_outputs(dimer_sweep):
    out = dimer_sweep["out"]
    for name in ("series.jsonl", "spectrum.csv", "checkpoint.jsonl",
                 "ground_state.json", "trace.log", "manifest.json"):
        assert (out / name).exists()
    assert verify_manifest(out) == []
    zs, g, extras = read_series(out / "series.jsonl")
    assert zs.shape == (3,)
    assert g.shape == (3, 4, 4)
    assert np.allclose(zs.imag, 0.05)
    assert all(all(e["converged"]) for e in extras)
    assert np.allclose(g[:, :2, :2], g[:, 2:, 2:])
    csv_lines = (out / "spectrum.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "z_re,z_im,trace_spectrum,spectral_function"
    assert len(csv_lines) == 4


def test_resume_matches_uninterrupted(dimer_sweep, tmp_path):
    src = dimer_sweep["out"]
    out = tmp_path / "resumed"
    out.mkdir()
    # the ground-state stage finished; the point sweep died partway through
    for name in ("ground_state.json", "trace.log"):
        shutil.copy(src / name, out / name)
    ckpt_lines = (src / "checkpoint.jsonl").read_text().splitlines()
    keep = len(ckpt_lines) * 3 // 5
    (out / "checkpoint.jsonl").write_text("\n".join(ckpt_lines[:keep]) + "\n")

    cfg = write_config(
        tmp_path / "cfg.json",
        grid={"kind": "retarded", "omega_min": -1.0, "omega_max": 1.0, "n": 3},
        out_dir=str(out))
    assert run("sweep", "--config", str(cfg)) == 0
    for name in ("series.jsonl", "spectrum.csv", "checkpoint.jsonl"):
        assert sha256_of_file(out / name) == sha256_of_file(src / name)


def test_worker_count_does_not_change_bytes(dimer_sweep, tmp_path,
                                            monkeypatch):
    monkeypatch.setenv("CORRVEC_WORKERS", "2")
    out = tmp_path / "parallel"
    cfg = write_config(
        tmp_path / "cfg.json",
        grid={"kind": "retarded", "omega_min": -1.0, "omega_max": 1.0, "n": 3},
        out_dir=str(out))
    assert run("sweep", "--config", str(cfg)) == 0
    src = dimer_sweep["out"]
    for name in ("series.jsonl", "spectrum.csv", "checkpoint.jsonl"):
        assert sha256_of_file(out / name) == sha256_of_file(src / name)


def test_invalid_worker_env(tmp_path, monkeypatch):
    monkeypatch.setenv("CORRVEC_WORKERS", "many")
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path / "cfg.json",
        grid={"kind": "retarded", "omega_min": -1.0, "omega_max": 1.0, "n": 2},
        out_dir=str(out))
    assert run("sweep", "--config", str(cfg)) == 2


def test_sweep_refuses_checkpoint_from_another_grid(tmp_path, capsys):
    out = tmp_path / "out"
    first = write_config(
        tmp_path / "first.json",
        grid={"kind": "retarded", "omega_min": -1.0, "omega_max": 1.0, "n": 2},
        out_dir=str(out))
    assert run("sweep", "--config", str(first)) == 0
    series = (out / "series.jsonl").read_bytes()
    capsys.readouterr()

    moved = write_config(
        tmp_path / "moved.json",
        grid={"kind": "retarded", "omega_min": 2.0, "omega_max": 3.0, "n": 2},
        out_dir=str(out))
    assert run("sweep", "--config", str(moved)) == 2
    assert str(out) in capsys.readouterr().err
    assert (out / "series.jsonl").read_bytes() == series

    # the same grid resumes from the checkpoint
    assert run("sweep", "--config", str(first)) == 0
    assert (out / "series.jsonl").read_bytes() == series


def test_missing_fcidump_exits_3_without_outputs(tmp_path):
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "hamiltonian": {"kind": "fcidump", "path": str(tmp_path / "no.fcidump")},
        "out_dir": str(out)}))
    assert run("ground-state", "--config", str(cfg)) == 3
    assert not out.exists()


def test_config_errors_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"hamiltonian": {"kind": "hubbard-dimer",
                                               "t": 1.0, "u": 2.0},
                               "surprise": 1}))
    assert run("ground-state", "--config", str(bad)) == 2

    no_grid = write_config(tmp_path / "no_grid.json",
                           out_dir=str(tmp_path / "out"))
    assert run("sweep", "--config", str(no_grid)) == 2
    assert run("oracle", "--config", str(no_grid)) == 2

    assert run("noise-scan", "--config", str(no_grid), "--p2", "") == 2
    assert run("noise-scan", "--config", str(no_grid), "--p2", "0.1,zzz") == 2
    assert run("noise-scan", "--config", str(no_grid), "--p2", "2.0") == 2
    # in range for the parser, outside what the noise channel can take
    assert run("noise-scan", "--config", str(no_grid), "--p2", "1.0") == 2
    for noise in ({"enabled": True, "p2": 0.95},
                  {"enabled": True, "p2": 0.5, "boost": 2.0, "zne": True},
                  {"enabled": True, "boost": 1.0, "zne": False}):
        noisy = write_config(tmp_path / "noisy.json", noise=noise,
                             out_dir=str(tmp_path / "noisy"))
        assert run("ground-state", "--config", str(noisy)) == 2
        assert run("noise-scan", "--config", str(noisy), "--p2", "0.5") == 2
    assert not (tmp_path / "noisy").exists()

    missing = tmp_path / "missing.json"
    assert run("ground-state", "--config", str(missing)) == 2


def test_oracle_command(tmp_path, capsys):
    out = tmp_path / "oracle"
    cfg = write_config(
        tmp_path / "cfg.json",
        hamiltonian={"kind": "hubbard-dimer", "t": 1.0, "u": 4.0},
        grid={"kind": "retarded", "omega_min": -2.0, "omega_max": 2.0, "n": 5},
        out_dir=str(out))
    assert run("oracle", "--config", str(cfg)) == 0
    assert "E0 = -0.8284271247" in capsys.readouterr().out
    zs, g, _ = read_series(out / "series.jsonl")
    assert zs.shape == (5,) and g.shape == (5, 4, 4)
    assert verify_manifest(out) == []
    payload = json.loads((out / "ground_state.json").read_text())
    assert payload["sector"] == 2

    assert run("oracle", "--config", str(cfg), "--out", str(tmp_path / "o1"),
               "--sector", "1") == 0
    payload = json.loads((tmp_path / "o1" / "ground_state.json").read_text())
    assert payload["e0"] == pytest.approx(-1.0, abs=1e-10)


def test_compare_command(dimer_sweep, tmp_path, capsys):
    series = dimer_sweep["out"] / "series.jsonl"
    assert run("compare", str(series), str(series)) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["elements"]["max_abs"] == 0.0
    assert report["trace_spectrum"]["max_abs"] == 0.0

    # tampering with a manifested input is refused
    loose = tmp_path / "loose.jsonl"
    shutil.copy(series, loose)
    assert run("compare", str(series), str(loose)) == 5
    assert run("compare", str(series), str(loose), "--force") == 0
    capsys.readouterr()

    zs, g, _ = read_series(series)
    from corrvec.store import write_series
    shifted = tmp_path / "shifted.jsonl"
    write_series(shifted, zs, g + 1.0)
    assert run("compare", str(series), str(shifted), "--force",
               "--tol", "0.5") == 5
    assert run("compare", str(series), str(shifted), "--force",
               "--tol", "3.0") == 0
    capsys.readouterr()

    other_grid = tmp_path / "grid.jsonl"
    write_series(other_grid, zs + 0.01, g)
    assert run("compare", str(series), str(other_grid), "--force") == 5
    assert run("compare", str(series), str(tmp_path / "none.jsonl")) == 3


def test_noise_scan_command(tmp_path, capsys):
    out = tmp_path / "scan"
    cfg = write_config(tmp_path / "cfg.json",
                       ansatz={"depth": 2},
                       out_dir=str(out))
    assert run("noise-scan", "--config", str(cfg), "--p2", "0,0.002") == 0
    rows = json.loads((out / "noise_scan.json").read_text())["rows"]
    assert [r["p2"] for r in rows] == [0, 0.002]
    exact = rows[0]["e0"]
    assert exact == pytest.approx(-1.2360679774997898, abs=1e-6)
    noisy = rows[1]
    assert "e0_raw" in noisy
    # extrapolation brings the estimate closer than the raw noisy value
    assert abs(noisy["e0"] - exact) < abs(noisy["e0_raw"] - exact)
    assert noisy["e0_raw"] > exact


def test_embed_command(tmp_path, capsys):
    out = tmp_path / "embed"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "hamiltonian": {"kind": "fcidump",
                        "path": str(FIXTURES / "lih_2.0.fcidump")},
        "active_space": [1, 2],
        "embedding": "both",
        "grid": {"kind": "retarded", "omega_min": -0.8, "omega_max": 0.5,
                 "n": 6, "eta": 0.05},
        "out_dir": str(out)}))
    # exact active-space series first, then the embedding pass on top of it
    assert run("oracle", "--config", str(cfg_path)) == 0
    capsys.readouterr()
    assert run("embed", "--config", str(cfg_path)) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report["modes"]) == {"dyson", "nondyson"}
    assert report["max_spectrum_delta"] < 1e-8
    for mode in ("dyson", "nondyson"):
        zs, g, _ = read_series(out / f"embedded_{mode}.jsonl")
        assert g.shape == (6, 6, 6)
        assert (out / f"embedded_{mode}.csv").exists()

    assert run("embed", "--config", str(cfg_path),
               "--inject-sigma", "0.01", "--realizations", "3") == 0
    report = json.loads(capsys.readouterr().out)
    for mode in ("dyson", "nondyson"):
        assert report["modes"][mode]["mean_abs_spectrum_error"] > 0


def test_embed_failure_modes(tmp_path):
    cfg = write_config(tmp_path / "dimer.json", out_dir=str(tmp_path / "o"))
    assert run("embed", "--config", str(cfg)) == 2

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "hamiltonian": {"kind": "fcidump",
                        "path": str(FIXTURES / "lih_2.0.fcidump")},
        "active_space": [1, 2],
        "embedding": "dyson",
        "out_dir": str(tmp_path / "empty")}))
    assert run("embed", "--config", str(cfg_path)) == 3
