"""End-to-end command-line runs: outputs, determinism, failure modes."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from corrvec import solver
from corrvec.cli import main
from corrvec.store import (read_series, series_lines, sha256_of_file,
                           write_text_atomic)
from manifest_check import verify_manifest

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parent.parent / "src"


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
    # every line bounds each element's error, flattened like G
    bound = np.array([e["bound"] for e in extras])
    assert bound.shape == (3, 16)
    assert np.all(bound >= 0) and np.all(bound[:, [0, 1, 4, 5]] > 0)
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
    # a missing file, then a path that names a directory
    for path in (tmp_path / "no.fcidump", tmp_path):
        cfg.write_text(json.dumps({
            "hamiltonian": {"kind": "fcidump", "path": str(path)},
            "out_dir": str(out)}))
        assert run("ground-state", "--config", str(cfg)) == 3, path
        assert not out.exists()


def test_unusable_active_space_exits_3_without_outputs(tmp_path):
    """An active space the fcidump cannot take: an odd electron count, and
    an orbital beyond NORB."""
    out = tmp_path / "out"
    h2 = FIXTURES / "h2_2.0.fcidump"
    odd = tmp_path / "odd.fcidump"
    odd.write_text(h2.read_text().replace("NELEC=2", "NELEC=1", 1))
    for path, active in ((odd, [0, 1]), (h2, [0, 2])):
        cfg = write_config(tmp_path / "cfg.json", out_dir=str(out),
                           hamiltonian={"kind": "fcidump", "path": str(path)},
                           active_space=active)
        assert run("ground-state", "--config", str(cfg)) == 3, active
        assert not out.exists()


def test_sweep_refuses_corrupt_resume_files(dimer_sweep, tmp_path, capsys):
    """Resuming a sweep whose checkpoint or ground state is corrupt exits 3
    with the file and the line (or the point) named, and writes no
    series."""
    src = dimer_sweep["out"]
    lines = (src / "checkpoint.jsonl").read_text().splitlines()
    keyless, textual, pointless, nan_element, *mistyped = (
        json.loads(lines[1]) for _ in range(7))
    del keyless["orbital"]
    textual["k"] = str(textual["k"])
    del pointless["z_re"]
    nan_element["elements_re"][0] = float("nan")
    # a traceback once, then two values accepted as they were
    for rec, value in zip(mistyped, ({"converged": "yes"}, {"converged": 1},
                                     {"sweeps": "x"})):
        rec.update(value)
    point = f"point ({pointless['branch']}, {pointless['orbital']}, k={pointless['k']})"
    # Python's json reads NaN and Infinity, which no run writes
    ground = json.loads((src / "ground_state.json").read_text())
    nan_e0 = dict(ground, e0=float("nan"))
    inf_angle = dict(ground, angles=[float("inf")] + ground["angles"][1:])
    cases = [
        ("checkpoint.jsonl", [lines[0], "{not json", *lines[2:]], "line 2"),
        ("checkpoint.jsonl", [lines[0], json.dumps(keyless)], "line 2"),
        ("checkpoint.jsonl", [lines[0], json.dumps(textual)], "line 2"),
        ("checkpoint.jsonl", [lines[0], json.dumps(pointless)], point),
        ("checkpoint.jsonl", [lines[0], json.dumps(nan_element)], point),
        *(("checkpoint.jsonl", [lines[0], json.dumps(rec)], point)
          for rec in mistyped),
        ("ground_state.json", ['{"e0": -1.2,', ' "angles": ['], "line 3"),
        ("ground_state.json", [json.dumps({"angles": [0.0] * 24})], "line 1"),
        ("ground_state.json", [json.dumps(nan_e0)], "line 1"),
        ("ground_state.json", [json.dumps(inf_angle)], "line 1"),
    ]
    grid = {"kind": "retarded", "omega_min": -1.0, "omega_max": 1.0, "n": 3}
    for i, (name, text, where) in enumerate(cases):
        out = tmp_path / f"case{i}"
        out.mkdir()
        for kept in ("ground_state.json", "checkpoint.jsonl"):
            shutil.copy(src / kept, out / kept)
        (out / name).write_text("\n".join(text) + "\n")
        cfg = write_config(tmp_path / "cfg.json", grid=grid, out_dir=str(out))
        capsys.readouterr()
        assert run("sweep", "--config", str(cfg)) == 3, (name, where)
        err = capsys.readouterr().err
        assert f"{out / name}, {where}" in err or f"{out / name}: {where}" in err, err
        assert not (out / "series.jsonl").exists()


class Killed(Exception):
    """Stands in for a kill of the process partway through a sweep."""


def test_killed_sweep_resumes_to_the_uninterrupted_bytes(dimer_sweep, tmp_path,
                                                         monkeypatch):
    """A sweep killed after k of its N = 12 points, for k = 0, 1, N/2 and
    N - 1, resumes to the bytes of the uninterrupted sweep, solving only
    the N - k points its log lacks, both from its log as the kill left it
    and with a torn fragment of the next line at its end.  So does a resume
    from a torn log that is itself killed."""
    src = dimer_sweep["out"]
    grid = {"kind": "retarded", "omega_min": -1.0, "omega_max": 1.0, "n": 3}
    n_points = len((src / "checkpoint.jsonl").read_text().splitlines())
    assert n_points == 12
    real_solve = solver.solve_correction_vector
    solved = {}

    def sweep(out: Path, kill_at: int | None = None) -> int:
        """Sweep into ``out``, killed at the ``kill_at``-th point solve; the
        number of points solved."""
        calls = []

        def solve(problem, z, spec, options, rng, theta0=None, depth0=None):
            # a solve is a function of its point's draws and its warm
            # start, so each distinct one runs once across these sweeps
            key = (z, str(rng.bit_generator.state), depth0,
                   None if theta0 is None else np.asarray(theta0).tobytes())
            calls.append(key)
            if len(calls) == kill_at:
                raise Killed
            if key not in solved:
                solved[key] = real_solve(problem, z, spec, options, rng,
                                         theta0=theta0, depth0=depth0)
            return solved[key]

        cfg = write_config(tmp_path / "cfg.json", grid=grid, out_dir=str(out))
        with monkeypatch.context() as m:
            m.setattr(solver, "solve_correction_vector", solve)
            if kill_at is not None:
                with pytest.raises(Killed):
                    run("sweep", "--config", str(cfg))
                return len(calls) - 1
            assert run("sweep", "--config", str(cfg)) == 0
        for name in ("series.jsonl", "spectrum.csv", "checkpoint.jsonl"):
            assert (out / name).read_bytes() == (src / name).read_bytes()
        return len(calls)

    def killed_after(k: int) -> Path:
        out = tmp_path / f"killed{k}"
        out.mkdir()
        # the ground-state stage finished before the point sweep began
        for name in ("ground_state.json", "trace.log"):
            shutil.copy(src / name, out / name)
        assert sweep(out, kill_at=k + 1) == k
        return out

    # the log of the last kill holds all but one line, in the order solved
    last = killed_after(n_points - 1)
    appended = (last / "checkpoint.jsonl").read_text().splitlines()
    appended += sorted(set((src / "checkpoint.jsonl").read_text().splitlines())
                       - set(appended))
    assert len(appended) == n_points

    for k in (0, 1, n_points // 2, n_points - 1):
        killed = last if k == n_points - 1 else killed_after(k)
        log = killed / "checkpoint.jsonl"
        assert (log.read_text() if log.exists() else "") == \
            "".join(line + "\n" for line in appended[:k])
        for torn in (False, True):
            out = tmp_path / f"resumed{k}{'torn' if torn else ''}"
            shutil.copytree(killed, out)
            if torn:
                with open(out / "checkpoint.jsonl", "a") as fh:
                    fh.write(appended[k][:len(appended[k]) // 2])
            assert sweep(out) == n_points - k

    # killed again two points into a resume from a torn log
    out = tmp_path / "twice"
    shutil.copytree(tmp_path / f"killed{n_points // 2}", out)
    with open(out / "checkpoint.jsonl", "a") as fh:
        fh.write(appended[n_points // 2][:10])
    assert sweep(out, kill_at=3) == 2
    assert (out / "checkpoint.jsonl").read_text().count("\n") == \
        n_points // 2 + 2
    assert sweep(out) == n_points // 2 - 2


def test_sweep_refuses_checkpoint_of_another_ansatz(dimer_sweep, tmp_path,
                                                     capsys):
    """A checkpoint record whose angles, elements or depth do not fit the
    configured ansatz (depth 3, growing by at most 3) and orbitals exits 2
    and writes no series."""
    src = dimer_sweep["out"]
    lines = (src / "checkpoint.jsonl").read_text().splitlines()
    short_theta, short_elements, deep, deep_angles = (json.loads(lines[1])
                                                      for _ in range(4))
    short_theta["theta"] = short_theta["theta"][:-1]
    short_elements["elements_re"] = short_elements["elements_re"][:-1]
    short_elements["elements_im"] = short_elements["elements_im"][:-1]
    deep["depth"] = 7
    # depth 7 with as many angles as depth 7 has
    per_layer = len(deep_angles["theta"]) // (deep_angles["depth"] + 1)
    deep_angles.update(depth=7, theta=[0.0] * (per_layer * 8))
    grid = {"kind": "retarded", "omega_min": -1.0, "omega_max": 1.0, "n": 3}
    for i, rec in enumerate((short_theta, short_elements, deep, deep_angles)):
        out = tmp_path / f"case{i}"
        out.mkdir()
        shutil.copy(src / "ground_state.json", out / "ground_state.json")
        (out / "checkpoint.jsonl").write_text(
            "\n".join([lines[0], json.dumps(rec)]) + "\n")
        cfg = write_config(tmp_path / "cfg.json", grid=grid, out_dir=str(out))
        capsys.readouterr()
        assert run("sweep", "--config", str(cfg)) == 2, i
        err = capsys.readouterr().err
        assert f"checkpoint in {out} holds point" in err and "fresh" in err, err
        assert not (out / "series.jsonl").exists()


def test_config_errors_exit_2(tmp_path, capsys):
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

    # each accepted by the parser once, then a traceback partway through a run
    grid = {"kind": "retarded", "omega_min": -1.0, "omega_max": 1.0, "n": 2}
    no_ry = {"pattern": ["RX", "RZ"]}  # cannot prepare the even-N start state
    probe_out = tmp_path / "probe"
    for argv, overrides in (
        (["sweep"], {"grid": grid, "optimizer": {"extra_depth": -1}}),
        (["sweep"], {"grid": grid, "optimizer": {"stall_sweeps": -1}}),
        (["sweep"], {"grid": grid, "optimizer": {"max_sweeps": "x"}}),
        (["ground-state"], {"measurement": {"seed": -1}}),
        (["ground-state"], {"active_space": 3}),
        (["ground-state"], {"active_space": []}),
        (["ground-state"], {"hamiltonian": {"kind": "hubbard-dimer",
                                            "t": "a", "u": 2.0}}),
        (["ground-state"], {"ansatz": no_ry}),
        (["sweep"], {"grid": grid, "ansatz": no_ry}),
        (["noise-scan", "--p2", "0"], {"ansatz": no_ry}),
        (["ground-state", "--seed", "-1"], {}),
        (["noise-scan", "--p2", "0", "--seed", "-1"], {}),
        # accepted once with a changed meaning: "false" switched noise or
        # ZNE on, and integer fields truncated
        (["ground-state"], {"noise": {"enabled": "false"}}),
        (["noise-scan", "--p2", "0.01"], {"noise": {"zne": "false"}}),
        (["sweep"], {"grid": grid, "optimizer": {"max_sweeps": 2.7}}),
        (["sweep"], {"grid": grid, "optimizer": {"max_sweeps": True}}),
        (["sweep"], {"grid": {**grid, "n": 2.7}}),
        (["ground-state"], {"ansatz": {"depth": 2.5}}),
        (["ground-state"], {"active_space": [0.9]}),
        # a float field took a bool as 1.0
        (["ground-state"], {"mu": True}),
        # a particle-number sector the 4 modes cannot hold
        (["oracle", "--sector", "7"], {"grid": grid}),
        (["oracle", "--sector", "-1"], {"grid": grid}),
    ):
        probe = write_config(tmp_path / "probe.json", out_dir=str(probe_out),
                             **overrides)
        assert run(argv[0], "--config", str(probe), *argv[1:]) == 2, argv
        assert not probe_out.exists()

    # a grid numpy refuses to build, at sizes it refuses without allocating
    for n in (1e300, 2**63, 10**400):
        for kind in ({"kind": "retarded", "omega_min": -1.0, "omega_max": 1.0},
                     {"kind": "matsubara", "omega_max": 1.0}):
            probe = write_config(tmp_path / "probe.json", out_dir=str(probe_out),
                                 grid={**kind, "n": n})
            for command in ("sweep", "oracle"):
                capsys.readouterr()
                assert run(command, "--config", str(probe)) == 2, (command, n)
                assert "grid: n is too large" in capsys.readouterr().err
                assert not probe_out.exists()

    missing = tmp_path / "missing.json"
    assert run("ground-state", "--config", str(missing)) == 2
    # a config path that names a directory
    assert run("ground-state", "--config", str(tmp_path)) == 2


def test_empty_out_dir_exits_2(tmp_path, monkeypatch):
    """An empty out_dir, from the config or from --out, names the current
    directory: it is refused before anything is written there."""
    monkeypatch.chdir(tmp_path)
    empty = write_config(tmp_path / "empty.json", out_dir="")
    assert run("ground-state", "--config", str(empty)) == 2
    cfg = write_config(tmp_path / "cfg.json", out_dir=str(tmp_path / "out"))
    assert run("ground-state", "--config", str(cfg), "--out", "") == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json",
                                                          "empty.json"]


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
    # an oracle's ground state holds no angles for a sweep to start from:
    # the sweep names the file and line, as for a record without e0
    capsys.readouterr()
    assert run("sweep", "--config", str(cfg)) == 3
    assert f"{out / 'ground_state.json'}, line 1" in capsys.readouterr().err
    assert not (out / "checkpoint.jsonl").exists()

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
    assert report["inside_bound"] == 1.0

    # every variational element lies within its bound of the exact one
    oracle_out = tmp_path / "oracle"
    assert run("oracle", "--config", str(dimer_sweep["config"]),
               "--out", str(oracle_out)) == 0
    capsys.readouterr()
    assert run("compare", str(series), str(oracle_out / "series.jsonl")) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["elements"]["max_abs"] > 0
    assert report["inside_bound"] == 1.0
    # the oracle's series carries no bound, so neither does its self-compare
    assert run("compare", str(oracle_out / "series.jsonl"),
               str(oracle_out / "series.jsonl")) == 0
    assert "inside_bound" not in json.loads(capsys.readouterr().out)

    # tampering with a manifested input is refused
    loose = tmp_path / "loose.jsonl"
    shutil.copy(series, loose)
    assert run("compare", str(series), str(loose)) == 5
    assert run("compare", str(series), str(loose), "--force") == 0
    capsys.readouterr()

    zs, g, _ = read_series(series)
    shifted = tmp_path / "shifted.jsonl"
    write_text_atomic(shifted, series_lines(zs, g + 1.0))
    assert run("compare", str(series), str(shifted), "--force",
               "--tol", "0.5") == 5
    assert run("compare", str(series), str(shifted), "--force",
               "--tol", "3.0") == 0
    # NaN would pass every difference and a negative tolerance none
    for tol in ("nan", "-1"):
        assert run("compare", str(series), str(shifted), "--force",
                   "--tol", tol) == 2
    capsys.readouterr()

    other_grid = tmp_path / "grid.jsonl"
    write_text_atomic(other_grid, series_lines(zs + 0.01, g))
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

    written = (out / "embed_report.json").read_bytes()
    for flags in (["--inject-sigma", "0.01", "--realizations", "0"],
                  ["--inject-sigma", "0.01", "--realizations", "-2"],
                  ["--inject-sigma", "nan"],
                  ["--inject-sigma", "inf"],
                  ["--inject-sigma", "-1"]):
        assert run("embed", "--config", str(cfg_path), *flags) == 2, flags
        # the message names the flag whose value is refused
        assert flags[-2] in capsys.readouterr().err
    assert (out / "embed_report.json").read_bytes() == written


def test_embed_failure_modes(tmp_path, capsys):
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
    (tmp_path / "empty").mkdir()
    (tmp_path / "empty" / "series.jsonl").write_text("")
    assert run("embed", "--config", str(cfg_path)) == 3

    # a G_cas that Dyson embedding cannot invert at one frequency
    zs = np.array([-0.5 + 0.05j, 0.25 + 0.05j, 0.5 + 0.05j])
    g = np.array([np.diag(1.0 / (z - np.array([-0.3, 0.2, -0.3, 0.2])))
                  for z in zs])
    g[1] = 0.0
    series = tmp_path / "empty" / "series.jsonl"
    write_text_atomic(series, series_lines(zs, g))
    capsys.readouterr()
    assert run("embed", "--config", str(cfg_path)) == 3
    err = capsys.readouterr().err
    assert str(series) in err and "0.25+0.05j" in err, err
    assert [p.name for p in series.parent.iterdir()] == ["series.jsonl"]


def test_compare_refuses_malformed_series(tmp_path, capsys):
    good = {"z_re": 0.1, "z_im": 0.05, "g_re": [1.0], "g_im": [0.0]}
    not_json = tmp_path / "not_json.jsonl"
    not_json.write_text(json.dumps(good) + "\n{not json\n")
    no_z_im = tmp_path / "no_z_im.jsonl"
    no_z_im.write_text(json.dumps({k: v for k, v in good.items()
                                   if k != "z_im"}) + "\n")
    # json reads NaN, which would pass every tolerance
    nan = tmp_path / "nan.jsonl"
    nan.write_text(json.dumps(good) + "\n" + json.dumps(dict(
        good, g_re=[float("nan")])) + "\n")
    for bad, line in ((not_json, 2), (no_z_im, 1), (nan, 2)):
        capsys.readouterr()
        assert run("compare", str(bad), str(bad), "--force") == 3
        assert f"{bad}, line {line}" in capsys.readouterr().err


def test_compare_refuses_a_corrupt_manifest(dimer_sweep, tmp_path, capsys):
    """A manifest that is not JSON pins nothing: the series is refused with
    the unpinned exit code, not a traceback."""
    out = tmp_path / "run"
    shutil.copytree(dimer_sweep["out"], out)
    (out / "manifest.json").write_text("{broken")
    series = out / "series.jsonl"
    capsys.readouterr()
    assert run("compare", str(series), str(series)) == 5
    assert "manifest" in capsys.readouterr().err
    assert run("compare", str(series), str(series), "--force") == 0


def test_compare_refuses_bounds_of_the_wrong_length(dimer_sweep, tmp_path, capsys):
    records = [json.loads(line) for line in
               (dimer_sweep["out"] / "series.jsonl").read_text().splitlines()]
    for rec in records:
        assert len(rec["bound"]) > 2
        rec["bound"] = rec["bound"][:2]
    bad = tmp_path / "short_bounds.jsonl"
    bad.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    capsys.readouterr()
    assert run("compare", str(bad), str(bad), "--force") == 3
    assert f"{bad}, line 1" in capsys.readouterr().err


def test_cli_import_leaves_scipy_out():
    """Importing the command line loads no scipy: it would add to every
    command's start-up time and memory."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import corrvec.cli, sys; assert 'scipy' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
