"""In-process command-line interface tests."""

import contextlib
import io
import json
import os
import tempfile
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modnls import _runtime, cli, paths, spectral, young
from modnls.cli import run_command
from modnls.errors import NumericsError
from modnls.paths import load_path_csv, make_linear_path, save_path_csv
from tests.conftest import duhamel_x_oracle, record_phase_ffts


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def write_config(tmp_path, **overrides):
    cfg = {
        "d": 1, "k": 1, "N": 2, "s": 1.0, "gamma": 0.55, "lambda": 0.5,
        "rho": 1.0, "T": 0.1, "M": 16, "scheme": "picard",
        "path": {"kind": "fbm", "H": 0.5, "T": 0.1, "M": 16, "seed": 3},
        "init": {"type": "plane_wave", "c": [0.02, 0.0], "m": 1},
    }
    cfg.update(overrides)
    out = tmp_path / "config.json"
    out.write_text(json.dumps(cfg))
    return str(out)


def test_gen_path_linear(tmp_path, capsys):
    out = tmp_path / "lin.csv"
    rc = run_command(["gen-path", "--kind", "linear", "--T", "1.0",
                      "--M", "8", "--out", str(out)])
    assert rc == 0
    assert str(out) in capsys.readouterr().out
    rows = [ln for ln in out.read_text().splitlines() if ln.strip()]
    assert rows[0] == "t,w"
    assert len(rows) == 1 + 9
    data = np.loadtxt(rows[1:], delimiter=",")
    np.testing.assert_allclose(data[:, 0], data[:, 1], atol=1e-15)


def test_gen_path_fbm_missing_hurst(tmp_path, capsys):
    rc = run_command(["gen-path", "--kind", "fbm", "--T", "1.0", "--M", "8",
                      "--seed", "1", "--out", str(tmp_path / "f.csv")])
    assert rc == 2
    diag = json.loads(capsys.readouterr().err)
    assert diag["error"] == "ConfigError"
    assert "--H" in diag["message"]


@pytest.mark.parametrize("level", ["nan", "inf"])
def test_gen_path_non_finite_level_is_one_json_line(tmp_path, capsys, level):
    # a constant clock at NaN or inf once wrote a CSV whose w column was all NaN
    out = tmp_path / "c.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run_command(["gen-path", "--kind", "constant", "--T", "1.0", "--M", "8",
                          "--c", level, "--out", str(out)])
    assert rc == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    diag = json.loads(lines[0])
    assert diag["error"] == "ConfigError" and "offset must be finite" in diag["message"]
    assert not out.exists()


def test_irregularity_report_keys(tmp_path):
    pcsv = tmp_path / "lin.csv"
    assert run_command(["gen-path", "--kind", "linear", "--T", "1.0",
                        "--M", "64", "--out", str(pcsv)]) == 0
    rep = tmp_path / "irr.json"
    rc = run_command(["irregularity", "--path", str(pcsv), "--gamma", "0.5",
                      "--rho", "0.5", "--amax", "16", "--pairs", "40",
                      "--out", str(rep)])
    assert rc == 0
    payload = read_json(rep)
    assert set(payload) == {"rho", "gamma", "norm_estimate", "a_max",
                            "pair_count", "trend"}


@pytest.mark.parametrize("flag,value", [("--amax", "nan"), ("--amax", "0"), ("--amax", "inf"),
                                        ("--amax", "-inf"), ("--rho", "nan"), ("--rho", "-1")])
def test_irregularity_bad_real_is_one_json_line(tmp_path, capsys, flag, value):
    pcsv = tmp_path / "lin.csv"
    assert run_command(["gen-path", "--kind", "linear", "--T", "1.0",
                        "--M", "8", "--out", str(pcsv)]) == 0
    capsys.readouterr()
    flags = {"--gamma": "0.5", "--rho": "0.5", "--amax": "4", "--pairs": "4", flag: value}
    rc = run_command(["irregularity", "--path", str(pcsv), "--out", str(tmp_path / "irr.json")]
                     + [f"{f}={v}" for f, v in flags.items()])
    assert rc == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    diag = json.loads(lines[0], parse_constant=_reject_constant)
    assert diag["error"] == "ConfigError"
    assert ("a_max" if flag == "--amax" else "rho") in diag["message"]
    assert not (tmp_path / "irr.json").exists()


@pytest.mark.parametrize("pairs", ["0", "-5"])
def test_irregularity_pairs_below_one_refused(tmp_path, capsys, pairs):
    pcsv = tmp_path / "lin.csv"
    save_path_csv(make_linear_path(1.0, 8), pcsv)
    rc = run_command(["irregularity", "--path", str(pcsv), "--gamma", "0.5", "--rho", "0.5",
                      "--amax", "4", f"--pairs={pairs}", "--out", str(tmp_path / "irr.json")])
    assert rc == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "error": "ConfigError", "message": f"--pairs must be a positive integer, got {pairs}"}
    assert not (tmp_path / "irr.json").exists()


def test_amax_refusal_names_its_remedy(tmp_path, capsys):
    # the frequency grid grows with a_max alone, so the refusal says to lower it
    pcsv = tmp_path / "lin.csv"
    save_path_csv(make_linear_path(1.0, 8), pcsv)
    rc = run_command(["irregularity", "--path", str(pcsv), "--gamma", "0.5", "--rho", "0.5",
                      "--amax", "1e7", "--pairs", "4", "--out", str(tmp_path / "irr.json")])
    assert rc == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "error": "NumericsError",
        "message": "1.7e+08 frequency grid points (a_max 10000000.0) exceed the "
                   "memory budget 4e+07; lower a_max (--amax)"}
    assert not (tmp_path / "irr.json").exists()


def test_solve_happy_path(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    rc = run_command(["solve", "--config", cfg, "--out", str(out)])
    assert rc == 0
    report = read_json(out / "report.json")
    assert set(report) == {"scheme", "iterations", "residuals", "times",
                           "norms", "mass", "mass_drift"}
    assert report["scheme"] == "picard"
    assert len(report["times"]) == 17
    assert report["mass_drift"] < 1e-8
    states = sorted(f for f in os.listdir(out) if f.endswith(".csv"))
    assert states[0] == "state_0000.csv" and states[-1] == "state_0016.csv"
    assert len(states) == 17


def test_solve_on_a_partition_off_the_clock_nodes(tmp_path):
    # a config of M = 6 on a path of M = 16: five partition times fall between
    # clock nodes. Both schemes run; each Euler-Young step is the kernel's
    # increment on the path's own segments, against the Duhamel oracle
    path = paths.make_fbm_path(0.5, 0.1, 16, 3)
    for scheme in ("picard", "euler_young"):  # the oracle reads the last run
        out = tmp_path / scheme
        cfg = write_config(tmp_path, M=6, scheme=scheme, init=RANDOM_INIT)
        assert run_command(["solve", "--config", cfg, "--out", str(out)]) == 0
        times = read_json(out / "report.json")["times"]
        assert len(times) == 7
    states = [spectral.load_state_csv(f) for f in sorted(out.glob("state_*.csv"))]
    for j in range(6):
        want = duhamel_x_oracle(path, times[j], times[j + 1], [states[j]] * 3)
        got = states[j + 1].coeffs - states[j].coeffs
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


def test_solve_reruns_byte_identical(tmp_path):
    # every file of the run: each state CSV and sidecar, and the report
    cfg = write_config(tmp_path)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run_command(["solve", "--config", cfg, "--out", str(out)]) == 0
        outs.append({f.name: f.read_bytes() for f in out.iterdir()})
    assert len(outs[0]) == 2 * 17 + 1
    assert outs[0] == outs[1]


def test_solve_rejects_bad_config(tmp_path, capsys):
    cfg = write_config(tmp_path, gamma=0.5, **{"lambda": 0.7})
    rc = run_command(["solve", "--config", cfg, "--out", str(tmp_path / "x")])
    assert rc == 2
    diag = json.loads(capsys.readouterr().err)
    assert diag["error"] == "ConfigError"
    assert "lambda" in diag["message"]


def test_solve_blowup_exit_code(tmp_path, capsys):
    cfg = write_config(
        tmp_path, scheme="euler_young", M=8,
        path={"kind": "fbm", "H": 0.5, "T": 0.1, "M": 8, "seed": 3},
        init={"type": "random", "s": 1.0, "seed": 0, "scale": 1e3})
    rc = run_command(["solve", "--config", cfg, "--out", str(tmp_path / "x")])
    assert rc == 3
    diag = json.loads(capsys.readouterr().err)
    assert diag["error"] == "BlowUpError"
    assert diag["step"] >= 1


def test_converge_csv(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "conv"
    rc = run_command(["converge", "--config", cfg, "--levels", "3",
                      "--out", str(out)])
    assert rc == 0
    rows = (out / "convergence.csv").read_text().splitlines()
    assert rows[0] == "mesh,error,order"
    assert len(rows) == 3
    coarse = rows[1].split(",")
    assert float(coarse[0]) == pytest.approx(0.1 / 4)
    assert float(coarse[2]) > 0.5  # first-order scheme


def test_converge_order_of_euler_young_on_a_plane_wave(tmp_path):
    # Euler-Young is first order: from successive level differences every
    # order reads about 1, where differences against the finest level read
    # 1.04, 1.10, 1.22 and 1.58 at the finest pairs
    cfg = write_config(
        tmp_path, scheme="euler_young", T=0.5, M=256,
        path={"kind": "fbm", "H": 0.5, "T": 0.5, "M": 256, "seed": 3},
        init={"type": "plane_wave", "c": [1.0, 0.0], "m": 1})
    out = tmp_path / "conv"
    assert run_command(["converge", "--config", cfg, "--levels", "6", "--out", str(out)]) == 0
    rows = [r.split(",") for r in (out / "convergence.csv").read_text().splitlines()[1:]]
    assert len(rows) == 5 and rows[-1][2] == ""
    for mesh, _, order in rows[:-1]:
        assert 0.9 <= float(order) <= 1.1, (mesh, order)


def test_verify_estimates_counting(tmp_path):
    out = tmp_path / "count.json"
    rc = run_command(["verify-estimates", "--which", "counting", "--d", "1",
                      "--k", "1", "--N", "2", "--out", str(out)])
    assert rc == 0
    payload = read_json(out)
    assert payload["which"] == "counting"
    assert payload["identity_holds"] is True


def test_verify_estimates_eq21_smoke(tmp_path):
    out = tmp_path / "eq21.json"
    rc = run_command(["verify-estimates", "--which", "eq21", "--d", "2",
                      "--k", "1", "--N", "2", "--rho", "1.0", "--s", "0.3",
                      "--trials", "2", "--out", str(out)])
    assert rc == 0
    payload = read_json(out)
    assert payload["estimate_id"] == "eq21"
    assert payload["ratio"] > 0


def test_verify_estimates_eq26_blocks(tmp_path):
    out = tmp_path / "eq26.json"
    rc = run_command(["verify-estimates", "--which", "eq26", "--d", "2",
                      "--k", "1", "--blocks", "2,1,1,1", "--mu", "0",
                      "--trials", "2", "--out", str(out)])
    assert rc == 0
    payload = read_json(out)
    assert payload["estimate_id"] == "eq26"
    assert payload["parameters"]["blocks"] == [2, 1, 1, 1]


@pytest.mark.parametrize("which", [
    ["--which", "eq21", "--d", "2", "--k", "1", "--N", "8", "--trials", "10"],
    ["--which", "eq27", "--d", "2", "--k", "1", "--blocks", "4,2,2,1",
     "--trials", "4"],
], ids=["eq21", "eq27"])
def test_verify_estimates_same_bytes_for_any_thread_count(tmp_path, monkeypatch, which):
    monkeypatch.setattr(_runtime, "_workers", _runtime.get_workers())
    texts = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}.json"
        assert run_command(["verify-estimates", "--threads", threads, *which,
                            "--out", str(out)]) == 0
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]


def test_solve_same_bytes_for_any_thread_count(tmp_path, monkeypatch):
    # d = 2, N = 3: L = 75 phases in 8-row chunks and 16-row walker tasks,
    # so two threads share the kernel's tasks and every file keeps its bytes
    _, L, P = young._phase_grid(2, 1, 3)
    assert L % 16
    monkeypatch.setattr(young, "_PHASE_CHUNK_ENTRIES", 8 * P ** 2)
    monkeypatch.setattr(spectral, "_PHASE_TASK_ENTRIES", 16 * P ** 2)
    monkeypatch.setattr(_runtime, "_workers", _runtime.get_workers())
    log = record_phase_ffts(monkeypatch)
    cfg = write_config(tmp_path, d=2, N=3, M=8, s=1.2, init=RANDOM_INIT,
                       path={"kind": "fbm", "H": 0.4, "T": 0.1, "M": 8, "seed": 5})
    outs = []
    for threads in ("1", "2"):
        log.clear()
        out = tmp_path / f"threads-{threads}"
        assert run_command(["solve", "--threads", threads, "--config", cfg,
                            "--out", str(out)]) == 0
        assert {w for _, w in log} == {1}
        assert ({t for t, _ in log} != {threading.get_ident()}) == (threads == "2")
        outs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    assert len(outs[0]) == 2 * 9 + 1
    assert outs[0] == outs[1]


def test_xnorm_smoke(tmp_path):
    pcsv = tmp_path / "lin.csv"
    assert run_command(["gen-path", "--kind", "linear", "--T", "0.5",
                        "--M", "32", "--out", str(pcsv)]) == 0
    out = tmp_path / "xn.json"
    rc = run_command(["xnorm", "--path", str(pcsv), "--d", "1", "--k", "1",
                      "--N", "2", "--gamma", "0.55", "--s", "1.0",
                      "--trials", "2", "--out", str(out)])
    assert rc == 0
    payload = read_json(out)
    assert payload["norm_estimate"] > 0
    assert payload["trials"] == 2


def test_usage_exit_codes(capsys):
    assert run_command([]) == 64
    assert "usage:" in capsys.readouterr().err
    assert run_command(["frobnicate"]) == 64
    assert "usage:" in capsys.readouterr().err
    assert run_command(["--help"]) == 0
    assert "usage:" in capsys.readouterr().out


def test_threads_flag(tmp_path, capsys):
    out = tmp_path / "lin.csv"
    rc = run_command(["gen-path", "--threads", "2", "--kind", "linear",
                      "--T", "1.0", "--M", "4", "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    rc = run_command(["gen-path", "--threads=bogus", "--kind", "linear",
                      "--T", "1.0", "--M", "4", "--out", str(out)])
    assert rc == 2
    assert "threads" in json.loads(capsys.readouterr().err)["message"]


def _reject_constant(name):
    raise AssertionError(f"stderr carries the non-JSON constant {name}")


def test_overflow_exits_3_with_strict_json(tmp_path, capsys):
    cfg = write_config(
        tmp_path, scheme="euler_young", N=4, M=8,
        path={"kind": "fbm", "H": 0.5, "T": 0.1, "M": 8, "seed": 3},
        init={"type": "random", "s": 1.0, "seed": 0, "scale": 1e120})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rc = run_command(["solve", "--config", cfg, "--out", str(tmp_path / "x")])
    assert rc == 3
    diag = json.loads(capsys.readouterr().err, parse_constant=_reject_constant)
    assert diag["error"] == "BlowUpError"
    assert diag["norm"] is None
    assert diag["step"] >= 1


def test_write_json_refuses_non_finite(tmp_path):
    out = tmp_path / "bad.json"
    with pytest.raises(NumericsError):
        cli._write_json({"norm": float("inf")}, out)
    assert not out.exists()


def test_config_modulated_path(tmp_path):
    prof = tmp_path / "profile.csv"
    prof.write_text("1.0\n-0.5\n0.25\n-0.75\n")
    spec = {"kind": "modulated", "eps": 0.5, "profile": str(prof),
            "T": 0.1, "M": 16}
    cfg = write_config(tmp_path, path=spec)
    assert run_command(["solve", "--config", cfg,
                        "--out", str(tmp_path / "run")]) == 0
    out = tmp_path / "mod.csv"
    assert run_command(["gen-path", "--kind", "modulated", "--eps", "0.5",
                        "--profile", str(prof), "--T", "0.1", "--M", "16",
                        "--out", str(out)]) == 0
    np.testing.assert_allclose(load_path_csv(out).values,
                               cli._path_from_spec(spec).values, atol=1e-15)


@pytest.mark.parametrize("reader", ["path", "profile"])
def test_empty_csv_is_one_json_line(tmp_path, capsys, reader):
    # a header-only path CSV and a profile of a blank and a comment line: the
    # file is named, and no numpy warning reaches stderr ahead of the diagnostic
    empty = tmp_path / "empty.csv"
    empty.write_text("t,w\n" if reader == "path" else "\n# no samples\n")
    if reader == "path":
        argv = ["irregularity", "--path", str(empty), "--gamma", "0.5", "--rho", "0.5",
                "--amax", "4", "--pairs", "4", "--out", str(tmp_path / "irr.json")]
    else:
        spec = {"kind": "modulated", "eps": 0.5, "profile": str(empty), "T": 0.1, "M": 16}
        argv = ["solve", "--config", write_config(tmp_path, path=spec),
                "--out", str(tmp_path / "run")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_command(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": "ConfigError",
                                    "message": f"{empty} holds no data rows"}


def test_config_must_be_object(tmp_path, capsys):
    cfg = tmp_path / "list.json"
    cfg.write_text("[1, 2]")
    rc = run_command(["solve", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert rc == 2
    diag = json.loads(capsys.readouterr().err)
    assert diag["error"] == "ConfigError"
    assert "must be a JSON object" in diag["message"]


def test_config_non_finite_number_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, tol=float("nan"))
    assert '"tol": NaN' in Path(cfg).read_text()
    rc = run_command(["solve", "--config", cfg, "--out", str(tmp_path / "x")])
    assert rc == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    diag = json.loads(lines[0])
    assert diag["error"] == "ConfigError"
    assert "NaN" in diag["message"]


def test_config_overflowing_number_rejected(tmp_path, capsys):
    # the literal 1e400 parses to inf, which would end a Picard solve after one sweep
    cfg = Path(write_config(tmp_path, tol=1e-10))
    cfg.write_text(cfg.read_text().replace('"tol": 1e-10', '"tol": 1e400'))
    rc = run_command(["solve", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert rc == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "error": "ConfigError", "message": f"config {cfg} holds the non-finite number 1e400"}
    assert not (tmp_path / "x").exists()


RANDOM_INIT = {"type": "random", "s": 1.0, "seed": 0, "scale": 0.01}
PLANE_WAVE = {"type": "plane_wave", "c": [0.02, 0.0], "m": 1}


@pytest.mark.parametrize("key,overrides", [
    ("T", {"T": "0.1"}),
    ("tol", {"tol": "x"}),
    ("s", {"s": "1"}),
    ("lambda", {"lambda": None}),
    ("N", {"N": [4]}),
    ("max_iter", {"max_iter": True}),
    ("seed", {"init": {**RANDOM_INIT, "seed": "abc"}}),
    ("s", {"init": {**RANDOM_INIT, "s": "1"}}),
    ("H", {"path": {"kind": "fbm", "H": "0.5", "T": 0.1, "M": 16, "seed": 3}}),
    ("M", {"M": "16"}),
    ("c", {"init": {**PLANE_WAVE, "c": True}}),
    ("c", {"init": {**PLANE_WAVE, "c": "x"}}),
    ("c", {"init": {**PLANE_WAVE, "c": [0.02, 0.0, 0.0]}}),
    ("m", {"init": {**PLANE_WAVE, "m": 1.0}}),
    ("m", {"init": {**PLANE_WAVE, "m": "x"}}),
    ("m", {"init": {**PLANE_WAVE, "m": [1, None]}}),
])
@pytest.mark.parametrize("command", ["solve", "converge"])
def test_config_wrong_type_rejected(tmp_path, capsys, command, key, overrides):
    argv = [command, "--config", write_config(tmp_path, **overrides),
            "--out", str(tmp_path / "x")]
    if command == "converge":
        argv += ["--levels", "2"]
    assert run_command(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    diag = json.loads(lines[0])
    assert diag["error"] == "ConfigError"
    assert f"key {key!r} must be" in diag["message"]


@pytest.mark.parametrize("c,m", [(0.02, [1]), (-0.01, 1), ([0, 0.02], [-1])])
def test_plane_wave_number_and_list_forms(tmp_path, c, m):
    cfg = write_config(tmp_path, init={**PLANE_WAVE, "c": c, "m": m})
    assert run_command(["solve", "--config", cfg,
                        "--out", str(tmp_path / "x")]) == 0


def test_init_state_non_finite_rejected(tmp_path, capsys):
    init = tmp_path / "init.csv"
    init.write_text("n_1,re,im\n0,nan,0\n")
    init.with_suffix(".json").write_text('{"d": 1, "N": 2}\n')
    cfg = write_config(tmp_path, init={"type": "file", "file": str(init)})
    rc = run_command(["solve", "--config", cfg, "--out", str(tmp_path / "x")])
    assert rc == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    diag = json.loads(lines[0])
    assert diag["error"] == "ConfigError"
    assert "non-finite" in diag["message"]


def test_init_state_of_comment_lines_is_the_zero_state(tmp_path, capsys):
    # a body of comment and blank lines has no rows, as a header-only body:
    # no numpy warning, and the solve starts from the zero state
    init = tmp_path / "init.csv"
    init.write_text("n_1,re,im\n# no modes\n\n")
    init.with_suffix(".json").write_text('{"d": 1, "N": 2}\n')
    cfg = write_config(tmp_path, init={"type": "file", "file": str(init)})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run_command(["solve", "--config", cfg, "--out", str(tmp_path / "x")])
    assert rc == 0 and capsys.readouterr().err == ""
    assert read_json(tmp_path / "x" / "report.json")["norms"] == [0.0] * 17


@pytest.mark.parametrize("command,s", [("xnorm", "1e308"), ("xnorm", "nan"), ("xnorm", "-inf"),
                                       ("solve", 1e308), ("solve", -1e308)])
def test_sobolev_index_past_float_range_is_one_json_line(tmp_path, capsys, command, s):
    # (1 + d N^2)^|s| overflows: every trial's norm and every residual would be
    # NaN, after numpy warnings, and xnorm once wrote a norm of 0
    if command == "xnorm":
        pcsv = tmp_path / "lin.csv"
        save_path_csv(make_linear_path(0.5, 8), pcsv)
        argv = ["xnorm", "--path", str(pcsv), "--d", "1", "--k", "1", "--N", "2",
                "--gamma", "0.55", f"--s={s}", "--trials", "2"]
    else:
        argv = ["solve", "--config", write_config(tmp_path, s=s)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run_command(argv + ["--out", str(tmp_path / "out")])
    assert rc == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    diag = json.loads(lines[0])
    assert diag["error"] == "ConfigError" and "Sobolev index" in diag["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("threads,box,s,clock", [
    ("1", ["--d", "1", "--N", "2"], "-300", ["--kind", "linear", "--T", "1.0", "--M", "16"]),
    ("2", ["--d", "2", "--N", "8"], "-120",
     ["--kind", "fbm", "--H", "0.3", "--seed", "1", "--T", "4.0", "--M", "16"]),
], ids=["linear-d1", "fbm-d2-pooled"])
def test_overflowing_increment_is_one_json_line(tmp_path, capsys, monkeypatch, threads, box,
                                                s, clock):
    # the random states grow like <n>^|s|, so the walker's phase products overflow long
    # before the box weight does; numpy's overflow warning, from the calling thread or
    # from a pooled walk's worker, once came before the diagnostic
    monkeypatch.setattr(_runtime, "_workers", _runtime.get_workers())
    pcsv = str(tmp_path / "clock.csv")
    assert run_command(["gen-path", *clock, "--out", pcsv]) == 0
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run_command(["xnorm", "--threads", threads, "--path", pcsv, *box, "--k", "1",
                          "--gamma", "0.55", f"--s={s}", "--trials", "4",
                          "--out", str(tmp_path / "x.json")])
    assert rc == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    diag = json.loads(lines[0], parse_constant=_reject_constant)
    assert diag["error"] == "NumericsError" and "overflows" in diag["message"]
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("rows,needle", [
    ("0.7,0.02,0\n", "non-integer mode"),
    ("0,0.02,0\n-2,0.1,0\n0,0.5,0\n", "repeats mode (0,)"),
], ids=["non-integer", "repeated"])
def test_init_state_bad_modes_rejected(tmp_path, capsys, rows, needle):
    # a truncated or repeated mode would load as some other state without a word
    init = tmp_path / "init.csv"
    init.write_text("n_1,re,im\n" + rows)
    init.with_suffix(".json").write_text('{"d": 1, "N": 2}\n')
    cfg = write_config(tmp_path, init={"type": "file", "file": str(init)})
    rc = run_command(["solve", "--config", cfg, "--out", str(tmp_path / "x")])
    assert rc == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    diag = json.loads(lines[0])
    assert diag["error"] == "ConfigError"
    assert needle in diag["message"]


@pytest.mark.parametrize("blocks,limit_mb", [(16, 8), (64, 100)])
def test_eq27_priced_by_its_one_row(tmp_path, capsys, blocks, limit_mb):
    # eq27 computes only the l = 0 phase row, P^d entries (189^2 at blocks 16,
    # 768^2 at 64); the whole fold grid, 5808 x 189^2 at 16, is never built
    argv = ["verify-estimates", "--which", "eq27", "--d", "2", "--k", "1",
            "--trials", "2", "--out", str(tmp_path / "eq27.json")]
    assert run_command(argv + ["--blocks", "2,2,2,2"]) == 0  # imports stay untraced
    tracemalloc.start()
    try:
        rc = run_command(argv + ["--blocks", ",".join([str(blocks)] * 4)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert read_json(tmp_path / "eq27.json")["parameters"]["blocks"] == [blocks] * 4
    assert peak < limit_mb * 2 ** 20


def test_eq26_refusal_unchanged_at_blocks_16(tmp_path, capsys):
    # eq26 reads the whole fold table, so its grid is still priced in full
    rc = run_command(["verify-estimates", "--which", "eq26", "--d", "2", "--k", "1",
                      "--N", "16", "--out", str(tmp_path / "eq26.json")])
    assert rc == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "error": "NumericsError",
        "message": "2.07e+08 fft fold phase-grid entries (5808 x 189^2) exceed the "
                   "memory budget 4e+07; shrink the box"}


def test_thread_environment_variable_ignored(tmp_path, capsys, monkeypatch):
    # --threads is the only thread setting; the environment cannot fail a run
    monkeypatch.setenv("YNLS_THREADS", "lots")
    rc = run_command(["gen-path", "--kind", "linear", "--T", "1.0", "--M", "4",
                      "--out", str(tmp_path / "lin.csv")])
    assert rc == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("where,overrides,key", [
    ("config", {"tolerance": 1e-3}, "tolerance"),
    ("path spec", {"path": {"kind": "fbm", "hurst": 0.5, "T": 0.1, "M": 16,
                            "seed": 3}}, "hurst"),
    ("init spec", {"init": {**RANDOM_INIT, "sead": 1}}, "sead"),
], ids=["config", "path", "init"])
def test_unknown_config_key_rejected(tmp_path, capsys, where, overrides, key):
    argv = ["solve", "--config", write_config(tmp_path, **overrides),
            "--out", str(tmp_path / "x")]
    assert run_command(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    diag = json.loads(lines[0])
    assert diag["error"] == "ConfigError"
    assert diag["message"] == f"{where} has the unknown key {key!r}"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("spec", [
    {"kind": "fbm", "H": 0.5, "T": 0.1, "M": 16.0, "seed": 3},
    {"kind": "linear", "T": 0.1, "M": 16.0},
], ids=["fbm", "linear"])
def test_integral_float_grid_size_rejected(tmp_path, capsys, spec):
    # a grid size must be a real integer; 16.0 used to reach the path
    # generators and end in a TypeError traceback. M is an integer key of
    # the path spec, so the spec check names it
    argv = ["solve", "--config", write_config(tmp_path, path=spec),
            "--out", str(tmp_path / "x")]
    assert run_command(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    diag = json.loads(lines[0])
    assert diag["error"] == "ConfigError"
    assert diag["message"] == "path spec key 'M' must be an integer, got 16.0"


def test_integral_float_config_grid_size_rejected(tmp_path, capsys):
    # the config's own M is an integer key as well; 8.0 used to solve
    argv = ["solve", "--config", write_config(tmp_path, M=8.0),
            "--out", str(tmp_path / "x")]
    assert run_command(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "error": "ConfigError", "message": "config key 'M' must be an integer, got 8.0"}
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["solve", "xnorm", "eq21"])
def test_oversized_box_refused_before_any_table(tmp_path, capsys, command):
    # d=1, k=1, N=400 needs a 1.0e9-entry phase grid; the refusal comes
    # from the box alone, so no Phi table (over 300 MB at this box) is
    # allocated. eq21 at d=2, N=10^4 is refused before its nine 20001^2
    # candidate profiles (about 29 GB) are built
    if command == "solve":
        argv = ["solve", "--config", write_config(tmp_path, N=400),
                "--out", str(tmp_path / "x")]
    elif command == "eq21":
        argv = ["verify-estimates", "--which", "eq21", "--d", "2", "--k", "1",
                "--N", "10000", "--out", str(tmp_path / "x.json")]
    else:
        pcsv = tmp_path / "lin.csv"
        assert run_command(["gen-path", "--kind", "linear", "--T", "0.5",
                            "--M", "32", "--out", str(pcsv)]) == 0
        capsys.readouterr()
        argv = ["xnorm", "--path", str(pcsv), "--d", "1", "--k", "1",
                "--N", "400", "--gamma", "0.55", "--s", "1.0",
                "--out", str(tmp_path / "xn.json")]
    tracemalloc.start()
    try:
        rc = run_command(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    diag = json.loads(lines[0], parse_constant=_reject_constant)
    assert diag["error"] == "NumericsError"
    assert "memory budget" in diag["message"]
    assert peak < 20 * 2 ** 20


def _raise_memory_error(*args, **kwargs):
    raise MemoryError("Unable to allocate 72.8 TiB for an array")


_HUGE_BLOCKS = ["--d", "2", "--k", "1", "--blocks", "1099511627776,4,2,2"]


@pytest.mark.parametrize("argv,loader,error", [
    (["verify-estimates", "--which", "counting", "--d", "2", "--k", "1",
      "--N", "1000000"], None, "NumericsError"),
    (["verify-estimates", "--which", "eq26", *_HUGE_BLOCKS], None, "NumericsError"),
    (["verify-estimates", "--which", "eq27", *_HUGE_BLOCKS], None, "NumericsError"),
    (["verify-estimates", "--which", "eq21", "--d", "2", "--k", "1",
      "--N", str(10 ** 20)], None, "OverflowError"),
    (["converge", "--config", "{config}", "--levels", "9223372036854775809"], None,
     "ConfigError"),
    (["gen-path", "--kind", "linear", "--T", "1", "--M", "10000000000000"],
     (paths, "make_linear_path"), "MemoryError"),
    *[(["irregularity", "--path", "{path}", "--gamma", "0.55", "--rho", "0.5",
        "--amax", amax, "--pairs", "4"], None, "NumericsError")
      for amax in ("1e14", "1e300", "1e7")],
], ids=["counting", "eq26-cube", "eq27-cube", "eq21-overflow", "levels", "gen-path",
        "irregularity", "irregularity-1e300", "irregularity-1e7"])
def test_oversized_input_refused_before_allocating(tmp_path, capsys, monkeypatch,
                                                   argv, loader, error):
    # each of these inputs asks for gigabytes or more. The counting box, the
    # dyadic cube and the irregularity frequency grid (about 17 a_max points)
    # are priced from their bounds and --levels against M, so the small peak
    # shows nothing was allocated first; an N too large for a machine
    # integer overflows before any allocation. gen-path has no size rule:
    # its loader's MemoryError is stood in for, never provoked, since an
    # overcommitting host kills such a process instead of refusing its
    # request. Each exits with one JSON line
    pcsv = tmp_path / "lin.csv"
    save_path_csv(make_linear_path(1.0, 8), pcsv)
    fill = {"{config}": write_config(tmp_path), "{path}": str(pcsv)}
    argv = [fill.get(a, a) for a in argv] + ["--out", str(tmp_path / "out")]
    if loader:
        monkeypatch.setattr(*loader, _raise_memory_error)
    tracemalloc.start()
    try:
        rc = run_command(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == (2 if error == "ConfigError" else 3)
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0], parse_constant=_reject_constant)["error"] == error
    assert peak < 2 ** 20


@pytest.mark.parametrize("sidecar,argv,error,needle", [
    ('{"d": 3, "N": 30000}', None, "NumericsError", "memory budget"),
    ('{"d": 1, "N": 2.9}', None, "ConfigError", "got 2.9"),
    ("[1]", None, "ConfigError", "must be a JSON object"),
    ("{}", None, "ConfigError", "must be a JSON object with 'd' and 'N'"),
    (None, ["verify-estimates", "--which", "counting", "--d", "2", "--k", "1",
            "--N", "9" * 400], "NumericsError", "e+3202 candidate tuples exceed"),
], ids=["sidecar-3-PiB", "sidecar-float-N", "sidecar-list", "sidecar-empty",
        "counting-400-digits"])
def test_bad_sizes_refused_in_one_line(tmp_path, capsys, sidecar, argv, error, needle):
    # an init file's sidecar is checked as a JSON object, its d and N are
    # taken as given (2.9 is not truncated) and its cube is priced before
    # it is allocated (3.07 PiB here); a size past float range is refused
    # in the budget's words
    if argv is None:
        init = tmp_path / "init.csv"
        init.write_text("n_1,re,im\n0,0.02,0\n")
        init.with_suffix(".json").write_text(sidecar + "\n")
        argv = ["solve", "--config",
                write_config(tmp_path, init={"type": "file", "file": str(init)})]
    tracemalloc.start()
    try:
        rc = run_command(argv + ["--out", str(tmp_path / "x")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == (2 if error == "ConfigError" else 3)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1
    diag = json.loads(lines[0], parse_constant=_reject_constant)
    assert diag["error"] == error
    assert needle in diag["message"]
    assert peak < 2 ** 20
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_must_be_a_positive_integer(tmp_path, capsys, threads):
    # a count below 1 is refused, not raised to 1, and nothing is written
    rc = run_command(["gen-path", "--threads", threads, "--kind", "linear",
                      "--T", "1.0", "--M", "4", "--out", str(tmp_path / "lin.csv")])
    assert rc == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    diag = json.loads(lines[0])
    assert diag["error"] == "ConfigError" and "--threads" in diag["message"]
    assert not (tmp_path / "lin.csv").exists()


_XNORM_ARGS = ["xnorm", "--path", "lin.csv", "--d", "1", "--k", "1", "--N", "2",
               "--gamma", "0.55", "--s", "1.0", "--out", "xn.json"]


@pytest.mark.parametrize("change,needle", [
    ({"--s": "-1e9"}, "argument --s: expected one argument"),
    ({"--N": "abc"}, "argument --N: invalid int value: 'abc'"),
    ({"--gamma": None}, "the following arguments are required: --gamma"),
], ids=["negative-exponent", "not-an-int", "missing-flag"])
def test_argument_errors_are_one_json_line(capsys, change, needle):
    # argparse's errors leave as one ConfigError line with exit 2 instead
    # of its usage text; --help still prints usage and exits 0
    argv = list(_XNORM_ARGS)
    for flag, value in change.items():
        i = argv.index(flag)
        argv[i:i + 2] = [] if value is None else [flag, value]
    assert run_command(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    diag = json.loads(lines[0], parse_constant=_reject_constant)
    assert diag["error"] == "ConfigError"
    assert needle in diag["message"]
    assert run_command(["xnorm", "--help"]) == 0
    out = capsys.readouterr()
    assert "usage: modnls xnorm" in out.out and not out.err


_MISSING = object()
_CONFIG_KEYS = ("d", "k", "N", "s", "gamma", "lambda", "rho", "T", "M",
                "scheme", "path", "init", "tol", "max_iter")
_NUMERIC_KEYS = tuple(k for k in _CONFIG_KEYS if k not in ("scheme", "path", "init"))
_MUTATIONS = (
    [(key, bad) for key in _CONFIG_KEYS for bad in ("1", [1], None, True)]
    + [(key, v) for key in _NUMERIC_KEYS for v in (0, -1)]
    + [(key, _MISSING) for key in _CONFIG_KEYS]
    + [("scheme", "rk4"), ("N", 400), ("N", 10 ** 4), ("tolerance", 1e-3)]
)


# flag changes for the other commands, applied to base arguments that
# run: converge at 2 levels, xnorm on a linear clock and eq21 on the box
# of test_verify_estimates_eq21_smoke; each change is spelled --flag=value
# and --flag value (where argparse reads -1e9 as a flag), and _MISSING
# drops the flag
_BASE_FLAGS = {
    "converge": {"--levels": "2"},
    "xnorm": {"--path": "lin.csv", "--d": "1", "--k": "1", "--N": "2",
              "--gamma": "0.55", "--s": "1.0", "--trials": "2"},
    "verify-estimates": {"--which": "eq21", "--d": "2", "--k": "1", "--N": "2",
                         "--s": "0.3", "--trials": "2"},
}
_FLAG_POOLS = {
    "converge": {"--levels": ("0", "1", "3", "5", "6", "abc")},
    "xnorm": {"--path": ("absent.csv", _MISSING), "--d": ("0", "4"), "--k": ("0", "2"),
              "--N": ("0", "-3", "24", "abc", _MISSING), "--gamma": ("0", "1.5", "nan"),
              "--s": ("nan", "inf", "-1e9"), "--trials": ("0", "-1"),
              "--seed": ("-1",)},
    "verify-estimates": {"--which": ("counting", "eq26", "eq27"),
                         "--d": ("0", "1", "4"), "--k": ("0", "2"),
                         "--N": ("0", "400", "10000"), "--rho": ("0", "-1"),
                         "--s": ("nan", "inf", "-1e9"), "--sprime": ("-5", "nan"),
                         "--q": ("0", "7"), "--trials": ("0",), "--seed": ("-1",)},
}
# one past the largest admitted d=1, k=1 box, with a path file that does
# not exist: the box is refused before the file is read
_PAST_MAX = ("xnorm", {"--N": "135", "--path": "absent.csv"})
_FUZZ_CASES = (
    [("solve", m) for m in _MUTATIONS]
    + [(cmd, {flag: v}, sep) for cmd, pool in _FLAG_POOLS.items()
       for flag, values in pool.items() for v in values for sep in ("=", " ")]
    + [("verify-estimates", {"--which": w, flag: v}, sep)
       for w, flag, v in (("eq26", "--blocks", "2,1"), ("eq26", "--blocks", "a,b"),
                          ("eq26", "--blocks", "0,2,2,2"), ("eq27", "--blocks", "3,1,1,1"),
                          ("eq26", "--mu", "1000"), ("eq26", "--mu", "-3"),
                          ("counting", "--N", "400"))
       for sep in ("=", " ")]
    + [_PAST_MAX]
)


def _fuzz_argv(tmp, command, change, sep="="):
    """argv of one fuzz case: a solve config with one key mutated, or a
    command's base flags with `change` applied, spelled flag + sep + value."""
    if command == "solve":
        key, value = change
        path = write_config(tmp)
        cfg = read_json(path)
        if value is _MISSING:
            cfg.pop(key, None)
        else:
            cfg[key] = value
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        return ["solve", "--config", path, "--out", str(tmp / "out")]
    flags = {**_BASE_FLAGS[command], **change, "--out": str(tmp / "out")}
    if command == "converge":
        flags["--config"] = write_config(tmp)
    if command == "xnorm":
        save_path_csv(make_linear_path(0.5, 32), tmp / "lin.csv")
        if flags["--path"] is not _MISSING:
            flags["--path"] = str(tmp / flags["--path"])
    return [command] + [tok for flag, v in flags.items() if v is not _MISSING
                        for tok in ([f"{flag}={v}"] if sep == "=" else [flag, v])]


# enough examples for the derandomised search to exhaust the 207 cases
@settings(max_examples=300)
@given(case=st.sampled_from(_FUZZ_CASES))
@example(case=("solve", ("N", 400)))
@example(case=("solve", ("N", 10 ** 4)))
@example(case=("solve", ("scheme", "rk4")))
@example(case=_PAST_MAX)
@example(case=("verify-estimates", {"--N": "10000"}, " "))
@example(case=("xnorm", {"--s": "-1e9"}, " "))
def test_cli_config_fuzz(case):
    # one config key or one flag mutated: the command either runs or
    # fails with exit 2 or 3 and exactly one strict-JSON stderr line
    with tempfile.TemporaryDirectory() as tmp:
        argv = _fuzz_argv(Path(tmp), *case)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rc = run_command(argv)
    assert rc in (0, 2, 3)
    if rc:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1, lines
        assert "Traceback" not in lines[0]
        diag = json.loads(lines[0], parse_constant=_reject_constant)
        assert set(diag) >= {"error", "message"}
    if case == _PAST_MAX:
        assert rc == 3 and "memory budget" in diag["message"]
