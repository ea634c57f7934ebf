"""Subcommand behavior: exit codes, artifacts, config echo, replay."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from nonnegcone.cli import main
from nonnegcone.core import Polynomial
from nonnegcone.families import loewy_general

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def src_env() -> dict:
    """The environment with src first on PYTHONPATH, for subprocesses."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out.strip() else None
    return code, doc, captured.err


def test_check_member_exit_zero(capsys):
    code, doc, _ = run_cli(capsys, "check", "[1,-2,1]", "--n", "1")
    assert code == 0
    assert doc["verdict"]["kind"] == "exact_member"
    assert doc["run_config"]["command"] == "check"
    assert doc["necessary_condition_failures"] == []


def test_check_refuted_exit_one(capsys):
    code, doc, _ = run_cli(capsys, "check", "[1,-2.5,1]", "--n", "1")
    assert code == 1
    assert doc["verdict"]["kind"] == "refuted"
    w = doc["verdict"]["witness"]
    x = w["rho"]
    assert 1.0 - 2.5 * x + x * x == pytest.approx(w["value"])
    kinds = {f["kind"] for f in doc["necessary_condition_failures"]}
    assert "halfline" in kinds


def test_check_matrix_case(capsys):
    coeffs = json.dumps(list(loewy_general(2, 2, 0, 2.1).coeffs))
    code, doc, _ = run_cli(capsys, "check", coeffs, "--n", "2",
                           "--restarts", "30", "--seed", "4")
    assert code == 1
    w = doc["verdict"]["witness"]
    assert w["value"] < 0.0
    s = np.array(w["s"])
    assert np.abs(s.sum(axis=1) - 1.0).max() < 1e-9


def test_check_malformed_input(capsys):
    code, doc, err = run_cli(capsys, "check", "[1,-2.5", "--n", "1")
    assert code == 2
    assert doc is None
    assert "malformed" in err


def test_maxt_scalar_family(capsys, tmp_path):
    out = tmp_path / "interval.json"
    code, doc, _ = run_cli(capsys, "maxt", "loewy", "--n", "1", "--m", "1",
                           "--s", "0", "--out", str(out))
    assert code == 0
    lo, hi = doc["interval"]
    assert lo <= 2.0 <= hi and hi - lo <= 0.01
    assert json.loads(out.read_text()) == doc
    trace = (tmp_path / "interval.trace.csv").read_text().strip().split("\n")
    assert trace[0] == "t,refuted"
    assert len(trace) == len(doc["probes"]) + 1
    # the first probe is the upper bracket end and must be a refutation
    assert doc["probes"][0]["refuted"] is True


def test_maxt_no_upper_refutation(capsys):
    code, doc, _ = run_cli(capsys, "maxt", "alpha", "--n", "1")
    assert code == 1
    assert doc["error"] == "no_upper_refutation"


def test_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("NONNEG_CONE_SEED", "77")
    _, doc, _ = run_cli(capsys, "check", "[1,1]", "--n", "1")
    assert doc["run_config"]["seed"] == 77
    _, doc, _ = run_cli(capsys, "check", "[1,1]", "--n", "1", "--seed", "5")
    assert doc["run_config"]["seed"] == 5


def test_volume_artifacts(capsys, tmp_path):
    out = tmp_path / "vol.json"
    code, doc, _ = run_cli(capsys, "volume", "--n", "1", "--k", "2",
                           "--samples", "800", "--out", str(out))
    assert code == 0
    est = doc["estimate"]
    assert est["n_samples"] == 800 and est["bias"] == "Exact"
    csv_lines = (tmp_path / "vol.csv").read_text().strip().split("\n")
    assert csv_lines[0] == "k,n,N,fraction,ci_low,ci_high,bias,seed"
    assert csv_lines[1].startswith("2,1,800,")


def test_volume_replay_from_embedded_config(capsys):
    _, doc, _ = run_cli(capsys, "volume", "--n", "1", "--k", "3",
                        "--samples", "600", "--seed", "21")
    rc = doc["run_config"]
    _, doc2, _ = run_cli(capsys, "volume",
                         "--n", str(rc["params"]["n"]),
                         "--k", str(rc["params"]["k"]),
                         "--samples", str(rc["samples"]),
                         "--seed", str(rc["seed"]),
                         "--restarts", str(rc["restarts"]))
    assert doc2["estimate"] == doc["estimate"]


def test_family_output(capsys):
    code, doc, _ = run_cli(capsys, "family", "loewy", "--n", "2", "--m", "2",
                           "--s", "0", "--t", "2.0")
    assert code == 0
    assert doc["coefficients"] == [1.0, 1.0, -2.0, 1.0, 1.0]
    assert doc["degree"] == 4


def test_family_invalid_spec(capsys):
    code, doc, err = run_cli(capsys, "family", "loewy", "--n", "2",
                             "--m", "1", "--s", "0")
    assert code == 2 and doc is None and err


def test_decompose_member(capsys):
    code, doc, _ = run_cli(capsys, "decompose", "[1,0,1]")
    assert code == 0
    parts = [Polynomial(doc[k]) for k in ("f1", "f2", "g1", "g2")]
    rebuilt = parts[0] * parts[0] + parts[1] * parts[1] + \
        Polynomial([0, 1]) * (parts[2] * parts[2] + parts[3] * parts[3])
    target = Polynomial([1.0, 0.0, 1.0])
    diff = max(abs(a - b) for a, b in zip(
        list(rebuilt.coeffs) + [0.0] * 3, list(target.coeffs) + [0.0] * 3))
    assert diff <= 1e-12
    assert doc["residual"] <= 1e-12


def test_decompose_nonmember(capsys):
    code, doc, _ = run_cli(capsys, "decompose", "[-1]")
    assert code == 1
    assert doc["error"] == "not_nonnegative"


def test_normalize_roundtrip(capsys):
    code, doc, _ = run_cli(capsys, "normalize", "[[1,2],[3,4]]")
    assert code == 0
    assert doc["rho"] == pytest.approx(5.372281323269014, abs=1e-9)
    assert doc["roundtrip_error"] <= 1e-10
    s = np.array(doc["stochastic"])
    assert np.abs(s.sum(axis=1) - 1.0).max() <= 1e-12


def test_normalize_rejects_nonpositive(capsys):
    code, doc, err = run_cli(capsys, "normalize", "[[1,-1],[1,1]]")
    assert code == 2 and doc is None
    code, doc, err = run_cli(capsys, "normalize", "[[1,2,3],[4,5,6]]")
    assert code == 2 and "square" in err


def test_slice_curved_boundary(capsys):
    code, doc, _ = run_cli(capsys, "slice", "[1]", "[0,0,1]", "[0,-1]",
                           "--n", "1", "--grid", "3")
    assert code == 0
    for t, mu in doc["points"]:
        assert mu == pytest.approx(2.0 * np.sqrt(t * (1.0 - t)), abs=1e-3)
    assert doc["collinearity_residual"] > 0.01


def test_slice_bad_bracket(capsys):
    # refuted left endpoint: the segment does not start inside the cone
    code, doc, _ = run_cli(capsys, "slice", "[-1]", "[1]", "[0,1]",
                           "--n", "1", "--grid", "2")
    assert code == 1
    assert doc["error"] == "bad_bracket"


def test_slice_unbracketable_points_go_missing(capsys):
    code, doc, _ = run_cli(capsys, "slice", "[1]", "[1]", "[0,1]",
                           "--n", "1", "--grid", "2")
    assert code == 0
    assert doc["points"] == [] and len(doc["missing"]) == 2


def test_compare_trend_via_cli(capsys):
    code, doc, _ = run_cli(capsys, "compare", "trend",
                           '{"n":1,"ks":[2,3]}', "--samples", "500")
    assert code == 0
    rep = doc["report"]
    assert "monotone_decreasing" in rep and "confirmed" not in rep


def test_compare_bad_params(capsys):
    code, doc, err = run_cli(capsys, "compare", "order", '{"n_a":1}',
                             "--samples", "100")
    assert code == 2 and doc is None


def test_no_partial_output_on_error(capsys, tmp_path):
    out = tmp_path / "never.json"
    code, _, _ = run_cli(capsys, "check", "[oops", "--n", "1",
                         "--out", str(out))
    assert code == 2
    assert not out.exists()
    assert list(tmp_path.iterdir()) == []


def usage_exit(capsys, *argv):
    """Exit code of main, counting argparse's SystemExit, and the output."""
    try:
        code = main(list(argv))
    except SystemExit as e:
        code = e.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_threads_flag_rejected(capsys):
    code, out, _ = usage_exit(capsys, "check", "[1,1]", "--n", "1",
                              "--threads", "8")
    assert code == 2 and out == ""


MAXT = ("maxt", "loewy", "--n", "1", "--m", "1", "--s", "0")


@pytest.mark.parametrize("argv", [
    ("check", "[NaN,1,1]", "--n", "2"),
    ("check", "[Infinity,1]", "--n", "2"),
    ("check", "[%d,1]" % 10 ** 400, "--n", "2"),
    ("check", "[0]", "--n", "2"),
    ("check", "[1,1]", "--n", "0"),
    ("check", "[1,1]", "--n", "2", "--restarts", "0"),
    ("check", "[1,1]", "--n", "1", "--tol", "-1"),
    ("volume", "--n", "1", "--k", "2", "--samples", "0"),
    ("volume", "--n", "1", "--k", "-1"),
    ("volume", "--n", "1", "--k", "1", "--projection"),
    ("volume", "--n", "1", "--k", "2", "--z", "-1"),
    ("volume", "--n", "1", "--k", "4", "--projection", "--c-cap", "-1"),
    ("compare", "order", '{"n_a":null,"n_b":2,"k":2}', "--samples", "10"),
    ("compare", "trend", '{"n":1,"ks":5}', "--samples", "10"),
    ("slice", "[1]", "[0,0,1]", "[0,-1]", "--n", "1", "--grid", "0"),
    ("normalize", "[[NaN,1],[1,1]]"),
    MAXT + ("--width", "0"),
    MAXT + ("--width", "-0.01"),
    MAXT + ("--width", "nan"),
    MAXT + ("--t-hi", "0"),
    ("family", "loewy", "--n", "2", "--m", "2", "--s", "0", "--t", "nan"),
    ("family", "loewy", "--n", "2", "--m", "2", "--s", "0", "--t", "inf"),
    ("family", "alpha", "--n", "2", "--t", "1e308"),
    ("maxt", "alpha", "--n", "2", "--t-hi", "1e300"),
    ("check", "[1,1e300,-1e-300]", "--n", "1"),
    ("check", "[0,-1,1e300]", "--n", "1"),
], ids=lambda argv: " ".join(argv)[:40])
def test_hostile_input_is_a_usage_error(capsys, argv):
    code, out, err = usage_exit(capsys, *argv)
    assert code == 2 and out == ""
    assert err and "Traceback" not in err


def test_module_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "nonnegcone.cli", "family", "loewy",
         "--n", "1", "--m", "1", "--s", "0", "--t", "2.5"],
        capture_output=True, text=True, timeout=60, env=src_env())
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["coefficients"] == [1.0, -2.5, 1.0]


def test_cli_import_leaves_scipy_out():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, nonnegcone.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True, timeout=60, env=src_env())
    assert proc.returncode == 0 and proc.stdout.strip() == "False"


def test_console_script_help():
    exe = os.path.join(os.path.dirname(sys.executable), "nonnegcone")
    cmd = [exe, "--help"] if os.path.exists(exe) else \
        [sys.executable, "-m", "nonnegcone.cli", "--help"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60,
                          env=src_env())
    assert proc.returncode == 0
    for name in ("check", "maxt", "volume", "compare", "slice", "family",
                 "decompose", "normalize"):
        assert name in proc.stdout
