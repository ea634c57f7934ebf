"""Subcommand behavior: exit codes, artifacts, config echo, replay."""

import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from nonnegcone import cli
from nonnegcone.cli import main
from nonnegcone.core import Polynomial
from nonnegcone.families import loewy_general
from nonnegcone.volume import wilson_interval

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


def test_seed_env_not_an_integer_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("NONNEG_CONE_SEED", "abc")
    code, doc, err = run_cli(capsys, "check", "[1,1]", "--n", "1")
    assert code == 2 and doc is None
    assert "NONNEG_CONE_SEED" in err


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


def test_normalize_close_second_eigenvalue(capsys):
    # eigenvalues 4.98 and 4.48; this exited 1 with no_convergence
    code, doc, _ = run_cli(
        capsys, "normalize", "[[4.573602132788537,0.16389052227603035],"
        "[0.22849918305669964,4.887750447262916]]")
    assert code == 0
    assert doc["rho"] == pytest.approx(4.97991742090621, rel=1e-12)
    assert doc["roundtrip_error"] < 1e-12


def test_normalize_rejects_nonpositive(capsys):
    code, doc, err = run_cli(capsys, "normalize", "[[1,-1],[1,1]]")
    assert code == 2 and doc is None
    code, doc, err = run_cli(capsys, "normalize", "[[1,2,3],[4,5,6]]")
    assert code == 2 and "square" in err


def _strict_json(text: str):
    """json.loads that rejects Infinity and NaN, which JSON does not have."""
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=reject)


def test_normalize_near_float_range_writes_valid_json(capsys, tmp_path):
    out = tmp_path / "n.json"
    code, _, _ = run_cli(capsys, "normalize", "[[1e308,1],[1,1]]",
                         "--out", str(out))
    assert code == 0
    doc = _strict_json(out.read_text())
    assert doc["rho"] == pytest.approx(1e308, rel=1e-12)
    s = np.array(doc["stochastic"])
    assert np.abs(s.sum(axis=1) - 1.0).max() <= 1e-12
    assert np.isfinite(doc["roundtrip_error"])
    # rho beyond the float range is a usage error, with nothing written
    code, _, err = run_cli(capsys, "normalize", "[[1e308,1e308],[1e308,1e308]]",
                           "--out", str(tmp_path / "never.json"))
    assert code == 2 and "float range" in err
    assert not (tmp_path / "never.json").exists()


@pytest.mark.parametrize("n", ["1", "2"])
def test_projection_top_rung_beyond_float_range_exits_2(capsys, tmp_path, n):
    # rows are completed with 16 c_cap, which overflows here
    out = tmp_path / "v.json"
    code, doc, err = run_cli(capsys, "volume", "--n", n, "--k", "4",
                             "--projection", "--c-cap", "1e308",
                             "--samples", "10", "--out", str(out))
    assert code == 2 and doc is None and "float range" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("params", [
    '{"n":true,"k_a":2,"k_b":6}',
    '{"n":1,"k_a":2.5,"k_b":6}',
    '{"n":1,"k_a":2,"k_b":"6"}',
])
def test_compare_rejects_non_integer_parameters(capsys, params):
    # int() would read true as 1 and 2.5 as 2 and run that, while the
    # artifact records the values given
    code, doc, err = run_cli(capsys, "compare", "degree", params,
                             "--samples", "5")
    assert code == 2 and doc is None
    assert "expected an integer" in err


def test_compare_reads_integral_floats(capsys):
    code, doc, _ = run_cli(capsys, "compare", "degree",
                           '{"n":1,"k_a":2.0,"k_b":6}', "--samples", "5")
    assert code == 0
    assert doc["report"]["estimates"][0]["k"] == 2


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


def test_compare_names_missing_params(capsys):
    # a missing key is named, as an unread one is, not shown as a bare
    # KeyError repr
    code, doc, err = run_cli(capsys, "compare", "order",
                             '{"n_a":1,"n_b":2}', "--samples", "10")
    assert code == 2 and doc is None
    assert "order needs ['k', 'n_a', 'n_b'], missing ['k']" in err


@pytest.mark.parametrize("ks", ["5", '"ab"'])
def test_compare_names_a_ks_that_is_not_a_list(capsys, ks):
    # ks is named with its value: a number is not iterated, and a string
    # is not read as a list of its characters
    code, doc, err = run_cli(capsys, "compare", "trend",
                             '{"n":1,"ks":%s}' % ks, "--samples", "10")
    assert code == 2 and doc is None
    assert f"trend needs ks as a list of degrees, got {json.loads(ks)!r}" \
        in err


@pytest.mark.parametrize("kind,params", [
    ("order", '{"n_a":2,"n_b":1,"k":2}'),
    ("degree", '{"n":1,"k_a":3,"k_b":2}'),
    ("projection", '{"n":1,"k":1}'),
])
def test_compare_bad_params_rejected_under_optimize(kind, params):
    # python -O strips assert statements; the parameter checks must stay
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "nonnegcone.cli", "compare", kind,
         params, "--samples", "5", "--restarts", "1"],
        capture_output=True, text=True, timeout=60, env=src_env())
    assert proc.returncode == 2
    assert proc.stdout == "" and "Traceback" not in proc.stderr


def test_no_partial_output_on_error(capsys, tmp_path):
    out = tmp_path / "never.json"
    code, _, _ = run_cli(capsys, "check", "[oops", "--n", "1",
                         "--out", str(out))
    assert code == 2
    assert not out.exists()
    assert list(tmp_path.iterdir()) == []


def test_failed_write_exits_2_and_leaves_no_temp_file(capsys, tmp_path):
    # --out names a directory: the temp file is written, the rename fails
    out = tmp_path / "taken"
    out.mkdir()
    code, doc, err = run_cli(capsys, "family", "loewy", "--n", "1", "--m",
                             "1", "--s", "0", "--out", str(out))
    assert code == 2 and doc is None
    assert err.startswith("error: cannot write")
    assert list(tmp_path.iterdir()) == [out] and list(out.iterdir()) == []


def test_failed_side_file_leaves_no_artifact(capsys, tmp_path):
    # the trace side file cannot be written: --out must not stay behind
    (tmp_path / "x.trace.csv").mkdir()
    out = tmp_path / "x.json"
    code, doc, err = run_cli(capsys, "maxt", "loewy", "--n", "1", "--m", "1",
                             "--s", "0", "--width", "0.5", "--out", str(out))
    assert code == 2 and doc is None
    assert err.startswith("error: cannot write")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.trace.csv"]
    assert list((tmp_path / "x.trace.csv").iterdir()) == []


@pytest.mark.parametrize("poly", ["[1e300,0,0,0,0,0,0,0,1e300]",
                                  "[1e300,1e300,-3e300,1e300,1e300]"])
@pytest.mark.parametrize("n", ["2", "3"])
def test_check_near_float_range_prints_no_warning(capsys, poly, n):
    # the probes and the restarts overflow to inf and NaN, which the search
    # maps or rejects; that is no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, doc, _ = run_cli(capsys, "check", poly, "--n", n,
                               "--restarts", "4")
    assert code == (0 if "-" not in poly else 1)
    assert doc["verdict"]["kind"] in ("refuted", "no_refutation_found")


@pytest.mark.parametrize("argv, fraction", [
    (("--k", "120"), 0.0468),
    (("--k", "2", "--projection", "--c-cap", "1e306", "--samples", "2000"),
     0.51),
])
def test_volume_grid_overflow_prints_no_warning(capsys, argv, fraction):
    # the grid's powers of x = 1000 overflow past degree 102, and a scan
    # value overflows at a huge coefficient, or meets inf - inf; that is no
    # numpy warning, and the estimate is the exact one
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, doc, err = run_cli(capsys, "volume", "--n", "1", *argv,
                                 "--seed", "1")
    assert code == 0 and err == ""
    est = doc["estimate"]
    assert est["fraction"] == fraction and est["bias"] == "Exact"


def usage_exit(capsys, *argv):
    """Exit code of main and the output."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv, code", [
    (("check", "[1,1]"), 2),                                 # --n missing
    (("check", "[1,1]", "--n", "1", "--restarts", "0"), 2),  # bad value
    (("nosuchcommand",), 2),
    (("--help",), 0),
    (("check", "--help"), 0),
])
def test_usage_error_and_help_return_their_code(capsys, argv, code):
    # main returns these codes like any other; it does not raise SystemExit
    assert main(list(argv)) == code
    captured = capsys.readouterr()
    usage, other = (captured.err, captured.out) if code else \
        (captured.out, captured.err)
    assert usage.startswith("usage:") and other == ""


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
    ("volume", "--n", "1", "--k", "2", "--samples", "0"),
    ("volume", "--n", "1", "--k", "-1"),
    ("volume", "--n", "1", "--k", "1", "--projection"),
    ("volume", "--n", "1", "--k", "4", "--projection", "--c-cap", "-1"),
    # --z is not an option: the interval level is the constant volume._Z
    ("volume", "--n", "1", "--k", "2", "--z", "-1"),
    ("volume", "--n", "1", "--k", "2", "--z", "1e200"),
    ("compare", "order", '{"n_a":null,"n_b":2,"k":2}', "--samples", "10"),
    ("compare", "trend", '{"n":1,"ks":5}', "--samples", "10"),
    ("compare", "trend", '{"n":1,"ks":[]}', "--samples", "10"),
    ("compare", "trend", '{"n":1,"ks":[3]}', "--samples", "10"),
    ("compare", "trend", '{"n":1,"ks":[6,2]}', "--samples", "10"),
    ("compare", "trend", '{"n":1,"ks":[2,2]}', "--samples", "10"),
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
    ("check", "[true,false,1]", "--n", "1"),
    ("normalize", '[["1","2"],[true,4]]'),
    ("family", "loewy", "--n", "1", "--m", "1", "--s", "0",
     "--out", "/missing-dir/x.json"),
    ("compare", "degree", '{"n":1,"k_a":2,"k_b":3,"extra":1}',
     "--samples", "10"),
    ("compare", "trend", '{"n":1,"ks":[2,3],"k":9}', "--samples", "10"),
    ("compare", "trend", '{"n":1,"ks":[2,3.5]}', "--samples", "10"),
    ("compare", "order", '{"n_a":1,"n_b":2,"k":false}', "--samples", "10"),
    ("normalize", "[[1e308,1e308],[1e308,1e308]]"),
], ids=lambda argv: " ".join(argv)[:40])
def test_hostile_input_is_a_usage_error(capsys, argv):
    code, out, err = usage_exit(capsys, *argv)
    assert code == 2 and out == ""
    assert err and "Traceback" not in err


@pytest.mark.parametrize("n", ["1", "2"])
def test_slice_ladder_beyond_float_range_is_a_usage_error(capsys, n):
    # the doubling ladder of the offset search takes 1e308 to inf
    code, out, err = usage_exit(capsys, "slice", "[1,1,-1,1,1]",
                                "[1,1,-1.5,1,1]", "[0,0,1e308]", "--n", n)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "float range" in err


# a short call of each subcommand, and the shared options it reads, in
# run_config order
SUBCOMMANDS = {
    "check": (("check", "[1,1]", "--n", "1"), ("seed", "restarts", "out")),
    "maxt": (MAXT + ("--width", "0.5"), ("seed", "restarts", "out")),
    "volume": (("volume", "--n", "1", "--k", "2", "--samples", "50"),
               ("seed", "restarts", "samples", "out")),
    "compare": (("compare", "degree", '{"n":1,"k_a":2,"k_b":3}',
                 "--samples", "50"),
                ("seed", "restarts", "samples", "out")),
    "slice": (("slice", "[1]", "[1]", "[0,1]", "--n", "1", "--grid", "1"),
              ("seed", "restarts", "out")),
    "family": (("family", "loewy", "--n", "1", "--m", "1", "--s", "0"),
               ("out",)),
    "decompose": (("decompose", "[1,0,1]"), ("out",)),
    "normalize": (("normalize", "[[1,2],[3,4]]"), ("out",)),
}
# a value for each shared option, and for --tol and --z, which no subcommand
# reads: the witness margin and the interval level are the constants
# membership._CONFIRM_TOL and volume._Z
SHARED_OPTIONS = {"seed": "9", "restarts": "3", "samples": "5", "tol": "0.5",
                  "z": "2", "out": "never.json"}


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_run_config_holds_the_options_read(capsys, command):
    argv, read = SUBCOMMANDS[command]
    code, doc, _ = run_cli(capsys, *argv)
    assert code == 0
    assert list(doc["run_config"]) == ["command", *read, "params"]


@pytest.mark.parametrize("command,option", [
    (command, option) for command, (_, read) in sorted(SUBCOMMANDS.items())
    for option in SHARED_OPTIONS if option not in read])
def test_option_not_read_is_rejected(capsys, command, option):
    argv = SUBCOMMANDS[command][0] + (f"--{option}", SHARED_OPTIONS[option])
    code, out, err = usage_exit(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("usage:") and \
        f"unrecognized arguments: --{option}" in err


@pytest.mark.parametrize("argv", [
    ("volume", "--n", "1", "--k", "2", "--samples", "700", "--seed", "4"),
    ("volume", "--n", "1", "--k", "4", "--projection", "--samples", "300"),
    ("compare", "order", '{"n_a":1,"n_b":2,"k":4}', "--samples", "500"),
], ids=["volume", "volume-projection", "compare-order"])
def test_estimates_report_the_wilson_interval_at_z_3(capsys, argv):
    code, doc, _ = run_cli(capsys, *argv)
    assert code == 0
    ests = [doc["estimate"]] if "estimate" in doc else \
        doc["report"]["estimates"]
    for e in ests:
        assert e["z"] == 3.0
        assert [e["ci_low"], e["ci_high"]] == \
            list(wilson_interval(e["n_inside"], e["n_samples"], 3.0))


def test_parser_reuse_leaks_no_state(capsys, monkeypatch):
    # one process, many main calls: each must print and exit as the same
    # argv does in a fresh process
    refuted = ("check", "[1,1,-3,1,1]", "--n", "2", "--restarts", "2")
    seq = [(("check", "[1,1]"), None),  # usage error: --n missing
           *[(argv, None) for argv, _ in SUBCOMMANDS.values()],
           (SUBCOMMANDS["family"][0] + ("--seed", "9"), None),
           (refuted, "3"), (refuted, "4"),
           (("check", "[1,1]", "--n", "1", "--seed", "5"), None),
           (("check", "[1,1]", "--n", "1"), None),
           *[(argv, "7") for argv, _ in reversed(SUBCOMMANDS.values())]]
    parser = cli._parser()
    seen = []
    for argv, seed in seq:
        if seed is None:
            monkeypatch.delenv("NONNEG_CONE_SEED", raising=False)
        else:
            monkeypatch.setenv("NONNEG_CONE_SEED", seed)
        code, out, _ = usage_exit(capsys, *argv)
        seen.append((argv, seed, code, out))
    assert cli._parser() is parser
    fresh = {}
    for argv, seed, code, out in seen:
        if (argv, seed) not in fresh:
            env = src_env()
            env.pop("NONNEG_CONE_SEED", None)
            if seed is not None:
                env["NONNEG_CONE_SEED"] = seed
            fresh[argv, seed] = subprocess.run(
                [sys.executable, "-m", "nonnegcone.cli", *argv],
                capture_output=True, text=True, timeout=60, env=env)
        proc = fresh[argv, seed]
        assert (code, out) == (proc.returncode, proc.stdout), (argv, seed)
    assert {code for _, _, code, _ in seen} == {0, 1, 2}


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
