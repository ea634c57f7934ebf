"""Tests of the benchmark itself, on the tiny operation lists of --smoke."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import verify
from nonnegcone import cli

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(capsys, *argv):
    assert run.main(list(argv)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


def genuine_witness():
    coeffs = [1.0, 1.0, -3.0, 1.0, 1.0]
    _, code, doc, _ = run.call_cli(
        cli, ("check", json.dumps(coeffs), "--n", "2", "--restarts", "10"))
    assert code == 1
    return coeffs, doc["verdict"]["witness"]


def test_genuine_witness_accepted_and_tampered_copies_rejected():
    coeffs, w = genuine_witness()
    assert verify.witness_errors(coeffs, 2, w) == []
    assert verify.tamper_selftest(coeffs, 2, w) == []
    for bad in (dict(w, value=-w["value"]), dict(w, rho=0.0),
                dict(w, rho=-1.0), dict(w, s=[[0.0, 1.0], w["s"][1]])):
        assert verify.witness_errors(coeffs, 2, bad)


def test_volume_identities_are_checked():
    est = {"n": 1, "k": 4, "n_samples": 10, "n_inside": 4, "n_refuted": 5,
           "fraction": 0.4, "ci_low": 0.1, "ci_high": 0.7}
    assert verify._estimate_errors(est)
    assert not verify._estimate_errors(dict(est, n_refuted=6))
    assert verify._estimate_errors(dict(est, n_refuted=6, ci_high=0.3))


@pytest.mark.parametrize("workload", ["families", "volume-search",
                                      "volume-exact"])
def test_smoke_reports_every_end_to_end_metric(capsys, workload):
    lines, res = bench(capsys, "--workload", workload, "--seed", "5",
                       "--seconds", "0", "--trace", "0", "--smoke")
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())
    again, _ = bench(capsys, "--workload", workload, "--seed", "5",
                     "--seconds", "0", "--trace", "0", "--smoke")
    fp = [ln for ln in lines if ln.startswith("fingerprint")]
    assert fp and [ln for ln in again if ln.startswith("fingerprint")] == fp


def test_smoke_trace_reports_every_per_layer_metric(capsys):
    _, res = bench(capsys, "--workload", "volume-exact", "--seed", "5",
                   "--seconds", "0", "--trace", "1", "--smoke")
    assert res["correct"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    assert metrics["membership.restart.calls"] == 0
    assert metrics["volume.samples"] == 4 * 500
    assert metrics["volume.stage.inside_exact"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "families",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
