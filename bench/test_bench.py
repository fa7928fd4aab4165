"""Tests of the benchmark itself: pinned-output checks, the tracer, exit codes.

    python3 -m pytest -q bench
"""

import csv
import json
import os
import random
import shutil
import subprocess
import sys

import pytest

import run
import tracer
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _fake_sweep(cfg, out):
    """sweep.json / sweep.csv as a correct program writes them for `cfg`."""
    fibers, rows = [], []
    for fiber in cfg["fibers"]:
        pin = workloads.SWEEP_HK[workloads.SWEEP_FIBERS.index(fiber)]
        fibers.append({"samples": [{"e": i + 1, "length": n} for i, n in enumerate(pin)]})
        rows += [("t=s", i + 1, 2 ** (i + 1), n) for i, n in enumerate(pin)]
    payload = {
        "fibers": fibers,
        "hs_rows": [{"lengths": list(workloads.SWEEP_HS)} for _ in cfg["fibers"]],
        "verdicts": {name: {"passed": True} for name in workloads.SWEEP_VERDICTS},
        "uniform": dict(workloads.SWEEP_FRACTIONS),
    }
    with open(os.path.join(out, "sweep.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    _write_csv(os.path.join(out, "sweep.csv"), ("fiber", "e", "q", "length"), rows)


def test_seed_permutes_order_but_not_the_set_of_cells():
    a = workloads.sweep_config(random.Random(1))
    b = workloads.sweep_config(random.Random(1))
    c = workloads.sweep_config(random.Random(2))
    assert a == b
    assert sorted(map(json.dumps, a["fibers"])) == sorted(map(json.dumps, c["fibers"]))
    grid = workloads.rsig_config(random.Random(3))["grid"]
    assert len(set(grid)) == 16
    assert sorted(workloads.modp_config(random.Random(4))["primes"]) == [2, 3, 5]


def test_sweep_checker_matches_by_position(tmp_path):
    cfg = workloads.sweep_config(random.Random(7))
    _fake_sweep(cfg, tmp_path)
    results = workloads.sweep_check(cfg, str(tmp_path))
    assert len(results) == 5 * 5 + 5 * 8 + 4 + 2
    assert all(ok for _, ok in results)
    # the two t=s fibers share a label; swapping their rows must be caught
    i, j = sorted(cfg["fibers"].index(f) for f in workloads.SWEEP_FIBERS[3:])
    payload = json.load(open(tmp_path / "sweep.json"))
    payload["fibers"][i], payload["fibers"][j] = payload["fibers"][j], payload["fibers"][i]
    json.dump(payload, open(tmp_path / "sweep.json", "w"))
    bad = [name for name, ok in workloads.sweep_check(cfg, str(tmp_path)) if not ok]
    assert bad == [f"hk[{i}][e=4]", f"hk[{i}][e=5]", f"hk[{j}][e=4]", f"hk[{j}][e=5]"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_missing_outputs_fail_every_output(tmp_path, name):
    w = workloads.WORKLOADS[name]
    results = w.check(w.make_config(random.Random(0)), str(tmp_path))
    assert results and not any(ok for _, ok in results)


def test_altered_pin_fails_the_run(monkeypatch, capsys):
    monkeypatch.setitem(workloads.MODP_HK, 2, (8, 44, 197))
    monkeypatch.setattr(run, "MIN_RUNS", 1)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    code = run.main(["--workload", "modp-prime", "--seed", "0", "--seconds", "0"])
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert report["correct"] is False
    assert report["failed"] == 1 and report["attempted"] == 3 * 3 + 2


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "rsig-cubic", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_and_outside_in_calls():
    names = [
        "cli.main",
        "groebner.colength",
        "groebner.GroebnerBasis.colength",
        "coeff.PrimeField.mul",
        "coeff.PrimeField.pow",
    ]
    spans = {
        "names": names,
        "threads": [{
            # main [0,100] > colength fn [10,60] > colength method [12,58] > mul [20,30]
            # main > pow [70,90] > mul [75,80]
            "name": [0, 1, 2, 3, 4, 3],
            "start": [0, 10, 12, 20, 70, 75],
            "end": [100, 60, 58, 30, 90, 80],
            "parent": [-1, 0, 1, 2, 0, 4],
            "attrs": {"2": {"value": 7, "e": 3}},
        }],
    }
    self_ns, calls = tracer._per_group(spans)
    assert self_ns == {"cli.main": 30, "groebner.colength": 40, "coeff.fp": 30}
    assert calls == {"cli.main": 1, "groebner.colength": 1, "coeff.fp": 2}
    metrics = tracer.summarize(spans)
    assert metrics["groebner.colength.sum"] == 7
    assert metrics["multiplicity.hk_e3_s"] == pytest.approx(46e-9)
    assert metrics["cli.self_s"] == pytest.approx(30e-9)


def test_tracer_wraps_every_binding_and_restores_them():
    from hklab import groebner, multiplicity
    from hklab.coeff import PrimeField
    from hklab.polyring import IdealPresentation, PolynomialRing

    original = groebner.buchberger
    ring = PolynomialRing(PrimeField(3), ("x", "y"))
    x, y = ring.gens()
    R = multiplicity.QuotientRingSpec(ring, (x * x - y * y * y,))
    I = IdealPresentation(ring, (x, y))

    def traced_counts():
        t = tracer.Tracer()
        t.install()
        try:
            assert multiplicity.buchberger is groebner.buchberger is not original
            lengths = [s.length for s in multiplicity.hk_function(R, I, 3)]
        finally:
            t.uninstall()
        return lengths, tracer.summarize(t.spans())

    lengths, metrics = traced_counts()
    assert groebner.buchberger is original and multiplicity.buchberger is original
    assert "div" not in PrimeField.__dict__
    assert not hasattr(PrimeField.mul, "__wrapped__")
    assert lengths == [s.length for s in multiplicity.hk_function(R, I, 3)]
    assert metrics["multiplicity.hk_function.calls"] == 1
    assert metrics["groebner.buchberger.calls"] == 3
    assert metrics["groebner.colength.calls"] >= 3
    assert metrics["multiplicity.hk_e3_s"] > 0
    again = traced_counts()[1]
    assert again.keys() == metrics.keys()
    assert {k: v for k, v in again.items() if not k.endswith("_s")} == {
        k: v for k, v in metrics.items() if not k.endswith("_s")}
