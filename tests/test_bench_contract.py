"""The benchmark's calling contract, run as a fast test.

Imports ``bench/workloads.py``, ``bench/check.py`` and ``bench/traced.py``
unchanged.  Runs the first chunk of each kind of every workload through them,
and requires every item to succeed and pass its independent check.  Runs one
short traced run of every workload and requires a well-formed result: every
per-layer metric of ``BENCHMARK.json``, finite and strict JSON.  A change to
the package that breaks what the benchmark calls fails here instead of at
benchmark time.
"""

import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WORKLOADS = ["verify-fat", "sweep-wide", "automorphisms"]


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH))
    sys.dont_write_bytecode, saved = True, sys.dont_write_bytecode  # leave bench/ as it is
    try:
        import check
        import traced
        import workloads
    finally:
        sys.path.remove(str(BENCH))
        sys.dont_write_bytecode = saved
    return workloads, check, traced


@pytest.mark.parametrize("workload", WORKLOADS)
def test_first_chunks_run_and_pass_checks(bench, workload):
    wl, check, _ = bench
    assert workload in wl.WORKLOADS
    inputs = wl.make_inputs(workload, 1)
    first = {}
    for chunk in wl.chunks(workload, inputs):
        first.setdefault(chunk[0], chunk)
    checks = check.Checks()
    for kind, group, start, stop in first.values():
        results = wl.run_chunk(workload, inputs, (kind, group, start, stop))
        assert len(results) == stop - start
        assert not [r for r in results if wl.is_error(r)]
        assert wl.program_failures(results) == 0
        json.loads(wl.encode(results))
        for i, res in zip(range(start, stop), results):
            if kind == "dab":
                a, b, pts = inputs["cells"][group]
                assert checks.certificate(a, b, wl._c(pts[i][0]), wl._c(pts[i][1]), res)
            elif kind == "transport":
                checks.transport(inputs["transport"][i], res, i)
            else:
                checks.ball(inputs["ball"][i], res, i)
    assert set(first) == ({"transport", "ball"} if workload == "automorphisms" else {"dab"})
    assert (checks.disc_miss, checks.transport_miss, checks.ball_miss, checks.missed) == (0, 0, 0, 0)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(bench, workload, tmp_path):
    traced = bench[2]
    res = traced.traced_run(workload, 1, 0.0, tmp_path / "spans.jsonl")
    assert (res["absent"], res["problems"], res["failed"]) == ([], [], 0)
    metrics = res["metrics"]
    per_layer = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    assert [name for name in per_layer if name not in metrics] == []
    assert [name for name, (value, _) in metrics.items() if not math.isfinite(value)] == []
    # the fixtures are known hard cases: counted, not yet all solved
    assert 0 <= metrics["check.fixture_misses"][0] <= 6
    # the last line bench/run.py prints
    line = {"correct": not res["problems"], "attempted": res["attempted"], "failed": res["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    json.loads(json.dumps(line, allow_nan=False))
