"""The benchmark's calling contract, run as a fast test.

Imports ``bench/workloads.py`` and ``bench/check.py`` unchanged, runs the first
chunk of each kind of every workload through them, and requires every item to
succeed and pass its independent check.  A change to the package that breaks
what the benchmark calls fails here instead of at benchmark time.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH))
    sys.dont_write_bytecode, saved = True, sys.dont_write_bytecode  # leave bench/ as it is
    try:
        import check
        import workloads
    finally:
        sys.path.remove(str(BENCH))
        sys.dont_write_bytecode = saved
    return workloads, check


@pytest.mark.parametrize("workload", ["verify-fat", "sweep-wide", "automorphisms"])
def test_first_chunks_run_and_pass_checks(bench, workload):
    wl, check = bench
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
