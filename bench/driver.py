"""Timed child process of an end-to-end run.

    python3 bench/driver.py --workload verify-fat --seed 1 --seconds 40

Imports geodisc from PYTHONPATH (bench/run.py points it at the checkout's
``src``), builds the workload's inputs, and runs passes over them until
``--seconds`` are used, at least MIN_PASSES.  Each pass runs the same chunks
in the same order.  Every chunk is timed on its own, in wall and in CPU time,
and is followed by a block of reference units that lasts as long as the
chunk did; the chunk's time is recorded in units of the block's time per
unit.  Between chunks, at SETUPS evenly spaced times, it waits for one no-work
call of the CLI and times it, again with a reference block after it.  It
prints one JSON object: the sum over chunks of each chunk's median over the
passes, the set-up times, the distinct digests of the passes' outputs, and
the first pass's results.

Why reference units: the machine this was written on is a shared VM whose
speed drifts by up to 2x, in steps lasting seconds to minutes.  A unit run
right after a chunk slows down with it: over 200 s, the median ratio of 60
verify-fat points to one unit, taken per 20 s window, spread 0.012 as
(Q3 - Q1) / median, against 0.09 for the chunk's fastest time and 0.13 for
its median time.
"""

import argparse
import gc
import hashlib
import json
import subprocess
import sys
from statistics import median
from time import perf_counter, process_time

import numpy as np

import workloads as wl

MIN_PASSES = 3
SETUPS = 10
SETUP_ARGV = [sys.executable, "-m", "geodisc.cli", "classify", "--alpha", "1,0", "1,0", "1,0"]


# The reference unit: fixed code of the benchmark's own, in the program's mix
# of Python complex arithmetic and small numpy calls.  It took 0.6 ms at the
# fast level and 1.1 ms at the slow level of the machine where this was
# written; bench/run.py counts it as 1 ms.
REF_STEPS = 50
_REF_COEFFS = np.array([1.0 + 0.5j, -0.25j, 0.75, 0.1 - 0.2j, -0.3])


def ref_unit() -> complex:
    rng = np.random.Generator(np.random.Philox(key=[7, 7]))
    s = 0j
    for _ in range(REF_STEPS):
        g = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        s += complex(np.polyval(_REF_COEFFS, g)) + abs(g * g + 1.0) / (abs(g) + 1.0)
        s += float(np.abs(_REF_COEFFS * g).max())
    return s


def ref_block(min_s: float) -> tuple[float, float]:
    """Wall and CPU time per reference unit, over units run for at least min_s."""
    n, t0, c0 = 0, perf_counter(), process_time()
    while n == 0 or perf_counter() - t0 < min_s:
        ref_unit()
        n += 1
    return (perf_counter() - t0) / n, (process_time() - c0) / n


def setup_call() -> tuple[float, int, float]:
    """Wall time, exit code and time per reference unit of one no-work call
    of the CLI.  No timeout: waiting with one polls at up to 50 ms steps,
    which would quantize the time; bench/run.py kills the whole process group
    if the run overruns."""
    t0 = perf_counter()
    rc = subprocess.run(SETUP_ARGV, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
    wall = perf_counter() - t0
    return wall, rc, ref_block(wall)[0]


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    args = p.parse_args()
    import geodisc  # noqa: F401

    inputs = wl.make_inputs(args.workload, args.seed)
    chunks = wl.chunks(args.workload, inputs)
    gc.freeze()
    wall = [[] for _ in chunks]  # per chunk and pass: its time in reference units
    cpu = [[] for _ in chunks]
    first, digests, passes, setups = None, set(), 0, []
    start = perf_counter()
    deadline = start + args.seconds
    while passes < MIN_PASSES or perf_counter() < deadline:
        results, digest = [], hashlib.sha256()
        for k, chunk in enumerate(chunks):
            if len(setups) < SETUPS and perf_counter() >= start + len(setups) * args.seconds / SETUPS:
                setups.append(setup_call())
            t0, c0 = perf_counter(), process_time()
            out = wl.run_chunk(args.workload, inputs, chunk)
            t1, c1 = perf_counter(), process_time()
            ref_wall, ref_cpu = ref_block(t1 - t0)
            wall[k].append((t1 - t0) / ref_wall)
            cpu[k].append((c1 - c0) / ref_cpu)
            digest.update(wl.encode(out))
            if first is None:
                results += out
        digests.add(digest.hexdigest())
        if first is None:
            first = results
            # keep the inputs and the kept results out of the collector's scans,
            # so that they do not slow the timed chunks
            gc.freeze()
        passes += 1
    while len(setups) < SETUPS:
        setups.append(setup_call())
    json.dump({"passes": passes, "setups": setups, "inputs_sha256": wl.digest(inputs),
               "items": wl.item_count(args.workload, inputs),
               "wall_units": sum(median(w) for w in wall), "cpu_units": sum(median(c) for c in cpu),
               "digests": sorted(digests),
               "results": first}, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
