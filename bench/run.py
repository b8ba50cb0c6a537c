"""Benchmark of the geodisc package: end-to-end runs and a traced run.

    python3 bench/run.py --workload verify-fat --seed 1 --seconds 35 --trace 0

Run it from the root of a checkout; it imports the package from ``src``.
With ``--trace 0`` it runs one child, ``bench/driver.py``, which imports the
package, times passes over the workload's inputs against a reference unit,
and times no-work calls of the ``geodisc`` CLI; it reports set-up time,
throughput, CPU per item and peak RSS, and this process checks the child's
results.  With ``--trace 1`` it feeds the same inputs through the package
in-process and reports per-layer metrics from spans.  Every metric is
printed by name with its unit; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A
result file with the environment and the input digest is written to
``.bench_out/``.
"""

import os

# One thread per process, here and in every child: set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import selectors  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CHILD_SLACK_S = 60.0  # the timed child's limit beyond --seconds
REF_UNIT_S = 1e-3  # the reference unit of bench/driver.py counts as 1 ms
STDERR_TAIL = 2000


@dataclass
class Child:
    wall_s: float
    rss_mb: float
    rc: int
    out: bytes
    err: bytes
    timed_out: bool


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("GEODISC_WORKERS", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list[str], timeout: float) -> Child:
    """Run one child to its end; its peak RSS comes from wait4."""
    t0 = perf_counter()
    # its own process group, so that a kill also reaches the set-up calls it runs
    proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    chunks = {proc.stdout: [], proc.stderr: []}
    timed_out = False
    try:
        with selectors.DefaultSelector() as sel:
            for f in chunks:
                sel.register(f, selectors.EVENT_READ)
            while sel.get_map():
                left = t0 + timeout - perf_counter()
                if left <= 0 and not timed_out:
                    os.killpg(proc.pid, signal.SIGKILL)
                    timed_out = True
                for key, _ in sel.select(timeout=1.0 if timed_out else left):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    _, status, usage = os.wait4(proc.pid, 0)
    wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    out = b"".join(chunks[proc.stdout])
    return Child(wall, usage.ru_maxrss / 1024.0, proc.returncode,
                 out, b"".join(chunks[proc.stderr]), timed_out)


def _import_package():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import geodisc

    if SRC.resolve() not in Path(geodisc.__file__).resolve().parents:
        raise SystemExit(f"geodisc was imported from {geodisc.__file__}, not from {SRC}")
    return geodisc


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    """Run the timed child, which also times the set-up calls; then check.

    A child started by vfork takes the parent's peak RSS into its own
    ru_maxrss at exec, so the parent loads numpy, the package and the checks
    only after the timed child has ended.
    """
    work = run_child([sys.executable, str(BENCH / "driver.py"), "--workload", workload,
                      "--seed", str(seed), "--seconds", str(seconds)], timeout=seconds + CHILD_SLACK_S)

    import check
    import workloads as wl

    _import_package()
    inputs = wl.make_inputs(workload, seed)
    items = wl.item_count(workload, inputs)
    crash = {"rc": work.rc, "timed_out": work.timed_out,
             "stderr_tail": work.err[-STDERR_TAIL:].decode(errors="replace")}
    try:
        rep = json.loads(work.out) if work.rc == 0 and not work.timed_out else None
    except ValueError:
        rep = None
    if rep is None or b"Traceback (most recent call last)" in work.err:
        return {"metrics": {}, "attempted": items, "failed": items, "crashes": [crash],
                "problems": ["the timed child crashed, timed out or printed no result"]}

    results = rep["results"]
    problems = []
    if any(rc != 0 for _, rc, _ in rep["setups"]):
        problems.append("a no-work set-up call failed")
    if rep["inputs_sha256"] != wl.digest(inputs):
        problems.append("the timed child made other inputs than this process")
    checks = check.Checks()
    if rep["items"] != items or len(results) != sum(c[3] - c[2] for c in wl.chunks(workload, inputs)):
        problems.append("the timed child's results do not match the inputs")
    else:
        checks.run(workload, inputs, results)
    if len(rep["digests"]) != 1:
        problems.append(f"{rep['passes']} passes over the same inputs gave {len(rep['digests'])} different outputs")
    failed = wl.program_failures(results) + checks.missed
    metrics = {
        "setup_s": (median(t for t, _, _ in rep["setups"]), "s"),
        "items_per_s": (items / (rep["wall_units"] * REF_UNIT_S), "1/s"),
        "cpu_ms_per_item": (rep["cpu_units"] * REF_UNIT_S * 1e3 / items, "ms"),
        "peak_rss_mb": (work.rss_mb, "MB"),
    }
    return {"metrics": metrics, "attempted": items, "failed": failed, "problems": problems,
            "extra": {"passes": rep["passes"],
                      "setup_ref_s": median(t / u for t, _, u in rep["setups"]) * REF_UNIT_S,
                      **{k: v for k, (v, _) in checks.metrics().items()}},
            "setups_s": [t for t, _, _ in rep["setups"]], "run_wall_s": work.wall_s}


def environment(seed: int, inputs_digest: str, loadavg_start) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "mpmath": version("mpmath"),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(loadavg_start),
        "loadavg_end": list(os.getloadavg()),
        "platform": platform.platform(),
        "seed": seed,
        "inputs_sha256": inputs_digest,
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=("verify-fat", "sweep-wide", "automorphisms"), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()
    # on SIGTERM, unwind so that a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "geodisc" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC / 'geodisc'}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    import workloads as wl

    OUT.mkdir(exist_ok=True)
    loadavg_start = os.getloadavg()

    if args.trace:
        _import_package()
        from traced import traced_run

        try:
            res = traced_run(args.workload, args.seed, args.seconds,
                             OUT / f"trace_{args.workload}_seed{args.seed}.jsonl")
        except Exception:
            tail = traceback.format_exc()[-STDERR_TAIL:]
            print(tail, file=sys.stderr)
            items = wl.item_count(args.workload, wl.make_inputs(args.workload, args.seed))
            res = {"metrics": {}, "attempted": items, "failed": items, "problems": ["the traced run raised"],
                   "crashes": [{"stderr_tail": tail}]}
    else:
        res = end_to_end(args.workload, args.seed, args.seconds)

    correct = not res["problems"]
    env = environment(args.seed, wl.digest(wl.make_inputs(args.workload, args.seed)), loadavg_start)
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds, "environment": env,
              "correct": correct, **{k: v for k, v in res.items() if k != "metrics"},
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()}}
    (OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")

    for line in res.get("table", []):
        print(line)
    for name, (value, unit) in res["metrics"].items():
        print(f"{name:44s} {value:14.6g} {unit}")
    for name, value in res.get("extra", {}).items():
        print(f"{name:44s} {value:14.6g}")
    for name in res.get("absent", []):
        print(f"{name:44s} {'absent':>14s}")
    for prob in res["problems"]:
        print(f"problem: {prob}")
    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
