"""In-process paired A/B timing of two checkouts on one benchmark workload.

    python3 tools/ab.py PARENT_ROOT CHANGE_ROOT --workload automorphisms --seed 1 --passes 15

Loads the ``src/geodisc`` package of each checkout root into this one
process, each under its own ``sys.modules`` entries, and swaps the entries
before each side runs.  The inputs, chunks and item runners are those of
this checkout's ``bench/workloads.py``, imported unchanged, so both sides
run the same calls on the same inputs.  Each pass times every chunk once on
each side, back to back, and the side that goes first alternates from pass
to pass.  A side's time is the sum over chunks of its best time for that
chunk.  Printed: microseconds per item for each side and the ratio A / B of
the two times (above 1 where B is faster); the last line is the same as one
JSON object.  The exit status is 1 when the encoded outputs of the two sides
differ on any chunk of any pass.

Pairing the two sides chunk by chunk in one process cancels most of the
speed drift of a shared machine, which separate benchmark runs only average
out over many repeats.
"""

import argparse
import gc
import importlib
import json
import pkgutil
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent.parent / "bench"
PACKAGE = "geodisc"


def _package_modules() -> list[str]:
    return [name for name in sys.modules if name == PACKAGE or name.startswith(PACKAGE + ".")]


def activate(modules: dict) -> None:
    """Make `modules` the package and submodules that imports resolve to."""
    for name in _package_modules():
        del sys.modules[name]
    sys.modules.update(modules)


def load(root: Path) -> dict:
    """The package of a checkout root with all its submodules, imported anew."""
    activate({})
    src = str(root / "src")
    sys.path.insert(0, src)
    try:
        pkg = importlib.import_module(PACKAGE)
        for info in pkgutil.iter_modules(pkg.__path__):
            importlib.import_module(f"{PACKAGE}.{info.name}")
    finally:
        sys.path.remove(src)
    return {name: sys.modules[name] for name in _package_modules()}


def main(argv=None) -> int:
    sys.dont_write_bytecode = True  # leave both checkouts and bench/ as they are
    sys.path.insert(0, str(BENCH))
    import workloads as wl

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("root_a", type=Path, help="checkout root of side A, the reference")
    p.add_argument("root_b", type=Path, help="checkout root of side B")
    p.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--passes", type=int, default=15)
    args = p.parse_args(argv)
    if args.passes < 1:
        p.error("--passes must be at least 1")
    for root in (args.root_a, args.root_b):
        if not (root / "src" / PACKAGE / "__init__.py").is_file():
            p.error(f"{root} has no src/{PACKAGE} package")

    sides = [load(args.root_a), load(args.root_b)]
    inputs = wl.make_inputs(args.workload, args.seed)
    chunks = wl.chunks(args.workload, inputs)
    best = [[float("inf")] * len(chunks) for _ in sides]
    mismatches = 0
    gc.collect()
    gc.freeze()  # the inputs and both packages stay out of the collector's scans
    for n in range(args.passes):
        order = (0, 1) if n % 2 == 0 else (1, 0)
        for k, chunk in enumerate(chunks):
            encoded = [None, None]
            for s in order:
                activate(sides[s])
                t0 = perf_counter()
                out = wl.run_chunk(args.workload, inputs, chunk)
                t = perf_counter() - t0
                best[s][k] = min(best[s][k], t)
                encoded[s] = wl.encode(out)
            mismatches += encoded[0] != encoded[1]

    items = wl.item_count(args.workload, inputs)
    a_s, b_s = sum(best[0]), sum(best[1])
    result = {"workload": args.workload, "seed": args.seed, "passes": args.passes, "items": items,
              "a_us_per_item": 1e6 * a_s / items, "b_us_per_item": 1e6 * b_s / items,
              "ratio": a_s / b_s, "identical": mismatches == 0}
    print(f"{args.workload}, seed {args.seed}: best of {args.passes} passes per chunk, {items} items")
    print(f"A {args.root_a}: {result['a_us_per_item']:.3f} us/item")
    print(f"B {args.root_b}: {result['b_us_per_item']:.3f} us/item")
    print(f"A / B: {result['ratio']:.4f}")
    print("outputs: identical" if mismatches == 0 else f"outputs: {mismatches} chunk(s) differ")
    print(json.dumps(result))
    return 0 if mismatches == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
