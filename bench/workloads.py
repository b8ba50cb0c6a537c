"""Workload definitions: seeded inputs, item runners and timing chunks.

Inputs are made here from the benchmark seed with numpy's PCG64, never with
the package's own samplers, so the program receives only generated inputs.
Entry points are looked up on the package's modules at call time, so that the
traced run sees its wrappers and a renamed function fails loudly.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math

WORKLOADS = ("verify-fat", "sweep-wide", "automorphisms")

# Sampled points of D(a, b) stay where the certificate is well conditioned:
# every coordinate of the lifted point has modulus at most 1 - MARGIN, and
# the dominant modulus exceeds the next one by at least a share TIE of it.
# Points nearer the boundary of the tridisc, or where two coordinates tie for
# dominance, are measured by the fixtures of the traced run (check.fixture_misses),
# not by the timed workloads.
MARGIN = 0.01
TIE = 1e-3

# Fixed hard cases, (a, b, z1, z2), found with the package's own sampler
# (lempert_verify at (0.8, 0.8) with seeds 8, 22 and 33; geodisc sweep with
# seeds 7 and 11 on the 3 x 3 grid a in [0.02, 20], b in [0.99, 20.5]): two
# convergence failures with |z3| within 1e-5 of 1, a disc off the variety
# where |z2| and |z3| tie to 2e-5, and three certificates that pass their own
# residual yet whose discs miss the target by 4e-7, 1e-6 and 3e-9, all with
# |z3| above 0.999.  The traced run counts those it does not certify.
FIXTURES = (
    (0.8, 0.8, 0.8035035523696945 - 0.28547648879861764j, 0.07984285114202017 - 0.7532957631102906j),
    (0.8, 0.8, -0.1814676078692723 + 0.46849426153451024j, -0.10924709492528795 + 0.7224358280738274j),
    (0.8, 0.8, 0.12380399371316808 - 0.5842038123837479j, 0.6539614549647932 - 0.6198339607637795j),
    (10.01, 10.745, -0.6287778060391143 - 0.3014976353631573j, 0.3302457861263741 - 0.7241557427803471j),
    (20.0, 20.5, 0.5629907798311138 - 0.4905226643343963j, -0.5647537603262622 - 0.18935645116913946j),
    (20.0, 20.5, 0.5153205695366978 + 0.8004770348578885j, -0.6694844258032555 + 0.3496152536016346j),
)

# verify-fat: the steady per-sample path on one fat lens, timed in chunks.
VERIFY_A, VERIFY_B = 0.8, 0.8
VERIFY_SAMPLES = 3000
VERIFY_CHUNK = 50

# sweep-wide: cells in the regime |a - b| < 1 < a + b, each with its own
# lens.  (0.02, 0.99) is thin near both |a - b| = 1 and a + b = 1;
# (10.01, 10.745) and (20, 20.5) are large and nearly equal, with fat own
# lenses and thin permuted lenses.  Each cell gets SWEEP_PER_LENS points for
# each of its three dominant coordinates, so every pass sets up all nine
# permuted lenses, each once and cold.
SWEEP_CELLS = ((0.02, 0.99), (10.01, 10.745), (20.0, 20.5))
SWEEP_PER_LENS = 20

# automorphisms: library calls per pass.
AUTO_TRANSPORTS = 400
AUTO_BALL_ITEMS = 800
AUTO_CHUNK = 25  # inputs per chunk: transports, or ball items of three calls

PERMS = ((0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (1, 0, 2), (2, 1, 0))


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _cj(z: complex) -> list[float]:
    return [z.real, z.imag]


def _c(p) -> complex:
    return complex(p[0], p[1])


# -- inputs --------------------------------------------------------------------
def _lift(a: float, b: float, z1: complex, z2: complex):
    den = a * z2 + b * z1 - 1.0
    if abs(den) < 1e-9:
        return None
    return (z1, z2, (a * z1 + b * z2 - z1 * z2) / den)


def dominant_index(z) -> int:
    return max(range(3), key=lambda i: (abs(z[i]), i))


def dab_point(rng, a: float, b: float, dominant: int | None = None) -> list[list[float]]:
    """A point (z1, z2) of D(a, b) inside the margins, optionally with the
    given coordinate of its lift dominant."""
    r = 1.0 - MARGIN
    for _ in range(1_000_000):
        z1 = complex(rng.uniform(-r, r), rng.uniform(-r, r))
        z2 = complex(rng.uniform(-r, r), rng.uniform(-r, r))
        if abs(z1) > r or abs(z2) > r:
            continue
        z = _lift(a, b, z1, z2)
        if z is None or abs(z[2]) > r:
            continue
        m = sorted(abs(v) for v in z)
        if m[2] - m[1] < TIE * m[2]:
            continue
        if dominant is None or dominant_index(z) == dominant:
            return [_cj(z1), _cj(z2)]
    raise RuntimeError(f"no point of D({a}, {b}) with coordinate {dominant} dominant")


def verify_inputs(seed: int, samples: int = VERIFY_SAMPLES) -> dict:
    import numpy as np

    rng = np.random.default_rng([seed, 1])
    return {"cells": [[VERIFY_A, VERIFY_B, [dab_point(rng, VERIFY_A, VERIFY_B) for _ in range(samples)]]]}


def sweep_inputs(seed: int, per_lens: int = SWEEP_PER_LENS) -> dict:
    """Per cell and dominant coordinate, one group of points: one permuted lens."""
    import numpy as np

    cells = []
    for k, (a, b) in enumerate(SWEEP_CELLS):
        for j in range(3):
            rng = np.random.default_rng([seed, 2, k, j])
            cells.append([a, b, [dab_point(rng, a, b, j) for _ in range(per_lens)]])
    return {"cells": cells}


def _rand_ball(rng, n: int, radius: float) -> list[complex]:
    v = [complex(x, y) for x, y in zip(rng.normal(size=n), rng.normal(size=n))]
    scale = radius * float(rng.uniform()) ** (1.0 / (2 * n)) / max(math.sqrt(sum(abs(x) ** 2 for x in v)), 1e-12)
    return [x * scale for x in v]


def is_retract(coeffs) -> bool:
    m = sorted(abs(complex(c)) for c in coeffs)
    return m[0] + m[1] <= m[2]


def _surface_point(rng, coeffs) -> tuple[complex, complex, complex]:
    """A point of the surface of `coeffs` from the graph over (z1, z2)."""
    a1, a2, a3 = coeffs
    while True:
        z1 = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
        z2 = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
        if abs(z1) >= 0.8 or abs(z2) >= 0.8:
            continue
        den = a3 - a2.conjugate() * z1 - a1.conjugate() * z2
        if abs(den) < 1e-6 * max(abs(a3), 1.0):
            continue
        z3 = (a3.conjugate() * z1 * z2 - a1 * z1 - a2 * z2) / den
        if abs(z3) < 0.999:
            return (z1, z2, z3)


def automorphism_inputs(seed: int, transports: int = AUTO_TRANSPORTS, ball_items: int = AUTO_BALL_ITEMS) -> dict:
    """Transport triples alternating between the two classes, each with a
    random permutation, rotations and a base point on its surface (as in
    acceptance criterion 6), and ball points and lines (criterion 8)."""
    import numpy as np

    rng = np.random.default_rng([seed, 6])
    triples = []
    for i in range(transports):
        while True:
            coeffs = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3)]
            if min(abs(c) for c in coeffs) > 0.1 and is_retract(coeffs) == (i % 2 == 1):
                break
        base = _surface_point(rng, coeffs)
        perm = PERMS[int(rng.integers(6))]
        rots = [cmath.exp(2j * math.pi * float(rng.uniform())) for _ in range(3)]
        triples.append({
            "alpha": [_cj(c) for c in coeffs],
            "perm": list(perm),
            "nu": [_cj(base[p]) for p in perm],
            "rot": [_cj(r) for r in rots],
        })
    balls = []
    for i in range(ball_items):
        n = 2 + i % 2
        a, z, w = (_rand_ball(rng, n, 0.95) for _ in range(3))
        base = _rand_ball(rng, n, 0.6)
        direction = [complex(x, y) for x, y in zip(rng.normal(size=n), rng.normal(size=n))]
        balls.append({
            "a": [_cj(c) for c in a], "z": [_cj(c) for c in z], "w": [_cj(c) for c in w],
            "base": [_cj(c) for c in base], "direction": [_cj(c) for c in direction],
        })
    return {"transport": triples, "ball": balls}


def make_inputs(workload: str, seed: int) -> dict:
    return {"verify-fat": verify_inputs, "sweep-wide": sweep_inputs,
            "automorphisms": automorphism_inputs}[workload](seed)


# -- chunks and items ----------------------------------------------------------
def chunks(workload: str, inputs: dict) -> list[tuple[str, int, int, int]]:
    """The timing chunks of a pass: (kind, group, start, stop).  Each chunk of
    sweep-wide is one permuted lens and starts with the caches cleared."""
    if workload == "automorphisms":
        out = []
        for kind in ("transport", "ball"):
            n = len(inputs[kind])
            out += [(kind, 0, s, min(s + AUTO_CHUNK, n)) for s in range(0, n, AUTO_CHUNK)]
        return out
    size = VERIFY_CHUNK if workload == "verify-fat" else SWEEP_PER_LENS
    return [("dab", g, s, min(s + size, len(pts)))
            for g, (_, _, pts) in enumerate(inputs["cells"]) for s in range(0, len(pts), size)]


def item_count(workload: str, inputs: dict) -> int:
    """One item per sampled point, or per library call for automorphisms."""
    if workload == "automorphisms":
        return len(inputs["transport"]) + 3 * len(inputs["ball"])
    return sum(len(pts) for _, _, pts in inputs["cells"])


def clear_caches() -> None:
    """Empty every lru_cache of the package, as in a fresh process."""
    import sys

    for name, mod in list(sys.modules.items()):
        if name == "geodisc" or name.startswith("geodisc."):
            for val in list(vars(mod).values()):
                if callable(getattr(val, "cache_clear", None)):
                    val.cache_clear()


def run_chunk(workload: str, inputs: dict, chunk, on_item=None) -> list:
    """Run one chunk; a GeodiscError is a per-item result, anything else raises."""
    from geodisc import errors

    kind, group, start, stop = chunk
    if workload == "sweep-wide" and start == 0:
        clear_caches()
    out = []
    for i in range(start, stop):
        if on_item:
            on_item((group, i))
        try:
            if kind == "dab":
                a, b, pts = inputs["cells"][group]
                out.append(dab_item(a, b, _c(pts[i][0]), _c(pts[i][1])))
            elif kind == "transport":
                out.append(transport_item(inputs["transport"][i]))
            else:
                out.append(ball_item(inputs["ball"][i]))
        except errors.GeodiscError as exc:
            out.append({"error": type(exc).__name__, "calls": 3 if kind == "ball" else 1})
    return out


def dab_item(a: float, b: float, z1: complex, z2: complex) -> dict:
    """The verifier's per-sample path: lift, permute the dominant coordinate
    third, build the geodesic certificate, and take the Caratheodory value."""
    from geodisc import metrics, varieties

    d = varieties.DomainDab(a, b)
    lifted = varieties.lift_to_M(d, (z1, z2))
    perm = metrics.dominant_permutation(lifted)
    ap, bp = metrics.permuted_parameters(a, b, perm)
    zp = tuple(lifted[p] for p in perm)
    cert = metrics.geodesic_through(ap, bp, zp, tol=metrics.MATCH_TOL)
    return {"cert": cert.to_json(), "c": metrics.c_dab(d, (0j, 0j), (z1, z2))}


def transport_item(t: dict):
    from geodisc import discgeom, varieties

    alpha = varieties.Alpha(*(_c(p) for p in t["alpha"]))
    maps = tuple(discgeom.MobiusMap(_c(nu), _c(r)) for nu, r in zip(t["nu"], t["rot"]))
    m = varieties.TridiscAutomorphism(perm=tuple(t["perm"]), maps=maps)
    return [_cj(c) for c in varieties.transport(alpha, m).coeffs()]


def ball_item(item: dict) -> dict:
    from geodisc import ball

    a, z, w = ([_c(p) for p in item[k]] for k in ("a", "z", "w"))
    line = ball.ComplexLine(base=tuple(_c(p) for p in item["base"]),
                            direction=tuple(_c(p) for p in item["direction"]))
    return {"cstar": ball.c_star_ball(w, z),
            "auto": [_cj(complex(c)) for c in ball.ball_automorphism(a, z)],
            "psi": ball.psi_l(line).to_json()}


def is_error(result) -> bool:
    return isinstance(result, dict) and "error" in result


def program_failures(results: list) -> int:
    """Items the program itself failed: an error, or for a certificate a
    residual or a match with the Caratheodory value outside the tolerance."""
    from geodisc import metrics

    tol = metrics.MATCH_TOL
    failed = 0
    for r in results:
        if is_error(r):
            failed += r["calls"]
        elif "cert" in r:
            cert = r["cert"]
            failed += not (cert["residual"] < tol and abs(r["c"] - cert["lempert_value"]) < tol)
    return failed


def encode(results: list) -> bytes:
    return (json.dumps(results, sort_keys=True) + "\n").encode()
