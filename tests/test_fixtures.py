"""Regression cases: hard targets found by sampling, each of which must now
certify.  The returned disc is checked here without `_certify_disc` or
`RationalMap.__call__`: its JSON is reloaded and its components are evaluated
from their coefficients, the defining equation is written out, and the
denominators' roots come from `oracle.quadratic_roots`."""

import cmath
import json
import math
import random
from collections import Counter

import pytest

from geodisc.discgeom import Quadratic
from geodisc.errors import DomainError, GeodiscError
from geodisc.geodesics import MINUS, PLUS, RESIDUAL_TOL, AnalyticDisc, Lens, _certify_disc
from geodisc.metrics import MATCH_TOL, _intersection_candidates, c_dab, geodesic_through
from geodisc.oracle import quadratic_roots
from geodisc.varieties import DomainDab

# Fixed hard cases, (a, b, z1, z2), found with the package's own sampler
# (lempert_verify at (0.8, 0.8) with seeds 8, 22 and 33; geodisc sweep with
# seeds 7 and 11 on the 3 x 3 grid a in [0.02, 20], b in [0.99, 20.5]): two
# convergence failures with |z3| within 1e-5 of 1, a disc off the variety
# where |z2| and |z3| tie to 2e-5, and three certificates that pass their own
# residual yet whose discs miss the target by 4e-7, 1e-6 and 3e-9, all with
# |z3| above 0.999.  These failures were those of an iterative inversion.
# Sample 1284 of lempert_verify at (0.02, 0.99) with seed 5
# (|z3| = 0.99959) failed with ConvergenceFailure while the pair was read
# off the target in unscaled unknowns.  The last sits on a near-tie lens
# (a + b = 1 to rounding) with z1 dominant, so it runs on the thin permuted
# lens (969.65, 968.65); it failed with ConvergenceFailure while
# `_certify_disc` bounded the residual coefficients by RESIDUAL_TOL |q|
# without a rounding margin.
FIXTURES = (
    (0.8, 0.8, 0.8035035523696945 - 0.28547648879861764j, 0.07984285114202017 - 0.7532957631102906j),
    (0.8, 0.8, -0.1814676078692723 + 0.46849426153451024j, -0.10924709492528795 + 0.7224358280738274j),
    (0.8, 0.8, 0.12380399371316808 - 0.5842038123837479j, 0.6539614549647932 - 0.6198339607637795j),
    (10.01, 10.745, -0.6287778060391143 - 0.3014976353631573j, 0.3302457861263741 - 0.7241557427803471j),
    (20.0, 20.5, 0.5629907798311138 - 0.4905226643343963j, -0.5647537603262622 - 0.18935645116913946j),
    (20.0, 20.5, 0.5153205695366978 + 0.8004770348578885j, -0.6694844258032555 + 0.3496152536016346j),
    (0.02, 0.99, -0.08697140915812618 - 0.12407810735888192j, 0.9862877311456675 + 0.10246796404590008j),
    (0.0010313035797579206, 0.9989686964202422, -0.9188617225789204 + 0.07970774783235579j, 0j),
)

# 64 interior nodes: eight radii up to 0.96 on eight rays each
NODES = [0.96 * (k % 8 + 1) / 8 * cmath.exp(2j * math.pi * (k + 0.37) / 64) for k in range(64)]
# the unit circle, where the residual, holomorphic on the closed disc, peaks
CIRCLE = [cmath.exp(2j * math.pi * k / 4096) for k in range(4096)]


def _value(coeffs, lam):
    """Polynomial with descending coefficients, as a plain sum of powers."""
    n = len(coeffs) - 1
    return sum(c * lam ** (n - i) for i, c in enumerate(coeffs))


def _disc_at(disc, lam):
    return [_value(c.num, lam) / _value(c.den, lam) for c in disc.components]


def _permuted_target(a, b, z1, z2):
    """Lift to the variety of (a, b, 1), put the dominant coordinate third,
    and return the permuted parameters (a', b') with the permuted point."""
    z = (z1, z2, (a * z1 + b * z2 - z1 * z2) / (a * z2 + b * z1 - 1.0))
    k = max(range(3), key=lambda i: (abs(z[i]), i))
    perm = {0: (2, 1, 0), 1: (0, 2, 1), 2: (0, 1, 2)}[k]
    alpha = (a, b, 1.0)
    return alpha[perm[0]] / alpha[perm[2]], alpha[perm[1]] / alpha[perm[2]], tuple(z[p] for p in perm)


@pytest.mark.parametrize("fixture", FIXTURES, ids=[f"fixture{i}" for i in range(len(FIXTURES))])
def test_fixture_certifies(fixture):
    a, b, z1, z2 = fixture
    ap, bp, zp = _permuted_target(a, b, z1, z2)
    cert = geodesic_through(ap, bp, zp)
    assert cert.residual <= MATCH_TOL
    assert abs(c_dab(DomainDab(a, b), (0j, 0j), (z1, z2)) - cert.lempert_value) <= MATCH_TOL

    obj = json.loads(json.dumps(cert.to_json()))
    disc = AnalyticDisc.from_json(obj["disc"])
    x = complex(*obj["param_at_target"])
    # through the origin and the target
    assert max(abs(v) for v in _disc_at(disc, 0j)) == 0.0
    assert max(abs(u - v) for u, v in zip(_disc_at(disc, x), zp)) <= 1e-9
    # on the variety of (a', b', 1): a' z1 + b' z2 + z3 - z1 z2 - b' z1 z3 - a' z2 z3 = 0
    for lam in NODES:
        w1, w2, w3 = _disc_at(disc, lam)
        assert max(abs(w1), abs(w2), abs(w3)) < 1.0
        assert abs(ap * w1 + bp * w2 + w3 - w1 * w2 - bp * w1 * w3 - ap * w2 * w3) <= 1e-10
    # and on the circle; there z3 = lam is not inside the disc
    for lam in CIRCLE:
        w1, w2, w3 = _disc_at(disc, lam)
        assert abs(ap * w1 + bp * w2 + w3 - w1 * w2 - bp * w1 * w3 - ap * w2 * w3) <= 1e-10
    # inside the tridisc on the whole disc: no pole in the closed disc
    for comp in disc.components:
        assert all(abs(c) == 0.0 for c in comp.den[:-3])
        roots = quadratic_roots(Quadratic(*comp.den[-3:]))
        assert all(abs(r) > 1.0 for r in roots)


def test_alternates_certify():
    # an alternate is listed only when its disc certifies; on fixture2 both
    # candidates do with their own pairs, the minus one near
    # gamma1 = -0.625 + 0.781i with |k| / |q| = 5.6e-11
    ap, bp, zp = _permuted_target(*FIXTURES[2])
    L = Lens(ap, bp)
    pairs = {g: (omega, eta) for g, omega, eta in _intersection_candidates(L, zp[0], zp[2])}
    cert = geodesic_through(ap, bp, zp, find_alternates=True)
    listed = [(cert.branch, cert.gamma1), *cert.alternates]
    assert [br for br, _ in listed] == [PLUS, MINUS]
    for _, g in listed:
        _certify_disc(L, g, *pairs[g])


def test_thin_lens_pair_is_refused_when_rotated():
    # the thin-lens fixture's pair has max(|k|, |k'|) = 6.1e-13 against
    # RESIDUAL_TOL |q| = 6.04e-13, and 0.51 eps times the sum T = 5 376 of the
    # moduli of its seven terms: it certifies through the rounding margin
    # 8 eps T = 9.5e-12, which a rotation of omega by 1e-12 (r1 = 144.7)
    # exceeds fifteenfold
    ap, bp, zp = _permuted_target(*FIXTURES[-1])
    cert = geodesic_through(ap, bp, zp)
    omega, eta = (complex(*cert.disc.params[k]) for k in ("omega", "eta"))
    L = Lens(ap, bp)
    _certify_disc(L, cert.gamma1, omega, eta)
    for angle in (1e-9, 1e-12):
        with pytest.raises(DomainError, match="misses the variety"):
            _certify_disc(L, cert.gamma1, omega * cmath.exp(1j * angle), eta)


def _near_tie_targets(seed, count):
    """`count` targets (a, b, z) of the near-tie stratum, from one seeded
    stream: a log-uniform in [1e-4, 3], b within 3 ulps of 1 - a (a < 1,
    half of the draws) or of 1 + a, only lenses that are not empty; z1
    uniform in the disc of radius 0.995, and z2 zero or of modulus
    log-uniform in [1e-12, 1e-4] for half of the targets (z1 then dominates
    and the permuted lens is thin), uniform like z1 for the others; z lifted
    to the surface of (a, b, 1) and kept when |z3| < 1."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        a = math.exp(rng.uniform(math.log(1e-4), math.log(3.0)))
        b = 1.0 - a if a < 1.0 and rng.random() < 0.5 else 1.0 + a
        k = rng.randint(-3, 3)
        for _ in range(abs(k)):
            b = math.nextafter(b, math.copysign(math.inf, k))
        if not abs(a - b) < 1.0 < a + b:
            continue
        z1 = cmath.rect(0.995 * math.sqrt(rng.random()), rng.uniform(-math.pi, math.pi))
        if rng.random() < 0.5:
            r = rng.choice((0.0, math.exp(rng.uniform(math.log(1e-12), math.log(1e-4)))))
        else:
            r = 0.995 * math.sqrt(rng.random())
        z2 = cmath.rect(r, rng.uniform(-math.pi, math.pi))
        z3 = (a * z1 + b * z2 - z1 * z2) / (a * z2 + b * z1 - 1.0)
        if abs(z3) < 1.0:
            out.append((a, b, (z1, z2, z3)))
    return out


# 16 points of the unit circle, off the real axis
CENSUS_CIRCLE = [cmath.exp(2j * math.pi * (k + 0.5) / 16) for k in range(16)]


def test_near_tie_census():
    """Every target of the near-tie stratum certifies; a certificate bound
    of RESIDUAL_TOL |q| without the rounding margin refuses 266 of them.
    Each disc is reloaded from JSON and checked here: its miss at the
    target, the roots of its denominators, and its relative residual on the
    circle, the residual of the equation of (a, b, 1) over the sum of the
    moduli of its six terms."""
    outcomes = Counter()
    worst_miss = worst_residual = 0.0
    for a, b, z in _near_tie_targets(1, 7240):
        try:
            cert = geodesic_through(a, b, z)
        except GeodiscError as exc:
            outcomes[type(exc).__name__] += 1
            continue
        outcomes["certified"] += 1
        obj = json.loads(json.dumps(cert.to_json()))
        disc = AnalyticDisc.from_json(obj["disc"])
        x = complex(*obj["param_at_target"])
        worst_miss = max(worst_miss, *(abs(u - v) for u, v in zip(_disc_at(disc, x), z)))
        for comp in disc.components:
            assert all(abs(r) > 1.0 for r in quadratic_roots(Quadratic(*comp.den[-3:])))
        for lam in CENSUS_CIRCLE:
            w1, w2, w3 = _disc_at(disc, lam)
            t = (a * w1, b * w2, w3, w1 * w2, b * w1 * w3, a * w2 * w3)
            res = abs(t[0] + t[1] + t[2] - t[3] - t[4] - t[5]) / sum(map(abs, t))
            worst_residual = max(worst_residual, res)
    assert outcomes == {"certified": 7240}
    assert worst_miss <= MATCH_TOL
    assert worst_residual <= RESIDUAL_TOL
