"""Independent checks of what the program returned.

Certificates are checked with ``oracle``: the returned disc is reloaded from
JSON and must pass through the origin and the target, and its Lempert value
must match the Caratheodory lower bound over the universal set.  The target
is lifted and permuted here, not by the package.  Transport images are
checked on fresh surface points, and the ball results against the textbook
automorphism formula; neither shares code with the program's path.  A check
counts misses and never stops the run.
"""

from __future__ import annotations

import json
import math

import numpy as np

from workloads import _c, _lift, dominant_index, is_error, is_retract

BALL_TOL = 1e-10
EXTREMAL_TOL = 1e-9
TRANSPORT_TOL = 1e-9
# the permutation that puts the dominant coordinate third
PERM_TO_THIRD = {0: (2, 1, 0), 1: (0, 2, 1), 2: (0, 1, 2)}


class Checks:
    def __init__(self):
        self.certificates = 0
        self.disc_miss = 0
        self.worst_disc_miss = 0.0
        self.transport_miss = 0
        self.ball_miss = 0
        self.missed = 0  # items the program passed whose output a check rejects

    def metrics(self) -> dict:
        return {
            "check.certificates": (self.certificates, "count"),
            "check.disc_miss": (self.disc_miss, "count"),
            "check.worst_disc_miss": (self.worst_disc_miss, "abs"),
            "check.transport_miss": (self.transport_miss, "count"),
            "check.ball_miss": (self.ball_miss, "count"),
        }

    def run(self, workload: str, inputs: dict, results: list) -> None:
        """Check the results of one pass over `inputs`, in pass order."""
        if workload == "automorphisms":
            n = len(inputs["transport"])
            for i, (item, beta) in enumerate(zip(inputs["transport"], results[:n])):
                self.transport(item, beta, i)
            for i, (item, res) in enumerate(zip(inputs["ball"], results[n:])):
                self.ball(item, res, i)
            return
        it = iter(results)
        for a, b, pts in inputs["cells"]:
            for p, res in zip(pts, it):
                self.certificate(a, b, _c(p[0]), _c(p[1]), res)

    # -- certificates ----------------------------------------------------
    def certificate(self, a: float, b: float, z1: complex, z2: complex, res: dict) -> bool:
        """True when the certificate passes; an error result is the program's
        own failure and is not checked."""
        from geodisc import errors, geodesics, metrics, oracle, varieties

        if is_error(res):
            return False
        tol = metrics.MATCH_TOL
        cert = json.loads(json.dumps(res["cert"]))
        self.certificates += 1
        z = _lift(a, b, z1, z2)
        zp = tuple(z[p] for p in PERM_TO_THIRD[dominant_index(z)])
        disc = geodesics.AnalyticDisc.from_json(cert["disc"])
        x = _c(cert["param_at_target"])
        miss = max(max(abs(v) for v in disc(0j)), max(abs(u - v) for u, v in zip(disc(x), zp)))
        try:
            upper = oracle.lempert_upper_bound(disc, (0j, 0j, 0j), zp, lam_z=0j, lam_w=x, tol=tol)
        except errors.NotThrough:
            upper = None
        family = [m.value for m in metrics.dab_universal_set(varieties.DomainDab(a, b)).members]
        lower = oracle.caratheodory_lower_bound(family, (0j, 0j), (z1, z2))
        gap = max(abs(cert["lempert_value"] - lower), abs(res["c"] - lower))
        if upper is not None:
            gap = max(gap, abs(upper - lower))
        self.worst_disc_miss = max(self.worst_disc_miss, miss)
        if upper is None or miss > tol or gap > tol:
            self.disc_miss += 1
            self.missed += cert["residual"] < tol and abs(res["c"] - cert["lempert_value"]) < tol
            return False
        return True

    # -- transport -------------------------------------------------------
    def transport(self, item: dict, beta, index: int) -> None:
        """beta must vanish on m(z) for fresh points z of the surface of alpha,
        and keep its class."""
        from geodisc import errors, varieties

        if is_error(beta):
            return
        coeffs = [_c(p) for p in item["alpha"]]
        b1, b2, b3 = (_c(p) for p in beta)
        alpha = varieties.Alpha(*coeffs)
        rng = np.random.default_rng([index, 7])
        worst, tried = 0.0, 0
        while tried < 8:
            z1 = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
            z2 = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
            if abs(z1) >= 0.8 or abs(z2) >= 0.8:
                continue
            try:
                z3 = varieties.graph_value(alpha, z1, z2)
            except errors.PoleError:
                continue
            if abs(z3) >= 0.999:
                continue
            tried += 1
            z = (z1, z2, z3)
            w1, w2, w3 = (_mobius(_c(nu), _c(r), z[p]) for nu, r, p in zip(item["nu"], item["rot"], item["perm"]))
            res = (b1 * w1 + b2 * w2 + b3 * w3 - b3.conjugate() * w1 * w2
                   - b2.conjugate() * w1 * w3 - b1.conjugate() * w2 * w3)
            worst = max(worst, abs(res) / max(1.0, abs(b1), abs(b2), abs(b3)))
        if worst > TRANSPORT_TOL or is_retract((b1, b2, b3)) != is_retract(coeffs):
            self.transport_miss += 1
            self.missed += 1

    # -- ball ------------------------------------------------------------
    def ball(self, item: dict, res: dict, index: int) -> None:
        """Involution and isometry of the automorphism, the distance formula,
        and the extremal property of psi_l on two points of its line; a miss
        counts all three calls of the item."""
        if is_error(res):
            return
        a, z, w = (np.array([_c(p) for p in item[k]]) for k in ("a", "z", "w"))
        img = np.array([_c(p) for p in res["auto"]])
        cstar = res["cstar"]
        ok = (np.linalg.norm(_phi(a, img) - z) < BALL_TOL
              and np.linalg.norm(img - _phi(a, z)) < BALL_TOL
              and abs(cstar - _cstar(w, z)) < BALL_TOL
              and abs(cstar - _cstar(_phi(a, w), img)) < BALL_TOL
              and self._extremal(item, res["psi"], index))
        if not ok:
            self.ball_miss += 1
            self.missed += 3

    @staticmethod
    def _extremal(item: dict, psi: dict, index: int) -> bool:
        base = np.array([_c(p) for p in item["base"]])
        d = np.array([_c(p) for p in item["direction"]])
        d = d / np.linalg.norm(d)
        foot = np.array([_c(p) for p in psi["minimal_point"]])
        U = np.array([[_c(p) for p in row] for row in psi["unitary"]])
        if (np.linalg.norm(foot - (base - np.vdot(d, base) * d)) > BALL_TOL
                or np.linalg.norm(U @ U.conj().T - np.eye(len(U))) > BALL_TOL):
            return False
        rng = np.random.default_rng([index, 8])
        pts = []
        while len(pts) < 2:
            p = foot + complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * d
            if np.linalg.norm(p) < 0.99:
                pts.append(p)
        f0, f1 = (complex(U[0] @ _phi(foot, p)) for p in pts)
        got = math.atanh(abs((f0 - f1) / (1.0 - f1.conjugate() * f0)))
        return abs(got - math.atanh(_cstar(pts[0], pts[1]))) < EXTREMAL_TOL


def _mobius(nu: complex, rot: complex, lam: complex) -> complex:
    return rot * (nu - lam) / (1.0 - nu.conjugate() * lam)


def _phi(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Rudin's involution of the ball exchanging a and 0:
    (a - P z - s Q z) / (1 - <z, a>), P the projection on a, s = sqrt(1 - |a|^2)."""
    na2 = float(np.vdot(a, a).real)
    za = np.vdot(a, z)
    if na2 == 0.0:
        return -z
    pz = (za / na2) * a
    return (a - pz - math.sqrt(1.0 - na2) * (z - pz)) / (1.0 - za)


def _cstar(w: np.ndarray, z: np.ndarray) -> float:
    return float(np.linalg.norm(_phi(w, z)))
