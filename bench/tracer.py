"""In-memory spans around the package's layer entry points.

Entry points are looked up by name; each found function is replaced, in every
loaded ``geodisc`` module that holds it, by a wrapper that records a span
(name, start, end, parent, sample id).  A missing name is reported as absent.
Spans of one pass are folded into per-name statistics when the pass ends, so
memory stays bounded by one pass; the spans of the first counted pass are
kept and written out at the end of the run.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

# module -> entry points whose calls get a span
LAYERS = {
    "metrics": ["geodesic_through", "c_dab"],
    "geodesics": ["phi_gamma", "_certify_disc", "solve_omega_eta"],
    "varieties": ["lift_to_M", "transport"],
    "ball": ["c_star_ball", "ball_automorphism", "psi_l"],
}

GT = "metrics.geodesic_through"
PHI = "geodesics.phi_gamma"
CERTIFY = "geodesics._certify_disc"

NAME, T0, T1, PARENT, SAMPLE, ERR, KEY = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.sample = -1
        self.present: set[str] = set()
        self.absent: list[str] = []
        self.durations: dict[str, list[int]] = defaultdict(list)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.errors: dict[str, int] = defaultdict(int)
        self.gt_cold: list[int] = []
        self.gt_warm: list[int] = []
        self.phi_in_warm_ns = 0
        self.certify_in_phi_ns = 0
        self.phi_ns = 0
        self.kept: list[list] = []

    # -- recording -------------------------------------------------------
    def set_sample(self, sample) -> None:
        self.sample = list(sample)

    def wrap(self, name, fn, key=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            i = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, self.sample, False,
                    key(args) if key else None]
            spans.append(span)
            stack.append(i)
            span[T0] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[ERR] = True
                raise
            finally:
                span[T1] = perf_counter_ns()
                stack.pop()
            return result

        return traced

    @contextmanager
    def patched(self):
        """Replace every found entry point by its traced wrapper."""
        import geodisc  # noqa: F401

        modules = [m for n, m in list(sys.modules.items()) if n == "geodisc" or n.startswith("geodisc.")]
        restore = []
        self.absent = []
        for mod_name, names in LAYERS.items():
            mod = sys.modules.get(f"geodisc.{mod_name}")
            for fn_name in names:
                full = f"{mod_name}.{fn_name}"
                fn = getattr(mod, fn_name, None) if mod else None
                if not callable(fn):
                    self.absent.append(full)
                    continue
                self.present.add(full)
                # a geodesic_through span is keyed by its lens, to tell first calls
                key = (lambda args: (float(args[0]), float(args[1]))) if full == GT else None
                wrapper = self.wrap(full, fn, key)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is fn:
                            setattr(m, attr, wrapper)
                            restore.append((m, attr, fn))
        try:
            yield self
        finally:
            for m, attr, fn in restore:
                setattr(m, attr, fn)

    # -- folding ---------------------------------------------------------
    def fold(self, counted: bool, keep: bool = False) -> None:
        """Fold the spans of the pass that just ended into the statistics."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child_ns[s[PARENT]] += s[T1] - s[T0]
        seen_lens = set()
        warm_gt = set()
        for i, s in enumerate(spans):
            name, dur = s[NAME], s[T1] - s[T0]
            self.durations[name].append(dur)
            self.self_ns[name] += dur - child_ns[i]
            if counted:
                self.calls[name] += 1
                self.errors[name] += s[ERR]
            if name == GT:
                if s[KEY] in seen_lens:
                    self.gt_warm.append(dur)
                    warm_gt.add(i)
                else:
                    seen_lens.add(s[KEY])
                    self.gt_cold.append(dur)
        for s in spans:
            dur = s[T1] - s[T0]
            if s[NAME] == PHI:
                self.phi_ns += dur
                if s[PARENT] in warm_gt:
                    self.phi_in_warm_ns += dur
            elif s[NAME] == CERTIFY and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == PHI:
                self.certify_in_phi_ns += dur
        if keep:
            self.kept = list(spans)
        spans.clear()
        self.stack.clear()

    def write_spans(self, path) -> None:
        if not self.kept:
            return
        origin = self.kept[0][T0]
        with open(path, "w") as fh:
            for s in self.kept:
                fh.write(json.dumps({"name": s[NAME], "start_ns": s[T0] - origin, "end_ns": s[T1] - origin,
                                     "parent": s[PARENT], "sample": s[SAMPLE]}) + "\n")


def quantile(values, q: float) -> float:
    """Nearest-rank quantile of a non-empty list."""
    v = sorted(values)
    return v[min(len(v) - 1, int(q * len(v)))]
