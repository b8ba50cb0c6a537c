"""The traced run: the workload's inputs fed through the package in-process.

Passes over the same chunks as the timed child alternate untraced and traced
until the run's time is used; each pass starts with the package's caches
cleared, like a fresh process.  Counts come from the first traced pass,
timings from all of them.  Layers the workload does not call are covered by
a small probe after the passes, so every traced run reports every layer
metric; read each metric on the workload the README names for it.  The
fixtures of known hard cases run last.
"""

from __future__ import annotations

import hashlib
import importlib
from statistics import median
from time import perf_counter

import check
import workloads as wl
from tracer import CERTIFY, GT, LAYERS, PHI, Tracer, quantile

# probes of the layers a workload does not call
PROBE_VERIFY_SAMPLES = 300
PROBE_TRANSPORTS = 40
PROBE_BALL_ITEMS = 100


def _pass(workload: str, inputs: dict, tracer: Tracer) -> list:
    wl.clear_caches()
    results = []
    for chunk in wl.chunks(workload, inputs):
        results += wl.run_chunk(workload, inputs, chunk, on_item=tracer.set_sample)
    return results


def traced_run(workload: str, seed: int, seconds: float, spans_path) -> dict:
    for mod in LAYERS:
        try:
            importlib.import_module(f"geodisc.{mod}")
        except ImportError:
            pass  # its entry points are reported absent
    tracer = Tracer()
    checks = check.Checks()
    inputs = wl.make_inputs(workload, seed)
    items = wl.item_count(workload, inputs)
    untraced, traced, digests = [], [], set()
    first = None
    deadline = perf_counter() + seconds
    while first is None or perf_counter() < deadline:
        t0 = perf_counter()
        out = _pass(workload, inputs, tracer)
        untraced.append(perf_counter() - t0)
        digests.add(hashlib.sha256(wl.encode(out)).hexdigest())
        with tracer.patched():
            t0 = perf_counter()
            out = _pass(workload, inputs, tracer)
            traced.append(perf_counter() - t0)
        tracer.fold(counted=first is None, keep=first is None)
        digests.add(hashlib.sha256(wl.encode(out)).hexdigest())
        if first is None:
            first = out
    us_per_item = median(untraced) / items * 1e6

    # probes: counted and checked, but not part of the workload's timings above
    probes = ["automorphisms"] if workload != "automorphisms" else ["verify-fat"]
    attempted, failed = items, wl.program_failures(first)
    checks.run(workload, inputs, first)
    for probe in probes:
        p_inputs = (wl.verify_inputs(seed, PROBE_VERIFY_SAMPLES) if probe == "verify-fat"
                    else wl.automorphism_inputs(seed, PROBE_TRANSPORTS, PROBE_BALL_ITEMS))
        with tracer.patched():
            p_out = _pass(probe, p_inputs, tracer)
        tracer.fold(counted=True)
        attempted += wl.item_count(probe, p_inputs)
        failed += wl.program_failures(p_out)
        checks.run(probe, p_inputs, p_out)
    failed += checks.missed

    # fixtures: known hard cases, reported as a count and not as failed items
    fixture_misses = 0
    for a, b, z1, z2 in wl.FIXTURES:
        wl.clear_caches()
        res = wl.run_chunk("verify-fat", {"cells": [[a, b, [[wl._cj(z1), wl._cj(z2)]]]]}, ("dab", 0, 0, 1))[0]
        own_ok = not wl.program_failures([res])
        fixture_misses += not (check.Checks().certificate(a, b, z1, z2, res) and own_ok)
    tracer.write_spans(spans_path)

    problems = []
    if len(digests) != 1:
        problems.append(f"passes over the same inputs gave {len(digests)} different outputs")
    metrics = _layer_metrics(tracer, checks, untraced, traced, us_per_item, len(digests))
    metrics["check.fixture_misses"] = (fixture_misses, "count")
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "problems": problems,
            "absent": tracer.absent, "table": _span_table(tracer),
            "passes": {"untraced_s": untraced, "traced_s": traced}}


def _layer_metrics(t: Tracer, checks, untraced, traced, us_per_item, n_digests) -> dict:
    m: dict[str, tuple[float, str]] = {}

    def p50_us(name):
        if t.durations.get(name):
            m[f"{name}.p50_us"] = (quantile(t.durations[name], 0.5) / 1e3, "us")

    p50_us(PHI)
    if t.gt_warm and PHI in t.present:
        m[f"{PHI}.share"] = (t.phi_in_warm_ns / sum(t.gt_warm), "share")
    if t.phi_ns and CERTIFY in t.present:
        m[f"{CERTIFY}.share"] = (t.certify_in_phi_ns / t.phi_ns, "share")
    if GT in t.present:
        if t.gt_warm:
            m[f"{GT}.warm_p50_us"] = (quantile(t.gt_warm, 0.5) / 1e3, "us")
            m[f"{GT}.warm_p99_us"] = (quantile(t.gt_warm, 0.99) / 1e3, "us")
        if t.gt_cold:
            m[f"{GT}.cold_p50_ms"] = (quantile(t.gt_cold, 0.5) / 1e6, "ms")
            m[f"{GT}.cold_max_ms"] = (max(t.gt_cold) / 1e6, "ms")
            m[f"{GT}.cold_share"] = (sum(t.gt_cold) / (sum(t.gt_cold) + sum(t.gt_warm)), "share")
        m[f"{GT}.calls"] = (t.calls[GT], "count")
        m[f"{GT}.errors"] = (t.errors[GT], "count")
    m["workload.us_per_item"] = (us_per_item, "us")
    for name in ("metrics.c_dab", "varieties.lift_to_M", "geodesics.solve_omega_eta",
                 "varieties.transport", "ball.c_star_ball", "ball.ball_automorphism", "ball.psi_l"):
        p50_us(name)
    if t.durations.get("varieties.transport"):
        m["varieties.transport.p99_us"] = (quantile(t.durations["varieties.transport"], 0.99) / 1e3, "us")
        m["varieties.transport.calls"] = (t.calls["varieties.transport"], "count")
        m["varieties.transport.errors"] = (t.errors["varieties.transport"], "count")
    for name, (value, unit) in checks.metrics().items():
        m[name] = (value, unit)
    m["trace.overhead_share"] = (median(traced) / median(untraced) - 1.0, "share")
    m["check.output_digests"] = (n_digests, "count")
    return m


def _span_table(t: Tracer) -> list[str]:
    rows = [f"{'span':34s} {'calls':>8s} {'n':>8s} {'total_ms':>10s} {'self_ms':>10s} {'p50_us':>10s}"]
    for name in sorted(t.durations):
        d = t.durations[name]
        rows.append(f"{name:34s} {t.calls[name]:8d} {len(d):8d} {sum(d) / 1e6:10.1f} "
                    f"{t.self_ns[name] / 1e6:10.1f} {quantile(d, 0.5) / 1e3:10.1f}")
    return rows
