"""Per-layer metrics of a traced run: probes, and numbers computed from spans.

Span parents name what caused a call:
    "<workload>/pass<k>/op<i> <label>"   an operation of a traced pass
    "<workload>/pass<k>/check"           the checks after that pass
    "probe/<metric>/<detail>"            a probe below
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from collections import defaultdict
from fractions import Fraction
from math import factorial, prod
from typing import Dict, List

from hypermaps import closed_form, enumeration
from hypermaps.polynomial import M, N

import workloads

PROBE_TOP = 10  # polynomial probes use the last PROBE_TOP polynomials of the series stream
POOL_REPEATS = 7
KEEP_R = 7  # connected_only sweeps cover every split a + b = r for r = 2..KEEP_R
IMPORT_REPEATS = 5

#: name -> (unit, better), in the order the metrics are printed.
METRICS = {
    "polynomial.mul_ms": ("ms", "lower"),
    "polynomial.add_ms": ("ms", "lower"),
    "polynomial.exact_div_ms": ("ms", "lower"),
    "polynomial.eval_us": ("us", "lower"),
    "polynomial.terms": ("count", "lower"),
    "polynomial.coeff_bits": ("bits", "lower"),
    "recursion.stream_s": ("s", "lower"),
    "recursion.step_ms": ("ms", "lower"),
    "closed_form.one_face_s": ("s", "lower"),
    "closed_form.avg_trace_ms": ("ms", "lower"),
    "closed_form.avg_trace_alt_ms": ("ms", "lower"),
    "enumeration.ns_per_perm": ("ns", "lower"),
    "enumeration.ns_per_perm_w2": ("ns", "lower"),
    "enumeration.parallel_eff": ("ratio", "higher"),
    "enumeration.pool_overhead_ms": ("ms", "lower"),
    "enumeration.perms": ("count", "lower"),
    "enumeration.connected_keep_frac": ("ratio", "higher"),
    "two_face.gf_s": ("s", "lower"),
    "two_face.oracle_s": ("s", "lower"),
    "cli.verify_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def fresh_interpreter_seconds(code: str, argv: List[str], repeats: int) -> List[float]:
    """Run `code` in `repeats` new interpreters; each prints one duration in seconds."""
    times = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", code, *argv], capture_output=True, text=True, timeout=120, check=True
        )
        times.append(float(done.stdout.split()[-1]))
    return times


IMPORT_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import hypermaps.cli\n"
    "print(time.perf_counter() - start)\n"
)


def run_probes(rec: workloads.Recorder, series_polys: Dict[int, object], quantum_calls: list, src: str) -> dict:
    """Time single layers on the workloads' own operands; return counts and checks.

    Returns the measured values that do not come from spans, the number of
    probe results checked by a second route, and how many of them were wrong.
    """
    wrong = checked = 0
    top = sorted(series_polys)[-PROBE_TOP:]
    m_plus_n, m_minus_n_sq = M + N, (M - N) ** 2
    for r in top:
        p = series_polys[r]
        rec.parent = f"probe/polynomial.mul_ms/{r}"
        rec.call("polynomial.__mul__", p.__mul__, m_plus_n)
        rec.call("polynomial.__mul__", m_minus_n_sq.__mul__, p)
        rec.parent = f"probe/polynomial.add_ms/{r}"
        rec.call("polynomial.__add__", p.__add__, series_polys[r - 1])
        scaled = p * (r + 3)
        rec.parent = f"probe/polynomial.exact_div_ms/{r}"
        wrong += rec.call("polynomial.exact_div", scaled.exact_div, r + 3) != p
        checked += 1

    rec.parent = "probe/polynomial.eval_us/setup"
    polys = {r: rec.call("closed_form.one_face_poly", closed_form.one_face_poly, r) for r in {c[2] for c in quantum_calls}}
    rec.parent = "probe/polynomial.eval_us/call"
    for m, n, r in quantum_calls:
        value = rec.call("polynomial.eval_at", polys[r].eval_at, m, n)
        wrong += Fraction(value, prod(range(m * n, m * n + r))) != closed_form.avg_trace_power_alt(m, n, r)
        checked += 1

    histograms = {}
    for i in range(POOL_REPEATS):
        for w in (1, workloads.WORKERS):
            rec.parent = f"probe/enumeration.pool_overhead_ms/w{w}"
            histograms[w] = rec.call(
                "enumeration.cycle_pair_counts", enumeration.cycle_pair_counts, [6], workers=w
            )
        wrong += histograms[1] != histograms[workloads.WORKERS] or sum(histograms[1].values()) != factorial(6)
        checked += 1

    visited = kept = 0
    for r in range(2, KEEP_R + 1):
        for b in range(1, r):
            rec.parent = f"probe/enumeration.connected_keep_frac/{r - b},{b}"
            every = rec.call("enumeration.cycle_pair_counts", enumeration.cycle_pair_counts, [r - b, b])
            joined = rec.call(
                "enumeration.cycle_pair_counts", enumeration.cycle_pair_counts, [r - b, b], connected_only=True
            )
            visited += sum(every.values())
            kept += sum(joined.values())
            # Disconnected sigma are exactly those that keep both loops in place.
            wrong += sum(every.values()) != factorial(r)
            wrong += sum(joined.values()) != factorial(r) - factorial(r - b) * factorial(b)
            checked += 2

    stream = [series_polys[r] for r in sorted(series_polys)]
    return {
        "checked": checked,
        "wrong": wrong,
        "polynomial.terms": sum(len(p) for p in stream),
        "polynomial.coeff_bits": max(abs(c).bit_length() for p in stream for _, c in p.sorted_terms()),
        "enumeration.connected_keep_frac": kept / visited,
        "keep_base": f"{kept} kept of {visited} sigma visited, all splits of r = 2..{KEEP_R}",
        "cli.import_s": statistics.median(fresh_interpreter_seconds(IMPORT_CODE, [src], IMPORT_REPEATS)),
    }


def _seconds(span: dict) -> float:
    return (span["end"] - span["start"]) / 1e9


def _op_seconds(spans: List[dict], workload: str, name: str, label_end: str = "") -> Dict[str, List[float]]:
    """Durations of the operation spans called `name`, grouped by traced pass of `workload`."""
    out: Dict[str, List[float]] = defaultdict(list)
    for s in spans:
        wl, _, rest = s["parent"].partition("/")
        pass_, _, what = rest.partition("/")
        if s["name"] == name and wl == workload and what.startswith("op") and what.endswith(label_end):
            out[pass_].append(_seconds(s))
    return out


def _probe_seconds(spans: List[dict], metric: str) -> Dict[str, List[float]]:
    """Durations of the probe spans for `metric`, grouped by the probe's detail."""
    out: Dict[str, List[float]] = defaultdict(list)
    prefix = f"probe/{metric}/"
    for s in spans:
        if s["parent"].startswith(prefix):
            out[s["parent"][len(prefix) :]].append(_seconds(s))
    return out


def _median_pass_total(by_pass: Dict[str, List[float]]) -> float:
    return statistics.median(sum(v) for v in by_pass.values())


def layer_metrics(spans: List[dict], probes: dict, enum_ops: list, overhead_frac: float) -> Dict[str, float]:
    """Every per-layer metric, from the spans of a traced run and the probe results."""
    med = statistics.median
    steps = _op_seconds(spans, "series", "recursion.stream")
    serial = _median_pass_total(_op_seconds(spans, "enumerate", "enumeration.one_face_poly", "serial"))
    parallel = _median_pass_total(
        _op_seconds(spans, "enumerate", "enumeration.one_face_poly", f"workers={workloads.WORKERS}")
    )
    perms_per_call = factorial(workloads.ENUM_R)
    pool = _probe_seconds(spans, "enumeration.pool_overhead_ms")
    alt = [_seconds(s) for s in spans if s["name"] == "closed_form.avg_trace_power_alt" and s["parent"].startswith("quantum/")]
    return {
        "polynomial.mul_ms": 1e3 * med(sum(v) for v in _probe_seconds(spans, "polynomial.mul_ms").values()),
        "polynomial.add_ms": 1e3 * med(v[0] for v in _probe_seconds(spans, "polynomial.add_ms").values()),
        "polynomial.exact_div_ms": 1e3 * med(v[0] for v in _probe_seconds(spans, "polynomial.exact_div_ms").values()),
        "polynomial.eval_us": 1e6 * med(_probe_seconds(spans, "polynomial.eval_us")["call"]),
        "polynomial.terms": probes["polynomial.terms"],
        "polynomial.coeff_bits": probes["polynomial.coeff_bits"],
        "recursion.stream_s": _median_pass_total(steps),
        "recursion.step_ms": 1e3 * med(t for v in steps.values() for t in v[-10:]),
        "closed_form.one_face_s": _median_pass_total(_op_seconds(spans, "series", "closed_form.one_face_poly")),
        "closed_form.avg_trace_ms": 1e3
        * med(t for v in _op_seconds(spans, "quantum", "closed_form.avg_trace_power").values() for t in v),
        "closed_form.avg_trace_alt_ms": 1e3 * med(alt),
        "enumeration.ns_per_perm": 1e9 * serial / perms_per_call,
        "enumeration.ns_per_perm_w2": 1e9 * parallel / perms_per_call,
        "enumeration.parallel_eff": serial / (workloads.WORKERS * parallel),
        "enumeration.pool_overhead_ms": 1e3 * (med(pool[f"w{workloads.WORKERS}"]) - med(pool["w1"])),
        "enumeration.perms": workloads.enumerate_perms(enum_ops),
        "enumeration.connected_keep_frac": probes["enumeration.connected_keep_frac"],
        "two_face.gf_s": _median_pass_total(_op_seconds(spans, "enumerate", "two_face.two_face_gf")),
        "two_face.oracle_s": _median_pass_total(_op_seconds(spans, "enumerate", "two_face.connected_two_face_oracle")),
        "cli.verify_s": med(t for v in _op_seconds(spans, "verify", "cli.main").values() for t in v),
        "cli.import_s": probes["cli.import_s"],
        "trace.overhead_frac": overhead_frac,
    }
