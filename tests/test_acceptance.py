"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every check is an exact equality (integer, rational or polynomial); the only
tolerances involved are the stated wall-clock budgets.  Run with

    pytest -s tests/test_acceptance.py -v

to see the one-line verdicts as they are produced.
"""

import gc
import math
import subprocess
import sys
import time
from fractions import Fraction

from hypermaps import closed_form, enumeration, recursion, two_face
from hypermaps.polynomial import BivarPoly

P1 = BivarPoly({(1, 1): 1})
P2 = BivarPoly({(2, 1): 1, (1, 2): 1})
TOTAL_THROUGH_13 = 6_749_977_113


def _report(number, title, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(
        f"ACCEPTANCE {number:>2} {title}: {status} ({detail}; {elapsed:.2f}s of {budget:.0f}s budget)"
    )
    assert ok, f"criterion {number}: {detail}"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.2f}s)"


def test_c01_base_cases():
    t0 = time.perf_counter()
    ok = True
    recs = dict(recursion.stream(2))
    for r, expected in ((1, P1), (2, P2)):
        ok &= enumeration.one_face_poly(r) == expected
        ok &= closed_form.one_face_poly(r) == expected
        ok &= recs[r] == expected
    _report(1, "base-cases", ok, "P_1 = m*n, P_2 = m^2*n + m*n^2, all methods",
            time.perf_counter() - t0, 1.0)


def test_c02_three_method_agreement():
    t0 = time.perf_counter()
    recs = dict(recursion.stream(9))
    ok = all(
        enumeration.one_face_poly(r) == closed_form.one_face_poly(r) == recs[r]
        for r in range(1, 10)
    )
    _report(2, "three-method-agreement", ok, "exact equality for r = 1..9",
            time.perf_counter() - t0, 30.0)


def test_c03_totals():
    t0 = time.perf_counter()
    recs = dict(recursion.stream(13))
    cumulative = 0
    ok = True
    for r in range(1, 14):
        expected = math.factorial(r)
        ok &= closed_form.one_face_poly(r).eval_at(1, 1) == expected
        ok &= recs[r].eval_at(1, 1) == expected
        cumulative += expected
    ok &= cumulative == TOTAL_THROUGH_13
    _report(3, "totals", ok, f"P_r(1,1) = r! for r <= 13, cumulative {cumulative}",
            time.perf_counter() - t0, 5.0)


def test_c04_stirling_marginal():
    t0 = time.perf_counter()
    ok = True
    for r in range(1, 9):
        row = closed_form.stirling_row(r)
        expected = {k: c for k, c in enumerate(row, start=1) if c}
        ok &= closed_form.one_face_poly(r).substitute_n(1) == expected
        histogram = {}
        for (cs, _), count in enumeration.cycle_pair_counts([r]).items():
            histogram[cs] = histogram.get(cs, 0) + count
        ok &= histogram == expected
    _report(4, "stirling-marginal", ok,
            "P_r(m,1) = Stirling row = cycle histogram for r <= 8",
            time.perf_counter() - t0, 10.0)


def test_c05_symmetry_and_parity():
    t0 = time.perf_counter()
    ok = True
    for r, poly in recursion.stream(20):
        ok &= poly == poly.swap_vars()
        ok &= poly == closed_form.one_face_poly(r)
        for (e, v), c in poly.sorted_terms():
            ok &= c > 0 and e >= 1 and v >= 1
            ok &= e + v <= r + 1 and (e + v - r - 1) % 2 == 0
    _report(5, "symmetry-parity", ok, "m<->n symmetry and Euler parity for r <= 20",
            time.perf_counter() - t0, 5.0)


def test_c06_certificate():
    t0 = time.perf_counter()
    ok = all(
        recursion.verify_certificate(r, k)
        for r in range(1, 9)
        for k in range(-1, r + 3)
    )
    ok &= all(recursion.telescoping_check(r) for r in range(1, 9))
    _report(6, "certificate", ok, "identity and telescoping for r <= 8, k in -1..r+2",
            time.perf_counter() - t0, 30.0)


def test_c07_quantum_moments():
    t0 = time.perf_counter()
    ok = True
    for m in range(1, 9):
        for n in range(1, 9):
            for r in range(1, 13):
                a = closed_form.avg_trace_power(m, n, r)
                ok &= a == closed_form.avg_trace_power_alt(m, n, r)
                if r == 1 or (m == 1 and n == 1):
                    ok &= a == Fraction(1)
    _report(7, "quantum-moments", ok,
            "both routes equal for m,n <= 8, r <= 12; unit cases are 1",
            time.perf_counter() - t0, 10.0)


def test_c08_two_face():
    t0 = time.perf_counter()
    ok = True
    totals = {}
    for r in range(2, 9):
        result = two_face.two_face_gf(r)
        ok &= result.gf == two_face.connected_two_face_oracle(r)
        ok &= result.total == two_face.two_face_total(r)
        totals[r] = result.total
    ok &= totals[2] == 1 and totals[3] == 6 and totals[4] == 34
    _report(8, "two-face", ok,
            "subtraction = transitive oracle and totals match for r = 2..8",
            time.perf_counter() - t0, 60.0)


def _loop_seconds(pieces=5):
    """Median time of a fixed small-integer loop: the machine's momentary speed.

    Written out here rather than taken from the package, so that no change to
    the package can move it.
    """
    times = []
    for _ in range(pieces):
        start = time.perf_counter()
        s = 0
        for i in range(100_000):
            s += i * i % 7
        times.append(time.perf_counter() - start)
    return sorted(times)[pieces // 2]


def test_c09_performance_shape():
    # closed form: 13 darts well under a second, 50 darts exact
    gc.collect()
    t0 = time.perf_counter()
    p13 = closed_form.one_face_poly(13)
    closed_13 = time.perf_counter() - t0
    ok = closed_13 < 1.0 and p13.eval_at(1, 1) == math.factorial(13)

    p50 = closed_form.one_face_poly(50)
    ok &= p50.eval_at(1, 1) == math.factorial(50)

    # enumeration: factorial-time growth, consecutive ratio beyond r at r = 10
    def shard(r, first_image, before):
        # one shard of one_face_poly(r) in units of a fixed interpreter loop
        # timed right before and right after it, so a slow spell of the
        # machine divides out even when it starts mid-call; with the sample
        # after it, which is the next shard's sample before
        start = time.perf_counter()
        enumeration._count_shard([[r]], first_image, connected_only=False)
        elapsed = time.perf_counter() - start
        after = _loop_seconds()
        return elapsed / (before + after), after

    # each r = 10 shard is followed by a whole r = 9 walk, so that both r see
    # the same spells of the machine; t9 is the mean of those ten walks
    gc.collect()
    t9 = t10 = 0.0
    sample = _loop_seconds()
    for first_image in range(10):
        scaled, sample = shard(10, first_image, sample)
        t10 += scaled
        for other in range(9):
            scaled, sample = shard(9, other, sample)
            t9 += scaled / 10
    ratio = t10 / t9
    ok &= ratio > 10.0
    _report(9, "performance-shape", ok,
            f"closed P_13 in {closed_13 * 1000:.0f}ms, P_50 exact, "
            f"enumerate t10/t9 = {ratio:.2f} > 10",
            closed_13, 1.0)


def _run(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "hypermaps", *argv],
        capture_output=True,
        timeout=600,
    )
    return proc.returncode, proc.stdout


def test_c10_determinism():
    t0 = time.perf_counter()
    code_a, poly_serial = _run("poly", "--r", "7", "--method", "enumerate", "--threads", "1")
    code_b, poly_parallel = _run("poly", "--r", "7", "--method", "enumerate", "--threads", "2")
    code_c, verify_serial = _run("verify", "--r-max", "6", "--threads", "1")
    code_d, verify_parallel = _run("verify", "--r-max", "6", "--threads", "2")
    ok = (
        code_a == code_b == code_c == code_d == 0
        and poly_serial == poly_parallel
        and verify_serial == verify_parallel
        and len(poly_serial) > 0
        and len(verify_serial) > 0
    )
    _report(10, "determinism", ok,
            "poly and verify byte-identical across --threads 1 and 2",
            time.perf_counter() - t0, 120.0)
