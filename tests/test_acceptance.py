"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 1-8 are the eight checks of the shipped `hypermaps verify`, read
from one in-process run of it with its defaults (--r-max 9, one worker):
each criterion's verdict and detail come from its check's PASS/FAIL line on
stdout, and its elapsed time from the check's timing line on stderr.
Criteria 9 and 10 are timed and run here.  Every check is an exact equality
(integer, rational or polynomial); the only tolerances involved are the
stated wall-clock budgets.  Run with

    pytest -s tests/test_acceptance.py -v

to see the one-line verdicts as they are produced.
"""

import gc
import io
import math
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest

from hypermaps import cli, closed_form, enumeration


def _report(number, title, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(
        f"ACCEPTANCE {number:>2} {title}: {status} ({detail}; {elapsed:.2f}s of {budget:.0f}s budget)"
    )
    assert ok, f"criterion {number}: {detail}"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.2f}s)"


@pytest.fixture(scope="module")
def verify_run():
    """{check name: (passed, detail, seconds)} from one `hypermaps verify` run with its defaults."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        cli.main(["verify"])
    seconds = {}
    for line in err.getvalue().splitlines():  # "time <name>: 0.123 s"
        if line.startswith("time "):
            name, value = line[5:].split(": ")
            seconds[name] = float(value[:-2])
    checks = {}
    for line in out.getvalue().splitlines()[:-1]:  # "PASS <name>: <detail>", then the summary
        status, rest = line.split(" ", 1)
        name, detail = rest.split(": ", 1)
        checks[name] = (status == "PASS", detail, seconds[name])
    # criterion 2 holds up to r = 9, verify's default --r-max
    assert checks["method-agreement"][1].endswith("r = 1..9")
    return checks


def _criterion(number, title, budget, check=None):
    """The test of criterion number: verify's check (named title unless check is given) within budget seconds."""
    def test(verify_run):
        _report(number, title, *verify_run[check or title], budget)
    return test


test_c01_base_cases = _criterion(1, "base-cases", 1.0)
test_c02_three_method_agreement = _criterion(2, "three-method-agreement", 30.0, check="method-agreement")
test_c03_totals = _criterion(3, "totals", 5.0)
test_c04_stirling_marginal = _criterion(4, "stirling-marginal", 10.0)
test_c05_symmetry_and_parity = _criterion(5, "symmetry-parity", 5.0)
test_c06_certificate = _criterion(6, "certificate", 30.0)
test_c07_quantum_moments = _criterion(7, "quantum-moments", 10.0)
test_c08_two_face = _criterion(8, "two-face", 60.0)


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
        faces = [enumeration._face([r])]
        start = time.perf_counter()
        enumeration._count_shard(faces, first_image, connected_only=False)
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
