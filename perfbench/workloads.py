"""The four benchmark workloads: seeded inputs, one pass of operations, checks.

A pass is a fixed list of operations. Each operation is one call into the
package's public API and gives one latency sample. Passes run in a closed
loop from one process: an operation starts only after the previous one has
returned, and pools never get more than WORKERS processes.

Every result is checked after the timed pass by a second route that does not
share the code under test. The checks go through the same Recorder as the
operations, so a traced run records spans for them too.
"""

from __future__ import annotations

import contextlib
import io
import random
import time
from dataclasses import dataclass, field
from math import factorial
from typing import Callable, Dict, List

from hypermaps import cli, closed_form, enumeration, recursion, two_face

#: Pool size for every parallel call; the benchmark machine has two cores.
WORKERS = 2

# Sizes, chosen so one pass takes a few seconds on a 2-core machine and the
# cost of a pass hardly depends on the seed.
SERIES_R = 150
# The closed form runs at a pair c - d, c + d around each centre c, with a
# seeded d in 1..SERIES_CLOSED_SPREAD. Its cost grows like r**3.3, so a pair
# costs the same for every d within 2%, where a single seeded r would not.
SERIES_CLOSED_CENTRES = (45, 65, 85)
SERIES_CLOSED_SPREAD = 3
QUANTUM_DIM = 16  # m and n are drawn from 1..QUANTUM_DIM
QUANTUM_R = 24  # every r in 1..QUANTUM_R appears QUANTUM_REPEATS times
QUANTUM_REPEATS = 17
ENUM_R = 9
# Two-face r < 7 is left out: below that a call's time is mostly starting a
# pool per split, which swung by a quarter between sets of runs and which
# the enumeration.pool_overhead_ms probe measures directly.
TWO_FACE_R_MIN = 7
TWO_FACE_R = 8
VERIFY_ARGV = ["verify", "--threads", str(WORKERS)]
VERIFY_CHECKS = 8


class Recorder:
    """Makes the calls into the package; with tracing on, keeps one span per call.

    A span is a dict with the name "<module>.<function>", start and end from
    time.perf_counter_ns, and the operation that caused the call.
    """

    def __init__(self, tracing: bool):
        self.tracing = tracing
        self.spans: List[dict] = []
        self.parent = "setup"

    def call(self, name: str, fn: Callable, *args, **kwargs):
        if not self.tracing:
            return fn(*args, **kwargs)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append(
                {"name": name, "start": start, "end": time.perf_counter_ns(), "parent": self.parent}
            )


@dataclass(frozen=True)
class Op:
    """One operation: a single call into the package."""

    label: str
    span: str  # "<module>.<function>" of the call
    fn: Callable
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)


# series ----------------------------------------------------------------------


def series_inputs(rng: random.Random) -> dict:
    closed = []
    for c in SERIES_CLOSED_CENTRES:
        d = rng.randint(1, SERIES_CLOSED_SPREAD)
        closed += [c - d, c + d]
    calls = [("closed", r) for r in closed] + [("stirling", r) for r in range(1, SERIES_R + 1)]
    rng.shuffle(calls)
    return {"r_max": SERIES_R, "calls": calls}


def series_ops(inp: dict) -> List[Op]:
    stream = recursion.stream(inp["r_max"])  # lazy: each next() is one operation
    ops = [Op(f"P_{r} recurrence", "recursion.stream", next, (stream,)) for r in range(1, inp["r_max"] + 1)]
    for kind, r in inp["calls"]:
        if kind == "closed":
            ops.append(Op(f"P_{r} closed", "closed_form.one_face_poly", closed_form.one_face_poly, (r,)))
        else:
            ops.append(Op(f"stirling {r}", "closed_form.stirling_row", closed_form.stirling_row, (r,)))
    return ops


def series_check(inp: dict, ops: List[Op], results: list, rec: Recorder) -> List[bool]:
    streamed: Dict[int, object] = {}
    ok = []
    for r, res in enumerate(results[: inp["r_max"]], start=1):
        good = isinstance(res, tuple) and res[0] == r and rec.call(
            "polynomial.eval_at", res[1].eval_at, 1, 1
        ) == factorial(r)
        if good:
            streamed[r] = res[1]
        ok.append(good)
    for op, res in zip(ops[inp["r_max"] :], results[inp["r_max"] :]):
        r = op.args[0]
        if r not in streamed:
            ok.append(False)
        elif op.span == "closed_form.one_face_poly":
            ok.append(res == streamed[r])
        else:
            marginal = rec.call("polynomial.substitute_n", streamed[r].substitute_n, 1)
            ok.append(isinstance(res, list) and dict(enumerate(res, start=1)) == marginal)
    return ok


# quantum ---------------------------------------------------------------------


def quantum_inputs(rng: random.Random) -> dict:
    calls = [
        (rng.randint(1, QUANTUM_DIM), rng.randint(1, QUANTUM_DIM), r)
        for r in range(1, QUANTUM_R + 1)
        for _ in range(QUANTUM_REPEATS)
    ]
    rng.shuffle(calls)
    return {"calls": calls}


def quantum_ops(inp: dict) -> List[Op]:
    return [
        Op(f"avg-trace m={m} n={n} r={r}", "closed_form.avg_trace_power", closed_form.avg_trace_power, (m, n, r))
        for m, n, r in inp["calls"]
    ]


def quantum_check(inp: dict, ops: List[Op], results: list, rec: Recorder) -> List[bool]:
    return [
        res == rec.call("closed_form.avg_trace_power_alt", closed_form.avg_trace_power_alt, *op.args)
        for op, res in zip(ops, results)
    ]


# enumerate -------------------------------------------------------------------


def enumerate_inputs(rng: random.Random) -> dict:
    order = list(range(2 + 2 * (TWO_FACE_R - TWO_FACE_R_MIN + 1)))
    rng.shuffle(order)
    return {"order": order}


def enumerate_ops(inp: dict) -> List[Op]:
    ops = [
        Op(f"P_{ENUM_R} serial", "enumeration.one_face_poly", enumeration.one_face_poly, (ENUM_R,)),
        Op(
            f"P_{ENUM_R} workers={WORKERS}",
            "enumeration.one_face_poly",
            enumeration.one_face_poly,
            (ENUM_R,),
            {"workers": WORKERS},
        ),
    ]
    for r in range(TWO_FACE_R_MIN, TWO_FACE_R + 1):
        ops.append(Op(f"two-face gf {r}", "two_face.two_face_gf", two_face.two_face_gf, (r,), {"workers": WORKERS}))
        ops.append(
            Op(
                f"two-face oracle {r}",
                "two_face.connected_two_face_oracle",
                two_face.connected_two_face_oracle,
                (r,),
                {"workers": WORKERS},
            )
        )
    return [ops[i] for i in inp["order"]]


def enumerate_perms(ops: List[Op]) -> int:
    """Permutations one pass visits: r! for each sweep over Sym_r its calls make."""
    total = 0
    for op in ops:
        r = op.args[0]
        sweeps = 1 if op.span == "enumeration.one_face_poly" else r - 1  # one sweep per split
        total += sweeps * factorial(r)
    return total


def enumerate_check(inp: dict, ops: List[Op], results: list, rec: Recorder) -> List[bool]:
    reference = rec.call("closed_form.one_face_poly", closed_form.one_face_poly, ENUM_R)
    gf = {op.args[0]: res for op, res in zip(ops, results) if op.span == "two_face.two_face_gf"}
    oracle = {op.args[0]: res for op, res in zip(ops, results) if op.span == "two_face.connected_two_face_oracle"}
    ok = []
    for op, res in zip(ops, results):
        if op.span == "enumeration.one_face_poly":
            ok.append(res == reference)
            continue
        r = op.args[0]
        total = rec.call("two_face.two_face_total", two_face.two_face_total, r)
        routes_agree = not isinstance(gf[r], Exception) and gf[r].gf == oracle[r]
        if op.span == "two_face.two_face_gf":
            ok.append(routes_agree and res.total == total)
        else:
            ok.append(routes_agree and rec.call("polynomial.eval_at", res.eval_at, 1, 1) == total)
    return ok


# verify ----------------------------------------------------------------------


def run_verify(argv: List[str]):
    """cli.main with stdout captured; returns (exit code, printed text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def verify_inputs(rng: random.Random) -> dict:
    return {"argv": list(VERIFY_ARGV)}


def verify_ops(inp: dict) -> List[Op]:
    return [Op("hypermaps verify", "cli.main", run_verify, (inp["argv"],))]


def verify_check(inp: dict, ops: List[Op], results: list, rec: Recorder) -> List[bool]:
    # Not a byte comparison: verdict lines may gain timings later.
    def good(res) -> bool:
        if not isinstance(res, tuple):
            return False
        code, text = res
        passed = sum(line.startswith("PASS ") for line in text.splitlines())
        return code == 0 and passed == VERIFY_CHECKS and f"{VERIFY_CHECKS}/{VERIFY_CHECKS}" in text

    return [good(res) for res in results]


# registry ----------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    inputs: Callable[[random.Random], dict]
    ops: Callable[[dict], List[Op]]
    check: Callable[[dict, List[Op], list, Recorder], List[bool]]
    warm_up: Callable[[], object]
    # Weights of the speed.PIECES whose code is most like the workload's, for
    # scaling its times to the reference speed.
    speed_weights: Dict[str, float]


POLY_LIKE = {"poly": 1.0}
LOOP_LIKE = {"loop": 1.0}
MIXED = {"loop": 1.0, "poly": 1.0}

WORKLOADS: Dict[str, Workload] = {
    "series": Workload(series_inputs, series_ops, series_check, lambda: closed_form.one_face_poly(12), POLY_LIKE),
    "quantum": Workload(
        quantum_inputs, quantum_ops, quantum_check, lambda: closed_form.avg_trace_power(2, 3, 4), POLY_LIKE
    ),
    "enumerate": Workload(
        enumerate_inputs, enumerate_ops, enumerate_check, lambda: enumeration.one_face_poly(6), LOOP_LIKE
    ),
    "verify": Workload(verify_inputs, verify_ops, verify_check, lambda: run_verify(["count", "--r", "3"]), MIXED),
}


def setup(name: str, seed: int) -> dict:
    """What a run does before its first pass: make the inputs, make one warm-up call."""
    workload = WORKLOADS[name]
    inputs = workload.inputs(random.Random(seed))
    workload.warm_up()
    return inputs
