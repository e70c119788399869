"""Command-line front end.

Subcommands: poly, table, count, stirling, avg-trace, verify, bench.
Output goes to stdout unless --out is given; --out replaces its file
atomically, so a failed write leaves no partial file.  Exit status is 0 only
when every requested computation or check succeeded; enumeration requests
above the ceiling exit with 2 (override with --force, which warns on stderr
how long the walk takes), as do bad arguments and an --out that cannot be
written; failed verify checks exit with 1.  Ctrl-C exits with 130 and
SIGTERM with 143, after stopping any enumeration workers.  verify reports each
check's elapsed time on stderr.

Output is byte-identical across repeated runs with the same configuration,
including under --threads: parallel enumeration shards are summed slot by
slot, which is order-independent.
"""

from __future__ import annotations

import os
import sys
import time
from math import factorial
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .polynomial import BivarPoly, NotDivisible
from .enumeration import DEFAULT_ENUM_CEILING, LimitExceeded
from . import closed_form, enumeration, recursion, two_face

#: Every construction the CLI runs, by (faces, --method): build(rs, enum) gives
#: (r, polynomial) for each r of the increasing rs, and shapes(r) is the number
#: of face shapes its walk of Sym_r counts per permutation (None: no walk).
_ROUTES: Dict[Tuple[int, str], Tuple[Callable, Optional[Callable[[int], int]]]] = {
    (1, "enumerate"): (lambda rs, enum: [(r, enumeration.one_face_poly(r, **enum)) for r in rs], lambda r: 1),
    (1, "closed"): (lambda rs, enum: [(r, closed_form.one_face_poly(r)) for r in rs], None),
    (1, "recursion"): (lambda rs, enum: [(r, p) for r, p in recursion.stream(max(rs)) if r in rs], None),
    (2, "enumerate"): (lambda rs, enum: [(r, two_face.two_face_gf(r, **enum).gf) for r in rs], lambda r: r // 2),
}
#: Per face count, the method run without --method (the recurrence is the
#: fastest one-face route; two-face polynomials are only enumerated), the
#: total number of maps with r darts (r! for one face: each sigma is one map)
#: and the check that refuses too few darts (None: every r that _r_list takes).
_FACES = {
    1: ("recursion", factorial, None),
    2: ("enumerate", two_face.two_face_total, two_face.check_darts),
}


# table rendering -------------------------------------------------------------


def _csv(header: str, rows: Iterable[tuple]) -> str:
    """The header line, then one comma-joined line per row."""
    lines = [header, *(",".join(map(str, row)) for row in rows)]
    return "\n".join(lines) + "\n"


def _json(obj) -> str:
    """obj as one line of JSON; json is imported here, so runs that print none start without it."""
    import json
    return json.dumps(obj) + "\n"


def _table(pairs: Sequence[Tuple[int, BivarPoly]], fmt: str, listed: bool = True) -> str:
    """The (r, P_r) pairs as JSON objects {r, terms}, or else as CSV rows r,e,v,count.

    JSON gives a list, unless listed is false and there is one pair.
    """
    if fmt == "json":
        objs = [
            {"r": r, "terms": [{"e": e, "v": v, "c": str(c)} for (e, v), c in poly.sorted_terms()]}
            for r, poly in pairs
        ]
        return _json(objs if listed or len(objs) > 1 else objs[0])
    rows = ((r, e, v, c) for r, poly in pairs for (e, v), c in poly.sorted_terms())
    return _csv("r,e,v,count", rows)


# argument plumbing -----------------------------------------------------------

#: Each flag group's add_argument calls, as {flag: keywords}; _COMMANDS names
#: the groups each subcommand takes.
_FLAGS: Dict[str, Dict[str, dict]] = {
    "darts": {
        "--r": dict(type=int, help="single number of darts"),
        "--r-min": dict(type=int, help="start of a dart range"),
        "--r-max": dict(type=int, help="end of a dart range (inclusive)"),
    },
    "faces": {"--faces": dict(type=int, choices=tuple(_FACES), default=1)},
    "method": {
        "--method": dict(
            choices=tuple(dict.fromkeys(m for _, m in _ROUTES)),
            help="construction to use; " + "; ".join(
                f"--faces {faces} takes {', '.join(m for f, m in _ROUTES if f == faces)} (default {default})"
                for faces, (default, *_) in _FACES.items()
            ),
        )
    },
    "format": {"--format": dict(choices=("text", "csv", "json"), default="text")},
    "out": {"--out": dict(metavar="PATH", help="write output to PATH instead of stdout")},
    "enum": {
        "--threads": dict(default="1", help="worker processes for enumeration, or 'auto'"),
        "--force": dict(action="store_true", help="enumerate past the ceiling (warns of the time)"),
    },
    "dims": {
        "--m": dict(type=int, required=True, help="dimension of the subsystem kept by the partial trace"),
        "--n": dict(type=int, required=True, help="dimension of the subsystem traced out"),
    },
    "power": {"--r": dict(type=int, required=True, help="trace power")},
    "r-max": {"--r-max": dict(type=int, default=9, help="top of the method-agreement range (at least 2)")},
    "reps": {"--reps": dict(type=int, default=5, help="timed repetitions (median reported)")},
}


def build_parser() -> argparse.ArgumentParser:
    import argparse  # only main parses arguments, so a plain import of this module leaves it out
    parser = argparse.ArgumentParser(
        prog="hypermaps",
        description="Exact generating polynomials counting rooted hypermaps "
        "by darts, edges and vertices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (run, help_line, groups) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for group in groups.split():
            for flag, spec in _FLAGS[group].items():
                p.add_argument(flag, **spec)
        p.set_defaults(run=run)
    return parser


def _threads(args) -> int:
    if args.threads == "auto":
        try:
            return len(os.sched_getaffinity(0))  # the CPUs this process may run on
        except AttributeError:  # platforms without affinity masks
            return os.cpu_count() or 1
    try:
        count = int(args.threads)
    except ValueError:
        count = 0  # not an integer: rejected below with the same message
    if count < 1:
        raise ValueError(f"--threads takes a positive integer or 'auto', not {args.threads!r}")
    return count


def _r_list(args) -> List[int]:
    if args.r is not None:
        if args.r_min is not None or args.r_max is not None:
            raise ValueError("give either --r or --r-min/--r-max, not both")
        rs = [args.r]
    elif args.r_min is None or args.r_max is None:
        raise ValueError("need --r, or both --r-min and --r-max")
    elif args.r_min > args.r_max:
        raise ValueError("--r-min exceeds --r-max")
    else:
        rs = list(range(args.r_min, args.r_max + 1))
    if min(rs) < 1:
        raise ValueError("r must be a positive integer")
    return rs


def _route(faces: int, method: Optional[str]):
    """(method, build, shapes): the _ROUTES row for --faces and --method, or the face count's default."""
    name = method or _FACES[faces][0]
    if (faces, name) in _ROUTES:
        return (name, *_ROUTES[faces, name])
    raise ValueError(f"--method {method} does not apply to --faces {faces}")


def _enum_settings(
    args, rs: Sequence[int], shapes: Optional[Callable[[int], int]]
) -> Dict[str, Optional[int]]:
    """The enumeration keywords (ceiling, workers) for a route over the r in rs.

    Every route reads --threads.  A route whose walk of Sym_r counts shapes(r)
    face shapes is refused an r above DEFAULT_ENUM_CEILING before any work,
    unless --force is given, which warns on stderr what the largest r costs.
    """
    enum = {"ceiling": None if args.force else DEFAULT_ENUM_CEILING, "workers": _threads(args)}
    if shapes is not None:
        worst = max(rs)
        enumeration.check_ceiling(worst, enum["ceiling"])
        if args.force:
            print(f"warning: ceiling override; {_serial_estimate(worst, shapes(worst))}", file=sys.stderr)
    return enum


def _serial_estimate(r: int, shapes: int = 1) -> str:
    """Sym_r's permutations and the serial time to count shapes face shapes in each; past 20 digits, powers of ten."""
    perms = factorial(r)
    rate = enumeration._NS_PER_PERM + (shapes - 1) * enumeration._NS_PER_EXTRA_SHAPE
    ns = perms * rate
    units = (("years", 31_557_600), ("days", 86_400), ("hours", 3_600), ("minutes", 60), ("seconds", 1))
    for unit, seconds in units:
        tenths = ns * 10 // (seconds * 10**9)  # integers: r! outgrows a float past r = 170
        if tenths >= 10:
            break
    count = f"= {perms}" if perms < 10**20 else f"~ {_power_of_ten(perms)}"
    span = f"{tenths // 10}.{tenths % 10}" if tenths < 10**21 else _power_of_ten(tenths // 10)
    counted = f" for {shapes} face shapes" if shapes != 1 else ""
    return (
        f"enumeration at r={r} visits {r}! {count} permutations{counted}, about {span} "
        f"{unit} serial at {rate / 1000:g} us per permutation"
    )


def _power_of_ten(x: int) -> str:
    """x >= 10 as d.dek, truncated, by integer arithmetic alone (x may have any size)."""
    k = (x.bit_length() - 1) * 301_029 // 1_000_000  # 0.301029 < log10(2), so 10**k <= x
    while 10 ** (k + 1) <= x:
        k += 1
    return f"{x // 10**k}.{x // 10 ** (k - 1) % 10}e{k}"


def _polys(args, rs: Sequence[int]) -> List[Tuple[int, BivarPoly]]:
    """(r, polynomial) for each r of rs, by the route for --faces and --method."""
    _, build, shapes = _route(args.faces, args.method)
    check_darts = _FACES[args.faces][2]
    if check_darts:
        check_darts(min(rs))  # before --force warns of a walk that would be refused
    return build(rs, _enum_settings(args, rs, shapes))


# subcommands ------------------------------------------------------------------


def _cmd_poly(args) -> Tuple[str, int]:
    pairs = _polys(args, _r_list(args))
    if args.format == "text":
        return "".join(f"{poly.render()}\n" for _, poly in pairs), 0
    return _table(pairs, args.format, listed=False), 0


def _cmd_table(args) -> Tuple[str, int]:
    return _table(_polys(args, _r_list(args)), args.format), 0


def _cmd_count(args) -> Tuple[str, int]:
    _, total, _ = _FACES[args.faces]
    counts = [(r, total(r)) for r in _r_list(args)]
    if args.format == "text" and len(counts) == 1:
        return f"{counts[0][1]}\n", 0
    if args.format == "json":
        return _json([{"r": r, "faces": args.faces, "count": str(c)} for r, c in counts]), 0
    return _csv("r,faces,count", [(r, args.faces, c) for r, c in counts]), 0


def _cmd_stirling(args) -> Tuple[str, int]:
    rs = _r_list(args)
    rows = [(r, row) for r, row in closed_form.stirling_rows(rs[-1]) if r >= rs[0]]
    if args.format == "text":
        return "".join(" ".join(str(c) for c in row) + "\n" for _, row in rows), 0
    if args.format == "json":
        return _json([{"r": r, "row": [str(c) for c in row]} for r, row in rows]), 0
    return _csv("r,k,c", [(r, k, c) for r, row in rows for k, c in enumerate(row, start=1)]), 0


def _cmd_avg_trace(args) -> Tuple[str, int]:
    value = closed_form.avg_trace_power(args.m, args.n, args.r)
    if args.format == "json":
        return _json({"m": args.m, "n": args.n, "r": args.r, "value": str(value)}), 0
    if args.format == "csv":
        return _csv("m,n,r,value", [(args.m, args.n, args.r, value)]), 0
    return f"{value}\n", 0


def _cmd_bench(args) -> Tuple[str, int]:
    import statistics  # only bench reads it, so the other commands start without it

    if args.reps < 1:
        raise ValueError("--reps must be at least 1")
    rs = _r_list(args)
    method, build, shapes = _route(1, args.method)
    enum = _enum_settings(args, rs, shapes)
    resolution_ms = time.get_clock_info("perf_counter").resolution * 1000.0

    records = []
    for r in rs:
        [(_, poly)] = build([r], enum)  # warm-up; poly gives the count
        times = []
        for _ in range(args.reps):
            t0 = time.perf_counter()
            build([r], enum)
            times.append((time.perf_counter() - t0) * 1000.0)
        ms = statistics.median(times)
        flag = "below_resolution" if ms < resolution_ms else ""
        records.append((method, r, ms, poly.eval_at(1, 1), flag))
    if args.format == "json":
        objs = [
            {"method": mth, "r": r, "ms": round(ms, 3), "count": str(c), "flag": flag}
            for mth, r, ms, c, flag in records
        ]
        return _json(objs), 0
    rows = [(mth, r, f"{ms:.3f}", c, flag) for mth, r, ms, c, flag in records]
    return _csv("method,r,ms,count,flag", rows), 0


# verify ------------------------------------------------------------------------


def _check_base_cases(enum):
    expected = {1: BivarPoly({(1, 1): 1}), 2: BivarPoly({(2, 1): 1, (1, 2): 1})}
    for (faces, _), (build, _) in _ROUTES.items():
        for r, poly in build([1, 2], enum) if faces == 1 else ():
            if poly != expected[r]:
                return False, f"mismatch at r={r}"
    return True, "P_1 = m*n and P_2 = m^2*n + m*n^2 by all three methods"


def _check_agreement(rmax, enum):
    recs = dict(recursion.stream(rmax))
    for r in range(1, rmax + 1):
        if not enumeration.one_face_poly(r, **enum) == closed_form.one_face_poly(r) == recs[r]:
            return False, f"methods disagree at r={r}"
    return True, f"enumerate = closed = recursion for r = 1..{rmax}"


def _check_totals():
    cumulative = 0
    recs = dict(recursion.stream(13))
    for r in range(1, 14):
        expected = factorial(r)
        if closed_form.one_face_poly(r).eval_at(1, 1) != expected:
            return False, f"closed-form total wrong at r={r}"
        if recs[r].eval_at(1, 1) != expected:
            return False, f"recursion total wrong at r={r}"
        cumulative += expected
    return True, f"P_r(1,1) = r! for r = 1..13; cumulative total {cumulative}"


def _check_stirling(rmax, enum):
    for r in range(1, rmax + 1):
        row = {k: c for k, c in enumerate(closed_form.stirling_row(r), start=1) if c}
        if closed_form.one_face_poly(r).substitute_n(1) != row:
            return False, f"marginal != Stirling row at r={r}"
        # the cycle histogram of Sym_r: the enumerated P_r with n = 1
        if enumeration.one_face_poly(r, **enum).substitute_n(1) != row:
            return False, f"cycle histogram != Stirling row at r={r}"
    return True, f"P_r(m,1) matches Stirling row and cycle histogram for r = 1..{rmax}"


def _check_symmetry_parity():
    # the closed form sums only its Euler-parity lattice, so this tests its mirror of the e < v sums and
    # its cancelled off-triangle slots; the certificate check's telescoping_check compares every slot (s <= 10)
    for r, rec in recursion.stream(20):
        poly = closed_form.one_face_poly(r)
        if poly != rec:
            return False, f"closed != recursion at r={r}"
        if poly != poly.swap_vars():
            return False, f"not symmetric at r={r}"
        for (e, v), c in poly.sorted_terms():
            if c < 1 or e < 1 or v < 1 or e + v > r + 1 or (e + v - r - 1) % 2:
                return False, f"bad monomial m^{e}*n^{v} at r={r}"
    return True, "m<->n symmetry and Euler parity for r = 1..20"


def _check_certificate():
    for r in range(1, 9):
        for k in range(-1, r + 3):
            if not recursion.verify_certificate(r, k):
                return False, f"certificate fails at (r={r}, k={k})"
        if not recursion.telescoping_check(r):
            return False, f"telescoping fails at r={r}"
    return True, "recurrence certificate and telescoping hold for r = 1..8, k = -1..r+2"


def _check_quantum():
    for m in range(1, 9):
        for n in range(1, 9):
            for r in range(1, 13):
                a = closed_form.avg_trace_power(m, n, r)
                b = closed_form.avg_trace_power_alt(m, n, r)
                if a != b:
                    return False, f"routes disagree at (m={m}, n={n}, r={r})"
                if (r == 1 or (m == 1 and n == 1)) and a != 1:
                    return False, f"unit-trace case not 1 at (m={m}, n={n}, r={r})"
    return True, "polynomial and truncated-sum routes agree for m,n <= 8, r <= 12"


def _check_two_face(rmax, enum):
    expected_small = {2: 1, 3: 6, 4: 34}
    for r in range(2, rmax + 1):
        result = two_face.two_face_gf(r, **enum)
        oracle = two_face.connected_two_face_oracle(r, **enum)
        if result.gf != oracle:
            return False, f"subtraction route != transitive oracle at r={r}"
        if result.total != two_face.two_face_total(r):
            return False, f"total != closed formula at r={r}"
        if r in expected_small and result.total != expected_small[r]:
            return False, f"total at r={r} is {result.total}"
    return True, f"subtraction route = transitive oracle and totals match for r = 2..{rmax}"


def _cmd_verify(args) -> Tuple[str, int]:
    if args.r_max < 2:
        raise ValueError("--r-max must be at least 2, the smallest two-face check")
    rmax = args.r_max
    # method-agreement enumerates every r up to rmax, so refuse it before any check runs
    enum = _enum_settings(args, [rmax], _ROUTES[1, "enumerate"][1])
    checks = [
        ("base-cases", lambda: _check_base_cases(enum)),
        ("method-agreement", lambda: _check_agreement(rmax, enum)),
        ("totals", _check_totals),
        ("stirling-marginal", lambda: _check_stirling(min(8, rmax), enum)),
        ("symmetry-parity", _check_symmetry_parity),
        ("certificate", _check_certificate),
        ("quantum-moments", _check_quantum),
        ("two-face", lambda: _check_two_face(min(8, rmax), enum)),
    ]
    lines = []
    passed = 0
    for name, fn in checks:
        start = time.perf_counter()
        ok, detail = fn()
        # timings vary from run to run, so they go to stderr and stdout stays byte-identical
        print(f"time {name}: {time.perf_counter() - start:.3f} s", file=sys.stderr, flush=True)
        passed += ok
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    lines.append(f"verify: {passed}/{len(checks)} checks passed")
    return "\n".join(lines) + "\n", 0 if passed == len(checks) else 1


# entry point --------------------------------------------------------------------

#: Each subcommand in --help order: (handler, help line, its _FLAGS groups in
#: --help order).  A subcommand takes only the flags its handler reads.
_COMMANDS = {
    "poly": (_cmd_poly, "print a generating polynomial", "darts faces method format out enum"),
    "table": (_cmd_table, "coefficient table (r, e, v, count)", "darts faces method format out enum"),
    "count": (_cmd_count, "total number of maps for given darts", "darts faces format out"),
    "stirling": (_cmd_stirling, "unsigned Stirling numbers of the first kind", "darts format out"),
    "avg-trace": (_cmd_avg_trace, "exact mean trace power of a random reduced state", "dims format out power"),
    "verify": (_cmd_verify, "run the cross-validation suite", "out enum r-max"),
    "bench": (_cmd_bench, "time the constructions (CSV)", "darts method format out enum reps"),
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    import signal  # only main handles signals, so a plain import of this module leaves them out
    args = build_parser().parse_args(argv)
    # recent Pythons cap int-to-str at 4300 digits; lift the cap for this call only
    cap = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if cap is not None:
        sys.set_int_max_str_digits(0)
    def terminate(signum, frame):  # SIGTERM unwinds like Ctrl-C, for this call only
        raise KeyboardInterrupt(signum)
    try:
        on_term = signal.signal(signal.SIGTERM, terminate)
    except ValueError:  # only the main thread may set handlers
        on_term = None
    try:
        try:
            text, code = args.run(args)
        except (LimitExceeded, ValueError, OverflowError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except MemoryError:  # a dart range too long to hold, say
            print("error: out of memory", file=sys.stderr)
            return 2
        except NotDivisible as exc:
            print(f"internal consistency failure: {exc}", file=sys.stderr)
            return 3
        if args.out:
            try:
                _write_atomic(args.out, text)
            except OSError as exc:
                print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
                return 2
        else:
            sys.stdout.write(text)
        return code
    except KeyboardInterrupt as exc:  # Ctrl-C, or SIGTERM by way of terminate
        print("interrupted", file=sys.stderr)
        return 128 + (exc.args or (signal.SIGINT,))[0]
    finally:
        if on_term is not None:
            signal.signal(signal.SIGTERM, on_term)
        if cap is not None:
            sys.set_int_max_str_digits(cap)


def _write_atomic(path: str, text: str):
    """Write text to path through a temporary file beside it and os.replace.

    A failed write leaves neither a half-written path nor the temporary file.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    fh = open(tmp, "x")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


if __name__ == "__main__":
    sys.exit(main())
