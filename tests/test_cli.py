import hashlib
import io
import json
import os
import re
import signal
import subprocess
import sys
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hypermaps import cli, closed_form, enumeration, recursion, two_face
from hypermaps.cli import _ROUTES, _serial_estimate, main
from hypermaps.polynomial import BivarPoly


@contextmanager
def _uncapped_int_str():
    # lifts Python's cap on int-to-str digits, where there is one, for the test's own str()
    saved = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if saved is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if saved is not None:
            sys.set_int_max_str_digits(saved)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_poly_methods_agree(capsys):
    outputs = {
        method: run_cli(capsys, "poly", "--r", "6", "--method", method)[1]
        for method in ("enumerate", "closed", "recursion")
    }
    assert len(set(outputs.values())) == 1


def test_recurrence_is_the_default_route(capsys, monkeypatch):
    # with the closed form out of action, requests without --method still answer
    def refuse(r):
        raise RuntimeError("closed form called")

    monkeypatch.setattr(closed_form, "one_face_poly", refuse)
    for argv in (["poly", "--r", "5"], ["table", "--r", "5", "--format", "csv"]):
        code, out = run_cli(capsys, *argv)
        assert code == 0, argv
        assert out == run_cli(capsys, *argv, "--method", "recursion")[1], argv
    code, out = run_cli(capsys, "bench", "--r", "3", "--reps", "1")
    assert code == 0
    assert out.splitlines()[1].split(",")[0] == "recursion"


def closed_rows(rs):
    """Expected (r, e, v, count) table rows, built from the closed form."""
    return [(r, e, v, c) for r in rs for (e, v), c in closed_form.one_face_poly(r).sorted_terms()]


def test_table_csv_round_trip(capsys):
    code, out = run_cli(capsys, "table", "--r-min", "1", "--r-max", "5", "--format", "csv")
    assert code == 0
    expected = ["r,e,v,count"] + [f"{r},{e},{v},{c}" for r, e, v, c in closed_rows(range(1, 6))]
    assert out == "\n".join(expected) + "\n"


def test_table_json_round_trip(capsys):
    code, out = run_cli(capsys, "table", "--r-min", "2", "--r-max", "4", "--format", "json")
    assert code == 0
    rows = closed_rows(range(2, 5))
    assert json.loads(out) == [
        {"r": r, "terms": [{"e": e, "v": v, "c": str(c)} for rr, e, v, c in rows if rr == r]}
        for r in range(2, 5)
    ]


def test_table_rows_are_counts(capsys):
    _, out = run_cli(capsys, "table", "--r", "3", "--format", "csv")
    header, *lines = out.splitlines()
    assert header == "r,e,v,count"
    rows = [tuple(int(x) for x in line.split(",")) for line in lines]
    assert rows == [(3, 3, 1, 1), (3, 2, 2, 3), (3, 1, 3, 1), (3, 1, 1, 1)]
    assert rows == closed_rows([3])


_TERMS_2 = '{"r": 2, "terms": [{"e": 2, "v": 1, "c": "1"}, {"e": 1, "v": 2, "c": "1"}]}'
_TERMS_3 = (
    '{"r": 3, "terms": [{"e": 3, "v": 1, "c": "1"}, {"e": 2, "v": 2, "c": "3"}, '
    '{"e": 1, "v": 3, "c": "1"}, {"e": 1, "v": 1, "c": "1"}]}'
)


#: Every pinned stdout, as (argv, its bytes at exit 0); a long one is pinned
#: as "sha256:" and the hex digest of its bytes.  JSON for a single r is a
#: list everywhere except in poly.
_OUTPUTS = [
    ("poly --r 1 --method enumerate", "m*n\n"),
    ("poly --r 2 --method closed", "m^2*n + m*n^2\n"),
    ("poly --r 3 --method recursion", "m^3*n + 3*m^2*n^2 + m*n^3 + m*n\n"),
    ("poly --r 2 --faces 2", "m*n\n"),
    ("poly --r 2 --format json", f"{_TERMS_2}\n"),
    ("poly --r-min 2 --r-max 3 --format csv", "r,e,v,count\n2,2,1,1\n2,1,2,1\n3,3,1,1\n3,2,2,3\n3,1,3,1\n3,1,1,1\n"),
    ("poly --r-min 2 --r-max 3 --format json", f"[{_TERMS_2}, {_TERMS_3}]\n"),
    ("poly --r-min 1 --r-max 60", "sha256:c6fb6382cc5d8bb6c42a675cb51fdcc9e5906d1efbe93744647b0c1ce6e29cc8"),
    ("table --r 3", "r,e,v,count\n3,3,1,1\n3,2,2,3\n3,1,3,1\n3,1,1,1\n"),
    ("table --r 3 --format json", f"[{_TERMS_3}]\n"),
    (
        "table --r-min 1 --r-max 4 --format csv",
        "r,e,v,count\n1,1,1,1\n2,2,1,1\n2,1,2,1\n3,3,1,1\n3,2,2,3\n3,1,3,1\n3,1,1,1\n"
        "4,4,1,1\n4,3,2,6\n4,2,3,6\n4,2,1,5\n4,1,4,1\n4,1,2,5\n",
    ),
    # the two-face route serial and pooled: --threads 2 pools r = 8
    *[
        (
            f"table --r-min 2 --r-max 8 --faces 2 --format csv --threads {threads}",
            "sha256:0fb074fd936a41fc061f5df7eafac900a670301923d744cb465324b7275cd460",
        )
        for threads in (1, 2)
    ],
    ("count --r 13", "6227020800\n"),
    ("count --r 5 --faces 2", "210\n"),
    ("count --r 5 --format json", '[{"r": 5, "faces": 1, "count": "120"}]\n'),
    (
        "count --faces 2 --r-min 3 --r-max 4 --format json",
        '[{"r": 3, "faces": 2, "count": "6"}, {"r": 4, "faces": 2, "count": "34"}]\n',
    ),
    ("count --r-min 1 --r-max 3", "r,faces,count\n1,1,1\n2,1,2\n3,1,6\n"),
    ("count --r-min 1 --r-max 3 --format csv", "r,faces,count\n1,1,1\n2,1,2\n3,1,6\n"),
    ("count --faces 2 --r-min 2 --r-max 4 --format csv", "r,faces,count\n2,2,1\n3,2,6\n4,2,34\n"),
    ("stirling --r 3", "2 3 1\n"),
    ("stirling --r 4 --format csv", "r,k,c\n4,1,6\n4,2,11\n4,3,6\n4,4,1\n"),
    ("stirling --r 4 --format json", '[{"r": 4, "row": ["6", "11", "6", "1"]}]\n'),
    ("stirling --r-min 1 --r-max 4", "1\n1 1\n2 3 1\n6 11 6 1\n"),
    # a range is stepped from r = 1 and drops the rows below --r-min
    ("stirling --r-min 3 --r-max 5", "2 3 1\n6 11 6 1\n24 50 35 10 1\n"),
    ("stirling --r-min 1 --r-max 200", "sha256:562d1c2d8f120f1aae4f186acc8e98234fdc8b67e3b6163cce6dfdd18751c4b7"),
    ("avg-trace --m 2 --n 2 --r 2", "4/5\n"),
    ("avg-trace --m 2 --n 2 --r 2 --format csv", "m,n,r,value\n2,2,2,4/5\n"),
    ("avg-trace --m 3 --n 2 --r 2 --format json", '{"m": 3, "n": 2, "r": 2, "value": "5/7"}\n'),
]


@pytest.mark.parametrize("argv, expected", _OUTPUTS)
def test_every_format_is_pinned(capsys, argv, expected):
    code, out = run_cli(capsys, *argv.split())
    if expected.startswith("sha256:"):
        out = "sha256:" + hashlib.sha256(out.encode()).hexdigest()
    assert (code, out) == (0, expected)


def test_every_subcommand_and_format_has_an_output_row():
    # bench prints timings, so no row can pin it; verify takes no --format, and
    # its stdout is pinned beside its stderr timings in test_verify_times_go_to_stderr
    accepted = {
        (name, fmt)
        for name, (_, _, groups) in cli._COMMANDS.items()
        if name != "bench" and "format" in groups.split()
        for fmt in cli._FLAGS["format"]["--format"]["choices"]
    }
    pinned = {(argv.split()[0], re.search(r"--format (\w+)|$", argv)[1] or "text") for argv, _ in _OUTPUTS}
    assert pinned == accepted


def assert_refused(capsys, argv, line):
    """argv exits 2 with nothing on stdout and line alone on stderr, so it is refused before the first byte."""
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"{line}\n")


#: Every one-case refusal, as (argv, its one stderr line); the refusals of a
#: flag over several values are the parametrized tests below, with the same check.
_REFUSALS = [
    ("poly", "error: need --r, or both --r-min and --r-max"),
    ("poly --r-min 5 --r-max 3", "error: --r-min exceeds --r-max"),
    ("poly --r 3 --r-min 1 --r-max 4", "error: give either --r or --r-min/--r-max, not both"),
    (
        "poly --r 20 --method enumerate",
        "error: enumeration over Sym_20 exceeds the ceiling of 13 (the work factor is r*r!; "
        "--force on the command line, or ceiling=None, overrides it)",
    ),
    ("count --faces 2 --r 1", "error: two-face maps need at least 2 darts"),
    ("avg-trace --m 0 --n 2 --r 2", "error: m, n, r must all be positive, got (0, 2, 2)"),
]


@pytest.mark.parametrize("argv, line", _REFUSALS)
def test_every_refusal_is_pinned(capsys, argv, line):
    assert_refused(capsys, argv.split(), line)


@pytest.mark.parametrize(
    "argv",
    [
        "poly --r-min 0 --r-max 3", "table --r-min 0 --r-max 2", "poly --r 0 --method closed",
        "count --r 0", "stirling --r 0",
    ],
    ids=["poly-range", "table-range", "poly-closed", "count", "stirling"],
)
def test_darts_below_one_are_rejected(capsys, argv):
    assert_refused(capsys, argv.split(), "error: r must be a positive integer")


@pytest.mark.parametrize("command", ["poly", "table"])
@pytest.mark.parametrize("darts", [["--r", "1"], ["--r-min", "1", "--r-max", "3"]], ids=["r1", "r1-3"])
def test_too_few_darts_for_two_faces_are_refused_before_any_warning(capsys, command, darts):
    # --force would warn of a walk that the library then refuses
    assert_refused(capsys, [command, "--faces", "2", *darts, "--force"], "error: two-face maps need at least 2 darts")


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
def test_bad_threads_value_names_the_flag(capsys, value):
    line = f"error: --threads takes a positive integer or 'auto', not '{value}'"
    assert_refused(capsys, ["poly", "--r", "3", "--threads", value], line)


@pytest.mark.parametrize("r_max", ["1", "0", "-3"])
def test_verify_r_max_below_two_is_rejected(capsys, r_max):
    # the two-face check starts at r = 2, so a smaller --r-max would test nothing
    line = "error: --r-max must be at least 2, the smallest two-face check"
    assert_refused(capsys, ["verify", "--r-max", r_max], line)


@pytest.mark.parametrize("reps", ["0", "-4"])
def test_bench_reps_below_one_are_rejected(capsys, reps):
    argv = ["bench", "--r", "3", "--method", "closed", "--reps", reps]
    assert_refused(capsys, argv, "error: --reps must be at least 1")


def test_bench_json_shape(capsys):
    code, out = run_cli(capsys, "bench", "--r-min", "2", "--r-max", "3", "--reps", "1", "--format", "json")
    assert code == 0
    assert out.endswith("]\n") and out.count("\n") == 1
    objs = json.loads(out)
    assert [list(obj) for obj in objs] == [["method", "r", "ms", "count", "flag"]] * 2
    assert [(obj["method"], obj["r"], obj["count"]) for obj in objs] == [
        ("recursion", 2, "2"),
        ("recursion", 3, "6"),
    ]
    for obj in objs:
        assert isinstance(obj["ms"], float) and obj["ms"] >= 0.0
        assert obj["flag"] in ("", "below_resolution")


def test_force_overrides_ceiling(capsys, monkeypatch):
    argv = ["poly", "--r", "7", "--method", "enumerate"]
    expected = run_cli(capsys, *argv)[1]
    monkeypatch.setattr("hypermaps.cli.DEFAULT_ENUM_CEILING", 5)
    assert run_cli(capsys, *argv) == (2, "")
    assert run_cli(capsys, *argv, "--force") == (0, expected)
    assert expected.count("\n") == 1


def test_an_inexact_division_exits_3(capsys, monkeypatch, tmp_path):
    # with r! read as r! + 1 the closed form's final division leaves a remainder, which is exit 3
    monkeypatch.setattr(closed_form, "factorial", lambda r: factorial(r) + 1)
    path = tmp_path / "poly.txt"
    for out in ([], ["--out", str(path)]):
        code = main(["poly", "--r", "12", "--method", "closed", *out])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("internal consistency failure: coefficient ")
    assert list(tmp_path.iterdir()) == []  # neither --out's file nor its temporary file


@pytest.mark.parametrize("command", ["poly", "table"])
def test_one_face_methods_are_rejected_with_two_faces(capsys, command):
    # two-face polynomials are only enumerated, so closed and recursion would be ignored
    for method in ("closed", "recursion"):
        code = main([command, "--r", "4", "--faces", "2", "--method", method])
        captured = capsys.readouterr()
        assert code == 2, method
        assert captured.out == ""
        assert captured.err == f"error: --method {method} does not apply to --faces 2\n"
    default = run_cli(capsys, command, "--r", "4", "--faces", "2")
    assert default[0] == 0
    assert run_cli(capsys, command, "--r", "4", "--faces", "2", "--method", "enumerate") == default


# the library call behind each (faces, method) the CLI accepts; a missing
# method is the face count's default
_LIBRARY_ROUTES = {
    (1, "enumerate"): enumeration.one_face_poly,
    (1, "closed"): closed_form.one_face_poly,
    (1, "recursion"): lambda r: dict(recursion.stream(r))[r],
    (2, "enumerate"): lambda r: two_face.two_face_gf(r).gf,
}
_DEFAULT_METHODS = {1: "recursion", 2: "enumerate"}


def test_route_table_holds_exactly_the_library_routes():
    assert list(_ROUTES) == list(_LIBRARY_ROUTES)


@pytest.mark.parametrize("command", ["poly", "table"])
@pytest.mark.parametrize("faces", [1, 2])
@pytest.mark.parametrize("method", [None, "enumerate", "closed", "recursion"])
def test_each_faces_and_method_runs_its_library_route(capsys, command, faces, method):
    argv = [command, "--r-min", "3", "--r-max", "5", "--faces", str(faces)]
    code = main(argv + (["--method", method] if method else []))
    captured = capsys.readouterr()
    build = _LIBRARY_ROUTES.get((faces, method or _DEFAULT_METHODS[faces]))
    if build is None:
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: --method {method} does not apply to --faces {faces}\n"
    elif command == "poly":
        assert (code, captured.out) == (0, "".join(f"{build(r).render()}\n" for r in (3, 4, 5)))
    else:
        rows = [f"{r},{e},{v},{c}\n" for r in (3, 4, 5) for (e, v), c in build(r).sorted_terms()]
        assert (code, captured.out) == (0, "r,e,v,count\n" + "".join(rows))


@pytest.mark.parametrize("method", [None, "enumerate", "closed", "recursion"])
def test_bench_runs_the_one_face_routes(capsys, method):
    code, out = run_cli(capsys, "bench", "--r", "4", "--reps", "1", *(["--method", method] if method else []))
    assert code == 0
    assert out.splitlines()[1].split(",")[::3] == [method or "recursion", "24"]
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--r", "4", "--faces", "2", *(["--method", method] if method else [])])
    assert exc.value.code == 2
    assert "unrecognized arguments: --faces 2" in capsys.readouterr().err


def test_unread_options_are_rejected(capsys):
    # each subcommand takes only the flags its handler reads, so no flag is
    # accepted and then ignored (bench --faces 2 would print a one-face count)
    rejected = [
        [*base, *flag]
        for base in (
            ["count", "--r", "3"],
            ["stirling", "--r", "3"],
            ["avg-trace", "--m", "2", "--n", "2", "--r", "2"],
        )
        for flag in (["--threads", "2"], ["--enum-ceiling", "5"], ["--force"])
    ]
    rejected += [["verify", "--format", "json"], ["bench", "--r", "5", "--faces", "2"]]
    # --force is the one switch past the enumeration ceiling
    rejected += [
        [*base, "--enum-ceiling", "20"]
        for base in (["poly", "--r", "3"], ["table", "--r", "3"], ["verify"], ["bench", "--r", "3"])
    ]
    assert len(rejected) == 15
    for argv in rejected:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err, argv


#: --help text for the top level (hypermaps.txt) and each subcommand, at 80 columns
_HELP = Path(__file__).with_name("help")


@pytest.mark.parametrize("name", ["hypermaps", "poly", "table", "count", "stirling", "avg-trace", "verify", "bench"])
def test_help_text_is_pinned(capsys, monkeypatch, name):
    # argparse wraps help to COLUMNS, or else to the terminal's width
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([*([] if name == "hypermaps" else [name]), "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == (_HELP / f"{name}.txt").read_text()


def test_every_handler_is_registered_once():
    runs = [run for run, _, _ in cli._COMMANDS.values()]
    handlers = {obj for name, obj in vars(cli).items() if name.startswith("_cmd_")}
    assert len(runs) == len(set(runs))
    assert set(runs) == handlers
    assert not hasattr(cli, "_HANDLERS")


def test_out_file(tmp_path, capsys):
    target = tmp_path / "p.txt"
    code, out = run_cli(capsys, "poly", "--r", "2", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == "m^2*n + m*n^2\n"
    assert list(tmp_path.iterdir()) == [target]  # no temporary file left


@pytest.mark.parametrize("target", ["no/such/x", "d"])
def test_out_write_failure_exit_code(tmp_path, capsys, target):
    (tmp_path / "d").mkdir()
    code = main(["count", "--r", "3", "--out", str(tmp_path / target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    assert [p.name for p in tmp_path.iterdir()] == ["d"]
    assert list((tmp_path / "d").iterdir()) == []


def test_verify_times_go_to_stderr(capsys):
    code = main(["verify", "--r-max", "5"])
    captured = capsys.readouterr()
    assert code == 0
    # stdout of `hypermaps verify --r-max 5` before the timings were added
    assert hashlib.sha256(captured.out.encode()).hexdigest() == (
        "c8d96e7ca2f0fc9f2e6ec9f352050b6030babca71b803754430bffced2c5e493"
    )
    timed = [line.split(":")[0] for line in captured.err.splitlines()]
    assert timed == [
        f"time {name}"
        for name in (
            "base-cases",
            "method-agreement",
            "totals",
            "stirling-marginal",
            "symmetry-parity",
            "certificate",
            "quantum-moments",
            "two-face",
        )
    ]


def _adds(extra, *at):
    """A corruption of a function: it adds extra to the value at the arguments at, or to every value without at."""
    def corrupt(fn):
        def corrupted(*args, **kwargs):
            value = fn(*args, **kwargs)
            return value + extra if not at or args == at else value
        return corrupted
    return corrupt


@pytest.mark.parametrize(
    "module, name, corrupt, failure",
    [
        (recursion, "stream", lambda stream: lambda r_max: (
            (r, p + BivarPoly({(1, 3): 1}) if r == 2 else p) for r, p in stream(r_max)
        ), "FAIL base-cases: mismatch at r=2"),
        (enumeration, "one_face_poly", _adds(BivarPoly({(1, 1): 1}), 3),
         "FAIL method-agreement: methods disagree at r=3"),
        (closed_form, "one_face_poly", _adds(BivarPoly({(1, 1): 1}), 13),
         "FAIL totals: closed-form total wrong at r=13"),
        (closed_form, "stirling_row", lambda row: lambda r: [c + (r == 2) for c in row(r)],
         "FAIL stirling-marginal: marginal != Stirling row at r=2"),
        (closed_form, "one_face_poly", _adds(BivarPoly({(5, 0): 1}), 15),
         "FAIL symmetry-parity: closed != recursion at r=15"),
        (recursion, "certificate_bracket", _adds(BivarPoly({(0, 0): 1})),
         "FAIL certificate: certificate fails at (r=1, k=0)"),
        (closed_form, "one_face_poly", _adds(BivarPoly({(1, 1): 1}), 10),
         "FAIL certificate: telescoping fails at r=8"),
        (closed_form, "avg_trace_power_alt", _adds(1, 3, 2, 2),
         "FAIL quantum-moments: routes disagree at (m=3, n=2, r=2)"),
        (two_face, "two_face_total", _adds(1, 3), "FAIL two-face: total != closed formula at r=3"),
        (two_face, "connected_two_face_oracle", _adds(BivarPoly({(1, 1): 1}), 3),
         "FAIL two-face: subtraction route != transitive oracle at r=3"),
    ],
    ids=["base-cases", "method-agreement", "totals", "stirling-marginal", "symmetry-parity",
         "certificate", "telescoping", "quantum-moments", "two-face", "two-face-oracle"],
)
def test_each_verify_check_fails_on_a_corrupted_route(capsys, monkeypatch, module, name, corrupt, failure):
    monkeypatch.setattr(module, name, corrupt(getattr(module, name)))
    code, out = run_cli(capsys, "verify", "--r-max", "3")
    assert code == 1
    lines = out.splitlines()
    assert failure in lines
    summary = re.fullmatch(r"verify: (\d)/8 checks passed", lines[-1])
    assert summary and int(summary[1]) < 8


def test_verify_force_warns(capsys):
    expected = run_cli(capsys, "verify", "--r-max", "3")[1]
    code = main(["verify", "--r-max", "3", "--force"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err.splitlines()[0] == (
        "warning: ceiling override; enumeration at r=3 visits 3! = 6 permutations, "
        "about 0.0 seconds serial at 2 us per permutation"
    )
    assert captured.out == expected


@pytest.mark.parametrize(
    "r, estimate",
    [
        (10, "10! = 3628800 permutations, about 9.0 seconds"),
        (11, "11! = 39916800 permutations, about 1.6 minutes"),
        (13, "13! = 6227020800 permutations, about 4.3 hours"),
        (14, "14! = 87178291200 permutations, about 2.5 days"),
        (17, "17! = 355687428096000 permutations, about 28.1 years"),
    ],
)
def test_force_warning_estimates_serial_time(monkeypatch, r, estimate):
    # in whole tenths of the largest unit, at a pinned 2.5 us per permutation so
    # that re-measuring the rate leaves these cases be and a fractional rate is
    # printed as one; the measured rate's text is pinned by the tests around this
    monkeypatch.setattr(enumeration, "_NS_PER_PERM", 2500)
    assert _serial_estimate(r) == (
        f"enumeration at r={r} visits {estimate} serial at 2.5 us per permutation"
    )


def test_two_face_force_warning_counts_its_face_shapes(capsys, monkeypatch):
    # two_face_gf counts r // 2 face shapes per permutation, each past the first
    # adding 1 us to the one-face rate
    assert _serial_estimate(14, 7) == (
        "enumeration at r=14 visits 14! = 87178291200 permutations for 7 face shapes, "
        "about 8.0 days serial at 8 us per permutation"
    )
    monkeypatch.setattr("hypermaps.cli.DEFAULT_ENUM_CEILING", 5)
    assert main(["poly", "--r", "7", "--faces", "2", "--force"]) == 0
    assert capsys.readouterr().err == (
        "warning: ceiling override; enumeration at r=7 visits 7! = 5040 permutations for 3 face shapes, "
        "about 0.0 seconds serial at 4 us per permutation\n"
    )


def test_force_warning_stays_short_past_20_digits():
    # past 20 digits r! and the time are powers of ten, truncated to one decimal
    assert "22! ~ 1.1e21 permutations, about 71234867.5 years" in _serial_estimate(22)
    assert "40! ~ 8.1e47 permutations, about 5.1e34 years" in _serial_estimate(40)
    # 30000! has 121288 digits; in full they made a line of 242,664 characters
    line = _serial_estimate(30000)
    assert len(line) < 200
    assert "30000! ~ 2.7e121287 permutations, about 1.7e121274 years" in line


def test_bench_csv_shape(capsys):
    code, out = run_cli(
        capsys, "bench", "--r-min", "2", "--r-max", "4", "--method", "closed", "--reps", "1"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "method,r,ms,count,flag"
    assert len(lines) == 4
    method, r, ms, count, flag = lines[1].split(",")
    assert method == "closed" and r == "2" and count == "2"
    assert float(ms) >= 0.0
    for line in lines[1:]:
        ms, flag = line.split(",")[2::2]
        assert re.fullmatch(r"\d+\.\d{3}", ms)
        assert flag in ("", "below_resolution")


def test_count_prints_more_than_4300_digits(capsys):
    code, out = run_cli(capsys, "count", "--r", "1700")
    assert code == 0
    assert len(out) > 4300
    with _uncapped_int_str():
        assert out == f"{factorial(1700)}\n"


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str cap in this Python")
@pytest.mark.parametrize(
    "argv, expected",
    [(["count", "--r", "1700"], 0), (["count", "--r-min", "3", "--r-max", "2"], 2)],
    ids=["success", "exit-2"],
)
def test_main_leaves_the_int_str_cap_as_it_found_it(capsys, argv, expected):
    # main lifts the cap for its own output only; the caller's process keeps its cap
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # Python's default
    try:
        assert main(argv) == expected
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(saved)
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--r", str(10**20)],
        ["count", "--faces", "2", "--r", str(10**20)],
        ["count", "--r-min", "1", "--r-max", str(10**20)],
        # refused before any check: method-agreement would first enumerate
        # r = 9..13 (hours), or stream the recurrence without bound
        ["verify", "--r-max", "14"],
        ["verify", "--r-max", str(2**63)],
    ],
    ids=["one-face", "two-face", "range", "verify-past-ceiling", "verify-enormous"],
)
def test_enormous_r_is_an_error_not_a_traceback(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.skipif(not hasattr(os, "fork"), reason="sets the child's memory limit between fork and exec")
def test_a_dart_range_too_large_to_hold_exits_2():
    # 10^11 darts make a list of 800 GB; under a 1.5 GB address-space limit its
    # allocation fails at once
    import resource

    limit = 1_500_000 * 1024
    proc = subprocess.run(
        [sys.executable, "-m", "hypermaps", "count", "--r-min", "1", "--r-max", "100000000000"],
        capture_output=True, text=True, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: out of memory\n")


_SMALL_R = st.integers(-1, 7).map(str)
_EXTRA_FLAGS = st.sampled_from(
    [
        ["--format", "json"], ["--format", "csv"], ["--format", "xml"],
        ["--faces", "2"], ["--faces", "3"],
        ["--method", "closed"], ["--method", "recursion"], ["--method", "enumerate"],
        ["--threads", "2"], ["--threads", "auto"], ["--threads", "abc"],
        ["--force"], ["--enum-ceiling", "5"], ["--reps", "1"], ["--r", "3"], ["--bogus"],
    ]
)


@st.composite
def _cli_argv(draw):
    if draw(st.integers(0, 4)) == 0:
        # r >= 2^63 only where the CLI must refuse it at once; elsewhere the
        # work grows with r, so such an r runs as long as it asks
        base = draw(
            st.sampled_from(
                [
                    ["count"],
                    ["count", "--faces", "2"],
                    ["poly", "--method", "enumerate"],
                    ["table", "--method", "enumerate"],
                    ["poly", "--faces", "2"],
                    ["table", "--faces", "2"],
                ]
            )
        )
        return [*base, "--r", str(draw(st.integers(2**63, 2**64)))]
    command = draw(st.sampled_from(["poly", "table", "count", "stirling", "avg-trace", "bench", "verify"]))
    argv = [command]
    if command == "avg-trace":
        argv += ["--m", draw(_SMALL_R), "--n", draw(_SMALL_R), "--r", draw(_SMALL_R)]
    elif command == "verify":
        argv += ["--r-max", draw(st.sampled_from(["-1", "0", "1"]))]  # a full verify takes seconds
    else:
        darts = draw(st.integers(0, 2))
        if darts == 1:
            argv += ["--r", draw(_SMALL_R)]
        elif darts == 2:
            argv += ["--r-min", draw(_SMALL_R), "--r-max", draw(_SMALL_R)]
    for flags in draw(st.lists(_EXTRA_FLAGS, max_size=3)):
        argv += flags
    return argv


@settings(max_examples=80, deadline=None)
@given(_cli_argv())
def test_any_argv_ends_with_a_documented_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejecting the command line
            code = exc.code
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv


def test_repeated_runs_are_byte_identical(capsys):
    first = run_cli(capsys, "poly", "--r", "8", "--method", "enumerate")[1]
    second = run_cli(capsys, "poly", "--r", "8", "--method", "enumerate")[1]
    assert first == second


def test_threads_auto(capsys):
    code, out = run_cli(capsys, "poly", "--r", "6", "--method", "enumerate", "--threads", "auto")
    assert code == 0
    assert out == run_cli(capsys, "poly", "--r", "6", "--method", "enumerate")[1]


def _subprocess_out(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "hypermaps", *argv],
        capture_output=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_single_and_multi_threaded_poly_are_byte_identical():
    # --threads 2 walks r = 7 serially and pools r = 8 (8! permutations)
    for r in ("7", "8"):
        serial = _subprocess_out("poly", "--r", r, "--method", "enumerate", "--threads", "1")
        parallel = _subprocess_out("poly", "--r", r, "--method", "enumerate", "--threads", "2")
        assert serial == parallel


def test_single_and_multi_threaded_verify_are_byte_identical():
    serial = _subprocess_out("verify", "--r-max", "6", "--threads", "1")
    parallel = _subprocess_out("verify", "--r-max", "6", "--threads", "2")
    assert serial == parallel


def _group_ignoring_sigint(pgid):
    'pids other than pgid in process group pgid that ignore SIGINT, read from /proc (Linux)'
    found = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/stat") as fh:
                group = int(fh.read().rsplit(")", 1)[1].split()[2])
            with open(f"/proc/{pid}/status") as fh:
                ignored = next(int(line.split()[1], 16) for line in fh if line.startswith("SigIgn:"))
        except (OSError, StopIteration):
            continue  # the process ended while it was read
        if group == pgid and int(pid) != pgid and ignored >> (signal.SIGINT - 1) & 1:
            found.append(int(pid))
    return found


def _wait_for_pool(proc):
    'return once both pool workers have run their initializer, which ignores SIGINT'
    deadline = time.monotonic() + 60
    while len(_group_ignoring_sigint(proc.pid)) < 2:
        assert proc.poll() is None and time.monotonic() < deadline, "no pool came up"
        time.sleep(0.02)


def _group_gone_within(pgid, seconds):
    deadline = time.monotonic() + seconds
    while _group_alive(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)
    return not _group_alive(pgid)


ON_PROC = pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="reads worker processes from Linux /proc")


@ON_PROC
@pytest.mark.parametrize("signum, to_group, code, r", [
    pytest.param(signal.SIGINT, True, 130, "10", id="SIGINT"),  # a terminal's Ctrl-C reaches the whole process group
    pytest.param(signal.SIGTERM, False, 143, "10", id="SIGTERM"),  # kill PID reaches the parent alone
    # an r = 11 shard is 10! permutations, seconds of work: the pool must not wait for it
    pytest.param(signal.SIGINT, True, 130, "11", id="SIGINT-r11"),
    pytest.param(signal.SIGTERM, False, 143, "11", id="SIGTERM-r11"),
])
def test_interrupt_ends_a_pooled_run_cleanly(signum, to_group, code, r):
    proc = subprocess.Popen(
        [sys.executable, "-m", "hypermaps", "poly", "--r", r, "--method", "enumerate", "--threads", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        _wait_for_pool(proc)
        (os.killpg if to_group else os.kill)(proc.pid, signum)
        sent = time.monotonic()
        out, err = proc.communicate(timeout=60)
        took = time.monotonic() - sent
        orphaned = not _group_gone_within(proc.pid, 10)  # a worker that outlived the run
    finally:
        if _group_alive(proc.pid):
            os.killpg(proc.pid, signal.SIGKILL)
    assert (proc.returncode, out, err) == (code, "", "interrupted\n")
    assert took < 2, f"exited {took:.2f} s after the signal"
    assert not orphaned


@ON_PROC
@pytest.mark.parametrize("signum", [signal.SIGKILL, signal.SIGTERM], ids=["SIGKILL", "SIGTERM"])
def test_a_worker_killed_mid_shard_ends_the_run(signum):
    # the pool starts a replacement worker but never reruns the lost shard, so the
    # call must notice the death rather than wait for that shard (10! permutations)
    proc = subprocess.Popen(
        [sys.executable, "-m", "hypermaps", "poly", "--r", "11", "--method", "enumerate", "--threads", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        _wait_for_pool(proc)
        os.kill(_group_ignoring_sigint(proc.pid)[0], signum)
        sent = time.monotonic()
        out, err = proc.communicate(timeout=60)
        took = time.monotonic() - sent
        orphaned = not _group_gone_within(proc.pid, 10)
    finally:
        if _group_alive(proc.pid):
            os.killpg(proc.pid, signal.SIGKILL)
    assert (proc.returncode, out, err) == (2, "", "error: an enumeration worker died before the walk was done\n")
    assert took < 2, f"exited {took:.2f} s after the worker died"
    assert not orphaned


@ON_PROC
def test_library_caller_killed_by_sigterm_leaves_no_worker():
    # no handler is installed outside cli.main, so SIGTERM ends the caller at once;
    # each worker ends when its current shard is done and finds no parent to take it
    proc = subprocess.Popen(
        [sys.executable, "-c", "from hypermaps import enumeration; enumeration.one_face_poly(10, workers=2)"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True,
    )
    try:
        _wait_for_pool(proc)
        os.kill(proc.pid, signal.SIGTERM)
        proc.wait(timeout=60)
        orphaned = not _group_gone_within(proc.pid, 10)
    finally:
        if _group_alive(proc.pid):
            os.killpg(proc.pid, signal.SIGKILL)
    assert proc.returncode == -signal.SIGTERM
    assert not orphaned


def _group_alive(pgid):
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True
