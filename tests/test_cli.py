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

import pytest
from hypothesis import given, settings, strategies as st

from hypermaps import closed_form, enumeration, recursion, two_face
from hypermaps.cli import _ROUTES, _serial_estimate, main


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


def test_poly_closed(capsys):
    code, out = run_cli(capsys, "poly", "--r", "2", "--method", "closed")
    assert code == 0
    assert out == "m^2*n + m*n^2\n"


def test_poly_enumerate(capsys):
    code, out = run_cli(capsys, "poly", "--r", "1", "--method", "enumerate")
    assert code == 0
    assert out == "m*n\n"


def test_poly_recursion(capsys):
    code, out = run_cli(capsys, "poly", "--r", "3", "--method", "recursion")
    assert code == 0
    assert out == "m^3*n + 3*m^2*n^2 + m*n^3 + m*n\n"


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


def test_poly_two_face(capsys):
    code, out = run_cli(capsys, "poly", "--r", "2", "--faces", "2")
    assert code == 0
    assert out == "m*n\n"


def test_poly_json(capsys):
    code, out = run_cli(capsys, "poly", "--r", "2", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "r": 2,
        "terms": [{"e": 2, "v": 1, "c": "1"}, {"e": 1, "v": 2, "c": "1"}],
    }


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


GOLDEN_TABLE_R4 = """\
r,e,v,count
1,1,1,1
2,2,1,1
2,1,2,1
3,3,1,1
3,2,2,3
3,1,3,1
3,1,1,1
4,4,1,1
4,3,2,6
4,2,3,6
4,2,1,5
4,1,4,1
4,1,2,5
"""


def test_table_golden_output(capsys):
    _, out = run_cli(capsys, "table", "--r-min", "1", "--r-max", "4", "--format", "csv")
    assert out == GOLDEN_TABLE_R4


_TERMS_2 = '{"r": 2, "terms": [{"e": 2, "v": 1, "c": "1"}, {"e": 1, "v": 2, "c": "1"}]}'
_TERMS_3 = (
    '{"r": 3, "terms": [{"e": 3, "v": 1, "c": "1"}, {"e": 2, "v": 2, "c": "3"}, '
    '{"e": 1, "v": 3, "c": "1"}, {"e": 1, "v": 1, "c": "1"}]}'
)


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            "poly --r-min 2 --r-max 3 --format csv",
            "r,e,v,count\n2,2,1,1\n2,1,2,1\n3,3,1,1\n3,2,2,3\n3,1,3,1\n3,1,1,1\n",
        ),
        ("poly --r-min 2 --r-max 3 --format json", f"[{_TERMS_2}, {_TERMS_3}]\n"),
        ("table --r 3", "r,e,v,count\n3,3,1,1\n3,2,2,3\n3,1,3,1\n3,1,1,1\n"),
        ("table --r 3 --format json", f"[{_TERMS_3}]\n"),
        ("count --r 5 --format json", '[{"r": 5, "faces": 1, "count": "120"}]\n'),
        (
            "count --faces 2 --r-min 3 --r-max 4 --format json",
            '[{"r": 3, "faces": 2, "count": "6"}, {"r": 4, "faces": 2, "count": "34"}]\n',
        ),
        ("count --r-min 1 --r-max 3", "r,faces,count\n1,1,1\n2,1,2\n3,1,6\n"),
        ("stirling --r 4 --format json", '[{"r": 4, "row": ["6", "11", "6", "1"]}]\n'),
        ("stirling --r-min 1 --r-max 4", "1\n1 1\n2 3 1\n6 11 6 1\n"),
    ],
)
def test_every_format_is_pinned(capsys, argv, expected):
    # one case per (subcommand, format) pair that no other test pins byte
    # for byte; JSON for a single r is a list everywhere except in poly
    assert run_cli(capsys, *argv.split()) == (0, expected)


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


def test_count_single(capsys):
    code, out = run_cli(capsys, "count", "--r", "13")
    assert code == 0
    assert out == "6227020800\n"


def test_count_two_face(capsys):
    code, out = run_cli(capsys, "count", "--r", "5", "--faces", "2")
    assert code == 0
    assert out == "210\n"


def test_count_range_csv(capsys):
    code, out = run_cli(capsys, "count", "--r-min", "1", "--r-max", "3", "--format", "csv")
    assert code == 0
    assert out == "r,faces,count\n1,1,1\n2,1,2\n3,1,6\n"


def test_count_two_face_range_csv(capsys):
    code, out = run_cli(capsys, "count", "--faces", "2", "--r-min", "2", "--r-max", "4", "--format", "csv")
    assert code == 0
    assert out == "r,faces,count\n2,2,1\n3,2,6\n4,2,34\n"


def test_stirling_text(capsys):
    code, out = run_cli(capsys, "stirling", "--r", "3")
    assert code == 0
    assert out == "2 3 1\n"


def test_stirling_csv(capsys):
    code, out = run_cli(capsys, "stirling", "--r", "4", "--format", "csv")
    assert code == 0
    assert out == "r,k,c\n4,1,6\n4,2,11\n4,3,6\n4,4,1\n"


def test_avg_trace(capsys):
    code, out = run_cli(capsys, "avg-trace", "--m", "2", "--n", "2", "--r", "2")
    assert code == 0
    assert out == "4/5\n"


def test_avg_trace_json(capsys):
    code, out = run_cli(capsys, "avg-trace", "--m", "3", "--n", "2", "--r", "2", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"m": 3, "n": 2, "r": 2, "value": "5/7"}


def test_avg_trace_csv(capsys):
    code, out = run_cli(capsys, "avg-trace", "--m", "2", "--n", "2", "--r", "2", "--format", "csv")
    assert code == 0
    assert out == "m,n,r,value\n2,2,2,4/5\n"


def test_limit_exceeded_exit_code(capsys):
    code = main(["poly", "--r", "20", "--method", "enumerate"])
    captured = capsys.readouterr()
    assert code == 2
    assert "ceiling" in captured.err


def test_force_overrides_ceiling(capsys, monkeypatch):
    argv = ["poly", "--r", "7", "--method", "enumerate"]
    expected = run_cli(capsys, *argv)[1]
    monkeypatch.setattr("hypermaps.cli.DEFAULT_ENUM_CEILING", 5)
    assert run_cli(capsys, *argv) == (2, "")
    assert run_cli(capsys, *argv, "--force") == (0, expected)
    assert expected.count("\n") == 1


def test_bad_range_exit_code(capsys):
    assert main(["poly", "--r-min", "5", "--r-max", "3"]) == 2
    assert main(["poly"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["poly", "--r-min", "0", "--r-max", "3"],
        ["table", "--r-min", "0", "--r-max", "2"],
        ["poly", "--r", "0", "--method", "closed"],
        ["count", "--r", "0"],
    ],
    ids=["poly-range", "table-range", "poly-closed", "count"],
)
def test_darts_below_one_are_rejected(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: r must be a positive integer\n"


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


def test_verify_passes(capsys):
    code, out = run_cli(capsys, "verify", "--r-max", "5")
    assert code == 0
    assert "verify: 8/8 checks passed" in out
    assert out.count("PASS") == 8
    assert "6749977113" in out


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


@pytest.mark.parametrize("r_max", ["1", "0", "-3"])
def test_verify_r_max_below_two_is_rejected(capsys, r_max):
    # the two-face check starts at r = 2, so a smaller --r-max would test nothing
    code = main(["verify", "--r-max", r_max])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: --r-max must be at least 2, the smallest two-face check\n"


def test_verify_default_range_passes(capsys):
    code, out = run_cli(capsys, "verify")
    assert code == 0
    assert "verify: 8/8 checks passed" in out
    assert "r = 1..9" in out


def test_verify_force_warns(capsys):
    expected = run_cli(capsys, "verify", "--r-max", "3")[1]
    code = main(["verify", "--r-max", "3", "--force"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err.splitlines()[0] == (
        "warning: ceiling override; enumeration at r=3 visits 3! = 6 permutations, "
        "about 0.0 seconds serial at 2.5 us per permutation"
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
def test_force_warning_estimates_serial_time(r, estimate):
    # at the documented 2.5 us per permutation, in whole tenths of the largest unit
    assert _serial_estimate(r) == (
        f"enumeration at r={r} visits {estimate} serial at 2.5 us per permutation"
    )


def test_two_face_force_warning_counts_its_face_shapes(capsys, monkeypatch):
    # two_face_gf counts r // 2 face shapes per permutation, each past the first
    # adding 1.25 us to the one-face rate
    assert _serial_estimate(14, 7) == (
        "enumeration at r=14 visits 14! = 87178291200 permutations for 7 face shapes, "
        "about 10.0 days serial at 10 us per permutation"
    )
    monkeypatch.setattr("hypermaps.cli.DEFAULT_ENUM_CEILING", 5)
    assert main(["poly", "--r", "7", "--faces", "2", "--force"]) == 0
    assert capsys.readouterr().err == (
        "warning: ceiling override; enumeration at r=7 visits 7! = 5040 permutations for 3 face shapes, "
        "about 0.0 seconds serial at 5 us per permutation\n"
    )


def test_force_warning_stays_short_past_20_digits():
    # past 20 digits r! and the time are powers of ten, truncated to one decimal
    assert "22! ~ 1.1e21 permutations, about 89043584.4 years" in _serial_estimate(22)
    assert "40! ~ 8.1e47 permutations, about 6.4e34 years" in _serial_estimate(40)
    # 30000! has 121288 digits; in full they made a line of 242,664 characters
    line = _serial_estimate(30000)
    assert len(line) < 200
    assert "30000! ~ 2.7e121287 permutations, about 2.1e121274 years" in line


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


@pytest.mark.parametrize("reps", ["0", "-4"])
def test_bench_reps_below_one_are_rejected(capsys, reps):
    code = main(["bench", "--r", "3", "--method", "closed", "--reps", reps])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: --reps must be at least 1\n"


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
def test_bad_threads_value_names_the_flag(capsys, value):
    code = main(["poly", "--r", "3", "--threads", value])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: --threads takes a positive integer or 'auto', not '{value}'\n"


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


def test_poly_range_recursion_golden():
    # pins the recurrence route byte for byte: stdout of
    # `hypermaps poly --r-min 1 --r-max 60`
    out = _subprocess_out("poly", "--r-min", "1", "--r-max", "60")
    assert hashlib.sha256(out).hexdigest() == (
        "c6fb6382cc5d8bb6c42a675cb51fdcc9e5906d1efbe93744647b0c1ce6e29cc8"
    )


def test_two_face_table_golden():
    # pins the two-face route byte for byte, pooled and serial: stdout of
    # `hypermaps table --r-min 2 --r-max 8 --faces 2 --format csv`
    for threads in ("1", "2"):
        out = _subprocess_out(
            "table", "--r-min", "2", "--r-max", "8", "--faces", "2", "--format", "csv",
            "--threads", threads,
        )
        assert hashlib.sha256(out).hexdigest() == (
            "0fb074fd936a41fc061f5df7eafac900a670301923d744cb465324b7275cd460"
        )
