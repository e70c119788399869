import hashlib
import json
import subprocess
import sys

import pytest

from hypermaps.cli import (
    main,
    parse_table_csv,
    parse_table_json,
    render_table_csv,
    render_table_json,
)


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


def test_table_csv_round_trip(capsys):
    code, out = run_cli(capsys, "table", "--r-min", "1", "--r-max", "5", "--format", "csv")
    assert code == 0
    assert out.startswith("r,e,v,count\n")
    assert render_table_csv(parse_table_csv(out)) == out


def test_table_json_round_trip(capsys):
    code, out = run_cli(capsys, "table", "--r-min", "2", "--r-max", "4", "--format", "json")
    assert code == 0
    assert render_table_json(parse_table_json(out)) == out


def test_table_rows_are_counts(capsys):
    _, out = run_cli(capsys, "table", "--r", "3", "--format", "csv")
    rows = parse_table_csv(out)
    assert rows == [(3, 3, 1, 1), (3, 2, 2, 3), (3, 1, 3, 1), (3, 1, 1, 1)]


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


def test_limit_exceeded_exit_code(capsys):
    code = main(["poly", "--r", "20", "--method", "enumerate"])
    captured = capsys.readouterr()
    assert code == 2
    assert "ceiling" in captured.err


def test_force_overrides_ceiling(capsys):
    code, out = run_cli(
        capsys, "poly", "--r", "7", "--method", "enumerate", "--enum-ceiling", "5", "--force"
    )
    assert code == 0
    assert out.count("\n") == 1


def test_bad_range_exit_code(capsys):
    assert main(["poly", "--r-min", "5", "--r-max", "3"]) == 2
    assert main(["poly"]) == 2


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


def test_verify_default_range_passes(capsys):
    code, out = run_cli(capsys, "verify")
    assert code == 0
    assert "verify: 8/8 checks passed" in out
    assert "r = 1..9" in out


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
    serial = _subprocess_out("poly", "--r", "7", "--method", "enumerate", "--threads", "1")
    parallel = _subprocess_out("poly", "--r", "7", "--method", "enumerate", "--threads", "2")
    assert serial == parallel


def test_single_and_multi_threaded_verify_are_byte_identical():
    serial = _subprocess_out("verify", "--r-max", "6", "--threads", "1")
    parallel = _subprocess_out("verify", "--r-max", "6", "--threads", "2")
    assert serial == parallel


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
