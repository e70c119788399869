"""Benchmark of the hypermaps package.

    python3 perfbench/run.py --workload series --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports the package from ./src. With
--trace 0 it measures the end-to-end metrics of one workload. With --trace 1
it records a span for every call into the package and reports the per-layer
metrics. Each metric is printed on its own line with its unit; the last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics. Details, sample counts and spans go to perfbench/out/.

Exit status: 0 when every answer was right, 1 when any was wrong, 2 when
there is no package to measure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Every run makes at least this many passes, however long --seconds is.
MIN_PASSES = 3
#: A traced run alternates untraced and traced passes of its workload, at least this many of each.
MIN_TRACE_PAIRS = 2
SETUP_REPEATS = 7
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: name -> (unit, better), in the order the metrics are printed.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "op_p50_ms": ("ms", "lower"),
    "op_tail_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

SETUP_CODE = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "import workloads\n"
    "workloads.setup(sys.argv[3], int(sys.argv[4]))\n"
    "print(time.perf_counter() - start)\n"
)


@dataclass
class Pass:
    ops: list
    latencies: List[float]  # wall seconds of each operation
    cpus: List[float]  # CPU seconds of each operation
    wall: float
    cpu: float
    failed: int
    spans: List[Tuple[float, float]]  # perf_counter at the start and end of each operation


def cpu_seconds() -> float:
    """CPU time of this process and of every child it has reaped, pool workers included."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def run_pass(name: str, inputs: dict, rec, number: int, speed=None) -> Tuple[Pass, list]:
    """One timed pass over the workload's operations, then the checks, untimed.

    With a speed.Speed, samples the machine's speed before and after the pass
    and between operations, outside their timings. Returns the pass's timings
    and its results; callers drop the results they do not need, so they do
    not count in the next pass's memory.
    """
    import workloads

    workload = workloads.WORKLOADS[name]
    ops = workload.ops(inputs)
    results, latencies, cpus, spans = [], [], [], []
    if speed:
        speed.sample()
    cpu0, start = cpu_seconds(), time.perf_counter()
    for i, op in enumerate(ops):
        rec.parent = f"{name}/pass{number}/op{i} {op.label}"
        c, t = cpu_seconds(), time.perf_counter()
        try:
            results.append(rec.call(op.span, op.fn, *op.args, **op.kwargs))
        except Exception as exc:  # counted as a failed operation
            traceback.print_exc()
            results.append(exc)
        end = time.perf_counter()
        latencies.append(end - t)
        cpus.append(cpu_seconds() - c)
        spans.append((t, end))
        if speed:
            speed.maybe_sample()
    wall, cpu = time.perf_counter() - start, cpu_seconds() - cpu0
    if speed:
        speed.sample()
    rec.parent = f"{name}/pass{number}/check"
    try:
        ok = workload.check(inputs, ops, results, rec)
    except Exception:  # a result the checks cannot even read is wrong
        traceback.print_exc()
        ok = [False] * len(ops)
    return Pass(ops, latencies, cpus, wall, cpu, ok.count(False), spans), results


def per_op_best(passes: List[Pass], field: str) -> List[float]:
    """Each operation's least `field` value over the passes, which all make the same operations.

    Other tenants of the machine slow it down for seconds at a time, and such
    a slow-down only ever adds time: the least value is the steadiest.
    """
    return [min(getattr(p, field)[i] for p in passes) for i in range(len(passes[0].ops))]


def per_op_scaled(passes: List[Pass], field: str, speed) -> List[float]:
    """Each operation's median `field` value over the passes, at the reference speed.

    A value is scaled by the machine's slowness around that operation, so a
    slow spell of the machine, which no run can outlast, does not show.
    """
    slowness = [[speed.slowness(a, b) for a, b in p.spans] for p in passes]
    return [
        statistics.median(getattr(p, field)[i] / s[i] for p, s in zip(passes, slowness))
        for i in range(len(passes[0].ops))
    ]


def keep_going(start: float, seconds: float, walls: List[float], done: int, minimum: int) -> bool:
    """Start another pass while one more is expected to end before the deadline."""
    if done < minimum:
        return True
    return time.perf_counter() - start + statistics.median(walls) <= seconds


def tail_level(n: int) -> float:
    """Highest level of TAIL_LEVELS with ten of n samples beyond it; 100 means the maximum."""
    for level in TAIL_LEVELS:
        if n - math.ceil(level * n / 100) >= 10:
            return level
    return 100.0


def percentile(values: List[float], level: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(level * len(ordered) / 100) - 1)]


def git_commit() -> str:
    """The checked-out commit, read from .git without running git; "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_end_to_end(name: str, seed: int, seconds: float) -> dict:
    import layers
    import speed as speed_mod
    import workloads

    speed = speed_mod.Speed(workloads.WORKLOADS[name].speed_weights)
    setup_raw: List[float] = []
    setup: List[float] = []

    def fresh_setup() -> None:
        speed.sample()
        t = time.perf_counter()
        raw = layers.fresh_interpreter_seconds(SETUP_CODE, [str(SRC), str(HERE), name, str(seed)], 1)[0]
        end = time.perf_counter()
        speed.sample()
        setup_raw.append(raw)
        setup.append(raw / speed.slowness(t, end))

    start = time.perf_counter()
    inputs = workloads.setup(name, seed)
    rec = workloads.Recorder(tracing=False)
    passes: List[Pass] = []
    # Set-ups in fresh interpreters go between the passes, so that their
    # median, like the passes, samples the whole run.
    while keep_going(start, seconds, [p.wall for p in passes], len(passes), MIN_PASSES):
        fresh_setup()
        passes.append(run_pass(name, inputs, rec, len(passes), speed)[0])
    while len(setup) < SETUP_REPEATS:
        fresh_setup()
    # A pass is timed as the sum of its operations' median times at the
    # reference speed. Percentiles are taken over operations, so the tail
    # level is fixed by the workload.
    per_op = sorted(per_op_scaled(passes, "latencies", speed))
    level = tail_level(len(per_op))
    attempted = sum(len(p.ops) for p in passes)
    each = f"each its median of {len(passes)} passes at the reference speed"
    return {
        "attempted": attempted,
        "failed": sum(p.failed for p in passes),
        "metrics": {
            "setup_s": statistics.median(setup),
            "wall_s": sum(per_op),
            "cpu_s": sum(per_op_scaled(passes, "cpus", speed)),
            "op_p50_ms": 1e3 * statistics.median(per_op),
            "op_tail_ms": 1e3 * percentile(per_op, level),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
        "samples": {
            "setup_s": f"median of {len(setup)} fresh interpreters at the reference speed",
            "wall_s": f"sum over {len(per_op)} operations, {each}",
            "cpu_s": f"sum over {len(per_op)} operations of CPU time, {each}",
            "op_p50_ms": f"p50 of {len(per_op)} operations, {each}",
            "op_tail_ms": f"p{level:g} of {len(per_op)} operations, {each}",
            "peak_rss_mb": "ru_maxrss of the benchmark process",
            "speed": f"{len(speed.samples)} samples, weights {speed.weights}",
        },
        "passes": [
            {"wall_s": p.wall, "cpu_s": p.cpu, "op_s": p.latencies, "op_cpu_s": p.cpus, "op_spans": p.spans}
            for p in passes
        ],
        "raw_wall_s": sum(sorted(per_op_best(passes, "latencies"))),
        "setup": setup,
        "setup_raw": setup_raw,
        "speed_samples": speed.samples,
    }


def measure_layers(name: str, seed: int, seconds: float) -> dict:
    import layers
    import workloads

    start = time.perf_counter()
    inputs = {w: workloads.setup(w, seed) for w in workloads.WORKLOADS}
    plain, rec = workloads.Recorder(tracing=False), workloads.Recorder(tracing=True)
    attempted = failed = made = 0
    last: Dict[str, list] = {}  # results of the last traced pass of each workload

    def one_pass(workload: str, tracing: bool) -> Pass:
        nonlocal attempted, failed, made
        p, results = run_pass(workload, inputs[workload], rec if tracing else plain, made)
        attempted, failed, made = attempted + len(p.ops), failed + p.failed, made + 1
        if tracing:
            last[workload] = results
        return p

    # One traced pass of every other workload, so that every layer has spans,
    # then untraced and traced passes of this one, alternating which goes first.
    for other in workloads.WORKLOADS:
        if other != name:
            one_pass(other, True)
    own: Dict[bool, List[Pass]] = {False: [], True: []}
    pair_walls: List[float] = []
    while keep_going(start, seconds, pair_walls, len(pair_walls), MIN_TRACE_PAIRS):
        for tracing in (False, True) if len(pair_walls) % 2 == 0 else (True, False):
            own[tracing].append(one_pass(name, tracing))
        pair_walls.append(own[False][-1].wall + own[True][-1].wall)
    untraced, traced = (sum(per_op_best(own[t], "latencies")) for t in (False, True))
    overhead = (traced - untraced) / untraced

    series_polys = {res[0]: res[1] for res in last["series"] if isinstance(res, tuple)}
    probes = layers.run_probes(rec, series_polys, inputs["quantum"]["calls"], str(SRC))
    attempted, failed = attempted + probes["checked"], failed + probes["wrong"]
    enum_ops = workloads.WORKLOADS["enumerate"].ops(inputs["enumerate"])
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": layers.layer_metrics(rec.spans, probes, enum_ops, overhead),
        "samples": {
            "trace.overhead_frac": f"{name}: wall_s of {len(own[False])} untraced and of {len(own[True])} traced passes",
            "enumeration.connected_keep_frac": probes["keep_base"],
            "cli.import_s": f"median of {layers.IMPORT_REPEATS} fresh interpreters",
            "span timings": f"median over the traced passes of each workload ({len(own[True])} of {name}, 1 of the others)",
        },
        "passes": {"untraced_wall_s": [p.wall for p in own[False]], "traced_wall_s": [p.wall for p in own[True]]},
        "spans": rec.spans,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("series", "quantum", "enumerate", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hypermaps" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'hypermaps'}; run from the root of a hypermaps checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
    }
    if args.trace:
        import layers

        measured, units = measure_layers(args.workload, args.seed, args.seconds), layers.METRICS
    else:
        measured, units = measure_end_to_end(args.workload, args.seed, args.seconds), END_TO_END
    measured["stamp"] = stamp

    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(measured))

    print("stamp " + json.dumps(stamp))
    for key, value in measured["samples"].items():
        print(f"samples {key}: {value}")
    for key, (unit, _) in units.items():
        print(f"{key} {measured['metrics'][key]:.6g} {unit}")
    print(f"fail_frac {measured['failed'] / measured['attempted']:g} ({measured['failed']} of {measured['attempted']} operations)")
    print(f"details {out_file.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": measured["failed"] == 0,
                "attempted": measured["attempted"],
                "failed": measured["failed"],
                "metrics": {key: {"value": measured["metrics"][key], "unit": unit} for key, (unit, _) in units.items()},
            }
        )
    )
    return 0 if measured["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
