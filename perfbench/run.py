"""End-to-end and per-layer benchmark of stq's task pipeline.

    python3 perfbench/run.py --workload fixtures|escape|random --seed N \
        --seconds S --trace 0|1

One closed-loop client in one process runs the workload's tasks one at a
time through the public pipeline (`stq.parse_task` -> `stq.check_task` ->
`stq.plan_task` -> `stq.simulate`), in whole rounds until `--seconds` have
passed and at least MIN_SAMPLES tasks ran.  numpy and BLAS are held to one
thread.  Every outcome is classified; a fixture that deviates from its
expected verdict makes the run incorrect and the exit code 1.

With `--trace 0` the last line reports the end-to-end metrics:

  tasks_per_s     pipeline completions, refusals included, per second;
                  median over the run's rounds
  task_s.p50/p90  seconds per task, parse through simulate
  kept_ratio      share of tasks whose outcome keeps stq's promise
                  (feasible => PASS or a named refusal, infeasible =>
                  refusal, no unexpected exception)
  setup_s         `import stq` plus workload generation, median of
                  SETUP_REPEATS fresh interpreters
  peak_rss_mb     peak resident memory of this process

Seconds are process CPU seconds (see `cpu_clock`); the elapsed time is
printed alongside.  Inputs parse_task rejects are counted, not attempted.

With `--trace 1` the untraced loop runs for half of `--seconds`, then the
same rounds run again with every layer boundary traced (see tracer.py);
the last line reports the per-layer metrics, per attempted task, and the
run is incorrect unless both passes gave identical outcomes.  Spans are
written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import zlib
from array import array
from collections import Counter
from pathlib import Path

import workloads

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

MIN_SAMPLES = 110        # so at least 10 task times lie beyond p90
SETUP_REPEATS = 5
WARMUP_TASKS = 3
# Process CPU time, not elapsed time: the pipeline is single-threaded and
# never waits on I/O, and on a shared host elapsed time also counts the
# time other tenants hold the CPU.
cpu_clock = time.process_time

# Entry points reported with calls, busy_s and self_s; span names as the
# tracer records them.
ENTRY_POINTS = (
    "model.parse_task", "feasibility.check_task", "planner.check_task",
    "planner.plan_task", "geometry.escape_exists",
    "geometry.extract_escape_path", "geometry.worldline_intersects_region",
    "engine.simulate", "engine.validate_plan", "qsim.apply_unitary",
    "qsim.apply_weyl", "qsim.apply_isometry", "qsim.bell_project",
    "qsim.partial_trace", "qsim.fidelity", "qsim.trace_distance",
    "qsim.depolarize_slot", "schemes.code23_encode", "schemes.code23_decode",
)
COUNTERS = (
    ("geometry.escape.faces_computed", "count/task"),
    ("planner.refused", "count/task"),
    ("planner.events", "count/task"),
    ("engine.scenarios", "count/task"),
    ("engine.key_assignments_computed", "count/task"),
    ("qsim.apply_unitary.ops_computed", "count/task"),
    ("qsim.apply_unitary.bytes_computed", "B/task"),
)


def environment() -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


# --------------------------------------------------------------------
# set-up
# --------------------------------------------------------------------

_SETUP_PROBE = """
import sys, time
t0 = time.process_time()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import stq, workloads
workloads.build(sys.argv[3], int(sys.argv[4]))
print(time.process_time() - t0)
"""


def setup_seconds(workload: str, seed: int) -> list[float]:
    """`import stq` plus workload generation, each time in a fresh
    interpreter so the import is really paid."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(SRC), str(HERE),
             workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


# --------------------------------------------------------------------
# the closed loop
# --------------------------------------------------------------------


class Pass:
    """What one pass over the workload's rounds did, in memory that does
    not grow with the task count beyond one float per task.  Task times and
    `cpu` are process CPU seconds; `wall` is elapsed time.  `digest`
    is a running CRC of every outcome in order, so two passes can be
    compared."""

    def __init__(self, check=None):
        self.check = check        # (name, outcome) -> mismatch text or None
        self.counts: Counter = Counter()
        self.seconds = array("d")         # one per attempted task
        self.round_rates: list[float] = []    # completions per CPU second
        self.mismatches: list[str] = []
        self.digest = 0
        self.rounds = 0
        self.cpu = 0.0
        self.wall = 0.0

    @property
    def attempted(self) -> int:
        return len(self.seconds)

    @property
    def completed(self) -> int:
        return self.attempted - self.counts["error"]

    @property
    def broken(self) -> int:
        return sum(self.counts[s] for s in workloads.BROKEN)

    def record(self, name: str, outcome: tuple, seconds: float) -> None:
        self.counts[outcome[0]] += 1
        self.digest = zlib.crc32(repr(outcome).encode(), self.digest)
        if outcome[0] != "invalid":
            self.seconds.append(seconds)
        wrong = self.check and self.check(name, outcome)
        if wrong:
            self.mismatches.append(wrong)


def run_rounds(rounds, p: Pass, run, done) -> Pass:
    """Run whole rounds, cycling through `rounds`, until `done(p)`."""
    wall0, cpu0 = time.perf_counter(), cpu_clock()
    while True:
        completed, start = p.completed, cpu_clock()
        for name, text in rounds[p.rounds % len(rounds)]:
            a = cpu_clock()
            outcome = run(text)
            p.record(name, outcome, cpu_clock() - a)
        p.round_rates.append((p.completed - completed)
                             / (cpu_clock() - start))
        p.rounds += 1
        if done(p):
            break
    p.cpu, p.wall = cpu_clock() - cpu0, time.perf_counter() - wall0
    return p


def untraced_pass(stq, rounds, seconds: float, check=None) -> Pass:
    """Whole rounds until `seconds` of wall time passed and MIN_SAMPLES
    tasks ran."""
    for _, text in rounds[0][:WARMUP_TASKS]:
        workloads.run_task(stq, text)
    stop = time.perf_counter() + seconds
    return run_rounds(rounds, Pass(check),
                      lambda text: workloads.run_task(stq, text),
                      lambda p: (time.perf_counter() >= stop
                                 and p.attempted >= MIN_SAMPLES))


def traced_pass(stq, tracer, rounds, n_rounds: int, check=None) -> Pass:
    """The first `n_rounds` rounds again, every layer boundary traced."""
    ids = itertools.count()
    with tracer.install(stq):
        return run_rounds(
            rounds, Pass(check),
            lambda text: tracer.run_task(next(ids), workloads.run_task,
                                         stq, text),
            lambda p: p.rounds == n_rounds)


# --------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------


def end_to_end(p: Pass, setup: list[float]) -> dict:
    times = list(p.seconds)
    deciles = statistics.quantiles(times, n=10)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "tasks_per_s": (statistics.median(p.round_rates), "1/s",
                        len(p.round_rates)),
        "task_s.p50": (statistics.median(times), "s", len(times)),
        "task_s.p90": (deciles[8], "s", len(times)),
        "kept_ratio": (1.0 - p.broken / p.attempted, "ratio", p.attempted),
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "peak_rss_mb": (peak_kb / 1024.0, "MB", 1),
    }


def per_layer(tracer, plain: Pass, traced: Pass) -> dict:
    from tracer import LAYERS, TASK_SPAN
    n = traced.attempted
    rows = tracer.per_name()
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    m: dict[str, tuple] = {}
    for name in ENTRY_POINTS:
        row = rows.get(name, empty)
        m[f"{name}.calls"] = (row["calls"] / n, "count/task", n)
        m[f"{name}.busy_s"] = (row["busy_s"] / n, "s/task", n)
        m[f"{name}.self_s"] = (row["self_s"] / n, "s/task", n)
    counters = dict(tracer.counters)
    counters["planner.refused"] = (traced.counts["refused"]
                                   + traced.counts["infeasible"])
    for name, unit in COUNTERS:
        m[name] = (counters.get(name, 0) / n, unit, n)
    m["qsim.peak_dim"] = (tracer.peak_dim, "count", n)
    task_time = rows[TASK_SPAN]["busy_s"]
    layer_self = tracer.layer_self(rows)
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = (layer_self[layer] / n, "s/task", n)
        m[f"layer.{layer}.share"] = (layer_self[layer] / task_time,
                                     "ratio", n)
    m["trace.task_s"] = (task_time / n, "s/task", n)
    m["trace.coverage"] = (sum(layer_self[l] for l in LAYERS) / task_time,
                           "ratio", n)
    m["trace.overhead"] = (1.0 - plain.cpu / traced.cpu, "ratio", n)
    return m


def report(correct: bool, p: Pass, metrics: dict, notes: list[str]) -> None:
    """Readable lines, then the result object as the last line."""
    for note in notes:
        print(note)
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:44s} {value:14.6g} {unit:10s} n={samples}")
    print(json.dumps({
        "correct": correct, "attempted": p.attempted,
        "failed": p.counts["error"] + len(p.mismatches),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u, _) in metrics.items()},
    }))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for var in THREAD_VARS:        # before numpy is first imported
        os.environ[var] = "1"
    if not (SRC / "stq" / "__init__.py").is_file():
        print(f"perfbench: no stq sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import stq
    from tracer import Tracer

    notes = ["env " + json.dumps(environment())]
    setup = [] if args.trace else setup_seconds(args.workload, args.seed)
    rounds = workloads.build(args.workload, args.seed)
    check = (workloads.fixture_mismatch if args.workload == "fixtures"
             else None)
    # a traced run replays its untraced rounds, so each pass gets half the
    # time and the whole run lasts about as long as an untraced one
    plain = untraced_pass(stq, rounds, args.seconds / (1 + args.trace),
                          check)
    correct = not plain.mismatches and not plain.counts["error"]
    notes.append("outcomes " + json.dumps(plain.counts, sort_keys=True))
    notes += [f"MISMATCH {m}" for m in sorted(set(plain.mismatches))]
    notes.append(f"elapsed {plain.wall:.3f} s, process CPU {plain.cpu:.3f} "
                 f"s, {plain.completed / plain.wall:.4g} tasks per elapsed s")
    notes.append(f"broken promises {plain.broken} of {plain.attempted} "
                 f"tasks; inputs parse_task rejected: "
                 f"{plain.counts['invalid']}")

    if args.trace:
        tracer = Tracer(cpu_clock)
        traced = traced_pass(stq, tracer, rounds, plain.rounds, check)
        if traced.digest != plain.digest:
            correct = False
            notes.append("MISMATCH traced outcomes differ from untraced")
        if tracer.missing:
            notes.append("trace sites not found: " + ", ".join(tracer.missing))
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
        tracer.save(spans)
        notes.append(f"spans {len(tracer.span_name)} written to {spans}")
        metrics = per_layer(tracer, plain, traced)
    else:
        metrics = end_to_end(plain, setup)
    report(correct, plain, metrics, notes)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
