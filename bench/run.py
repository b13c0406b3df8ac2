"""psiforge benchmark: one workload per run, in a fresh interpreter.

    python3 bench/run.py --workload {compute,cli} --seed N --seconds S --trace {0,1}

A run measures set-up in fresh child interpreters, then repeats whole
rounds of the workload's operations for about S seconds, then checks every
output against the oracles in bench/oracles.py.  Times are scaled to a
reference speed of the host (REF_NOMINAL_S).  The last stdout line is the
result: {"correct", "attempted", "failed", "metrics"}; the line before it is
a drift record of the machine and the unscaled times.  With --trace 1 each
operation runs once untraced and once with spans around the calls into
each psiforge module (bench/spans.py), and the metrics are the per-layer
ones.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import functools
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 9
TAIL_BEYOND = 10
# The reference loop runs between the timed operations and set-up probes,
# and each time is scaled by REF_NOMINAL_S over the mean loop time just
# before and after it: the host's speed drifts by tens of percent within
# seconds, and the loop, pure interpreter work like psiforge's, slows with
# it.
REF_ITERATIONS = 60_000
REF_NOMINAL_S = 0.008
REF_TABLE = [(i * 2654435761) & 0xFFFF for i in range(256)]


def cpu_s() -> float:
    """User plus system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def reference_s() -> float:
    """Time of a fixed pure-Python loop that allocates no objects the
    garbage collector tracks, so psiforge's heap cannot slow it."""
    table, acc = REF_TABLE, 0
    t0 = perf_counter()
    for i in range(REF_ITERATIONS):
        acc = (acc + table[(acc ^ i) & 255] * i) & 0xFFFFF
    return perf_counter() - t0


def scaled_calls(fns) -> list[tuple]:
    """Call each fn between runs of the reference loop.  Returns (result,
    scale) pairs, the scale being REF_NOMINAL_S over the mean loop time
    just before and just after the call."""
    out, before = [], reference_s()
    for fn in fns:
        result = fn()
        after = reference_s()
        out.append((result, 2 * REF_NOMINAL_S / (before + after)))
        before = after
    return out


def timed_child(argv: list[str]) -> float:
    from workloads import child_env

    env = child_env(ROOT)
    t0 = perf_counter()
    subprocess.run(argv, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, check=True, timeout=120)
    return perf_counter() - t0


def middle_mean(values) -> float:
    """Mean of the middle half: process start-up times come in steps of
    about 50 ms on a throttled host, so a plain median jumps between steps."""
    ordered = sorted(values)
    quarter = len(ordered) // 4
    return statistics.fmean(ordered[quarter : len(ordered) - quarter])


def setup_s(workload: str, seed: int) -> tuple[float, float]:
    """Wall time from a fresh interpreter to psiforge imported and the
    inputs built; for cli, of a no-work `--help` invocation.  Returns it
    scaled to the reference speed, and unscaled."""
    if workload == "cli":
        argv = [sys.executable, "-m", "psiforge.cli", "--help"]
    else:
        argv = [sys.executable, str(BENCH / "run.py"), "--probe", "--workload", workload, "--seed", str(seed)]
    probes = scaled_calls([lambda: timed_child(argv)] * SETUP_PROBES)
    return middle_mean(t * scale for t, scale in probes), middle_mean(t for t, _ in probes)


def import_s() -> float:
    """Fresh-interpreter `import psiforge` time minus a bare start."""
    bare, full = [], []
    for _ in range(SETUP_PROBES):
        bare.append(timed_child([sys.executable, "-c", "pass"]))
        full.append(timed_child([sys.executable, "-c", "import psiforge"]))
    return middle_mean(full) - middle_mean(bare)


def drift_record() -> dict:
    """Machine state beside the figures, so drift can be told from change."""
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "ref_loop_s": statistics.median(reference_s() for _ in range(5)),
    }


class Rounds:
    """What whole rounds of the operations left behind: per-round wall and
    CPU (summed over the operations), per-operation latencies and errors,
    the same times scaled to the reference speed where the reference loop
    ran, and the first good output of each operation (later outputs are
    compared to it between rounds and dropped, so memory does not grow
    with the round count)."""

    def __init__(self, ops):
        self.ops = ops
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.times: list[list[float]] = [[] for _ in ops]
        self.scaled_walls: list[float] = []
        self.scaled_cpus: list[float] = []
        self.scaled_times: list[list[float]] = [[] for _ in ops]
        self.errors: list[list[str | None]] = [[] for _ in ops]
        self.first: list = [None] * len(ops)
        self.has_first = [False] * len(ops)
        self.peak_child_kb = 0

    def record(self, outputs) -> None:
        for i, (dt, out, err) in enumerate(outputs):
            self.times[i].append(dt)
            if err is None:
                self.peak_child_kb = max(self.peak_child_kb, getattr(out, "hwm_kb", 0))
                key = self.ops[i].key
                if not self.has_first[i]:
                    self.first[i], self.has_first[i] = out, True
                elif key(out) != key(self.first[i]):
                    err = "output differs from an earlier round"
            self.errors[i].append(err)


def call(op) -> tuple:
    """(seconds, output, error) of one operation."""
    t0 = perf_counter()
    try:
        out, err = op.run(), None
    except Exception as exc:  # a raising operation is a failed one
        out, err = None, f"raised {type(exc).__name__}: {exc}"
    return perf_counter() - t0, out, err


def call_with_cpu(op) -> tuple:
    """call(op) and the CPU seconds it took."""
    c0 = cpu_s()
    output = call(op)
    return output, cpu_s() - c0


def run_rounds(ops, seconds: float) -> Rounds:
    """Whole rounds until the next one would end further past `seconds`
    than stopping falls short of it; at least one."""
    rounds = Rounds(ops)
    start = perf_counter()
    walls: list[float] = []
    while True:
        w0 = perf_counter()
        results = scaled_calls([functools.partial(call_with_cpu, op) for op in ops])
        walls.append(perf_counter() - w0)
        outputs = [output for (output, _), _ in results]
        rounds.walls.append(sum(output[0] for output in outputs))
        rounds.cpus.append(sum(cpu for (_, cpu), _ in results))
        rounds.scaled_walls.append(sum(output[0] * scale for (output, _), scale in results))
        rounds.scaled_cpus.append(sum(cpu * scale for (_, cpu), scale in results))
        for times, ((output, _), scale) in zip(rounds.scaled_times, results):
            times.append(output[0] * scale)
        rounds.record(outputs)
        del results, outputs
        if perf_counter() - start + statistics.median(walls) / 2 >= seconds:
            return rounds


def traced_call(tracer, op) -> tuple:
    tracer.install()
    try:
        return call(op)
    finally:
        tracer.uninstall()


def traced_rounds(ops, seconds: float, tracer) -> tuple[Rounds, float]:
    """Whole rounds in which each operation runs once untraced and once
    traced, back to back, so that the host's drift falls on both sides of
    each difference alike; which of the two goes first alternates from
    round to round.  Rounds stop as in run_rounds.  Returns the rounds
    (untraced and traced ones) and the summed traced-minus-untraced time."""
    rounds = Rounds(ops)
    start = perf_counter()
    walls: list[float] = []
    overhead = 0.0
    while True:
        w0 = perf_counter()
        plain, traced = [], []
        for op in ops:
            if len(walls) % 2:
                traced.append(traced_call(tracer, op))
                plain.append(call(op))
            else:
                plain.append(call(op))
                traced.append(traced_call(tracer, op))
            overhead += traced[-1][0] - plain[-1][0]
        walls.append(perf_counter() - w0)
        for outputs in (plain, traced):
            rounds.walls.append(sum(dt for dt, _, _ in outputs))
            rounds.record(outputs)
        del plain, traced
        if perf_counter() - start + statistics.median(walls) / 2 >= seconds:
            return rounds, overhead


def judge(rounds: Rounds, O) -> list:
    """(op, reason) for every failed operation of every round."""
    from workloads import LIMIT_S

    ops = rounds.ops
    by_name = {op.name: i for i, op in enumerate(ops)}
    verdicts = []
    for i, op in enumerate(ops):
        if not rounds.has_first[i]:
            verdicts.append("")
            continue
        try:
            verdict = op.check(rounds.first[i], O)
        except Exception as exc:  # an output the check cannot read is wrong
            verdict = f"check raised {type(exc).__name__}: {exc}"
        if not verdict and op.same_as:
            twin = by_name[op.same_as]
            if op.key(rounds.first[i]) != op.key(rounds.first[twin]):
                verdict = f"output differs from the same call as {op.same_as}"
        verdicts.append(verdict or "")
    failures = []
    for i, op in enumerate(ops):
        for dt, err in zip(rounds.times[i], rounds.errors[i]):
            reason = err or (f"took {dt:.1f} s, limit {LIMIT_S} s" if dt > LIMIT_S else verdicts[i])
            if reason:
                failures.append((op, reason))
    return failures


def latencies(times: list[list[float]]) -> list[float]:
    """Each operation's mean latency over the rounds, in seconds."""
    return [statistics.fmean(t) for t in times]


def tail(values: list[float]) -> float:
    """The value with TAIL_BEYOND values above it: the highest percentile
    that still has ten operations beyond it (both workloads have 40 or more)."""
    return sorted(values)[-1 - TAIL_BEYOND]


def own_hwm_kb() -> int:
    """This process's peak resident memory (VmHWM).  Not ru_maxrss: exec
    records the high-water mark of the memory it replaces, the parent's."""
    with open("/proc/self/status") as status:
        return int(next(line.split()[1] for line in status if line.startswith("VmHWM:")))


def peak_rss_mb(workload: str, rounds: Rounds) -> float:
    if workload == "cli":
        return rounds.peak_child_kb / 1024
    return own_hwm_kb() / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["compute", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "psiforge" / "__init__.py").is_file():
        print(f"bench: no psiforge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = ROOT / ".bench_run" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def measure(args, workdir: Path) -> int:
    import workloads

    if args.probe:
        workloads.build(args.workload, args.seed, ROOT, workdir)
        return 0
    drift = drift_record()
    setup, setup_raw = (None, None) if args.trace else setup_s(args.workload, args.seed)
    ops = workloads.build(args.workload, args.seed, ROOT, workdir, in_process=bool(args.trace))

    metrics: dict[str, tuple] = {}
    if args.trace:
        import spans

        tracer = spans.Tracer()
        rounds, overhead = traced_rounds(ops, args.seconds, tracer)
        n = len(rounds.walls) // 2
        traced_wall = sum(rounds.walls[1::2])
        for name, (value, unit) in tracer.layer_metrics(traced_wall).items():
            # per round, so that the figures do not depend on the round count
            metrics[name] = (value if unit == "ratio" else value / n, unit)
        metrics["trace.overhead_s"] = (overhead / n, "s")
        metrics["cli.import_s"] = (import_s(), "s")
    else:
        rounds = run_rounds(ops, args.seconds)
        lat = latencies(rounds.scaled_times)
        # all times scaled to the reference speed (see REF_NOMINAL_S), and
        # means over the run's rounds
        metrics["setup_s"] = (setup, "s")
        metrics["wall_s"] = (statistics.fmean(rounds.scaled_walls), "s")
        metrics["cpu_s"] = (statistics.fmean(rounds.scaled_cpus), "s")
        metrics["op_p50_ms"] = (statistics.median(lat) * 1000, "ms")
        metrics["op_tail_ms"] = (tail(lat) * 1000, "ms")
        metrics["peak_rss_mb"] = (peak_rss_mb(args.workload, rounds), "MB")

    import oracles

    failures = judge(rounds, oracles)
    for op, reason in failures:
        tag = f"known fault ({op.known_fault})" if op.known_fault else "FAILED"
        print(f"bench: {op.name}: {tag}: {reason}", file=sys.stderr)
    correct = all(op.known_fault for op, _ in failures)
    info = {
        "drift": drift,
        "unscaled": {
            "setup_s": setup_raw,
            "round_wall_s": [round(w, 3) for w in rounds.walls],
            "round_cpu_s": [round(c, 3) for c in rounds.cpus],
            "op_ms": {op.name: round(t * 1000, 3) for op, t in zip(ops, latencies(rounds.times))},
        },
    }
    print(json.dumps(info))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(ops) * len(rounds.walls),
                "failed": len(failures),
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
