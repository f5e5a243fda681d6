"""edgetrainsim benchmark: `plan`, `sweep` and `replay` workloads.

    python3 bench/run.py --workload {plan,sweep,replay} --seed N \
        --seconds S --trace {0,1}

A single-process, single-thread, closed-loop harness: one client sends the
next command when the previous one returns.  Commands go through
`edgetrainsim.cli.main` in-process, on input files made from `--seed` in a
work directory under `.bench_work/` (deleted on exit).  The program is
imported from `src/` next to this directory; without it the harness exits 2.

One run = set-up (timed SETUP_REPEATS times, re-importing the program each
time) and then passes over a fixed list of at least 100 commands (see
inputs.py).  The number of passes comes from `--seconds` and nominal pass
times (see pass_count), not from the clock, so a seed always gives the same
attempted and failed counts.  Every command is timed alone; its outputs are
checked and hashed outside the timed interval.  A command fails when it
raises, exits non-zero, exceeds its time limit or fails an output check;
failures are counted, never fatal.

`--trace 0` prints the end-to-end metrics (host time):

  setup_s      median set-up time: import, input files, stored replay plans
  ops_per_s    commands per host second, over one pass of the command list
  op_p50_ms    median host latency of a command in the list
  op_p90_ms    90th-percentile host latency of a command in the list
  peak_rss_mb  peak resident memory of the process

On a shared host a core runs the same code up to twice as slowly while a
neighbour is busy, in phases of about a second.  So each command starts
after a full garbage collection, as it would in a fresh process; its host
time is scaled by the host speed measured next to it (see CAL_DOC); and its
latency is the median of its scaled times over the run's passes.  A command
stopped at its time limit is left out of the figures, as the limit sets its
time, and is not run again in later passes.  The report lines also give
failed_share; pass_wall_s, the median wall time of an untraced pass, to
compare with PASS_S; for `replay` the simulated events per host second,
split into sim_iters_per_s (`simulate --trace`) and fault_events_per_s
(executed iterations, failures and checkpoint writes of `faults`); and a
digest of every output file of the first pass.

`--trace 1` alternates untraced and traced passes (see tracing.py) and
prints per-layer calls, self time and counters for one pass, plus
tracing.overhead_share: traced over untraced pass time, minus one.

The last stdout line is one JSON object: correct, attempted, failed and
metrics.  `correct` is false when a command's outputs differ between passes
or a traced pass's exact counts differ from the first traced pass.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

import yaml

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("plan", "sweep", "replay")
SETUP_REPEATS = 3

# The number of passes over the command list is fixed by --seconds, not by
# the clock, so that a seed always gives the same attempted and failed
# counts.  PASS_S is the wall time of one untraced pass, with its checks
# and calibrations, on a shared 2-core VM; a run measures about --seconds
# there.
PASS_S = {"plan": 8.5, "sweep": 4.5, "replay": 7.5}
MIN_PASSES = 2

# Host-speed calibration.  A fixed task of the program's own kinds of work
# (a YAML round trip and a float loop, 5-10 ms) runs before every command,
# and the command's host time is scaled by CAL_REF_S over the median of the
# CAL_NEAR calibrations nearest to it.  The slow phases of a shared core
# last about a second, so the calibrations must lie close to the command.
# On a shared 2-core VM the spread of `plan` ops_per_s and op_p90_ms over
# seeds was 14-16% when calibrating once per 0.25 s of commands, 4-7% when
# calibrating before every command and 22-23% for unscaled times.  Over
# six seeds of `sweep`, a 20-30 ms task and this one gave the same spreads.
CAL_DOC = yaml.safe_dump({"devices": [
    {"id": f"d{i}", "flops": 1.5e10 * i, "mem": 4e9,
     "links": [[i, j, 1e8 / (j + 1)] for j in range(6)]} for i in range(4)]})
CAL_REF_S = 0.01
CAL_NEAR = 7


class OpTimeout(BaseException):
    """Raised by SIGALRM when a command exceeds its time limit."""


def _alarm(signum, frame):
    raise OpTimeout()


class Record:
    __slots__ = ("op", "seconds", "problem", "timed_out", "scaled", "events",
                 "digest")

    def __init__(self, op, seconds, problem, timed_out):
        self.op, self.seconds, self.problem = op, seconds, problem
        self.timed_out = timed_out
        self.scaled = seconds
        self.events = 0
        self.digest = ""


def calibrate() -> float:
    """Host seconds taken by the fixed calibration task."""
    gc.collect()
    t0 = perf_counter()
    data = yaml.safe_load(CAL_DOC)
    yaml.safe_dump(data, sort_keys=True)
    total = 0.0
    for dev in data["devices"]:
        for a, b, bw in dev["links"]:
            total += math.sqrt(bw) / (a + b + 1)
    return perf_counter() - t0


# ---------------------------------------------------------------- set-up

def import_program():
    for name in [m for m in sys.modules
                 if m == "edgetrainsim" or m.startswith("edgetrainsim.")]:
        del sys.modules[name]
    cli = importlib.import_module("edgetrainsim.cli")
    if SRC not in Path(cli.__file__).resolve().parents:
        raise ImportError(f"edgetrainsim imported from {cli.__file__}, "
                          f"not from {SRC}")
    return cli


def set_up(workload: str, seed: int, workdir: Path, tiny: bool):
    """Import the program and make the inputs; returns (seconds, cli, ops),
    seconds scaled by the host speed measured just before and after."""
    import inputs
    if workdir.exists():
        shutil.rmtree(workdir)
    cal = calibrate()
    gc.collect()
    t0 = perf_counter()
    cli = import_program()
    if workload == "plan":
        ops = inputs.plan_ops(seed, workdir, tiny)
    elif workload == "sweep":
        ops = inputs.sweep_ops(seed, workdir, tiny)
    else:
        ops = inputs.replay_ops(seed, workdir, cli, tiny)
    seconds = perf_counter() - t0
    return seconds * CAL_REF_S * 2 / (cal + calibrate()), cli, ops


# ---------------------------------------------------------------- passes

def run_op(cli, op) -> Record:
    for path in op.outputs:
        path.unlink(missing_ok=True)
    sink = io.StringIO()
    problem = None
    timed_out = False
    t0 = perf_counter()
    signal.setitimer(signal.ITIMER_REAL, op.limit_s)
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(op.argv)
        if code != 0:
            problem = f"exit {code}: {sink.getvalue().strip()[-200:]}"
    except OpTimeout:
        problem = f"exceeded the {op.limit_s:g} s limit"
        timed_out = True
    except (Exception, SystemExit) as exc:
        problem = f"raised {type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return Record(op, perf_counter() - t0, problem, timed_out)


def check(rec: Record) -> None:
    """Check and hash one command's outputs (outside the timed interval)."""
    if rec.problem is None:
        try:
            rec.problem, rec.events = rec.op.check(rec.op)
        except (OSError, KeyError, TypeError, ValueError) as exc:
            rec.problem = f"unreadable output: {type(exc).__name__}: {exc}"
    h = hashlib.sha256(rec.op.name.encode())
    for path in rec.op.outputs:
        h.update(path.read_bytes() if path.exists() else b"<missing>")
    rec.digest = h.hexdigest()


def run_pass(cli, ops, tracer=None) -> list[Record]:
    """Run every command once, then scale its time and check its outputs."""
    records, cals = [], []
    if tracer is not None:
        tracer.install()
    try:
        for op in ops:
            cals.append(calibrate())
            gc.collect()
            records.append(run_op(cli, op))
            if tracer is not None:
                tracer.end_op()
    finally:
        if tracer is not None:
            tracer.uninstall()
    cals.append(calibrate())
    for i, rec in enumerate(records):
        # Calibration i ran just before command i, and the last one after.
        near = sorted(range(len(cals)), key=lambda c: abs(c - i - 0.5))
        rec.scaled = rec.seconds * CAL_REF_S / statistics.median(
            cals[c] for c in near[:CAL_NEAR])
        check(rec)
    return records


def pass_count(workload: str, seconds: float, trace: bool,
               tiny: bool) -> int:
    """Passes in a run: enough to fill about `seconds` at PASS_S, and at
    least MIN_PASSES untraced ones.  A traced run counts an untraced and a
    traced pass as one and makes at least one such pair."""
    if tiny:
        return 1
    if trace:
        return max(1, round(seconds / (2 * PASS_S[workload])))
    return max(MIN_PASSES, round(seconds / PASS_S[workload]))


def pass_seconds(records) -> float:
    return sum(r.scaled for r in records if not r.timed_out)


# ---------------------------------------------------------------- metrics

def percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def op_times(passes) -> list[tuple[Record, float]]:
    """Per command: its first record and its median scaled host time over
    the passes, leaving out commands that hit their time limit."""
    times: dict[str, list[float]] = {}
    first: dict[str, Record] = {}
    for records in passes:
        for r in records:
            first.setdefault(r.op.name, r)
            if not r.timed_out:
                times.setdefault(r.op.name, []).append(r.scaled)
    return [(first[name], statistics.median(ts)) for name, ts in times.items()]


def end_to_end(workload: str, passes, setup_s: float) -> tuple[dict, dict]:
    """The BENCHMARK.json end-to-end metrics, and extra report-only figures."""
    records = [r for p in passes for r in p]
    failed = sum(r.problem is not None for r in records)
    extra = {"failed_share": (failed / len(records), "ratio")}
    times = op_times(passes)
    latencies = [t * 1e3 for _, t in times]
    if workload == "replay":
        for name, command in (("sim_iters_per_s", "simulate"),
                              ("fault_events_per_s", "faults")):
            part = [(r, t) for r, t in times if r.op.command == command]
            extra[name] = (sum(r.events for r, _ in part)
                           / sum(t for _, t in part), "1/s")
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(times) / sum(t for _, t in times), "1/s"),
        "op_p50_ms": (percentile(latencies, 50), "ms"),
        "op_p90_ms": (percentile(latencies, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    return metrics, extra


def mark_nondeterministic(passes) -> bool:
    """Fail commands whose outputs differ from their first pass; True if none."""
    first = {r.op.name: r for r in passes[0]}
    same = True
    for records in passes[1:]:
        for r in records:
            if r.timed_out or first[r.op.name].timed_out:
                continue
            if r.digest != first[r.op.name].digest:
                same = False
                r.problem = r.problem or "outputs differ from the first pass"
    return same


def workload_digest(records) -> str:
    h = hashlib.sha256()
    for r in records:
        h.update(r.digest.encode())
    return h.hexdigest()


# ---------------------------------------------------------------- runs

def measure(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False) -> dict:
    """One benchmark run; returns the result object and the report lines."""
    from tracing import Tracer, metric_units
    workdir = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    old_handler = signal.signal(signal.SIGALRM, _alarm)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            dt, cli, ops = set_up(workload, seed, workdir, tiny)
            setups.append(dt)
        setup_s = statistics.median(setups)

        untraced, traced, tracers = [], [], []
        pass_walls = []
        for _ in range(pass_count(workload, seconds, trace, tiny)):
            start = perf_counter()
            records = run_pass(cli, ops)
            pass_walls.append(perf_counter() - start)
            untraced.append(records)
            # A command that hit its limit would only hit it again.
            stopped = {r.op.name for r in records if r.timed_out}
            ops = [op for op in ops if op.name not in stopped]
            if trace:
                tracers.append(Tracer())
                traced.append(run_pass(cli, ops, tracers[-1]))
    finally:
        signal.signal(signal.SIGALRM, old_handler)
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    passes = untraced + traced
    correct = mark_nondeterministic(passes)
    records = [r for p in passes for r in p]
    lines = [f"workload {workload} seed {seed} trace {int(trace)}: "
             f"{len(untraced)} untraced + {len(traced)} traced passes of "
             f"{len(untraced[0])} commands"]
    if trace:
        counts = [t.counts() for t in tracers]
        if any(c != counts[0] for c in counts[1:]):
            correct = False
            lines.append("per-layer counts differ between traced passes")
        self_ms = [t.self_ms() for t in tracers]
        values = dict(counts[0])
        values.update({k: statistics.median(s[k] for s in self_ms)
                       for k in self_ms[0]})
        overhead = (sum(map(pass_seconds, traced))
                    / sum(map(pass_seconds, untraced)) - 1)
        values["tracing.overhead_share"] = overhead
        units = metric_units()
        units["tracing.overhead_share"] = "ratio"
        metrics = {k: (values[k], units[k]) for k in units}
        extra = {}
    else:
        metrics, extra = end_to_end(workload, untraced, setup_s)
        extra["pass_wall_s"] = (statistics.median(pass_walls), "s")
    failed = [r for r in records if r.problem is not None]
    for name, (value, unit) in {**metrics, **extra}.items():
        lines.append(f"  {name} {value:.6g} {unit}")
    lines.append(f"  failed {len(failed)} of {len(records)} attempted")
    lines.append(f"digest {workload} {workload_digest(passes[0])}")
    return {
        "result": {"correct": correct, "attempted": len(records),
                   "failed": len(failed),
                   "metrics": {k: {"value": v, "unit": u}
                               for k, (v, u) in metrics.items()}},
        "lines": lines,
        "failures": sorted({f"{r.op.name}: {r.problem}" for r in failed}),
        "wrapper_calls": {k: sum(t.wrapper_calls[k] for t in tracers)
                          for k in (tracers[0].wrapper_calls if tracers else ())},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "edgetrainsim" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in out["failures"]:
        print(f"failed: {line}", file=sys.stderr)
    print("\n".join(out["lines"]))
    print(json.dumps(out["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
