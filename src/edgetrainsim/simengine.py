"""Deterministic simulation of a training run under a parallel plan.

Within an iteration the model is synchronous: compute segments run in
lockstep between collective barriers, so a device's timeline always closes as
compute + comm + idle = makespan.

Every collective comes from the plan's per-iteration template
(:func:`~edgetrainsim.parallelism.comm_template`).  One pass over it, per
profile, groups its entries by op and sync-only flag into the iteration's
timeline: compute, then each group in turn (the sync-only ones on sync
iterations), each as long as its busiest device.  Each device's comm seconds,
``comm_bytes_by_op`` (count x payload, not the bytes a ring puts on the wire)
and the trace rows are all read from it.  Collectives use ring algorithms
under an alpha-beta link model.  A pipeline of S stages runs its M
micro-batches in the fill-drain schedule's M + S - 1 slots, each 1/M of that
barrier iteration, so its wall time is (M + S - 1) / M >= 1 times it.  Float
addition is monotone, so every trace row ends inside its iteration exactly;
idle time is >= 0 up to rounding.  Compute and communication do not overlap.

Energy integrates a three-state power model per device: idle power for the
whole makespan, the busy-minus-idle delta while computing, and the network
power adder while transmitting or receiving.

Every iteration has one of two shapes, with or without the gradient sync;
iteration g (counting from 0) syncs when g + 1 is a multiple of the job's
sync period k.  So a run of I iterations has n = floor(I/k) syncs, and every
total is closed-form: the makespan is I * base_len + n * sync_len, and each
device's compute, comm and idle time and ``comm_bytes_by_op`` are the same
two products.  A shape that never runs has no term, so a run with no sync
(I < k) is finite even when the sync alone would never end.  The trace is
never stored: :func:`write_trace` sorts the rows of each shape once by start
offset and then device, formats and encodes each row's tail once and groups
the rows by start offset, then builds the bytes iteration by iteration,
formatting each group's start time once per iteration, and writes them in
chunks of about a fixed size.  Every row starts inside its own iteration, so
the file is ordered by start time and then device, in UTF-8.

One rule decides whether a run can be used:
:attr:`SimulationResult.rejection` refuses a run that does not fit in memory
or whose latency or energy per sample is not finite.  The planner rejects
such a kind with that reason, ``sweep`` writes its row as one that does not
fit, and fault replay raises it; ``simulate`` reports the run as it is.

Fault replay keeps the same books.  It times the iterations c+1..j since
the last checkpoint (after iteration c) or reload by the same closed form,
(j - c) * base_len + (floor(j/k) - floor(c/k)) * sync_len, writes a
checkpoint once that span reaches the interval, and prices the executed
iterations with the same totals.  It draws the participants' failures as one
Poisson stream at the system MTBF, the one checkpoint planning assumes: a
generator over the standard library's ``random.Random`` seeded with the
fault model's seed, one exponential per failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from math import isfinite, log
from operator import itemgetter
from random import Random
from sys import float_info
from typing import Callable, Optional

from .devices import FaultModel, NetworkModel, TrustedDomain
from .parallelism import (KIND_PP, OP_ALLGATHER, OP_ALLREDUCE, OP_P2P,
                          CommPhase, ParallelPlan, check_memory, comm_template,
                          participant_memory, sum_in_order)
from .workload import MAX_COUNT, flops_per_iteration

DEFAULT_ITERATIONS = 20


class SimulationError(ValueError):
    pass


class OutOfMemoryError(SimulationError):
    """The plan does not fit in memory on the devices its message names."""


@dataclass
class DeviceUsage:
    peak_mem: float = 0.0
    compute_time: float = 0.0
    comm_time: float = 0.0
    idle_time: float = 0.0
    energy: float = 0.0


@dataclass
class SimulationResult:
    plan_kind: str
    iterations_simulated: int
    samples_processed: int
    makespan: float
    latency_per_sample: Optional[float]
    energy_per_sample: Optional[float]
    per_device: dict[str, DeviceUsage]
    comm_bytes_by_op: dict[str, float]
    oom_devices: tuple[str, ...] = ()

    @property
    def oom(self) -> bool:
        return bool(self.oom_devices)

    @property
    def rejection(self) -> Optional[str]:
        """Why this run cannot be used, in one line, or None when it can: it
        does not fit in memory, or its latency or energy per sample is not
        finite (a compute or link rate too small for its work)."""
        if self.oom:
            return "out of memory on " + ", ".join(self.oom_devices)
        if not (isfinite(self.latency_per_sample)
                and isfinite(self.energy_per_sample)):
            return "latency or energy per sample is not finite"
        return None

    @property
    def total_energy(self) -> float:
        return sum_in_order(u.energy for u in self.per_device.values())

    @property
    def total_comm_bytes(self) -> float:
        return sum_in_order(self.comm_bytes_by_op.values())


def collective_time(op: str, payload_bytes: float, participants,
                    network: NetworkModel) -> float:
    """Alpha-beta cost of one collective among the given devices.

    Ring algorithms: every step each node forwards a payload/n chunk to its
    ring successor, so a step costs the worst ring edge's chunk time plus
    per-hop latency.  AllReduce takes 2(n-1) steps (reduce-scatter followed
    by allgather), AllGather takes n-1.
    """
    participants = tuple(participants)
    n = len(participants)
    if op == OP_P2P:
        if n != 2:
            raise SimulationError("point-to-point needs exactly 2 participants")
        link = network.link_between(*participants)
        return payload_bytes / link.bytes_per_second + link.latency
    if n < 2:
        raise SimulationError("collectives need at least 2 participants")
    chunk = payload_bytes / n
    step = 0.0
    for i in range(n):
        link = network.link_between(participants[i], participants[(i + 1) % n])
        step = max(step, chunk / link.bytes_per_second + link.latency)
    if op == OP_ALLREDUCE:
        return 2.0 * (n - 1) * step
    if op == OP_ALLGATHER:
        return (n - 1) * step
    raise SimulationError(f"unknown collective op {op!r}")


def phase_seconds(entry: CommPhase, network: NetworkModel) -> float:
    """Seconds one template entry takes per iteration: its count times one
    collective's time."""
    return entry.count * collective_time(entry.op, entry.payload_bytes,
                                         entry.participants, network)


@dataclass
class _IterationProfile:
    """One iteration's phase timeline, built once from the template.

    ``groups`` holds one (start, kind, payload, sync_only, seconds) tuple per
    group, in the order the groups run: compute first (kind ``"compute"``,
    payload 0), then the template's entries grouped by (op, sync_only): the
    op, the payload bytes of all its runs and each participant's seconds in
    it.
    """
    groups: list
    base_len: float     # iteration wall time without the sync-only groups
    sync_len: float     # their extra wall time on sync iterations


def _profile_iteration(plan: ParallelPlan, domain: TrustedDomain) -> _IterationProfile:
    spec, job = plan.spec, plan.job
    parts = plan.participants
    # Each device computes its share (samples, positions, heads or blocks).
    flops, total = flops_per_iteration(spec, job), sum(plan.shares)
    throughput = domain._throughput
    compute = {p: flops * (s / total) / throughput[p]
               for p, s in zip(parts, plan.shares)}

    # (op, sync_only) -> [payload bytes, seconds per device]
    phases: dict[tuple[str, bool], list] = {}
    for e in comm_template(plan):
        t = phase_seconds(e, domain.network)
        acc = phases.get((e.op, e.sync_only))
        if acc is None:
            acc = phases[e.op, e.sync_only] = [0.0, dict.fromkeys(parts, 0.0)]
        acc[0] += e.count * e.payload_bytes
        for p in e.participants:
            acc[1][p] += t
    # Each group lasts as long as its busiest device and starts when the one
    # before it ends: compute at 0, the every-iteration groups from the
    # slowest device's compute, the sync-only groups from the base length.
    # A pipeline's M micro-batches take M + S - 1 slots of one micro-batch's
    # share of the base; the other kinds take one slot (x * (1 / 1) == x).
    groups = [(0.0, "compute", 0.0, False, compute)]
    end = max(compute.values())
    for (op, sync_only), (payload, seconds) in phases.items():
        if not sync_only:
            groups.append((end, op, payload, False, seconds))
            end += max(seconds.values())
    m_count = job.micro_batch_count
    slots, per_slot = ((m_count + len(parts) - 1, m_count)
                       if plan.kind == KIND_PP else (1, 1))
    base_len = end * (slots / per_slot)
    sync_len = 0.0
    for (op, sync_only), (payload, seconds) in phases.items():
        if sync_only:
            groups.append((base_len + sync_len, op, payload, True, seconds))
            sync_len += max(seconds.values())
    return _IterationProfile(groups=groups, base_len=base_len,
                             sync_len=sync_len)


def iteration_times(plan: ParallelPlan,
                    domain: TrustedDomain) -> tuple[float, float]:
    """Wall time of an iteration without the gradient sync, and the extra
    wall time of an iteration with it: (base_len, sync_len)."""
    prof = _profile_iteration(plan, domain)
    return prof.base_len, prof.sync_len


def simulate(plan: ParallelPlan, domain: TrustedDomain,
             iterations: int = DEFAULT_ITERATIONS) -> SimulationResult:
    """Run a fault-free simulation and report per-sample and per-device metrics.

    Use :func:`inject_faults` for failure/recovery accounting.
    """
    return _simulate(plan, domain, iterations)[0]


def _simulate(plan: ParallelPlan, domain: TrustedDomain, iterations: int
              ) -> tuple[SimulationResult, Optional[_IterationProfile]]:
    """:func:`simulate`'s result and the profile it was totalled from (None
    for an out-of-memory plan, which is never profiled)."""
    if not 1 <= iterations <= MAX_COUNT:
        raise SimulationError("iterations must be in 1..2**53")

    # check_memory's rule, without a MemoryCheck per device.
    usage = {p: DeviceUsage(peak_mem=state + act) for p, (state, act)
             in zip(plan.participants, participant_memory(plan))}
    usable = domain._usable_memory
    oom_devices = tuple(p for p, u in usage.items()
                        if not u.peak_mem <= usable[p])
    if oom_devices:
        return SimulationResult(
            plan_kind=plan.kind, iterations_simulated=0, samples_processed=0,
            makespan=0.0, latency_per_sample=None, energy_per_sample=None,
            per_device=usage, comm_bytes_by_op={},
            oom_devices=oom_devices), None

    prof = _profile_iteration(plan, domain)
    makespan, comm_bytes = _totals(domain, prof, usage, iterations,
                                   iterations // plan.job.dp_sync_period)
    samples = iterations * plan.job.global_batch
    return SimulationResult(
        plan_kind=plan.kind, iterations_simulated=iterations,
        samples_processed=samples, makespan=makespan,
        latency_per_sample=makespan / samples,
        energy_per_sample=(sum_in_order(u.energy for u in usage.values())
                           / samples),
        per_device=usage, comm_bytes_by_op=comm_bytes), prof


def _totals(domain: TrustedDomain, prof: _IterationProfile,
            usage: dict[str, DeviceUsage], iterations: int,
            n_sync: int) -> tuple[float, dict[str, float]]:
    """Total ``iterations`` iterations, of which ``n_sync`` sync, as the
    two shapes' products: set each device's compute, comm and idle time and
    energy in ``usage``, and return the makespan and ``comm_bytes_by_op``.

    A group that never runs has no term, so a run without a sync has no
    sync term, not ``0 * inf`` for a sync that would never end."""
    base_len = prof.base_len
    sync_len = prof.sync_len if n_sync else 0.0
    makespan = iterations * base_len + n_sync * sync_len
    (_, _, _, _, compute), *phases = prof.groups
    comm_bytes: dict[str, float] = {}
    every, sync = [], []  # each group's seconds per device, in group order
    for _, op, payload, sync_only, seconds in phases:
        runs = n_sync if sync_only else iterations
        if runs:
            (sync if sync_only else every).append(seconds)
            comm_bytes[op] = comm_bytes.get(op, 0.0) + runs * payload

    power = domain._power
    for p, u in usage.items():
        idle, busy_extra, net = power[p]
        base_comm = sync_comm = 0.0
        for seconds in every:
            base_comm += seconds[p]
        for seconds in sync:
            sync_comm += seconds[p]
        u.compute_time = iterations * compute[p]
        u.comm_time = iterations * base_comm + n_sync * sync_comm
        u.idle_time = (iterations * (base_len - compute[p] - base_comm)
                       + n_sync * (sync_len - sync_comm))
        u.energy = (idle * makespan + busy_extra * u.compute_time
                    + net * u.comm_time)
    return makespan, comm_bytes


def checkpoint_cost(plan: ParallelPlan, domain: TrustedDomain,
                    fault_model: FaultModel) -> tuple[float, float]:
    """Largest per-device state shard in bytes, and seconds to write it."""
    shard = max(c.state_bytes for c in check_memory(plan, domain).values())
    return shard, shard / fault_model.checkpoint_write_bandwidth


@dataclass
class FaultReport:
    fault_free: SimulationResult
    wall_time: float
    goodput_samples_per_s: float
    failures: int
    executed_iterations: int
    completed_iterations: int
    checkpoint_writes: int
    rework_time: float
    reload_time: float
    checkpoint_time: float
    energy_estimate: float
    checkpoint_interval: float
    seed: int


def _failure_stream(fault_model: FaultModel, num_devices: int):
    """Absolute failure times of ``num_devices`` participants, as one stream.

    Each participant fails as an exponential renewal process of mean
    ``mtbf_per_device``.  Independent such processes superpose into one
    Poisson process at the system MTBF,
    :meth:`~edgetrainsim.devices.FaultModel.system_mtbf`, which
    :func:`~edgetrainsim.scheduler.plan_checkpointing` plans for.  Each
    failure takes one draw u of ``random.Random(rng_seed)`` and adds
    ``scale * x`` for the standard exponential ``x = -log(1 - u)``.  Float
    multiplication and addition are monotone, so shrinking the MTBF with a
    fixed seed never delays a failure time; a time that overflows is inf.
    """
    draw = Random(fault_model.rng_seed).random
    scale = fault_model.system_mtbf(num_devices)
    t = 0.0
    while True:
        t += scale * -log(1.0 - draw())
        yield t


def _never_ends(what: str, shard: float, bandwidth: float) -> str:
    return (f"a checkpoint {what} of {shard:.6g} bytes at {bandwidth:.6g} B/s "
            f"never ends")


def inject_faults(plan: ParallelPlan, domain: TrustedDomain,
                  fault_model: FaultModel,
                  checkpoint_interval: float | Callable[[float, float, float],
                                                        float],
                  iterations: int = DEFAULT_ITERATIONS,
                  failure_times: Optional[list[float]] = None) -> FaultReport:
    """Replay the run against seeded failures with checkpoint/restart recovery.

    The work since the last checkpoint or reload takes :func:`simulate`'s
    makespan of its iterations, so with no failure the wall time is the
    makespan.  A failure rolls progress back to the last checkpoint and
    charges a state reload; a checkpoint is written after any iteration but
    the last once that span reaches ``checkpoint_interval`` (> 0 seconds).
    ``checkpoint_interval`` may instead be a rule that gives it from the
    write time and the iteration's (base_len, sync_len), so a caller that
    plans the interval profiles nothing itself.
    The energy is simulate's energy of the executed iterations, syncs
    included, plus idle and network power over reloads and writes; the part
    of an iteration that a failure cuts off is not charged.  A run that
    :attr:`SimulationResult.rejection` refuses is not replayed: out of
    memory raises :class:`OutOfMemoryError`, and a run whose latency or
    energy per sample is not finite, which would never end, raises
    :class:`SimulationError`.  So does the first reload or write due whose
    time is not finite (a bandwidth too small for the shard).
    ``failure_times`` overrides the random stream (used for hand-built traces).
    """
    base, prof = _simulate(plan, domain, iterations)
    if base.rejection is not None:
        raise (OutOfMemoryError if base.oom else SimulationError)(
            base.rejection)
    shard, write_time = checkpoint_cost(plan, domain, fault_model)
    if callable(checkpoint_interval):
        checkpoint_interval = checkpoint_interval(write_time, prof.base_len,
                                                  prof.sync_len)
    if not checkpoint_interval > 0:  # also refuses NaN
        raise SimulationError("checkpoint_interval must be > 0")

    reload_time_each = shard / fault_model.recovery_reload_bandwidth
    k = plan.job.dp_sync_period
    # A run shorter than a sync period never syncs: no sync term, as in
    # simulate's totals.
    base_len = prof.base_len
    sync_len = prof.sync_len if iterations >= k else 0.0

    if failure_times is not None:
        stream = iter(list(failure_times) + [float("inf")])
    else:
        stream = _failure_stream(fault_model, len(plan.participants))
    next_fail = next(stream)

    # The run is a chain of stretches.  Each starts at wall time ``start``,
    # the end of a write or a reload (or 0), from the last checkpoint's
    # iteration ``done``.  Iterations done+1..j take ``span``, simulate's
    # makespan of them.  A stretch ends at the iteration a failure cuts off,
    # or at the first whose span reaches the interval.
    start = rework = 0.0
    done = failures = writes = executed = executed_syncs = 0
    while True:
        done_syncs = done // k
        for j in range(done + 1, iterations + 1):
            span = (j - done) * base_len + (j // k - done_syncs) * sync_len
            end = start + span
            if end > next_fail or span >= checkpoint_interval:
                break
        if end > next_fail:
            # A failure cuts iteration j off and the stretch's work is lost.
            # The run reloads and restarts the stretch, as often as the next
            # failure comes before its first iteration ends.
            if not isfinite(reload_time_each):
                raise SimulationError(_never_ends(
                    "reload", shard, fault_model.recovery_reload_bandwidth))
            executed += j - 1 - done
            executed_syncs += (j - 1) // k - done_syncs
            first = base_len + ((done + 1) // k - done_syncs) * sync_len
            while True:
                rework += next_fail - start
                start = next_fail + reload_time_each
                failures += 1
                next_fail = next(stream)
                if not start + first > next_fail:
                    break
            continue
        executed += j - done
        executed_syncs += j // k - done_syncs
        if j == iterations:
            break
        if not isfinite(write_time):
            raise SimulationError(_never_ends(
                "write", shard, fault_model.checkpoint_write_bandwidth))
        start = end + write_time
        writes += 1
        done = j

    # count x cost; none takes 0 s even at an infinite cost
    reloading = failures * reload_time_each if failures else 0.0
    writing = writes * write_time if writes else 0.0
    usage = {p: DeviceUsage() for p in plan.participants}
    _totals(domain, prof, usage, executed, executed_syncs)
    overhead_power = sum_in_order(
        domain.device(p).power_idle + domain.device(p).power_net
        for p in plan.participants)
    energy = (sum_in_order(u.energy for u in usage.values())
              + overhead_power * (reloading + writing))
    samples = iterations * plan.job.global_batch
    return FaultReport(
        fault_free=base, wall_time=end,
        goodput_samples_per_s=samples / end, failures=failures,
        executed_iterations=executed, completed_iterations=iterations,
        checkpoint_writes=writes, rework_time=rework,
        reload_time=reloading, checkpoint_time=writing,
        energy_estimate=energy, checkpoint_interval=checkpoint_interval,
        seed=fault_model.rng_seed)


TRACE_HEADER = "time\tdevice\tkind\tduration\tbytes\n"

# About how many bytes of rows write_trace joins before each write.
_TRACE_CHUNK_BYTES = 1 << 16


def _trace_shapes(prof: _IterationProfile):
    """The (offset, device, kind, duration, bytes) rows of each iteration
    shape, keyed by whether it syncs, ordered by (offset, device).

    One row per group and device with positive seconds in it, read straight
    from the timeline.  The rows are sorted once; the sort is stable, so rows
    that tie keep their group order.
    """
    rows = sorted(((start, p, kind, d, payload, sync_only)
                   for start, kind, payload, sync_only, seconds in prof.groups
                   for p, d in seconds.items() if d > 0),
                  key=itemgetter(0, 1))
    return {True: [r[:5] for r in rows],
            False: [r[:5] for r in rows if not r[5]]}


def write_trace(plan: ParallelPlan, domain: TrustedDomain, iterations: int,
                path) -> SimulationResult:
    """Simulate the run and write its flat tab-delimited trace table: time,
    device, kind, duration, bytes.  Returns :func:`simulate`'s result.

    One row per device and phase of each of the ``iterations`` iterations,
    with the syncs on the iterations that :func:`simulate` totals.  An
    out-of-memory run simulates none, so its table is the header alone.
    The file is written as UTF-8 bytes, with LF line ends on every platform.
    The rows of a shape are grouped by start offset: each row's tail after
    the time is formatted and encoded once per run, and each group's start
    time once per iteration.  The groups go out in chunks of whole
    iterations, as many as fit about ``_TRACE_CHUNK_BYTES`` at the widest
    iteration's size, so the memory held stays bounded however many devices
    there are.
    """
    result, prof = _simulate(plan, domain, iterations)
    with open(path, "wb") as fh:
        fh.write(TRACE_HEADER.encode())
        if result.oom:
            return result
        shapes = {}
        for sync, rows in _trace_shapes(prof).items():
            # [b"", *tails]: joined by a start time, a group's rows each begin
            # with it.
            groups = [(offset, [b"", *(f"\t{p}\t{kind}\t{d:.9f}\t{b:.1f}\n"
                                       .encode() for _, p, kind, d, b in group)])
                      for offset, group in groupby(rows, key=itemgetter(0))]
            length = prof.base_len + (prof.sync_len if sync else 0.0)
            shapes[sync] = groups, length
        # The sync shape holds every row, so its iteration is the widest.
        # Start times grow, so none is wider than the run's end (or than the
        # largest float, should that overflow).
        start_width = len(b"%.9f" % min(result.makespan, float_info.max))
        widest = sum(len(tail) + start_width
                     for _, tails in shapes[True][0] for tail in tails[1:])
        per_chunk = max(1, _TRACE_CHUNK_BYTES // max(widest, 1))
        k = plan.job.dp_sync_period
        t0 = 0.0
        chunk = []
        for g in range(iterations):
            groups, length = shapes[(g + 1) % k == 0]
            for offset, tails in groups:
                chunk.append((b"%.9f" % (t0 + offset)).join(tails))
            t0 += length
            if (g + 1) % per_chunk == 0:
                fh.write(b"".join(chunk))
                chunk = []
        fh.write(b"".join(chunk))
    return result
