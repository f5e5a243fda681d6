"""Deterministic simulation of a training run under a parallel plan.

Within an iteration the model is synchronous: compute segments run in
lockstep between collective barriers, so a device's timeline always closes as
compute + comm + idle = makespan.

Every collective comes from the plan's per-iteration template
(:func:`~edgetrainsim.parallelism.comm_template`).  One pass over it, per
profile, gives each device's comm seconds, ``comm_bytes_by_op`` and the
trace rows; ``comm_bytes_by_op`` counts payload bytes (count x payload),
not the bytes a ring puts on the wire.  Collectives use ring algorithms
under an alpha-beta link model.  Every kind has one wall-time formula: the
slowest device's compute, then the busiest device's communication (every
collective phase in turn where all participants join each one).  A
pipeline of S stages runs its M micro-batches in the fill-drain schedule's
M + S - 1 slots, each 1/M of that barrier iteration, so its wall time is
(M + S - 1) / M >= 1 times it.  For every kind, idle time is never
negative and every trace row ends inside its iteration, up to float
rounding.  Compute and communication do not overlap.

Energy integrates a three-state power model per device: idle power for the
whole makespan, the busy-minus-idle delta while computing, and the network
power adder while transmitting or receiving.

Every iteration has one of two shapes, with or without the gradient sync;
iteration g (counting from 0) syncs when g + 1 is a multiple of the job's
sync period k.  So a run of I iterations has n = floor(I/k) syncs, and every
total is closed-form: the makespan is I * base_len + n * sync_len, and each
device's compute, comm and idle time and ``comm_bytes_by_op`` are the same
two products.  The trace is never stored: :func:`write_trace` sorts the rows
of each shape once by start offset and then device, formats each row's tail
once and groups the rows by start offset, then streams them iteration by
iteration, formatting each group's start time once per iteration.  Every row
starts inside its own iteration, so the file is ordered by start time and
then device, in UTF-8.

numpy is imported on demand, by the fault replay's failure stream alone, so
planning and simulating never load it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import Optional

from .devices import (FaultModel, NetworkModel, TrustedDomain, busy_power,
                      effective_throughput)
from .parallelism import (KIND_PP, KIND_TP, OP_ALLGATHER, OP_ALLREDUCE,
                          OP_P2P, ParallelPlan, check_memory, comm_template,
                          sum_in_order)
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
    oom: bool = False
    oom_devices: tuple[str, ...] = ()

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


@dataclass
class _IterationProfile:
    """Per-device constants of one iteration, folded once from the template."""
    compute: dict[str, float]               # per-device compute seconds
    base_comm: dict[str, float]             # per-device comm seconds (every iter)
    base_len: float                         # iteration wall time without sync
    sync_len: float                         # extra wall time on sync iterations
    sync_comm: dict[str, float]             # extra per-device comm on sync iters
    base_bytes: dict[str, float]            # payload bytes by op, every iteration
    sync_bytes: dict[str, float]            # payload bytes by op on sync iterations
    phases: list                            # (CommPhase, seconds per run)


def _fold(phases, parts) -> tuple[dict[str, float], dict[str, float]]:
    """Per-device seconds and payload bytes by op of some template entries."""
    seconds = dict.fromkeys(parts, 0.0)
    by_op: dict[str, float] = {}
    for e, t in phases:
        for p in e.participants:
            seconds[p] += e.count * t
        by_op[e.op] = by_op.get(e.op, 0.0) + e.count * e.payload_bytes
    return seconds, by_op


def _profile_iteration(plan: ParallelPlan, domain: TrustedDomain) -> _IterationProfile:
    spec, job = plan.spec, plan.job
    parts = plan.participants
    flops = flops_per_iteration(spec, job)
    thr = {p: effective_throughput(domain.device(p), domain.mode) for p in parts}
    if plan.kind == KIND_TP:
        compute = {p: flops / len(parts) / thr[p] for p in parts}
    else:  # the others split the batch, the sequence or the blocks by share
        total = sum(plan.shares)
        compute = {p: flops * (s / total) / thr[p]
                   for p, s in zip(parts, plan.shares)}

    phases = [(e, collective_time(e.op, e.payload_bytes, e.participants,
                                  domain.network))
              for e in comm_template(plan)]
    base_comm, base_bytes = _fold([x for x in phases if not x[0].sync_only], parts)
    sync_comm, sync_bytes = _fold([x for x in phases if x[0].sync_only], parts)
    # The slowest device's compute, then the busiest device's comm.  A
    # pipeline's M micro-batches take M + S - 1 slots of one micro-batch's
    # share of that; the other kinds take one slot (x * (1 / 1) == x).
    m_count = job.micro_batch_count
    slots, per_slot = ((m_count + len(parts) - 1, m_count)
                       if plan.kind == KIND_PP else (1, 1))
    base_len = ((max(compute.values()) + max(base_comm.values()))
                * (slots / per_slot))
    return _IterationProfile(compute=compute, base_comm=base_comm,
                             base_len=base_len,
                             sync_len=max(sync_comm.values()),
                             sync_comm=sync_comm, base_bytes=base_bytes,
                             sync_bytes=sync_bytes, phases=phases)


def _trace_rows(prof: _IterationProfile, parts) -> list[tuple]:
    """(offset, device, kind, duration, bytes, sync_only) rows of one iteration.

    Every-iteration phases start, in template order, when the slowest device
    finishes computing; sync-only phases start at the base iteration length.
    """
    rows = [(0.0, p, "compute", prof.compute[p], 0.0, False) for p in parts]
    offset = {False: max(prof.compute.values()), True: prof.base_len}
    by_phase: dict[tuple[str, bool], list] = {}
    for e, t in prof.phases:
        by_phase.setdefault((e.phase, e.sync_only), []).append((e, t))
    for (_, sync_only), phases in by_phase.items():
        seconds, by_op = _fold(phases, parts)
        (op, payload), = by_op.items()
        rows.extend((offset[sync_only], p, op, d, payload, sync_only)
                    for p, d in seconds.items() if d > 0)
        offset[sync_only] += max(seconds.values())
    return rows


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

    mem = check_memory(plan, domain)
    oom_devices = tuple(p for p, c in mem.items() if not c.fits)
    usage = {p: DeviceUsage(peak_mem=mem[p].required_bytes)
             for p in plan.participants}
    if oom_devices:
        return SimulationResult(
            plan_kind=plan.kind, iterations_simulated=0, samples_processed=0,
            makespan=0.0, latency_per_sample=None, energy_per_sample=None,
            per_device=usage, comm_bytes_by_op={}, oom=True,
            oom_devices=oom_devices), None

    prof = _profile_iteration(plan, domain)
    n_sync = iterations // plan.job.dp_sync_period
    makespan = iterations * prof.base_len + n_sync * prof.sync_len
    comm_bytes = {op: iterations * b for op, b in prof.base_bytes.items()}
    if n_sync:  # a run without a sync reports no sync-only op
        for op, b in prof.sync_bytes.items():
            comm_bytes[op] = comm_bytes.get(op, 0.0) + n_sync * b

    for p, u in usage.items():
        device = domain.device(p)
        compute, base_comm, sync_comm = (prof.compute[p], prof.base_comm[p],
                                         prof.sync_comm[p])
        u.compute_time = iterations * compute
        u.comm_time = iterations * base_comm + n_sync * sync_comm
        u.idle_time = (iterations * (prof.base_len - compute - base_comm)
                       + n_sync * (prof.sync_len - sync_comm))
        u.energy = (device.power_idle * makespan
                    + (busy_power(device, domain.mode) - device.power_idle)
                    * u.compute_time
                    + device.power_net * u.comm_time)

    samples = iterations * plan.job.global_batch
    return SimulationResult(
        plan_kind=plan.kind, iterations_simulated=iterations,
        samples_processed=samples, makespan=makespan,
        latency_per_sample=makespan / samples,
        energy_per_sample=(sum_in_order(u.energy for u in usage.values())
                           / samples),
        per_device=usage, comm_bytes_by_op=comm_bytes), prof


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
    """Merged absolute failure times, one exponential renewal stream per device.

    Draws are mtbf-scaled standard exponentials, so shrinking the MTBF with a
    fixed seed strictly advances every failure time.
    """
    import numpy as np  # imported here: only `faults` pays its load time
    seqs = np.random.SeedSequence(fault_model.rng_seed).spawn(num_devices)
    rngs = [np.random.default_rng(s) for s in seqs]

    def device_times(rng):
        t = 0.0
        while True:
            t += fault_model.mtbf_per_device * rng.standard_exponential()
            yield t

    return heapq.merge(*(device_times(r) for r in rngs))


def inject_faults(plan: ParallelPlan, domain: TrustedDomain,
                  fault_model: FaultModel, checkpoint_interval: float,
                  iterations: int = DEFAULT_ITERATIONS,
                  failure_times: Optional[list[float]] = None) -> FaultReport:
    """Replay the run against seeded failures with checkpoint/restart recovery.

    A failure rolls progress back to the last checkpoint and charges a state
    reload; checkpoints are written at iteration boundaries once the caller's
    ``checkpoint_interval`` (> 0 seconds) has elapsed since the previous one.
    ``failure_times`` overrides the random stream (used for hand-built traces).
    """
    base, prof = _simulate(plan, domain, iterations)
    if base.oom:
        raise OutOfMemoryError("out of memory on " + ", ".join(base.oom_devices))
    if checkpoint_interval <= 0:
        raise SimulationError("checkpoint_interval must be > 0")

    shard, write_time = checkpoint_cost(plan, domain, fault_model)
    reload_time_each = shard / fault_model.recovery_reload_bandwidth
    base_len, sync_len = prof.base_len, prof.sync_len
    k = plan.job.dp_sync_period

    if failure_times is not None:
        stream = iter(list(failure_times) + [float("inf")])
    else:
        stream = _failure_stream(fault_model, len(plan.participants))
    next_fail = next(stream)

    wall = 0.0
    it = 0
    ckpt_iter = 0
    last_ckpt_wall = 0.0
    failures = 0
    executed = 0
    rework = 0.0
    reload_total = 0.0
    ckpt_total = 0.0
    ckpt_writes = 0

    while it < iterations:
        dt = base_len + (sync_len if (it + 1) % k == 0 else 0.0)
        if wall + dt > next_fail:
            # Work since the last checkpoint is lost.
            lost = next_fail - last_ckpt_wall
            rework += lost
            wall = next_fail + reload_time_each
            reload_total += reload_time_each
            it = ckpt_iter
            last_ckpt_wall = wall
            failures += 1
            next_fail = next(stream)
            continue
        wall += dt
        it += 1
        executed += 1
        if it < iterations and wall - last_ckpt_wall >= checkpoint_interval:
            wall += write_time
            ckpt_total += write_time
            ckpt_writes += 1
            last_ckpt_wall = wall
            ckpt_iter = it

    samples = iterations * plan.job.global_batch
    per_iter_energy = base.total_energy / base.iterations_simulated
    overhead_power = sum_in_order(
        domain.device(p).power_idle + domain.device(p).power_net
        for p in plan.participants)
    energy = per_iter_energy * executed + overhead_power * (reload_total + ckpt_total)
    return FaultReport(
        fault_free=base, wall_time=wall,
        goodput_samples_per_s=samples / wall, failures=failures,
        executed_iterations=executed, completed_iterations=iterations,
        checkpoint_writes=ckpt_writes, rework_time=rework,
        reload_time=reload_total, checkpoint_time=ckpt_total,
        energy_estimate=energy, checkpoint_interval=checkpoint_interval,
        seed=fault_model.rng_seed)


TRACE_HEADER = "time\tdevice\tkind\tduration\tbytes\n"


def _trace_shapes(plan: ParallelPlan, prof: _IterationProfile):
    """The (offset, device, kind, duration, bytes) rows of each iteration
    shape, keyed by whether it syncs, ordered by (offset, device).

    The rows are sorted once; the sort is stable, so rows that tie keep
    their template order.
    """
    rows = sorted(_trace_rows(prof, plan.participants), key=itemgetter(0, 1))
    return {True: [r[:5] for r in rows],
            False: [r[:5] for r in rows if not r[5]]}


def write_trace(plan: ParallelPlan, domain: TrustedDomain, iterations: int,
                path) -> SimulationResult:
    """Simulate the run and write its flat tab-delimited trace table: time,
    device, kind, duration, bytes.  Returns :func:`simulate`'s result.

    One row per device and phase of each of the ``iterations`` iterations,
    with the syncs on the iterations that :func:`simulate` totals.  An
    out-of-memory run simulates none, so its table is the header alone.
    The rows of a shape are grouped by start offset: each row's tail after
    the time is formatted once per run, each group's start time once per
    iteration, and each iteration is one ``writelines`` call.
    """
    result, prof = _simulate(plan, domain, iterations)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(TRACE_HEADER)
        if result.oom:
            return result
        shapes = {}
        for sync, rows in _trace_shapes(plan, prof).items():
            groups = [(offset, [f"\t{p}\t{kind}\t{d:.9f}\t{b:.1f}\n"
                                for _, p, kind, d, b in group])
                      for offset, group in groupby(rows, key=itemgetter(0))]
            length = prof.base_len + (prof.sync_len if sync else 0.0)
            shapes[sync] = groups, length
        k = plan.job.dp_sync_period
        t0 = 0.0
        for g in range(iterations):
            groups, length = shapes[(g + 1) % k == 0]
            lines = []
            for offset, tails in groups:
                start = f"{t0 + offset:.9f}"
                lines.append(start + start.join(tails))
            fh.writelines(lines)
            t0 += length
    return result
