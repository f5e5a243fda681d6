"""Deterministic simulation of a training run under a parallel plan.

The engine advances one iteration at a time.  Within an iteration the model
is synchronous: compute segments run in lockstep between collective barriers,
so a device's timeline always closes as compute + comm + idle = makespan.

Every collective comes from the plan's per-iteration template
(:func:`~edgetrainsim.parallelism.comm_template`).  One pass over it, per
profile, gives each device's comm seconds, ``comm_bytes_by_op`` and the
trace records; ``comm_bytes_by_op`` counts payload bytes (count x payload),
not the bytes a ring puts on the wire.  Collectives use ring algorithms
under an alpha-beta link model.  Barrier kinds take the slowest device's
compute plus every collective phase in turn.  Pipeline iterations follow
the fill-drain schedule: (M + S - 1) times the bottleneck stage's
per-micro-batch compute plus the slowest boundary transfer.  Compute and
communication do not overlap except through the pipeline schedule itself.

Energy integrates a three-state power model per device: idle power for the
whole makespan, the busy-minus-idle delta while computing, and the network
power adder while transmitting or receiving.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .devices import (FaultModel, NetworkModel, TrustedDomain, busy_power,
                      effective_throughput)
from .parallelism import (KIND_DP, KIND_PP, KIND_SINGLE, KIND_TP,
                          OP_ALLGATHER, OP_ALLREDUCE, OP_P2P, ParallelPlan,
                          check_memory, comm_template)
from .workload import flops_per_iteration

DEFAULT_ITERATIONS = 20
DEFAULT_WARMUP = 2
CHECKPOINT_INTERVAL_CAP = 1e8  # seconds; effectively disables checkpointing


class SimulationError(ValueError):
    pass


@dataclass
class DeviceUsage:
    peak_mem: float = 0.0
    compute_time: float = 0.0
    comm_time: float = 0.0
    idle_time: float = 0.0
    energy: float = 0.0


@dataclass
class TraceRecord:
    time: float
    device: str
    kind: str
    duration: float
    bytes: float


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
    trace: Optional[list[TraceRecord]] = None

    @property
    def total_energy(self) -> float:
        return sum(u.energy for u in self.per_device.values())

    @property
    def total_comm_bytes(self) -> float:
        return sum(self.comm_bytes_by_op.values())


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
    """Per-device seconds and payload bytes by op of some template entries.

    Per-run times are summed within each group of equal count and multiplied
    by the count once: count * (t_1 + t_2), never count * t_1 + count * t_2.
    """
    runs: dict[tuple[str, int], float] = {}
    counts: dict[tuple[str, float], int] = {}
    for e, t in phases:
        for p in e.participants:
            runs[p, e.count] = runs.get((p, e.count), 0.0) + t
        counts[e.op, e.payload_bytes] = (counts.get((e.op, e.payload_bytes), 0)
                                         + e.count)
    seconds = dict.fromkeys(parts, 0.0)
    for (p, c), t in runs.items():
        seconds[p] += c * t
    by_op: dict[str, float] = {}
    for (op, payload), c in counts.items():
        by_op[op] = by_op.get(op, 0.0) + c * payload
    return seconds, by_op


def _profile_iteration(plan: ParallelPlan, domain: TrustedDomain) -> _IterationProfile:
    spec, job = plan.spec, plan.job
    parts = plan.participants
    flops = flops_per_iteration(spec, job)
    thr = {p: effective_throughput(domain.device(p), domain.mode) for p in parts}
    for p, t in thr.items():
        if t <= 0:
            raise SimulationError(f"device {p} has zero throughput in mode "
                                  f"{domain.mode!r}")
    m_count = job.micro_batch_count

    if plan.kind == KIND_PP:
        l = spec.num_blocks
        per_mb = {p: flops * (end - start) / l / m_count / thr[p]
                  for p, (start, end) in plan.partition.stages}
        compute = {p: per_mb[p] * m_count for p in parts}
    elif plan.kind == KIND_TP:
        compute = {p: flops / len(parts) / thr[p] for p in parts}
    else:  # single, dp and sp split the batch or the sequence by weight
        sizes = ((1,) if plan.kind == KIND_SINGLE else
                 plan.partition.shard_sizes if plan.kind == KIND_DP else
                 plan.partition.subseq_lengths)
        total = sum(sizes)
        compute = {p: flops * (s / total) / thr[p] for p, s in zip(parts, sizes)}

    phases = [(e, collective_time(e.op, e.payload_bytes, e.participants,
                                  domain.network))
              for e in comm_template(plan)]
    base_comm, base_bytes = _fold([x for x in phases if not x[0].sync_only], parts)
    sync_comm, sync_bytes = _fold([x for x in phases if x[0].sync_only], parts)
    if plan.kind == KIND_PP:
        transfer = max((t for _, t in phases), default=0.0)
        base_len = ((m_count + len(plan.partition.stages) - 1)
                    * (max(per_mb.values()) + transfer))
    else:
        # Every participant joins every collective, one phase after another.
        base_len = max(compute.values()) + max(base_comm.values())
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


def iteration_times(plan: ParallelPlan, domain: TrustedDomain,
                    iterations: int, warmup: int = 0) -> list[float]:
    """Wall time of each simulated iteration (syncs land on period boundaries)."""
    prof = _profile_iteration(plan, domain)
    k = plan.job.dp_sync_period
    return [prof.base_len + (prof.sync_len if (g + 1) % k == 0 else 0.0)
            for g in range(warmup, warmup + iterations)]


def simulate(plan: ParallelPlan, domain: TrustedDomain,
             iterations: int = DEFAULT_ITERATIONS, fault_model=None,
             warmup: int = DEFAULT_WARMUP,
             record_trace: bool = False) -> SimulationResult:
    """Run a fault-free simulation and report per-sample and per-device metrics.

    ``fault_model`` is accepted for interface symmetry and ignored: the
    fault-free result never depends on it.  Use :func:`inject_faults` for
    failure/recovery accounting.  ``warmup`` iterations run before metering
    starts and are excluded from every reported metric.
    """
    del fault_model
    if iterations < 1:
        raise SimulationError("iterations must be >= 1")
    for p in plan.participants:
        domain.device(p)  # raises KeyError for unknown ids

    mem = check_memory(plan, domain)
    oom_devices = tuple(p for p, c in mem.items() if not c.fits)
    usage = {p: DeviceUsage(peak_mem=mem[p].required_bytes)
             for p in plan.participants}
    if oom_devices:
        return SimulationResult(
            plan_kind=plan.kind, iterations_simulated=0, samples_processed=0,
            makespan=0.0, latency_per_sample=None, energy_per_sample=None,
            per_device=usage, comm_bytes_by_op={}, oom=True,
            oom_devices=oom_devices, trace=[] if record_trace else None)

    prof = _profile_iteration(plan, domain)
    k = plan.job.dp_sync_period
    parts = plan.participants
    makespan = 0.0
    comm_bytes: dict[str, float] = {}
    trace: Optional[list[TraceRecord]] = [] if record_trace else None
    rows = _trace_rows(prof, parts) if record_trace else ()

    for g in range(warmup, warmup + iterations):
        sync = (g + 1) % k == 0
        dur = prof.base_len + (prof.sync_len if sync else 0.0)
        t0 = makespan
        for p in parts:
            u = usage[p]
            u.compute_time += prof.compute[p]
            comm = prof.base_comm[p] + (prof.sync_comm[p] if sync else 0.0)
            u.comm_time += comm
            u.idle_time += dur - prof.compute[p] - comm
        for op, b in prof.base_bytes.items():
            comm_bytes[op] = comm_bytes.get(op, 0.0) + b
        if sync:
            for op, b in prof.sync_bytes.items():
                comm_bytes[op] = comm_bytes.get(op, 0.0) + b
        if record_trace:
            trace.extend(TraceRecord(t0 + offset, p, kind, d, b)
                         for offset, p, kind, d, b, sync_only in rows
                         if sync or not sync_only)
        makespan += dur

    for p in parts:
        device = domain.device(p)
        u = usage[p]
        u.energy = (device.power_idle * makespan
                    + (busy_power(device, domain.mode) - device.power_idle)
                    * u.compute_time
                    + device.power_net * u.comm_time)

    samples = iterations * plan.job.global_batch
    if record_trace:
        trace.sort(key=lambda r: (r.time, r.device))
    return SimulationResult(
        plan_kind=plan.kind, iterations_simulated=iterations,
        samples_processed=samples, makespan=makespan,
        latency_per_sample=makespan / samples,
        energy_per_sample=sum(u.energy for u in usage.values()) / samples,
        per_device=usage, comm_bytes_by_op=comm_bytes, trace=trace)


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
    seqs = np.random.SeedSequence(fault_model.rng_seed).spawn(num_devices)
    rngs = [np.random.default_rng(s) for s in seqs]

    def device_times(rng):
        t = 0.0
        while True:
            t += fault_model.mtbf_per_device * rng.standard_exponential()
            yield t

    return heapq.merge(*(device_times(r) for r in rngs))


def inject_faults(plan: ParallelPlan, domain: TrustedDomain,
                  fault_model: FaultModel, iterations: int = DEFAULT_ITERATIONS,
                  checkpoint_interval: Optional[float] = None,
                  failure_times: Optional[list[float]] = None) -> FaultReport:
    """Replay the run against seeded failures with checkpoint/restart recovery.

    A failure rolls progress back to the last checkpoint and charges a state
    reload; checkpoints are written at iteration boundaries once
    ``checkpoint_interval`` seconds have elapsed since the previous one.
    ``failure_times`` overrides the random stream (used for hand-built traces).
    """
    base = simulate(plan, domain, iterations, warmup=0)
    if base.oom:
        raise SimulationError("cannot inject faults into an infeasible plan")
    if checkpoint_interval is None:
        from .scheduler import plan_checkpointing
        checkpoint_interval = plan_checkpointing(plan, domain, fault_model)
    if checkpoint_interval <= 0:
        raise SimulationError("checkpoint_interval must be > 0")

    mem = check_memory(plan, domain)
    shard = max(c.state_bytes for c in mem.values())
    write_time = shard / fault_model.checkpoint_write_bandwidth
    reload_time_each = shard / fault_model.recovery_reload_bandwidth
    times = iteration_times(plan, domain, iterations)

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
        dt = times[it]
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
    overhead_power = sum(domain.device(p).power_idle + domain.device(p).power_net
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


def write_trace(trace: list[TraceRecord], path) -> None:
    """Flat tab-delimited trace table: time, device, kind, duration, bytes."""
    with open(path, "w") as fh:
        fh.write("time\tdevice\tkind\tduration\tbytes\n")
        for r in trace:
            fh.write(f"{r.time:.9f}\t{r.device}\t{r.kind}\t"
                     f"{r.duration:.9f}\t{r.bytes:.1f}\n")
