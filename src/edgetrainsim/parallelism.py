"""The four parallelism strategies as explicit plan structures.

A plan binds a workload partition to an ordered set of devices.  Plans never
mutate the spec or job they reference; construction is pure.

One per-iteration template, :func:`comm_template`, defines every collective
a plan runs; the simulator derives timing, byte counts and the trace from it.

Collective payload sizes follow the job's byte constants: gradient
synchronization moves ``param_bytes`` bytes per parameter, activation tensors
move ``2 * activation_bytes_factor`` bytes per element, so the fp32 defaults
reproduce the familiar 4-byte payload arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

from .devices import TrustedDomain, effective_throughput
from .workload import (TransformerSpec, TrainingJob, activation_bytes_per_block,
                       param_count, state_bytes)

KIND_SINGLE = "single"
KIND_DP = "dp"
KIND_SP = "sp"
KIND_TP = "tp"
KIND_PP = "pp"

# Deterministic preference order used for tie-breaking between equal plans.
KIND_PREFERENCE = (KIND_DP, KIND_PP, KIND_TP, KIND_SP)
ALL_KINDS = (KIND_SINGLE, KIND_DP, KIND_SP, KIND_TP, KIND_PP)

OP_ALLREDUCE = "allreduce"
OP_ALLGATHER = "allgather"
OP_P2P = "p2p"


class PlanError(ValueError):
    """A plan cannot be constructed from the given inputs."""


@dataclass(frozen=True)
class DataParallelPartition:
    shard_sizes: tuple[int, ...]
    sync_period: int


@dataclass(frozen=True)
class SequenceParallelPartition:
    subseq_lengths: tuple[int, ...]


@dataclass(frozen=True)
class TensorParallelPartition:
    heads_per_device: tuple[int, ...]
    hidden_slice_per_device: tuple[int, ...]


@dataclass(frozen=True)
class PipelineParallelPartition:
    stages: tuple[tuple[str, tuple[int, int]], ...]  # (device, [start, end))
    micro_batch_count: int


Partition = Union[None, DataParallelPartition, SequenceParallelPartition,
                  TensorParallelPartition, PipelineParallelPartition]


@dataclass(frozen=True)
class ParallelPlan:
    kind: str
    participants: tuple[str, ...]
    partition: Partition
    job: TrainingJob
    spec: TransformerSpec

    def __post_init__(self):
        if not self.participants:
            raise PlanError("a plan needs at least one participant")
        if len(set(self.participants)) != len(self.participants):
            raise PlanError("participants must be distinct")
        if self.kind == KIND_SINGLE and len(self.participants) != 1:
            raise PlanError("a single-device plan has exactly one participant")
        if self.kind not in ALL_KINDS:
            raise PlanError(f"unknown plan kind {self.kind!r}")


class CommPhase(NamedTuple):
    """One template entry: ``count`` runs of ``op`` among ``participants``."""
    phase: str
    op: str
    payload_bytes: float
    participants: tuple[str, ...]
    count: int
    sync_only: bool = False  # runs only on gradient-sync iterations


@dataclass(frozen=True)
class MemoryCheck:
    required_bytes: float
    fits: bool
    state_bytes: float
    activation_bytes: float


def largest_remainder_split(total: int, weights: list[float],
                            minimum: int = 1) -> list[int]:
    """Split ``total`` integer units proportionally to ``weights``.

    Largest-remainder rounding; ties go to the lower index.  Every share is
    at least ``minimum`` (shortfall is taken from the largest shares).
    """
    n = len(weights)
    if n == 0:
        raise PlanError("cannot split across zero participants")
    if total < n * minimum:
        raise PlanError(f"cannot give each of {n} participants at least {minimum} "
                        f"out of {total}")
    wsum = sum(weights)
    if wsum <= 0:
        raise PlanError("weights must sum to a positive value")
    raw = [total * w / wsum for w in weights]
    shares = [int(r) for r in raw]
    remainders = [r - s for r, s in zip(raw, shares)]
    # Hand out the leftover units by descending remainder, lower index first.
    order = sorted(range(n), key=lambda i: (-remainders[i], i))
    leftover = total - sum(shares)
    for i in range(leftover):
        shares[order[i % n]] += 1
    # Enforce the minimum by stealing from the currently largest share.
    for i in range(n):
        while shares[i] < minimum:
            donor = max(range(n), key=lambda j: (shares[j], -j))
            if shares[donor] <= minimum:
                raise PlanError("cannot satisfy the per-participant minimum")
            shares[donor] -= 1
            shares[i] += 1
    return shares


def _throughputs(domain: TrustedDomain, participants) -> list[float]:
    return [effective_throughput(domain.device(p), domain.mode) for p in participants]


def activation_tensor_bytes(spec: TransformerSpec, job: TrainingJob) -> float:
    """Wire size of one micro-batch activation tensor (m x s x h elements)."""
    return job.activation_elem_bytes * job.micro_batch * job.seq_len * spec.hidden_size


def grad_sync_bytes(spec: TransformerSpec, job: TrainingJob) -> float:
    """Payload of one full-model gradient synchronization."""
    return job.param_bytes * param_count(spec)


def make_single_plan(domain: TrustedDomain, spec: TransformerSpec,
                     job: TrainingJob, participant: str) -> ParallelPlan:
    domain.device(participant)  # raises for unknown ids
    return ParallelPlan(KIND_SINGLE, (participant,), None, job, spec)


def make_dp_plan(domain: TrustedDomain, spec: TransformerSpec, job: TrainingJob,
                 participants) -> ParallelPlan:
    participants = tuple(participants)
    if not participants:
        raise PlanError("data parallelism needs at least one participant")
    if job.global_batch < len(participants):
        raise PlanError(f"global batch {job.global_batch} is smaller than the "
                        f"participant count {len(participants)}")
    shards = largest_remainder_split(job.global_batch,
                                     _throughputs(domain, participants))
    partition = DataParallelPartition(tuple(shards), job.dp_sync_period)
    return ParallelPlan(KIND_DP, participants, partition, job, spec)


def make_sp_plan(domain: TrustedDomain, spec: TransformerSpec, job: TrainingJob,
                 participants) -> ParallelPlan:
    participants = tuple(participants)
    if job.seq_len < len(participants):
        raise PlanError(f"sequence length {job.seq_len} is smaller than the "
                        f"participant count {len(participants)}")
    lengths = largest_remainder_split(job.seq_len,
                                      _throughputs(domain, participants))
    return ParallelPlan(KIND_SP, participants,
                        SequenceParallelPartition(tuple(lengths)), job, spec)


def make_tp_plan(domain: TrustedDomain, spec: TransformerSpec, job: TrainingJob,
                 participants) -> ParallelPlan:
    participants = tuple(participants)
    n = len(participants)
    if n == 0:
        raise PlanError("tensor parallelism needs at least one participant")
    mlp_hidden = spec.mlp_ratio * spec.hidden_size
    if spec.num_heads % n != 0 or mlp_hidden % n != 0:
        raise PlanError(
            f"tensor parallelism requires the participant count ({n}) to divide "
            f"both the head count ({spec.num_heads}) and the MLP hidden size "
            f"({mlp_hidden})")
    for p in participants:
        domain.device(p)
    partition = TensorParallelPartition((spec.num_heads // n,) * n,
                                        (mlp_hidden // n,) * n)
    return ParallelPlan(KIND_TP, participants, partition, job, spec)


def uniform_stage_ranges(num_blocks: int, num_stages: int) -> list[tuple[int, int]]:
    """Contiguous near-equal split of [0, num_blocks); earlier stages larger."""
    counts = largest_remainder_split(num_blocks, [1.0] * num_stages)
    ranges, start = [], 0
    for c in counts:
        ranges.append((start, start + c))
        start += c
    return ranges


def make_pp_plan(domain: TrustedDomain, spec: TransformerSpec, job: TrainingJob,
                 ordered_participants,
                 stage_ranges: Optional[list[tuple[int, int]]] = None) -> ParallelPlan:
    participants = tuple(ordered_participants)
    n = len(participants)
    if spec.num_blocks < n:
        raise PlanError(f"{spec.num_blocks} blocks cannot fill {n} pipeline stages")
    for p in participants:
        domain.device(p)
    if stage_ranges is None:
        stage_ranges = uniform_stage_ranges(spec.num_blocks, n)
    stage_ranges = [tuple(r) for r in stage_ranges]
    if len(stage_ranges) != n:
        raise PlanError("stage_ranges must match the participant count")
    expected_start = 0
    for start, end in stage_ranges:
        if start != expected_start or end <= start:
            raise PlanError("stage ranges must tile the block range contiguously")
        expected_start = end
    if expected_start != spec.num_blocks:
        raise PlanError("stage ranges must cover every block")
    stages = tuple((p, r) for p, r in zip(participants, stage_ranges))
    partition = PipelineParallelPartition(stages, job.micro_batch_count)
    return ParallelPlan(KIND_PP, participants, partition, job, spec)


def comm_template(plan: ParallelPlan) -> list[CommPhase]:
    """Every collective of one iteration, in the order it runs.

    Per-block collectives run once per micro-batch pass: their payloads are
    micro-batch sized, and one iteration runs M = B/m passes over L blocks.
    The gradient AllReduce runs on sync iterations only.
    """
    spec, job = plan.spec, plan.job
    parts = plan.participants
    if plan.kind == KIND_SINGLE or len(parts) == 1:
        return []
    act = activation_tensor_bytes(spec, job)
    m_count = job.micro_batch_count
    if plan.kind == KIND_TP:
        # forward attention and MLP, then their backward passes
        return [CommPhase("block-reduce", OP_ALLREDUCE, act, parts,
                          4 * m_count * spec.num_blocks)]
    if plan.kind == KIND_PP:
        # every micro-batch crosses each boundary forward and backward
        return [CommPhase("stage-transfer", OP_P2P, act, (a, b), 2 * m_count)
                for a, b in zip(parts, parts[1:])]
    grad = CommPhase("gradient-sync", OP_ALLREDUCE, grad_sync_bytes(spec, job),
                     parts, 1, sync_only=True)
    if plan.kind == KIND_DP:
        return [grad]
    per_block = m_count * spec.num_blocks  # KIND_SP
    return [CommPhase("block-gather", OP_ALLGATHER, act, parts, per_block),
            CommPhase("block-reduce", OP_ALLREDUCE, act, parts, per_block),
            grad]


def pp_stage_memory(spec: TransformerSpec, job: TrainingJob, blocks,
                    num_stages: int, micro_batches: int) -> list[tuple[float, float]]:
    """(state, activation) bytes of each pipeline stage of ``blocks`` blocks.

    A stage holds its share of the training state and the activations of
    every micro-batch in flight, at most one per stage.
    """
    state = state_bytes(spec, job)
    act = activation_bytes_per_block(spec, job.micro_batch, job)
    depth = min(micro_batches, num_stages)
    l = max(spec.num_blocks, 1)
    return [(state * b / l, b * act * depth) for b in blocks]


def check_memory(plan: ParallelPlan, domain: TrustedDomain) -> dict[str, MemoryCheck]:
    """Per-device required bytes and whether they fit in usable memory."""
    spec, job = plan.spec, plan.job
    if plan.kind == KIND_PP:
        stages = plan.partition.stages
        blocks = [end - start for _, (start, end) in stages]
        need = pp_stage_memory(spec, job, blocks, len(stages),
                               plan.partition.micro_batch_count)
        return {p: _check_one(domain, p, *req)
                for (p, _), req in zip(stages, need)}
    state = state_bytes(spec, job)
    act = spec.num_blocks * activation_bytes_per_block(spec, job.micro_batch, job)
    if plan.kind == KIND_TP:
        n = len(plan.participants)
        state, act = state / n, act / n
    return {p: _check_one(domain, p, state, act) for p in plan.participants}


def _check_one(domain: TrustedDomain, device_id: str, req_state: float,
               req_act: float) -> MemoryCheck:
    device = domain.device(device_id)
    required = req_state + req_act
    return MemoryCheck(required_bytes=required,
                       fits=required <= device.usable_memory,
                       state_bytes=req_state, activation_bytes=req_act)
