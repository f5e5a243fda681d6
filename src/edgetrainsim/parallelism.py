"""The four parallelism strategies as explicit plan structures.

A plan is its kind, its ordered participants and one share each: the whole
units of work that participant holds.  Data parallelism shares the global
batch's samples and sequence parallelism the sequence's positions, each in
proportion to throughput; tensor parallelism shares the attention heads
equally; pipeline parallelism shares the blocks, in pipeline order, as
contiguous stages.  A single-device plan holds one share, ``(1,)``.  Only
the builders make plans, so every plan is what its builder makes from its
kind, participants and, for PP, per-stage block counts.  Every builder first
applies the one participant rule: at least one participant, each listed
once, each a device of the domain; each violation is one ``PlanError``.
Plans never mutate the spec or job they reference; construction is pure.

One per-iteration template, :func:`comm_template`, defines every collective
a plan runs; the simulator derives timing, byte counts and the trace from it.

Collective payload sizes follow the job's byte constants: gradient
synchronization moves ``param_bytes`` bytes per parameter, activation tensors
move ``2 * activation_bytes_factor`` bytes per element, so the fp32 defaults
reproduce the familiar 4-byte payload arithmetic.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import NamedTuple

from .devices import TrustedDomain
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
class ParallelPlan:
    """A plan kind, its ordered participants and one share each.

    ``shares[i]`` is participant i's whole units of work: batch samples (dp),
    sequence positions (sp), attention heads (tp) or blocks, in pipeline
    order (pp).  A single-device plan has ``(1,)``.
    """
    kind: str
    participants: tuple[str, ...]
    shares: tuple[int, ...]
    job: TrainingJob
    spec: TransformerSpec


class CommPhase(NamedTuple):
    """One template entry: ``count`` runs of ``op`` among ``participants``."""
    op: str
    payload_bytes: float
    participants: tuple[str, ...]
    count: int
    sync_only: bool = False  # runs only on gradient-sync iterations


class MemoryCheck(NamedTuple):
    """One device's required bytes, whether they fit in its usable memory,
    and their training-state and activation parts."""
    required_bytes: float
    fits: bool
    state_bytes: float
    activation_bytes: float


def sum_in_order(values) -> float:
    """Sum floats strictly left to right, starting from 0.0.

    Since Python 3.12, ``sum()`` of floats uses compensated summation, so its
    totals can differ in the last bit from 3.10 and 3.11.  Summing in order
    keeps every output byte the same on each supported Python.
    """
    return functools.reduce(operator.add, values, 0.0)


def largest_remainder_split(total: int, weights: list[float]) -> list[int]:
    """Split ``total`` integer units proportionally to ``weights``.

    Largest-remainder rounding; ties go to the lower index.  Every share is
    at least 1 (shortfall is taken from the largest shares).
    """
    n = len(weights)
    if n == 0:
        raise PlanError("cannot split across zero participants")
    if total < n:
        raise PlanError(f"cannot give each of {n} participants at least 1 "
                        f"out of {total}")
    wsum = sum_in_order(weights)
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
    # Near 2**53 a float quotient can round up to the next whole number, so
    # the floors overshoot: take the excess back from the smallest
    # remainders, in the reverse of the hand-out order.
    for i in range(-leftover):
        shares[order[-1 - i % n]] -= 1
    # Give every share at least 1 by stealing from the currently largest;
    # total >= n, so while a share is 0 another holds at least 2.
    for i in range(n):
        while shares[i] < 1:
            donor = max(range(n), key=lambda j: (shares[j], -j))
            shares[donor] -= 1
            shares[i] += 1
    return shares


def activation_tensor_bytes(spec: TransformerSpec, job: TrainingJob) -> float:
    """Wire size of one micro-batch activation tensor (m x s x h elements)."""
    return job.activation_elem_bytes * job.micro_batch * job.seq_len * spec.hidden_size


def grad_sync_bytes(spec: TransformerSpec, job: TrainingJob) -> float:
    """Payload of one full-model gradient synchronization."""
    return job.param_bytes * param_count(spec)


def stage_transfer(spec: TransformerSpec, job: TrainingJob, a: str,
                   b: str) -> CommPhase:
    """Pipeline boundary ``a`` -> ``b``: each micro-batch crosses it twice."""
    return CommPhase(OP_P2P, activation_tensor_bytes(spec, job), (a, b),
                     2 * job.micro_batch_count)


def _participants(domain: TrustedDomain, participants) -> tuple[str, ...]:
    """``participants`` as a tuple, under the one participant rule of every
    plan: at least one, each listed once, each a device of ``domain``."""
    participants = tuple(participants)
    if not participants:
        raise PlanError("a plan needs at least one participant")
    if len(set(participants)) != len(participants):
        raise PlanError("participants must be distinct")
    ids = domain._by_id
    for p in participants:
        if p not in ids:
            raise PlanError(f"participant {p!r} is not in the domain")
    return participants


def make_single_plan(domain: TrustedDomain, spec: TransformerSpec,
                     job: TrainingJob, participant: str) -> ParallelPlan:
    return ParallelPlan(KIND_SINGLE, _participants(domain, (participant,)),
                        (1,), job, spec)


def _split_plan(kind: str, what: str, total: int, domain: TrustedDomain,
                spec: TransformerSpec, job: TrainingJob,
                participants: tuple[str, ...]) -> ParallelPlan:
    """A ``kind`` plan sharing ``total`` units of ``what`` by throughput."""
    if total < len(participants):
        raise PlanError(f"{what} {total} is smaller than the participant "
                        f"count {len(participants)}")
    throughput = domain._throughput
    shares = largest_remainder_split(
        total, [throughput[p] for p in participants])
    return ParallelPlan(kind, participants, tuple(shares), job, spec)


def make_dp_plan(domain: TrustedDomain, spec: TransformerSpec, job: TrainingJob,
                 participants) -> ParallelPlan:
    return _split_plan(KIND_DP, "global batch", job.global_batch, domain, spec,
                       job, _participants(domain, participants))


def make_sp_plan(domain: TrustedDomain, spec: TransformerSpec, job: TrainingJob,
                 participants) -> ParallelPlan:
    return _split_plan(KIND_SP, "sequence length", job.seq_len, domain, spec,
                       job, _participants(domain, participants))


def make_tp_plan(domain: TrustedDomain, spec: TransformerSpec, job: TrainingJob,
                 participants) -> ParallelPlan:
    participants = _participants(domain, participants)
    n = len(participants)
    if spec.num_heads % n != 0:
        raise PlanError(
            f"tensor parallelism requires the participant count ({n}) to divide "
            f"the head count ({spec.num_heads})")
    return ParallelPlan(KIND_TP, participants, (spec.num_heads // n,) * n,
                        job, spec)


def make_pp_plan(domain: TrustedDomain, spec: TransformerSpec, job: TrainingJob,
                 ordered_participants, blocks=None) -> ParallelPlan:
    participants = _participants(domain, ordered_participants)
    n = len(participants)
    if spec.num_blocks < n:
        raise PlanError(f"{spec.num_blocks} blocks cannot fill {n} pipeline stages")
    # near-equal contiguous stages, earlier stages larger
    blocks = tuple(largest_remainder_split(spec.num_blocks, [1.0] * n)
                   if blocks is None else blocks)
    if (len(blocks) != n or min(blocks, default=0) < 1
            or sum(blocks) != spec.num_blocks):
        raise PlanError(f"a pipeline of {n} stages needs one block count "
                        f">= 1 per stage, summing to {spec.num_blocks}")
    return ParallelPlan(KIND_PP, participants, blocks, job, spec)


def make_plan(kind: str, domain: TrustedDomain, spec: TransformerSpec,
              job: TrainingJob, participants, blocks=None) -> ParallelPlan:
    """Build a ``kind`` plan; ``blocks`` (PP only) are the per-stage block
    counts, near-equal by default."""
    participants = tuple(participants)
    if kind == KIND_SINGLE:
        if len(participants) != 1:
            raise PlanError("a single-device plan has exactly one participant")
        return make_single_plan(domain, spec, job, participants[0])
    if kind == KIND_DP:
        return make_dp_plan(domain, spec, job, participants)
    if kind == KIND_SP:
        return make_sp_plan(domain, spec, job, participants)
    if kind == KIND_TP:
        return make_tp_plan(domain, spec, job, participants)
    if kind == KIND_PP:
        return make_pp_plan(domain, spec, job, participants, blocks)
    raise PlanError(f"unknown plan kind {kind!r}")


def comm_template(plan: ParallelPlan) -> list[CommPhase]:
    """Every collective of one iteration, in the order it runs.

    Per-block collectives run once per micro-batch pass: their payloads are
    micro-batch sized, and one iteration runs M = B/m passes over L blocks.
    The gradient AllReduce runs on sync iterations only.  A pipeline runs
    each boundary's :func:`stage_transfer`, as the planner prices its order.
    """
    spec, job = plan.spec, plan.job
    parts = plan.participants
    if len(parts) == 1:
        return []
    if plan.kind == KIND_PP:
        return [stage_transfer(spec, job, a, b)
                for a, b in zip(parts, parts[1:])]
    act = activation_tensor_bytes(spec, job)
    m_count = job.micro_batch_count
    if plan.kind == KIND_TP:
        # forward attention and MLP, then their backward passes
        return [CommPhase(OP_ALLREDUCE, act, parts,
                          4 * m_count * spec.num_blocks)]
    grad = CommPhase(OP_ALLREDUCE, grad_sync_bytes(spec, job), parts, 1,
                     sync_only=True)
    if plan.kind == KIND_DP:
        return [grad]
    per_block = m_count * spec.num_blocks  # KIND_SP
    return [CommPhase(OP_ALLGATHER, act, parts, per_block),
            CommPhase(OP_ALLREDUCE, act, parts, per_block), grad]


def pp_stage_memory(spec: TransformerSpec, job: TrainingJob, blocks,
                    num_stages: int) -> list[tuple[float, float]]:
    """(state, activation) bytes of each pipeline stage of ``blocks`` blocks.

    A stage holds its share of the training state and the activations of
    every micro-batch in flight, at most one per stage.
    """
    state = state_bytes(spec, job)
    act = activation_bytes_per_block(spec, job)
    depth = min(job.micro_batch_count, num_stages)
    return [(state * b / spec.num_blocks, b * act * depth) for b in blocks]


def participant_memory(plan: ParallelPlan) -> list[tuple[float, float]]:
    """(state, activation) bytes of each participant, in order: a pipeline
    stage's by :func:`pp_stage_memory`, else the whole model's state and
    activations, each split n ways under TP.  The one memory formula that
    :func:`check_memory` and the simulator read."""
    spec, job = plan.spec, plan.job
    if plan.kind == KIND_PP:
        return pp_stage_memory(spec, job, plan.shares, len(plan.shares))
    state = state_bytes(spec, job)
    act = spec.num_blocks * activation_bytes_per_block(spec, job)
    n = len(plan.participants)
    if plan.kind == KIND_TP:
        state, act = state / n, act / n
    return [(state, act)] * n


def check_memory(plan: ParallelPlan, domain: TrustedDomain) -> dict[str, MemoryCheck]:
    """Per-device required bytes and whether they fit in usable memory."""
    usable, checks = domain._usable_memory, {}
    for p, (state, act) in zip(plan.participants, participant_memory(plan)):
        required = state + act
        checks[p] = MemoryCheck(required, required <= usable[p], state, act)
    return checks
