"""Orchestration decisions: participants, parallelism, topology, checkpoints.

Search is exhaustive within documented bounds (device subsets up to 12,
pipeline permutations up to 8) with greedy fallbacks beyond; all tie-breaks
are deterministic so repeated runs reproduce bit-identical strategies.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

from .devices import (DEFAULT_FAULT_MODEL, FaultModel, TrustedDomain,
                      effective_throughput)
from .parallelism import (KIND_DP, KIND_PP, KIND_SP, KIND_TP,
                          KIND_PREFERENCE, ParallelPlan, PlanError,
                          check_memory, make_dp_plan, make_pp_plan,
                          make_single_plan, make_sp_plan, make_tp_plan,
                          pp_stage_memory)
from .simengine import (CHECKPOINT_INTERVAL_CAP, DEFAULT_ITERATIONS,
                        SimulationResult, iteration_times, simulate)
from .workload import TrainingJob, TransformerSpec, flops_per_iteration

EXHAUSTIVE_SUBSET_LIMIT = 12
EXHAUSTIVE_PERMUTATION_LIMIT = 8

OBJECTIVE_ENERGY = "energy"
OBJECTIVE_LATENCY = "latency"
OBJECTIVE_WEIGHTED = "weighted"


class InfeasibleError(RuntimeError):
    """No memory-feasible plan exists; carries per-kind diagnoses."""

    def __init__(self, reasons: dict[str, str]):
        self.reasons = dict(reasons)
        detail = "; ".join(f"{k}: {v}" for k, v in sorted(reasons.items()))
        super().__init__(f"no feasible plan ({detail})")


@dataclass(frozen=True)
class Objective:
    target: str = OBJECTIVE_ENERGY
    weight_energy: float = 1.0
    weight_latency: float = 0.0

    def __post_init__(self):
        if self.target not in (OBJECTIVE_ENERGY, OBJECTIVE_LATENCY,
                               OBJECTIVE_WEIGHTED):
            raise ValueError(f"unknown objective target {self.target!r}")
        if self.weight_energy < 0 or self.weight_latency < 0:
            raise ValueError("objective weights must be >= 0")
        if self.weight_energy == 0 and self.weight_latency == 0:
            raise ValueError("at least one objective weight must be positive")

    def value(self, result: SimulationResult) -> float:
        if result.oom:
            return math.inf
        if self.target == OBJECTIVE_ENERGY:
            return result.energy_per_sample
        if self.target == OBJECTIVE_LATENCY:
            return result.latency_per_sample
        return (self.weight_energy * result.energy_per_sample
                + self.weight_latency * result.latency_per_sample)


@dataclass
class OrchestrationStrategy:
    selected_devices: tuple[str, ...]
    plan: ParallelPlan
    checkpoint_interval: float
    predicted: SimulationResult

    def __post_init__(self):
        if not set(self.plan.participants) <= set(self.selected_devices):
            raise ValueError("plan participants must be selected devices")
        if self.checkpoint_interval <= 0:
            raise ValueError("checkpoint_interval must be > 0")


def _per_block_time(domain: TrustedDomain, device_id: str,
                    spec: TransformerSpec, job: TrainingJob) -> float:
    """Per-iteration compute seconds for one block on one device."""
    thr = effective_throughput(domain.device(device_id), domain.mode)
    if thr <= 0:
        return math.inf
    return flops_per_iteration(spec, job) / max(spec.num_blocks, 1) / thr


def partition_stages(domain: TrustedDomain, ordered_devices, spec: TransformerSpec,
                     job: TrainingJob) -> list[tuple[int, int]]:
    """Contiguous stage split minimizing the bottleneck stage compute time.

    Exact dynamic program over (device index, blocks assigned); assignments
    whose stage would not fit in a device's usable memory are excluded.
    Raises InfeasibleError when no memory-feasible split exists.
    """
    devices = list(ordered_devices)
    n, l = len(devices), spec.num_blocks
    if l < n:
        raise PlanError(f"{l} blocks cannot fill {n} pipeline stages")
    times = [_per_block_time(domain, d, spec, job) for d in devices]
    required = [state + act for state, act in pp_stage_memory(
        spec, job, range(l + 1), n, job.micro_batch_count)]
    feasible = []
    for d in devices:
        usable = domain.device(d).usable_memory
        feasible.append([b > 0 and required[b] <= usable for b in range(l + 1)])

    inf = math.inf
    # best[i][j]: minimal bottleneck using devices [0..i] for the first j blocks
    best = [[inf] * (l + 1) for _ in range(n)]
    choice = [[0] * (l + 1) for _ in range(n)]
    for j in range(1, l + 1):
        if feasible[0][j]:
            best[0][j] = j * times[0]
    for i in range(1, n):
        for j in range(i + 1, l + 1):
            for b in range(1, j - i + 1):
                if not feasible[i][b]:
                    continue
                prev = best[i - 1][j - b]
                cand = max(prev, b * times[i])
                if cand < best[i][j]:
                    best[i][j] = cand
                    choice[i][j] = b
    if not math.isfinite(best[n - 1][l]):
        raise InfeasibleError({KIND_PP: "no memory-feasible contiguous "
                                        "stage partition"})
    counts = []
    j = l
    for i in range(n - 1, 0, -1):
        counts.append(choice[i][j])
        j -= choice[i][j]
    counts.append(j)
    counts.reverse()
    ranges, start = [], 0
    for c in counts:
        ranges.append((start, start + c))
        start += c
    return ranges


def arrange_topology(domain: TrustedDomain, participants, spec: TransformerSpec,
                     job: TrainingJob, kind: str = KIND_PP) -> tuple[str, ...]:
    """Device ordering for a plan; only pipeline order matters.

    For pipelines, every permutation (up to the exhaustive bound) is
    partitioned and simulated; the lowest iteration time wins and ties go to
    the lexicographically smallest ordering.  Other kinds use order-
    insensitive collectives and keep the input order.
    """
    participants = tuple(participants)
    if kind != KIND_PP or len(participants) == 1:
        return participants
    if len(participants) > EXHAUSTIVE_PERMUTATION_LIMIT:
        # Greedy fallback: fastest devices first, ties by id.
        return tuple(sorted(
            participants,
            key=lambda p: (-effective_throughput(domain.device(p), domain.mode), p)))
    best_order: Optional[tuple[str, ...]] = None
    best_time = math.inf
    for perm in sorted(itertools.permutations(participants)):
        try:
            ranges = partition_stages(domain, perm, spec, job)
            plan = make_pp_plan(domain, spec, job, perm, ranges)
        except (PlanError, InfeasibleError):
            continue
        t = simulate(plan, domain, iterations=1, warmup=0).makespan
        if t < best_time - 1e-15:
            best_time, best_order = t, perm
    if best_order is None:
        raise InfeasibleError({KIND_PP: "no memory-feasible ordering"})
    return best_order


def candidate_plans(domain: TrustedDomain, participants, spec: TransformerSpec,
                    job: TrainingJob) -> tuple[list[ParallelPlan], dict[str, str]]:
    """All constructible plans for a participant set, plus per-kind skip reasons."""
    participants = tuple(participants)
    plans: list[ParallelPlan] = []
    reasons: dict[str, str] = {}
    if len(participants) == 1:
        plans.append(make_single_plan(domain, spec, job, participants[0]))
        return plans, reasons

    def pp_plan():
        order = arrange_topology(domain, participants, spec, job)
        return make_pp_plan(domain, spec, job, order,
                            partition_stages(domain, order, spec, job))

    builders = {
        KIND_DP: lambda: make_dp_plan(domain, spec, job, participants),
        KIND_PP: pp_plan,
        KIND_TP: lambda: make_tp_plan(domain, spec, job, participants),
        KIND_SP: lambda: make_sp_plan(domain, spec, job, participants),
    }
    for kind in KIND_PREFERENCE:
        try:
            plans.append(builders[kind]())
        except (PlanError, InfeasibleError) as exc:
            reasons[kind] = str(exc)
    return plans, reasons


def choose_parallelism(domain: TrustedDomain, participants, spec: TransformerSpec,
                       job: TrainingJob, objective: Objective,
                       iterations: int = DEFAULT_ITERATIONS
                       ) -> tuple[ParallelPlan, SimulationResult]:
    """Best plan kind for a fixed participant set under the objective.

    Evaluates every constructible kind through the simulator; ties resolve in
    the documented preference order DP < PP < TP < SP.
    """
    plans, reasons = candidate_plans(domain, participants, spec, job)
    best: Optional[tuple[ParallelPlan, SimulationResult]] = None
    best_value = math.inf
    for plan in plans:
        result = simulate(plan, domain, iterations=iterations)
        if result.oom:
            reasons[plan.kind] = ("out of memory on " +
                                  ", ".join(result.oom_devices))
            continue
        value = objective.value(result)
        if value < best_value - 1e-15:
            best_value = value
            best = (plan, result)
    if best is None:
        raise InfeasibleError(reasons or {"all": "no plan could be built"})
    return best


@dataclass
class SelectionOutcome:
    best_by_size: dict[int, tuple[tuple[str, ...], ParallelPlan, SimulationResult]]
    best_subset: tuple[str, ...]
    best_plan: ParallelPlan
    best_result: SimulationResult
    objective_value: float


def select_devices(domain: TrustedDomain, spec: TransformerSpec, job: TrainingJob,
                   objective: Objective,
                   iterations: int = DEFAULT_ITERATIONS) -> SelectionOutcome:
    """Objective-optimal participant subset, with the best subset per size.

    Pools up to 12 devices are searched exhaustively; larger pools fall back
    to greedy throughput-sorted prefixes.  Subsets where every kind is
    memory-infeasible are excluded.  Raises InfeasibleError when nothing fits.
    """
    ids = list(domain.device_ids)
    if not ids:
        raise InfeasibleError({"pool": "empty device pool"})
    if len(ids) <= EXHAUSTIVE_SUBSET_LIMIT:
        subsets = []
        for size in range(1, len(ids) + 1):
            subsets.extend(itertools.combinations(ids, size))
    else:
        ranked = sorted(ids, key=lambda p: (
            -effective_throughput(domain.device(p), domain.mode), p))
        subsets = [tuple(sorted(ranked[:size])) for size in range(1, len(ids) + 1)]

    best_by_size: dict[int, tuple] = {}
    best = None
    best_value = math.inf
    all_reasons: dict[str, str] = {}
    for subset in subsets:
        try:
            plan, result = choose_parallelism(domain, subset, spec, job,
                                              objective, iterations)
        except InfeasibleError as exc:
            if len(subset) == len(ids):
                all_reasons.update(exc.reasons)
            continue
        value = objective.value(result)
        size = len(subset)
        if size not in best_by_size or value < objective.value(best_by_size[size][2]) - 1e-15:
            best_by_size[size] = (subset, plan, result)
        if value < best_value - 1e-15:
            best_value = value
            best = (subset, plan, result)
    if best is None:
        raise InfeasibleError(all_reasons or
                              {"all": "every subset is memory-infeasible"})
    subset, plan, result = best
    return SelectionOutcome(best_by_size=best_by_size, best_subset=subset,
                            best_plan=plan, best_result=result,
                            objective_value=best_value)


def young_checkpoint_interval(write_time: float, system_mtbf: float) -> float:
    """First-order optimum of the expected overhead C/tau + tau/(2*MTBF)."""
    if write_time < 0 or system_mtbf <= 0:
        raise ValueError("write_time must be >= 0 and system_mtbf > 0")
    return math.sqrt(2.0 * write_time * system_mtbf)


def plan_checkpointing(plan: ParallelPlan, domain: TrustedDomain,
                       fault_model: FaultModel) -> float:
    """Checkpoint interval in seconds for a plan under a fault model.

    Young's approximation on the system MTBF (independent exponential
    failures per participant), floored at one average iteration time and
    capped so an effectively failure-free system stops checkpointing.
    """
    mem = check_memory(plan, domain)
    shard = max(c.state_bytes for c in mem.values())
    write_time = shard / fault_model.checkpoint_write_bandwidth
    system_mtbf = fault_model.mtbf_per_device / len(plan.participants)
    tau = young_checkpoint_interval(write_time, system_mtbf)
    k = plan.job.dp_sync_period
    floor = sum(iteration_times(plan, domain, k)) / k
    return min(max(tau, floor), CHECKPOINT_INTERVAL_CAP)


def orchestrate(domain: TrustedDomain, spec: TransformerSpec, job: TrainingJob,
                objective: Objective,
                fault_model: FaultModel = DEFAULT_FAULT_MODEL,
                select: bool = False,
                iterations: int = DEFAULT_ITERATIONS) -> OrchestrationStrategy:
    """Full orchestration: participants, plan, checkpoint interval, prediction.

    By default every device in the trusted domain participates (the pool is
    assumed dedicated to the job); ``select=True`` additionally searches
    participant subsets.
    """
    if select:
        outcome = select_devices(domain, spec, job, objective, iterations)
        subset, plan, result = (outcome.best_subset, outcome.best_plan,
                                outcome.best_result)
    else:
        subset = domain.device_ids
        plan, result = choose_parallelism(domain, subset, spec, job, objective,
                                          iterations)
    interval = plan_checkpointing(plan, domain, fault_model)
    return OrchestrationStrategy(selected_devices=tuple(subset), plan=plan,
                                 checkpoint_interval=interval,
                                 predicted=result)
