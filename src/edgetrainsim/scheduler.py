"""Orchestration decisions: participants, parallelism, topology, checkpoints.

`candidate_plans` streams the plan kinds for a participant set, simulated or
rejected with one reason; `choose_parallelism` keeps the first best kind and
`select_devices` the first best subset, under one tie rule.  A plan is priced
over one gradient-sync period, which its run repeats, so the period's
per-sample figures are its long-run rates (renewal-reward).  Subsets are
searched exhaustively up to 12 devices, and a larger pool is refused;
pipeline orders up to 8, with a fastest-first fallback beyond.  The stage
split is exact at any size: it compares stages by blocks per FLOP/s,
``b / throughput``, so stages tied in real arithmetic tie exactly, and reads
each least bottleneck as an order statistic of those keys, in O(n·L) for n
devices and L blocks.  Its bottleneck does not depend on device order, so a
pipeline's order minimises its busiest device's boundary time, the largest
sum of a device's left and right hops.  All ties break deterministically.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import Iterator

from .devices import DEFAULT_FAULT_MODEL, FaultModel, TrustedDomain
from .parallelism import (KIND_PP, KIND_PREFERENCE, KIND_SINGLE, ParallelPlan,
                          PlanError, make_plan, pp_stage_memory, stage_transfer)
from .simengine import (SimulationResult, checkpoint_cost, iteration_times,
                        phase_seconds, simulate)
from .workload import TrainingJob, TransformerSpec

EXHAUSTIVE_SUBSET_LIMIT = 12
EXHAUSTIVE_PERMUTATION_LIMIT = 8
CHECKPOINT_INTERVAL_CAP = 1e8  # seconds; effectively disables checkpointing


class InfeasibleError(RuntimeError):
    """No memory-feasible plan exists; carries per-kind diagnoses."""

    def __init__(self, reasons: dict[str, str]):
        self.reasons = dict(reasons)
        detail = "; ".join(f"{k}: {v}" for k, v in sorted(reasons.items()))
        super().__init__(f"no feasible plan ({detail})")


@dataclass(frozen=True)
class Objective:
    """Minimise ``weight_energy`` J/sample + ``weight_latency`` s/sample;
    (1, 0) is the energy objective and (0, 1) the latency objective."""
    weight_energy: float = 1.0
    weight_latency: float = 0.0

    def __post_init__(self):
        # `not 0 <= w < inf` also rejects NaN.
        if not (0 <= self.weight_energy < math.inf
                and 0 <= self.weight_latency < math.inf
                and self.weight_energy + self.weight_latency > 0):
            raise ValueError("objective weights must be finite and >= 0, "
                             "and not both 0")

    def value(self, result: SimulationResult) -> float:
        return (self.weight_energy * result.energy_per_sample
                + self.weight_latency * result.latency_per_sample)


@dataclass
class OrchestrationStrategy:
    plan: ParallelPlan
    checkpoint_interval: float
    predicted: SimulationResult

    def __post_init__(self):
        if not self.checkpoint_interval > 0:  # also refuses NaN
            raise ValueError("checkpoint_interval must be > 0")


def _first_best(candidates, objective: Objective):
    """The first ``(plan, result)`` of least objective value, or None.  A
    later one wins only when lower by an absolute margin, so near-ties go to
    the earlier one."""
    best, best_value = None, math.inf
    for plan, result in candidates:
        if (value := objective.value(result)) < best_value - 1e-15:
            best, best_value = (plan, result), value
    return best


def partition_stages(domain: TrustedDomain, ordered_devices, spec: TransformerSpec,
                     job: TrainingJob) -> tuple[int, ...]:
    """Contiguous stage split minimizing the bottleneck stage compute time;
    returns the stages' block counts, in pipeline order.

    Exact, in closed form.  A stage's memory grows with its block count, so
    device i takes 1 to ``cap_i`` blocks, the most that fit in its usable
    memory.  Every stage time carries the same factor, the FLOPs per block,
    so a b-block stage is keyed by its blocks per FLOP/s, ``b / thr_i`` for
    b in 1..cap_i: one correctly rounded division, so stages tied in real
    arithmetic tie exactly.  Under a bottleneck V the first k devices hold
    any block count from k up to the number of their keys ``<= V``, provided
    each holds one block; so the least bottleneck of devices 0..k-1 over j
    blocks is an order statistic, ``max(S_k[j-1], F_k)``, where S_k is their
    keys in ascending order and F_k their largest one-block key.  Since
    j <= L, S_k keeps only its L smallest keys, ``sorted(S_{k-1} +
    keys_k)[:L]``, and sorting those two ascending runs is one merge.  Cost:
    O(n·L) time and memory for n devices and L blocks.

    Ties go to the fewest blocks on the later devices: walking back from the
    last device, device i takes ``max(1, j - #(S_i <= V_i))`` of the j
    blocks still unassigned, V_i being the least bottleneck of devices 0..i
    over them.  Raises InfeasibleError when no memory-feasible split exists.
    """
    devices = list(ordered_devices)
    n, l = len(devices), spec.num_blocks
    if l < n:
        raise PlanError(f"{l} blocks cannot fill {n} pipeline stages")
    # Non-decreasing in the block count, so a cap is one bisection.
    required = [state + act for state, act in pp_stage_memory(
        spec, job, range(1, l + 1), n)]
    # Index k: S_k and F_k of devices 0..k-1; a device that holds no block
    # makes F infinite.
    smallest, floor = [[]], [0.0]
    throughput, usable = domain._throughput, domain._usable_memory
    for d in devices:
        thr = throughput[d]
        cap = bisect.bisect_right(required, usable[d])
        smallest.append(sorted(smallest[-1]
                               + [b / thr for b in range(1, cap + 1)])[:l])
        floor.append(max(floor[-1], 1 / thr if cap else math.inf))
    if len(smallest[n]) < l or floor[n] == math.inf:
        raise InfeasibleError({KIND_PP: "no memory-feasible contiguous "
                                        "stage partition"})
    counts = []
    j = l
    for i in range(n - 1, 0, -1):
        bound = max(smallest[i + 1][j - 1], floor[i + 1])
        counts.append(max(1, j - bisect.bisect_right(smallest[i], bound)))
        j -= counts[-1]
    counts.append(j)
    return tuple(reversed(counts))


def arrange_topology(domain: TrustedDomain, participants, spec: TransformerSpec,
                     job: TrainingJob) -> tuple[str, ...]:
    """Pipeline device order whose busiest device spends least time on its
    boundary transfers.

    A device's per-block time and feasible block counts are its own, so the
    stage split's compute bottleneck is the same in every order, and an
    order changes the iteration's wall time only through its busiest
    device's transfers: its left hop plus its right hop, each the template's
    :func:`~edgetrainsim.parallelism.stage_transfer` in the seconds the
    simulator charges.  An end device's one hop never exceeds its
    neighbour's two, so an order scores the largest such sum over its
    interior devices.  Up to the exhaustive bound every order is scored,
    ties going to the lexicographically smallest; larger sets go fastest
    device first, ties by id.
    """
    participants = tuple(participants)
    if len(participants) > EXHAUSTIVE_PERMUTATION_LIMIT:
        throughput = domain._throughput
        return tuple(sorted(participants, key=lambda p: (-throughput[p], p)))
    hop = {(a, b): phase_seconds(stage_transfer(spec, job, a, b),
                                 domain.network)
           for a, b in itertools.permutations(participants, 2)}
    busy = {(a, b, c): hop[a, b] + hop[b, c]
            for a, b, c in itertools.permutations(participants, 3)}
    return min(itertools.permutations(sorted(participants)),
               key=lambda order: max(
                   map(busy.__getitem__, zip(order, order[1:], order[2:])),
                   default=0.0))


def candidate_plans(domain: TrustedDomain, participants, spec: TransformerSpec,
                    job: TrainingJob, objective: Objective) -> Iterator[tuple]:
    """Each plan kind for a participant set, as ``(kind, plan, result,
    reason)`` in preference order: single for one participant, else DP, PP,
    TP, SP.  ``result`` simulates one sync period.  ``reason`` is None for a
    plan that can win, else its one rejection: no build, no memory-feasible
    stage split, the result's own
    :attr:`~edgetrainsim.simengine.SimulationResult.rejection` (out of memory
    or a non-finite cost) or a non-finite objective value.  ``plan`` and
    ``result`` are None where it got no further.
    """
    participants = tuple(participants)
    for kind in (KIND_SINGLE,) if len(participants) == 1 else KIND_PREFERENCE:
        try:
            order, blocks = participants, None
            if kind == KIND_PP:
                order = arrange_topology(domain, participants, spec, job)
                blocks = partition_stages(domain, order, spec, job)
            plan = make_plan(kind, domain, spec, job, order, blocks)
        except PlanError as exc:
            yield kind, None, None, str(exc)
            continue
        except InfeasibleError as exc:
            yield kind, None, None, exc.reasons[kind]
            continue
        result = simulate(plan, domain, iterations=job.dp_sync_period)
        reason = result.rejection
        if reason is None and not math.isfinite(objective.value(result)):
            reason = "objective value is not finite"
        yield kind, plan, result, reason


def choose_parallelism(domain: TrustedDomain, participants, spec: TransformerSpec,
                       job: TrainingJob, objective: Objective
                       ) -> tuple[ParallelPlan, SimulationResult]:
    """Best plan kind for a fixed participant set under the objective: the
    first best of `candidate_plans`, so ties go DP < PP < TP < SP.  Raises
    InfeasibleError with each kind's rejection when none can win."""
    candidates = list(candidate_plans(domain, participants, spec, job,
                                      objective))
    best = _first_best([(plan, result) for _, plan, result, reason
                        in candidates if reason is None], objective)
    if best is None:
        raise InfeasibleError({kind: reason for kind, _, _, reason
                               in candidates if reason is not None})
    return best


def select_devices(domain: TrustedDomain, spec: TransformerSpec, job: TrainingJob,
                   objective: Objective) -> tuple[ParallelPlan, SimulationResult]:
    """Objective-optimal participant subset, as its best plan and result:
    the first best of `choose_parallelism` over every subset, by size, then
    pool order; PlanError on more than 12 devices, before any search.  When
    none fits, re-raises the full pool's (last subset's) error."""
    ids = domain.device_ids
    if len(ids) > EXHAUSTIVE_SUBSET_LIMIT:
        raise PlanError(f"device selection searches pools of at most "
                        f"{EXHAUSTIVE_SUBSET_LIMIT} devices, not {len(ids)}")
    subsets = (s for size in range(1, len(ids) + 1)
               for s in itertools.combinations(ids, size))
    error = None

    def winners():
        nonlocal error
        for subset in subsets:
            try:
                yield choose_parallelism(domain, subset, spec, job, objective)
            except InfeasibleError as exc:
                error = exc

    best = _first_best(winners(), objective)
    if best is None:
        raise error
    return best


def young_checkpoint_interval(write_time: float, system_mtbf: float) -> float:
    """First-order optimum of the expected overhead C/tau + tau/(2*MTBF);
    infinite when failures never come, whatever the write time."""
    if write_time < 0 or system_mtbf <= 0:
        raise ValueError("write_time must be >= 0 and system_mtbf > 0")
    if system_mtbf == math.inf:
        return math.inf
    return math.sqrt(2.0 * write_time * system_mtbf)


def plan_checkpointing(plan: ParallelPlan, domain: TrustedDomain,
                       fault_model: FaultModel) -> float:
    """Checkpoint interval in seconds for a plan under a fault model: the
    :func:`checkpoint_interval_for` its write time and iteration times."""
    _, write_time = checkpoint_cost(plan, domain, fault_model)
    return checkpoint_interval_for(plan, fault_model, write_time,
                                   *iteration_times(plan, domain))


def checkpoint_interval_for(plan: ParallelPlan, fault_model: FaultModel,
                            write_time: float, base_len: float,
                            sync_len: float) -> float:
    """The checkpoint interval of a plan whose state takes ``write_time``
    seconds to write and whose iterations take ``base_len`` and, on syncs,
    ``sync_len`` more.

    Young's approximation on the system MTBF (independent exponential
    failures per participant), floored at the mean iteration of a sync
    period, ``base_len + sync_len / k``, and capped so an effectively
    failure-free system stops checkpointing.  ``faults`` passes it to
    :func:`~edgetrainsim.simengine.inject_faults` as the rule for a plan
    file without an interval, so the replay's own profile feeds it.
    """
    tau = young_checkpoint_interval(
        write_time, fault_model.system_mtbf(len(plan.participants)))
    floor = base_len + sync_len / plan.job.dp_sync_period
    return min(max(tau, floor), CHECKPOINT_INTERVAL_CAP)


def orchestrate(domain: TrustedDomain, spec: TransformerSpec, job: TrainingJob,
                objective: Objective,
                fault_model: FaultModel = DEFAULT_FAULT_MODEL,
                select: bool = False) -> OrchestrationStrategy:
    """Full orchestration: participants, plan, checkpoint interval, prediction.

    By default every device in the trusted domain participates (the pool is
    assumed dedicated to the job); ``select=True`` instead searches every
    participant subset (:func:`select_devices`, at most 12 devices).
    """
    if select:
        plan, result = select_devices(domain, spec, job, objective)
    else:
        plan, result = choose_parallelism(domain, domain.device_ids, spec, job,
                                          objective)
    interval = plan_checkpointing(plan, domain, fault_model)
    return OrchestrationStrategy(plan=plan, checkpoint_interval=interval,
                                 predicted=result)
