"""Scheduler tests: stage partitioning, topology, plan choice, checkpoints."""

import collections
import dataclasses
import itertools
import math
import random
import time
import tracemalloc
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize_scalar

from edgetrainsim import scheduler
from edgetrainsim.devices import (DeviceProfile, FaultModel, Link, NetworkModel,
                                  TrustedDomain, ValidationError,
                                  effective_throughput, jetson_nano, jetson_nx,
                                  jetson_tx2, testbed_preset as load_testbed)
from edgetrainsim.parallelism import (KIND_DP, KIND_PP, KIND_SINGLE, KIND_SP,
                                      KIND_TP, PlanError, make_dp_plan,
                                      make_pp_plan, make_sp_plan, make_tp_plan,
                                      pp_stage_memory, stage_transfer)
from edgetrainsim.scheduler import (CHECKPOINT_INTERVAL_CAP, InfeasibleError,
                                    Objective, arrange_topology, candidate_plans,
                                    choose_parallelism, orchestrate,
                                    partition_stages, plan_checkpointing,
                                    select_devices, young_checkpoint_interval)
from edgetrainsim.simengine import iteration_times, phase_seconds, simulate
from edgetrainsim.workload import (TrainingJob, TransformerSpec,
                                   activation_bytes_per_block, default_edge_job,
                                   flops_per_iteration, model_preset,
                                   state_bytes)

JOB = default_edge_job()
SMALL_SPEC = TransformerSpec("toy", num_blocks=6, hidden_size=64, num_heads=4,
                             vocab_size=100)
SMALL_JOB = TrainingJob(16, 8, 4, dp_sync_period=2, param_bytes=2.0,
                        optimizer_state_multiplier=4.0,
                        activation_bytes_factor=1.0)
ENERGY = Objective(weight_energy=1.0, weight_latency=0.0)
LATENCY = Objective(weight_energy=0.0, weight_latency=1.0)
WEIGHTED = Objective(weight_energy=1.0, weight_latency=10.0)


def device(name, throughput, mem=4e9):
    return DeviceProfile(name, cpu_throughput=throughput / 16,
                         gpu_throughput=throughput, mem_capacity=mem,
                         power_idle=2.0, power_cpu_busy=7.0,
                         power_gpu_busy=10.0, power_net=1.5)


def domain_of(*devices, links=()):
    return TrustedDomain(devices=tuple(devices),
                         network=NetworkModel(links=tuple(links)))


def brute_force_stage_split(domain, ordered, spec, job):
    """Enumerate every contiguous split and return the optimal bottleneck."""
    n, l = len(ordered), spec.num_blocks
    flops = flops_per_iteration(spec, job)
    act = activation_bytes_per_block(spec, job)
    depth = min(job.micro_batch_count, n)

    def stage_ok(dev_id, blocks):
        required = (state_bytes(spec, job) * blocks / l + blocks * act * depth)
        return required <= domain.device(dev_id).usable_memory

    def stage_time(dev_id, blocks):
        thr = max(domain.device(dev_id).gpu_throughput,
                  domain.device(dev_id).cpu_throughput)
        return blocks * flops / l / thr

    best = math.inf
    for cuts in itertools.combinations(range(1, l), n - 1):
        bounds = (0,) + cuts + (l,)
        counts = [bounds[i + 1] - bounds[i] for i in range(n)]
        if not all(stage_ok(d, c) for d, c in zip(ordered, counts)):
            continue
        best = min(best, max(stage_time(d, c)
                             for d, c in zip(ordered, counts)))
    return best


def dp_stage_split(domain, ordered_devices, spec, job, number=float):
    """Oracle: the O(n·L²) dynamic program over (device index, blocks
    assigned) that the threshold search replaced, kept verbatim but for its
    key, the search's blocks per FLOP/s.  ``number=Fraction`` runs it in
    exact arithmetic."""
    devices = list(ordered_devices)
    n, l = len(devices), spec.num_blocks
    if l < n:
        raise PlanError(f"{l} blocks cannot fill {n} pipeline stages")
    thrs = [number(effective_throughput(domain.device(d), domain.mode))
            for d in devices]
    required = [state + act for state, act in pp_stage_memory(
        spec, job, range(1, l + 1), n)]
    caps = [sum(r <= domain.device(d).usable_memory for r in required)
            for d in devices]

    inf = math.inf
    # best[i][j]: minimal bottleneck using devices [0..i] for the first j blocks
    best = [[inf] * (l + 1) for _ in range(n)]
    choice = [[0] * (l + 1) for _ in range(n)]
    for j in range(1, caps[0] + 1):
        best[0][j] = j / thrs[0]
    for i in range(1, n):
        for j in range(i + 1, l + 1):
            for b in range(1, min(j - i, caps[i]) + 1):
                prev = best[i - 1][j - b]
                cand = max(prev, b / thrs[i])
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
    return tuple(reversed(counts))


def split_outcome(split, *args):
    """A split's block counts, or the type and message of the error it
    raised."""
    try:
        return split(*args)
    except (PlanError, InfeasibleError) as exc:
        return type(exc), str(exc)


# 400 Fraction-keyed dynamic programs take about 4 s (Python 3.11, 2 cores).
EXACT_EXAMPLES = 400


def scaled_board(board, speed, cap, block):
    """``board`` at ``speed`` times its throughput, with usable memory for
    ``cap`` stages of ``block`` bytes a block but not for ``cap + 1``."""
    return dataclasses.replace(
        board, cpu_throughput=board.cpu_throughput * speed,
        gpu_throughput=board.gpu_throughput * speed,
        mem_capacity=(cap + 0.5) * block / board.usable_mem_fraction)


@st.composite
def stage_split_inputs(draw):
    """1 to 12 boards of the three profiles in any order, with scaled
    throughput and room for 0 to 3·L/n + 1 blocks each (so caps bind),
    1 to 80 blocks, either mode and several micro-batch counts."""
    n = draw(st.integers(1, 12))
    l = draw(st.integers(1, 80))
    spec = TransformerSpec("g", l, 64, 4, 100)
    job = default_edge_job(
        global_batch=8 * draw(st.sampled_from((1, 2, 3, 5, 16))))
    block = sum(pp_stage_memory(spec, job, (1,), n)[0])
    boards = []
    for i in range(n):
        board = draw(st.sampled_from((jetson_nano, jetson_tx2, jetson_nx)))(
            f"d{i}")
        # Simple ratios keep stage times tied; any float breaks the ties.
        speed = draw(st.sampled_from((0.5, 1.0, 2.0, 3.0))
                     | st.floats(0.1, 10.0))
        # Room for `cap` blocks; the caps sum to about 1.5 models.
        cap = draw(st.integers(0, 3 * l // n + 1))
        boards.append(scaled_board(board, speed, cap, block))
    domain = domain_of(*boards).with_mode(draw(st.sampled_from(("cpu", "gpu"))))
    order = draw(st.permutations(domain.device_ids))
    return domain, order, spec, job


class TestPartitionStages:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(stage_split_inputs())
    def test_matches_dynamic_program_exactly(self, inputs):
        """Same block counts, ties included, or the same error and
        message."""
        assert (split_outcome(partition_stages, *inputs)
                == split_outcome(dp_stage_split, *inputs))

    @settings(max_examples=EXACT_EXAMPLES, deadline=None, derandomize=True)
    @given(stage_split_inputs())
    def test_matches_exact_arithmetic(self, inputs):
        """Splits tied in real arithmetic tie exactly: the same block counts
        as the dynamic program run in Fractions."""
        assert (split_outcome(partition_stages, *inputs)
                == split_outcome(dp_stage_split, *inputs, Fraction))

    def test_real_arithmetic_tie_is_exact(self):
        """The Nano's 4 blocks and the half-speed NX's 10 take the same real
        time.  Keyed as ``b·(F/L/thr)``, the Nano's 4 cost one ulp more, so
        the Nano took 3 and the split was (3, 10, 11)."""
        spec = TransformerSpec("g", 24, 64, 4, 100)
        job = default_edge_job(global_batch=8)
        block = sum(pp_stage_memory(spec, job, (1,), 3)[0])
        domain = domain_of(scaled_board(jetson_nx("d0"), 0.5, 23, block),
                           scaled_board(jetson_nano("d1"), 1.0, 5, block),
                           scaled_board(jetson_tx2("d2"), 3.0, 11, block)
                           ).with_mode("gpu")
        order = ("d1", "d0", "d2")
        want = (4, 10, 10)
        assert partition_stages(domain, order, spec, job) == want
        assert dp_stage_split(domain, order, spec, job, Fraction) == want

    def test_slow_device_one_block_floor_binds(self):
        """The fast device's keys alone give the 4th smallest, 4/10e9, but
        the slow device must still take a block: the bottleneck is its
        one-block key 1/1e9, and the fast device takes the other 3, in
        either order.  Slow first, the fast device's share is read at that
        bottleneck, not at 4/10e9, which would leave the slow one none."""
        domain = domain_of(device("fast", 10e9), device("slow", 1e9))
        spec = TransformerSpec("four", 4, 64, 4, 100)
        for order, want in ((("slow", "fast"), (1, 3)),
                            (("fast", "slow"), (3, 1))):
            assert partition_stages(domain, order, spec, SMALL_JOB) == want
            assert dp_stage_split(domain, order, spec, SMALL_JOB,
                                  Fraction) == want

    def test_jth_smallest_key_binds(self):
        """Keys 1/2e9..6/2e9 and 1/1e9..6/1e9: the 6th smallest, 2/1e9 =
        4/2e9, exceeds both one-block keys.  The tie leaves the later,
        slower device its fewest blocks, 2."""
        domain = domain_of(device("a", 2e9), device("b", 1e9))
        spec = TransformerSpec("six", 6, 64, 4, 100)
        want = (4, 2)
        assert partition_stages(domain, ("a", "b"), spec, SMALL_JOB) == want
        assert dp_stage_split(domain, ("a", "b"), spec, SMALL_JOB,
                              Fraction) == want

    def test_caps_far_beyond_the_block_count(self):
        """Every device holds the whole model, so the keys number 4·L and
        only the L smallest of each prefix are kept.  In pool order the first
        three stages tie at the bottleneck, 6/3e9 = 2/1e9 = 14/7e9, and the
        last device takes the 2 blocks left."""
        spec = TransformerSpec("deep", 24, 64, 4, 100)
        domain = domain_of(*(device(f"d{i}", thr, mem=64e9) for i, thr
                             in enumerate((3e9, 1e9, 7e9, 2e9))))
        required = [sum(m) for m in pp_stage_memory(spec, SMALL_JOB,
                                                    range(1, 25), 4)]
        assert all(r <= d.usable_memory for r in required
                   for d in domain.devices)
        for order in itertools.permutations(domain.device_ids):
            got = partition_stages(domain, order, spec, SMALL_JOB)
            assert got == dp_stage_split(domain, order, spec, SMALL_JOB,
                                         Fraction)
        assert partition_stages(domain, domain.device_ids, spec,
                                SMALL_JOB) == (6, 2, 14, 2)

    def test_device_without_a_block_mid_order_is_infeasible(self):
        spec = model_preset("gpt2-s")
        domain = domain_of(device("a", 1e9, mem=64e9),
                           device("none", 1e9, mem=1e3),
                           device("c", 1e9, mem=64e9))
        with pytest.raises(InfeasibleError) as caught:
            partition_stages(domain, ("a", "none", "c"), spec, JOB)
        assert caught.value.reasons == {
            KIND_PP: "no memory-feasible contiguous stage partition"}
        assert str(caught.value) == ("no feasible plan (pp: no memory-feasible"
                                     " contiguous stage partition)")

    def test_homogeneous_uniform(self):
        domain = domain_of(*(device(f"d{i}", 1e9) for i in range(4)))
        spec = model_preset("gpt2-s")
        assert partition_stages(domain, domain.device_ids, spec, JOB) == \
            (3, 3, 3, 3)

    def test_one_block_per_stage(self):
        domain = domain_of(*(device(f"d{i}", 1e9) for i in range(4)))
        spec = TransformerSpec("four", 4, 64, 4, 100)
        assert partition_stages(domain, domain.device_ids, spec, SMALL_JOB) == \
            (1, 1, 1, 1)

    def test_heterogeneous_matches_brute_force(self):
        domain = domain_of(device("a", 1e9), device("b", 1e9),
                           device("c", 2e9), device("d", 4e9))
        spec = model_preset("gpt2-s")  # L=12, C(11,3)=165 splits
        blocks = partition_stages(domain, domain.device_ids, spec, JOB)
        got = max(b * flops_per_iteration(spec, JOB) / 12
                  / max(domain.device(d).gpu_throughput,
                        domain.device(d).cpu_throughput)
                  for d, b in zip(domain.device_ids, blocks))
        want = brute_force_stage_split(domain, domain.device_ids, spec, JOB)
        assert got == pytest.approx(want, rel=1e-12)

    def test_randomized_grid_matches_brute_force(self):
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randint(1, 4)
            l = rng.randint(n, 12)
            spec = TransformerSpec("g", l, 64, 4, 100)
            # Each device holds a stage of 1 to l blocks, so its cap binds.
            block_mem = (state_bytes(spec, SMALL_JOB) / l
                         + activation_bytes_per_block(spec, SMALL_JOB)
                         * min(SMALL_JOB.micro_batch_count, n))
            domain = domain_of(*(
                device(f"d{i}", rng.uniform(1e9, 1e12),
                       mem=rng.uniform(1, l) * block_mem / 0.9)
                for i in range(n)))
            want = brute_force_stage_split(domain, domain.device_ids, spec,
                                           SMALL_JOB)
            if want == math.inf:
                with pytest.raises(InfeasibleError):
                    partition_stages(domain, domain.device_ids, spec,
                                     SMALL_JOB)
                continue
            counts = partition_stages(domain, domain.device_ids, spec,
                                      SMALL_JOB)
            assert sum(counts) == l and all(c >= 1 for c in counts)
            flops = flops_per_iteration(spec, SMALL_JOB)
            got = max(c * flops / l / domain.device(d).gpu_throughput
                      for d, c in zip(domain.device_ids, counts))
            assert got == pytest.approx(want, rel=1e-12)

    def test_memory_excludes_big_stages(self):
        # Device "small" can hold at most one block's stage.
        spec = model_preset("gpt2-s")
        state = state_bytes(spec, JOB)
        act = activation_bytes_per_block(spec, JOB)
        one_block = state / 12 + act * min(JOB.micro_batch_count, 2)
        small = device("small", 4e9, mem=one_block * 1.5 / 0.9)
        big = device("big", 1e9, mem=64e9)
        domain = domain_of(small, big)
        blocks = partition_stages(domain, ("small", "big"), spec, JOB)
        assert blocks[0] == 1  # despite "small" being 4x faster

    def test_infeasible_raises(self):
        spec = model_preset("gpt2-l")
        domain = domain_of(device("a", 1e9, mem=1e6), device("b", 1e9, mem=1e6))
        with pytest.raises(InfeasibleError):
            partition_stages(domain, domain.device_ids, spec, JOB)

    def test_too_few_blocks(self):
        spec = TransformerSpec("two", 2, 64, 4, 100)
        domain = domain_of(*(device(f"d{i}", 1e9) for i in range(4)))
        with pytest.raises(PlanError):
            partition_stages(domain, domain.device_ids, spec, SMALL_JOB)


class TestArrangeTopology:
    def test_single_participant_identity(self):
        domain = domain_of(device("a", 1e9))
        assert arrange_topology(domain, ("a",), SMALL_SPEC, SMALL_JOB) == ("a",)

    def test_homogeneous_lexicographic_tie_break(self):
        domain = domain_of(device("c", 1e9), device("a", 1e9), device("b", 1e9))
        got = arrange_topology(domain, ("c", "a", "b"), SMALL_SPEC, SMALL_JOB)
        assert got == ("a", "b", "c")

    @staticmethod
    def fastest_orders(domain, participants, spec, job):
        """Oracle: partition and simulate every order; keep the fastest."""
        best_time, best_perms = math.inf, []
        for perm in itertools.permutations(participants):
            blocks = partition_stages(domain, perm, spec, job)
            plan = make_pp_plan(domain, spec, job, perm, blocks)
            t = simulate(plan, domain, iterations=1).makespan
            if t < best_time - 1e-15:
                best_time, best_perms = t, [perm]
            elif t < best_time + 1e-15:
                best_perms.append(perm)
        return best_perms

    def test_slow_link_pushed_off_the_pipeline(self):
        slow = Link(1e8, 1e-4)  # 10x slower than the 1 Gbps default
        domain = domain_of(device("a", 1e9), device("b", 1e9),
                           device("c", 1e9), links=(("a", "b", slow),))
        cases = [(domain, SMALL_SPEC, SMALL_JOB)]
        # Seeded random pools: bandwidths from three values so that hops
        # tie, and jobs with fewer (M < S) and more (M >= S) micro-batches
        # than stages.
        rng = random.Random(11)
        jobs = [TrainingJob(16, 8, 16), TrainingJob(16, 8, 8),
                TrainingJob(16, 8, 1)]  # M = 1, 2, 16
        for _ in range(40):
            n = rng.randint(2, 5)
            ids = [f"d{i}" for i in range(n)]
            links = tuple((a, b, Link(rng.choice((1e7, 1e8, 1e9)),
                                      rng.choice((0.0, 1e-4))))
                          for a, b in itertools.combinations(ids, 2))
            pool = domain_of(*(device(d, rng.choice((1e9, 2e9, 4e9)))
                               for d in ids), links=links)
            spec = TransformerSpec("r", rng.randint(n, 10), 64, 4, 100)
            cases.append((pool.with_mode(rng.choice(("cpu", "gpu"))), spec,
                          rng.choice(jobs)))
        for pool, spec, job in cases:
            participants = tuple(reversed(pool.device_ids))
            got = arrange_topology(pool, participants, spec, job)
            assert got == min(self.fastest_orders(pool, participants, spec,
                                                  job))
        # the slow pair must not be adjacent in the chosen ordering
        got = arrange_topology(domain, ("a", "b", "c"), SMALL_SPEC, SMALL_JOB)
        idx = {d: i for i, d in enumerate(got)}
        assert abs(idx["a"] - idx["b"]) > 1

    def test_busiest_device_not_slowest_hop(self):
        # Slow links join b, c and d, fast ones join a to each, so every
        # order crosses a slow hop and the slowest-hop rule ties them all,
        # taking (a, b, c, d), where c sends over two slow links.  The
        # fastest orders put the one slow hop at an end.
        slow = Link(1e7, 1e-4)
        domain = domain_of(*(device(d, 1e9) for d in "abcd"),
                           links=[(x, y, slow)
                                  for x, y in itertools.combinations("bcd", 2)])
        fastest = self.fastest_orders(domain, tuple("abcd"), SMALL_SPEC,
                                      SMALL_JOB)
        assert ("a", "b", "c", "d") not in fastest
        got = arrange_topology(domain, tuple("dcba"), SMALL_SPEC, SMALL_JOB)
        assert got == min(fastest) == ("b", "a", "c", "d")

    @staticmethod
    def slow_fastest_pair(n):
        """``n`` devices d0..d{n-1}, fastest first, whose one slow link joins
        the two fastest, so the fastest-first order puts it on the boundary
        of interior device d1, and orders that part d0 and d1 avoid it."""
        ids = [f"d{i}" for i in range(n)]
        return domain_of(*(device(d, 1e9 * (n - i)) for i, d in enumerate(ids)),
                         links=(("d0", "d1", Link(1e7, 1e-4)),))

    def test_eight_devices_are_searched_exhaustively(self):
        """The documented bound: 8 devices get the best order of all 8!,
        not the fastest-first one, which is strictly worse here; 9 go
        fastest-first."""
        spec = model_preset("gpt2-s")
        domain = self.slow_fastest_pair(8)
        ids = domain.device_ids
        hop = {pair: phase_seconds(stage_transfer(spec, JOB, *pair),
                                   domain.network)
               for pair in itertools.permutations(ids, 2)}

        def busiest(order):
            """The largest left + right hop over interior devices."""
            return max(hop[a, b] + hop[b, c]
                       for a, b, c in zip(order, order[1:], order[2:]))

        best = min(itertools.permutations(ids), key=busiest)
        assert busiest(ids) > busiest(best)
        assert arrange_topology(domain, ids[::-1], spec, JOB) == best
        domain = self.slow_fastest_pair(9)
        assert arrange_topology(domain, domain.device_ids[::-1], spec, JOB) \
            == domain.device_ids


class TestChooseParallelism:
    def brute_force_best(self, domain, participants, spec, job, objective):
        values = {}
        builders = {
            KIND_DP: lambda: [make_dp_plan(domain, spec, job, participants)],
            KIND_SP: lambda: [make_sp_plan(domain, spec, job, participants)],
            KIND_TP: lambda: [make_tp_plan(domain, spec, job, participants)],
            KIND_PP: lambda: [
                make_pp_plan(domain, spec, job, perm,
                             [b - a for a, b in zip(bounds, bounds[1:])])
                for perm in itertools.permutations(participants)
                for bounds in ((0,) + c + (spec.num_blocks,)
                               for c in itertools.combinations(
                                   range(1, spec.num_blocks), len(perm) - 1))],
        }
        for kind, build in builders.items():
            try:
                plans = build()
            except PlanError:
                continue
            for plan in plans:
                result = simulate(plan, domain)
                if not result.oom:
                    v = objective.value(result)
                    values[kind] = min(values.get(kind, math.inf), v)
        return min(values.values()) if values else None

    @pytest.mark.parametrize("objective", [ENERGY, LATENCY],
                             ids=["energy", "latency"])
    def test_matches_brute_force(self, objective):
        domain = domain_of(device("a", 1e9), device("b", 2e9),
                           device("c", 4e9))
        spec = TransformerSpec("toy8", 8, 64, 4, 100)  # 3 devices: TP skipped
        plan, result = choose_parallelism(domain, domain.device_ids, spec,
                                          SMALL_JOB, objective)
        want = self.brute_force_best(domain, domain.device_ids, spec,
                                     SMALL_JOB, objective)
        assert objective.value(result) == pytest.approx(want, rel=1e-9)

    def test_single_participant_is_single_kind(self):
        domain = domain_of(device("a", 1e9))
        plan, _ = choose_parallelism(domain, ("a",), SMALL_SPEC, SMALL_JOB,
                                     Objective())
        assert plan.kind == KIND_SINGLE

    def test_gpt2s_prefers_dp_or_pp(self):
        for name in ("homogeneous-nano4", "heterogeneous-mix4"):
            domain = load_testbed(name)
            plan, _ = choose_parallelism(domain, domain.device_ids,
                                         model_preset("gpt2-s"), JOB,
                                         ENERGY)
            assert plan.kind in (KIND_DP, KIND_PP)

    def test_gpt2l_only_tp_or_pp(self):
        domain = load_testbed("homogeneous-nano4")
        plan, result = choose_parallelism(domain, domain.device_ids,
                                          model_preset("gpt2-l"), JOB,
                                          ENERGY)
        assert plan.kind in (KIND_TP, KIND_PP)
        assert not result.oom

    def test_all_kinds_oom_raises_with_reasons(self):
        domain = domain_of(device("a", 1e9, mem=1e6), device("b", 1e9, mem=1e6))
        with pytest.raises(InfeasibleError) as excinfo:
            choose_parallelism(domain, domain.device_ids,
                               model_preset("gpt2-l"), JOB, Objective())
        assert excinfo.value.reasons  # per-kind diagnosis present
        assert "no memory-feasible contiguous stage partition" in \
            excinfo.value.reasons[KIND_PP]

    def test_one_stage_split_per_pipeline_plan(self, monkeypatch):
        """One order search and stage split per participant set, and at most
        one simulation per built plan: for one set, and for each subset of
        a 6-device pool."""
        def per_link_pool(n_nanos):
            devices = [jetson_nano(f"nano-{i}") for i in range(n_nanos)]
            devices += [jetson_tx2("tx2-0"), jetson_nx("nx-0")]
            rng = random.Random(3)
            links = tuple((a.id, b.id, Link(rng.choice((1e7, 1e8, 1e9)), 1e-4))
                          for a, b in itertools.combinations(devices, 2))
            return domain_of(*devices, links=links)

        calls = collections.Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        def counted_candidates(*args, **kwargs):
            for candidate in candidate_plans(*args, **kwargs):
                calls["plans"] += candidate[1] is not None
                yield candidate

        for name in ("arrange_topology", "partition_stages", "simulate",
                     "choose_parallelism"):
            monkeypatch.setattr(scheduler, name,
                                counted(name, getattr(scheduler, name)))
        monkeypatch.setattr(scheduler, "candidate_plans", counted_candidates)
        domain = per_link_pool(6)
        choose_parallelism(domain, domain.device_ids, model_preset("gpt2-l"),
                           JOB, ENERGY)
        assert calls["partition_stages"] == 1
        assert calls["plans"] >= 1
        assert calls["simulate"] <= calls["plans"]

        calls.clear()
        domain = per_link_pool(4)
        select_devices(domain, model_preset("gpt2-l"), JOB, ENERGY)
        subsets = 2 ** 6 - 1
        assert calls["choose_parallelism"] == subsets
        assert calls["arrange_topology"] <= subsets - 6
        assert calls["partition_stages"] <= subsets - 6
        assert calls["plans"] >= 1
        assert calls["simulate"] <= calls["plans"]

    def test_too_few_blocks_is_diagnosed(self):
        domain = domain_of(*(jetson_nano(f"nano-{i}") for i in range(7)))
        reasons = {kind: reason for kind, _, _, reason in candidate_plans(
            domain, domain.device_ids, model_preset("distilbert"), JOB,
            ENERGY)}
        assert reasons[KIND_PP] == "6 blocks cannot fill 7 pipeline stages"


class TestSelectDevices:
    def test_feasibility_filter(self):
        # "a" cannot fit anything; only {b} works.
        spec = model_preset("gpt2-s")
        a = device("a", 8e9, mem=1e6)
        b = device("b", 1e9, mem=64e9)
        plan, _ = select_devices(domain_of(a, b), spec, JOB, Objective())
        assert set(plan.participants) == {"b"}
        assert plan.kind == KIND_SINGLE

    def test_collaborative_energy_not_worse_than_single(self):
        domain = load_testbed("homogeneous-nano4")
        _, result = select_devices(domain, model_preset("gpt2-s"), JOB,
                                   ENERGY)
        single = simulate(
            make_dp_plan(domain, model_preset("gpt2-s"), JOB, ("nano-0",)),
            domain)
        assert ENERGY.value(result) <= single.energy_per_sample + 1e-12

    @pytest.mark.parametrize("objective", [ENERGY, LATENCY],
                             ids=["energy", "latency"])
    def test_matches_brute_force_over_subsets(self, objective):
        domain = load_testbed("heterogeneous-mix4")
        spec = model_preset("distilbert")
        _, chosen = select_devices(domain, spec, JOB, objective)
        best = math.inf
        for size in range(1, 5):
            for subset in itertools.combinations(domain.device_ids, size):
                try:
                    _, result = choose_parallelism(domain, subset, spec, JOB,
                                                   objective)
                except InfeasibleError:
                    continue
                best = min(best, objective.value(result))
        assert objective.value(chosen) == pytest.approx(best, rel=1e-12)

    @settings(max_examples=90, deadline=None)
    @given(inputs=st.deferred(lambda: planner_inputs(sizes=st.integers(2, 6))),
           objective=st.sampled_from((ENERGY, LATENCY, WEIGHTED)))
    def test_adding_a_device_never_hurts(self, inputs, objective):
        """Adding a device to a per-link pool never raises the chosen
        objective value by more than the tie margin of 1e-15.  This holds by
        construction for every pool `select_devices` answers, since it
        searches every subset: the larger pool's subsets include every
        subset of the smaller one, each with the same links, so the same
        plans and results; and the first best of a list is within the margin
        of each entry."""
        domain, spec, job = inputs
        *kept, added = domain.devices
        smaller = TrustedDomain(
            devices=tuple(kept),
            network=NetworkModel(links=tuple(
                link for link in domain.network.links
                if added.id not in link[:2])),
            mode=domain.mode)
        try:
            _, result = select_devices(smaller, spec, job, objective)
        except InfeasibleError:
            return
        _, grown = select_devices(domain, spec, job, objective)
        assert objective.value(grown) <= objective.value(result) + 1e-15

    def test_twelve_devices_are_searched_exhaustively(self, monkeypatch):
        """Every subset of 12 devices is tried, by size, then pool order; a
        13th device is refused before the first subset is tried."""
        seen = []

        def fake(domain, subset, spec, job, objective):
            seen.append(subset)
            return None, types.SimpleNamespace(energy_per_sample=1.0,
                                               latency_per_sample=1.0)

        monkeypatch.setattr(scheduler, "choose_parallelism", fake)
        pool = [device(f"d{i:02}", 1e9 * (i + 1)) for i in range(13)]
        ids = [d.id for d in pool[:12]]
        select_devices(domain_of(*pool[:12]), SMALL_SPEC, SMALL_JOB, ENERGY)
        assert len(seen) == 4095
        assert seen == [subset for size in range(1, 13)
                        for subset in itertools.combinations(ids, size)]
        seen.clear()
        for search in (lambda d: select_devices(d, SMALL_SPEC, SMALL_JOB,
                                                ENERGY),
                       lambda d: orchestrate(d, SMALL_SPEC, SMALL_JOB, ENERGY,
                                             select=True)):
            with pytest.raises(PlanError, match="at most 12 devices, not 13"):
                search(domain_of(*pool))
        assert seen == []

    def test_empty_pool_is_unconstructible(self):
        with pytest.raises(ValidationError):
            TrustedDomain(devices=())


class TestTieRule:
    """At both levels a later candidate wins only when its objective value
    is lower by more than an absolute 1e-15: kinds go DP, PP, TP, SP and
    subsets by size, then pool order.  `simulate` returns chosen energies."""

    @staticmethod
    def fake_energies(monkeypatch, energies):
        """``energies`` maps (participant set, kind) to energy per sample."""
        def fake(plan, domain, iterations):
            key = ("".join(sorted(plan.participants)), plan.kind)
            return types.SimpleNamespace(oom=False, oom_devices=(),
                                         rejection=None,
                                         latency_per_sample=1.0,
                                         energy_per_sample=energies[key])
        monkeypatch.setattr(scheduler, "simulate", fake)

    @pytest.mark.parametrize("dp, pp, tp, sp, want", [
        (1.0, 1.0, 1.0, 1.0, KIND_DP),
        (1.0, 1.0 - 1e-15, 1.0 - 0.5e-15, 1.0, KIND_DP),
        (1.0, 1.0 - 2e-15, 1.0, 1.0, KIND_PP),
        (1.0, 1.0, 1.0 - 2e-15, 1.0 - 2e-15, KIND_TP),
        (2.0, 2.0, 2.0, 1.0, KIND_SP),
    ])
    def test_kinds(self, monkeypatch, dp, pp, tp, sp, want):
        domain = domain_of(*(device(d, 1e9) for d in "abcd"))
        values = {KIND_DP: dp, KIND_PP: pp, KIND_TP: tp, KIND_SP: sp}
        self.fake_energies(monkeypatch, {("abcd", k): v
                                         for k, v in values.items()})
        plan, _ = choose_parallelism(domain, domain.device_ids, SMALL_SPEC,
                                     SMALL_JOB, ENERGY)
        assert plan.kind == want

    @pytest.mark.parametrize("a, b, ab_dp, ab_pp, want", [
        (1.0, 1.0, 2.0, 2.0, {"a"}),                  # tied subsets
        (1.0, 1.0 - 1e-15, 2.0, 2.0, {"a"}),
        (1.0, 1.0 - 2e-15, 2.0, 2.0, {"b"}),
        (1.0, 1.0, 1.0 - 2e-15, 2.0, {"a", "b"}),
        # Two levels: (a, b) keeps DP, which does not beat (a).  One flat
        # minimum over every (subset, kind) would pick (a, b) PP.
        (1.0, 2.0, 1.0 - 0.6e-15, 1.0 - 1.2e-15, {"a"}),
    ])
    def test_subsets(self, monkeypatch, a, b, ab_dp, ab_pp, want):
        domain = domain_of(device("a", 1e9), device("b", 1e9))
        self.fake_energies(monkeypatch, {
            ("a", KIND_SINGLE): a, ("b", KIND_SINGLE): b,
            ("ab", KIND_DP): ab_dp, ("ab", KIND_PP): ab_pp,
            ("ab", KIND_TP): 2.0, ("ab", KIND_SP): 2.0})
        plan, _ = select_devices(domain, SMALL_SPEC, SMALL_JOB, ENERGY)
        assert set(plan.participants) == want


class TestObjective:
    def test_weighted_value(self):
        domain = load_testbed("homogeneous-nano4")
        plan = make_dp_plan(domain, model_preset("gpt2-s"), JOB,
                            domain.device_ids)
        result = simulate(plan, domain)
        obj = Objective(weight_energy=2.0, weight_latency=3.0)
        assert obj.value(result) == pytest.approx(
            2.0 * result.energy_per_sample + 3.0 * result.latency_per_sample)

    def test_validation(self):
        for weights in ((-1.0, 0.0), (0.0, 0.0), (math.nan, 1.0),
                        (1.0, math.nan), (math.inf, 0.0), (0.0, math.inf)):
            with pytest.raises(ValueError):
                Objective(*weights)


class TestCheckpointPlanning:
    def test_young_frozen_value(self):
        assert young_checkpoint_interval(10.0, 2000.0) == pytest.approx(200.0)

    def test_young_matches_numerical_minimum(self):
        """sqrt(2 C MTBF) vs numerical argmin of C/tau + tau/(2 MTBF)."""
        for c in (0.1, 1.0, 10.0, 100.0, 1000.0):
            for mtbf in (10.0, 1e3, 1e5, 1e7):
                tau = young_checkpoint_interval(c, mtbf)
                res = minimize_scalar(lambda t: c / t + t / (2.0 * mtbf),
                                      bounds=(1e-6, 1e9), method="bounded",
                                      options={"xatol": 1e-10})
                assert abs(tau - res.x) / res.x < 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            young_checkpoint_interval(-1.0, 100.0)
        with pytest.raises(ValueError):
            young_checkpoint_interval(1.0, 0.0)

    @staticmethod
    def period_mean(plan, domain):
        """Mean wall time of the k iterations of one sync period, the last of
        which syncs, from their exactly rounded sum (math.fsum)."""
        base_len, sync_len = iteration_times(plan, domain)
        k = plan.job.dp_sync_period
        times = itertools.chain(itertools.repeat(base_len, k - 1),
                                [base_len + sync_len])
        return math.fsum(times) / k

    def test_interval_floored_at_iteration_time(self):
        domain = load_testbed("homogeneous-nano4")
        plan = make_dp_plan(domain, model_preset("gpt2-s"), JOB,
                            domain.device_ids)
        # nearly-always-failing model drives tau below one iteration
        fm = FaultModel(1e-3, 1e12, 1e12)
        interval = plan_checkpointing(plan, domain, fm)
        assert interval == pytest.approx(self.period_mean(plan, domain),
                                         rel=1e-12)

    def test_floor_streams_the_iteration_times(self):
        """The floor is the mean iteration of a sync period without a list
        of the period's iteration times (about 32 MB at a period of 10**6)."""
        domain = load_testbed("homogeneous-nano4")
        job = default_edge_job(dp_sync_period=10**6)
        plan = make_dp_plan(domain, model_preset("distilbert"), job,
                            domain.device_ids)
        fm = FaultModel(1e-3, 1e12, 1e12)  # tau below one iteration
        tracemalloc.start()
        try:
            interval = plan_checkpointing(plan, domain, fm)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        assert interval == pytest.approx(self.period_mean(plan, domain),
                                         rel=1e-12)

    def test_floor_at_the_largest_sync_period(self):
        """A sync period of 2**53 iterations costs no more than one of 5."""
        domain = load_testbed("homogeneous-nano4")
        job = default_edge_job(dp_sync_period=2**53)
        plan = make_dp_plan(domain, model_preset("distilbert"), job,
                            domain.device_ids)
        fm = FaultModel(1e-3, 1e12, 1e12)  # tau below one iteration
        start = time.perf_counter()
        interval = plan_checkpointing(plan, domain, fm)
        assert time.perf_counter() - start < 0.5
        base_len, sync_len = iteration_times(plan, domain)
        exact = Fraction(base_len) + Fraction(sync_len) / 2**53
        assert interval == pytest.approx(float(exact), rel=1e-12)

    def test_interval_capped_for_reliable_systems(self):
        domain = load_testbed("homogeneous-nano4")
        plan = make_dp_plan(domain, model_preset("gpt2-s"), JOB,
                            domain.device_ids)
        fm = FaultModel(1e30, 50e6, 50e6)
        assert plan_checkpointing(plan, domain, fm) == CHECKPOINT_INTERVAL_CAP

    def test_free_checkpoints_on_a_failure_free_system(self):
        """An infinite MTBF gives an infinite interval whatever the write
        time, though sqrt(2·0·inf) is NaN; the planner caps it."""
        assert young_checkpoint_interval(0.0, math.inf) == math.inf
        domain = load_testbed("homogeneous-nano4")
        plan = make_dp_plan(domain, model_preset("gpt2-s"), JOB,
                            domain.device_ids)
        fm = FaultModel(math.inf, math.inf, 50e6)
        assert plan_checkpointing(plan, domain, fm) == CHECKPOINT_INTERVAL_CAP

    @pytest.mark.parametrize("interval", [0.0, -1.0, math.nan])
    def test_strategy_refuses_an_interval_that_is_not_positive(self,
                                                               interval):
        domain = load_testbed("homogeneous-nano4")
        plan = make_dp_plan(domain, model_preset("gpt2-s"), JOB,
                            domain.device_ids)
        with pytest.raises(ValueError, match="checkpoint_interval"):
            scheduler.OrchestrationStrategy(plan, interval,
                                            simulate(plan, domain))

    def test_system_mtbf_scales_with_participants(self):
        domain = load_testbed("homogeneous-nano4")
        spec = model_preset("gpt2-s")
        fm = FaultModel(86400.0, 50e6, 50e6)
        single = plan_checkpointing(
            make_dp_plan(domain, spec, JOB, ("nano-0",)), domain, fm)
        four = plan_checkpointing(
            make_dp_plan(domain, spec, JOB, domain.device_ids), domain, fm)
        assert four == pytest.approx(single / 2.0, rel=1e-12)  # sqrt(1/4)


class TestOrchestrate:
    def test_default_uses_full_pool(self):
        domain = load_testbed("heterogeneous-mix4")
        strategy = orchestrate(domain, model_preset("gpt2-s"), JOB,
                               ENERGY)
        assert set(strategy.plan.participants) == set(domain.device_ids)
        assert strategy.checkpoint_interval > 0
        assert not strategy.predicted.oom

    def test_select_flag_can_shrink_the_pool(self):
        domain = load_testbed("heterogeneous-mix4")
        strategy = orchestrate(domain, model_preset("distilbert"), JOB,
                               ENERGY, select=True)
        plan, _ = select_devices(domain, model_preset("distilbert"), JOB,
                                 ENERGY)
        assert set(strategy.plan.participants) == set(plan.participants)

    def test_infeasible_domain_raises(self):
        domain = domain_of(device("a", 1e9, mem=1e6))
        with pytest.raises(InfeasibleError):
            orchestrate(domain, model_preset("gpt2-l"), JOB, Objective())


@st.composite
def planner_inputs(draw, sync_periods=st.integers(1, 9),
                   sizes=st.integers(1, 5)):
    """A pool of ``sizes`` boards (1 to 5) of the three profiles at scaled
    speeds, on links of 10 Mbps to 1 Gbps, a preset model in either mode,
    and a job whose sync period is drawn from ``sync_periods``."""
    boards = []
    for i in range(draw(sizes)):
        board = draw(st.sampled_from((jetson_nano, jetson_tx2, jetson_nx)))(
            f"d{i}")
        speed = draw(st.floats(0.25, 4.0))
        boards.append(dataclasses.replace(
            board, cpu_throughput=board.cpu_throughput * speed,
            gpu_throughput=board.gpu_throughput * speed))
    links = tuple((a.id, b.id, Link(draw(st.sampled_from((1e7, 1e8, 1e9))),
                                    draw(st.sampled_from((0.0, 1e-4, 1e-3)))))
                  for a, b in itertools.combinations(boards, 2))
    domain = domain_of(*boards, links=links).with_mode(
        draw(st.sampled_from(("cpu", "gpu"))))
    spec = model_preset(draw(st.sampled_from(("distilbert", "gpt2-s",
                                              "opt-350m"))))
    job = default_edge_job(global_batch=8 * draw(st.sampled_from((1, 2, 16))),
                           dp_sync_period=draw(sync_periods))
    return domain, spec, job


class TestSyncPeriodPricing:
    """The planner prices each plan over one sync period, whose per-sample
    figures are the plan's long-run rates (renewal-reward)."""

    @settings(max_examples=60, deadline=None)
    @given(planner_inputs(), st.sampled_from((ENERGY, LATENCY)))
    def test_candidates_simulate_one_sync_period(self, inputs, objective):
        domain, spec, job = inputs
        for _, plan, result, reason in candidate_plans(
                domain, domain.device_ids, spec, job, objective):
            if reason is None:
                assert result == simulate(plan, domain,
                                          iterations=job.dp_sync_period)

    @settings(max_examples=60, deadline=None)
    @given(planner_inputs(sync_periods=st.just(5)),
           st.sampled_from((ENERGY, LATENCY)))
    def test_default_period_predicts_the_twenty_iteration_report(
            self, inputs, objective):
        """At the default period of 5, the predicted per-sample figures are
        bitwise those of the default 20-iteration `simulate`: its totals are
        exactly 4 times one period's, a power of two."""
        domain, spec, job = inputs
        for _, plan, result, reason in candidate_plans(
                domain, domain.device_ids, spec, job, objective):
            if reason is None:
                report = simulate(plan, domain, iterations=20)
                assert (result.latency_per_sample, result.energy_per_sample) \
                    == (report.latency_per_sample, report.energy_per_sample)
