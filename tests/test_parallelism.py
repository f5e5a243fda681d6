"""Plan share and schedule tests, including the conservation property suite."""

import functools
import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from edgetrainsim import config_io
from edgetrainsim.devices import (DeviceProfile, NetworkModel, TrustedDomain,
                                  jetson_nano, testbed_preset as load_testbed)
from edgetrainsim.parallelism import (OP_ALLGATHER, OP_ALLREDUCE, OP_P2P,
                                      PlanError, activation_tensor_bytes,
                                      check_memory, comm_template,
                                      grad_sync_bytes, largest_remainder_split,
                                      make_dp_plan, make_plan, make_pp_plan,
                                      make_single_plan, make_sp_plan,
                                      make_tp_plan, sum_in_order)
from edgetrainsim.workload import (TrainingJob, TransformerSpec, model_preset,
                                   param_count, state_bytes)

FP32_JOB = TrainingJob(global_batch=128, seq_len=32, micro_batch=128,
                       dp_sync_period=5)


BUILDERS = {"single": make_single_plan, "dp": make_dp_plan,
            "sp": make_sp_plan, "tp": make_tp_plan, "pp": make_pp_plan}


def device(i, throughput=240e9, mem=4e9):
    return DeviceProfile(f"d{i}", cpu_throughput=throughput / 16,
                         gpu_throughput=throughput, mem_capacity=mem,
                         power_idle=2.0, power_cpu_busy=7.0,
                         power_gpu_busy=10.0, power_net=1.5)


def domain_with(throughputs, mem=4e9):
    devs = tuple(device(i, t, mem) for i, t in enumerate(throughputs))
    return TrustedDomain(devices=devs, network=NetworkModel())


def test_sum_in_order_adds_left_to_right():
    # Python 3.12's compensated sum() gives 1.0 here.
    assert sum_in_order([0.1] * 10) == 0.9999999999999999


class TestLargestRemainderSplit:
    def test_symmetric(self):
        assert largest_remainder_split(128, [1, 1, 1, 1]) == [32, 32, 32, 32]

    def test_exact_proportions(self):
        assert largest_remainder_split(128, [1, 1, 2, 4]) == [16, 16, 32, 64]

    def test_remainder_to_lowest_index(self):
        assert largest_remainder_split(128, [1, 1, 1]) == [43, 43, 42]

    def test_minimum_enforced(self):
        shares = largest_remainder_split(10, [1000, 1, 1])
        assert shares == [8, 1, 1]

    def test_errors(self):
        with pytest.raises(PlanError):
            largest_remainder_split(2, [1, 1, 1])  # fewer units than shares
        with pytest.raises(PlanError):
            largest_remainder_split(4, [])
        with pytest.raises(PlanError):
            largest_remainder_split(4, [0, 0])

    def test_against_bottleneck_oracle(self):
        """The split minimizes max(share/weight) over integer compositions."""
        throughputs = [1.0, 1.0, 1.0]
        total = 128
        got = largest_remainder_split(total, throughputs)
        best = min(
            (max(s / w for s, w in zip(comp, throughputs)))
            for comp in (
                (i, j, total - i - j)
                for i in range(1, total - 1)
                for j in range(1, total - i))
            if all(c >= 1 for c in comp))
        assert max(s / w for s, w in zip(got, throughputs)) == pytest.approx(best)

    def test_conservation_randomized(self):
        rng = random.Random(42)
        for _ in range(300):
            n = rng.randint(1, 8)
            total = rng.randint(n, 500)
            weights = [rng.uniform(0.1, 10.0) for _ in range(n)]
            shares = largest_remainder_split(total, weights)
            assert sum(shares) == total
            assert all(s >= 1 for s in shares)

    def test_conservation_near_2_53(self):
        """Near 2**53 a float quotient can round up to a whole number, so the
        floors overshoot the total; the split takes the excess back."""
        rng = random.Random(53)
        for _ in range(20_000):
            total = rng.randint(2**50, 2**53)
            weights = [rng.uniform(15e9, 1.2e12)
                       for _ in range(rng.randint(2, 12))]
            shares = largest_remainder_split(total, weights)
            assert sum(shares) == total, (total, weights)
            assert all(s >= 1 for s in shares)


class TestPlanConstruction:
    def test_dp_shards_proportional(self):
        domain = domain_with([1e9, 1e9, 2e9, 4e9])
        plan = make_dp_plan(domain, model_preset("gpt2-s"), FP32_JOB,
                            domain.device_ids)
        assert plan.shares == (16, 16, 32, 64)

    def test_sp_lengths(self):
        domain = domain_with([1e9] * 4)
        plan = make_sp_plan(domain, model_preset("gpt2-s"), FP32_JOB,
                            domain.device_ids)
        assert plan.shares == (8, 8, 8, 8)

    def test_tp_equal_split(self):
        domain = domain_with([1e9] * 4)
        plan = make_tp_plan(domain, model_preset("gpt2-s"), FP32_JOB,
                            domain.device_ids)
        assert plan.shares == (3, 3, 3, 3)

    def test_tp_divisibility_error(self):
        domain = domain_with([1e9] * 3)
        with pytest.raises(PlanError) as err:
            make_tp_plan(domain, model_preset("opt-350m"), FP32_JOB,
                         domain.device_ids)
        assert str(err.value) == ("tensor parallelism requires the "
                                  "participant count (3) to divide the head "
                                  "count (16)")

    @given(n=st.integers(1, 12), heads=st.integers(1, 24),
           head_dim=st.integers(1, 16), r=st.integers(1, 8))
    def test_tp_builds_iff_n_divides_the_head_count(self, n, heads, head_dim,
                                                   r):
        """The width is a multiple of the head count, so n | heads already
        gives n | r*h: the head count is TP's one rule, and the MLP splits
        into n equal slices."""
        spec = TransformerSpec("t", 2, heads * head_dim, heads, 100,
                               mlp_ratio=r)
        domain = domain_with([1e9] * n)
        if heads % n:
            with pytest.raises(PlanError, match=rf"head count \({heads}\)"):
                make_tp_plan(domain, spec, FP32_JOB, domain.device_ids)
            return
        plan = make_tp_plan(domain, spec, FP32_JOB, domain.device_ids)
        slices = config_io.plan_to_dict(plan, domain)["partition"][
            "hidden_slice_per_device"]
        assert slices == [r * spec.hidden_size // n] * n
        assert sum(slices) == r * spec.hidden_size

    def test_tp_ratio_8_slices_and_state(self):
        spec = replace(model_preset("gpt2-s"), mlp_ratio=8)
        domain = domain_with([1e9] * 4, mem=64e9)
        plan = make_tp_plan(domain, spec, FP32_JOB, domain.device_ids)
        partition = config_io.plan_to_dict(plan, domain)["partition"]
        assert partition["hidden_slice_per_device"] == [2 * 768] * 4
        # (4 + 2*8)*L*h^2 + V*h parameters at 4 bytes x 4 (fp32 Adam).
        params = 20 * 12 * 768 * 768 + 50257 * 768
        assert param_count(spec) == params
        for check in check_memory(plan, domain).values():
            assert check.state_bytes == params * 16 / 4

    def test_pp_uniform_ranges(self):
        domain = domain_with([1e9] * 4)
        plan = make_pp_plan(domain, model_preset("gpt2-s"), FP32_JOB,
                            domain.device_ids)
        assert plan.shares == (3, 3, 3, 3)
        plan = make_pp_plan(domain, model_preset("distilbert"), FP32_JOB,
                            domain.device_ids)
        assert plan.shares == (2, 2, 1, 1)  # earlier stages larger

    def test_single_holds_one_share(self):
        domain = domain_with([1e9] * 2)
        plan = make_single_plan(domain, model_preset("gpt2-s"), FP32_JOB, "d1")
        assert (plan.participants, plan.shares) == (("d1",), (1,))

    def test_pp_range_validation(self):
        domain = domain_with([1e9] * 2)
        spec = model_preset("gpt2-s")
        for blocks in ((5, 6),  # one block left out
                       (5, 8),  # one block too many
                       (0, 12),  # an empty stage
                       (12,), (4, 4, 4)):  # a stage count off by one
            with pytest.raises(PlanError):
                make_pp_plan(domain, spec, FP32_JOB, domain.device_ids,
                             blocks)
        plan = make_pp_plan(domain, spec, FP32_JOB, domain.device_ids, [5, 7])
        assert plan.shares == (5, 7)

    def test_errors(self):
        domain = domain_with([1e9] * 4)
        small = TrainingJob(2, 2, 1)
        with pytest.raises(PlanError):
            make_dp_plan(domain, model_preset("gpt2-s"), small, domain.device_ids)
        with pytest.raises(PlanError):
            make_sp_plan(domain, model_preset("gpt2-s"), small, domain.device_ids)
        tiny = TransformerSpec("tiny", 2, 64, 4, 10)
        with pytest.raises(PlanError):
            make_pp_plan(domain, tiny, FP32_JOB, domain.device_ids)

    @pytest.mark.parametrize("participants, message", [
        ((), "a plan needs at least one participant"),
        (("d0", "d1", "d1", "d3"), "participants must be distinct"),
        (("d0", "ghost"), "participant 'ghost' is not in the domain")],
        ids=["empty", "repeated", "unknown"])
    @pytest.mark.parametrize("kind", ["dp", "sp", "tp", "pp"])
    def test_one_participant_rule(self, kind, participants, message):
        """Each builder, called directly and through make_plan, refuses an
        empty, repeated or unknown participant list with one PlanError."""
        domain = domain_with([1e9] * 4)
        for build in (BUILDERS[kind], functools.partial(make_plan, kind)):
            with pytest.raises(PlanError) as exc:
                build(domain, model_preset("gpt2-s"), FP32_JOB, participants)
            assert str(exc.value) == message

    def test_single_participant_rule(self):
        """The single builder takes one id; make_plan keeps its own count
        rule for a single-device plan."""
        domain = domain_with([1e9] * 4)
        spec = model_preset("gpt2-s")
        unknown = "participant 'ghost' is not in the domain"
        with pytest.raises(PlanError, match=f"^{unknown}$"):
            make_single_plan(domain, spec, FP32_JOB, "ghost")
        with pytest.raises(PlanError, match=f"^{unknown}$"):
            make_plan("single", domain, spec, FP32_JOB, ["ghost"])
        for participants in ((), ("d0", "d0")):
            with pytest.raises(PlanError, match="^a single-device plan has "
                                                "exactly one participant$"):
                make_plan("single", domain, spec, FP32_JOB, participants)

    def test_plans_reference_inputs_without_copying(self):
        domain = domain_with([1e9] * 2)
        spec = model_preset("gpt2-s")
        plan = make_dp_plan(domain, spec, FP32_JOB, domain.device_ids)
        assert plan.spec is spec and plan.job is FP32_JOB


class TestConservation:
    """Acceptance property: partitions conserve their split dimension."""

    def test_randomized_1000_cases(self):
        rng = random.Random(2024)
        checked = 0
        while checked < 1000:
            n = rng.randint(1, 6)
            heads = n * rng.randint(1, 4)
            hidden = heads * rng.randint(1, 8) * n
            blocks = rng.randint(n, 24)
            spec = TransformerSpec("r", blocks, hidden, heads,
                                   rng.randint(10, 5000))
            micro = rng.randint(1, 8)
            batch = micro * rng.randint(max(1, n // micro + 1), 32)
            job = TrainingJob(batch, rng.randint(n, 256), micro)
            domain = domain_with([rng.uniform(1e9, 1e12) for _ in range(n)])
            ids = domain.device_ids

            totals = {"dp": job.global_batch, "sp": job.seq_len,
                      "tp": spec.num_heads, "pp": spec.num_blocks}
            for make in (make_dp_plan, make_sp_plan, make_tp_plan,
                         make_pp_plan):
                plan = make(domain, spec, job, ids)
                assert len(plan.shares) == n
                assert sum(plan.shares) == totals[plan.kind]
                assert min(plan.shares) >= 1
            checked += 4


class TestCommSchedule:
    def test_dp_single_allreduce_per_period(self):
        domain = domain_with([1e9] * 4)
        plan = make_dp_plan(domain, model_preset("gpt2-s"), FP32_JOB,
                            domain.device_ids)
        (sync,) = comm_template(plan)
        assert (sync.op, sync.count, sync.sync_only) == (OP_ALLREDUCE, 1, True)
        assert sync.participants == domain.device_ids
        # 4 bytes x 123,532,032 params = 494.1 MB
        assert sync.payload_bytes == pytest.approx(494_128_128.0)

    def test_single_device_empty(self):
        domain = domain_with([1e9])
        plan = make_single_plan(domain, model_preset("gpt2-s"), FP32_JOB, "d0")
        assert comm_template(plan) == []

    def test_n1_reduces_to_zero_payload(self):
        domain = domain_with([1e9])
        for maker in (make_dp_plan, make_sp_plan, make_tp_plan, make_pp_plan):
            plan = maker(domain, model_preset("gpt2-s"), FP32_JOB, ("d0",))
            assert comm_template(plan) == []

    def test_pp_event_count(self):
        # S=4 stages, M=16 micro-batches -> 2*16*3 = 96 transfers per iteration.
        job = TrainingJob(128, 32, 8, dp_sync_period=1)
        domain = domain_with([1e9] * 4)
        plan = make_pp_plan(domain, model_preset("gpt2-s"), job,
                            domain.device_ids)
        template = comm_template(plan)
        ids = domain.device_ids
        assert [e.participants for e in template] == list(zip(ids, ids[1:]))
        assert all(e.op == OP_P2P and e.count == 2 * 16 and not e.sync_only
                   for e in template)
        assert sum(e.count for e in template) == 96
        # boundary payload at fp32, m=8: 4*8*32*768 bytes
        assert template[0].payload_bytes == pytest.approx(786_432.0)

    def test_sp_per_block_payload(self):
        # GPT2-S, m=128 at fp32: 4*128*32*768 = 12.58 MB per collective.
        job = TrainingJob(128, 32, 128, dp_sync_period=1)
        domain = domain_with([1e9] * 4)
        spec = model_preset("gpt2-s")
        plan = make_sp_plan(domain, spec, job, domain.device_ids)
        gather, reduce, sync = comm_template(plan)
        assert (gather.op, reduce.op) == (OP_ALLGATHER, OP_ALLREDUCE)
        assert gather.count == reduce.count == spec.num_blocks  # M = 1
        assert gather.payload_bytes == pytest.approx(12_582_912.0)
        assert reduce.payload_bytes == gather.payload_bytes
        assert not gather.sync_only and not reduce.sync_only
        assert (sync.op, sync.sync_only) == (OP_ALLREDUCE, True)

    def test_tp_wire_bytes_per_device(self):
        # 4 ops x 12 blocks x ring cost 2(n-1)/n x 12.58 MB ~ 905 MB/device.
        job = TrainingJob(128, 32, 128, dp_sync_period=1)
        domain = domain_with([1e9] * 4)
        plan = make_tp_plan(domain, model_preset("gpt2-s"), job,
                            domain.device_ids)
        (reduce,) = comm_template(plan)
        assert (reduce.op, reduce.count) == (OP_ALLREDUCE, 4 * 12)
        wire = reduce.count * 2.0 * 3 / 4 * reduce.payload_bytes
        assert wire == pytest.approx(905_969_664.0)
        assert wire / 1e6 == pytest.approx(905, rel=0.01)

    def test_schedule_is_deterministic(self):
        domain = domain_with([1e9] * 4)
        plan = make_sp_plan(domain, model_preset("distilbert"), FP32_JOB,
                            domain.device_ids)
        assert comm_template(plan) == comm_template(plan)

    def test_dp_event_count_independent_of_depth(self):
        domain = domain_with([1e9] * 4)
        shallow = TransformerSpec("s", 2, 768, 12, 50257)
        deep = TransformerSpec("d", 24, 768, 12, 50257)
        counts = [[e.count for e in comm_template(
            make_dp_plan(domain, spec, FP32_JOB, domain.device_ids))]
            for spec in (shallow, deep)]
        assert counts == [[1], [1]]

    def test_sp_tp_events_linear_in_depth(self):
        domain = domain_with([1e9] * 4)
        job = TrainingJob(128, 32, 128, dp_sync_period=1)
        shallow = TransformerSpec("s", 6, 768, 12, 50257)
        deep = TransformerSpec("d", 12, 768, 12, 50257)
        for maker in (make_sp_plan, make_tp_plan):
            ev_s, ev_d = (
                sum(e.count for e in comm_template(
                    maker(domain, spec, job, domain.device_ids))
                    if not e.sync_only)
                for spec in (shallow, deep))
            assert ev_d == 2 * ev_s


class TestMemoryChecks:
    def test_gpt2l_replication_oom_on_nano(self):
        domain = load_testbed("homogeneous-nano4")
        spec = model_preset("gpt2-l")
        for maker in (make_dp_plan, make_sp_plan):
            plan = maker(domain, spec, FP32_JOB, domain.device_ids)
            checks = check_memory(plan, domain)
            assert all(not c.fits for c in checks.values())
            # state alone (~12.35 GB) exceeds the 4 GB board
            assert all(c.state_bytes > 12e9 for c in checks.values())

    def test_gpt2l_tp_fits_under_runtime_defaults(self):
        from edgetrainsim.workload import default_edge_job
        domain = load_testbed("heterogeneous-mix4")
        plan = make_tp_plan(domain, model_preset("gpt2-l"), default_edge_job(),
                            domain.device_ids)
        assert all(c.fits for c in check_memory(plan, domain).values())

    def test_empty_model_fits_everywhere(self):
        domain = load_testbed("homogeneous-nano4")
        tiny = TransformerSpec("tiny", 4, 8, 1, 4)
        for maker in (make_dp_plan, make_sp_plan, make_pp_plan):
            plan = maker(domain, tiny, TrainingJob(8, 8, 1), domain.device_ids)
            assert all(c.fits for c in check_memory(plan, domain).values())

    def test_full_replication_kinds_share_state_footprint(self):
        domain = load_testbed("homogeneous-nano4")
        spec = model_preset("distilbert")
        expected = state_bytes(spec, FP32_JOB)
        single = make_single_plan(domain, spec, FP32_JOB, "nano-0")
        dp = make_dp_plan(domain, spec, FP32_JOB, domain.device_ids)
        sp = make_sp_plan(domain, spec, FP32_JOB, domain.device_ids)
        for plan in (single, dp, sp):
            for c in check_memory(plan, domain).values():
                assert c.state_bytes == pytest.approx(expected)

    def test_tp_pp_state_strictly_decreases_with_devices(self):
        spec = model_preset("gpt2-s")
        job = TrainingJob(128, 32, 8)
        prev_tp, prev_pp = None, None
        for n in (1, 2, 4):
            domain = domain_with([1e9] * n, mem=64e9)
            tp = make_tp_plan(domain, spec, job, domain.device_ids)
            pp = make_pp_plan(domain, spec, job, domain.device_ids)
            tp_state = max(c.state_bytes
                           for c in check_memory(tp, domain).values())
            pp_state = max(c.state_bytes
                           for c in check_memory(pp, domain).values())
            if prev_tp is not None:
                assert tp_state < prev_tp
                assert pp_state < prev_pp
            prev_tp, prev_pp = tp_state, pp_state

    def test_pp_inflight_depth_capped_by_microbatches(self):
        spec = model_preset("gpt2-s")
        domain = domain_with([1e9] * 4, mem=64e9)
        streamed = TrainingJob(128, 32, 8)    # M=16 > S=4 -> depth 4
        unbatched = TrainingJob(128, 32, 128)  # M=1 -> depth 1
        act_streamed = max(c.activation_bytes for c in check_memory(
            make_pp_plan(domain, spec, streamed, domain.device_ids),
            domain).values())
        act_single = max(c.activation_bytes for c in check_memory(
            make_pp_plan(domain, spec, unbatched, domain.device_ids),
            domain).values())
        # one full batch per buffer vs 4 buffers of a 1/16 batch
        assert act_single == pytest.approx(act_streamed * 4)


def test_activation_and_grad_payload_formulas():
    spec = model_preset("gpt2-s")
    assert activation_tensor_bytes(spec, FP32_JOB) == pytest.approx(
        4 * 128 * 32 * 768)
    assert grad_sync_bytes(spec, FP32_JOB) == pytest.approx(4 * 123_532_032)

