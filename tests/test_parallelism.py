"""Partition and schedule tests, including the conservation property suite."""

import itertools
import random

import pytest

from edgetrainsim.devices import (DeviceProfile, NetworkModel, TrustedDomain,
                                  jetson_nano, testbed_preset as load_testbed)
from edgetrainsim.parallelism import (OP_ALLGATHER, OP_ALLREDUCE, OP_P2P,
                                      PlanError, activation_tensor_bytes,
                                      check_memory, comm_template,
                                      grad_sync_bytes, largest_remainder_split,
                                      make_dp_plan, make_pp_plan,
                                      make_single_plan, make_sp_plan,
                                      make_tp_plan, uniform_stage_ranges)
from edgetrainsim.workload import (TrainingJob, TransformerSpec, model_preset,
                                   state_bytes)

FP32_JOB = TrainingJob(global_batch=128, seq_len=32, micro_batch=128,
                       dp_sync_period=5)


def device(i, throughput=240e9, mem=4e9):
    return DeviceProfile(f"d{i}", cpu_throughput=throughput / 16,
                         gpu_throughput=throughput, mem_capacity=mem,
                         power_idle=2.0, power_cpu_busy=7.0,
                         power_gpu_busy=10.0, power_net=1.5)


def domain_with(throughputs, mem=4e9):
    devs = tuple(device(i, t, mem) for i, t in enumerate(throughputs))
    return TrustedDomain(devices=devs, network=NetworkModel())


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


class TestPlanConstruction:
    def test_dp_shards_proportional(self):
        domain = domain_with([1e9, 1e9, 2e9, 4e9])
        plan = make_dp_plan(domain, model_preset("gpt2-s"), FP32_JOB,
                            domain.device_ids)
        assert plan.partition.shard_sizes == (16, 16, 32, 64)
        assert plan.partition.sync_period == 5

    def test_sp_lengths(self):
        domain = domain_with([1e9] * 4)
        plan = make_sp_plan(domain, model_preset("gpt2-s"), FP32_JOB,
                            domain.device_ids)
        assert plan.partition.subseq_lengths == (8, 8, 8, 8)

    def test_tp_equal_split(self):
        domain = domain_with([1e9] * 4)
        plan = make_tp_plan(domain, model_preset("gpt2-s"), FP32_JOB,
                            domain.device_ids)
        assert plan.partition.heads_per_device == (3, 3, 3, 3)
        assert sum(plan.partition.hidden_slice_per_device) == 4 * 768

    def test_tp_divisibility_error(self):
        domain = domain_with([1e9] * 3)
        with pytest.raises(PlanError):
            make_tp_plan(domain, model_preset("opt-350m"), FP32_JOB,
                         domain.device_ids)

    def test_pp_uniform_ranges(self):
        assert uniform_stage_ranges(12, 4) == [(0, 3), (3, 6), (6, 9), (9, 12)]
        domain = domain_with([1e9] * 4)
        plan = make_pp_plan(domain, model_preset("gpt2-s"), FP32_JOB,
                            domain.device_ids)
        assert [r for _, r in plan.partition.stages] == \
            [(0, 3), (3, 6), (6, 9), (9, 12)]
        assert plan.partition.micro_batch_count == 1

    def test_pp_range_validation(self):
        domain = domain_with([1e9] * 2)
        spec = model_preset("gpt2-s")
        with pytest.raises(PlanError):
            make_pp_plan(domain, spec, FP32_JOB, domain.device_ids,
                         [(0, 5), (6, 12)])  # gap
        with pytest.raises(PlanError):
            make_pp_plan(domain, spec, FP32_JOB, domain.device_ids,
                         [(0, 5), (5, 11)])  # incomplete

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

            dp = make_dp_plan(domain, spec, job, ids)
            assert sum(dp.partition.shard_sizes) == job.global_batch
            assert min(dp.partition.shard_sizes) >= 1

            sp = make_sp_plan(domain, spec, job, ids)
            assert sum(sp.partition.subseq_lengths) == job.seq_len
            assert min(sp.partition.subseq_lengths) >= 1

            tp = make_tp_plan(domain, spec, job, ids)
            assert sum(tp.partition.heads_per_device) == spec.num_heads
            assert (sum(tp.partition.hidden_slice_per_device)
                    == spec.mlp_ratio * spec.hidden_size)

            pp = make_pp_plan(domain, spec, job, ids)
            ranges = [r for _, r in pp.partition.stages]
            assert ranges[0][0] == 0 and ranges[-1][1] == spec.num_blocks
            for (_, e0), (s1, _) in zip(ranges, ranges[1:]):
                assert e0 == s1
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
        assert (sync.phase, sync.sync_only) == ("gradient-sync", True)

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
                    if e.phase.startswith("block"))
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

