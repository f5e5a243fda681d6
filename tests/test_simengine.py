"""Simulation engine tests: timing oracles, accounting, energy, faults."""

import random

import pytest

from edgetrainsim.devices import (DeviceProfile, FaultModel, Link, NetworkModel,
                                  TrustedDomain, testbed_preset as load_testbed)
from edgetrainsim.parallelism import (OP_ALLGATHER, OP_ALLREDUCE, OP_P2P,
                                      activation_tensor_bytes, comm_template,
                                      grad_sync_bytes, make_dp_plan,
                                      make_pp_plan,
                                      make_single_plan, make_sp_plan,
                                      make_tp_plan)
from edgetrainsim.simengine import (SimulationError, collective_time,
                                    inject_faults, iteration_times, simulate)
from edgetrainsim.workload import (TrainingJob, flops_per_iteration,
                                   model_preset, default_edge_job)

JOB = default_edge_job()


def make_domain(throughputs, bandwidth=1e9, latency=1e-4, mem=4e9,
                power=(2.0, 7.0, 10.0, 1.5), links=()):
    devices = tuple(
        DeviceProfile(f"d{i}", cpu_throughput=t / 16, gpu_throughput=t,
                      mem_capacity=mem, power_idle=power[0],
                      power_cpu_busy=power[1], power_gpu_busy=power[2],
                      power_net=power[3])
        for i, t in enumerate(throughputs))
    network = NetworkModel(default_bandwidth=bandwidth,
                           default_latency=latency, links=tuple(links))
    return TrustedDomain(devices=devices, network=network)


def ring_oracle(op, payload, participants, network):
    """Independent step-by-step ring walk used as the timing oracle."""
    participants = tuple(participants)
    n = len(participants)
    if op == OP_P2P:
        link = network.link_between(*participants)
        return payload / link.bytes_per_second + link.latency
    chunk = payload / n
    steps = 2 * (n - 1) if op == OP_ALLREDUCE else (n - 1)
    total = 0.0
    for _ in range(steps):
        step_time = 0.0
        for i in range(n):
            link = network.link_between(participants[i],
                                        participants[(i + 1) % n])
            step_time = max(step_time,
                            chunk / link.bytes_per_second + link.latency)
        total += step_time
    return total


class TestCollectiveTime:
    def test_allreduce_frozen_value(self):
        # 494.1 MB over 4 nodes at 125 MB/s, zero latency: 2*3*(P/4)/125e6.
        domain = make_domain([1e9] * 4, latency=0.0)
        got = collective_time(OP_ALLREDUCE, 494_128_128.0, domain.device_ids,
                              domain.network)
        assert got == pytest.approx(5.929537536, rel=1e-12)

    def test_p2p_zero_bytes_is_latency_only(self):
        domain = make_domain([1e9] * 2, latency=1e-3)
        got = collective_time(OP_P2P, 0.0, domain.device_ids, domain.network)
        assert got == pytest.approx(1e-3)

    def test_n2_allreduce_closed_form(self):
        domain = make_domain([1e9] * 2, latency=1e-4)
        payload = 1e8
        got = collective_time(OP_ALLREDUCE, payload, domain.device_ids,
                              domain.network)
        assert got == pytest.approx(payload / 125e6 + 2e-4, rel=1e-12)

    def test_matches_ring_oracle_randomized(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(2, 6)
            ids = [f"d{i}" for i in range(n)]
            links = tuple(
                (ids[i], ids[j], Link(rng.uniform(1e7, 1e10),
                                      rng.uniform(0, 1e-3)))
                for i in range(n) for j in range(i + 1, n))
            network = NetworkModel(links=links)
            payload = rng.uniform(1.0, 1e9)
            op = rng.choice([OP_ALLREDUCE, OP_ALLGATHER])
            got = collective_time(op, payload, ids, network)
            want = ring_oracle(op, payload, ids, network)
            assert got == pytest.approx(want, rel=1e-9)
        # and point-to-point
        network = NetworkModel(links=(("a", "b", Link(3e8, 2e-4)),))
        assert collective_time(OP_P2P, 1e6, ("a", "b"), network) == \
            pytest.approx(ring_oracle(OP_P2P, 1e6, ("a", "b"), network))

    def test_errors(self):
        domain = make_domain([1e9] * 3)
        with pytest.raises(SimulationError):
            collective_time(OP_P2P, 1.0, domain.device_ids, domain.network)
        with pytest.raises(SimulationError):
            collective_time(OP_ALLREDUCE, 1.0, ("d0",), domain.network)


class TestSingleDevice:
    def test_gpt2s_nano_latency(self):
        """3.05e12 FLOP / 240 GFLOP/s ~ 12.7 s/iter -> ~99 ms/sample."""
        domain = load_testbed("homogeneous-nano4")
        spec = model_preset("gpt2-s")
        plan = make_single_plan(domain, spec, JOB, "nano-0")
        result = simulate(plan, domain)
        expected_iter = flops_per_iteration(spec, JOB) / 240e9
        assert expected_iter == pytest.approx(12.71, rel=1e-3)
        assert result.latency_per_sample == pytest.approx(expected_iter / 128,
                                                          rel=1e-12)
        assert result.latency_per_sample == pytest.approx(0.0993, rel=1e-2)

    def test_zero_power_profile_zero_energy(self):
        domain = make_domain([1e9], power=(0.0, 0.0, 0.0, 0.0))
        plan = make_single_plan(domain, model_preset("distilbert"), JOB, "d0")
        result = simulate(plan, domain)
        assert result.energy_per_sample == 0.0

    def test_oom_short_circuit(self):
        domain = load_testbed("homogeneous-nano4")
        plan = make_single_plan(domain, model_preset("gpt2-l"), JOB, "nano-0")
        result = simulate(plan, domain)
        assert result.oom
        assert result.oom_devices == ("nano-0",)
        assert result.latency_per_sample is None
        assert result.energy_per_sample is None

    def test_iterations_validation(self):
        domain = make_domain([1e9])
        plan = make_single_plan(domain, model_preset("distilbert"), JOB, "d0")
        with pytest.raises(SimulationError):
            simulate(plan, domain, iterations=0)


class TestClosedForms:
    """Acceptance oracle: engine results match independent per-kind formulas."""

    def iter_oracle(self, plan, domain, sync):
        spec, job = plan.spec, plan.job
        net = domain.network
        thr = {p: max(domain.device(p).gpu_throughput,
                      domain.device(p).cpu_throughput)
               for p in plan.participants}
        flops = flops_per_iteration(spec, job)
        act = activation_tensor_bytes(spec, job)
        n = len(plan.participants)
        m_count = job.micro_batch_count
        t_grad = ring_oracle(OP_ALLREDUCE, grad_sync_bytes(spec, job),
                             plan.participants, net)
        if plan.kind == "dp":
            base = max(flops * s / job.global_batch / thr[p]
                       for p, s in zip(plan.participants,
                                       plan.partition.shard_sizes))
            return base + (t_grad if sync else 0.0)
        if plan.kind == "sp":
            base = max(flops * ln / job.seq_len / thr[p]
                       for p, ln in zip(plan.participants,
                                        plan.partition.subseq_lengths))
            coll = m_count * spec.num_blocks * (
                ring_oracle(OP_ALLGATHER, act, plan.participants, net)
                + ring_oracle(OP_ALLREDUCE, act, plan.participants, net))
            return base + coll + (t_grad if sync else 0.0)
        if plan.kind == "tp":
            base = max(flops / n / thr[p] for p in plan.participants)
            coll = m_count * spec.num_blocks * 4 * ring_oracle(
                OP_ALLREDUCE, act, plan.participants, net)
            return base + coll
        if plan.kind == "pp":
            per_mb = max(
                flops * (e - s) / spec.num_blocks / m_count / thr[p]
                for p, (s, e) in plan.partition.stages)
            transfer = max(
                ring_oracle(OP_P2P, act,
                            (plan.participants[i], plan.participants[i + 1]),
                            net)
                for i in range(n - 1))
            return (m_count + n - 1) * (per_mb + transfer)
        raise AssertionError(plan.kind)

    @pytest.mark.parametrize("testbed", ["homogeneous-nano4",
                                         "heterogeneous-mix4"])
    def test_all_kinds_match(self, testbed):
        domain = load_testbed(testbed)
        spec = model_preset("gpt2-s")
        ids = domain.device_ids
        plans = [make_dp_plan(domain, spec, JOB, ids),
                 make_sp_plan(domain, spec, JOB, ids),
                 make_tp_plan(domain, spec, JOB, ids),
                 make_pp_plan(domain, spec, JOB, ids)]
        iters, k = 20, JOB.dp_sync_period
        for plan in plans:
            result = simulate(plan, domain, iterations=iters)
            syncs = sum(1 for g in range(iters) if (g + 1) % k == 0)
            expected = ((iters - syncs) * self.iter_oracle(plan, domain, False)
                        + syncs * self.iter_oracle(plan, domain, True))
            assert result.makespan == pytest.approx(expected, rel=1e-6)

    def test_dp_n2_halving_without_comm(self):
        job = default_edge_job(dp_sync_period=10 ** 9)
        domain = make_domain([240e9, 240e9])
        spec = model_preset("gpt2-s")
        single = simulate(make_single_plan(domain, spec, job, "d0"), domain)
        dp = simulate(make_dp_plan(domain, spec, job, domain.device_ids), domain)
        assert dp.latency_per_sample == pytest.approx(
            single.latency_per_sample / 2, rel=1e-12)
        assert dp.total_comm_bytes == 0.0

    def test_scale_free_doubling(self):
        spec = model_preset("gpt2-s")
        base = make_domain([240e9, 240e9, 480e9, 960e9], latency=0.0)
        fast = make_domain([480e9, 480e9, 960e9, 1920e9], bandwidth=2e9,
                           latency=0.0)
        for maker in (make_dp_plan, make_sp_plan, make_tp_plan, make_pp_plan):
            slow_lat = simulate(maker(base, spec, JOB, base.device_ids),
                                base).latency_per_sample
            fast_lat = simulate(maker(fast, spec, JOB, fast.device_ids),
                                fast).latency_per_sample
            assert fast_lat == pytest.approx(slow_lat / 2, rel=1e-12)


class TestAccounting:
    @pytest.mark.parametrize("testbed", ["homogeneous-nano4",
                                         "heterogeneous-mix4"])
    def test_per_device_closure(self, testbed):
        domain = load_testbed(testbed)
        spec = model_preset("gpt2-s")
        ids = domain.device_ids
        plans = [make_single_plan(domain, spec, JOB, ids[0]),
                 make_dp_plan(domain, spec, JOB, ids),
                 make_sp_plan(domain, spec, JOB, ids),
                 make_tp_plan(domain, spec, JOB, ids),
                 make_pp_plan(domain, spec, JOB, ids)]
        for plan in plans:
            result = simulate(plan, domain)
            for usage in result.per_device.values():
                closure = (usage.compute_time + usage.comm_time
                           + usage.idle_time)
                assert abs(closure - result.makespan) <= 1e-9
                assert usage.idle_time >= -1e-9

    def test_energy_bounds(self):
        domain = load_testbed("heterogeneous-mix4")
        spec = model_preset("opt-350m")
        plan = make_dp_plan(domain, spec, JOB, domain.device_ids)
        result = simulate(plan, domain)
        for p, usage in result.per_device.items():
            dev = domain.device(p)
            lower = dev.power_idle * result.makespan
            upper = (dev.power_gpu_busy + dev.power_net) * result.makespan
            assert lower - 1e-9 <= usage.energy <= upper + 1e-9

    def test_dp_comm_bytes(self):
        domain = load_testbed("homogeneous-nano4")
        spec = model_preset("gpt2-s")
        plan = make_dp_plan(domain, spec, JOB, domain.device_ids)
        result = simulate(plan, domain, iterations=20)
        # k=5 -> 4 sync points in 20 iterations, one gradient AllReduce each
        assert result.comm_bytes_by_op == pytest.approx(
            {OP_ALLREDUCE: 4 * grad_sync_bytes(spec, JOB)})

    def test_sp_tp_comm_bytes_linear_in_depth(self):
        from edgetrainsim.workload import TransformerSpec
        domain = load_testbed("homogeneous-nano4")
        shallow = TransformerSpec("s", 6, 768, 12, 50257)
        deep = TransformerSpec("d", 12, 768, 12, 50257)
        ids = domain.device_ids
        tp_s = simulate(make_tp_plan(domain, shallow, JOB, ids), domain)
        tp_d = simulate(make_tp_plan(domain, deep, JOB, ids), domain)
        assert tp_d.total_comm_bytes == pytest.approx(
            2 * tp_s.total_comm_bytes, rel=1e-12)
        sp_s = simulate(make_sp_plan(domain, shallow, JOB, ids), domain)
        sp_d = simulate(make_sp_plan(domain, deep, JOB, ids), domain)
        assert sp_d.comm_bytes_by_op[OP_ALLGATHER] == pytest.approx(
            2 * sp_s.comm_bytes_by_op[OP_ALLGATHER], rel=1e-12)

    def test_warmup_excluded_from_metrics(self):
        domain = load_testbed("homogeneous-nano4")
        plan = make_dp_plan(domain, model_preset("gpt2-s"), JOB,
                            domain.device_ids)
        times = iteration_times(plan, domain, 20, warmup=2)
        result = simulate(plan, domain, iterations=20, warmup=2)
        assert result.makespan == pytest.approx(sum(times), rel=1e-12)
        assert result.samples_processed == 20 * 128


class TestTemplateConsumers:
    """Per-device comm time, bytes by op and the trace all follow the template."""

    KINDS = {"single": lambda d, s, j, ids: make_single_plan(d, s, j, ids[2]),
             "dp": make_dp_plan, "sp": make_sp_plan, "tp": make_tp_plan,
             "pp": make_pp_plan}

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_trace_and_bytes_match_template(self, kind):
        ids = ("d0", "d1", "d2", "d3")
        bandwidths = iter((10e6, 1e9, 37e6, 250e6, 80e6, 555e6))
        links = tuple((ids[i], ids[j], Link(next(bandwidths), 3e-4))
                      for i in range(4) for j in range(i + 1, 4))
        domain = make_domain([240e9, 665e9, 1.2e12, 240e9], links=links)
        job = default_edge_job(global_batch=96)
        plan = self.KINDS[kind](domain, model_preset("distilbert"), job, ids)
        iters, warmup = 12, 2
        result = simulate(plan, domain, iterations=iters, warmup=warmup,
                          record_trace=True)
        assert not result.oom
        for p, usage in result.per_device.items():
            comm = sum(r.duration for r in result.trace
                       if r.device == p and r.kind != "compute")
            assert comm == pytest.approx(usage.comm_time, rel=1e-12, abs=0.0)
        syncs = sum(1 for g in range(warmup, warmup + iters)
                    if (g + 1) % job.dp_sync_period == 0)
        expected = {}
        for e in comm_template(plan):
            runs = e.count * (syncs if e.sync_only else iters)
            expected[e.op] = expected.get(e.op, 0.0) + runs * e.payload_bytes
        assert result.comm_bytes_by_op == pytest.approx(expected, rel=1e-12)


class TestTrace:
    def test_trace_invariants(self):
        domain = load_testbed("homogeneous-nano4")
        plan = make_dp_plan(domain, model_preset("gpt2-s"), JOB,
                            domain.device_ids)
        result = simulate(plan, domain, iterations=5, record_trace=True)
        times = [r.time for r in result.trace]
        assert times == sorted(times)
        # every collective appears once per participant at the same offset
        sync_records = [r for r in result.trace if r.kind == OP_ALLREDUCE]
        assert len(sync_records) == len(domain.device_ids)  # one sync in 5 iters
        assert len({r.time for r in sync_records}) == 1
        assert {r.device for r in sync_records} == set(domain.device_ids)

    def test_no_trace_by_default(self):
        domain = load_testbed("homogeneous-nano4")
        plan = make_single_plan(domain, model_preset("gpt2-s"), JOB, "nano-0")
        assert simulate(plan, domain).trace is None


class TestFaultModelInvariance:
    def test_simulate_ignores_fault_model(self):
        domain = load_testbed("homogeneous-nano4")
        plan = make_dp_plan(domain, model_preset("gpt2-s"), JOB,
                            domain.device_ids)
        plain = simulate(plan, domain)
        with_model = simulate(plan, domain,
                              fault_model=FaultModel(1.0, 1.0, 1.0, rng_seed=7))
        assert plain.makespan == with_model.makespan
        assert plain.latency_per_sample == with_model.latency_per_sample
        assert plain.energy_per_sample == with_model.energy_per_sample
        assert plain.comm_bytes_by_op == with_model.comm_bytes_by_op


class TestFaultInjection:
    def setup_plan(self):
        domain = load_testbed("homogeneous-nano4")
        spec = model_preset("gpt2-s")
        plan = make_single_plan(domain, spec, JOB, "nano-0")
        return domain, spec, plan

    def test_determinism(self):
        domain, _, plan = self.setup_plan()
        fm = FaultModel(100.0, 50e6, 50e6, rng_seed=3)
        a = inject_faults(plan, domain, fm, iterations=10,
                          checkpoint_interval=30.0)
        b = inject_faults(plan, domain, fm, iterations=10,
                          checkpoint_interval=30.0)
        assert (a.wall_time, a.failures, a.executed_iterations,
                a.checkpoint_writes, a.energy_estimate) == \
            (b.wall_time, b.failures, b.executed_iterations,
             b.checkpoint_writes, b.energy_estimate)

    def test_infinite_mtbf_matches_fault_free(self):
        domain, _, plan = self.setup_plan()
        fm = FaultModel(1e18, 50e6, 50e6)
        report = inject_faults(plan, domain, fm, iterations=20,
                               checkpoint_interval=1e9)
        assert report.failures == 0
        assert report.checkpoint_writes == 0
        assert report.wall_time == pytest.approx(report.fault_free.makespan,
                                                 rel=1e-12)
        assert report.goodput_samples_per_s == pytest.approx(
            report.fault_free.samples_processed / report.fault_free.makespan,
            rel=1e-12)

    def test_forced_single_failure_hand_trace(self):
        """One failure mid-iteration-4 with a checkpoint after iteration 2."""
        domain, spec, plan = self.setup_plan()
        t = flops_per_iteration(spec, JOB) / 240e9
        shard = 123_532_032 * 2.0 * 4.0  # state bytes at runtime precision
        fm = FaultModel(1e18, 50e6, 50e6)
        w = r = shard / 50e6
        interval = 1.5 * t
        fail_at = 3.5 * t + w
        report = inject_faults(plan, domain, fm, iterations=5,
                               checkpoint_interval=interval,
                               failure_times=[fail_at])
        assert report.failures == 1
        assert report.executed_iterations == 6
        assert report.completed_iterations == 5
        assert report.checkpoint_writes == 2
        assert report.rework_time == pytest.approx(1.5 * t, rel=1e-12)
        assert report.reload_time == pytest.approx(r, rel=1e-12)
        assert report.checkpoint_time == pytest.approx(2 * w, rel=1e-12)
        assert report.wall_time == pytest.approx(6.5 * t + 2 * w + r,
                                                 rel=1e-12)
        # energy: replayed iterations plus idle+net draw during overheads
        per_iter = report.fault_free.total_energy / 5
        assert report.energy_estimate == pytest.approx(
            per_iter * 6 + (2.0 + 1.5) * (r + 2 * w), rel=1e-9)

    def test_halving_mtbf_never_helps_on_average(self):
        domain = load_testbed("homogeneous-nano4")
        plan = make_single_plan(domain, model_preset("distilbert"), JOB,
                                "nano-0")
        goodput = {100.0: [], 50.0: []}
        for seed in range(30):
            for mtbf in goodput:
                fm = FaultModel(mtbf, 50e6, 50e6, rng_seed=seed)
                report = inject_faults(plan, domain, fm, iterations=20,
                                       checkpoint_interval=20.0)
                goodput[mtbf].append(report.goodput_samples_per_s)
        assert (sum(goodput[50.0]) / 30) <= (sum(goodput[100.0]) / 30)

    def test_rejects_infeasible_plan(self):
        domain = load_testbed("homogeneous-nano4")
        plan = make_single_plan(domain, model_preset("gpt2-l"), JOB, "nano-0")
        with pytest.raises(SimulationError):
            inject_faults(plan, domain, FaultModel(100.0, 50e6, 50e6))
