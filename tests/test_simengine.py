"""Simulation engine tests: timing oracles, accounting, energy, faults."""

import contextlib
import heapq
import itertools
import math
import os
import random
import signal
import tracemalloc
import warnings
from dataclasses import replace

import pytest
from hypothesis import (Phase, assume, example, given, settings,
                        strategies as st)

from edgetrainsim import simengine
from edgetrainsim.devices import (DEVICE_PROFILE_FACTORIES,
                                  MAX_DEVICE_ID_CHARS, DeviceProfile,
                                  FaultModel, Link, NetworkModel,
                                  TrustedDomain, testbed_preset as load_testbed)
from edgetrainsim.parallelism import (ALL_KINDS, KIND_PP, KIND_SINGLE,
                                      OP_ALLGATHER, OP_ALLREDUCE, OP_P2P,
                                      PlanError, activation_tensor_bytes,
                                      comm_template, grad_sync_bytes,
                                      make_dp_plan, make_plan, make_pp_plan,
                                      make_single_plan, make_sp_plan,
                                      make_tp_plan)
from edgetrainsim.scheduler import (CHECKPOINT_INTERVAL_CAP, Objective,
                                    orchestrate, plan_checkpointing)
from edgetrainsim.simengine import (TRACE_HEADER, DeviceUsage,
                                    OutOfMemoryError, SimulationError,
                                    _failure_stream,
                                    _profile_iteration, _trace_shapes,
                                    collective_time, inject_faults,
                                    iteration_times, simulate, write_trace)
from edgetrainsim.workload import (TrainingJob, flops_per_iteration,
                                   model_preset, default_edge_job)

JOB = default_edge_job()


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block after ``seconds``, so that a replay
    that never returns fails its test instead of blocking the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"no return within {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def merged_failure_stream(fault_model, num_devices):
    """The failure model's reference: one exponential renewal process of mean
    ``mtbf_per_device`` per device, each from its own child of the seed's
    ``SeedSequence``, merged in time order."""
    import numpy as np
    seqs = np.random.SeedSequence(fault_model.rng_seed).spawn(num_devices)
    rngs = [np.random.default_rng(s) for s in seqs]

    def device_times(rng):
        t = 0.0
        while True:
            t += fault_model.mtbf_per_device * rng.standard_exponential()
            yield t

    return heapq.merge(*(device_times(r) for r in rngs))


def scalar_failure_stream(fault_model, num_devices):
    """The system failure stream by its rule: one draw u of
    ``random.Random(rng_seed)`` per failure and ``t += scale * x`` for the
    standard exponential ``x = -log(1 - u)``, at the system MTBF
    ``mtbf_per_device / num_devices``."""
    rng = random.Random(fault_model.rng_seed)
    scale = fault_model.mtbf_per_device / num_devices
    t = 0.0
    while True:
        x = -math.log(1.0 - rng.random())
        t += scale * x
        yield t


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


def slow_link_dp(k=5):
    """DP of distilbert on two Nanos joined by a 1e-300 bps link, sync
    period ``k``: its gradient sync takes inf seconds, its compute does not."""
    domain = TrustedDomain(
        devices=tuple(DEVICE_PROFILE_FACTORIES["nano"](f"nano-{i}")
                      for i in range(2)),
        network=NetworkModel(default_bandwidth=1e-300))
    job = default_edge_job(dp_sync_period=k)
    return domain, make_dp_plan(domain, model_preset("distilbert"), job,
                                domain.device_ids)


class TestRejection:
    """`SimulationResult.rejection` is the one rule for a usable run."""

    def test_a_run_that_fits_is_usable(self):
        domain = load_testbed("homogeneous-nano4")
        plan = make_dp_plan(domain, model_preset("gpt2-s"), JOB,
                            domain.device_ids)
        assert simulate(plan, domain).rejection is None

    def test_out_of_memory_names_its_devices(self):
        domain = load_testbed("homogeneous-nano4")
        plan = make_dp_plan(domain, model_preset("gpt2-l"), JOB,
                            domain.device_ids)
        assert simulate(plan, domain).rejection == \
            "out of memory on nano-0, nano-1, nano-2, nano-3"

    def test_a_non_finite_figure_is_a_rejection(self):
        domain, plan = slow_link_dp()
        result = simulate(plan, domain, iterations=5)
        assert result.makespan == math.inf
        assert result.rejection == \
            "latency or energy per sample is not finite"

    @pytest.mark.parametrize("iterations", [1, 3, 4])
    def test_a_run_with_no_sync_has_no_sync_term(self, iterations):
        """Fewer iterations than the sync period run no sync, so the sync
        that would never end adds nothing: not ``0 * inf``, which is NaN."""
        domain, plan = slow_link_dp()
        result = simulate(plan, domain, iterations=iterations)
        base_len, sync_len = iteration_times(plan, domain)
        assert sync_len == math.inf and math.isfinite(base_len)
        assert result.makespan == iterations * base_len
        assert result.rejection is None
        assert result.comm_bytes_by_op == {}
        for u in result.per_device.values():
            assert (u.comm_time, u.idle_time) == (0.0, 0.0)
            assert u.compute_time == result.makespan
            assert math.isfinite(u.energy)


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
                       for p, s in zip(plan.participants, plan.shares))
            return base + (t_grad if sync else 0.0)
        if plan.kind == "sp":
            base = max(flops * ln / job.seq_len / thr[p]
                       for p, ln in zip(plan.participants, plan.shares))
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
            # M + S - 1 slots, each one micro-batch (1/M) of the slowest
            # stage's compute and of the busiest device's transfers: every
            # micro-batch crosses each of its boundaries forward and back.
            base = max(flops * b / spec.num_blocks / thr[p]
                       for p, b in zip(plan.participants, plan.shares))
            transfers = [0.0] * n
            for i in range(n - 1):
                t = ring_oracle(OP_P2P, act, plan.participants[i:i + 2], net)
                transfers[i] += 2 * m_count * t
                transfers[i + 1] += 2 * m_count * t
            return (base + max(transfers)) * (m_count + n - 1) / m_count
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

    def test_sync_count_is_floor_of_iterations_over_period(self):
        """Iteration g syncs when k divides g + 1: floor(I/k) syncs."""
        domain = load_testbed("homogeneous-nano4")
        spec = model_preset("gpt2-s")
        for k in (1, 3, 5, 7):
            job = default_edge_job(dp_sync_period=k)
            plan = make_dp_plan(domain, spec, job, domain.device_ids)
            base_len, sync_len = iteration_times(plan, domain)
            for iters in range(1, 3 * k + 2):
                n_sync = iters // k
                result = simulate(plan, domain, iterations=iters)
                assert result.makespan == pytest.approx(
                    iters * base_len + n_sync * sync_len, rel=1e-12)
                assert result.comm_bytes_by_op == pytest.approx(
                    {OP_ALLREDUCE: n_sync * grad_sync_bytes(spec, job)}
                    if n_sync else {})
                assert result.samples_processed == iters * 128


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
        iters = 12
        result = simulate(plan, domain, iterations=iters)
        assert not result.oom
        shapes = _trace_shapes(_profile_iteration(plan, domain))
        rows = [row for g in range(iters)
                for row in shapes[(g + 1) % job.dp_sync_period == 0]]
        for p, usage in result.per_device.items():
            comm = sum(d for _, device, kind, d, _ in rows
                       if device == p and kind != "compute")
            assert comm == pytest.approx(usage.comm_time, rel=1e-12, abs=0.0)
        syncs = sum(1 for g in range(iters)
                    if (g + 1) % job.dp_sync_period == 0)
        expected = {}
        for e in comm_template(plan):
            runs = e.count * (syncs if e.sync_only else iters)
            expected[e.op] = expected.get(e.op, 0.0) + runs * e.payload_bytes
        assert result.comm_bytes_by_op == pytest.approx(expected, rel=1e-12)


def read_trace(path):
    """(time, device, kind, duration, bytes) rows of a written trace table."""
    lines = path.read_text().splitlines()
    assert lines[0] + "\n" == TRACE_HEADER
    return [(float(t), p, kind, float(d), float(b))
            for t, p, kind, d, b in (line.split("\t") for line in lines[1:])]


def materialised_trace(plan, domain, iterations):
    """Reference trace table: one record per group, device and iteration,
    read from the phase timeline, one stable sort of them all by (time,
    device), and each record formatted on its own.
    """
    prof = _profile_iteration(plan, domain)
    k = plan.job.dp_sync_period
    records, t0 = [], 0.0
    for g in range(iterations):
        sync = (g + 1) % k == 0
        records += [(t0 + start, p, kind, d, payload)
                    for start, kind, payload, sync_only, seconds in prof.groups
                    if sync or not sync_only
                    for p, d in seconds.items() if d > 0]
        t0 += prof.base_len + (prof.sync_len if sync else 0.0)
    records.sort(key=lambda r: (r[0], r[1]))
    return TRACE_HEADER + "".join(f"{t:.9f}\t{p}\t{kind}\t{d:.9f}\t{b:.1f}\n"
                                  for t, p, kind, d, b in records)


@st.composite
def random_plans(draw, sync_periods=st.integers(1, 7)):
    """Any kind on 2-7 nano/tx2/nx devices over random per-link networks."""
    kinds = draw(st.lists(st.sampled_from(sorted(DEVICE_PROFILE_FACTORIES)),
                          min_size=2, max_size=7))
    devices = tuple(DEVICE_PROFILE_FACTORIES[k](f"{k}-{i}")
                    for i, k in enumerate(kinds))
    pairs = itertools.combinations([d.id for d in devices], 2)
    links = tuple((a, b, Link(draw(st.floats(1e6, 1e10)),
                              draw(st.sampled_from((0.0, 1e-4, 3e-3)))))
                  for a, b in pairs)
    domain = TrustedDomain(devices, NetworkModel(links=links),
                           mode=draw(st.sampled_from(("cpu", "gpu"))))
    micro = draw(st.integers(1, 4))
    job = default_edge_job(global_batch=micro * draw(st.integers(1, 128)),
                           micro_batch=micro,
                           dp_sync_period=draw(sync_periods))
    kind = draw(st.sampled_from(ALL_KINDS))
    ids = domain.device_ids[:1] if kind == KIND_SINGLE else domain.device_ids
    try:
        plan = make_plan(kind, domain, model_preset(draw(st.sampled_from(
            ("distilbert", "gpt2-s")))), job, ids)
    except PlanError:
        assume(False)
    return plan, domain


def stepped_replay(plan, domain, write_time, reload_time, interval,
                   iterations, failure_times):
    """The replay's rules, one iteration per step: the counts, rework, wall
    time and executed sync iterations of a run against sorted failure
    times.  Iterations done+1..j since the last checkpoint (after
    iteration done) or reload take their makespan."""
    base_len, sync_len = iteration_times(plan, domain)
    k = plan.job.dp_sync_period
    stream = iter(failure_times + [math.inf])
    next_fail = next(stream)
    start = rework = 0.0
    done = j = failures = writes = executed = syncs = 0
    while j < iterations:
        span = ((j + 1 - done) * base_len
                + ((j + 1) // k - done // k) * sync_len)
        if start + span > next_fail:
            rework += next_fail - start
            start = next_fail + reload_time
            failures += 1
            next_fail = next(stream)
            j = done
            continue
        j += 1
        executed += 1
        syncs += j % k == 0
        if j < iterations and span >= interval:
            start = start + span + write_time
            writes += 1
            done = j
    return (failures, executed, writes, rework, start + span), syncs


def plan_on_testbed(kind, model="gpt2-s", testbed="heterogeneous-mix4", k=5):
    """A plan of the kind on the testbed (single on its first device)."""
    domain = load_testbed(testbed)
    ids = domain.device_ids[:1] if kind == KIND_SINGLE else domain.device_ids
    return make_plan(kind, domain, model_preset(model),
                     default_edge_job(dp_sync_period=k), ids), domain


def trace_peak_bytes(plan, domain, iterations):
    """Peak bytes that tracemalloc sees while the trace goes to the null
    device."""
    tracemalloc.start()
    try:
        write_trace(plan, domain, iterations, os.devnull)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTrace:
    def test_trace_invariants(self, tmp_path):
        domain = load_testbed("homogeneous-nano4")
        plan = make_dp_plan(domain, model_preset("gpt2-s"), JOB,
                            domain.device_ids)
        path = tmp_path / "trace.tsv"
        write_trace(plan, domain, 5, path)
        rows = read_trace(path)
        assert [r[:2] for r in rows] == sorted(r[:2] for r in rows)
        # every collective appears once per participant at the same offset
        sync_records = [r for r in rows if r[2] == OP_ALLREDUCE]
        assert len(sync_records) == len(domain.device_ids)  # one sync in 5 iters
        assert len({r[0] for r in sync_records}) == 1
        assert {r[1] for r in sync_records} == set(domain.device_ids)

    def test_write_trace_formats_every_record_exactly(self, tmp_path,
                                                       monkeypatch):
        # Repeated tails, and tails that differ only in duration or only in
        # bytes (including values equal to 9 and 1 decimals), in both shapes,
        # so a tail formatted from too few fields, or a start time formatted
        # for the wrong group, is written wrong.
        domain = make_domain([240e9, 480e9])
        job = default_edge_job(dp_sync_period=2)
        plan = make_dp_plan(domain, model_preset("distilbert"), job,
                            domain.device_ids)
        base = [(0.0, "d0", "compute", 0.1, 0.0),
                (0.0, "d1", "compute", 0.1, 0.0),
                (0.1, "d0", OP_ALLREDUCE, 0.05, 1024.0),
                (0.1, "d0", OP_ALLREDUCE, 0.05, 2048.0),
                (0.1, "d0", OP_ALLREDUCE, 0.0500000004, 1024.0),
                (0.1, "d0", OP_ALLREDUCE, 0.0500000006, 1024.0),
                (0.1, "d0", OP_ALLREDUCE, 0.05, 1024.04),
                (0.1, "d0", OP_ALLREDUCE, 0.05, 1024.06),
                (0.1, "d1", OP_ALLREDUCE, 0.05, 1024.0),
                (0.1, "d1", OP_P2P, 0.05, 1024.0)]
        shapes = {False: base,
                  True: base + [(0.2500000004, "d0", OP_ALLREDUCE, 0.05, 8.0),
                                (0.2500000006, "d1", OP_ALLREDUCE, 0.05, 8.0)]}
        monkeypatch.setattr(simengine, "_trace_shapes",
                            lambda prof: shapes)
        path = tmp_path / "trace.tsv"
        write_trace(plan, domain, 5, path)
        prof = _profile_iteration(plan, domain)
        expected, t0 = [TRACE_HEADER], 0.0
        for g in range(5):
            sync = (g + 1) % 2 == 0
            expected += [f"{t0 + offset:.9f}\t{p}\t{kind}\t{d:.9f}\t{b:.1f}\n"
                         for offset, p, kind, d, b in shapes[sync]]
            t0 += prof.base_len + (prof.sync_len if sync else 0.0)
        assert path.read_text() == "".join(expected)

    # Shrinking a failure over 21 link floats takes minutes; a raw
    # counterexample is reported instead.
    @settings(max_examples=60, deadline=None,
              phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(random_plans(sync_periods=st.integers(1, 9)), st.integers(1, 1000))
    @example(plan_on_testbed("dp", k=1), 7)
    @example(plan_on_testbed("dp", k=10), 7)
    @example(plan_on_testbed(KIND_SINGLE), 7)
    # Out of memory (`test_oom_short_circuit`), so the table is the header.
    @example(plan_on_testbed(KIND_SINGLE, "gpt2-l", "homogeneous-nano4"), 7)
    def test_streamed_trace_matches_materialised_sort(self, tmp_path_factory,
                                                      case, iterations):
        plan, domain = case
        path = tmp_path_factory.getbasetemp() / "streamed.tsv"
        result = write_trace(plan, domain, iterations, path)
        assert path.read_text() == (
            TRACE_HEADER if result.oom
            else materialised_trace(plan, domain, iterations))

    def test_write_trace_streams_one_iteration_at_a_time(self, tmp_path):
        # About 8 MB of rows; the writer must hold no more than a bounded
        # chunk.
        domain = load_testbed("homogeneous-nano4")
        plan = make_pp_plan(domain, model_preset("gpt2-s"), JOB,
                            domain.device_ids)
        path = tmp_path / "trace.tsv"
        write_trace(plan, domain, 20_000, path)
        assert path.stat().st_size > 4e6
        assert trace_peak_bytes(plan, domain, 20_000) < 1e6

    def test_write_trace_holds_a_bounded_chunk_on_12_devices(self, tmp_path):
        # A 12-device pipeline's iteration is about three times as wide as
        # the 4-device one's; its 7 MB of rows fill over a hundred chunks,
        # and the writer still holds no more than one.
        devices = tuple(DEVICE_PROFILE_FACTORIES["nano"](f"nano-{i}")
                        for i in range(12))
        domain = TrustedDomain(devices, NetworkModel())
        plan = make_pp_plan(domain, model_preset("gpt2-s"), JOB,
                            domain.device_ids)
        path = tmp_path / "trace.tsv"
        write_trace(plan, domain, 6_000, path)
        assert path.stat().st_size > 6e6
        assert trace_peak_bytes(plan, domain, 6_000) < 1e6

    @pytest.mark.parametrize("budget", [1, 1000])
    def test_chunk_boundaries_move_no_byte(self, tmp_path, monkeypatch,
                                           budget):
        """A chunk of one iteration, or of two (the widest, a sync
        iteration, is about 400 bytes), so that chunks end inside the
        5-iteration sync periods and the last one is partial, writes the
        same bytes."""
        plan, domain = plan_on_testbed("dp", testbed="homogeneous-nano4")
        monkeypatch.setattr(simengine, "_TRACE_CHUNK_BYTES", budget)
        path = tmp_path / "trace.tsv"
        write_trace(plan, domain, 23, path)
        assert path.read_bytes() == materialised_trace(
            plan, domain, 23).encode("utf-8")

    @pytest.mark.parametrize("kind", ["dp", KIND_PP])
    def test_non_ascii_and_longest_ids_are_written_as_utf8(self, tmp_path,
                                                          kind):
        ids = ("é" * 30, "x" * MAX_DEVICE_ID_CHARS)
        domain = TrustedDomain(tuple(DEVICE_PROFILE_FACTORIES["nano"](i)
                                     for i in ids), NetworkModel())
        plan = make_plan(kind, domain, model_preset("distilbert"), JOB, ids)
        path = tmp_path / "trace.tsv"
        write_trace(plan, domain, 7, path)
        assert path.read_bytes() == materialised_trace(
            plan, domain, 7).encode("utf-8")

    @given(st.one_of(st.floats(allow_nan=False),
                     st.sampled_from((2.0**53, 1e300)),
                     # odd multiples of 2**-10 end in 5 at the 10th decimal
                     st.integers(-2**40, 2**40).map(
                         lambda n: (2 * n + 1) * 2.0**-10)))
    def test_bytes_format_matches_text_format(self, x):
        """Start times are formatted as bytes, the reference as text: both
        round alike, halves at the 9th decimal included."""
        assert b"%.9f" % x == f"{x:.9f}".encode()


def looped_totals(plan, domain, iterations):
    """Reference run totals, added up one iteration at a time from the phase
    timeline: the makespan, per-device compute, comm and idle time, and
    payload bytes by op."""
    prof = _profile_iteration(plan, domain)
    k = plan.job.dp_sync_period
    usage = {p: DeviceUsage() for p in plan.participants}
    makespan = 0.0
    comm_bytes = {}
    for g in range(iterations):
        sync = (g + 1) % k == 0
        dur = prof.base_len + (prof.sync_len if sync else 0.0)
        (_, _, _, _, compute), *phases = [group for group in prof.groups
                                          if sync or not group[3]]
        for p, u in usage.items():
            comm = 0.0
            for _, _, _, _, seconds in phases:
                comm += seconds[p]
            u.compute_time += compute[p]
            u.comm_time += comm
            u.idle_time += dur - compute[p] - comm
        for _, op, payload, _, _ in phases:
            comm_bytes[op] = comm_bytes.get(op, 0.0) + payload
        makespan += dur
    return makespan, usage, comm_bytes


class TestClosedFormTotals:
    # Shrinking a failure over 21 link floats takes minutes; a raw
    # counterexample is reported instead.
    @settings(max_examples=150, deadline=None, derandomize=True,
              phases=(Phase.explicit, Phase.generate))
    @given(random_plans(sync_periods=st.integers(1, 50)),
           st.integers(1, 2000))
    def test_totals_match_the_iteration_loop(self, case, iterations):
        """Each total is within the loop's own rounding bound of the loop's:
        adding I terms in order errs by at most (I - 1) * 2**-53 * sum|terms|,
        and the two products and one addition of the closed form by about
        2 * 2**-53 * sum|terms| more.  Every term is >= 0, so sum|terms| is
        the total itself; an idle term is a difference, so its bound counts
        the iteration's wall, compute and comm times it is made from."""
        plan, domain = case
        result = simulate(plan, domain, iterations)
        assume(not result.oom)
        makespan, usage, comm_bytes = looped_totals(plan, domain, iterations)
        eps = (iterations + 1) * 2.0**-53

        def close(got, want, magnitude):
            return abs(got - want) <= eps * magnitude

        assert close(result.makespan, makespan, makespan)
        for p, want in usage.items():
            got = result.per_device[p]
            assert close(got.compute_time, want.compute_time,
                         want.compute_time)
            assert close(got.comm_time, want.comm_time, want.comm_time)
            assert close(got.idle_time, want.idle_time,
                         makespan + want.compute_time + want.comm_time)
        assert result.comm_bytes_by_op.keys() == comm_bytes.keys()
        for op, want in comm_bytes.items():
            assert close(result.comm_bytes_by_op[op], want, want)


class TestTimelineInvariants:
    """Every trace row lies inside its own iteration, idle time is >= 0 up
    to rounding, and each device's timeline closes, for every kind on slow
    and fast links alike.

    Rows need no rounding budget.  A row lasts at most its group's maximum,
    each group starts where the one before it ends, the pipeline's slot
    factor is >= 1 and the one sync group adds its maximum to the base
    length, and rounded float addition is monotone, so every row ends by its
    iteration's length exactly.

    Idle time and the closure compare sums of non-negative terms that are
    equal or ordered in exact arithmetic, so only rounding separates them,
    in either direction.  A float addition, subtraction, product or
    quotient errs by at most 2**-53 of its result, and no intermediate
    exceeds the magnitude each check names: the run's makespan for idle
    time, and the makespan plus the device's compute and comm time for the
    closure.  The base length takes at most four roundings: two group
    maxima added to the compute time (SP's gather and reduce, or the
    pipeline's one group whose busiest device adds its two transfers), then
    a quotient and a product for the pipeline's slots.  The sync length is
    one group's maximum, exact.  A device's comm per iteration takes at most
    one addition.  Idle time then takes three subtractions, two products
    and an addition; compute one product; comm and the makespan two
    products and an addition each; the closure two more additions and its
    difference.  Neither check takes more than 16 roundings.
    """

    ROUNDING = 16 * 2.0**-53

    # Shrinking a failure over 21 link floats takes minutes; a raw
    # counterexample is reported instead.
    @settings(max_examples=200, deadline=None, derandomize=True,
              phases=(Phase.explicit, Phase.generate))
    @given(random_plans(sync_periods=st.integers(1, 9)), st.integers(1, 1000))
    def test_idle_rows_and_closure(self, case, iterations):
        plan, domain = case
        result, prof = simengine._simulate(plan, domain, iterations)
        assume(not result.oom)
        for sync, rows in _trace_shapes(prof).items():
            length = prof.base_len + (prof.sync_len if sync else 0.0)
            for offset, _, _, duration, _ in rows:
                assert 0.0 <= offset
                assert offset + duration <= length
        eps = self.ROUNDING
        for usage in result.per_device.values():
            assert usage.idle_time >= -eps * result.makespan
            closure = usage.compute_time + usage.comm_time + usage.idle_time
            assert abs(closure - result.makespan) <= eps * (
                result.makespan + usage.compute_time + usage.comm_time)


def doubled_speeds(domain):
    """The domain with every CPU/GPU throughput and every bandwidth, the
    default included, doubled and every latency halved."""
    net = domain.network
    return TrustedDomain(
        tuple(replace(d, cpu_throughput=2 * d.cpu_throughput,
                      gpu_throughput=2 * d.gpu_throughput)
              for d in domain.devices),
        NetworkModel(2 * net.default_bandwidth, net.default_latency / 2,
                     tuple((a, b, Link(2 * link.bandwidth, link.latency / 2))
                           for a, b, link in net.links)),
        mode=domain.mode, name=domain.name)


class TestHalvingTime:
    # Shrinking a failure over 21 link floats takes minutes; a raw
    # counterexample is reported instead.
    @settings(max_examples=100, deadline=None, derandomize=True,
              phases=(Phase.explicit, Phase.generate))
    @given(random_plans(sync_periods=st.integers(1, 9)), st.integers(1, 1000))
    def test_doubled_speeds_halve_every_time_and_energy(self, case,
                                                        iterations):
        """Twice the FLOP/s and bandwidth and half the latency halve every
        simulated time and energy exactly: each is a sum of products and
        quotients of them, and scaling by 2 is exact in binary floats.
        Shares, bytes and the trace's row order stay as they are."""
        plan, domain = case
        fast_domain = doubled_speeds(domain)
        fast_plan = make_plan(plan.kind, fast_domain, plan.spec, plan.job,
                              plan.participants if plan.kind == KIND_SINGLE
                              else fast_domain.device_ids)
        assert (fast_plan.participants, fast_plan.shares) == \
            (plan.participants, plan.shares)
        slow, slow_prof = simengine._simulate(plan, domain, iterations)
        fast, fast_prof = simengine._simulate(fast_plan, fast_domain,
                                              iterations)
        assume(not slow.oom)
        assert fast.makespan == slow.makespan / 2
        assert fast.latency_per_sample == slow.latency_per_sample / 2
        assert fast.energy_per_sample == slow.energy_per_sample / 2
        assert fast.comm_bytes_by_op == slow.comm_bytes_by_op
        for p, u in slow.per_device.items():
            assert fast.per_device[p] == DeviceUsage(
                u.peak_mem, u.compute_time / 2, u.comm_time / 2,
                u.idle_time / 2, u.energy / 2)
        assert _trace_shapes(fast_prof) == {
            sync: [(offset / 2, p, kind, d / 2, b)
                   for offset, p, kind, d, b in rows]
            for sync, rows in _trace_shapes(slow_prof).items()}


    @pytest.mark.parametrize("model", ["distilbert", "gpt2-s", "opt-350m",
                                       "gpt2-l"])
    @pytest.mark.parametrize("testbed", ["homogeneous-nano4",
                                         "heterogeneous-mix4"])
    def test_doubled_speeds_halve_checkpointing_and_fault_replay(self, testbed,
                                                                 model):
        """With the write and reload bandwidths doubled and the MTBF halved
        as well, the checkpoint interval and every replayed time and energy
        halve exactly, and every count stays the same: failure times are
        MTBF-scaled standard exponentials, and Young's sqrt(2·C·M) of a
        quarter is exactly half."""
        domain = load_testbed(testbed)
        plan = orchestrate(domain, model_preset(model), JOB, Objective()).plan
        fast_domain = doubled_speeds(domain)
        fast_plan = make_plan(plan.kind, fast_domain, plan.spec, plan.job,
                              plan.participants,
                              plan.shares if plan.kind == KIND_PP else None)
        assert fast_plan.shares == plan.shares
        for mtbf in (600.0, 3600.0, 86400.0):
            for seed in range(3):
                slow_faults = FaultModel(mtbf, 50e6, 50e6, rng_seed=seed)
                fast_faults = FaultModel(mtbf / 2, 100e6, 100e6, rng_seed=seed)
                interval = plan_checkpointing(plan, domain, slow_faults)
                fast_interval = plan_checkpointing(fast_plan, fast_domain,
                                                   fast_faults)
                assert fast_interval == interval / 2
                with deadline(30):
                    slow = inject_faults(plan, domain, slow_faults, interval,
                                         iterations=200)
                    fast = inject_faults(fast_plan, fast_domain, fast_faults,
                                         fast_interval, iterations=200)
                for name in ("wall_time", "rework_time", "reload_time",
                             "checkpoint_time", "energy_estimate"):
                    assert getattr(fast, name) == getattr(slow, name) / 2, \
                        (mtbf, seed, name)
                assert (fast.failures, fast.executed_iterations,
                        fast.completed_iterations, fast.checkpoint_writes) == \
                    (slow.failures, slow.executed_iterations,
                     slow.completed_iterations, slow.checkpoint_writes)


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
        assert report.wall_time == report.fault_free.makespan
        assert report.goodput_samples_per_s == \
            report.fault_free.samples_processed / report.fault_free.makespan

    @pytest.mark.parametrize("mtbf", [math.inf, 1e307])
    def test_extreme_mtbf_returns_fault_free_without_warnings(self, mtbf):
        """An infinite MTBF makes every failure time inf, and 1e307 makes
        them overflow to inf; the replay still returns, with no failures and
        no warning."""
        domain, _, plan = self.setup_plan()
        with deadline(20), warnings.catch_warnings():
            warnings.simplefilter("error")
            report = inject_faults(plan, domain,
                                   FaultModel(mtbf, 50e6, 50e6),
                                   iterations=20, checkpoint_interval=1e9)
        assert report.failures == 0
        assert report.wall_time == report.fault_free.makespan

    # Shrinking a failure over 21 link floats takes minutes; a raw
    # counterexample is reported instead.
    @settings(max_examples=100, deadline=None, derandomize=True,
              phases=(Phase.explicit, Phase.generate))
    @given(random_plans(sync_periods=st.integers(1, 9)), st.integers(1, 1000))
    def test_replay_without_failures_is_the_simulation(self, case,
                                                       iterations):
        """With no failure and no checkpoint due, the replay keeps
        simulate's books to the bit: its wall time is the makespan, its
        energy the total energy and its goodput the fault-free rate."""
        plan, domain = case
        fault_free = simulate(plan, domain, iterations)
        # a run longer than the cap would write a checkpoint
        assume(not fault_free.oom
               and fault_free.makespan < CHECKPOINT_INTERVAL_CAP)
        report = inject_faults(plan, domain, FaultModel(1e18, 50e6, 50e6),
                               CHECKPOINT_INTERVAL_CAP, iterations=iterations,
                               failure_times=[])
        assert (report.failures, report.checkpoint_writes) == (0, 0)
        assert report.wall_time == fault_free.makespan
        assert report.energy_estimate == fault_free.total_energy
        assert report.goodput_samples_per_s == \
            fault_free.samples_processed / fault_free.makespan

    def test_an_interval_at_the_floor_checkpoints_after_every_iteration(self):
        """A pipeline has no sync, so the floor is one iteration's length,
        and the span of every iteration since the last checkpoint reaches
        it: a checkpoint follows each iteration but the last."""
        domain = load_testbed("heterogeneous-mix4")
        plan = orchestrate(domain, model_preset("gpt2-s"), JOB,
                           Objective()).plan
        base_len, sync_len = iteration_times(plan, domain)
        assert (plan.kind, sync_len) == (KIND_PP, 0.0)
        fm = FaultModel(1e-3, 50e6, 50e6)
        interval = plan_checkpointing(plan, domain, fm)
        assert interval == base_len
        report = inject_faults(plan, domain, fm, interval, iterations=1000,
                               failure_times=[])
        assert report.checkpoint_writes == 999

    @pytest.mark.parametrize("iterations", [20, 22])
    def test_replayed_energy_follows_the_executed_iterations(self,
                                                             iterations):
        """A failure in iteration 4 of a DP run with k = 5 loses three
        iterations without a sync: the replay's energy is that of 3
        simulated iterations and of the I run again, plus idle and network
        power over the reload.  At I = 22 the executed iterations' syncs,
        0 + 4, are not floor(25 / 5)."""
        domain = load_testbed("homogeneous-nano4")
        plan = make_dp_plan(domain, model_preset("gpt2-s"),
                            default_edge_job(dp_sync_period=5),
                            domain.device_ids)
        base_len, _ = iteration_times(plan, domain)
        report = inject_faults(plan, domain, FaultModel(1e18, 50e6, 50e6),
                               1e8, iterations=iterations,
                               failure_times=[3.5 * base_len])
        assert (report.failures, report.executed_iterations) == \
            (1, iterations + 3)
        overhead_power = sum(d.power_idle + d.power_net
                             for d in domain.devices)
        assert report.energy_estimate == pytest.approx(
            simulate(plan, domain, 3).total_energy
            + simulate(plan, domain, iterations).total_energy
            + overhead_power * report.reload_time, rel=1e-12)

    # Shrinking a failure over 21 link floats takes minutes; a raw
    # counterexample is reported instead.
    @settings(max_examples=100, deadline=None, derandomize=True,
              phases=(Phase.explicit, Phase.generate))
    @given(random_plans(sync_periods=st.integers(1, 9)), st.integers(1, 200),
           st.sampled_from((None, 0.5, 1.0, 2.5, 7.0)),
           st.sampled_from((0.0, 0.25, 1.0, 3.0)),
           st.lists(st.one_of(st.sampled_from((0.0, 1.0, 2.0)),
                              st.floats(0.0, 4.0)), max_size=40))
    def test_replay_follows_its_rules_one_iteration_at_a_time(
            self, case, iterations, interval_len, cost_len, gaps):
        """Against failures at sums of gaps of 0 to 4 iterations, some of
        them at iteration ends or inside reloads, the replay's counts,
        rework and wall time equal a replay that steps one iteration at a
        time, and its energy prices the executed iterations with their
        syncs, plus idle and network power over reloads and writes."""
        plan, domain = case
        one = simulate(plan, domain, 1)
        assume(not one.oom)
        base_len, sync_len = iteration_times(plan, domain)
        k = plan.job.dp_sync_period
        # Reloads and writes last about cost_len iterations (0 s when free).
        shard = simengine.checkpoint_cost(plan, domain,
                                          FaultModel(1.0, 1.0, 1.0))[0]
        bandwidth = math.inf if cost_len == 0.0 else shard / (cost_len
                                                             * base_len)
        fm = FaultModel(1e18, bandwidth, bandwidth)
        cost = simengine.checkpoint_cost(plan, domain, fm)[1]
        # None: the floor, the mean iteration of a sync period.
        interval = (base_len + sync_len / k if interval_len is None
                    else interval_len * base_len)
        times = list(itertools.accumulate(g * base_len for g in gaps))
        report = inject_faults(plan, domain, fm, interval,
                               iterations=iterations, failure_times=times)
        want, syncs = stepped_replay(plan, domain, cost, cost, interval,
                                     iterations, times)
        assert (report.failures, report.executed_iterations,
                report.checkpoint_writes, report.rework_time,
                report.wall_time) == want
        assert (report.reload_time, report.checkpoint_time) == (
            report.failures * cost, report.checkpoint_writes * cost)
        # Energy is linear in the executed and the sync iterations.
        executed = report.executed_iterations
        if k == 1:
            busy = executed * one.total_energy
        else:
            sync_energy = (simulate(plan, domain, k).total_energy
                           - k * one.total_energy)
            busy = executed * one.total_energy + syncs * sync_energy
        overhead_power = sum(domain.device(p).power_idle
                             + domain.device(p).power_net
                             for p in plan.participants)
        assert report.energy_estimate == pytest.approx(
            busy + overhead_power * (report.reload_time
                                     + report.checkpoint_time),
            rel=1e-9, abs=1e-9 * busy)

    def test_no_write_or_reload_takes_no_time_at_an_infinite_cost(self):
        """Write and reload times are count x cost, and a count of 0 gives
        0 seconds even where a tiny bandwidth makes the cost infinite."""
        domain, _, plan = self.setup_plan()
        fm = FaultModel(math.inf, 1e-300, 1e-300)
        assert simengine.checkpoint_cost(plan, domain, fm)[1] == math.inf
        report = inject_faults(plan, domain, fm, 1e8, iterations=20)
        assert (report.checkpoint_time, report.reload_time) == (0.0, 0.0)
        assert report.energy_estimate == report.fault_free.total_energy

    @pytest.mark.parametrize("what", ["reload", "write"])
    def test_a_reload_or_write_that_never_ends_is_an_error(self, what):
        """A bandwidth so small that the shard's reload or write time
        overflows to inf would never let the run end: the replay raises at
        the first one due, instead of drawing failures forever (reload) or
        reporting -inf rework (write)."""
        domain, _, plan = self.setup_plan()
        tiny = {"reload": (50e6, 1e-300), "write": (1e-300, 50e6)}[what]
        fm = FaultModel(60.0, *tiny)
        with deadline(20), pytest.raises(SimulationError,
                                         match=f"{what} .* never ends"):
            inject_faults(plan, domain, fm, 10.0, iterations=200)

    @pytest.mark.parametrize("chunk", [256, 5])
    @pytest.mark.parametrize("num_devices", [1, 2, 3, 4, 7, 12])
    def test_failure_stream_matches_scalar_draws(self, num_devices, chunk):
        """The first 3,000 failure times equal the stream rule's exactly, as
        plain floats, from underflowing to overflowing MTBFs.  The stream is
        read ``chunk`` times at a time, alternating with a stream of another
        seed, so two live streams never share generator state."""
        for mtbf in (1e-300, 1e-9, 0.37, 40.0, 3600.0, 1e18, 1e307, math.inf):
            for seed in (0, 1, 12345):
                fms = [FaultModel(mtbf, 50e6, 50e6, rng_seed=s)
                       for s in (seed, seed + 1)]
                want = [list(itertools.islice(
                            scalar_failure_stream(fm, num_devices), 3000))
                        for fm in fms]
                streams = [_failure_stream(fm, num_devices) for fm in fms]
                got = [[], []]
                with deadline(20):
                    while len(got[0]) < 3000:
                        for times, stream in zip(got, streams):
                            times.extend(itertools.islice(
                                stream, min(chunk, 3000 - len(times))))
                assert got == want, (mtbf, seed)
                assert all(type(t) is float for t in got[0] + got[1]), (
                    mtbf, seed)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**64), num_devices=st.integers(1, 12),
           mtbfs=st.lists(st.floats(min_value=1e-300), min_size=2,
                          max_size=2))
    def test_failure_times_are_monotone_in_order_and_mtbf(self, seed,
                                                          num_devices,
                                                          mtbfs):
        """For a fixed seed the failure times never decrease along the
        stream, and never increase when the MTBF shrinks."""
        times = [list(itertools.islice(
                     _failure_stream(FaultModel(m, 50e6, 50e6, rng_seed=seed),
                                     num_devices), 300))
                 for m in sorted(mtbfs)]
        for stream in times:
            assert all(a <= b for a, b in zip(stream, stream[1:]))
        assert all(a <= b for a, b in zip(*times))

    @pytest.mark.parametrize("num_devices", [2, 4, 12])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_system_stream_has_the_merged_streams_law(self, num_devices,
                                                      seed):
        """Independent exponential renewal processes superpose into one
        Poisson process of summed rate: a two-sample Kolmogorov-Smirnov test
        does not tell the first 20,000 gaps of the per-device merge from the
        system stream's, at alpha = 0.001."""
        import numpy as np
        from scipy.stats import ks_2samp
        fm = FaultModel(3600.0, 50e6, 50e6, rng_seed=seed)
        gaps = [np.diff(list(itertools.islice(stream(fm, num_devices),
                                              20_000)), prepend=0.0)
                for stream in (merged_failure_stream, _failure_stream)]
        assert ks_2samp(*gaps).pvalue > 0.001

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

    def test_failure_at_an_iterations_end_loses_it(self):
        """A failure exactly at the end of the first iteration falls after
        it: the iteration is executed, then lost, as no checkpoint was
        written, and run again after the reload, four in all."""
        domain = load_testbed("homogeneous-nano4")
        plan = make_dp_plan(domain, model_preset("gpt2-s"), JOB,
                            domain.device_ids)
        base_len, _ = iteration_times(plan, domain)
        report = inject_faults(plan, domain, FaultModel(1e18, 50e6, 50e6),
                               1e8, iterations=3, failure_times=[base_len])
        assert report.failures == 1
        assert report.executed_iterations == 4
        assert report.completed_iterations == 3
        assert report.rework_time == base_len
        assert report.energy_estimate == pytest.approx(785.114873856,
                                                       rel=1e-12)

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
        with pytest.raises(OutOfMemoryError, match="^out of memory on nano-0$"):
            inject_faults(plan, domain, FaultModel(100.0, 50e6, 50e6), 60.0)

    @pytest.mark.parametrize("iterations", [5, 20])
    def test_refuses_a_run_that_never_ends(self, iterations):
        """A run whose sync takes inf seconds is refused with the planner's
        reason, not replayed forever."""
        domain, plan = slow_link_dp()
        with deadline(20), pytest.raises(SimulationError) as info:
            inject_faults(plan, domain, FaultModel(600.0, 50e6, 50e6), 60.0,
                          iterations=iterations)
        assert not isinstance(info.value, OutOfMemoryError)
        assert str(info.value) == "latency or energy per sample is not finite"

    @pytest.mark.parametrize("iterations", [3, 4])
    def test_a_run_with_no_sync_replays_without_it(self, iterations):
        """Shorter than a sync period, the same run never syncs: its replay
        is finite, and without failures it is the simulation."""
        domain, plan = slow_link_dp()
        fault_free = simulate(plan, domain, iterations=iterations)
        with deadline(20):
            report = inject_faults(plan, domain,
                                   FaultModel(math.inf, 50e6, 50e6), 60.0,
                                   iterations=iterations)
            failing = inject_faults(plan, domain, FaultModel(5.0, 50e6, 50e6),
                                    1.0, iterations=iterations)
        assert report.wall_time == fault_free.makespan
        assert report.energy_estimate == fault_free.total_energy
        assert failing.failures > 0
        assert math.isfinite(failing.wall_time)
        assert math.isfinite(failing.energy_estimate)

    @pytest.mark.parametrize("interval", [0.0, -1.0, math.nan])
    def test_rejects_an_interval_that_is_not_positive(self, interval):
        domain = load_testbed("homogeneous-nano4")
        plan = make_single_plan(domain, model_preset("distilbert"), JOB,
                                "nano-0")
        with pytest.raises(SimulationError, match="checkpoint_interval"):
            inject_faults(plan, domain, FaultModel(100.0, 50e6, 50e6),
                          interval)
