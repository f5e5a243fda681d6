"""Acceptance gate: calibration targets, orderings, oracles, properties.

Each criterion prints one PASS/FAIL line (run pytest with -s to see them all;
captured output is shown automatically for failing criteria).
"""

import dataclasses
import itertools
import math
import random
from contextlib import contextmanager

import pytest
from scipy.optimize import minimize_scalar

from edgetrainsim.cli import sweep_rows
from edgetrainsim.devices import (DeviceProfile, FaultModel, Link, NetworkModel,
                                  TrustedDomain,
                                  testbed_preset as load_testbed)
from edgetrainsim.parallelism import (OP_ALLGATHER, OP_ALLREDUCE, OP_P2P,
                                      PlanError, largest_remainder_split,
                                      make_dp_plan, make_pp_plan,
                                      make_single_plan, make_sp_plan,
                                      make_tp_plan)
from edgetrainsim.scheduler import (InfeasibleError, Objective,
                                    arrange_topology, choose_parallelism,
                                    orchestrate, partition_stages,
                                    select_devices, young_checkpoint_interval)
from edgetrainsim.simengine import collective_time, inject_faults, simulate
from edgetrainsim.workload import (TrainingJob, TransformerSpec,
                                   activation_bytes_per_block, default_edge_job,
                                   flops_per_iteration, full_replication_memory,
                                   model_preset, param_count, state_bytes)

JOB = default_edge_job()
FP32_JOB = TrainingJob(global_batch=128, seq_len=32, micro_batch=128)
TESTBEDS = ("homogeneous-nano4", "heterogeneous-mix4")
MODELS = ("distilbert", "gpt2-s", "opt-350m", "gpt2-l")
SMALL_MODELS = ("distilbert", "gpt2-s", "opt-350m")

_SWEEPS: dict[str, list[dict]] = {}


def sweep(testbed):
    if testbed not in _SWEEPS:
        _SWEEPS[testbed] = sweep_rows(load_testbed(testbed), JOB)
    return _SWEEPS[testbed]


def cell(rows, model, kind, mode):
    for r in rows:
        if (r["model"], r["kind"], r["mode"]) == (model, kind, mode):
            return r
    raise KeyError((model, kind, mode))


@contextmanager
def criterion(num, text):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num:02d} FAIL: {text}")
        raise
    print(f"ACCEPTANCE {num:02d} PASS: {text}")


def test_01_flops_calibration():
    with criterion(1, "GPT2-S FLOPs/iteration within 15% of 2.8e12"):
        flops = flops_per_iteration(model_preset("gpt2-s"), FP32_JOB)
        assert 2.38e12 <= flops <= 3.22e12


def test_02_memory_calibration():
    with criterion(2, "GPT2-S full-replication memory in [4.2 GB, 6 GB]"):
        mem = full_replication_memory(model_preset("gpt2-s"), FP32_JOB)
        assert 4.2e9 <= mem <= 6e9


def test_03_parameter_counts():
    with criterion(3, "preset parameter counts match published sizes"):
        targets = {"distilbert": (66e6, 0.02), "gpt2-s": (124e6, 0.02),
                   "opt-350m": (350e6, 0.02), "gpt2-l": (0.7e9, 0.12)}
        for name, (target, tol) in targets.items():
            got = param_count(model_preset(name))
            assert abs(got - target) / target <= tol, (name, got)


def test_04_oom_pattern():
    with criterion(4, "exact OOM matrix: GPT2-L infeasible for "
                      "single/DP/SP only, on both testbeds"):
        for testbed in TESTBEDS:
            rows = sweep(testbed)
            for model in MODELS:
                for kind in ("single", "dp", "sp", "tp", "pp"):
                    for mode in ("cpu", "gpu"):
                        expect_oom = (model == "gpt2-l"
                                      and kind in ("single", "dp", "sp"))
                        row = cell(rows, model, kind, mode)
                        assert row["oom"] == expect_oom, (testbed, model,
                                                          kind, mode)


def test_05_energy_ratios():
    with criterion(5, "homogeneous GPU mean energy ratios: OPT/DistilBERT in "
                      "[3.8, 6.4], OPT/GPT2-S in [2.0, 3.4]"):
        rows = sweep("homogeneous-nano4")
        kinds = ("single", "dp", "sp", "tp", "pp")  # feasible for all three
        means = {}
        for model in SMALL_MODELS:
            vals = [cell(rows, model, k, "gpu")["energy_per_sample_j"]
                    for k in kinds]
            assert all(v is not None for v in vals)
            means[model] = sum(vals) / len(vals)
        r_distil = means["opt-350m"] / means["distilbert"]
        r_gpt2s = means["opt-350m"] / means["gpt2-s"]
        assert 3.8 <= r_distil <= 6.4, r_distil
        assert 2.0 <= r_gpt2s <= 3.4, r_gpt2s


def test_06_parallelism_ordering():
    with criterion(6, "DP and PP cost less energy than SP and TP per model, "
                      "both testbeds, GPU mode"):
        for testbed in TESTBEDS:
            rows = sweep(testbed)
            for model in SMALL_MODELS:  # feasible under all four kinds
                e = {k: cell(rows, model, k, "gpu")["energy_per_sample_j"]
                     for k in ("dp", "sp", "tp", "pp")}
                for good in ("dp", "pp"):
                    for bad in ("sp", "tp"):
                        assert e[good] < e[bad], (testbed, model, good, bad)


def test_07_mode_gap():
    with criterion(7, "CPU-only costs more energy and time than GPU in every "
                      "feasible cell"):
        for testbed in TESTBEDS:
            rows = sweep(testbed)
            for model in MODELS:
                for kind in ("single", "dp", "sp", "tp", "pp"):
                    cpu = cell(rows, model, kind, "cpu")
                    gpu = cell(rows, model, kind, "gpu")
                    if cpu["oom"] or gpu["oom"]:
                        continue
                    assert cpu["energy_per_sample_j"] > \
                        gpu["energy_per_sample_j"], (testbed, model, kind)
                    assert cpu["latency_per_sample_s"] > \
                        gpu["latency_per_sample_s"], (testbed, model, kind)


def test_08_collaborative_speedup():
    with criterion(8, "chosen collaborative plan beats single-device latency "
                      "on both testbeds"):
        for testbed in TESTBEDS:
            domain = load_testbed(testbed)
            nano = min(domain.device_ids,
                       key=lambda p: domain.device(p).gpu_throughput)
            for model in SMALL_MODELS:  # the ones a single Nano can fit
                spec = model_preset(model)
                baseline = simulate(make_single_plan(domain, spec, JOB, nano),
                                    domain)
                assert not baseline.oom
                strategy = orchestrate(domain, spec, JOB, Objective(1.0, 0.0))
                assert (strategy.predicted.latency_per_sample
                        < baseline.latency_per_sample), (testbed, model)


def _ring_oracle(op, payload, participants, network):
    participants = tuple(participants)
    n = len(participants)
    if op == OP_P2P:
        link = network.link_between(*participants)
        return payload / link.bytes_per_second + link.latency
    chunk = payload / n
    steps = 2 * (n - 1) if op == OP_ALLREDUCE else (n - 1)
    total = 0.0
    for _ in range(steps):
        total += max(
            chunk / network.link_between(participants[i],
                                         participants[(i + 1) % n]
                                         ).bytes_per_second
            + network.link_between(participants[i],
                                   participants[(i + 1) % n]).latency
            for i in range(n))
    return total


def _toy_device(name, throughput, mem=4e9):
    return DeviceProfile(name, cpu_throughput=throughput / 16,
                         gpu_throughput=throughput, mem_capacity=mem,
                         power_idle=2.0, power_cpu_busy=7.0,
                         power_gpu_busy=10.0, power_net=1.5)


def test_09_oracle_equivalence():
    with criterion(9, "stage partitioning, ring timing, and plan choice match "
                      "brute-force oracles"):
        rng = random.Random(17)
        toy_job = TrainingJob(16, 8, 4, dp_sync_period=2, param_bytes=2.0,
                              activation_bytes_factor=1.0)

        # (a) partition_stages vs exhaustive contiguous splits, L<=12, n<=4
        for _ in range(40):
            n = rng.randint(1, 4)
            l = rng.randint(n, 12)
            spec = TransformerSpec("t", l, 64, 4, 100)
            domain = TrustedDomain(devices=tuple(
                _toy_device(f"d{i}", rng.uniform(1e9, 1e12))
                for i in range(n)), network=NetworkModel())
            blocks = partition_stages(domain, domain.device_ids, spec, toy_job)
            flops = flops_per_iteration(spec, toy_job)
            got = max(b * flops / l / domain.device(d).gpu_throughput
                      for d, b in zip(domain.device_ids, blocks))
            best = math.inf
            for cuts in itertools.combinations(range(1, l), n - 1):
                bounds = (0,) + cuts + (l,)
                counts = [bounds[i + 1] - bounds[i] for i in range(n)]
                best = min(best, max(
                    c * flops / l / domain.device(d).gpu_throughput
                    for d, c in zip(domain.device_ids, counts)))
            assert got == pytest.approx(best, rel=1e-12)

        # (b) collective_time vs step-by-step ring walk, 1e-9 relative
        for _ in range(100):
            n = rng.randint(2, 6)
            ids = [f"d{i}" for i in range(n)]
            network = NetworkModel(links=tuple(
                (ids[i], ids[j], Link(rng.uniform(1e7, 1e10),
                                      rng.uniform(0, 1e-3)))
                for i in range(n) for j in range(i + 1, n)))
            payload = rng.uniform(1.0, 1e9)
            op = rng.choice([OP_ALLREDUCE, OP_ALLGATHER])
            assert collective_time(op, payload, ids, network) == pytest.approx(
                _ring_oracle(op, payload, ids, network), rel=1e-9)

        # (c) choose_parallelism / select_devices / arrange_topology vs brute
        # force on a 3-device pool
        spec = TransformerSpec("t8", 8, 64, 4, 100)
        slow = Link(1e8, 1e-4)
        domain = TrustedDomain(
            devices=(_toy_device("a", 1e9), _toy_device("b", 2e9),
                     _toy_device("c", 4e9)),
            network=NetworkModel(links=(("a", "b", slow),)))
        objective = Objective(0.0, 1.0)

        def best_for(subset):
            best = math.inf
            makers = [lambda: [make_dp_plan(domain, spec, toy_job, subset)],
                      lambda: [make_sp_plan(domain, spec, toy_job, subset)],
                      lambda: [make_tp_plan(domain, spec, toy_job, subset)],
                      lambda: [make_pp_plan(
                          domain, spec, toy_job, perm,
                          [b - a for a, b in zip(bounds, bounds[1:])])
                          for perm in itertools.permutations(subset)
                          for bounds in ((0,) + c + (spec.num_blocks,)
                                         for c in itertools.combinations(
                                             range(1, spec.num_blocks),
                                             len(perm) - 1))]]
            if len(subset) == 1:
                makers = [lambda: [make_single_plan(domain, spec, toy_job,
                                                    subset[0])]]
            for maker in makers:
                try:
                    plans = maker()
                except PlanError:
                    continue
                for plan in plans:
                    result = simulate(plan, domain)
                    if not result.oom:
                        best = min(best, objective.value(result))
            return best

        _, chosen = choose_parallelism(domain, domain.device_ids, spec,
                                       toy_job, objective)
        assert objective.value(chosen) == pytest.approx(
            best_for(domain.device_ids), rel=1e-9)

        _, selected = select_devices(domain, spec, toy_job, objective)
        subset_best = min(best_for(s)
                          for size in range(1, 4)
                          for s in itertools.combinations(domain.device_ids,
                                                           size))
        assert objective.value(selected) == pytest.approx(subset_best,
                                                          rel=1e-9)

        order = arrange_topology(domain, domain.device_ids, spec, toy_job)
        perm_best, perm_orders = math.inf, []
        for perm in itertools.permutations(domain.device_ids):
            blocks = partition_stages(domain, perm, spec, toy_job)
            plan = make_pp_plan(domain, spec, toy_job, perm, blocks)
            t = simulate(plan, domain, iterations=1).makespan
            if t < perm_best - 1e-15:
                perm_best, perm_orders = t, [perm]
            elif t < perm_best + 1e-15:
                perm_orders.append(perm)
        assert order in perm_orders


def test_10_property_suites():
    with criterion(10, "conservation, accounting closure and idle >= 0 on "
                       "1 Gbps and 10 Mbps links, halving, scale-freedom, "
                       "fault determinism"):
        # partition conservation over 1000 randomized cases
        rng = random.Random(99)
        for _ in range(1000):
            n = rng.randint(1, 8)
            total = rng.randint(n, 1000)
            weights = [rng.uniform(0.01, 10.0) for _ in range(n)]
            shares = largest_remainder_split(total, weights)
            assert sum(shares) == total and min(shares) >= 1

        domain = load_testbed("homogeneous-nano4")
        spec = model_preset("gpt2-s")
        ids = domain.device_ids

        # time accounting closure <= 1e-9 per device and idle time >= 0
        # (within the same 1e-9), every kind, on the preset links and on
        # 10 Mbps ones, where transfers outweigh a pipeline's compute
        slow = dataclasses.replace(domain, network=dataclasses.replace(
            domain.network, default_bandwidth=10e6))
        for net in (domain, slow):
            plans = [make_single_plan(net, spec, JOB, ids[0]),
                     make_dp_plan(net, spec, JOB, ids),
                     make_sp_plan(net, spec, JOB, ids),
                     make_tp_plan(net, spec, JOB, ids),
                     make_pp_plan(net, spec, JOB, ids)]
            for plan in plans:
                result = simulate(plan, net)
                for usage in result.per_device.values():
                    assert abs(usage.compute_time + usage.comm_time
                               + usage.idle_time - result.makespan) <= 1e-9
                    assert usage.idle_time >= -1e-9

        # DP n=2 zero-comm halving
        job = default_edge_job(dp_sync_period=10 ** 9)
        pair = TrustedDomain(devices=(_toy_device("x", 240e9),
                                      _toy_device("y", 240e9)),
                             network=NetworkModel())
        single = simulate(make_single_plan(pair, spec, job, "x"), pair)
        dp = simulate(make_dp_plan(pair, spec, job, pair.device_ids), pair)
        assert dp.latency_per_sample == pytest.approx(
            single.latency_per_sample / 2, rel=1e-12)

        # scale-free doubling (zero-latency links)
        def scaled_domain(scale):
            return TrustedDomain(
                devices=tuple(_toy_device(f"d{i}", t * scale)
                              for i, t in enumerate((240e9, 240e9, 480e9,
                                                     960e9))),
                network=NetworkModel(default_bandwidth=1e9 * scale,
                                     default_latency=0.0))
        for maker in (make_dp_plan, make_sp_plan, make_tp_plan, make_pp_plan):
            lat1 = simulate(maker(scaled_domain(1), spec, JOB,
                                  scaled_domain(1).device_ids),
                            scaled_domain(1)).latency_per_sample
            lat2 = simulate(maker(scaled_domain(2), spec, JOB,
                                  scaled_domain(2).device_ids),
                            scaled_domain(2)).latency_per_sample
            assert lat2 == pytest.approx(lat1 / 2, rel=1e-12)

        # fault determinism under a fixed seed
        plan = make_single_plan(domain, spec, JOB, "nano-0")
        fm = FaultModel(100.0, 50e6, 50e6, rng_seed=5)
        a = inject_faults(plan, domain, fm, iterations=10,
                          checkpoint_interval=30.0)
        b = inject_faults(plan, domain, fm, iterations=10,
                          checkpoint_interval=30.0)
        assert (a.wall_time, a.failures, a.executed_iterations) == \
            (b.wall_time, b.failures, b.executed_iterations)


def test_11_checkpoint_planner():
    with criterion(11, "Young interval within 5% of the numerical optimum "
                       "over a log-spaced grid"):
        for c in (0.01, 0.1, 1.0, 10.0, 100.0, 1000.0):
            for mtbf in (1.0, 10.0, 1e3, 1e5, 1e7, 1e9):
                tau = young_checkpoint_interval(c, mtbf)
                res = minimize_scalar(
                    lambda t: c / t + t / (2.0 * mtbf),
                    bounds=(1e-9, 1e12), method="bounded",
                    options={"xatol": 1e-12})
                assert abs(tau - res.x) / res.x < 0.05, (c, mtbf)
