"""End-to-end command-line tests: exit codes, file formats, determinism."""

import argparse
import contextlib
import io
import itertools
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

from edgetrainsim import config_io, scheduler, simengine
from edgetrainsim.cli import COMMANDS, build_parser, main, parse_args
from edgetrainsim.devices import (DEFAULT_FAULT_MODEL,
                                  DEVICE_PROFILE_FACTORIES, DeviceProfile,
                                  Link, NetworkModel, TrustedDomain,
                                  jetson_nano, testbed_preset as load_testbed)
from edgetrainsim.parallelism import make_dp_plan, make_plan, make_pp_plan
from edgetrainsim.scheduler import CHECKPOINT_INTERVAL_CAP
from edgetrainsim.workload import default_edge_job, model_preset


def run(*argv):
    return main(list(argv))


def _stages(*ranges, devices=("nano-0", "nano-1", "nano-2", "nano-3")):
    return [{"device": d, "start": s, "end": e}
            for d, (s, e) in zip(devices, ranges)]


_EMPTY = "error: plan: a plan needs at least one participant"
_REPEATED = "error: plan: participants must be distinct"
# (kind, partition field, edited value[, the whole error line]) for gpt2-s
# on homogeneous-nano4; "participants" edits the plan's participant list
# instead.
EDITED_PLANS = {
    "dp-five-shards": ("dp", "shard_sizes", [32, 32, 32, 32, 128]),
    "dp-two-shards": ("dp", "shard_sizes", [64, 64]),
    "dp-skewed-shards": ("dp", "shard_sizes", [0, 0, 0, 128]),
    "sp-five-lengths": ("sp", "subseq_lengths", [8, 8, 8, 8, 64]),
    "tp-heads": ("tp", "heads_per_device", [6, 2, 2, 2]),
    "pp-three-stages": ("pp", "stages", _stages((0, 4), (4, 8), (8, 12))),
    "pp-other-devices": ("pp", "stages", _stages(
        (0, 3), (3, 6), (6, 9), (9, 12),
        devices=("nano-3", "nano-2", "nano-1", "nano-0"))),
    "pp-dropped-blocks": ("pp", "stages", _stages((0, 3), (3, 6), (6, 9),
                                                  (9, 11))),
    "pp-second-stage-late": ("pp", "stages", _stages((0, 3), (4, 6), (6, 9),
                                                     (9, 12))),
    "pp-empty-stage": ("pp", "stages", _stages((0, 0), (0, 4), (4, 8),
                                               (8, 12))),
    "single-two-participants": ("single", "participants",
                                ["nano-0", "nano-1"]),
    **{f"{kind}-no-participants": (kind, "participants", [], _EMPTY)
       for kind in ("dp", "sp", "tp", "pp")},
    **{f"{kind}-repeated-participant": (
        kind, "participants", ["nano-0", "nano-1", "nano-1", "nano-3"],
        _REPEATED) for kind in ("dp", "sp", "tp", "pp")},
}


# Two Nanos joined by a 1e-300 bps link: every collective takes inf seconds,
# the compute does not.
_SLOW = TrustedDomain(devices=tuple(jetson_nano(f"nano-{i}") for i in range(2)),
                      network=NetworkModel(default_bandwidth=1e-300),
                      name="nano2-slow")


def _write_slow_domain(path):
    path.write_text(config_io.dump_yaml(config_io.domain_to_dict(_SLOW)))


def _write_slow_dp_plan(path):
    """distilbert DP on the slow Nanos, which `plan` never writes: its
    gradient sync never ends."""
    plan = make_dp_plan(_SLOW, model_preset("distilbert"), default_edge_job(),
                        _SLOW.device_ids)
    path.write_text(config_io.dump_yaml(config_io.plan_to_dict(
        plan, _SLOW, 60.0)))


class TestPresets:
    def test_lists_builtins(self, capsys):
        assert run("presets") == 0
        out = capsys.readouterr().out
        for name in ("distilbert", "gpt2-s", "opt-350m", "gpt2-l",
                     "homogeneous-nano4", "heterogeneous-mix4"):
            assert name in out


class TestPlan:
    def test_default_plan_is_dp_or_pp(self, tmp_path, capsys):
        out = tmp_path / "plan.yaml"
        code = run("plan", "--testbed", "homogeneous-nano4",
                   "--model", "gpt2-s", "--objective", "energy",
                   "--out", str(out))
        assert code == 0
        data = yaml.safe_load(out.read_text())
        assert data["kind"] in ("dp", "pp")
        assert data["schema_version"] == 1
        assert len(data["participants"]) == 4
        assert data["checkpoint_interval_s"] > 0
        summary = capsys.readouterr().err
        assert "latency" in summary and "energy" in summary

    def test_single_device_oom_exits_2(self, capsys):
        code = run("plan", "--model", "gpt2-l", "--devices", "nano")
        assert code == 2
        assert "infeasible" in capsys.readouterr().err

    @pytest.mark.parametrize("select", [(), ("--select-devices",)],
                             ids=["pool", "select"])
    def test_infeasible_diagnosis_gives_one_reason_per_kind(self, capsys,
                                                            select):
        code = run("plan", "--testbed", "homogeneous-nano4", "--model",
                   "gpt2-l", "--param-bytes", "4", "--optimizer-multiplier",
                   "8", *select)
        assert code == 2
        nanos = "nano-0, nano-1, nano-2, nano-3"
        assert capsys.readouterr().err.splitlines() == [
            "infeasible: gpt2-l does not fit this domain",
            f"  dp: out of memory on {nanos}",
            "  pp: no memory-feasible contiguous stage partition",
            f"  sp: out of memory on {nanos}",
            f"  tp: out of memory on {nanos}"]

    @pytest.mark.parametrize("select", [(), ("--select-devices",)],
                             ids=["pool", "select"])
    def test_non_finite_objective_value_is_a_rejection(self, capsys, select):
        # PP and TP fit, but 1e308 J times their energy overflows to inf.
        args = ("plan", "--testbed", "homogeneous-nano4", "--model", "gpt2-l",
                "--objective", "weighted", *select, "--weight-energy")
        assert run(*args, "1e308") == 2
        nanos = "nano-0, nano-1, nano-2, nano-3"
        assert capsys.readouterr().err.splitlines() == [
            "infeasible: gpt2-l does not fit this domain",
            f"  dp: out of memory on {nanos}",
            "  pp: objective value is not finite",
            f"  sp: out of memory on {nanos}",
            "  tp: objective value is not finite"]
        assert run(*args, "1e307", "--out", os.devnull) == 0
        assert capsys.readouterr().err.startswith("plan: pp on ")

    def test_non_finite_cost_is_a_rejection(self, tmp_path, capsys):
        slow = DeviceProfile("slow", cpu_throughput=1e-300, gpu_throughput=0.0,
                             mem_capacity=64e9, power_idle=2.0,
                             power_cpu_busy=7.0, power_gpu_busy=10.0,
                             power_net=1.0)
        path = tmp_path / "domain.yaml"
        path.write_text(config_io.dump_yaml(config_io.domain_to_dict(
            TrustedDomain(devices=(slow,), mode="cpu"))))
        assert run("plan", "--domain", str(path), "--model", "gpt2-s") == 2
        assert capsys.readouterr().err.splitlines() == [
            "infeasible: gpt2-s does not fit this domain",
            "  single: latency or energy per sample is not finite"]

    def test_a_link_that_never_delivers_rejects_every_kind(self, tmp_path,
                                                           capsys):
        _write_slow_domain(tmp_path / "slow.yaml")
        assert run("plan", "--domain", str(tmp_path / "slow.yaml"),
                   "--model", "gpt2-s") == 2
        assert capsys.readouterr().err.splitlines() == [
            "infeasible: gpt2-s does not fit this domain",
            *(f"  {kind}: latency or energy per sample is not finite"
              for kind in ("dp", "pp", "sp", "tp"))]

    def test_unknown_testbed_exits_1(self, capsys):
        assert run("plan", "--testbed", "bogus") == 1

    def test_unknown_model_exits_1(self):
        assert run("plan", "--model", "bogus") == 1

    def test_missing_domain_file_exits_1(self):
        assert run("plan", "--domain", "/nonexistent/file.yaml") == 1

    def test_usage_error_exits_1(self):
        """A bad choice, an unknown flag or command and a value of the wrong
        type exit 1; help exits 0."""
        for argv, code in ((("plan", "--objective", "speed"), 1),
                           (("plan", "--bogus"), 1), (("bogus",), 1),
                           (("plan", "--mtbf", "x"), 1),
                           (("plan", "--help"), 0)):
            with pytest.raises(SystemExit) as excinfo:
                run(*argv)
            assert excinfo.value.code == code, argv

    def test_plan_output_is_byte_stable(self, tmp_path):
        """The same argv twice, and the forms that only argparse reads (an
        abbreviated flag, ``--flag=value``), write the same plan."""
        a, b, c = tmp_path / "a.yaml", tmp_path / "b.yaml", tmp_path / "c.yaml"
        for out in (a, b):
            assert run("plan", "--testbed", "heterogeneous-mix4",
                       "--model", "distilbert", "--out", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()
        assert run("plan", "--test", "heterogeneous-mix4", "--model=distilbert",
                   f"--out={c}") == 0
        assert c.read_bytes() == a.read_bytes()

    @pytest.mark.parametrize("objective", ["energy", "latency"])
    def test_fixed_objectives_ignore_weight_flags(self, tmp_path, objective):
        a, b = tmp_path / "a.yaml", tmp_path / "b.yaml"
        args = ("plan", "--model", "distilbert", "--objective", objective)
        assert run(*args, "--out", str(a)) == 0
        assert run(*args, "--weight-energy", "nan", "--weight-latency", "-1",
                   "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()


    def test_select_devices_above_12_is_refused(self, tmp_path, capsys,
                                                 monkeypatch):
        """Subsets are searched only up to 12 devices: on 13,
        `--select-devices` exits 1 with one line naming both counts before
        any plan is built, and writes no plan.  Plain `plan` still runs."""
        calls = []
        choose = scheduler.choose_parallelism

        def recording(*args):
            calls.append(args[1])
            return choose(*args)

        monkeypatch.setattr(scheduler, "choose_parallelism", recording)
        out = tmp_path / "plan.yaml"
        argv = ("plan", "--devices", ",".join(["nano"] * 11 + ["tx2", "nx"]),
                "--model", "distilbert", "--objective", "latency",
                "--out", str(out))
        assert run(*argv, "--select-devices") == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: device selection searches pools of at most 12 "
                       "devices, not 13"]
        assert not out.exists() and calls == []
        assert run(*argv) == 0 and out.exists() and len(calls) == 1

    # The next two run in a child process with the time limit that a
    # regression breaks: it then fails the test instead of stalling the suite.
    def test_a_deep_model_plans_in_time(self, tmp_path):
        """A 20,000-block model plans, as PP, in well under a second; a stage
        split that grows with devices x blocks^2 does not finish in 30 s."""
        (tmp_path / "deep.yaml").write_text(
            "name: deep\nnum_blocks: 20000\nhidden_size: 16\nnum_heads: 1\n"
            "vocab_size: 1000\n")
        proc = _python("-m", "edgetrainsim.cli", "plan", "--testbed",
                       "heterogeneous-mix4", "--model-config", "deep.yaml",
                       "--out", "plan.yaml", cwd=tmp_path, timeout=30)
        assert proc.returncode == 0, proc.stderr
        assert yaml.safe_load((tmp_path / "plan.yaml").read_text())["kind"] \
            == "pp"

    @pytest.mark.parametrize("argv", [("plan", "--model", "distilbert"),
                                      ("sweep",)], ids=["plan", "sweep"])
    def test_the_largest_sync_period_runs_in_time(self, tmp_path, argv):
        """`plan` and `sweep` price one sync period in closed form; a loop
        over its 2**53 iterations does not finish in 30 s."""
        proc = _python("-m", "edgetrainsim.cli", *argv, "--testbed",
                       "homogeneous-nano4", "--sync-period", str(2**53),
                       "--out", "out", cwd=tmp_path, timeout=30)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out").stat().st_size > 0

    def test_free_checkpoints_plan_and_simulate(self, tmp_path):
        """With no failures and free writes the interval is the cap, not
        NaN, and the plan simulates; ``faults`` asks for the same one."""
        plan, result = tmp_path / "free.yaml", tmp_path / "result.yaml"
        free = ("--mtbf", "inf", "--ckpt-bandwidth", "inf")
        assert run("plan", "--testbed", "homogeneous-nano4", "--model",
                   "gpt2-s", *free, "--out", str(plan)) == 0
        data = yaml.safe_load(plan.read_text())
        assert data["checkpoint_interval_s"] == CHECKPOINT_INTERVAL_CAP
        assert run("simulate", "--plan", str(plan), "--out", str(result)) == 0
        del data["checkpoint_interval_s"]
        plan.write_text(yaml.safe_dump(data))
        assert run("faults", "--plan", str(plan), *free,
                   "--out", str(result)) == 0
        assert yaml.safe_load(result.read_text())["checkpoint_interval_s"] \
            == CHECKPOINT_INTERVAL_CAP

    @pytest.mark.parametrize("stored", [True, False])
    def test_faults_profiles_and_checks_memory_once(self, tmp_path, stored):
        """`faults` profiles the iteration and checks memory once, whether
        the plan file holds its interval or the interval is planned, from
        the same profile, as `plan` plans it."""
        plan = tmp_path / "plan.yaml"
        assert run("plan", "--testbed", "homogeneous-nano4", "--model",
                   "gpt2-s", "--out", str(plan)) == 0
        data = yaml.safe_load(plan.read_text())
        if not stored:
            del data["checkpoint_interval_s"]
            plan.write_text(yaml.safe_dump(data))
        report = tmp_path / "report.yaml"
        with mock.patch.object(simengine, "_profile_iteration",
                               wraps=simengine._profile_iteration) as prof, \
                mock.patch.object(simengine, "check_memory",
                                  wraps=simengine.check_memory) as mem:
            assert run("faults", "--plan", str(plan), "--mtbf", "600",
                       "--seed", "0", "--out", str(report)) == 0
        assert (prof.call_count, mem.call_count) == (1, 1)
        loaded, domain, _ = config_io.plan_from_dict(data)
        want = (data["checkpoint_interval_s"] if stored else
                scheduler.plan_checkpointing(loaded, domain, replace(
                    DEFAULT_FAULT_MODEL, mtbf_per_device=600.0)))
        assert yaml.safe_load(report.read_text())["checkpoint_interval_s"] \
            == want

    def test_shards_near_2_53_sum_to_the_batch(self, tmp_path):
        """Near 2**53 a float quotient of the share split can round up to a
        whole number; the shards still sum to the batch."""
        plan = tmp_path / "plan.yaml"
        assert run("plan", "--testbed", "heterogeneous-mix4", "--model",
                   "distilbert", "--batch-size", "8731263594046565",
                   "--micro-batch", "1", "--out", str(plan)) == 0
        data = yaml.safe_load(plan.read_text())
        assert data["kind"] == "dp"
        assert sum(data["partition"]["shard_sizes"]) \
            == data["job"]["global_batch"] == 8731263594046565

    @pytest.mark.parametrize("flags", [
        ("--sync-period", "15"),
        ("--sync-period", "6", "--objective", "latency")],
        ids=["energy-k15", "latency-k6"])
    def test_plan_is_ranked_by_its_long_run_rate(self, tmp_path, flags):
        """20 iterations hold one sync of period 15 and three of period 6,
        fewer than the long-run 20/15 and 20/6, which made DP look cheaper
        than PP; priced over one sync period, PP wins, and the plan predicts
        what one period simulates."""
        plan, result = tmp_path / "plan.yaml", tmp_path / "result.yaml"
        assert run("plan", "--testbed", "heterogeneous-mix4", "--mode", "gpu",
                   "--model", "opt-350m", *flags, "--out", str(plan)) == 0
        data = yaml.safe_load(plan.read_text())
        assert data["kind"] == "pp"
        assert run("simulate", "--plan", str(plan), "--iterations", flags[1],
                   "--out", str(result)) == 0
        simulated = yaml.safe_load(result.read_text())
        assert data["predicted"] == {key: simulated[key] for key in (
            "latency_per_sample_s", "energy_per_sample_j")}

    def test_a_wider_mlp_costs_more(self, tmp_path):
        """The model file's mlp_ratio reaches the costs: a ratio-8 gpt2-s
        predicts 44.85 ms and 1.523 J per sample where ratio 4 predicts
        31.41 ms and 1.053 J."""
        predicted = {}
        for ratio in (4, 8):
            model, out = tmp_path / f"r{ratio}.yaml", tmp_path / "plan.yaml"
            model.write_text(config_io.dump_yaml(config_io.model_to_dict(
                replace(model_preset("gpt2-s"), mlp_ratio=ratio))))
            assert run("plan", "--testbed", "homogeneous-nano4",
                       "--model-config", str(model), "--out", str(out)) == 0
            data = yaml.safe_load(out.read_text())
            assert data["model"]["mlp_ratio"] == ratio
            predicted[ratio] = data["predicted"]
        assert predicted[4] == {"energy_per_sample_j": 1.0529315008000002,
                                "latency_per_sample_s": 0.0314060918}
        assert predicted[8] == {"energy_per_sample_j": 1.522903264,
                                "latency_per_sample_s": 0.044854079}


class TestSimulate:
    def plan_file(self, tmp_path, **kwargs):
        out = tmp_path / "plan.yaml"
        args = ["plan", "--testbed", "homogeneous-nano4", "--model", "gpt2-s",
                "--out", str(out)]
        assert run(*args) == 0
        return out

    def test_round_trip(self, tmp_path):
        plan = self.plan_file(tmp_path)
        out = tmp_path / "result.yaml"
        assert run("simulate", "--plan", str(plan), "--out", str(out)) == 0
        result = yaml.safe_load(out.read_text())
        assert result["plan_kind"] in ("dp", "pp")
        assert result["latency_per_sample_s"] > 0
        assert not result["oom"]
        # accounting closes per device in the serialized report
        for usage in result["per_device"].values():
            total = (usage["compute_time_s"] + usage["comm_time_s"]
                     + usage["idle_time_s"])
            assert abs(total - result["makespan_s"]) <= 1e-9

    def test_trace_is_time_ordered(self, tmp_path):
        plan = self.plan_file(tmp_path)
        trace = tmp_path / "trace.tsv"
        out = tmp_path / "result.yaml"
        assert run("simulate", "--plan", str(plan), "--iterations", "1",
                   "--trace", str(trace), "--out", str(out)) == 0
        lines = trace.read_text().splitlines()
        assert lines[0] == "time\tdevice\tkind\tduration\tbytes"
        times = [float(line.split("\t")[0]) for line in lines[1:]]
        assert times and times == sorted(times)

    def test_largest_iteration_count_matches_whole_sync_periods(self,
                                                               tmp_path):
        """2**53 iterations cost no more than 20, and their per-sample
        numbers are those of 20 (four sync periods of 5) up to the rounding
        of the one partial period."""
        plan = tmp_path / "plan.yaml"
        assert run("plan", "--testbed", "heterogeneous-mix4", "--model",
                   "distilbert", "--out", str(plan)) == 0
        assert yaml.safe_load(plan.read_text())["kind"] == "dp"
        results = []
        for iterations in (20, 2**53):
            out = tmp_path / f"{iterations}.yaml"
            assert run("simulate", "--plan", str(plan), "--iterations",
                       str(iterations), "--out", str(out)) == 0
            results.append(yaml.safe_load(out.read_text()))
        for key in ("latency_per_sample_s", "energy_per_sample_j"):
            assert results[1][key] == pytest.approx(results[0][key],
                                                    rel=1e-12)

    def test_a_pipeline_on_slow_links_never_idles_below_zero(self, tmp_path):
        """On four Nanos with 10 Mbps links the latency objective picks a
        pipeline whose transfers outweigh its compute; every device's idle
        time is still >= 0, with no tolerance."""
        domain = TrustedDomain(
            devices=tuple(jetson_nano(f"nano-{i}") for i in range(4)),
            network=NetworkModel(default_bandwidth=10e6), name="nano4-10mbps")
        path, plan, out = (tmp_path / name for name in (
            "domain.yaml", "plan.yaml", "result.yaml"))
        path.write_text(config_io.dump_yaml(config_io.domain_to_dict(domain)))
        assert run("plan", "--domain", str(path), "--model", "gpt2-s",
                   "--objective", "latency", "--out", str(plan)) == 0
        assert run("simulate", "--plan", str(plan), "--out", str(out)) == 0
        result = yaml.safe_load(out.read_text())
        assert result["plan_kind"] == "pp"
        idle = [u["idle_time_s"] for u in result["per_device"].values()]
        assert min(idle) >= 0, idle
        assert [round(t, 1) for t in idle] == [288.8, 87.4, 87.4, 288.8]

    def test_unknown_participant_exits_1(self, tmp_path):
        plan = self.plan_file(tmp_path)
        data = yaml.safe_load(plan.read_text())
        data["participants"][0] = "ghost"
        plan.write_text(yaml.safe_dump(data))
        assert run("simulate", "--plan", str(plan)) == 1

    def test_micro_batch_count_must_match_job_exits_1(self, tmp_path, capsys):
        domain = load_testbed("homogeneous-nano4")
        job = default_edge_job()
        plan = make_pp_plan(domain, model_preset("gpt2-s"), job,
                            domain.device_ids)
        data = config_io.plan_to_dict(plan, domain)
        assert data["partition"]["micro_batch_count"] == job.micro_batch_count
        path = tmp_path / "plan.yaml"
        path.write_text(config_io.dump_yaml(data))
        assert run("simulate", "--plan", str(path)) == 0
        data["partition"]["micro_batch_count"] = job.micro_batch_count + 1
        path.write_text(config_io.dump_yaml(data))
        capsys.readouterr()
        assert run("simulate", "--plan", str(path)) == 1
        assert "micro_batch_count" in capsys.readouterr().err

    def test_sync_period_must_match_job_exits_1(self, tmp_path, capsys):
        domain = load_testbed("homogeneous-nano4")
        job = default_edge_job()
        plan = make_dp_plan(domain, model_preset("gpt2-s"), job,
                            domain.device_ids)
        data = config_io.plan_to_dict(plan, domain)
        assert data["partition"]["sync_period"] == job.dp_sync_period
        path = tmp_path / "plan.yaml"
        path.write_text(config_io.dump_yaml(data))
        assert run("simulate", "--plan", str(path)) == 0
        data["partition"]["sync_period"] = job.dp_sync_period + 1
        path.write_text(config_io.dump_yaml(data))
        capsys.readouterr()
        assert run("simulate", "--plan", str(path)) == 1
        assert ("plan: partition sync_period 6 differs from the job's 5"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("case", sorted(EDITED_PLANS))
    def test_edited_partition_exits_1(self, tmp_path, capsys, case):
        """`simulate` and `faults` both refuse the edited plan file."""
        kind, key, value, *line = EDITED_PLANS[case]
        domain = load_testbed("homogeneous-nano4")
        ids = domain.device_ids[:1] if kind == "single" else domain.device_ids
        plan = make_plan(kind, domain, model_preset("gpt2-s"),
                         default_edge_job(), ids)
        data = config_io.plan_to_dict(plan, domain)
        if key == "participants":
            data["participants"] = value
        else:
            data["partition"][key] = value
        path = tmp_path / "plan.yaml"
        path.write_text(config_io.dump_yaml(data))
        for argv in (("simulate",), ("faults", "--mtbf", "600")):
            assert run(*argv, "--plan", str(path)) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: plan: ")
            assert line in ([], err.splitlines())

    def test_missing_plan_file_exits_1(self):
        assert run("simulate", "--plan", "/nonexistent/plan.yaml") == 1

    def test_oom_plan_exits_2(self, tmp_path, capsys):
        domain = load_testbed("homogeneous-nano4")
        plan = make_dp_plan(domain, model_preset("gpt2-l"), default_edge_job(),
                            domain.device_ids)
        path = tmp_path / "oom.yaml"
        path.write_text(config_io.dump_yaml(config_io.plan_to_dict(plan,
                                                                   domain)))
        out, trace = tmp_path / "result.yaml", tmp_path / "trace.tsv"
        assert run("simulate", "--plan", str(path), "--trace", str(trace),
                   "--out", str(out)) == 2
        result = yaml.safe_load(out.read_text())
        assert result["oom"] and result["oom_devices"]
        assert trace.read_text() == "time\tdevice\tkind\tduration\tbytes\n"

    def test_a_run_with_no_sync_is_finite(self, tmp_path):
        """Three iterations of a five-iteration sync period run no sync, so
        the sync that never ends adds no term."""
        _write_slow_dp_plan(tmp_path / "plan.yaml")
        out = tmp_path / "result.yaml"
        assert run("simulate", "--plan", str(tmp_path / "plan.yaml"),
                   "--iterations", "3", "--out", str(out)) == 0
        result = yaml.safe_load(out.read_text())
        assert result["makespan_s"] == 10.1688016896
        assert result["comm_bytes_by_op"] == {}
        assert all(math.isfinite(u["energy_j"])
                   for u in result["per_device"].values())

    def test_oom_plan_faults_exits_2(self, tmp_path, capsys):
        domain = load_testbed("homogeneous-nano4")
        plan = make_dp_plan(domain, model_preset("gpt2-l"), default_edge_job(),
                            domain.device_ids)
        path = tmp_path / "oom.yaml"
        path.write_text(config_io.dump_yaml(config_io.plan_to_dict(plan,
                                                                   domain)))
        assert run("faults", "--plan", str(path), "--mtbf", "600") == 2
        assert capsys.readouterr().err == (
            "faults aborted: out of memory on nano-0, nano-1, nano-2, nano-3\n")


class TestSweep:
    def test_full_grid_shape(self, tmp_path):
        out = tmp_path / "sweep.tsv"
        assert run("sweep", "--testbed", "homogeneous-nano4",
                   "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 4 * 5 * 2  # header + models x kinds x modes
        header = lines[0].split("\t")
        assert header[:4] == ["model", "kind", "mode", "testbed"]
        rows = [dict(zip(header, line.split("\t"))) for line in lines[1:]]
        # GPT2-L: single/dp/sp are OOM with empty metric cells; tp/pp run
        for row in rows:
            if row["model"] == "gpt2-l" and row["kind"] in ("single", "dp",
                                                            "sp"):
                assert row["oom"] == "true"
                assert row["latency_per_sample_s"] == ""
                assert row["energy_per_sample_j"] == ""
            elif row["model"] == "gpt2-l":
                assert row["oom"] == "false"
                assert float(row["latency_per_sample_s"]) > 0

    def test_row_order_is_stable_and_bytes_identical(self, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        for out in (a, b):
            assert run("sweep", "--testbed", "heterogeneous-mix4",
                       "--models", "distilbert,gpt2-s", "--out", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().splitlines()
        assert len(lines) == 1 + 2 * 5 * 2

    def test_repeated_model_writes_its_rows_once(self, tmp_path):
        once, twice = tmp_path / "once.tsv", tmp_path / "twice.tsv"
        for models, out in (("gpt2-s", once), ("gpt2-s,gpt2-s", twice)):
            assert run("sweep", "--testbed", "heterogeneous-mix4",
                       "--models", models, "--out", str(out)) == 0
        assert twice.read_bytes() == once.read_bytes()
        assert len(once.read_text().splitlines()) == 1 + 5 * 2

    def test_mode_filter(self, tmp_path):
        out = tmp_path / "sweep.tsv"
        assert run("sweep", "--models", "distilbert", "--mode", "gpu",
                   "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 5
        assert all(line.split("\t")[2] == "gpu" for line in lines[1:])

    def test_unknown_model_exits_1(self):
        assert run("sweep", "--models", "bogus") == 1

    def test_a_rejected_run_is_written_as_one_that_does_not_fit(self,
                                                                tmp_path):
        """On a link that never delivers, every collective kind's run is
        one the planner rejects; its row is `oom` with no figures and 0
        bytes, as for a plan that cannot be built."""
        _write_slow_domain(tmp_path / "slow.yaml")
        out = tmp_path / "sweep.tsv"
        assert run("sweep", "--domain", str(tmp_path / "slow.yaml"),
                   "--models", "distilbert", "--out", str(out)) == 0
        header, *lines = out.read_text().splitlines()
        rows = [dict(zip(header.split("\t"), line.split("\t")))
                for line in lines]
        assert len(rows) == 10
        for row in rows:
            cells = (row["latency_per_sample_s"], row["energy_per_sample_j"],
                     row["oom"], row["comm_bytes_per_iter"])
            if row["kind"] == "single":
                assert cells[2] == "false" and float(cells[0]) > 0
            else:
                assert cells == ("", "", "true", "0"), row


class TestFaults:
    def plan_file(self, tmp_path):
        out = tmp_path / "plan.yaml"
        assert run("plan", "--testbed", "homogeneous-nano4",
                   "--model", "distilbert", "--out", str(out)) == 0
        return out

    def test_huge_mtbf_matches_fault_free(self, tmp_path):
        plan = self.plan_file(tmp_path)
        out = tmp_path / "report.yaml"
        assert run("faults", "--plan", str(plan), "--mtbf", "1e12",
                   "--out", str(out)) == 0
        report = yaml.safe_load(out.read_text())
        assert report["failures"] == 0
        assert report["goodput_samples_per_s"] == \
            report["fault_free_throughput_samples_per_s"]

    def test_same_seed_is_byte_identical(self, tmp_path):
        plan = self.plan_file(tmp_path)
        a, b = tmp_path / "a.yaml", tmp_path / "b.yaml"
        for out in (a, b):
            assert run("faults", "--plan", str(plan), "--mtbf", "40",
                       "--seed", "7", "--out", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_halving_mtbf_never_helps_on_average(self, tmp_path):
        plan = self.plan_file(tmp_path)
        means = {}
        for mtbf in ("80", "40"):
            total = 0.0
            for seed in range(30):
                out = tmp_path / f"r{mtbf}-{seed}.yaml"
                assert run("faults", "--plan", str(plan), "--mtbf", mtbf,
                           "--seed", str(seed), "--iterations", "5",
                           "--out", str(out)) == 0
                total += yaml.safe_load(out.read_text())[
                    "goodput_samples_per_s"]
            means[mtbf] = total / 30
        assert means["40"] <= means["80"]

    @pytest.mark.parametrize("interval", ["1e3", "1000"])
    def test_interval_is_read_under_the_type_rule(self, tmp_path, interval):
        """YAML 1.1 reads ``1e3`` as text; the interval loads it like every
        number field, and an integer too, and the report writes a float."""
        plan = self.plan_file(tmp_path)
        lines = [f"checkpoint_interval_s: {interval}"
                 if line.startswith("checkpoint_interval_s: ") else line
                 for line in plan.read_text().splitlines()]
        plan.write_text("\n".join(lines) + "\n")
        out = tmp_path / "report.yaml"
        assert run("faults", "--plan", str(plan), "--mtbf", "600",
                   "--out", str(out)) == 0
        assert "checkpoint_interval_s: 1000.0" in out.read_text().splitlines()

    def test_invalid_mtbf_exits_1(self, tmp_path):
        plan = self.plan_file(tmp_path)
        assert run("faults", "--plan", str(plan), "--mtbf", "-5") == 1

    def test_infinite_mtbf_returns_with_no_failures(self, tmp_path):
        """With no failure the report's wall time is `simulate`'s makespan
        to the last digit: on gpt2-s's plan for homogeneous-nano4, adding
        iterations one by one gives 80.39959500799998 s, not 80.399595008."""
        # In a child process with a time limit: a replay that never returns
        # then fails the test instead of blocking the suite.
        assert run("plan", "--testbed", "homogeneous-nano4", "--model",
                   "gpt2-s", "--out", str(tmp_path / "plan.yaml")) == 0
        proc = _python("-m", "edgetrainsim.cli", "faults", "--plan",
                       "plan.yaml", "--mtbf", "inf", "--out", "inf.yaml",
                       cwd=tmp_path, timeout=60)
        assert proc.returncode == 0, proc.stderr
        report = yaml.safe_load((tmp_path / "inf.yaml").read_text())
        assert report["failures"] == 0
        assert run("simulate", "--plan", str(tmp_path / "plan.yaml"), "--out",
                   str(tmp_path / "sim.yaml")) == 0
        assert report["wall_time_s"] == yaml.safe_load(
            (tmp_path / "sim.yaml").read_text())["makespan_s"]

    def test_a_run_that_never_ends_exits_1(self, tmp_path, capsys):
        # First through the entry point, in a child process with a time
        # limit: a replay that never returns fails the test instead of
        # blocking the suite.
        _write_slow_dp_plan(tmp_path / "plan.yaml")
        line = "error: latency or energy per sample is not finite\n"
        proc = _python("-m", "edgetrainsim.cli", "faults", "--plan",
                       "plan.yaml", "--mtbf", "600", cwd=tmp_path, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", line)
        assert run("faults", "--plan", str(tmp_path / "plan.yaml"),
                   "--mtbf", "600", "--out", str(tmp_path / "r.yaml")) == 1
        assert capsys.readouterr().err == line
        assert not (tmp_path / "r.yaml").exists()

    def test_overflowing_failure_times_print_no_warning(self, tmp_path):
        # At 1e307 s per device the failure times overflow to inf.
        self.plan_file(tmp_path)
        proc = _python("-W", "error", "-m", "edgetrainsim.cli", "faults",
                       "--plan", "plan.yaml", "--mtbf", "1e307", "--out",
                       "big.yaml", cwd=tmp_path, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""


@st.composite
def _link_pools(draw):
    """2 to 6 boards of the three profiles, in a drawn order, on drawn
    per-link bandwidths and latencies, in either mode."""
    profiles = draw(st.lists(st.sampled_from(sorted(DEVICE_PROFILE_FACTORIES)),
                             min_size=2, max_size=6))
    boards = tuple(DEVICE_PROFILE_FACTORIES[name](f"{name}-{i}")
                   for i, name in enumerate(profiles))
    links = tuple((a.id, b.id,
                   Link(draw(st.sampled_from((1e7, 5e7, 1e8, 1e9))),
                        draw(st.sampled_from((0.0, 1e-4, 1e-3)))))
                  for a, b in itertools.combinations(boards, 2))
    return TrustedDomain(devices=boards, network=NetworkModel(links=links),
                         mode=draw(st.sampled_from(("cpu", "gpu"))),
                         name="pool")


def _relabelled(domain, prefix):
    """``domain`` with ``prefix`` before every device id, which keeps both
    the pool order and the sorted order of the ids."""
    return replace(
        domain,
        devices=tuple(replace(d, id=prefix + d.id) for d in domain.devices),
        network=replace(domain.network, links=tuple(
            (prefix + a, prefix + b, link)
            for a, b, link in domain.network.links)))


class TestRelabelling:
    PREFIX = "site-"
    FLOWS = (
        ("plan", "--domain", "{dir}/d.yaml", "--model", "{model}",
         "--objective", "energy", "--out", "{dir}/energy.yaml"),
        ("plan", "--domain", "{dir}/d.yaml", "--model", "{model}",
         "--objective", "latency", "--out", "{dir}/latency.yaml"),
        ("plan", "--domain", "{dir}/d.yaml", "--model", "{model}",
         "--select-devices", "--out", "{dir}/select.yaml"),
        ("simulate", "--plan", "{dir}/energy.yaml", "--iterations", "7",
         "--trace", "{dir}/trace.tsv", "--out", "{dir}/result.yaml"),
        ("faults", "--plan", "{dir}/energy.yaml", "--mtbf", "300", "--seed",
         "{seed}", "--iterations", "30", "--out", "{dir}/faults.yaml"),
    )

    def outputs(self, root, domain, model, seed):
        """Each command's exit code and stderr, then every file written,
        for the flows above on ``domain`` in the new directory ``root``."""
        root.mkdir()
        (root / "d.yaml").write_text(config_io.dump_yaml(
            config_io.domain_to_dict(domain)), encoding="utf-8")
        seen = []
        for argv in self.FLOWS:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = run(*(a.format(dir=root, model=model, seed=seed)
                             for a in argv))
            seen.append((code, err.getvalue()))
        files = {p.name: p.read_text(encoding="utf-8")
                 for p in sorted(root.iterdir()) if p.name != "d.yaml"}
        return seen, files

    @settings(max_examples=25, deadline=None)
    @given(_link_pools(), st.sampled_from(("distilbert", "gpt2-s")),
           st.integers(0, 3))
    def test_prefixed_ids_give_the_same_bytes(self, tmp_path_factory, domain,
                                              model, seed):
        """Renaming devices in a way that keeps both the pool order and the
        sorted order (a common prefix) changes no output byte but the ids:
        `plan` under each objective and with `--select-devices`,
        `simulate --trace` and `faults`."""
        root = tmp_path_factory.mktemp("relabel")
        seen, files = self.outputs(root / "ids", domain, model, seed)
        seen_p, files_p = self.outputs(root / "prefixed",
                                       _relabelled(domain, self.PREFIX),
                                       model, seed)
        assert "energy.yaml" in files
        assert [(code, err.replace(self.PREFIX, "")) for code, err in seen_p] \
            == seen
        assert {name: text.replace(self.PREFIX, "")
                for name, text in files_p.items()} == files


# argv ("{plan}" marks a DP plan file) and the plan's checkpoint_interval_s
BAD_VALUES = {
    "simulate-iterations": (("simulate", "--plan", "{plan}", "--iterations",
                             "0"), None),
    "faults-iterations": (("faults", "--plan", "{plan}", "--mtbf", "600",
                           "--iterations", "0"), None),
    # Run totals are products of the iteration count: above 2**53 it is no
    # longer a whole float, and 10**400 does not convert to one at all.
    **{f"{argv[0]}-iterations-{name}": (argv + ("--iterations", value), None)
       for argv in (("simulate", "--plan", "{plan}"),
                    ("faults", "--plan", "{plan}", "--mtbf", "600"))
       for name, value in (("above-2**53", str(2**53 + 1)),
                           ("10**400", str(10**400)))},
    "negative-weight": (("plan", "--objective", "weighted", "--weight-energy",
                         "-1"), None),
    "zero-weights": (("plan", "--objective", "weighted", "--weight-energy",
                      "0", "--weight-latency", "0"), None),
    "nan-weight": (("plan", "--objective", "weighted", "--weight-energy",
                    "nan"), None),
    "inf-weight": (("plan", "--objective", "weighted", "--weight-latency",
                    "inf"), None),
    "nan-param-bytes": (("plan", "--param-bytes", "nan"), None),
    "inf-param-bytes": (("plan", "--param-bytes", "inf"), None),
    "nan-activation-factor": (("plan", "--activation-factor", "nan"), None),
    "inf-optimizer-multiplier": (("plan", "--optimizer-multiplier", "inf"),
                                 None),
    # Above 2**53 floats no longer count whole units: the share split of a
    # 10**25 sequence hands out its rounding leftover one unit at a time.
    "huge-seq-len": (("plan", "--testbed", "heterogeneous-mix4", "--seq-len",
                      str(10**25)), None),
    "huge-batch": (("plan", "--testbed", "heterogeneous-mix4", "--batch-size",
                    str(10**21), "--micro-batch", "8"), None),
    "float-overflow-seq-len": (("plan", "--seq-len", "9" * 330), None),
    "negative-interval": (("faults", "--plan", "{plan}", "--mtbf", "600"), -5),
    "text-interval": (("faults", "--plan", "{plan}", "--mtbf", "600"), "abc"),
    "negative-seed": (("faults", "--plan", "{plan}", "--mtbf", "600",
                       "--seed", "-1"), None),
    "nan-mtbf": (("faults", "--plan", "{plan}", "--mtbf", "nan"), None),
    "nan-ckpt-bandwidth": (("faults", "--plan", "{plan}", "--mtbf", "600",
                            "--ckpt-bandwidth", "nan"), None),
    "plan-nan-mtbf": (("plan", "--model", "distilbert", "--mtbf", "nan"),
                      None),
    # A reload or a checkpoint write of inf seconds never ends.
    "reload-never-ends": (("faults", "--plan", "{plan}", "--mtbf", "60",
                           "--reload-bandwidth", "1e-300"), None),
    "write-never-ends": (("faults", "--plan", "{plan}", "--mtbf", "60",
                          "--ckpt-bandwidth", "1e-300"), 10.0),
    "trace-missing-dir": (("simulate", "--plan", "{plan}", "--trace",
                           "{missing}/trace.tsv"), None),
    "out-missing-dir": (("simulate", "--plan", "{plan}", "--out",
                         "{missing}/result.yaml"), None),
}


@pytest.mark.parametrize("case", sorted(BAD_VALUES))
def test_bad_value_exits_1_with_one_error_line(tmp_path, capsys, case):
    argv, interval = BAD_VALUES[case]
    domain = load_testbed("homogeneous-nano4")
    plan = make_dp_plan(domain, model_preset("distilbert"), default_edge_job(),
                        domain.device_ids)
    path = tmp_path / "plan.yaml"
    path.write_text(config_io.dump_yaml(
        config_io.plan_to_dict(plan, domain, interval)))
    assert run(*(arg.replace("{plan}", str(path))
                 .replace("{missing}", str(tmp_path / "missing"))
                 for arg in argv)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def assert_edited_input_exits_1(tmp_path, capsys, kind, path, value):
    """Replace the value at ``path`` (keys and list indices) in one input
    file for homogeneous-nano4 and expect exit 1 with one `error:` line.

    ``kind`` "domain" runs `plan --domain` on the domain file; "plan" and
    "pp-plan" run `simulate --plan` on a gpt2-s DP or PP plan file, the
    PP one of four 3-block stages.  Returns the error line.
    """
    domain = load_testbed("homogeneous-nano4")
    if kind == "domain":
        data, argv = config_io.domain_to_dict(domain), ("plan", "--domain")
    else:
        plan = make_plan("pp" if kind == "pp-plan" else "dp", domain,
                         model_preset("gpt2-s"), default_edge_job(),
                         domain.device_ids)
        data = config_io.plan_to_dict(plan, domain)
        argv = ("simulate", "--plan")
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    file = tmp_path / "input.yaml"
    file.write_text(config_io.dump_yaml(data), encoding="utf-8")
    assert run(*argv, str(file)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    return err[0]


def _link(a, b, bandwidth):
    return {"a": a, "b": b, "bandwidth_bps": bandwidth, "latency_s": 1e-4}


# (path into the homogeneous-nano4 domain, new value, the whole error line)
# for `plan --domain`
_LINK = "error: domain.network.links"
BAD_DOMAINS = {
    "nan-memory": (("devices", 0, "mem_capacity_bytes"), math.nan,
                   "error: domain.devices[0]: nano-0: mem_capacity must be "
                   "finite and > 0, got nan"),
    "nan-idle-power": (("devices", 0, "power_idle_w"), math.nan,
                       "error: domain.devices[0]: nano-0: power_idle must be "
                       "finite and >= 0, got nan"),
    "nan-gpu": (("devices", 0, "gpu_throughput_flops"), math.nan,
                "error: domain.devices[0]: nano-0: gpu_throughput must be "
                "finite and >= 0, got nan"),
    "inf-gpu": (("devices", 0, "gpu_throughput_flops"), math.inf,
                "error: domain.devices[0]: nano-0: gpu_throughput must be "
                "finite and >= 0, got inf"),
    "device-not-a-mapping": (("devices", 2), "nano-2",
                             "error: domain.devices[2]: expected a mapping, "
                             "not str"),
    "device-missing-field": (("devices", 1), {"id": "nano-1"},
                             "error: domain.devices[1]: missing required "
                             "field 'cpu_throughput_flops'"),
    "device-unknown-key": (("devices", 3, "speed"), 1,
                           "error: domain.devices[3]: unknown field 'speed'"),
    "device-text-memory": (("devices", 1, "mem_capacity_bytes"), "4 GB",
                           "error: domain.devices[1]: mem_capacity_bytes "
                           "must be a number, not '4 GB'"),
    "link-not-a-mapping": (("network", "links"),
                           [_link("nano-0", "nano-1", 1e9), ["nano-1"]],
                           f"{_LINK}[1]: expected a mapping, not list"),
    "link-missing-a": (("network", "links"),
                       [{"b": "nano-1", "bandwidth_bps": 1e9}],
                       f"{_LINK}[0]: missing required field 'a'"),
    "link-integer-b": (("network", "links"),
                       [_link("nano-0", "nano-1", 1e9), _link("nano-0", 2, 1e9)],
                       f"{_LINK}[1]: b must be a string, not 2"),
    "link-unknown-key": (("network", "links"),
                         [dict(_link("nano-0", "nano-1", 1e9), hops=2)],
                         f"{_LINK}[0]: unknown field 'hops'"),
    "link-missing-bandwidth": (("network", "links"),
                               [{"a": "nano-0", "b": "nano-1"}],
                               f"{_LINK}[0]: missing required field "
                               f"'bandwidth_bps'"),
    "zero-link-bandwidth": (("network", "links"),
                            [_link("nano-0", "nano-1", 0)],
                            f"{_LINK}[0]: link bandwidth must be > 0, got 0.0"),
    "nan-link-bandwidth": (("network", "links"),
                           [_link("nano-0", "nano-1", math.nan)],
                           f"{_LINK}[0]: link bandwidth must be > 0, got nan"),
    "text-link-bandwidth": (("network", "links"),
                            [_link("nano-0", "nano-1", "fast")],
                            f"{_LINK}[0]: bandwidth_bps must be a number, "
                            f"not 'fast'"),
    "negative-link-latency": (("network", "links"),
                              [dict(_link("nano-0", "nano-1", 1e9),
                                    latency_s=-1e-4)],
                              f"{_LINK}[0]: link latency must be finite and "
                              f">= 0, got -0.0001"),
    "nan-link-latency": (("network", "links"),
                         [dict(_link("nano-0", "nano-1", 1e9),
                               latency_s=math.nan)],
                         f"{_LINK}[0]: link latency must be finite and >= 0, "
                         f"got nan"),
    "nan-default-bandwidth": (("network", "default_bandwidth_bps"), math.nan,
                              "error: domain.network: default_bandwidth must "
                              "be > 0, got nan"),
    "link-to-unknown-device": (("network", "links"),
                               [_link("nano-0", "nano-9", 1e9)],
                               "error: domain: link nano-0-nano-9: unknown "
                               "device 'nano-9'"),
    "self-link": (("network", "links"), [_link("nano-0", "nano-0", 1e9)],
                  "error: domain.network: link nano-0-nano-0 joins a device "
                  "to itself"),
    "repeated-link": (("network", "links"), [_link("nano-0", "nano-1", 1e6),
                                             _link("nano-1", "nano-0", 1e9)],
                      "error: domain.network: link nano-1-nano-0 is listed "
                      "twice"),
    # one character over devices.MAX_DEVICE_ID_CHARS
    "123-character-id": (("devices", 0, "id"), "n" * 123,
                         "error: domain.devices[0]: device id must be at "
                         "most 122 characters, got 123: nnnnnnnnnnnnnnnnnnnn"
                         "..."),
    # a C0 or C1 control character, a line or a paragraph separator would
    # split a cell or a row of a TSV output
    **{f"{what}-in-id": (("devices", 0, "id"), "nano" + char,
                         "error: domain.devices[0]: device id must not "
                         "contain a control character or line separator, "
                         f"got U+{ord(char):04X} in {'nano' + char!r}")
       for what, char in (("nul", "\0"), ("tab", "\t"), ("newline", "\n"),
                          ("return", "\r"), ("unit-separator", "\x1f"),
                          ("c1-next-line", "\x85"), ("c1-last", "\x9f"),
                          ("line-separator", "\u2028"),
                          ("paragraph-separator", "\u2029"))},
    "tab-in-name": (("name",), "my\tlab",
                    "error: domain: domain name must not contain a control "
                    "character or line separator, got U+0009 in 'my\\tlab'"),
    "newline-in-name": (("name",), "my\nlab",
                        "error: domain: domain name must not contain a "
                        "control character or line separator, got U+000A in "
                        "'my\\nlab'"),
    "zero-throughput": (("devices", 0),
                        {"id": "nano-0", "cpu_throughput_flops": 0.0,
                         "mem_capacity_bytes": 4e9, "power_idle_w": 2.0,
                         "power_cpu_busy_w": 7.0, "power_gpu_busy_w": 10.0},
                        "error: domain: device nano-0 has zero throughput "
                        "in mode 'gpu'"),
}


@pytest.mark.parametrize("case", sorted(BAD_DOMAINS))
def test_bad_domain_exits_1_with_one_error_line(tmp_path, capsys, case):
    path, value, line = BAD_DOMAINS[case]
    assert assert_edited_input_exits_1(tmp_path, capsys, "domain", path,
                                       value) == line


@pytest.mark.parametrize("command", ["plan", "sweep"])
def test_control_characters_in_names_exit_1(tmp_path, capsys, command):
    """Ids and a name that YAML round-trips but that would split the TSV
    outputs' cells and rows are refused, by `plan` and `sweep` alike."""
    domain = config_io.domain_to_dict(load_testbed("heterogeneous-mix4"))
    domain["devices"][0]["id"], domain["devices"][1]["id"] = "a\tb", "c\nd"
    domain["name"] = "my\tlab"
    path = tmp_path / "domain.yaml"
    path.write_text(config_io.dump_yaml(domain), encoding="utf-8")
    assert config_io.parse_yaml(path.read_text(encoding="utf-8"),
                                "domain") == domain
    assert run(command, "--domain", str(path), "--out",
               str(tmp_path / "out")) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: domain.devices[0]: device id must not contain a control "
        "character or line separator, got U+0009 in 'a\\tb'"]
    assert not (tmp_path / "out").exists()


# A flag given as an empty string is given: (argv, part of its error line)
_KNOWN_MODELS = "(known: distilbert, gpt2-l, gpt2-s, opt-350m)"
# (argv, the whole error line)
EMPTY_VALUES = {
    "model": (("plan", "--model", ""),
              f"error: unknown model preset '' {_KNOWN_MODELS}"),
    "model-config": (("plan", "--model-config", ""),
                     "error: model: file not found: "),
    "domain": (("plan", "--domain", ""), "error: domain: file not found: "),
    "testbed": (("plan", "--testbed", ""),
                "error: unknown testbed preset '' (known: homogeneous-nano4, "
                "heterogeneous-mix4)"),
    "devices": (("plan", "--devices", ""),
                "error: unknown device profile '' (known: nano, nx, tx2)"),
    "sweep-models": (("sweep", "--models", ""),
                     f"error: unknown model preset '' {_KNOWN_MODELS}"),
}


@pytest.mark.parametrize("case", sorted(EMPTY_VALUES))
def test_empty_value_exits_1_with_one_error_line(capsys, case):
    argv, line = EMPTY_VALUES[case]
    assert run(*argv) == 1
    assert capsys.readouterr().err.splitlines() == [line]


# Domain and model sources given together ("{domain}" and "{model}" mark
# valid files): (argv, the flags the error line names)
CONFLICTS = {
    "testbed-devices": (("plan", "--testbed", "heterogeneous-mix4",
                         "--devices", "nano"), "--testbed, --devices"),
    "testbed-domain": (("plan", "--domain", "{domain}", "--testbed",
                        "homogeneous-nano4"), "--testbed, --domain"),
    "domain-devices": (("plan", "--devices", "nano,nx", "--domain",
                        "{domain}"), "--domain, --devices"),
    "all-three": (("plan", "--testbed", "homogeneous-nano4", "--domain",
                   "{domain}", "--devices", "nano"),
                  "--testbed, --domain, --devices"),
    "model-and-config": (("plan", "--model", "gpt2-s", "--model-config",
                          "{model}"), "--model, --model-config"),
    "sweep-testbed-devices": (("sweep", "--models", "distilbert", "--testbed",
                               "homogeneous-nano4", "--devices", "nano"),
                              "--testbed, --devices"),
}


@pytest.mark.parametrize("case", sorted(CONFLICTS))
def test_conflicting_sources_exit_1_naming_the_flags(tmp_path, capsys, case):
    argv, flags = CONFLICTS[case]
    domain, model = tmp_path / "domain.yaml", tmp_path / "model.yaml"
    domain.write_text(config_io.dump_yaml(config_io.domain_to_dict(
        load_testbed("homogeneous-nano4"))))
    model.write_text(config_io.dump_yaml(config_io.model_to_dict(
        model_preset("distilbert"))))
    assert run(*(arg.replace("{domain}", str(domain))
                 .replace("{model}", str(model)) for arg in argv)) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: give only one of {flags}"]


def _every_flag(name):
    """``name``'s argv with each of its flags set to a non-default value."""
    p = argparse.ArgumentParser()
    COMMANDS[name][1](p)
    argv = [name]
    for action in p._actions:
        if not action.option_strings or action.dest == "help":
            continue
        flag = action.option_strings[-1]
        if action.nargs == 0:
            argv.append(flag)
        elif action.choices:
            argv += [flag, action.choices[-1]]
        else:
            argv += [flag, {int: "3", float: "2.5"}.get(action.type, "x")]
    return argv


@pytest.mark.parametrize("name", list(COMMANDS))
def test_parse_args_matches_full_parser(name):
    argv = _every_flag(name)
    assert vars(parse_args(argv)) == vars(build_parser().parse_args(argv))


# Help, usage errors and edge cases that the full parser must answer.
USAGE_ARGVS = [[], ["-h"], *[[name, "-h"] for name in COMMANDS], ["bogus"],
               ["plan", "--iterations", "x"], ["plan", "--mtbf", "x"],
               ["plan", "--mode", "tpu"],
               ["faults", "--plan", "p"], ["plan", "--bogus"],
               ["plan", "extra"], ["presets", "x"], ["plan", "--sel"],
               ["--"], ["--", "plan"], ["plan", "--"], ["plan", "--", "x"]]


@pytest.mark.parametrize("argv", USAGE_ARGVS, ids=" ".join)
def test_parse_args_prints_and_exits_like_full_parser(argv, capsys,
                                                      monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")

    def outcome(parse):
        try:
            result = vars(parse(list(argv)))
        except SystemExit as exc:
            result = exc.code
        out = capsys.readouterr()
        return result, out.out, out.err

    assert outcome(parse_args) == outcome(
        lambda a: build_parser().parse_args(a))


def _fields(args):
    """``vars(args)`` by repr, so that NaN equals NaN and -0.0 is not 0.0."""
    return {key: repr(value) for key, value in vars(args).items()}


def _outcome(parse, argv):
    """What ``parse(argv)`` returns or its exit code, and what it prints,
    with help wrapped at 80 columns."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = _fields(parse(list(argv)))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def _good_value(flag):
    """A value that converts with the flag's type into its choices."""
    if flag.choices:
        return st.sampled_from(flag.choices)
    if flag.type is int:
        return st.integers(0, 10**6).map(str)
    if flag.type is float:
        return st.floats(0, 1e9).map(repr)
    return st.sampled_from(("x", "plan.yaml", "nano,nx", "a b"))


def _bad_value(flag):
    """A value that fails the flag's type or choices, or that the full
    parser reads as a flag or a negative number."""
    if flag.choices:
        bad = ("tpu", "", "Energy")
    else:
        bad = {int: ("2.5", "x", "", "1e3", "-1"),
               float: ("x", "", "1,5", "-2.5")}.get(flag.type, ("-x",))
    return st.sampled_from(bad + ("-h", "--", "-", "--plan"))


def _odd_item(flag):
    """One item that only the full parser reads, or that it refuses."""
    name = flag.name
    return st.one_of(
        _bad_value(flag).map(lambda value: [name, value]),
        st.just([name]),
        st.integers(3, len(name) - 1).flatmap(
            lambda cut: _good_value(flag).map(lambda v: [name[:cut], v])),
        _good_value(flag).map(lambda value: [f"{name}={value}"]),
        st.sampled_from(("-h", "--help", "--", "--bogus", "extra", "", "-1"))
        .map(lambda item: [item]))


@st.composite
def _argvs(draw):
    """An argv over one command's flag vocabulary (plan's for `presets`,
    which has none, and for a non-command): exact ``--flag value`` items,
    often led by the required flags, with up to two items inserted anywhere
    that only the full parser reads (more often for a flag with a type or
    choices)."""
    name = draw(st.sampled_from([*COMMANDS, "plan", "sweep", "bogus", "-h"]))
    flags = list(COMMANDS.get(name, COMMANDS["plan"])[1].values()) \
        or list(COMMANDS["plan"][1].values())
    checked = [flag for flag in flags if flag.type is not str or flag.choices]
    argv = [name]
    if draw(st.booleans()):
        for flag in flags:
            if flag.required:
                argv += [flag.name, draw(_good_value(flag))]
    for flag in draw(st.lists(st.sampled_from(flags), max_size=6)):
        argv += [flag.name] if flag.store_true \
            else [flag.name, draw(_good_value(flag))]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(1, len(argv)))
        argv[at:at] = draw(_odd_item(draw(st.sampled_from(flags + checked))))
    return argv


@settings(max_examples=400, deadline=None)
@given(_argvs())
# One item that only the full parser decides, each of a different kind
@example(["plan", "--mode", "tpu"])
@example(["sweep", "--sync-period", "3", "--objective", "energy"])
@example(["faults", "--mtbf", "600", "--seed", "1"])
@example(["plan", "--out", "-h"])
@example(["simulate", "--plan", "p", "--iterations", "2.5"])
@example(["plan", "--select-devices", "x"])
def test_parse_args_agrees_with_full_parser_on_any_argv(argv):
    assert _outcome(parse_args, argv) == \
        _outcome(lambda a: build_parser().parse_args(a), argv)


def test_exact_argvs_build_no_parser(monkeypatch, capsys):
    argvs = {name: _every_flag(name) for name in COMMANDS}
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)

    def parsers_built(argv):
        built.clear()
        with contextlib.suppress(SystemExit):
            parse_args(argv)
        return len(built)

    assert {name: parsers_built(argv) for name, argv in argvs.items()} \
        == dict.fromkeys(COMMANDS, 0)
    assert parsers_built(["plan", "-h"]) >= 1
    assert parsers_built(["plan", "--mod", "gpt2-s"]) >= 1


ROOT = Path(__file__).resolve().parent.parent


def _python(*args, cwd, timeout=120, **env_overrides):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    env.update(env_overrides)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, encoding="utf-8",
                          timeout=timeout)


ASCII_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}


def _write_cafe_domain(path):
    """Two Nanos with non-ASCII ids in a domain named café, written by hand
    in block YAML with the non-ASCII strings double-quoted."""
    device = ('- id: "nano-é%d"\n  cpu_throughput_flops: 15.0e+9\n'
              '  gpu_throughput_flops: 240.0e+9\n  mem_capacity_bytes: 4.0e+9\n'
              '  power_idle_w: 2.0\n  power_cpu_busy_w: 7.0\n'
              '  power_gpu_busy_w: 10.0\n  power_net_w: 1.5\n')
    path.write_text('schema_version: 1\nname: "café"\ndevices:\n'
                    + "".join(device % i for i in range(2)), encoding="utf-8")


def _write_lab_domain(path):
    """Two Nanos with the ids ``007`` and ``café`` in a domain named
    ``my lab``, as ``dump_yaml`` writes it: each name double-quoted."""
    nano = jetson_nano("nano-0")
    domain = TrustedDomain(tuple(replace(nano, id=i) for i in ("007", "café")),
                           name="my lab")
    text = config_io.dump_yaml(config_io.domain_to_dict(domain))
    assert {'name: "my lab"', 'id: "007"', 'id: "café"'} <= {
        line.strip("- ") for line in text.splitlines()}
    path.write_text(text, encoding="utf-8")


class TestEntryPoint:
    def test_every_output_names_its_encoding(self, tmp_path):
        strict = ("-X", "warn_default_encoding", "-W",
                  "error::EncodingWarning", "-m", "edgetrainsim.cli")
        for argv in (("plan", "--testbed", "homogeneous-nano4", "--model",
                      "distilbert", "--out", "plan.yaml"),
                     ("simulate", "--plan", "plan.yaml", "--trace",
                      "trace.tsv", "--out", "result.yaml"),
                     ("sweep", "--testbed", "homogeneous-nano4", "--models",
                      "distilbert", "--out", "sweep.tsv"),
                     ("faults", "--plan", "plan.yaml", "--mtbf", "600",
                      "--out", "report.yaml")):
            proc = _python(*strict, *argv, cwd=tmp_path)
            assert proc.returncode == 0, proc.stderr

    def test_non_ascii_names_are_written_as_utf8_in_an_ascii_locale(
            self, tmp_path):
        """The trace is the same bytes as under the default locale."""
        _write_cafe_domain(tmp_path / "d.yaml")
        for argv in (("plan", "--domain", "d.yaml", "--model", "distilbert",
                      "--out", "plan.yaml"),
                     ("simulate", "--plan", "plan.yaml", "--trace",
                      "trace.tsv", "--out", "result.yaml"),
                     ("sweep", "--domain", "d.yaml", "--models", "distilbert",
                      "--out", "sweep.tsv")):
            proc = _python("-m", "edgetrainsim.cli", *argv, cwd=tmp_path,
                           **ASCII_LOCALE)
            assert proc.returncode == 0, proc.stderr
        assert "\tnano-é1\t" in (tmp_path / "trace.tsv").read_text("utf-8")
        assert "\tcafé\t" in (tmp_path / "sweep.tsv").read_text("utf-8")
        proc = _python("-m", "edgetrainsim.cli", "simulate", "--plan",
                       "plan.yaml", "--trace", "default.tsv", "--out",
                       os.devnull, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "default.tsv").read_bytes() \
            == (tmp_path / "trace.tsv").read_bytes()

    def test_stdout_is_utf8_in_an_ascii_locale(self, tmp_path):
        _write_cafe_domain(tmp_path / "d.yaml")
        proc = _python("-m", "edgetrainsim.cli", "sweep", "--domain",
                       "d.yaml", "--models", "distilbert", cwd=tmp_path,
                       **ASCII_LOCALE)
        assert proc.returncode == 0, proc.stderr
        assert "\tcafé\t" in proc.stdout

    def test_every_command_runs_without_numpy(self, tmp_path):
        """The runtime needs only the standard library: with numpy blocked,
        so that importing it raises ImportError, every command exits 0."""
        script = """
import sys
sys.modules["numpy"] = None
from edgetrainsim.cli import main
nano4 = ["--testbed", "homogeneous-nano4"]
assert main(["presets"]) == 0
assert main(["plan", *nano4, "--model", "distilbert", "--out", "p.yaml"]) == 0
assert main(["simulate", "--plan", "p.yaml", "--trace", "t.tsv",
             "--out", "r.yaml"]) == 0
assert main(["sweep", *nano4, "--models", "distilbert", "--out", "s.tsv"]) == 0
assert main(["faults", "--plan", "p.yaml", "--mtbf", "600"]) == 0
"""
        proc = _python("-c", script, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr

    def test_readme_flow_imports_no_pathlib(self, tmp_path):
        """The README flow reads and writes its files without pathlib,
        argparse, numpy or PyYAML.  The interpreter runs with -S, as a site
        hook may import pathlib at start-up."""
        script = """
import sys
assert "pathlib" not in sys.modules
from edgetrainsim.cli import main
nano4 = ["--testbed", "homogeneous-nano4"]
assert main(["plan", *nano4, "--model", "gpt2-s", "--objective", "energy",
             "--out", "p.yaml"]) == 0
assert main(["simulate", "--plan", "p.yaml", "--trace", "t.tsv",
             "--out", "r.yaml"]) == 0
assert main(["sweep", "--testbed", "heterogeneous-mix4", "--out", "s.tsv"]) == 0
assert main(["faults", "--plan", "p.yaml", "--mtbf", "600", "--seed", "0",
             "--out", "f.yaml"]) == 0
assert not {"pathlib", "argparse", "numpy", "yaml"} & set(sys.modules)
"""
        proc = _python("-S", "-c", script, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr

    def test_program_files_load_without_pyyaml_or_argparse(self, tmp_path):
        """The README flow on files the program wrote, a domain among them,
        imports none of numpy, PyYAML and argparse, and nor does a
        hand-written block domain of double-quoted non-ASCII names."""
        (tmp_path / "d.yaml").write_text(config_io.dump_yaml(
            config_io.domain_to_dict(load_testbed("homogeneous-nano4"))))
        _write_cafe_domain(tmp_path / "cafe.yaml")
        script = """
import sys
from edgetrainsim.cli import main
domain = ["--domain", "d.yaml"]
assert main(["plan", *domain, "--model", "gpt2-s", "--objective", "energy",
             "--out", "p.yaml"]) == 0
assert main(["simulate", "--plan", "p.yaml", "--trace", "t.tsv",
             "--out", "r.yaml"]) == 0
assert main(["sweep", *domain, "--out", "s.tsv"]) == 0
assert main(["faults", "--plan", "p.yaml", "--mtbf", "600", "--out",
             "f.yaml"]) == 0
assert main(["plan", "--domain", "cafe.yaml", "--model", "distilbert",
             "--out", "cafe.plan.yaml"]) == 0
assert main(["simulate", "--plan", "cafe.plan.yaml", "--out",
             "cafe.r.yaml"]) == 0
assert not {"numpy", "yaml", "argparse"} & set(sys.modules), \
    sorted(sys.modules)
"""
        proc = _python("-c", script, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr

    def test_quoted_names_need_no_pyyaml(self, tmp_path):
        """With PyYAML blocked, a domain that ``dump_yaml`` wrote with the
        quoted name ``my lab`` and ids ``007`` and ``café`` plans,
        simulates, sweeps and replays."""
        _write_lab_domain(tmp_path / "lab.yaml")
        script = """
import sys
sys.modules["yaml"] = None
from edgetrainsim.cli import main
lab = ["--domain", "lab.yaml"]
assert main(["plan", *lab, "--model", "distilbert", "--out", "p.yaml"]) == 0
assert main(["simulate", "--plan", "p.yaml", "--trace", "t.tsv",
             "--out", "r.yaml"]) == 0
assert main(["sweep", *lab, "--models", "distilbert", "--out", "s.tsv"]) == 0
assert main(["faults", "--plan", "p.yaml", "--mtbf", "600", "--out",
             "f.yaml"]) == 0
"""
        proc = _python("-c", script, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "\tmy lab\t" in (tmp_path / "s.tsv").read_text("utf-8")
        assert "\tcafé\t" in (tmp_path / "t.tsv").read_text("utf-8")
