"""End-to-end command-line tests: exit codes, file formats, determinism."""

import argparse
import contextlib
import io
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

from edgetrainsim import config_io
from edgetrainsim.cli import COMMANDS, build_parser, main, parse_args
from edgetrainsim.devices import (DeviceProfile, TrustedDomain,
                                  testbed_preset as load_testbed)
from edgetrainsim.parallelism import make_dp_plan, make_plan, make_pp_plan
from edgetrainsim.workload import default_edge_job, model_preset


def run(*argv):
    return main(list(argv))


def _stages(*ranges, devices=("nano-0", "nano-1", "nano-2", "nano-3")):
    return [{"device": d, "start": s, "end": e}
            for d, (s, e) in zip(devices, ranges)]


# (kind, partition field, edited value) for gpt2-s on homogeneous-nano4;
# "participants" edits the plan's participant list instead.
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
    "pp-empty-stage": ("pp", "stages", _stages((0, 0), (0, 4), (4, 8),
                                               (8, 12))),
    "single-two-participants": ("single", "participants",
                                ["nano-0", "nano-1"]),
}


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

    def test_unknown_testbed_exits_1(self, capsys):
        assert run("plan", "--testbed", "bogus") == 1

    def test_unknown_model_exits_1(self):
        assert run("plan", "--model", "bogus") == 1

    def test_missing_domain_file_exits_1(self):
        assert run("plan", "--domain", "/nonexistent/file.yaml") == 1

    def test_usage_error_exits_1(self):
        with pytest.raises(SystemExit) as excinfo:
            run("plan", "--objective", "speed")
        assert excinfo.value.code == 1

    def test_plan_output_is_byte_stable(self, tmp_path):
        a, b = tmp_path / "a.yaml", tmp_path / "b.yaml"
        for out in (a, b):
            assert run("plan", "--testbed", "heterogeneous-mix4",
                       "--model", "distilbert", "--out", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("objective", ["energy", "latency"])
    def test_fixed_objectives_ignore_weight_flags(self, tmp_path, objective):
        a, b = tmp_path / "a.yaml", tmp_path / "b.yaml"
        args = ("plan", "--model", "distilbert", "--objective", objective)
        assert run(*args, "--out", str(a)) == 0
        assert run(*args, "--weight-energy", "nan", "--weight-latency", "-1",
                   "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()


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
        kind, key, value = EDITED_PLANS[case]
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
        assert run("simulate", "--plan", str(path)) == 1
        assert capsys.readouterr().err.startswith("error: plan: ")

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

    def test_mode_filter(self, tmp_path):
        out = tmp_path / "sweep.tsv"
        assert run("sweep", "--models", "distilbert", "--mode", "gpu",
                   "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 5
        assert all(line.split("\t")[2] == "gpu" for line in lines[1:])

    def test_unknown_model_exits_1(self):
        assert run("sweep", "--models", "bogus") == 1

    def test_largest_iteration_count_matches_whole_sync_periods(self,
                                                               tmp_path):
        """2**53 iterations cost no more than 20, and their per-sample
        numbers print as those of 20 (four sync periods of 5) do."""
        tables = []
        for iterations in (20, 2**53):
            out = tmp_path / f"{iterations}.tsv"
            assert run("sweep", "--iterations", str(iterations),
                       "--out", str(out)) == 0
            tables.append(out.read_bytes())
        assert tables[0] == tables[1]


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
        assert report["goodput_samples_per_s"] == pytest.approx(
            report["fault_free_throughput_samples_per_s"], rel=1e-9)

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

    def test_invalid_mtbf_exits_1(self, tmp_path):
        plan = self.plan_file(tmp_path)
        assert run("faults", "--plan", str(plan), "--mtbf", "-5") == 1

    def test_infinite_mtbf_returns_with_no_failures(self, tmp_path):
        # In a child process with a time limit: a replay that never returns
        # then fails the test instead of blocking the suite.
        self.plan_file(tmp_path)
        proc = _python("-m", "edgetrainsim.cli", "faults", "--plan",
                       "plan.yaml", "--mtbf", "inf", "--out", "inf.yaml",
                       cwd=tmp_path, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert yaml.safe_load((tmp_path / "inf.yaml").read_text())[
            "failures"] == 0

    def test_overflowing_failure_times_print_no_warning(self, tmp_path):
        # At 1e307 s per device the failure times overflow to inf.
        self.plan_file(tmp_path)
        proc = _python("-W", "error", "-m", "edgetrainsim.cli", "faults",
                       "--plan", "plan.yaml", "--mtbf", "1e307", "--out",
                       "big.yaml", cwd=tmp_path, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""


# argv ("{plan}" marks a DP plan file) and the plan's checkpoint_interval_s
BAD_VALUES = {
    "plan-iterations": (("plan", "--model", "distilbert", "--iterations", "0"),
                        None),
    "simulate-iterations": (("simulate", "--plan", "{plan}", "--iterations",
                             "0"), None),
    "sweep-iterations": (("sweep", "--models", "distilbert", "--iterations",
                          "0"), None),
    "faults-iterations": (("faults", "--plan", "{plan}", "--mtbf", "600",
                           "--iterations", "0"), None),
    # Run totals are products of the iteration count: above 2**53 it is no
    # longer a whole float, and 10**400 does not convert to one at all.
    **{f"{argv[0]}-iterations-{name}": (argv + ("--iterations", value), None)
       for argv in (("plan", "--model", "distilbert"),
                    ("simulate", "--plan", "{plan}"),
                    ("sweep", "--models", "distilbert"),
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

    ``kind`` "domain" runs `plan --domain` on the domain file; "plan" runs
    `simulate --plan` on a gpt2-s DP plan file.
    """
    domain = load_testbed("homogeneous-nano4")
    if kind == "domain":
        data, argv = config_io.domain_to_dict(domain), ("plan", "--domain")
    else:
        plan = make_dp_plan(domain, model_preset("gpt2-s"), default_edge_job(),
                            domain.device_ids)
        data = config_io.plan_to_dict(plan, domain)
        argv = ("simulate", "--plan")
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    file = tmp_path / "input.yaml"
    file.write_text(yaml.safe_dump(data))
    assert run(*argv, str(file)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def _link(a, b, bandwidth):
    return {"a": a, "b": b, "bandwidth_bps": bandwidth, "latency_s": 1e-4}


# (path into the homogeneous-nano4 domain, new value) for `plan --domain`
BAD_DOMAINS = {
    "nan-memory": (("devices", 0, "mem_capacity_bytes"), math.nan),
    "nan-idle-power": (("devices", 0, "power_idle_w"), math.nan),
    "nan-gpu": (("devices", 0, "gpu_throughput_flops"), math.nan),
    "inf-gpu": (("devices", 0, "gpu_throughput_flops"), math.inf),
    "nan-link-bandwidth": (("network", "links"),
                           [_link("nano-0", "nano-1", math.nan)]),
    "nan-link-latency": (("network", "links"),
                         [dict(_link("nano-0", "nano-1", 1e9),
                               latency_s=math.nan)]),
    "nan-default-bandwidth": (("network", "default_bandwidth_bps"), math.nan),
    "link-to-unknown-device": (("network", "links"),
                               [_link("nano-0", "nano-9", 1e9)]),
    "self-link": (("network", "links"), [_link("nano-0", "nano-0", 1e9)]),
    "repeated-link": (("network", "links"), [_link("nano-0", "nano-1", 1e6),
                                             _link("nano-1", "nano-0", 1e9)]),
    # libyaml and PyYAML's pure-Python emitter write such an id differently
    "123-character-id": (("devices", 0, "id"), "n" * 123),
    "zero-throughput": (("devices", 0),
                        {"id": "nano-0", "cpu_throughput_flops": 0.0,
                         "mem_capacity_bytes": 4e9, "power_idle_w": 2.0,
                         "power_cpu_busy_w": 7.0, "power_gpu_busy_w": 10.0}),
}


@pytest.mark.parametrize("case", sorted(BAD_DOMAINS))
def test_bad_domain_exits_1_with_one_error_line(tmp_path, capsys, case):
    assert_edited_input_exits_1(tmp_path, capsys, "domain", *BAD_DOMAINS[case])


# A flag given as an empty string is given: (argv, part of its error line)
EMPTY_VALUES = {
    "model": (("plan", "--model", ""), "unknown model preset ''"),
    "model-config": (("plan", "--model-config", ""), "model: file not found"),
    "domain": (("plan", "--domain", ""), "domain: file not found"),
    "testbed": (("plan", "--testbed", ""), "unknown testbed preset ''"),
    "devices": (("plan", "--devices", ""), "unknown device profile ''"),
    "sweep-models": (("sweep", "--models", ""), "unknown model preset ''"),
}


@pytest.mark.parametrize("case", sorted(EMPTY_VALUES))
def test_empty_value_exits_1_with_one_error_line(capsys, case):
    argv, message = EMPTY_VALUES[case]
    assert run(*argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]


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
               ["plan", "--iterations", "x"], ["plan", "--mode", "tpu"],
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
@example(["sweep", "--iterations", "3", "--objective", "energy"])
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
    """Two Nanos with non-ASCII ids in a domain named café."""
    device = ("{cpu_throughput_flops: 15.0e+9, gpu_throughput_flops: "
              "240.0e+9, mem_capacity_bytes: 4.0e+9, power_idle_w: 2.0, "
              "power_cpu_busy_w: 7.0, power_gpu_busy_w: 10.0, "
              "power_net_w: 1.5, id: nano-é%d}")
    path.write_text("schema_version: 1\nname: café\ndevices:\n"
                    + "".join(f"- {device % i}\n" for i in range(2)),
                    encoding="utf-8")


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

    def test_stdout_is_utf8_in_an_ascii_locale(self, tmp_path):
        _write_cafe_domain(tmp_path / "d.yaml")
        proc = _python("-m", "edgetrainsim.cli", "sweep", "--domain",
                       "d.yaml", "--models", "distilbert", cwd=tmp_path,
                       **ASCII_LOCALE)
        assert proc.returncode == 0, proc.stderr
        assert "\tcafé\t" in proc.stdout

    def test_only_faults_imports_numpy(self, tmp_path):
        script = """
import sys
from edgetrainsim.cli import main
nano4 = ["--testbed", "homogeneous-nano4"]
assert main(["presets"]) == 0
assert main(["plan", *nano4, "--model", "distilbert", "--out", "p.yaml"]) == 0
assert main(["simulate", "--plan", "p.yaml", "--out", "r.yaml"]) == 0
assert main(["sweep", *nano4, "--models", "distilbert", "--out", "s.tsv"]) == 0
assert "numpy" not in sys.modules, "numpy imported before faults"
assert main(["faults", "--plan", "p.yaml", "--mtbf", "600"]) == 0
assert "numpy" in sys.modules, "faults ran without numpy"
"""
        proc = _python("-c", script, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
