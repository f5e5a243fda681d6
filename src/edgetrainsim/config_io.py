"""YAML schemas for domains, models, jobs, plans and results.

Every file carries a ``schema_version`` field.  Loading validates against the
type invariants and reports the offending field; dumping is key-sorted so
outputs are byte-stable.  A loaded plan's partition is rebuilt by the plan
builders from its kind, participants and, for PP, stage ranges; a file whose
partition differs from the rebuilt one is rejected (CLI exit 1).  Reads and
writes go through PyYAML's libyaml bindings when they are installed and
through its pure-Python loader and emitter otherwise; both write the same
bytes.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import asdict
from typing import Any

import yaml

from .devices import DeviceProfile, Link, NetworkModel, TrustedDomain
from .parallelism import (KIND_DP, KIND_PP, KIND_SP, KIND_TP, ParallelPlan,
                          make_plan, ranges_from_counts)
from .simengine import SimulationResult
from .workload import TrainingJob, TransformerSpec

SCHEMA_VERSION = 1

_Loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_Dumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


class ConfigError(ValueError):
    """Malformed or invalid configuration input."""


def _expect(value, kind: type, context: str):
    """``value`` if it is a ``kind`` (dict or list), else a ConfigError."""
    if not isinstance(value, kind):
        name = "mapping" if kind is dict else "list"
        raise ConfigError(f"{context}: expected a {name}, not "
                          f"{type(value).__name__}")
    return value


def _require(mapping: dict, key: str, context: str):
    if key not in _expect(mapping, dict, context):
        raise ConfigError(f"{context}: missing required field {key!r}")
    return mapping[key]


@contextmanager
def _context(context: str):
    """Report a conversion or validation error as one ConfigError."""
    try:
        yield
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _check_version(data: dict, context: str):
    version = _expect(data, dict, context).get("schema_version",
                                               SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"{context}: unsupported schema_version {version!r}")


def parse_yaml(text: str, context: str) -> dict:
    try:
        data = yaml.load(text, Loader=_Loader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{context}: YAML parse error: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{context}: expected a mapping at the top level")
    return data


def dump_yaml(data: dict) -> str:
    return yaml.dump(data, Dumper=_Dumper, sort_keys=True,
                     default_flow_style=False)


# ---------------------------------------------------------------- domains

def domain_to_dict(domain: TrustedDomain) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "name": domain.name,
        "mode": domain.mode,
        "network": {
            "default_bandwidth_bps": domain.network.default_bandwidth,
            "default_latency_s": domain.network.default_latency,
            "links": [
                {"a": a, "b": b, "bandwidth_bps": link.bandwidth,
                 "latency_s": link.latency}
                for a, b, link in domain.network.links
            ],
        },
        "devices": [
            {
                "id": d.id,
                "cpu_throughput_flops": d.cpu_throughput,
                "gpu_throughput_flops": d.gpu_throughput,
                "mem_capacity_bytes": d.mem_capacity,
                "usable_mem_fraction": d.usable_mem_fraction,
                "power_idle_w": d.power_idle,
                "power_cpu_busy_w": d.power_cpu_busy,
                "power_gpu_busy_w": d.power_gpu_busy,
                "power_net_w": d.power_net,
            }
            for d in domain.devices
        ],
    }


def domain_from_dict(data: dict) -> TrustedDomain:
    _check_version(data, "domain")
    devices = []
    entries = _expect(_require(data, "devices", "domain"), list,
                      "domain.devices")
    for i, entry in enumerate(entries):
        ctx = f"domain.devices[{i}]"
        _expect(entry, dict, ctx)
        with _context(ctx):
            devices.append(DeviceProfile(
                id=str(_require(entry, "id", ctx)),
                cpu_throughput=float(_require(entry, "cpu_throughput_flops", ctx)),
                gpu_throughput=float(entry.get("gpu_throughput_flops", 0.0)),
                mem_capacity=float(_require(entry, "mem_capacity_bytes", ctx)),
                usable_mem_fraction=float(entry.get("usable_mem_fraction", 0.9)),
                power_idle=float(_require(entry, "power_idle_w", ctx)),
                power_cpu_busy=float(_require(entry, "power_cpu_busy_w", ctx)),
                power_gpu_busy=float(_require(entry, "power_gpu_busy_w", ctx)),
                power_net=float(entry.get("power_net_w", 0.0)),
            ))
    net_data = _expect(data.get("network", {}), dict, "domain.network")
    entries = _expect(net_data.get("links", []), list, "domain.network.links")
    with _context("domain"):
        links = tuple(
            (str(_require(e, "a", "link")), str(_require(e, "b", "link")),
             Link(float(_require(e, "bandwidth_bps", "link")),
                  float(e.get("latency_s", 0.0))))
            for e in entries)
        network = NetworkModel(
            default_bandwidth=float(net_data.get("default_bandwidth_bps", 1e9)),
            default_latency=float(net_data.get("default_latency_s", 1e-4)),
            links=links)
        return TrustedDomain(devices=tuple(devices), network=network,
                             mode=str(data.get("mode", "gpu")),
                             name=str(data.get("name", "custom")))


# ---------------------------------------------------------------- model/job

def model_to_dict(spec: TransformerSpec) -> dict:
    d = asdict(spec)
    d["schema_version"] = SCHEMA_VERSION
    return d


def model_from_dict(data: dict) -> TransformerSpec:
    _check_version(data, "model")
    with _context("model"):
        return TransformerSpec(
            name=str(_require(data, "name", "model")),
            num_blocks=int(_require(data, "num_blocks", "model")),
            hidden_size=int(_require(data, "hidden_size", "model")),
            num_heads=int(_require(data, "num_heads", "model")),
            vocab_size=int(_require(data, "vocab_size", "model")),
            mlp_ratio=int(data.get("mlp_ratio", 4)))


def job_to_dict(job: TrainingJob) -> dict:
    return asdict(job)


def job_from_dict(data: dict) -> TrainingJob:
    _expect(data, dict, "job")
    with _context("job"):
        return TrainingJob(
            global_batch=int(_require(data, "global_batch", "job")),
            seq_len=int(_require(data, "seq_len", "job")),
            micro_batch=int(_require(data, "micro_batch", "job")),
            dp_sync_period=int(data.get("dp_sync_period", 5)),
            param_bytes=float(data.get("param_bytes", 4.0)),
            optimizer_state_multiplier=float(
                data.get("optimizer_state_multiplier", 4.0)),
            activation_bytes_factor=float(
                data.get("activation_bytes_factor", 2.0)))


# ---------------------------------------------------------------- plans

def _partition_to_dict(plan: ParallelPlan) -> dict:
    """The file's ``partition`` block, written by kind from the shares."""
    shares = list(plan.shares)
    if plan.kind == KIND_DP:
        return {"shard_sizes": shares, "sync_period": plan.job.dp_sync_period}
    if plan.kind == KIND_SP:
        return {"subseq_lengths": shares}
    if plan.kind == KIND_TP:
        n = len(shares)
        mlp_hidden = plan.spec.mlp_ratio * plan.spec.hidden_size
        return {"heads_per_device": shares,
                "hidden_slice_per_device": [mlp_hidden // n] * n}
    if plan.kind == KIND_PP:
        ranges = ranges_from_counts(shares)
        return {"stages": [{"device": d, "start": s, "end": e}
                           for d, (s, e) in zip(plan.participants, ranges)],
                "micro_batch_count": plan.job.micro_batch_count}
    return {}


def plan_to_dict(plan: ParallelPlan, domain: TrustedDomain,
                 checkpoint_interval: float | None = None,
                 predicted: SimulationResult | None = None) -> dict:
    data: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "kind": plan.kind,
        "participants": list(plan.participants),
        "partition": _partition_to_dict(plan),
        "model": model_to_dict(plan.spec),
        "job": job_to_dict(plan.job),
        "domain": domain_to_dict(domain),
    }
    if checkpoint_interval is not None:
        data["checkpoint_interval_s"] = checkpoint_interval
    if predicted is not None and not predicted.oom:
        data["predicted"] = {
            "latency_per_sample_s": predicted.latency_per_sample,
            "energy_per_sample_j": predicted.energy_per_sample,
        }
    return data


def plan_from_dict(data: dict) -> tuple[ParallelPlan, TrustedDomain, float | None]:
    _check_version(data, "plan")
    domain = domain_from_dict(_require(data, "domain", "plan"))
    spec = model_from_dict(_require(data, "model", "plan"))
    job = job_from_dict(_require(data, "job", "plan"))
    kind = str(_require(data, "kind", "plan"))
    participants = tuple(str(p) for p in _expect(
        _require(data, "participants", "plan"), list, "plan.participants"))
    for p in participants:
        try:
            domain.device(p)
        except KeyError as exc:
            raise ConfigError(f"plan: participant {p!r} is not in the domain") \
                from exc
    partition = data.get("partition", {})
    with _context("plan"):
        ranges = None
        if kind == KIND_PP:
            ranges = [(int(_require(s, "start", "plan")),
                       int(_require(s, "end", "plan")))
                      for s in _require(partition, "stages", "plan")]
        plan = make_plan(kind, domain, spec, job, participants, ranges)
        for key, want in _partition_to_dict(plan).items():
            got = _require(partition, key, "plan")
            if isinstance(want, int):
                got = int(got)
            if got != want:
                raise ConfigError(f"plan: partition {key} {got} differs from "
                                  f"the job's {want}")
    interval = data.get("checkpoint_interval_s")
    if interval is not None and not (type(interval) in (int, float)
                                     and interval > 0):
        raise ConfigError(f"plan: checkpoint_interval_s must be a positive "
                          f"number, not {interval!r}")
    return plan, domain, interval


# ---------------------------------------------------------------- results

def result_to_dict(result: SimulationResult) -> dict:
    data: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "plan_kind": result.plan_kind,
        "iterations_simulated": result.iterations_simulated,
        "samples_processed": result.samples_processed,
        "oom": result.oom,
        "per_device": {
            dev: {"peak_mem_bytes": u.peak_mem,
                  "compute_time_s": u.compute_time,
                  "comm_time_s": u.comm_time,
                  "idle_time_s": u.idle_time,
                  "energy_j": u.energy}
            for dev, u in sorted(result.per_device.items())
        },
        "comm_bytes_by_op": dict(sorted(result.comm_bytes_by_op.items())),
    }
    if result.oom:
        data["oom_devices"] = list(result.oom_devices)
    else:
        data["makespan_s"] = result.makespan
        data["latency_per_sample_s"] = result.latency_per_sample
        data["energy_per_sample_j"] = result.energy_per_sample
    return data
