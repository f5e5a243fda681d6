"""YAML schemas for domains, models, jobs, plans, results and fault reports.

The dataclasses are the schema: each scalar field of ``DeviceProfile``,
``Link``, ``NetworkModel``, ``TrustedDomain``, ``TransformerSpec`` and
``TrainingJob`` is written and read under its own name or its unit-suffixed
key in ``_FILE_KEYS``, with its declared type and default (``_FILE_DEFAULTS``
holds the only ones a dataclass lacks).  Result and fault-report files, and
a plan's ``predicted`` block, are written under the same keys from the
fields of ``SimulationResult``, ``DeviceUsage`` and ``FaultReport``.  One
type rule holds for every such field, ``schema_version`` and a plan's
``checkpoint_interval_s`` (> 0) included: a ``str`` field takes a string,
an ``int`` field an integer, and a ``float`` field an integer, a float or
text that ``float()`` parses (YAML 1.1 reads ``1e9`` as text); a bool or
null is never a number.  A plan's ``predicted`` block, when present, is a
mapping of exactly the per-sample keys a result file writes.

Every file carries a ``schema_version``.  Loading reports the offending
field, and a key the schema does not name; dumping is key-sorted so outputs
are byte-stable.  A loaded plan's partition is rebuilt by the plan builders
from its kind, participants and, for PP, per-stage block counts, each
stage's ``end - start``; this is the only module that knows stage ranges.
The loader checks only that the participants are a list of strings; the
builders' participant rule checks the rest.  A file whose partition differs
from the rebuilt one, in a value or its type (a gap, an overlap, a stage on
another device), exits 1.

Files are written by ``yaml_block.write`` and read by ``yaml_block.read``,
the one reader, which never imports PyYAML: a document outside its grammar
is a ConfigError ``<context>: line N: <construct> is not read: '<line>'``.
"""

from __future__ import annotations

import itertools
from dataclasses import MISSING, fields
from functools import cache
from typing import Any, get_type_hints

from . import yaml_block
from .devices import DeviceProfile, Link, NetworkModel, TrustedDomain
from .parallelism import (KIND_DP, KIND_PP, KIND_SP, KIND_TP, ParallelPlan,
                          make_plan)
from .simengine import FaultReport, SimulationResult
from .workload import TrainingJob, TransformerSpec

SCHEMA_VERSION = 1

# Fields whose file key carries a unit; every other field keeps its name.
_UNITS = {
    "flops": ("cpu_throughput", "gpu_throughput"),
    "bytes": ("mem_capacity", "peak_mem"),
    "w": ("power_idle", "power_cpu_busy", "power_gpu_busy", "power_net"),
    "bps": ("bandwidth", "default_bandwidth"),
    "s": ("latency", "default_latency", "wall_time", "rework_time",
          "reload_time", "checkpoint_time", "checkpoint_interval",
          "compute_time", "comm_time", "idle_time", "makespan",
          "latency_per_sample"),
    "j": ("energy_estimate", "energy", "energy_per_sample"),
}
_FILE_KEYS = {name: f"{name}_{unit}" for unit, names in _UNITS.items()
              for name in names}
# A file may leave these out although the dataclass requires them.
_FILE_DEFAULTS = {"gpu_throughput": 0.0, "power_net": 0.0, "latency": 0.0}
_TYPE_NAMES = {str: "a string", int: "an integer", float: "a number"}


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


def _typed(value, kind: type, context: str, key: str):
    """``value`` as a ``kind`` field under the type rule, else a ConfigError."""
    if type(value) is kind:
        return value
    if kind is float and type(value) in (int, str):
        try:
            return float(value)
        except (ValueError, OverflowError):
            pass
    raise ConfigError(f"{context}: {key} must be {_TYPE_NAMES[kind]}, "
                      f"not {value!r}")


def _same(got, want) -> bool:
    """``got == want``, with the same type at every level: ``5.0`` is not
    an integer field's ``5``."""
    if type(got) is not type(want):
        return False
    if type(want) is list:
        return len(got) == len(want) and all(map(_same, got, want))
    if type(want) is dict:
        return got.keys() == want.keys() and all(_same(got[k], want[k])
                                                 for k in want)
    return got == want


def _read(mapping: dict, key: str, kind: type, context: str):
    return _typed(_require(mapping, key, context), kind, context, key)


def _only(mapping: dict, keys, context: str):
    """Refuse the first key of ``mapping`` that is not in ``keys``."""
    if not mapping.keys() <= keys:
        key = next(k for k in mapping if k not in keys)
        raise ConfigError(f"{context}: unknown field {key!r}")


@cache
def _schema(cls: type) -> tuple:
    """(field, file key, type, default) of each scalar field of ``cls``; a
    file must give the fields whose default is MISSING."""
    hints = get_type_hints(cls)
    return tuple((f.name, _FILE_KEYS.get(f.name, f.name), hints[f.name],
                  _FILE_DEFAULTS.get(f.name, f.default))
                 for f in fields(cls) if hints[f.name] in _TYPE_NAMES)


@cache
def _file_keys(cls: type, *structural: str) -> frozenset:
    """The keys a file mapping of ``cls`` may hold: its scalar fields' file
    keys and ``structural``."""
    return frozenset(structural).union(key for _, key, _, _ in _schema(cls))


def _to_dict(obj, **extra) -> dict:
    """``obj``'s scalar fields under their file keys, and ``extra``."""
    return {key: getattr(obj, name)
            for name, key, _, _ in _schema(type(obj))} | extra


def _from_rows(cls: type, rows, where, ends=(), structural=(),
               **given) -> list:
    """A ``cls`` from each file mapping in ``rows``, which holds its scalar
    fields, the string fields ``ends`` that are not ``cls``'s (a link's
    ``a`` and ``b``) and the ``structural`` keys; ``given`` holds its other
    fields.  Each row gives ``(*ends, obj)``, or ``obj`` without ``ends``.

    The checks run in one order, each with its one message: a mapping, its
    ``ends``, no unknown key, then each scalar field under the type rule,
    then ``cls``'s own.  ``where(i)`` names row i; only a row that fails a
    check builds its name, and only a value of another type than its
    field's goes through :func:`_typed`."""
    schema, keys = _schema(cls), _file_keys(cls, *ends, *structural)
    made = []
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            _expect(row, dict, where(i))
        values = [row[key] if type(row.get(key)) is str
                  else _read(row, key, str, where(i)) for key in ends]
        if not row.keys() <= keys:
            _only(row, keys, where(i))
        kwargs = dict(given)
        for name, key, kind, default in schema:
            value = row.get(key, default)
            if type(value) is not kind:
                if value is MISSING:
                    raise ConfigError(f"{where(i)}: missing required field "
                                      f"{key!r}")
                value = _typed(value, kind, where(i), key)
            kwargs[name] = value
        try:
            obj = cls(**kwargs)
        except ValueError as exc:
            raise ConfigError(f"{where(i)}: {exc}") from exc
        made.append((*values, obj) if ends else obj)
    return made


def _from_dict(cls: type, data, context: str, structural=(), **given):
    """A ``cls`` from its one file mapping (see :func:`_from_rows`)."""
    return _from_rows(cls, (data,), lambda _: context, (), structural,
                      **given)[0]


def _check_version(data: dict, context: str):
    version = _typed(_expect(data, dict, context).get(
        "schema_version", SCHEMA_VERSION), int, context, "schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"{context}: unsupported schema_version {version!r}")


def parse_yaml(text: str, context: str) -> dict:
    """The mapping ``text`` holds, read by ``yaml_block``; a ConfigError
    naming the first line outside its grammar."""
    try:
        return yaml_block.read(text)
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def dump_yaml(data: dict) -> str:
    """``data`` as ``yaml_block`` writes it."""
    return yaml_block.write(data)


# ---------------------------------------------------------------- domains

def domain_to_dict(domain: TrustedDomain) -> dict:
    network = domain.network
    links = [_to_dict(link, a=a, b=b) for a, b, link in network.links]
    return _to_dict(domain, schema_version=SCHEMA_VERSION,
                    network=_to_dict(network, links=links),
                    devices=[_to_dict(d) for d in domain.devices])


def _list_rows(cls: type, rows, context: str, ends=()) -> list:
    """:func:`_from_rows` of the file list ``rows``, row i named
    ``context[i]``."""
    return _from_rows(cls, _expect(rows, list, context),
                      f"{context}[{{}}]".format, ends)


def domain_from_dict(data: dict) -> TrustedDomain:
    _check_version(data, "domain")
    devices = _list_rows(DeviceProfile, _require(data, "devices", "domain"),
                         "domain.devices")
    net_data = _expect(data.get("network", {}), dict, "domain.network")
    links = _list_rows(Link, net_data.get("links", []),
                       "domain.network.links", ("a", "b"))
    network = _from_dict(NetworkModel, net_data, "domain.network", ("links",),
                         links=tuple(links))
    return _from_dict(TrustedDomain, data, "domain",
                      ("schema_version", "devices", "network"),
                      devices=tuple(devices), network=network)


# ---------------------------------------------------------------- model/job

def model_to_dict(spec: TransformerSpec) -> dict:
    return _to_dict(spec, schema_version=SCHEMA_VERSION)


def model_from_dict(data: dict) -> TransformerSpec:
    _check_version(data, "model")
    return _from_dict(TransformerSpec, data, "model", ("schema_version",))


def job_to_dict(job: TrainingJob) -> dict:
    return _to_dict(job)


def job_from_dict(data: dict) -> TrainingJob:
    return _from_dict(TrainingJob, data, "job")


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
        starts = itertools.accumulate(shares, initial=0)
        return {"stages": [{"device": d, "start": s, "end": s + b} for d, s, b
                           in zip(plan.participants, starts, shares)],
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
        data["predicted"] = _per_sample(predicted)
    return data


# The keys plan_to_dict writes.
_PLAN_KEYS = frozenset({"schema_version", "kind", "participants", "partition",
                        "model", "job", "domain", "checkpoint_interval_s",
                        "predicted"})


def plan_from_dict(data: dict) -> tuple[ParallelPlan, TrustedDomain, float | None]:
    _check_version(data, "plan")
    _only(data, _PLAN_KEYS, "plan")
    domain = domain_from_dict(_require(data, "domain", "plan"))
    spec = model_from_dict(_require(data, "model", "plan"))
    job = job_from_dict(_require(data, "job", "plan"))
    kind = _read(data, "kind", str, "plan")
    participants = tuple(
        _typed(p, str, "plan", f"participants[{i}]")
        for i, p in enumerate(_expect(_require(data, "participants", "plan"),
                                      list, "plan.participants")))
    partition = data.get("partition", {})
    blocks = None
    if kind == KIND_PP:
        stages = _expect(_require(partition, "stages", "plan"), list,
                         "plan.partition.stages")
        blocks = [-_read(s, "start", int, "plan") + _read(s, "end", int, "plan")
                  for s in stages]
    try:
        plan = make_plan(kind, domain, spec, job, participants, blocks)
    except ValueError as exc:
        raise ConfigError(f"plan: {exc}") from exc
    wanted = _partition_to_dict(plan)
    _only(_expect(partition, dict, "plan.partition"), wanted.keys(),
          "plan.partition")
    for key, want in wanted.items():
        got = _require(partition, key, "plan")
        if not _same(got, want):
            raise ConfigError(f"plan: partition {key} {got!r} differs from "
                              f"the job's {want}")
    interval = data.get("checkpoint_interval_s")
    if interval is not None:
        interval = _typed(interval, float, "plan", "checkpoint_interval_s")
        if not interval > 0:  # also refuses NaN
            raise ConfigError(f"plan: checkpoint_interval_s must be a "
                              f"positive number, not {interval!r}")
    if "predicted" in data:
        predicted = _expect(data["predicted"], dict, "plan.predicted")
        _only(predicted, _PER_SAMPLE_KEYS.keys(), "plan.predicted")
        for key in _PER_SAMPLE_KEYS:
            _read(predicted, key, float, "plan.predicted")
    return plan, domain, interval


# ---------------------------------------------------------------- results

# The file keys of a fitting result's per-sample latency and energy.
_PER_SAMPLE_KEYS = {_FILE_KEYS[name]: name
                    for name in ("latency_per_sample", "energy_per_sample")}


def _per_sample(result: SimulationResult) -> dict:
    """A fitting result's per-sample latency and energy under their file
    keys."""
    return {key: getattr(result, name)
            for key, name in _PER_SAMPLE_KEYS.items()}


def result_to_dict(result: SimulationResult) -> dict:
    data = _to_dict(result, schema_version=SCHEMA_VERSION, oom=result.oom,
                    per_device={dev: _to_dict(u) for dev, u
                                in result.per_device.items()},
                    comm_bytes_by_op=result.comm_bytes_by_op)
    if result.oom:
        del data[_FILE_KEYS["makespan"]]
        data["oom_devices"] = list(result.oom_devices)
    else:
        data |= _per_sample(result)
    return data


def fault_report_to_dict(report: FaultReport) -> dict:
    ff = report.fault_free
    return _to_dict(report, schema_version=SCHEMA_VERSION,
                    fault_free_throughput_samples_per_s=(
                        ff.samples_processed / ff.makespan))
