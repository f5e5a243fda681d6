"""YAML I/O tests: agreement with PyYAML's pure-Python reference, and errors."""

import datetime
import itertools
import math
import os
import re
import string
import sys
from dataclasses import MISSING, fields, replace

import pytest
import yaml
from hypothesis import (HealthCheck, example, given, settings,
                        strategies as st)

from edgetrainsim import config_io, yaml_block
from edgetrainsim.cli import main
from edgetrainsim.config_io import ConfigError
from edgetrainsim.devices import (DEVICE_PROFILE_FACTORIES, MAX_DEVICE_ID_CHARS,
                                  DeviceProfile, Link, NetworkModel,
                                  TrustedDomain, busy_power,
                                  effective_throughput)
from edgetrainsim.devices import testbed_preset as load_testbed
from edgetrainsim.parallelism import make_dp_plan, make_plan, make_pp_plan
from edgetrainsim.scheduler import Objective, candidate_plans
from edgetrainsim.simengine import simulate
from edgetrainsim.workload import (MODEL_PRESETS, TrainingJob, TransformerSpec,
                                   default_edge_job, model_preset)

from test_cli import _stages, assert_edited_input_exits_1
from test_golden import _per_link_plans

EDGE_SCALARS = {
    "small_float": 1e-4,
    "large_float": 1e8,
    "tenth": 0.1,
    "big_int": 2 ** 40,
    "flag": True,
    "nothing": None,
    "ids": ["nano-0", "tx2-1", "gpu-nx-12"],
    "number_like": ["1e3", "1e-4", "0.5", "007", "1_000", "0x1F", "12:30",
                    "-1", ".inf", "yes", "null", "True", "~", ""],
    "long_text": " ".join(f"word{i}" for i in range(40)),
    "nested": {"b": [1, 2.5, -0.0, 3e-12], "a": {"z": 1, "y": "2"}},
}

# Hand-written scalars whose YAML 1.1 types differ from what they look like,
# with a comment and a blank line.
HAND_TEXT = """\
# hand-written
a: 1e8
b: 1.0e+8
c: 0.1
d: 1_000
e: 0x1F

g: yes
h: null
i: nano-0
j: "007"
k:
- 1
- -2.5e-3
- .inf
- .nan
"""


def _reference_dump(data):
    return yaml.safe_dump(data, sort_keys=True, default_flow_style=False)


# PyYAML's safe classes: the pure-Python ones, and libyaml's when installed.
LOADERS = tuple(getattr(yaml, name) for name in ("SafeLoader", "CSafeLoader")
                if hasattr(yaml, name))
DUMPERS = tuple(getattr(yaml, name) for name in ("SafeDumper", "CSafeDumper")
                if hasattr(yaml, name))


def _dump_through(data, dumper):
    """What PyYAML's representer and serializer write through ``dumper``."""
    return yaml.dump(data, Dumper=dumper, sort_keys=True,
                     default_flow_style=False)


def _key_sorted(data):
    if type(data) is dict:
        return {key: _key_sorted(data[key]) for key in sorted(data)}
    if type(data) is list:
        return [_key_sorted(item) for item in data]
    return data


def _keys(data):
    """Every mapping key in ``data``, at any depth."""
    if type(data) is dict:
        for key, value in data.items():
            yield key
            yield from _keys(value)
    elif type(data) is list:
        for item in data:
            yield from _keys(item)


def _checked_dump(data):
    """``dump_yaml(data)``, after checking it against PyYAML: every loader
    class reads it back as the key-sorted ``data``, and a text that quotes
    no string is what every dumper class writes.

    One exception: PyYAML's pure-Python emitter takes a key as simple only
    if the key and its prepared ``!!str`` tag are under 128 characters, so
    it writes a plain key of 123 to 128 characters as ``? key``, where
    libyaml and ``dump_yaml`` write it plain.  Its bytes are not compared
    for such a tree; all three read back alike.
    """
    text = config_io.dump_yaml(data)
    for loader in LOADERS:
        assert _same(yaml.load(text, Loader=loader), _key_sorted(data)), \
            loader
    if '"' not in text:
        long_key = any(123 <= len(key) <= 128 for key in _keys(data))
        for dumper in DUMPERS:
            if not (long_key and dumper is yaml.SafeDumper):
                assert text == _dump_through(data, dumper), dumper
    return text


def _documents():
    domain, plans = _per_link_plans()
    docs = {f"plan/{kind}": config_io.plan_to_dict(plan, domain, 12.5)
            for kind, plan in plans.items()}
    docs["result"] = config_io.result_to_dict(simulate(plans["pp"], domain))
    nano = load_testbed("homogeneous-nano4")
    oom_plan = make_dp_plan(nano, model_preset("gpt2-l"), default_edge_job(),
                            nano.device_ids)
    oom = simulate(oom_plan, nano)
    assert oom.oom
    docs["result/oom"] = config_io.result_to_dict(oom)
    docs["scalars"] = EDGE_SCALARS
    return docs


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    docs = _documents()
    tmp = tmp_path_factory.mktemp("faults")
    plan, report = tmp / "plan.yaml", tmp / "report.yaml"
    assert main(["plan", "--testbed", "heterogeneous-mix4", "--model",
                 "distilbert", "--out", str(plan)]) == 0
    assert main(["faults", "--plan", str(plan), "--mtbf", "40", "--seed", "3",
                 "--out", str(report)]) == 0
    docs["faults"] = yaml.safe_load(report.read_text())
    return docs


class TestAgreesWithPureYaml:
    def test_dump_matches_reference(self, documents):
        """Files of program names are PyYAML's bytes; the edge scalars
        quote their text, and read back."""
        for name, data in documents.items():
            text = _checked_dump(data)
            assert ('"' in text) == (name == "scalars"), name

    def test_parse_matches_reference(self, documents):
        """PyYAML's own bytes of every program file read as PyYAML reads
        them; the edge scalars, some of which PyYAML writes single-quoted
        or as plain text with spaces, are refused naming a line."""
        for name, data in documents.items():
            text = _reference_dump(data)
            if name == "scalars":
                with pytest.raises(ConfigError, match=r"^scalars: line \d+: "):
                    config_io.parse_yaml(text, name)
            else:
                assert config_io.parse_yaml(text, name) == \
                    yaml.safe_load(text), name

    def test_hand_written_scalars(self):
        got = config_io.parse_yaml(HAND_TEXT, "scalars")
        want = yaml.safe_load(HAND_TEXT)
        nan_got, nan_want = got["k"].pop(), want["k"].pop()
        assert nan_got != nan_got and nan_want != nan_want
        assert got == want
        assert '"007"' in _checked_dump(got)


class TestParseErrors:
    def test_top_level_list_is_rejected(self):
        with pytest.raises(ConfigError, match="^plan: line 1: a list at the "
                                              "top level is not read: '- a'$"):
            config_io.parse_yaml("- a\n- b\n", "plan")

    @pytest.mark.parametrize("argv", [
        ("plan", "--domain"), ("simulate", "--plan"),
        ("faults", "--mtbf", "40", "--plan")])
    def test_malformed_yaml_exits_1_with_line(self, tmp_path, capsys, argv):
        path = tmp_path / "bad.yaml"
        path.write_text("schema_version: 1\nname: [a, b\nmode: gpu\n")
        assert _one_error_line(capsys, argv, path).endswith(
            ": line 2: a flow collection is not read: 'name: [a, b'")


# (command-line words before the input file, the input's error context)
INPUT_ARGS = {
    "plan-domain": (("plan", "--domain"), "domain"),
    "simulate-plan": (("simulate", "--plan"), "plan"),
    "faults-plan": (("faults", "--mtbf", "40", "--plan"), "plan"),
    "model-config": (("plan", "--testbed", "homogeneous-nano4",
                      "--model-config"), "model"),
}
# Explicitly tagged scalars whose constructor cannot read their text.
UNREADABLE_TAGGED = ["!!float abc", "!!int abc", "!!int ''", "!!bool maybe",
                     "!!timestamp nope", "!!timestamp 2024-13-45"]


def _one_error_line(capsys, argv, path) -> str:
    assert main([*argv, str(path)]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), captured.err
    return err[0]


@pytest.mark.parametrize("scalar", UNREADABLE_TAGGED)
@pytest.mark.parametrize("source", sorted(INPUT_ARGS))
def test_unreadable_tagged_scalar_exits_1_with_line(tmp_path, capsys, source,
                                                    scalar):
    argv, context = INPUT_ARGS[source]
    path = tmp_path / "input.yaml"
    path.write_text(f"schema_version: 1\nname: {scalar}\nmode: gpu\n")
    assert _one_error_line(capsys, argv, path) == (
        f"error: {context}: line 2: a tag is not read: {'name: ' + scalar!r}")


@pytest.mark.parametrize("source", sorted(INPUT_ARGS))
def test_non_utf8_input_exits_1(tmp_path, capsys, source):
    argv, context = INPUT_ARGS[source]
    path = tmp_path / "input.yaml"
    path.write_bytes(b"schema_version: 1\nname: caf\xe9\xff\n")
    err = _one_error_line(capsys, argv, path)
    assert err == (f"error: {context}: {path} is not UTF-8 text: byte 0xe9 "
                   f"on line 2")


@pytest.mark.parametrize("what", ["directory", "device"])
@pytest.mark.parametrize("source", sorted(INPUT_ARGS))
def test_input_that_is_not_a_regular_file_is_not_found(tmp_path, capsys,
                                                       source, what):
    """A directory or a device given as an input file exits 1 as a missing
    file does."""
    argv, context = INPUT_ARGS[source]
    path = tmp_path if what == "directory" else os.devnull
    assert _one_error_line(capsys, argv, path) == \
        f"error: {context}: file not found: {path}"


def test_crlf_input_reads_as_lf(tmp_path):
    """Input files are read with universal newlines: a domain written with
    CRLF line ends plans to the same bytes as with LF."""
    text = config_io.dump_yaml(config_io.domain_to_dict(
        load_testbed("heterogeneous-mix4")))
    (tmp_path / "lf.yaml").write_bytes(text.encode())
    (tmp_path / "crlf.yaml").write_bytes(text.replace("\n", "\r\n").encode())
    for name in ("lf", "crlf"):
        assert main(["plan", "--domain", str(tmp_path / f"{name}.yaml"),
                     "--model", "distilbert", "--out",
                     str(tmp_path / f"{name}.plan.yaml")]) == 0
    assert (tmp_path / "lf.plan.yaml").read_bytes() == \
        (tmp_path / "crlf.plan.yaml").read_bytes()


def test_byte_order_mark_is_dropped(tmp_path, oracle):
    """A domain saved with a UTF-8 byte order mark, as some editors save
    it, plans to the same bytes as without it, and a program file with the
    mark reads as PyYAML reads it."""
    text = config_io.dump_yaml(config_io.domain_to_dict(
        load_testbed("homogeneous-nano4")))
    for name, prefix in (("plain", ""), ("bom", "\ufeff")):
        (tmp_path / f"{name}.yaml").write_text(prefix + text, encoding="utf-8")
        assert main(["plan", "--domain", str(tmp_path / f"{name}.yaml"),
                     "--model", "distilbert", "--out",
                     str(tmp_path / f"{name}.plan.yaml")]) == 0
    plan_text = (tmp_path / "plain.plan.yaml").read_text(encoding="utf-8")
    assert (tmp_path / "bom.plan.yaml").read_bytes() == plan_text.encode()
    for document in (text, plan_text):
        assert _same(yaml_block.read("\ufeff" + document),
                     yaml.load("\ufeff" + document, Loader=oracle))


@pytest.mark.parametrize("source", sorted(INPUT_ARGS))
def test_non_utf8_input_after_a_byte_order_mark_names_its_line(
        tmp_path, capsys, source):
    """The mark's three bytes hold no newline, so a bad byte on line 2
    is reported on line 2."""
    argv, context = INPUT_ARGS[source]
    path = tmp_path / "input.yaml"
    path.write_bytes(b"\xef\xbb\xbfschema_version: 1\nname: caf\xe9\xff\n")
    assert _one_error_line(capsys, argv, path) == (
        f"error: {context}: {path} is not UTF-8 text: byte 0xe9 on line 2")


class TestPlanErrors:
    def dp_plan_dict(self):
        domain = load_testbed("homogeneous-nano4")
        plan = make_dp_plan(domain, model_preset("gpt2-s"), default_edge_job(),
                            domain.device_ids)
        return config_io.plan_to_dict(plan, domain)

    def test_missing_partition_field_is_prefixed_once(self):
        data = self.dp_plan_dict()
        data["partition"] = {}
        with pytest.raises(ConfigError,
                           match=r"^plan: missing required field 'shard_sizes'$"):
            config_io.plan_from_dict(data)

    def test_partition_value_error_is_prefixed_once(self):
        data = self.dp_plan_dict()
        data["partition"]["sync_period"] = "five"
        with pytest.raises(ConfigError, match=r"^plan: partition sync_period "
                                              r"'five' differs from the job's 5$"):
            config_io.plan_from_dict(data)


# (input file, path into it, new value[, the error line after "error: "]);
# see assert_edited_input_exits_1
MALFORMED = {
    "device-list": ("domain", ("devices", 0), ["nano-0"]),
    "devices-null": ("domain", ("devices",), None),
    "network-list": ("domain", ("network",), [1, 2]),
    "links-mapping": ("domain", ("network", "links"), {"a": "nano-0"}),
    "link-string": ("domain", ("network", "links"), ["nano-0 nano-1"]),
    "throughput-text": ("domain", ("devices", 0, "cpu_throughput_flops"),
                        "fast"),
    "throughput-null": ("domain", ("devices", 0, "cpu_throughput_flops"),
                        None),
    "default-bandwidth-text": ("domain", ("network", "default_bandwidth_bps"),
                               "fast"),
    "domain-list": ("plan", ("domain",), [1]),
    "model-blocks-null": ("plan", ("model", "num_blocks"), None),
    "job-batch-null": ("plan", ("job", "global_batch"), None),
    "participants-text": ("plan", ("participants",), "nano-0"),
    "model-blocks-float": ("plan", ("model", "num_blocks"), 12.9),
    "job-micro-batch-float": ("plan", ("job", "micro_batch"), 8.5),
    "job-seq-len-bool": ("plan", ("job", "seq_len"), True),
    "job-param-bytes-bool": ("plan", ("job", "param_bytes"), True),
    "job-param-bytes-nan": ("plan", ("job", "param_bytes"), math.nan),
    "job-seq-len-huge": ("plan", ("job", "seq_len"), 10**25),
    "device-id-null": ("domain", ("devices", 0, "id"), None),
    "domain-name-null": ("domain", ("name",), None),
    "sync-period-float": ("plan", ("partition", "sync_period"), 5.9),
    "sync-period-text": ("plan", ("partition", "sync_period"), "5"),
    "sync-period-whole-float": ("plan", ("partition", "sync_period"), 5.0),
    "shard-sizes-float": ("plan", ("partition", "shard_sizes"),
                          [32.0, 32, 32, 32]),
    "domain-version-bool": ("domain", ("schema_version",), True),
    "domain-version-float": ("domain", ("schema_version",), 1.0),
    "plan-version-bool": ("plan", ("schema_version",), True),
    "plan-version-float": ("plan", ("schema_version",), 1.0),
    "plan-domain-version-float": ("plan", ("domain", "schema_version"), 1.0),
    "model-version-bool": ("plan", ("model", "schema_version"), True),
    "model-version-float": ("plan", ("model", "schema_version"), 1.0),
    # The PP plan's stages are (0, 3), (3, 6), (6, 9) and (9, 12).
    "pp-gap": ("pp-plan", ("partition", "stages"),
               _stages((0, 3), (4, 6), (6, 9), (9, 12))),
    "pp-overlap": ("pp-plan", ("partition", "stages"),
                   _stages((0, 3), (2, 6), (6, 9), (9, 12))),
    "pp-gap-and-overlap": ("pp-plan", ("partition", "stages"),
                           _stages((0, 3), (4, 7), (6, 9), (9, 12))),
    "pp-stage-on-another-participant": (
        "pp-plan", ("partition", "stages", 1, "device"), "nano-0"),
    "pp-one-stage-too-many": ("pp-plan", ("partition", "stages"), _stages(
        (0, 3), (3, 6), (6, 9), (9, 11), (11, 12),
        devices=("nano-0", "nano-1", "nano-2", "nano-3", "nano-3"))),
    "pp-zero-block-stage": ("pp-plan", ("partition", "stages", 1, "end"), 3),
    "pp-float-end": ("pp-plan", ("partition", "stages", 3, "end"), 12.0),
    # A key the schema does not name, and the error line naming it.
    "device-unknown-key": (
        "domain", ("devices", 0, "usable_mem_fracton"), 0.1,
        "domain.devices[0]: unknown field 'usable_mem_fracton'"),
    "link-unknown-key": (
        "domain", ("network", "links"),
        [{"a": "nano-0", "b": "nano-1", "bandwidth_bps": 1e9, "latency": 5.0}],
        "domain.network.links[0]: unknown field 'latency'"),
    "network-unknown-key": (
        "domain", ("network", "default_bandwith_bps"), 1e8,
        "domain.network: unknown field 'default_bandwith_bps'"),
    "domain-unknown-key": ("domain", ("nmae",), "lab",
                           "domain: unknown field 'nmae'"),
    "model-unknown-key": ("plan", ("model", "num_layers"), 24,
                          "model: unknown field 'num_layers'"),
    "job-unknown-key": ("plan", ("job", "batch_size"), 64,
                        "job: unknown field 'batch_size'"),
    "plan-unknown-key": ("plan", ("checkpoint_interval",), 10.0,
                         "plan: unknown field 'checkpoint_interval'"),
    "partition-unknown-key": (
        "plan", ("partition", "shard_size"), [32, 32, 32, 32],
        "plan.partition: unknown field 'shard_size'"),
    "pp-partition-unknown-key": (
        "pp-plan", ("partition", "micro_batches"), 16,
        "plan.partition: unknown field 'micro_batches'"),
    "predicted-not-a-mapping": ("plan", ("predicted",), 5,
                                "plan.predicted: expected a mapping, not int"),
    "predicted-unknown-key": (
        "plan", ("predicted",), {"bogus": 1, "latency_per_sample_s": 0.5},
        "plan.predicted: unknown field 'bogus'"),
    "predicted-text": (
        "plan", ("predicted",),
        {"energy_per_sample_j": 0.5, "latency_per_sample_s": "abc"},
        "plan.predicted: latency_per_sample_s must be a number, not 'abc'"),
    # A value each dataclass or builder refuses, and its error line.
    "device-no-cpu-throughput": (
        "domain", ("devices", 0),
        {"id": "nano-0", "mem_capacity_bytes": 4e9, "power_idle_w": 2.0,
         "power_cpu_busy_w": 7.0, "power_gpu_busy_w": 10.0},
        "domain.devices[0]: missing required field 'cpu_throughput_flops'"),
    "domain-unknown-mode": ("domain", ("mode",), "tpu",
                            "domain: unknown mode 'tpu'"),
    "device-zero-usable-memory": (
        "domain", ("devices", 0, "usable_mem_fraction"), 0.0,
        "domain.devices[0]: nano-0: usable_mem_fraction must be in (0, 1]"),
    "model-zero-mlp-ratio": ("plan", ("model", "mlp_ratio"), 0,
                             "model: mlp_ratio must be >= 1"),
    "model-zero-heads": (
        "plan", ("model", "num_heads"), 0,
        "model: hidden_size, num_heads and vocab_size must be >= 1"),
    "job-zero-sync-period": ("plan", ("job", "dp_sync_period"), 0,
                             "job: dp_sync_period must be >= 1"),
    "job-zero-batch": ("plan", ("job", "global_batch"), 0,
                       "job: global_batch and seq_len must be >= 1"),
    "plan-unknown-kind": ("plan", ("kind",), "zz",
                          "plan: unknown plan kind 'zz'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_value_exits_1_with_one_error_line(tmp_path, capsys, case):
    edit, named = MALFORMED[case][:3], MALFORMED[case][3:]
    error = assert_edited_input_exits_1(tmp_path, capsys, *edit)
    assert named in ((), (error.removeprefix("error: "),))


def test_float_fields_take_numeric_text():
    """PyYAML reads ``1e9`` (no dot) as text; a float field still loads it."""
    domain = load_testbed("homogeneous-nano4")
    text = config_io.dump_yaml(config_io.domain_to_dict(domain))
    text = text.replace("default_bandwidth_bps: 1000000000.0",
                        "default_bandwidth_bps: 1e9")
    text = text.replace("cpu_throughput_flops: 15000000000.0",
                        "cpu_throughput_flops: 15e9")
    data = config_io.parse_yaml(text, "domain")
    assert data["network"]["default_bandwidth_bps"] == "1e9"
    assert {d["cpu_throughput_flops"] for d in data["devices"]} == {"15e9"}
    assert config_io.domain_from_dict(data) == domain


def _finite(low, high, **kwargs):
    return st.floats(low, high, allow_nan=False, allow_infinity=False,
                     **kwargs)


_TEXT = st.text(string.ascii_letters + string.digits + " -_.:#'\"",
                max_size=8)


@st.composite
def _schema_domains(draw):
    """Domains whose every device, link and network field is drawn."""
    ids = draw(st.lists(_TEXT.filter(bool), min_size=1, max_size=4,
                        unique=True))
    devices = []
    for device_id in ids:
        idle = draw(_finite(0, 50))
        devices.append(DeviceProfile(
            device_id, cpu_throughput=draw(_finite(1e6, 1e13)),
            gpu_throughput=draw(_finite(0, 1e13)),
            mem_capacity=draw(_finite(1, 1e12)), power_idle=idle,
            power_cpu_busy=idle + draw(_finite(0, 50)),
            power_gpu_busy=idle + draw(_finite(0, 50)),
            power_net=draw(_finite(0, 10)),
            usable_mem_fraction=draw(_finite(0, 1, exclude_min=True))))
    pairs = list(itertools.combinations(ids, 2))
    links = tuple(
        (a, b, Link(draw(_finite(1e-3, 1e12) | st.just(math.inf)),
                    draw(_finite(0, 1))))
        for a, b in (draw(st.lists(st.sampled_from(pairs), unique=True))
                     if pairs else ()))
    network = NetworkModel(draw(_finite(1e-3, 1e12)), draw(_finite(0, 1)),
                           links)
    return TrustedDomain(tuple(devices), network, name=draw(_TEXT),
                         mode=draw(st.sampled_from(("cpu", "gpu"))))


@st.composite
def _specs(draw):
    heads = draw(st.integers(1, 64))
    return TransformerSpec(draw(_TEXT), draw(st.integers(0, 96)),
                           heads * draw(st.integers(1, 128)), heads,
                           draw(st.integers(1, 10 ** 6)),
                           draw(st.integers(1, 8)))


@st.composite
def _jobs(draw):
    micro = draw(st.integers(1, 64))
    return TrainingJob(micro * draw(st.integers(1, 64)),
                       draw(st.integers(1, 4096)), micro,
                       draw(st.integers(1, 20)), draw(_finite(1e-3, 16)),
                       draw(_finite(1e-3, 16)), draw(_finite(1e-3, 16)))


def _through_yaml(data):
    return config_io.parse_yaml(config_io.dump_yaml(data), "schema")


def _left_out_domain_keys(domain):
    """(path of an optional domain-file key, the domain a file without it
    loads to): the dataclass default, or 0.0 where the dataclass has none."""
    dev, net = domain.devices[0], domain.network

    def device(**changes):
        return replace(domain, devices=(replace(dev, **changes),)
                       + domain.devices[1:])

    def network(**changes):
        return replace(domain, network=replace(net, **changes))

    cases = [
        (("mode",), replace(domain, mode=TrustedDomain.mode)),
        (("name",), replace(domain, name=TrustedDomain.name)),
        (("network",), replace(domain, network=NetworkModel())),
        (("network", "default_bandwidth_bps"),
         network(default_bandwidth=NetworkModel.default_bandwidth)),
        (("network", "default_latency_s"),
         network(default_latency=NetworkModel.default_latency)),
        (("network", "links"), network(links=NetworkModel.links)),
        (("devices", 0, "usable_mem_fraction"),
         device(usable_mem_fraction=DeviceProfile.usable_mem_fraction)),
        (("devices", 0, "gpu_throughput_flops"), device(gpu_throughput=0.0)),
        (("devices", 0, "power_net_w"), device(power_net=0.0)),
    ]
    if net.links:
        a, b, link = net.links[0]
        cases.append((("network", "links", 0, "latency_s"), network(
            links=((a, b, replace(link, latency=0.0)),) + net.links[1:])))
    return cases


@settings(max_examples=40, deadline=None)
@given(_schema_domains(), _specs(), _jobs())
def test_schema_round_trips_and_defaults(domain, spec, job):
    """Each object loads back equal from its YAML text, and a file that
    leaves out an optional key loads that field's default."""
    assert config_io.domain_from_dict(
        _through_yaml(config_io.domain_to_dict(domain))) == domain
    for path, want in _left_out_domain_keys(domain):
        data = config_io.domain_to_dict(domain)
        target = data
        for key in path[:-1]:
            target = target[key]
        del target[path[-1]]
        assert config_io.domain_from_dict(_through_yaml(data)) == want, path
    for obj, to_dict, from_dict in (
            (spec, config_io.model_to_dict, config_io.model_from_dict),
            (job, config_io.job_to_dict, config_io.job_from_dict)):
        assert from_dict(_through_yaml(to_dict(obj))) == obj
        for f in fields(obj):
            if f.default is not MISSING:
                data = to_dict(obj)
                del data[f.name]
                assert from_dict(_through_yaml(data)) == \
                    replace(obj, **{f.name: f.default}), f.name


@settings(max_examples=40, deadline=None)
@given(_schema_domains(), st.data())
def test_link_rows_and_device_tables(domain, data):
    """A link's bandwidth loads from an integer, a float or YAML 1.1 text
    (``3e9``, which YAML 1.1 reads as a string) to the same ``Link``, from
    the mapping or its YAML text.  In both modes, for a domain made, loaded
    or moved by ``with_mode``, each device's table entries are what its
    methods and ``busy_power`` give."""
    pairs = list(itertools.combinations(domain.device_ids, 2))
    rows, links = [], []
    for a, b in (data.draw(st.lists(st.sampled_from(pairs), unique=True))
                 if pairs else ()):
        m, e = data.draw(st.integers(1, 999)), data.draw(st.integers(0, 9))
        latency = data.draw(_finite(0, 1))
        bandwidth = data.draw(st.sampled_from(
            (m * 10 ** e, float(m * 10 ** e), f"{m}e{e}")))
        rows.append({"a": a, "b": b, "bandwidth_bps": bandwidth,
                     "latency_s": latency})
        links.append((a, b, Link(float(m * 10 ** e), latency)))
    want = replace(domain, network=replace(domain.network, links=tuple(links)))
    file = config_io.domain_to_dict(want)
    file["network"]["links"] = rows
    loaded = config_io.domain_from_dict(file)
    assert loaded == want
    assert config_io.domain_from_dict(_through_yaml(file)) == want
    for mode in ("cpu", "gpu"):
        for moded in (replace(want, mode=mode), loaded.with_mode(mode)):
            assert list(moded._throughput) == list(moded._usable_memory) \
                == list(moded._power) == list(moded.device_ids)
            for d in moded.devices:
                assert moded._throughput[d.id] \
                    == effective_throughput(moded.device(d.id), moded.mode) \
                    == effective_throughput(d, mode)
                assert moded._usable_memory[d.id] \
                    == moded.device(d.id).usable_memory
                assert moded._power[d.id] == (
                    d.power_idle, busy_power(d, mode) - d.power_idle,
                    d.power_net)


@st.composite
def _domains(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(DEVICE_PROFILE_FACTORIES)),
                          min_size=2, max_size=6))
    devices = tuple(DEVICE_PROFILE_FACTORIES[k](f"{k}-{i}")
                    for i, k in enumerate(kinds))
    pairs = list(itertools.combinations([d.id for d in devices], 2))
    links = tuple((a, b, Link(draw(st.floats(1e7, 1e9)), 1e-4))
                  for a, b in pairs)
    return TrustedDomain(devices, NetworkModel(links=links),
                         mode=draw(st.sampled_from(("cpu", "gpu"))),
                         name="random")


@settings(max_examples=25, deadline=None)
@given(_domains(), st.sampled_from(sorted(MODEL_PRESETS)))
def test_every_built_plan_loads_back(domain, model):
    plans = [plan for _, plan, _, _ in candidate_plans(
        domain, domain.device_ids, model_preset(model), default_edge_job(),
        Objective())
        if plan is not None]
    for plan in plans:
        text = config_io.dump_yaml(config_io.plan_to_dict(plan, domain, 12.5))
        loaded, loaded_domain, interval = config_io.plan_from_dict(
            config_io.parse_yaml(text, "plan"))
        assert (loaded, loaded_domain, interval) == (plan, domain, 12.5)


@settings(max_examples=50, deadline=None)
@given(_domains(), st.data())
def test_pp_block_counts_round_trip(domain, data):
    """A PP plan of any valid block counts, in any order, writes stage i
    from the sum of the first i counts to the sum of the first i + 1, and
    its file reads back as the same plan."""
    order = data.draw(st.permutations(domain.device_ids))
    blocks = data.draw(st.lists(st.integers(1, 8), min_size=len(order),
                                max_size=len(order)))
    spec = TransformerSpec("g", sum(blocks), 64, 4, 100)
    plan = make_pp_plan(domain, spec, default_edge_job(), order, blocks)
    file = config_io.plan_to_dict(plan, domain)
    assert file["partition"]["stages"] == [
        {"device": d, "start": sum(blocks[:i]), "end": sum(blocks[:i + 1])}
        for i, d in enumerate(order)]
    assert config_io.plan_from_dict(_through_yaml(file)) == (plan, domain,
                                                             None)


# ---------------------------------------------------------------- equivalence

# PyYAML's safe loader classes, the oracle the one reader is checked
# against: the installed one (libyaml's when present) and the pure-Python
# one.
ORACLES = {"installed": getattr(yaml, "CSafeLoader", yaml.SafeLoader),
           "pure": yaml.SafeLoader}


@pytest.fixture(params=sorted(ORACLES))
def oracle(request, monkeypatch):
    """A loader class of ``ORACLES``; PyYAML is blocked for the code under
    test, so that importing it raises ImportError."""
    monkeypatch.setitem(sys.modules, "yaml", None)
    return ORACLES[request.param]


EDGE_FLOATS = [0.0, -0.0, 5e-324, 1e16, 1e-05, sys.float_info.max, math.nan,
               math.inf, -math.inf, 0.1, -2.5e-300]
EDGE_INTS = [0, 1, -1, -17, 2 ** 70, -(2 ** 70)]
EDGE_STRINGS = ["", " lead", "trail ", "yes", "No", "null", "~", "1e9", "0x1F",
                "12:30", "2024-01-01", "- a", "a: b", "#x", "<<", "=",
                "two\nlines", "é", "\x07", "1.0", "true", "'q'", '"q"',
                " ".join(f"w{i}" for i in range(30)),
                "x" * 90 + " " + "y" * 10, "back\\slash", "\t", "\r\n",
                "\x85", "\u2028", "\u2029", "\ufeff", "\ufffe", "\x7f",
                "\xa0", "\U0001f600", "-a", "...a", "v" * 128, "w" * 129,
                "my lab", "café", "007", "\\x41", "\\u0041", '\\"']

# Every code point but the surrogates: UTF-8 cannot carry a lone surrogate,
# and libyaml refuses the escape "\uD800" that would stand for one.
_CHARS = st.characters(exclude_categories=("Cs",))
_KEYS = st.text(_CHARS, max_size=6) | st.sampled_from(EDGE_STRINGS)
_LEAVES = (st.none() | st.booleans()
           | st.integers() | st.sampled_from(EDGE_INTS)
           | st.floats() | st.sampled_from(EDGE_FLOATS)
           | st.text(_CHARS, max_size=12) | st.sampled_from(EDGE_STRINGS))
_TREES = st.dictionaries(_KEYS, st.recursive(
    _LEAVES, lambda inner: (st.lists(inner, max_size=4)
                            | st.dictionaries(_KEYS, inner, max_size=4)),
    max_leaves=24), max_size=6)


def _same(a, b) -> bool:
    """Equal with the same types and key order; NaN equals NaN and -0.0
    differs from 0.0."""
    if type(a) is not type(b):
        return False
    if type(a) is float:
        return repr(a) == repr(b)
    if type(a) is dict:
        return list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    if type(a) is list:
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


def _edge_document():
    return {"floats": EDGE_FLOATS, "ints": EDGE_INTS,
            "strings": EDGE_STRINGS, "keys": dict.fromkeys(EDGE_STRINGS, 1),
            "zero": 0.0, "negative_zero": -0.0, "flags": [True, False, None],
            "empty": [{}, []], "nested": [[], [[1, "a"], {"b": [2]}], {}],
            "deep": [[[[1]], [[]]], [[{"a": [["b"]]}]]]}


_WITH_ORACLE = settings(
    max_examples=150, deadline=None,
    # The fixture's block holds for every example of the test.
    suppress_health_check=[HealthCheck.function_scoped_fixture])


# A row whose token key is longer than PyYAML reads as a key.
LONG_KEY_ROW = "k" * 1100 + ": 1"
# Documents outside the one reader's grammar, each with the line it refuses
# and what that line holds.  PyYAML reads each of these as a mapping:
READ_BY_PYYAML = {
    "a: &x [1, {b: 2}]\nb: *x\n": (1, "an anchor"),
    "base: &b {x: 1, y: 2}\nd:\n  <<: *b\n  y: 3\n": (1, "an anchor"),
    "a: !!str 5\nb: !!int \"7\"\nc: !!float 1\nd: !!null ''\n": (1, "a tag"),
    "t: 2001-12-14t21:59:43.10-05:00\nd: 2024-01-01\n"
    "bin: !!binary aGVsbG8=\n": (1, "a timestamp"),
    "s: !!set {a, b}\no: !!omap [x: 1, y: 2]\np: !!pairs [x: 1, x: 2]\n":
        (1, "a tag"),
    "a: 1\nb: 2\na: 3\n": (3, "a repeated key"),
    "f: {x: [1, 2], y: {z: null}}\ng: [a, {b: c}, [d]]\n":
        (1, "a flow collection"),
    "'=': 1\nk: '<<'\n": (1, "a single-quoted scalar"),
    "a: &s text\nb: *s\nc: &n [*s]\n": (1, "an anchor"),
    "d: 2024-01-01\n": (1, "a timestamp"),
    "d:\n  <<: {x: 1}\n  y: 3\n": (2, "a merge key"),
    "a: |\n  two\n  lines\n": (1, "a block scalar"),
    "a: >\n  folded\n": (1, "a block scalar"),
    "a: \"two\n  lines\"\n": (1, "a multi-line scalar"),
    "a: two\n  lines\n": (2, "a value with no key or dash"),
    "a:\n  - 1\n": (2, "indentation other than the writer's"),
    "a:\n    b: 1\n": (2, "indentation other than the writer's"),
    "a:  1\n": (1, "spaces other than the writer's"),
    "a: 1 # note\n": (1, "a comment after a value"),
    "a: 1 \n": (1, "spaces other than the writer's"),
    "---\na: 1\n": (1, "a document marker"),
    "%YAML 1.1\n---\na: 1\n": (1, "a directive"),
    "? a\n: 1\n": (1, "an explicit key"),
    "a: ~\n": (1, "a scalar that is neither a token nor quoted"),
    "f: 12:30\n": (1, "a scalar that is neither a token nor quoted"),
    "name: café\n": (1, "a scalar that is neither a token nor quoted"),
    "a: \"\\U0001F600\"\n": (1, "an escape other than"),
    "a: \"x\ty\"\n": (1, "a scalar that is neither a token nor quoted"),
    "a:\nb: 1\n": (2, "indentation other than the writer's"),
    "a: 1\nb:\n": (2, "a key with no value"),
    "a: 1\nb: 1.0\nTrue: 2\n1: 3\n": (4, "a repeated key"),
    f"a: {'x' * 129}\n": (1, "a token of more than 128 characters"),
    # A line that breaks a rule is named before a later line outside the
    # grammar.
    "a: 1\na: 2\nb: 1 # note\n": (2, "a repeated key"),
    "a:\n    b: 1\nc: 1 # note\n": (2, "indentation other than the writer's"),
}
# PyYAML refuses each of these, or reads no mapping:
REFUSED_BY_BOTH = {
    "? [a, b]\n: 1\n": (1, "an explicit key"),
    "a: 1\n---\nb: 2\n": (2, "a document marker"),
    "": (1, "an empty document"),
    "a: =\n": (1, "a scalar that is neither a token nor quoted"),
    "a: !!binary a\n": (1, "a tag"),
    "a: !!omap 5\n": (1, "a tag"),
    "a: !unknown x\n": (1, "a tag"),
    "v: 0x_\n": (1, "an int of no digits"),
    "- a\n- b\n": (1, "a list at the top level"),
    "a: *x\n": (1, "an alias"),
    "a:\n\tb: 1\n": (2, "a tab"),
    "a: \"x\"y\n": (1, "a scalar that is neither a token nor quoted"),
    "a: \"\\x41\\z\"\n": (1, "an escape other than"),
    f'"{"k" * 1023}": 1\n': (1, "a key of more than 1024 characters"),
    # ``LONG_KEY_ROW`` is named on its own line, whether the other lines
    # are token rows, a comment, a quoted value or a later line outside the
    # grammar.
    **dict.fromkeys([f"x: 1\n{LONG_KEY_ROW}\ny: 2\n",
                     f"x: 1\n{LONG_KEY_ROW}\ny: \"a b\"\n",
                     f"x: 1\n{LONG_KEY_ROW}\ny: 2 # note\n"],
                    (2, "a key of more than 1024 characters")),
    f"# note\nx: 1\n{LONG_KEY_ROW}\n":
        (3, "a key of more than 1024 characters"),
    # A line that breaks a rule is named before a later line outside the
    # grammar.
    "a: 1\nb: 2\n- c\n---\n": (3, "a list at the top level"),
}


def _assert_refused(tmp_path, capsys, text, oracle):
    """``plan --domain`` on ``text`` exits 1 with one ``error:`` line that
    names the line and construct ``READ_BY_PYYAML`` or ``REFUSED_BY_BOTH``
    gives it, and PyYAML through ``oracle`` reads it as that table says."""
    try:
        read = type(yaml.load(text, Loader=oracle)) is dict
    except (yaml.YAMLError, ValueError, TypeError):
        read = False
    assert read == (text in READ_BY_PYYAML)
    number, construct = {**READ_BY_PYYAML, **REFUSED_BY_BOTH}[text]
    path = tmp_path / "input.yaml"
    path.write_text(text, encoding="utf-8")
    assert _one_error_line(capsys, ("plan", "--domain"), path).startswith(
        f"error: domain: line {number}: {construct}")


class TestEquivalence:
    """Both of PyYAML's loader classes read back what ``dump_yaml`` writes,
    and the one reader reads it, with PyYAML blocked, as they do."""

    @_WITH_ORACLE
    @given(_TREES)
    @example({"v" * 128: None})
    @example(_edge_document())
    def test_dump_and_load_match_pyyaml(self, oracle, data):
        """For every tree ``dump_yaml`` writes, non-token strings and lists
        in lists among them, ``read(write(t)) == t``."""
        text = _checked_dump(data)
        got = config_io.parse_yaml(text, "tree")
        assert _same(got, _key_sorted(data))
        assert _same(got, yaml.load(text, Loader=oracle))

    def test_edge_document(self, oracle):
        """Every edge value is written and read back; a list met twice is a
        ValueError, and refused as an anchor when PyYAML wrote it."""
        data = _edge_document()
        text = _checked_dump(data)
        assert _same(config_io.parse_yaml(text, "edge"), _key_sorted(data))
        shared = [1, "a"]
        with pytest.raises(ValueError):
            config_io.dump_yaml({"shared": shared, "again": shared})
        text = yaml.safe_dump({"shared": shared, "again": shared})
        assert "&id001" in text and "*id001" in text
        with pytest.raises(ConfigError, match="^edge: line 1: an anchor "):
            config_io.parse_yaml(text, "edge")

    def test_recursive_list(self, oracle):
        loop: list = []
        loop.append(loop)
        with pytest.raises(ValueError):
            config_io.dump_yaml({"loop": loop})
        with pytest.raises(ConfigError, match="^loop: line 1: an anchor "):
            config_io.parse_yaml(yaml.safe_dump({"loop": loop}), "loop")

    def test_longest_key(self, oracle):
        """A key is written and read up to 1,024 characters, quotes
        included, the longest simple key PyYAML reads."""
        longest = {"k" * 1022: ["é" * 1022]}
        text = _checked_dump(longest)
        assert _same(config_io.parse_yaml(text, "key"), longest)
        with pytest.raises(ValueError):
            config_io.dump_yaml({"k" * 1023: 1})

    @pytest.mark.parametrize("value", [(1, 2), {1, 2}, b"x",
                                       datetime.date(2024, 1, 1), object()])
    def test_other_types_are_refused(self, oracle, value):
        with pytest.raises(TypeError):
            config_io.dump_yaml({"a": [value]})
        with pytest.raises(TypeError):
            config_io.dump_yaml({"a": "yes", "b": [value]})
        with pytest.raises(TypeError):
            config_io.dump_yaml([value])

    @pytest.mark.parametrize("text", list(READ_BY_PYYAML))
    def test_hand_written_documents(self, tmp_path, capsys, oracle, text):
        """Valid YAML outside the grammar exits 1 naming its line."""
        _assert_refused(tmp_path, capsys, text, oracle)

    @pytest.mark.parametrize("text", list(REFUSED_BY_BOTH))
    def test_unloadable_documents(self, tmp_path, capsys, oracle, text):
        _assert_refused(tmp_path, capsys, text, oracle)


# ---------------------------------------------------------------- block path

# Strings the block writer writes plain, and strings PyYAML quotes because
# they resolve to another tag, which the block writer double-quotes.
_WORDS = (st.tuples(st.sampled_from(string.ascii_letters + "_"),
                    st.text(string.ascii_letters + string.digits + "_.+-",
                            max_size=11)).map("".join)
          | st.sampled_from(["nano-0", "tx2-1", "gpu-nx-12", "a.b", "x+y", "_",
                             "1e3", "0.5.1", "2x", "y" * 100, "-a", ".a",
                             "..a", "-.-"]))
_QUOTED_WORDS = st.sampled_from(["yes", "No", "null", "true", "1.0", "0x1F",
                                 "007", "1_000", "-1", ".5", "2024-01-01",
                                 "...a"])
# The corners of YAML 1.1's plain scalar table: ints with separators and
# prefixes, floats with and without a signed exponent, infinities, NaNs,
# bool and null words in odd case, a date, and tokens of the longest length
# the block reader takes and one more.
CORNER_TOKENS = ["1_000", "1_", "_1", "0b1_0", "017", "0o17", "0x1F", "0x_",
                 "00", "-0", "1.", ".5", "-.5", "1e9", "1.0e9", "1.0e+9",
                 "1.0E+9", ".inf", "-.Inf", ".NaN", "NaN", "yes", "Off",
                 "NULL", "nuLL", "2024-01-01", "1" * 128, "1" * 129]
# A value of the longest token; as a key, PyYAML's pure-Python emitter
# writes one of more than 122 characters as a "? " key.
_TOKEN_LEAVES = (st.none() | st.booleans() | st.sampled_from(EDGE_INTS)
                 | st.integers(-2 ** 80, 2 ** 80) | st.sampled_from(EDGE_FLOATS)
                 | st.floats() | _WORDS | _QUOTED_WORDS | st.just("v" * 128)
                 | st.sampled_from(CORNER_TOKENS) | st.builds(dict)
                 | st.builds(list))


def _token_collections(inner):
    return st.dictionaries(_WORDS, inner, max_size=4) | st.lists(inner,
                                                               max_size=4)


_TOKEN_TREES = st.dictionaries(_WORDS, st.recursive(
    _TOKEN_LEAVES, _token_collections, max_leaves=24), min_size=1, max_size=6)

# One edit of a block document, each kind as likely: insert one of these
# strings, or one of _SIGNS, at any point; insert a line, a copy of one or
# one of _NEW_LINES; delete a line or a space.
_INSERTS = [" ", "\t", "- ", "---"]
_SIGNS = "#:'\"&*!|>%@,?{}[]\\"
_NEW_LINES = ["\n", "# note\n", "---\n", "k" * 1025 + ": 1\n"]


def _edits(text):
    lines = text.splitlines(keepends=True)
    spaces = [i for i, c in enumerate(text) if c == " "]

    def insert(strings):
        return st.tuples(st.integers(0, len(text)), strings).map(
            lambda e: text[:e[0]] + e[1] + text[e[0]:])

    def add_line(new):
        return st.tuples(st.integers(0, len(lines)), new).map(
            lambda e: "".join(lines[:e[0]] + [e[1]] + lines[e[0]:]))

    edits = [*map(insert, map(st.just, _INSERTS)),
             insert(st.sampled_from(_SIGNS)),
             add_line(st.sampled_from(lines)),
             *map(add_line, map(st.just, _NEW_LINES)),
             st.integers(0, len(lines) - 1).map(
                 lambda i: "".join(lines[:i] + lines[i + 1:]))]
    if spaces:
        edits.append(st.sampled_from(spaces).map(
            lambda i: text[:i] + text[i + 1:]))
    return st.one_of(edits)


def _strings(data):
    """Every string in ``data``, key or value, at any depth."""
    if type(data) is str:
        yield data
    elif type(data) is dict:
        for key, value in data.items():
            yield from _strings(key)
            yield from _strings(value)
    elif type(data) is list:
        for item in data:
            yield from _strings(item)


def _corner_examples(test):
    """``test`` with one example per corner token, as a key and a value."""
    for token in CORNER_TOKENS:
        test = example({token: token})(test)
    return test


def _constructed(token):
    """The tag PyYAML's resolver gives ``token`` as a plain scalar, and what
    its safe constructor builds from it, or the ValueError it raises."""
    tag = yaml.resolver.Resolver().resolve(yaml.ScalarNode, token,
                                           (True, False))
    try:
        return tag, yaml.constructor.SafeConstructor().construct_object(
            yaml.ScalarNode(tag, token))
    except ValueError as exc:
        return tag, exc


# Tokens of YAML 1.1's plain scalar table: words, and numbers with signs,
# separators, prefixes, points and exponents.
_WORD_TOKENS = st.sampled_from(sorted(yaml_block._SCALAR_WORDS)).map(
    lambda word: st.sampled_from([word, word.lower(), word.upper(),
                                  word.swapcase(), word[:-1]])).flatmap(
    lambda words: words)
_NUMERIC_TOKENS = st.from_regex(
    r"-?(0[bxo])?[0-9a-fA-F_.]{0,6}([eE][-+]?[0-9]{0,3})?", fullmatch=True)
_DATE_TOKENS = st.from_regex(r"[0-9]{4}-[0-9]{1,2}-[0-9]{1,2}",
                             fullmatch=True)


class TestBlockPath:
    """``yaml_block`` writes what PyYAML writes for strings it writes plain,
    and reads what PyYAML reads, through either class, or refuses it
    naming its line."""

    @_WITH_ORACLE
    @given(_TOKEN_TREES)
    @_corner_examples
    def test_token_trees_match_pyyaml(self, oracle, data):
        """``dump_yaml`` quotes the strings PyYAML quotes, and is PyYAML's
        bytes when it quotes none; the one reader reads it as PyYAML does.
        Each string of the tree, written plain, is read as PyYAML reads it,
        or refused when it is no token, is longer than 128 characters, or
        is a scalar PyYAML builds no str, int, float, bool or None from."""
        text = _checked_dump(data)
        quoted = "'" in _dump_through(data, yaml.SafeDumper)
        assert ('"' in text) == quoted
        assert _same(config_io.parse_yaml(text, "tree"),
                     yaml.load(text, Loader=oracle))
        for word in _strings(data):
            plain = f"v: {word}\n"
            try:
                got = yaml_block.read(plain)
            except ValueError:
                if re.fullmatch(yaml_block._TOKEN, word) and len(word) <= 128:
                    want = _constructed(word)[1]
                    assert type(want) not in (str, int, float, bool,
                                              type(None)), word
            else:
                assert _same(got, yaml.load(plain, Loader=oracle)), word

    @_WITH_ORACLE
    @given(_TOKEN_TREES | _TREES, st.data())
    def test_edited_documents_read_as_pyyaml_reads_them(self, oracle, data,
                                                        draws):
        """After one edit a written document is read as PyYAML reads it, or
        refused naming a line; never read as another tree."""
        edited = draws.draw(_edits(config_io.dump_yaml(data)))
        try:
            got = config_io.parse_yaml(edited, "edit")
        except ConfigError as exc:
            assert re.match(r"edit: line \d+: ", str(exc)), exc
        else:
            assert _same(got, yaml.load(edited, Loader=oracle))

    @settings(max_examples=3000, deadline=None)
    @given(st.from_regex(yaml_block._TOKEN, fullmatch=True) | _WORD_TOKENS
           | _NUMERIC_TOKENS.filter(re.compile(yaml_block._TOKEN).fullmatch)
           | _DATE_TOKENS | st.sampled_from(CORNER_TOKENS))
    @example("0x_")
    def test_scalar_matches_pyyaml_resolver(self, token):
        """Every token resolves and builds as in PyYAML's resolver and
        safe constructor, in value and type; a token PyYAML resolves as a
        timestamp is refused as one, and an int its constructor cannot
        build as an int of no digits."""
        tag, want = _constructed(token)
        try:
            got = yaml_block._scalar(token)
        except yaml_block._Refused as exc:
            assert (tag, exc.args[0]) in {
                ("tag:yaml.org,2002:timestamp", "a timestamp"),
                ("tag:yaml.org,2002:int", "an int of no digits")}, token
            assert isinstance(want, (ValueError, datetime.date)), token
        else:
            assert _same(got, want), token

    def test_declines_a_token_of_another_tag(self, tmp_path, capsys):
        """A date is a plain token outside the five scalar tags: PyYAML
        reads it, and the one reader refuses it."""
        _assert_refused(tmp_path, capsys, "d: 2024-01-01\n", yaml.SafeLoader)

    def test_declines_a_token_its_constructor_cannot_read(self, tmp_path,
                                                          capsys):
        """``0x_`` resolves to an int that no constructor reads."""
        _assert_refused(tmp_path, capsys, "v: 0x_\n", yaml.SafeLoader)


# Device ids the block grammar has no plain token for: escaped non-ASCII
# text, a string that resolves to an int, and the longest id allowed.
ODD_IDS = ("é" * 20, "é" * 30, "007", "x" * MAX_DEVICE_ID_CHARS)


@pytest.mark.parametrize("kind", ["dp", "pp"])
def test_odd_device_ids_read_back_through_both_loaders(tmp_path, kind):
    """Domain, plan and result files of devices with ``ODD_IDS``, in a
    domain named café, read back as their dicts through both of PyYAML's
    loader classes, and the domain file plans and simulates.  The plan
    file's domain, written back by the program, plans to the same bytes."""
    nano = load_testbed("homogeneous-nano4").devices[0]
    domain = TrustedDomain(tuple(replace(nano, id=i) for i in ODD_IDS),
                           name="café")
    plan = make_plan(kind, domain, model_preset("distilbert"),
                     default_edge_job(), ODD_IDS)
    docs = (config_io.domain_to_dict(domain),
            config_io.plan_to_dict(plan, domain, 12.5),
            config_io.result_to_dict(simulate(plan, domain)))
    for data in docs:
        _checked_dump(data)
    domain_file, plan_file = tmp_path / "domain.yaml", tmp_path / "plan.yaml"
    domain_file.write_text(config_io.dump_yaml(docs[0]), encoding="utf-8")
    assert main(["plan", "--domain", str(domain_file), "--model",
                 "distilbert", "--out", str(plan_file)]) == 0
    assert main(["simulate", "--plan", str(plan_file), "--out",
                 str(tmp_path / "result.yaml")]) == 0
    text = plan_file.read_text(encoding="utf-8")
    read = [yaml.load(text, Loader=loader) for loader in LOADERS]
    assert all(_same(data, read[0]) for data in read)
    again, again_plan = tmp_path / "again.yaml", tmp_path / "again.plan.yaml"
    again.write_text(config_io.dump_yaml(read[0]["domain"]), encoding="utf-8")
    assert main(["plan", "--domain", str(again), "--model", "distilbert",
                 "--out", str(again_plan)]) == 0
    assert again_plan.read_bytes() == plan_file.read_bytes()
