"""YAML I/O tests: agreement with PyYAML's pure-Python reference, and errors."""

import itertools

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from edgetrainsim import config_io
from edgetrainsim.cli import main
from edgetrainsim.config_io import ConfigError
from edgetrainsim.devices import (DEVICE_PROFILE_FACTORIES, Link, NetworkModel,
                                  TrustedDomain)
from edgetrainsim.devices import testbed_preset as load_testbed
from edgetrainsim.parallelism import make_dp_plan
from edgetrainsim.scheduler import candidate_plans
from edgetrainsim.simengine import simulate
from edgetrainsim.workload import MODEL_PRESETS, default_edge_job, model_preset

from test_cli import assert_edited_input_exits_1
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

# Hand-written scalars whose YAML 1.1 types differ from what they look like.
HAND_TEXT = """\
a: 1e8
b: 1.0e+8
c: 0.1
d: 1_000
e: 0x1F
f: 12:30
g: yes
h: ~
i: nano-0
j: '007'
k: [1, -2.5e-3, .inf, .nan]
"""


def _reference_dump(data):
    return yaml.safe_dump(data, sort_keys=True, default_flow_style=False)


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
        for name, data in documents.items():
            assert config_io.dump_yaml(data) == _reference_dump(data), name

    def test_parse_matches_reference(self, documents):
        for name, data in documents.items():
            text = _reference_dump(data)
            assert config_io.parse_yaml(text, name) == yaml.safe_load(text), name

    def test_hand_written_scalars(self):
        got = config_io.parse_yaml(HAND_TEXT, "scalars")
        want = yaml.safe_load(HAND_TEXT)
        nan_got, nan_want = got["k"].pop(), want["k"].pop()
        assert nan_got != nan_got and nan_want != nan_want
        assert got == want
        assert config_io.dump_yaml(got) == _reference_dump(got)


class TestParseErrors:
    def test_top_level_list_is_rejected(self):
        with pytest.raises(ConfigError,
                           match="^plan: expected a mapping at the top level$"):
            config_io.parse_yaml("- a\n- b\n", "plan")

    @pytest.mark.parametrize("argv", [
        ("plan", "--domain"), ("simulate", "--plan"),
        ("faults", "--mtbf", "40", "--plan")])
    def test_malformed_yaml_exits_1_with_line(self, tmp_path, capsys, argv):
        path = tmp_path / "bad.yaml"
        path.write_text("schema_version: 1\nname: [a, b\nmode: gpu\n")
        assert main([*argv, str(path)]) == 1
        err = capsys.readouterr().err
        assert "YAML parse error" in err
        assert "line 3" in err


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
        with pytest.raises(ConfigError, match=r"^plan: invalid literal"):
            config_io.plan_from_dict(data)


# (input file, path into it, new value); see assert_edited_input_exits_1
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
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_value_exits_1_with_one_error_line(tmp_path, capsys, case):
    assert_edited_input_exits_1(tmp_path, capsys, *MALFORMED[case])


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
    plans, _ = candidate_plans(domain, domain.device_ids, model_preset(model),
                               default_edge_job())
    for plan in plans:
        text = config_io.dump_yaml(config_io.plan_to_dict(plan, domain, 12.5))
        loaded, loaded_domain, interval = config_io.plan_from_dict(
            config_io.parse_yaml(text, "plan"))
        assert (loaded, loaded_domain, interval) == (plan, domain, 12.5)
