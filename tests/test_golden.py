"""Byte-stability of the command-line outputs.

Each digest below is the sha256 of one output file.  A refactor that changes
any output byte, even in the last digit of a float, fails here.  A digest is
never edited to make a test pass: a change that moves outputs on purpose
re-pins the moved digests from the fixed code, and CHANGES.md lists each
re-pin with its cause.  The hand-built plans run on a domain whose links all
differ (10 Mbps to 1 Gbps) with a batch of 96 (twelve micro-batches), so a
change in the order of floating-point additions in the communication
accounting shows up in the result YAML.  A twelve-device sweep pins pipeline
stage splits where memory caps bind.
"""

import dataclasses
import hashlib
import itertools
import sys

import pytest
import yaml

from edgetrainsim import config_io
from edgetrainsim.cli import main
from edgetrainsim.devices import (Link, NetworkModel, TrustedDomain,
                                  jetson_nano, jetson_nx, jetson_tx2)
from edgetrainsim.parallelism import (make_dp_plan, make_pp_plan,
                                      make_single_plan, make_sp_plan,
                                      make_tp_plan)
from edgetrainsim.scheduler import partition_stages
from edgetrainsim.workload import default_edge_job, model_preset

TESTBEDS = ("homogeneous-nano4", "heterogeneous-mix4")
MODELS = ("distilbert", "gpt2-s", "opt-350m", "gpt2-l")

GOLDEN_PLAN = {
    "homogeneous-nano4/distilbert":
        "e23fb8805e93ffcc2c4e23a6bca57df8a90389ecd14f0835968e587b0454ab8e",
    "homogeneous-nano4/gpt2-s":
        "88dba2abc0783ba06f9a9b59477c46f06dbfc857ed9c5fd02be92a7e663232f9",
    "homogeneous-nano4/opt-350m":
        "214df95acc661003639183fe52143627cc500c6a660ff5a39c05aba9b500aed8",
    "homogeneous-nano4/gpt2-l":
        "ee0c0dd14ccb16b2cb4f900fb1d58582b3b01c3e42677849025f7983db74fb44",
    "heterogeneous-mix4/distilbert":
        "64e5cd272e4a19f96c13b5dcdf3b7c54bee5cf4ba4a0060cb039d86743e9e377",
    "heterogeneous-mix4/gpt2-s":
        "e5b81a2596eb4013fa1bbc71bd1c3355a0c032479253e41af5e68ed879d05248",
    "heterogeneous-mix4/opt-350m":
        "78bb9622ccffaa05d225fbff0549a7fe339f4a1f59437384cff9e252c32ec857",
    "heterogeneous-mix4/gpt2-l":
        "7fbaa853ab6e4f531a39f86930b7c333737a9da07daba5df325b160829c7634e",
}

GOLDEN_SIMULATE = {
    "homogeneous-nano4/distilbert":
        ("b3cce20928d702474ad6b2ba98520a51c84db5410ff7198e2b4ea70b80571409",
         "a8668501f4fad3b50b16e6001a32622879ac3a4b4a163393a7e1cac3e1eb754e"),
    "homogeneous-nano4/gpt2-s":
        ("71210fc34d3cec9469d68d856e37740745250878252a663beff4af6efd50005c",
         "0042b307cb54a07665d953f3de98797ca4ac02154a7976e378d3cab6c39de9fb"),
    "homogeneous-nano4/opt-350m":
        ("e62a9931c291703560007080035143a136ab9468cb95976bd3284af56127173f",
         "067b94a93b1c0f00a33176707bae89ac4b9e4da74dcf9a18eb5773c8f4b0fa8a"),
    "homogeneous-nano4/gpt2-l":
        ("f8cd5f37901c04c845184ac75662bfae464a96c1ac9257ceaf025eda12d6459d",
         "c7922caafcad8fa955a6741378f48e4288bf8f6cb13926cde3df533c054908b8"),
    "heterogeneous-mix4/distilbert":
        ("3b6da439e0e42036cdc55eda6dd207fda7087400679312e015a7145b77a964d4",
         "1a3f38d99a2106c946c186ee5a18c07801524d6cf9e3aa0304c023636958567f"),
    "heterogeneous-mix4/gpt2-s":
        ("5485b9006bfca469a8c65dd4fb4c078cd0feebbf488dd5d9f71055f7770f09a4",
         "0ee3232392f722728ce033550865d42b1f027e1f268c8217da314273712b1a46"),
    "heterogeneous-mix4/opt-350m":
        ("54897c871c3958b3707ecb131f51a97b2c203641986092d544fac4c415988ae4",
         "3e5c433b707667368ffd223f602888c41337cf6f8bead281e27e4e9a42ad94b6"),
    "heterogeneous-mix4/gpt2-l":
        ("deadffb8b415fdb1827dab46e44ba3e11b2dae81355fea05e9cdac84e92b06be",
         "6989238d5b4e18aafd14b1e1285c12358de27636ffac9a65fb5b7d2013562217"),
}

GOLDEN_FAULTS = {
    "homogeneous-nano4/distilbert":
        "ea2dfcc0f1d94cdad78769a349a492e73647d5003ab408ad452ec5e09ed8b6bc",
    "homogeneous-nano4/gpt2-s":
        "2e8d9d61217938c7580a4332846198df68004b26bbcf2d7469a273e0a713790c",
    "homogeneous-nano4/opt-350m":
        "0d96930cb2b6afb27d3c3b1d491b42e99e2e62c5e30bf9b46edd84e84ca8de90",
    "homogeneous-nano4/gpt2-l":
        "3a2fd862e42d2e7ee2e15274fde48383bd71a9f3b0cf5da280c28fc4e4c4f0a0",
    "heterogeneous-mix4/distilbert":
        "f407602c0590d3bcb9154c6c54ef74ce61c6ea903ddbea2edd7971f0c74128d3",
    "heterogeneous-mix4/gpt2-s":
        "c9ea3b9075791c664260a39b704e519e3c4a3bc90681a1bf19c640b18c85277e",
    "heterogeneous-mix4/opt-350m":
        "dcec9f9f35214741ad50138a4d11ea14e9340b41c9c4d034a4acbf4384a408ec",
    "heterogeneous-mix4/gpt2-l":
        "fb4a8b501f2096f4e60b6a5937e82ea0d0e4d364fa06e585d4eb63ecb43dbed3",
}

GOLDEN_SWEEP = {
    "homogeneous-nano4":
        "d208fa133432e1c3618abdbf5e0a65538774ffe4dd3c3928a78d857486f6b051",
    "heterogeneous-mix4":
        "3522d66e3ee9c12ed24ac150aacd3dbcd4ab53e461e918f138b239c8058ca0e6",
}

# "plan": the planner's plan file; each kind: its hand-built plan file, then
# the result and trace of simulating it.
GOLDEN_PER_LINK = {
    "plan":
        "58fdfa016ff65fe558fe0f1de00f97de92cecd6f1301fe0f3a956a10d4295c35",
    "single":
        ("b578c7b5280f3ec8f83bf0070b6bff2de4b5e9dfb0fcce7ec8331d34fd87533d",
         "f401dd669ad6c715806daad95f92efd825b450f838a76ac2c85185ec87c8bcdd",
         "ccc684da119abc7efe33c24428df8957a020d164291a8767eb60f9db00763b58"),
    "dp":
        ("0efb8f7631b4e6cd006d1ddcc5c9ed941d9d6d0e21fa0d8db92e012237579ecf",
         "689fa497b3e39f438b4294f2c3812bdda6665f5cc33f3f30b9f6a0ade947260c",
         "ed2add6eee46d0c23bfda05b4dc5f87fc88f319894f8c683dc787c5eacdee293"),
    "sp":
        ("d38f6082e3d696c00fad2517997d7097b362b2a10da2cb263bda7020c32ef574",
         "d3f19db9917073d8780153d91d21ee0b2dd6f4d17779dab377a575ca816c63a9",
         "5f5a2b9e1db135eea106316091daa2de50c882d796d3490bc407fefd4b4d89d8"),
    "tp":
        ("3a9e129ad5caba080bb245762fea186fc86c053dcf3847fcf94de558b44c693b",
         "7961a33475288e740444ba68cce0a398adcc60d89f45092b9df95826b6b1c00a",
         "d1c3ace0f81ed82422da8e16da97862a5ce3d6f130de72b7b0a9c523434875af"),
    "pp":
        ("baac4cf58afdf355c96f46b652610e9454da2976b615b41abd89d0c04f900280",
         "51754417369aabd9424cffbcc1239c6898160e7a830dbc468aca7707bf564b64",
         "b10f9d4cd3409f9826c049b6750d11062ef1b150b81b087476d7246fdb31db7f"),
}

GOLDEN_SWEEP_12 = (
    "9d7bedf46a4c55b71daf3a17d7f2008bfb9875f02b30a38a983e65a88116fbbf")


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run(*argv) -> int:
    return main([str(a) for a in argv])


def _testbed_digests(tmp):
    """Plan, simulate --trace and faults digests for every testbed x model."""
    plan, sim, faults = {}, {}, {}
    for testbed in TESTBEDS:
        for model in MODELS:
            tag = f"{testbed}/{model}"
            path = tmp / f"{testbed}-{model}.plan.yaml"
            code = _run("plan", "--testbed", testbed, "--model", model,
                        "--out", path)
            if code != 0:
                plan[tag] = f"exit {code}"
                continue
            plan[tag] = _sha(path)
            result, trace = (tmp / f"{testbed}-{model}.result.yaml",
                             tmp / f"{testbed}-{model}.trace.tsv")
            assert _run("simulate", "--plan", path, "--iterations", 7,
                        "--trace", trace, "--out", result) == 0
            sim[tag] = (_sha(result), _sha(trace))
            report = tmp / f"{testbed}-{model}.faults.yaml"
            assert _run("faults", "--plan", path, "--mtbf", 3600, "--seed", 3,
                        "--iterations", 40, "--out", report) == 0
            faults[tag] = _sha(report)
    return plan, sim, faults


@pytest.fixture(scope="module")
def testbed_outputs(tmp_path_factory):
    return _testbed_digests(tmp_path_factory.mktemp("golden"))


def _per_link_domain() -> TrustedDomain:
    devices = (jetson_nano("nano-0"), jetson_tx2("tx2-0"), jetson_nx("nx-0"),
               jetson_nano("nano-1"))
    ids = [d.id for d in devices]
    # (bits/s, s) per pair in (0,1), (0,2), (0,3), (1,2), (1,3), (2,3) order;
    # chosen so that C*(a+b) != C*a + C*b for the SP and PP phase sums.
    specs = iter(((150e6, 7e-4), (10e6, 5e-4), (100e6, 2e-4), (600e6, 1e-3),
                  (866e6, 1e-4), (1e9, 1e-4)))
    links = tuple((ids[i], ids[j], Link(*next(specs)))
                  for i in range(len(ids)) for j in range(i + 1, len(ids)))
    return TrustedDomain(devices=devices, network=NetworkModel(links=links),
                         name="per-link")


def _twelve_device_domain(mem_capacity=None) -> TrustedDomain:
    """Twelve boards of the three profiles in mixed order, with memories
    (or ``mem_capacity`` for all) and 66 links of 100 to 990 Mbps."""
    boards = ((jetson_nx, 0.9e9), (jetson_nano, 4e9), (jetson_tx2, 2e9),
              (jetson_nano, 4e9), (jetson_nx, 1.2e9), (jetson_tx2, 8e9),
              (jetson_nano, 2.5e9), (jetson_nx, 8e9), (jetson_tx2, 1.5e9),
              (jetson_nano, 4e9), (jetson_nx, 2e9), (jetson_tx2, 3e9))
    devices = tuple(
        dataclasses.replace(make(f"dev-{i:02d}"),
                            mem_capacity=mem_capacity or mem)
        for i, (make, mem) in enumerate(boards))
    ids = [d.id for d in devices]
    links = tuple((ids[i], ids[j], Link((10 + (7 * i + 13 * j) % 90) * 1e7,
                                        (1 + (i + j) % 5) * 1e-4))
                  for i in range(len(ids)) for j in range(i + 1, len(ids)))
    return TrustedDomain(devices=devices, network=NetworkModel(links=links),
                         name="per-link-12")


def _per_link_plans():
    domain = _per_link_domain()
    spec = model_preset("distilbert")
    job = default_edge_job(global_batch=96)
    ids = domain.device_ids
    return domain, {
        "single": make_single_plan(domain, spec, job, "nx-0"),
        "dp": make_dp_plan(domain, spec, job, ids),
        "sp": make_sp_plan(domain, spec, job, ids),
        "tp": make_tp_plan(domain, spec, job, ids),
        "pp": make_pp_plan(domain, spec, job, ids, (1, 2, 2, 1)),
    }


def test_plan_yaml(testbed_outputs):
    assert testbed_outputs[0] == GOLDEN_PLAN


def test_simulate_result_and_trace(testbed_outputs):
    assert testbed_outputs[1] == GOLDEN_SIMULATE


def test_faults_yaml(testbed_outputs):
    assert testbed_outputs[2] == GOLDEN_FAULTS


def _sweep_digests(tmp):
    got = {}
    for testbed in TESTBEDS:
        out = tmp / f"{testbed}.tsv"
        assert _run("sweep", "--testbed", testbed, "--out", out) == 0
        got[testbed] = _sha(out)
    return got


def _per_link_digests(tmp):
    domain, plans = _per_link_plans()
    assert plans["pp"].job.micro_batch_count == 12
    path = tmp / "per-link.domain.yaml"
    path.write_text(config_io.dump_yaml(config_io.domain_to_dict(domain)))
    out = tmp / "per-link.plan.yaml"
    assert _run("plan", "--domain", path, "--model", "gpt2-s",
                "--batch-size", 96, "--out", out) == 0
    got = {"plan": _sha(out)}
    for kind, plan in plans.items():
        path = tmp / f"{kind}.plan.yaml"
        path.write_text(config_io.dump_yaml(config_io.plan_to_dict(plan, domain)))
        result, trace = tmp / f"{kind}.result.yaml", tmp / f"{kind}.tsv"
        assert _run("simulate", "--plan", path, "--iterations", 12,
                    "--trace", trace, "--out", result) == 0
        got[kind] = (_sha(path), _sha(result), _sha(trace))
    return got


def test_sweep_tsv(tmp_path):
    assert _sweep_digests(tmp_path) == GOLDEN_SWEEP


def test_twelve_device_sweep_tsv(tmp_path):
    domain = _twelve_device_domain()
    # The memory caps change the stage split of both large models.
    roomy = _twelve_device_domain(mem_capacity=1e12)
    job = default_edge_job()
    for mode in ("cpu", "gpu"):
        for model in ("opt-350m", "gpt2-l"):
            spec = model_preset(model)
            assert partition_stages(domain.with_mode(mode), domain.device_ids,
                                    spec, job) != partition_stages(
                roomy.with_mode(mode), roomy.device_ids, spec, job)
    path = tmp_path / "per-link-12.domain.yaml"
    path.write_text(config_io.dump_yaml(config_io.domain_to_dict(domain)))
    out = tmp_path / "per-link-12.tsv"
    assert _run("sweep", "--domain", path, "--out", out) == 0
    assert _sha(out) == GOLDEN_SWEEP_12


def test_hand_built_plans_on_per_link_domain(tmp_path):
    assert _per_link_digests(tmp_path) == GOLDEN_PER_LINK


def test_pure_python_yaml_writes_the_same_bytes(tmp_path):
    """Every YAML file the golden commands write reads, through the one
    pure-Python reader, to what PyYAML's pure-Python ``SafeLoader`` reads,
    and writing that mapping back gives the same bytes."""
    assert _testbed_digests(tmp_path) == (GOLDEN_PLAN, GOLDEN_SIMULATE,
                                          GOLDEN_FAULTS)
    assert _per_link_digests(tmp_path) == GOLDEN_PER_LINK
    paths = sorted(tmp_path.glob("*.yaml"))
    assert len(paths) == 3 * len(TESTBEDS) * len(MODELS) + 12
    for path in paths:
        text = path.read_text()
        data = config_io.parse_yaml(text, path.name)
        assert data == yaml.load(text, Loader=yaml.SafeLoader), path.name
        assert config_io.dump_yaml(data) == text, path.name


def _more_inputs(tmp):
    """Two domains the presets do not cover: ``--devices`` with a repeated
    kind, and a file of twelve devices and 66 links that PyYAML wrote."""
    ids = [f"nano-{i}" for i in range(12)]
    devices = [{"id": d, "cpu_throughput_flops": 15.0e9,
                "gpu_throughput_flops": 240.0e9, "mem_capacity_bytes": 4.0e9,
                "power_idle_w": 2.0, "power_cpu_busy_w": 7.0,
                "power_gpu_busy_w": 10.0, "power_net_w": 1.5} for d in ids]
    links = [{"a": a, "b": b, "bandwidth_bps": 1e8 * (1 + n % 7),
              "latency_s": 1e-4 * (1 + n % 3)}
             for n, (a, b) in enumerate(itertools.combinations(ids, 2))]
    domain = tmp / "links12.domain.yaml"
    domain.write_text(yaml.safe_dump(
        {"schema_version": 1, "name": "nano12-links",
         "network": {"links": links}, "devices": devices}, sort_keys=True))
    return {"devices": ("--devices", "nano,tx2,nx,nano"),
            "links12": ("--domain", domain)}


def _more_outputs(tmp):
    """The bytes of plan, simulate --trace, faults and sweep on
    ``_more_inputs``' domains."""
    for name, pool in _more_inputs(tmp).items():
        plan = tmp / f"{name}.plan.yaml"
        assert _run("plan", *pool, "--model", "gpt2-s", "--out", plan) == 0
        assert _run("simulate", "--plan", plan, "--iterations", 7, "--trace",
                    tmp / f"{name}.tsv", "--out",
                    tmp / f"{name}.result.yaml") == 0
        assert _run("faults", "--plan", plan, "--mtbf", 600, "--seed", 1,
                    "--out", tmp / f"{name}.faults.yaml") == 0
        assert _run("sweep", *pool, "--models", "distilbert", "--out",
                    tmp / f"{name}.sweep.tsv") == 0
    return {path.name: path.read_bytes() for path in tmp.iterdir()}


def test_program_files_never_reach_pyyaml(tmp_path, monkeypatch):
    """With PyYAML blocked, so that importing it raises ImportError, every
    golden command writes its pinned bytes, and plan, simulate --trace,
    faults and sweep run on ``_more_inputs``' domains, one of them written
    by ``yaml.safe_dump``; each file they write reads back through the one
    reader as PyYAML reads it, and is the bytes PyYAML writes for it.  A
    hand-edited block twin of that domain (a comment, a blank line, device
    keys out of order) reads as PyYAML reads the original and plans to the
    same bytes."""
    monkeypatch.setitem(sys.modules, "yaml", None)
    assert _testbed_digests(tmp_path) == (GOLDEN_PLAN, GOLDEN_SIMULATE,
                                          GOLDEN_FAULTS)
    assert _sweep_digests(tmp_path) == GOLDEN_SWEEP
    assert _per_link_digests(tmp_path) == GOLDEN_PER_LINK
    more = tmp_path / "more"
    more.mkdir()
    for name, data in _more_outputs(more).items():
        if name.endswith(".yaml"):
            text = data.decode()
            assert config_io.parse_yaml(text, name) == yaml.safe_load(text)
            assert yaml.safe_dump(yaml.safe_load(text), sort_keys=True,
                                  default_flow_style=False) == text, name
    want = yaml.safe_load((more / "links12.domain.yaml").read_text())
    lines = ["# links12.domain.yaml by hand", "", "devices:"]
    for device in want["devices"]:
        lines += [("  " if i else "- ") + f"{key}: {device[key]}"
                  for i, key in enumerate(sorted(device, reverse=True))]
    twin = more / "twin.domain.yaml"
    twin.write_text("\n".join(lines) + "\n" + yaml.safe_dump(
        {"name": want["name"], "network": want["network"],
         "schema_version": 1}))
    assert config_io.parse_yaml(twin.read_text(), "twin") == want
    assert _run("plan", "--domain", twin, "--model", "gpt2-s", "--out",
                more / "twin.plan.yaml") == 0
    assert (more / "twin.plan.yaml").read_bytes() \
        == (more / "links12.plan.yaml").read_bytes()
