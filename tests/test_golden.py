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
        "408184a5ad6286e34ab87b86f01894cfa9031389bd86bfd561a9a66b9d23d796",
    "homogeneous-nano4/opt-350m":
        "be09c5c84f53be819f1456dec66679fbae1ce8816ed94a41fe11aecc7c6ba2d1",
    "homogeneous-nano4/gpt2-l":
        "d9ced219204e0e67ce48e004cfa2f7018015bbc11feb3bb8e83c47aed2389d1c",
    "heterogeneous-mix4/distilbert":
        "64e5cd272e4a19f96c13b5dcdf3b7c54bee5cf4ba4a0060cb039d86743e9e377",
    "heterogeneous-mix4/gpt2-s":
        "d735c96e1ae4bec612bc60e215ed7eecdfb589b473f1364ceddce77414024bf6",
    "heterogeneous-mix4/opt-350m":
        "6efb0b9dd8f530ede19810cf06dce9837d472a23f38dfd011d887f71c21d3369",
    "heterogeneous-mix4/gpt2-l":
        "93a8ee675aad16d8e5701798c8425dc42ab22fe1e5d4d47f827b01f720fc3390",
}

GOLDEN_SIMULATE = {
    "homogeneous-nano4/distilbert":
        ("b3cce20928d702474ad6b2ba98520a51c84db5410ff7198e2b4ea70b80571409",
         "a8668501f4fad3b50b16e6001a32622879ac3a4b4a163393a7e1cac3e1eb754e"),
    "homogeneous-nano4/gpt2-s":
        ("47f941c879712db1b373efe4cfeecdf3a7463ba585c183c1cc5d65e3c93c2e6e",
         "a95d9c6ad265f21bc63bac3d85bfdfd52013792d6cf065d1aa03fb6aa33a09f4"),
    "homogeneous-nano4/opt-350m":
        ("cb0adeabc2f7de4e38fc4ad5d25f421d32c484b1068732d46e501fb5ee9d42e4",
         "35e8e9599a84289a04455c80726dd08f35ea47be6004cf54f85a3055c880d56a"),
    "homogeneous-nano4/gpt2-l":
        ("38ca86bf866dd2731f796330ac0b9617f824c6ca8fc87ce97b607239c97089e9",
         "8dc0316eaf657e82f2784dc589f44cc61a596d65a9d3aada285ccd102c56f2c5"),
    "heterogeneous-mix4/distilbert":
        ("3b6da439e0e42036cdc55eda6dd207fda7087400679312e015a7145b77a964d4",
         "1a3f38d99a2106c946c186ee5a18c07801524d6cf9e3aa0304c023636958567f"),
    "heterogeneous-mix4/gpt2-s":
        ("a8135b0ee1d373a7bd1465aa2785e86bffbf1e063d3555b49735ec2a156ea62d",
         "f6e6b310b1d763d5b048927e10a9a299565fd45cc5d238a179f4c8df5268316f"),
    "heterogeneous-mix4/opt-350m":
        ("9096faf9754e2c6cebf896235afbdabedc13fc9a9ec75a36bc0808559198ed22",
         "49b9eb59f844cf2e046df1fe613ca4e1fa7f86db4ef33b814634653d29eaa720"),
    "heterogeneous-mix4/gpt2-l":
        ("8f9265b1ce6e6d20715641519bf6652bdf0d395a11d53b17d4b7fcb8595bb204",
         "ab8563f02340f78bea9bfb7f0595f67054812625ad2e673b554ded3da5a03a7b"),
}

GOLDEN_FAULTS = {
    "homogeneous-nano4/distilbert":
        "ea2dfcc0f1d94cdad78769a349a492e73647d5003ab408ad452ec5e09ed8b6bc",
    "homogeneous-nano4/gpt2-s":
        "a27cf90b6c25c7c75adb41056864e39a78112b1f880505d77b09c816a0a790bc",
    "homogeneous-nano4/opt-350m":
        "b28ba9d7dde0f24b1afe7a2868293961be5de79f2ea8124c221b87fbbe7474ec",
    "homogeneous-nano4/gpt2-l":
        "6b3375bde003cb666879c54c60f3cc4e6494402553335338929646b1f02c5231",
    "heterogeneous-mix4/distilbert":
        "b2b65493913263db2655ed61961e9963bdf5f69095552e636e0324b8ff3916f0",
    "heterogeneous-mix4/gpt2-s":
        "2c0b57fded82592140343958c0760f0bcdd3847787efcb6da3895e04e91fd25d",
    "heterogeneous-mix4/opt-350m":
        "4f3b7d3b3e5c8d7e1157045fa96a41291865ec3e85de66b7b5c17a5d23ffd9a9",
    "heterogeneous-mix4/gpt2-l":
        "2a3e6aabd124140c90e35bb4b6301eb799ab038a78cc8450b35bee95499af148",
}

GOLDEN_SWEEP = {
    "homogeneous-nano4":
        "45d54ae18bf20e3bb9c5f64c8add309ebcc0aef6fe85e6b653ed066d35d91e28",
    "heterogeneous-mix4":
        "5da852569ea6dcb9d3156ccd2212c5f077154adcde61742232045ef7743d0fdb",
}

GOLDEN_PER_LINK = {
    "plan":
        "9d9eca382191e8267968c434edbf7cb22a508e87607562fd4ef1c4ad34f75c27",
    "single":
        ("f401dd669ad6c715806daad95f92efd825b450f838a76ac2c85185ec87c8bcdd",
         "ccc684da119abc7efe33c24428df8957a020d164291a8767eb60f9db00763b58"),
    "dp":
        ("689fa497b3e39f438b4294f2c3812bdda6665f5cc33f3f30b9f6a0ade947260c",
         "ed2add6eee46d0c23bfda05b4dc5f87fc88f319894f8c683dc787c5eacdee293"),
    "sp":
        ("d3f19db9917073d8780153d91d21ee0b2dd6f4d17779dab377a575ca816c63a9",
         "5f5a2b9e1db135eea106316091daa2de50c882d796d3490bc407fefd4b4d89d8"),
    "tp":
        ("7961a33475288e740444ba68cce0a398adcc60d89f45092b9df95826b6b1c00a",
         "d1c3ace0f81ed82422da8e16da97862a5ce3d6f130de72b7b0a9c523434875af"),
    "pp":
        ("8c1de49676f8e77dca63004f657705de27873a12c0a9080410246b56bdc76b66",
         "580a64a137707a04ed77494af3b0e7dd1d156df3e4f58df171262e0111c00f20"),
}

GOLDEN_SWEEP_12 = (
    "272d1acb93b4b944a8a1bdc9208693faa5f509aa529d385d6cc152c787645da5")


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
        "pp": make_pp_plan(domain, spec, job, ids,
                           [(0, 1), (1, 3), (3, 5), (5, 6)]),
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
        got[kind] = (_sha(result), _sha(trace))
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


def test_pure_python_yaml_writes_the_same_bytes(tmp_path, monkeypatch):
    """Every command above again, through PyYAML's pure-Python loader and
    emitter, the path installs without libyaml take."""
    calls = {"load": 0, "dump": 0}

    class Loader(yaml.SafeLoader):
        def __init__(self, stream):
            calls["load"] += 1
            super().__init__(stream)

    class Dumper(yaml.SafeDumper):
        def __init__(self, *args, **kwargs):
            calls["dump"] += 1
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(config_io, "_Loader", Loader)
    monkeypatch.setattr(config_io, "_Dumper", Dumper)
    assert _testbed_digests(tmp_path) == (GOLDEN_PLAN, GOLDEN_SIMULATE,
                                          GOLDEN_FAULTS)
    assert _sweep_digests(tmp_path) == GOLDEN_SWEEP
    assert _per_link_digests(tmp_path) == GOLDEN_PER_LINK
    assert calls["load"] > 0 and calls["dump"] > 0
