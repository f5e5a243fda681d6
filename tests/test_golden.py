"""Byte-stability of the command-line outputs.

Each digest below is the sha256 of one output file.  The digests were
recorded once and are never edited: a refactor that changes any output byte,
even in the last digit of a float, fails here.  The hand-built plans run on a
domain whose links all differ (10 Mbps to 1 Gbps) with a batch of 96 (twelve
micro-batches), so a change in the order of floating-point additions in the
communication accounting shows up in the result YAML.
"""

import hashlib

import pytest

from edgetrainsim import config_io
from edgetrainsim.cli import main
from edgetrainsim.devices import (Link, NetworkModel, TrustedDomain,
                                  jetson_nano, jetson_nx, jetson_tx2)
from edgetrainsim.parallelism import (make_dp_plan, make_pp_plan,
                                      make_single_plan, make_sp_plan,
                                      make_tp_plan)
from edgetrainsim.workload import default_edge_job, model_preset

TESTBEDS = ("homogeneous-nano4", "heterogeneous-mix4")
MODELS = ("distilbert", "gpt2-s", "opt-350m", "gpt2-l")

GOLDEN_PLAN = {
    "homogeneous-nano4/distilbert":
        "e23fb8805e93ffcc2c4e23a6bca57df8a90389ecd14f0835968e587b0454ab8e",
    "homogeneous-nano4/gpt2-s":
        "a8db2bac6bd2d1fb969f871c2dba27b7afcd95c24671b091970778849162a208",
    "homogeneous-nano4/opt-350m":
        "9958594376734ad7dfdc533ba90ebf734e0ac048c647e3186fa8f57fc5f7ee77",
    "homogeneous-nano4/gpt2-l":
        "e461fb9257ad22de5bb9b54fd7a65ec5f4a3a39b3c517056b7812a317c476446",
    "heterogeneous-mix4/distilbert":
        "71eb7bab78fa593a06b36a7857175a4543275c40dcc1bf128266ae2800ac26be",
    "heterogeneous-mix4/gpt2-s":
        "d0a57aa3d4b28570c137b2172a754d14bb3697eb5b4bca11b5ec4199a9de61ec",
    "heterogeneous-mix4/opt-350m":
        "93aae6fb09036e7580e078a4d3d8014ca4ce10aa9c9c3790e3fcf1749af083ee",
    "heterogeneous-mix4/gpt2-l":
        "029a42606019ad09f7883e42e611709193792df0fa4247e38dffa78ee739cb51",
}

GOLDEN_SIMULATE = {
    "homogeneous-nano4/distilbert":
        ("70ef6b69c43b444e6113477ff5e2558b11e7f3f091cf89866b2378446cf34df5",
         "8ee275fbabf81108c09ae69fb69040df16099b9324c7b62ecb44b1be48c01553"),
    "homogeneous-nano4/gpt2-s":
        ("1b3770108c5550288b7f61bda3430a241b3a56671411ac858d215bcbd1c2cdc9",
         "a95d9c6ad265f21bc63bac3d85bfdfd52013792d6cf065d1aa03fb6aa33a09f4"),
    "homogeneous-nano4/opt-350m":
        ("424b5546a7d4443c4857caad23b7176f20173bd07a9a24853a32b778e397ce6d",
         "35e8e9599a84289a04455c80726dd08f35ea47be6004cf54f85a3055c880d56a"),
    "homogeneous-nano4/gpt2-l":
        ("26fce3725c5a4901543c37a8437468640158233d42d148192d1ff5b93af44962",
         "8dc0316eaf657e82f2784dc589f44cc61a596d65a9d3aada285ccd102c56f2c5"),
    "heterogeneous-mix4/distilbert":
        ("46ff3a9424f26d6425e0ed4d6577d182a7450c952a8a921254b09e2cc40641a9",
         "3e932f8f6a31afcaca53111839e3cebbb3a21122410f56345daa1eec1cb22c39"),
    "heterogeneous-mix4/gpt2-s":
        ("dba3823b0ea3cc3e5d8cb0d0105d06a6cee27ae72a2449983ccf3e179c2e07d2",
         "f6e6b310b1d763d5b048927e10a9a299565fd45cc5d238a179f4c8df5268316f"),
    "heterogeneous-mix4/opt-350m":
        ("9c3e491e1e1aff419a75aa5e6706c33f7b422c57f5b0d5986be8a608570c0cd4",
         "49b9eb59f844cf2e046df1fe613ca4e1fa7f86db4ef33b814634653d29eaa720"),
    "heterogeneous-mix4/gpt2-l":
        ("52d51434f9f9494aff4cd8978847ca1f6434bb90c6608c71dc6e878d4c467cdb",
         "ab8563f02340f78bea9bfb7f0595f67054812625ad2e673b554ded3da5a03a7b"),
}

GOLDEN_FAULTS = {
    "homogeneous-nano4/distilbert":
        "e0a87ce98f43aeb9d8b5112927d5d5ad8682d5b32f6c491f83def93242e0310c",
    "homogeneous-nano4/gpt2-s":
        "90868ca56f6a6edb59b84289dcca64b42f81cbac008e57cce3e8094a67b54ddf",
    "homogeneous-nano4/opt-350m":
        "284f0487e0fc9bacbbbcb074a5ac056c49c6bcd4b6d7ada6c802590a5e971b6b",
    "homogeneous-nano4/gpt2-l":
        "e153502f13a1ec3699a2ccbdd2d883d07076a64657b960567566f22a0fb66a0e",
    "heterogeneous-mix4/distilbert":
        "8eca58a3ff8b1c35660716845291a46140d6c04926c864483cdd9e7696e857c4",
    "heterogeneous-mix4/gpt2-s":
        "e72d6270455281b43483f4ab6f381048f2b915cb8ebd79955be0d2b89202593e",
    "heterogeneous-mix4/opt-350m":
        "fe050ef7ada99067bf73e69291a9f75a5db86787ffc38f876a9a5b9822702312",
    "heterogeneous-mix4/gpt2-l":
        "4a0077dc6202272c3bee71b3f56030c31b40f81fb9355517e5bf9d604afb646e",
}

GOLDEN_SWEEP = {
    "homogeneous-nano4":
        "64f25a637857e5137b12c6a87f35a1b4609ff879120346aaf997e9ae728f8a19",
    "heterogeneous-mix4":
        "5da852569ea6dcb9d3156ccd2212c5f077154adcde61742232045ef7743d0fdb",
}

GOLDEN_PER_LINK = {
    "plan":
        "7d312b536321a4801058c9460cc574bab8684de14b9c2af509aa244c31e31de0",
    "single":
        ("6e21bfd8dd567a068ee1260489232f04f4979e728e8eb86a9b70c73bc5ccf92c",
         "ccc684da119abc7efe33c24428df8957a020d164291a8767eb60f9db00763b58"),
    "dp":
        ("ac5a60d26fc3442f13cf4e858eb47cdea0ce424731e8f0c0a56aab9cebe58ce7",
         "78fd50673b95f44220b1bd2893535f8d972342b1ec26f1904d697d58af5af8d3"),
    "sp":
        ("9fe9f93ecaff8a67f0e38b43f601b73f445ad6d045e6936724d2c64a51f5a2d0",
         "c5ff3b2d1e67acd3a3bb8fe5799b3f93309356db27dd5037a9b525d38497071a"),
    "tp":
        ("665541e1ba4a1c571adfd7ce80b5217db07fb88af0e97e5718a17b5f5dd60eeb",
         "d1c3ace0f81ed82422da8e16da97862a5ce3d6f130de72b7b0a9c523434875af"),
    "pp":
        ("23a18db6da08df063d38f30a94215c1fec03d9efd159ac34569135cf31d1da11",
         "580a64a137707a04ed77494af3b0e7dd1d156df3e4f58df171262e0111c00f20"),
}


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


def test_hand_built_plans_on_per_link_domain(tmp_path):
    assert _per_link_digests(tmp_path) == GOLDEN_PER_LINK
