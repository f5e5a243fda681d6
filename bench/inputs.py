"""Seeded inputs and operation lists for the `plan`, `sweep` and `replay` workloads.

Every input is a file or a flag list made from the workload seed; the program
under test only ever sees these.  Draws are stratified (each of k values
falls in its own 1/k slice of the range) so that one run covers every range
end to end, whatever the seed.  Replay MTBFs keep a fixed slice per plan cell,
so that runs on different seeds do comparable amounts of host work.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import yaml

from checks import check_faults, check_plan, check_simulate, check_sweep

PROFILES = ("nano", "tx2", "nx")
MODELS = ("distilbert", "gpt2-s", "opt-350m", "gpt2-l")
# 6-device plan requests for opt-350m and gpt2-l take 2-3.5 s each and would
# leave a run room for too few passes.
SIX_DEVICE_MODELS = ("distilbert", "gpt2-s")
TESTBEDS = ("homogeneous-nano4", "heterogeneous-mix4")
OBJECTIVES = (("energy", ()), ("latency", ("--objective", "latency")),
              ("weighted", ("--objective", "weighted",
                            "--weight-latency", "10")))
LINK_BPS = (10e6, 1e9)           # per-link tables: 10 Mbps .. 1 Gbps
LINK_LATENCY_S = 1e-4            # the preset per-hop latency
MTBF_S = (40.0, 86400.0)         # 40 s .. 1 day, as in the README and CLI tests
README_MTBF_S = (600.0, 86400.0)  # README flow: planned at 1 day, replayed shorter
SIM_ITERATIONS = 1000
FAULT_ITERATIONS = 200

# Per-operation host-time limits.  Fault replay does not terminate when the
# system MTBF is far below the reload time, so `faults` gets a tight limit.
LIMIT_S = {"plan": 60.0, "sweep": 10.0, "simulate": 10.0, "faults": 1.0}


@dataclass
class Op:
    """One CLI command: `argv` for `cli.main`, its output files and checker."""
    name: str
    command: str
    argv: list[str]
    outputs: list[Path]
    check: Callable[["Op"], tuple[str | None, int]]
    context: dict = field(default_factory=dict)

    @property
    def limit_s(self) -> float:
        return LIMIT_S[self.command]


def _stratified(rng: random.Random, lo: float, hi: float, k: int) -> list[float]:
    """k log-uniform draws on [lo, hi), the i-th in the i-th equal slice of
    log space."""
    span = math.log(hi) - math.log(lo)
    return [math.exp(math.log(lo) + (i + rng.random()) / k * span)
            for i in range(k)]


class _Inputs:
    def __init__(self, workload: str, seed: int, workdir: Path):
        self.rng = random.Random(f"{workload}:{seed}")
        self.indir = workdir / "in"
        self.outdir = workdir / "out"
        self.indir.mkdir(parents=True)
        self.outdir.mkdir(parents=True)
        self.pools = 0

    def pool(self, n: int, per_link: bool) -> list[str]:
        """Domain flags for a pool of n devices of the PROFILES kinds.

        The kinds come round-robin from a random start, in random order, so
        pools of one size have near-equal mixes and the planner's search
        costs about the same on every seed.  Uniform pools are ad-hoc
        `--devices` lists on the preset 1 Gbps network; per-link pools are
        `--domain` YAML files with a bandwidth for every pair.
        """
        from edgetrainsim.devices import DEVICE_PROFILE_FACTORIES
        start = self.rng.randrange(len(PROFILES))
        kinds = [PROFILES[(start + i) % len(PROFILES)] for i in range(n)]
        self.rng.shuffle(kinds)
        self.pools += 1
        if not per_link:
            return ["--devices", ",".join(kinds)]
        ids = [f"{k}-{kinds[:i].count(k)}" for i, k in enumerate(kinds)]
        devices = [_device_dict(DEVICE_PROFILE_FACTORIES[k](i))
                   for k, i in zip(kinds, ids)]
        pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]]
        bandwidths = _stratified(self.rng, *LINK_BPS, len(pairs))
        self.rng.shuffle(bandwidths)
        links = [{"a": a, "b": b, "bandwidth_bps": bw,
                  "latency_s": LINK_LATENCY_S}
                 for (a, b), bw in zip(pairs, bandwidths)]
        data = {"schema_version": 1, "name": f"pool{self.pools}",
                "devices": devices,
                "network": {"default_bandwidth_bps": 1e9,
                            "default_latency_s": LINK_LATENCY_S,
                            "links": links}}
        path = self.indir / f"pool{self.pools}.yaml"
        path.write_text(yaml.safe_dump(data, sort_keys=True))
        return ["--domain", str(path)]


def _device_dict(d) -> dict:
    return {"id": d.id, "cpu_throughput_flops": d.cpu_throughput,
            "gpu_throughput_flops": d.gpu_throughput,
            "mem_capacity_bytes": d.mem_capacity,
            "usable_mem_fraction": d.usable_mem_fraction,
            "power_idle_w": d.power_idle, "power_cpu_busy_w": d.power_cpu_busy,
            "power_gpu_busy_w": d.power_gpu_busy, "power_net_w": d.power_net}


def plan_ops(seed: int, workdir: Path, tiny: bool = False) -> list[Op]:
    """One pass of `plan` requests.

    Per model and network kind (uniform / per-link): two 4-device and two
    12-device pools (the latter take the greedy pipeline order) under all
    three objectives, and the first 4-device pool once more with
    --select-devices.  Each model also gets one 5-device request, and the
    SIX_DEVICE_MODELS one 6-device request each, on the network kind
    opposite to their 5-device one.
    """
    inp = _Inputs("plan", seed, workdir)
    ops: list[Op] = []

    def add(tag, flags, model, extra):
        out = inp.outdir / f"{tag}.yaml"
        ops.append(Op(tag, "plan", ["plan", *flags, "--model", model, *extra,
                                    "--out", str(out)], [out], check_plan))

    models = MODELS[:1] if tiny else MODELS
    objectives = OBJECTIVES[:1] if tiny else OBJECTIVES
    for mi, model in enumerate(models):
        for ti, per_link in enumerate((False, True)):
            net = "link" if per_link else "uni"
            for n in (4, 12):
                for r in range(1 if tiny else 2):
                    flags = inp.pool(n, per_link)
                    for obj, extra in objectives:
                        add(f"{model}-{net}-n{n}-{r}-{obj}", flags, model, extra)
                    if n == 4 and r == 0:
                        obj, extra = OBJECTIVES[(mi + ti) % 3]
                        add(f"{model}-{net}-n4-{r}-select-{obj}", flags, model,
                            (*extra, "--select-devices"))
        if tiny:
            continue
        for n, per_link in ((5, mi % 2 == 1), (6, mi % 2 == 0)):
            if n == 6 and model not in SIX_DEVICE_MODELS:
                continue
            net = "link" if per_link else "uni"
            flags = inp.pool(n, per_link)
            obj, extra = OBJECTIVES[(mi + n) % 3]
            add(f"{model}-{net}-n{n}-{obj}", flags, model, extra)
    return ops


def sweep_ops(seed: int, workdir: Path, tiny: bool = False) -> list[Op]:
    """One pass of `sweep` commands: both testbeds, then 13 pools of each of
    4, 6, 8 and 12 devices on each network kind."""
    inp = _Inputs("sweep", seed, workdir)
    domains = [(tb, ["--testbed", tb]) for tb in TESTBEDS[:1 if tiny else 2]]
    for n in (4,) if tiny else (4, 6, 8, 12):
        for per_link in (True,) if tiny else (False, True):
            for r in range(1 if tiny else 13):
                flags = inp.pool(n, per_link)
                domains.append((f"n{n}-{'link' if per_link else 'uni'}-{r}",
                                flags))
    ops = []
    for tag, flags in domains:
        out = inp.outdir / f"{tag}.tsv"
        ops.append(Op(tag, "sweep", ["sweep", *flags, "--out", str(out)],
                      [out], check_sweep))
    return ops


def replay_ops(seed: int, workdir: Path, cli, tiny: bool = False) -> list[Op]:
    """Stored plans and one pass of `simulate --trace` and `faults` replays.

    Set-up plans every model on two 4-device and two 12-device pools of each
    network kind with `plan --mtbf X`, X stratified log-uniform over MTBF_S,
    and replays each at the same X.  Two plans follow the README flow
    instead: planned at the default one-day MTBF, replayed at a shorter one.
    Every plan gets one `simulate --trace` replay, and `faults` replays
    with seeds drawn here: three on 12-device plans, one on the others.
    Commands then fall into three groups of host time: fault replays on four
    devices, 4-device simulations with 12-device fault replays, and 12-device
    simulations.  The first and last groups are about the same size, so the
    median command lies inside the middle group, not at one of its edges.
    """
    inp = _Inputs("replay", seed, workdir)
    cells = [(model, n, per_link, r) for model in MODELS[:1 if tiny else 4]
             for n in ((4,) if tiny else (4, 12))
             for per_link in (False, True) for r in range(1 if tiny else 2)]
    # Cell i takes MTBF slice 5i mod k, which spreads every model and pool
    # kind over the range.
    mtbfs = _stratified(inp.rng, *MTBF_S, len(cells))
    plans = []  # (tag, plan flags, replay mtbf, faults replays)
    for i, (model, n, per_link, r) in enumerate(cells):
        mtbf = mtbfs[5 * i % len(cells)]
        flags = inp.pool(n, per_link)
        tag = f"{model}-{'link' if per_link else 'uni'}-n{n}-{r}"
        plans.append((tag, [*flags, "--model", model, "--mtbf", repr(mtbf)],
                      mtbf, 3 if n == 12 and not tiny else 1))
    readme = _stratified(inp.rng, *README_MTBF_S, 2)
    for tb, mtbf in zip(TESTBEDS[:1 if tiny else 2], readme):
        model = "gpt2-s" if tb == TESTBEDS[0] else inp.rng.choice(MODELS)
        plans.append((f"readme-{tb}-{model}",
                      ["--testbed", tb, "--model", model], mtbf, 1))

    sim_iters = 50 if tiny else SIM_ITERATIONS
    fault_iters = 50 if tiny else FAULT_ITERATIONS
    ops = []
    for tag, flags, mtbf, replays in plans:
        plan = inp.indir / f"{tag}.plan.yaml"
        _run_setup_command(cli, ["plan", *flags, "--out", str(plan)])
        result, trace = (inp.outdir / f"{tag}.result.yaml",
                         inp.outdir / f"{tag}.trace.tsv")
        ops.append(Op(f"{tag}-simulate", "simulate",
                      ["simulate", "--plan", str(plan), "--iterations",
                       str(sim_iters), "--trace", str(trace),
                       "--out", str(result)],
                      [result, trace], check_simulate,
                      {"plan": plan, "iterations": sim_iters}))
        for r in range(replays):
            report = inp.outdir / f"{tag}.faults{r}.yaml"
            ops.append(Op(f"{tag}-faults{r}", "faults",
                          ["faults", "--plan", str(plan), "--mtbf", repr(mtbf),
                           "--seed", str(inp.rng.randrange(2 ** 31)),
                           "--iterations", str(fault_iters),
                           "--out", str(report)],
                          [report], check_faults,
                          {"plan": plan, "iterations": fault_iters}))
    return ops


def _run_setup_command(cli, argv: list[str]) -> None:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"set-up command {' '.join(argv)} exited {code}: "
                           f"{buf.getvalue().strip()}")
