"""Output checks, run outside the timed interval.

Each checker takes an `inputs.Op` whose command has finished and returns
``(problem, events)``: a one-line description of the first violated
invariant (None when every check holds) and the number of simulated events
the output reports (0 where the command simulates no run).  Invariants are
recomputed here from the output files, not taken from the program.
"""

from __future__ import annotations

import itertools

import yaml

REL_TOL = 1e-9
SWEEP_HEADER = ("model\tkind\tmode\ttestbed\tlatency_per_sample_s\t"
                "energy_per_sample_j\toom\tcomm_bytes_per_iter")
SWEEP_MODELS = ("distilbert", "gpt2-s", "opt-350m", "gpt2-l")
SWEEP_KINDS = ("single", "dp", "sp", "tp", "pp")
SWEEP_MODES = ("cpu", "gpu")

_Loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_yaml(path) -> dict:
    with open(path) as fh:
        return yaml.load(fh, Loader=_Loader)


def _close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(scale), 1e-30)


def _busy_power(dev: dict, mode: str) -> float:
    """Power while computing, on the unit the mode computes with."""
    gpu, cpu = dev["gpu_throughput_flops"], dev["cpu_throughput_flops"]
    if mode == "gpu" and gpu >= cpu and gpu > 0:
        return dev["power_gpu_busy_w"]
    return dev["power_cpu_busy_w"]


def result_problem(result: dict, plan: dict, iterations: int) -> str | None:
    """Timing closure, idle >= 0, three-state energy, per-sample figures and
    memory fit for one simulation result against the plan it ran."""
    if result.get("oom"):
        return f"result is out of memory on {result.get('oom_devices')}"
    if result["iterations_simulated"] != iterations:
        return (f"simulated {result['iterations_simulated']} iterations, "
                f"asked for {iterations}")
    samples = iterations * plan["job"]["global_batch"]
    if result["samples_processed"] != samples:
        return f"samples_processed {result['samples_processed']} != {samples}"
    makespan = result["makespan_s"]
    mode = plan["domain"].get("mode", "gpu")
    devices = {d["id"]: d for d in plan["domain"]["devices"]}
    if set(result["per_device"]) != set(plan["participants"]):
        return "per-device entries differ from the plan participants"
    total_energy = 0.0
    for dev_id, u in sorted(result["per_device"].items()):
        dev = devices[dev_id]
        busy = u["compute_time_s"] + u["comm_time_s"] + u["idle_time_s"]
        if not _close(busy, makespan, makespan):
            return (f"{dev_id}: compute + comm + idle = {busy!r} != makespan "
                    f"{makespan!r}")
        if u["idle_time_s"] < -REL_TOL * makespan:
            return f"{dev_id}: idle time {u['idle_time_s']!r} < 0"
        energy = (dev["power_idle_w"] * makespan
                  + (_busy_power(dev, mode) - dev["power_idle_w"])
                  * u["compute_time_s"]
                  + dev["power_net_w"] * u["comm_time_s"])
        if not _close(u["energy_j"], energy, energy):
            return f"{dev_id}: energy {u['energy_j']!r} != model {energy!r}"
        usable = dev["mem_capacity_bytes"] * dev["usable_mem_fraction"]
        if u["peak_mem_bytes"] > usable:
            return (f"{dev_id}: needs {u['peak_mem_bytes']:.4g} B, "
                    f"usable {usable:.4g} B")
        total_energy += u["energy_j"]
    if not _close(result["latency_per_sample_s"], makespan / samples,
                  makespan / samples):
        return "latency_per_sample != makespan / samples"
    if not _close(result["energy_per_sample_j"], total_energy / samples,
                  total_energy / samples):
        return "energy_per_sample != total energy / samples"
    return None


def stage_problem(plan: dict) -> str | None:
    """Pipeline stages run on the participants in order and tile [0, L)."""
    if plan["kind"] != "pp":
        return None
    stages = plan["partition"]["stages"]
    if [s["device"] for s in stages] != list(plan["participants"]):
        return "pipeline stage devices differ from the participant order"
    start = 0
    for s in stages:
        if s["start"] != start or s["end"] <= s["start"]:
            return f"pipeline stages do not tile the blocks: {stages}"
        start = s["end"]
    if start != plan["model"]["num_blocks"]:
        return f"pipeline stages end at {start}, model has " \
               f"{plan['model']['num_blocks']} blocks"
    return None


def check_plan(op) -> tuple[str | None, int]:
    """A plan's predicted result, re-simulated in full, must satisfy the
    result invariants and match the prediction written into the plan."""
    from edgetrainsim import config_io, simengine
    data = load_yaml(op.outputs[0])
    plan, domain, _ = config_io.plan_from_dict(data)
    sim = simengine.simulate(plan, domain)
    result = config_io.result_to_dict(sim)
    problem = stage_problem(data) or result_problem(
        result, data, sim.iterations_simulated)
    if problem:
        return problem, 0
    predicted = data.get("predicted", {})
    for key in ("latency_per_sample_s", "energy_per_sample_j"):
        if key not in predicted or not _close(predicted[key], result[key],
                                              result[key]):
            return f"predicted {key} {predicted.get(key)!r} != simulated " \
                   f"{result[key]!r}", 0
    return None, 0


def _plan_data(op) -> dict:
    if "plan_data" not in op.context:
        op.context["plan_data"] = load_yaml(op.context["plan"])
    return op.context["plan_data"]


def check_simulate(op) -> tuple[str | None, int]:
    result_path, trace_path = op.outputs
    result = load_yaml(result_path)
    plan = _plan_data(op)
    problem = stage_problem(plan) or result_problem(
        result, plan, op.context["iterations"])
    with open(trace_path) as fh:
        if fh.readline() != "time\tdevice\tkind\tduration\tbytes\n":
            problem = problem or "trace table header is wrong"
    return problem, result["iterations_simulated"]


def check_faults(op) -> tuple[str | None, int]:
    rep = load_yaml(op.outputs[0])
    events = (rep["executed_iterations"] + rep["failures"]
              + rep["checkpoint_writes"])
    for key in ("rework_time_s", "reload_time_s", "checkpoint_time_s"):
        if rep[key] < 0:
            return f"{key} {rep[key]!r} < 0", events
    iterations = op.context["iterations"]
    if rep["completed_iterations"] != iterations:
        return (f"completed {rep['completed_iterations']} iterations, asked "
                f"for {iterations}"), events
    samples = iterations * _plan_data(op)["job"]["global_batch"]
    fault_free = samples / rep["fault_free_throughput_samples_per_s"]
    if rep["wall_time_s"] < fault_free * (1 - REL_TOL):
        return (f"wall time {rep['wall_time_s']!r} < fault-free makespan "
                f"{fault_free!r}"), events
    return None, events


def check_sweep(op) -> tuple[str | None, int]:
    """One row per model x kind x mode, with figures for every feasible row."""
    lines = op.outputs[0].read_text().splitlines()
    if not lines or lines[0] != SWEEP_HEADER:
        return "sweep table header is wrong", 0
    rows = [line.split("\t") for line in lines[1:]]
    cells = sorted((r[0], r[1], r[2]) for r in rows)
    expected = sorted(itertools.product(SWEEP_MODELS, SWEEP_KINDS, SWEEP_MODES))
    if cells != expected:
        return f"sweep has {len(rows)} rows, not one per model x kind x mode", 0
    for r in rows:
        if r[6] == "false" and not (float(r[4]) > 0 and float(r[5]) > 0):
            return f"feasible row {r[:3]} lacks positive latency/energy", 0
    return None, 0
