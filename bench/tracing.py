"""Per-layer tracing from outside the program.

`Tracer.install()` replaces each traced function with a wrapper on every
`edgetrainsim` namespace that holds it (the home module and each module that
imported the name), and each traced method on its class; `uninstall()` puts
the originals back.  A wrapper counts calls and accumulates self time: its
host-time duration (unscaled) minus that of the traced calls made inside
it.  Counts stay in memory as totals per layer; no per-call spans are kept.
"""

from __future__ import annotations

import sys
from time import perf_counter

# metric prefix -> functions (module, attribute path) summed into it
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "cli.plan": (("cli", "cmd_plan"),),
    "cli.sweep": (("cli", "cmd_sweep"),),
    "cli.simulate": (("cli", "cmd_simulate"),),
    "cli.faults": (("cli", "cmd_faults"),),
    "config_io.parse_yaml": (("config_io", "parse_yaml"),),
    "config_io.dump_yaml": (("config_io", "dump_yaml"),),
    "config_io.domain_from_dict": (("config_io", "domain_from_dict"),),
    "config_io.plan_from_dict": (("config_io", "plan_from_dict"),),
    "config_io.plan_to_dict": (("config_io", "plan_to_dict"),),
    "config_io.result_to_dict": (("config_io", "result_to_dict"),),
    "scheduler.orchestrate": (("scheduler", "orchestrate"),),
    "scheduler.select_devices": (("scheduler", "select_devices"),),
    "scheduler.choose_parallelism": (("scheduler", "choose_parallelism"),),
    "scheduler.candidate_plans": (("scheduler", "candidate_plans"),),
    "scheduler.arrange_topology": (("scheduler", "arrange_topology"),),
    "scheduler.partition_stages": (("scheduler", "partition_stages"),),
    "scheduler.plan_checkpointing": (("scheduler", "plan_checkpointing"),),
    "simengine.simulate": (("simengine", "simulate"),),
    "simengine.iteration_times": (("simengine", "iteration_times"),),
    "simengine.collective_time": (("simengine", "collective_time"),),
    "simengine.write_trace": (("simengine", "write_trace"),),
    "simengine.inject_faults": (("simengine", "inject_faults"),),
    "parallelism.check_memory": (("parallelism", "check_memory"),),
    "parallelism.make_plan": tuple(
        ("parallelism", f"make_{k}_plan") for k in ("single", "dp", "sp",
                                                   "tp", "pp")),
    "devices.NetworkModel.link_between": (("devices",
                                           "NetworkModel.link_between"),),
    "devices.TrustedDomain.device": (("devices", "TrustedDomain.device"),),
    "workload.cost_fns": tuple(
        ("workload", f) for f in ("flops_per_iteration", "state_bytes",
                                  "activation_bytes_per_block")),
}
# `simulate(record_trace=True)` is reported as its own layer.
SIMULATE_TRACED = "simengine.simulate_traced"
PER_PLAN = {"scheduler.simulate_calls_per_plan":
            ("simengine.simulate", SIMULATE_TRACED),
            "scheduler.partition_stages_calls_per_plan":
            ("scheduler.partition_stages",),
            "scheduler.subsets_per_plan": ("scheduler.choose_parallelism",)}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    units = {}
    for layer in (*LAYERS, SIMULATE_TRACED):
        if not layer.startswith("cli."):
            units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_ms"] = "ms"
    units["scheduler.partition_stages.infeasible_share"] = "ratio"
    units["simengine.simulate.oom_share"] = "ratio"
    units["simengine.inject_faults.events"] = "count"
    units["simengine.inject_faults.failures"] = "count"
    units.update({name: "count" for name in PER_PLAN})
    return units


class _Stat:
    __slots__ = ("calls", "self_s", "flagged", "in_plan")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.flagged = 0      # infeasible stage splits / out-of-memory results
        self.in_plan = 0      # calls made while a `plan` orchestration runs


class Tracer:
    def __init__(self):
        self.stats = {name: _Stat() for name in (*LAYERS, SIMULATE_TRACED)}
        self.fault_events = 0
        self.fault_failures = 0
        self.wrapper_calls: dict[tuple[str, str], int] = {}
        self.patched: list[tuple[object, str, object]] = []
        self._children: list[float] = []   # child time of each open call
        self._open_plans = 0
        self._infeasible: type = Exception

    # ---------------------------------------------------------- install
    def install(self) -> None:
        from edgetrainsim.scheduler import InfeasibleError
        self._infeasible = InfeasibleError
        observers = {"scheduler.partition_stages": self._observe_partition,
                     "simengine.simulate": self._observe_simulate,
                     "simengine.inject_faults": self._observe_faults}
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "edgetrainsim" or name.startswith("edgetrainsim.")]
        for layer, targets in LAYERS.items():
            for module, path in targets:
                home = sys.modules[f"edgetrainsim.{module}"]
                observe = observers.get(layer)
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(home, cls_name)
                    self._patch(cls, attr, self._wrap(
                        layer, (module, path), cls.__dict__[attr], observe))
                    continue
                original = getattr(home, path)
                wrapper = self._wrap(layer, (module, path), original, observe)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, name, wrapper)

    def uninstall(self) -> None:
        while self.patched:
            owner, name, original = self.patched.pop()
            setattr(owner, name, original)

    def end_op(self) -> None:
        """Drop call frames a timed-out command left open."""
        self._children.clear()
        self._open_plans = 0

    def _patch(self, owner, name, wrapper) -> None:
        self.patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    # ---------------------------------------------------------- wrappers
    def _wrap(self, layer, key, fn, observe):
        stats, children = self.stats, self._children
        self.wrapper_calls.setdefault(key, 0)
        is_plan = layer == "scheduler.orchestrate"
        is_simulate = layer == "simengine.simulate"

        def wrapper(*args, **kwargs):
            name = layer
            if is_simulate and (kwargs.get("record_trace")
                                or (len(args) > 5 and args[5])):
                name = SIMULATE_TRACED
            stat = stats[name]
            stat.calls += 1
            self.wrapper_calls[key] += 1
            if self._open_plans:
                stat.in_plan += 1
            if is_plan:
                self._open_plans += 1
            children.append(0.0)
            t0 = perf_counter()
            raised = None
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                raised = exc
                raise
            finally:
                dt = perf_counter() - t0
                stat.self_s += dt - children.pop()
                if children:
                    children[-1] += dt
                if is_plan:
                    self._open_plans -= 1
                if observe is not None:
                    observe(stat, None if raised else result, raised)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _observe_partition(self, stat, result, raised):
        if isinstance(raised, self._infeasible):
            stat.flagged += 1

    @staticmethod
    def _observe_simulate(stat, result, raised):
        if result is not None and result.oom:
            stat.flagged += 1

    def _observe_faults(self, stat, report, raised):
        if report is not None:
            self.fault_events += (report.executed_iterations + report.failures
                                  + report.checkpoint_writes)
            self.fault_failures += report.failures

    # ---------------------------------------------------------- results
    def counts(self) -> dict[str, float]:
        """Exact per-layer figures: they repeat on every run of the same inputs."""
        out = {}
        for layer, st in self.stats.items():
            if not layer.startswith("cli."):
                out[f"{layer}.calls"] = st.calls
        part = self.stats["scheduler.partition_stages"]
        out["scheduler.partition_stages.infeasible_share"] = (
            part.flagged / part.calls if part.calls else 0.0)
        sim = self.stats["simengine.simulate"]
        out["simengine.simulate.oom_share"] = (
            sim.flagged / sim.calls if sim.calls else 0.0)
        out["simengine.inject_faults.events"] = self.fault_events
        out["simengine.inject_faults.failures"] = self.fault_failures
        plans = self.stats["scheduler.orchestrate"].calls
        for name, layers in PER_PLAN.items():
            inside = sum(self.stats[l].in_plan for l in layers)
            out[name] = inside / plans if plans else 0.0
        return out

    def self_ms(self) -> dict[str, float]:
        return {f"{layer}.self_ms": st.self_s * 1e3
                for layer, st in self.stats.items()}
