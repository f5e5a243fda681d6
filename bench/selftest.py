"""Fast self-test of the benchmark harness on tiny inputs.

    python3 bench/selftest.py

Checks that every end-to-end metric of BENCHMARK.json is emitted with its
unit on every workload, and every per-layer metric in traced runs; that the
tracer wraps each traced function on every namespace holding it and that
each wrapper intercepts at least one call; and that two runs give identical
output digests, identical attempted and failed counts and identical exact
per-layer counts.  Exits 1 on a failure.
"""

from __future__ import annotations

import json
import sys

import run
from tracing import Tracer

TIMED = "tracing.overhead_share"


def _digest(out) -> str:
    return next(line for line in out["lines"] if line.startswith("digest "))


def _metric_units(out) -> dict[str, str]:
    return {k: v["unit"] for k, v in out["result"]["metrics"].items()}


def check_namespaces(problems: list[str]) -> None:
    """Each traced function is replaced on every module that holds it."""
    run.import_program()
    tracer = Tracer()
    tracer.install()
    try:
        originals = {id(orig): name for _, name, orig in tracer.patched}
        modules = {n: m for n, m in sys.modules.items()
                   if n == "edgetrainsim" or n.startswith("edgetrainsim.")}
        for mod_name, mod in sorted(modules.items()):
            for name, value in vars(mod).items():
                if id(value) in originals:
                    problems.append(f"{mod_name}.{name} is not wrapped")
        patched = {(getattr(owner, "__name__", ""), name)
                   for owner, name, _ in tracer.patched}
        for where in (("edgetrainsim.scheduler", "simulate"),
                      ("edgetrainsim.cli", "partition_stages"),
                      ("edgetrainsim.simengine", "simulate"),
                      ("TrustedDomain", "device")):
            if where not in patched:
                problems.append(f"{'.'.join(where)} is not wrapped")
    finally:
        tracer.uninstall()


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    sys.path.insert(0, str(run.SRC))
    problems: list[str] = []
    check_namespaces(problems)
    wrapper_calls: dict = {}
    for workload in run.WORKLOADS:
        plain = run.measure(workload, 0, 0.0, trace=False, tiny=True)
        if _metric_units(plain) != end_to_end:
            problems.append(f"{workload}: end-to-end metrics "
                            f"{_metric_units(plain)} != {end_to_end}")
        traced = [run.measure(workload, 0, 0.0, trace=True, tiny=True)
                  for _ in range(2)]
        for out in traced:
            if _metric_units(out) != per_layer:
                problems.append(f"{workload}: per-layer metric names or "
                                f"units differ from BENCHMARK.json")
            if not out["result"]["correct"]:
                problems.append(f"{workload}: traced run is not correct")
            for key, calls in out["wrapper_calls"].items():
                wrapper_calls[key] = wrapper_calls.get(key, 0) + calls
        counts = {(out["result"]["attempted"], out["result"]["failed"])
                  for out in traced}
        if len(counts) != 1:
            problems.append(f"{workload}: attempted and failed counts differ "
                            f"between two traced runs: {counts}")
        exact = [{k: v["value"] for k, v in out["result"]["metrics"].items()
                  if not k.endswith(".self_ms") and k != TIMED}
                 for out in traced]
        if exact[0] != exact[1]:
            problems.append(f"{workload}: exact per-layer counts differ "
                            f"between two traced runs")
        digests = {_digest(out) for out in (plain, *traced)}
        if len(digests) != 1:
            problems.append(f"{workload}: output digests differ: {digests}")
        print(f"{workload}: {plain['result']['attempted']} commands, "
              f"{_digest(plain)}")
    for (module, path), calls in sorted(wrapper_calls.items()):
        if calls == 0:
            problems.append(f"wrapper {module}.{path} intercepted no call")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
