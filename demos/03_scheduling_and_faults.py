"""Orchestrate a training job end to end, then stress it with failures.

Shows the scheduler choosing a parallelism for the heterogeneous testbed,
the Young checkpoint interval it plans, and how goodput degrades as the
per-device mean time between failures shrinks.

Run:  python3 demos/03_scheduling_and_faults.py
"""

from edgetrainsim.devices import FaultModel, testbed_preset
from edgetrainsim.scheduler import Objective, orchestrate, plan_checkpointing
from edgetrainsim.simengine import inject_faults, simulate
from edgetrainsim.workload import default_edge_job, model_preset

domain = testbed_preset("heterogeneous-mix4")
spec = model_preset("gpt2-s")
job = default_edge_job()

OBJECTIVES = {"energy": Objective(weight_energy=1.0, weight_latency=0.0),
              "latency": Objective(weight_energy=0.0, weight_latency=1.0)}

for target, objective in OBJECTIVES.items():
    strategy = orchestrate(domain, spec, job, objective)
    r = strategy.predicted
    print(f"{target}-optimal plan: {strategy.plan.kind} on "
          f"{', '.join(strategy.plan.participants)}")
    print(f"  predicted {r.latency_per_sample * 1e3:.2f} ms/sample, "
          f"{r.energy_per_sample:.3f} J/sample; checkpoint every "
          f"{strategy.checkpoint_interval:.0f} s")

# Fault injection: sweep the per-device MTBF and watch goodput fall.
strategy = orchestrate(domain, spec, job, OBJECTIVES["energy"])
plan = strategy.plan
fault_free = simulate(plan, domain, iterations=50)
print(f"\nfault-free throughput: "
      f"{fault_free.samples_processed / fault_free.makespan:.1f} samples/s")

print(f"{'MTBF/device':>12} {'failures':>9} {'goodput':>10} {'overhead':>9}")
for mtbf in (3600.0, 600.0, 120.0, 30.0):
    fm = FaultModel(mtbf_per_device=mtbf, checkpoint_write_bandwidth=50e6,
                    recovery_reload_bandwidth=50e6, rng_seed=0)
    interval = plan_checkpointing(plan, domain, fm)
    report = inject_faults(plan, domain, fm, interval, iterations=50)
    overhead = (report.rework_time + report.reload_time
                + report.checkpoint_time) / report.wall_time
    print(f"{mtbf:>11.0f}s {report.failures:>9} "
          f"{report.goodput_samples_per_s:>9.1f}/s {overhead:>8.1%}")
