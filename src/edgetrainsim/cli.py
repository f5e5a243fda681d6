"""Operator entry point: plan, simulate, sweep, faults, presets.

Exit codes: 0 success, 1 usage/config error, 2 valid-but-infeasible (OOM).

The default job matches the reference experiment grid (global batch 128,
sequence length 32, micro-batch 8, gradient sync every 5 iterations) and a
half-precision runtime (2-byte parameters, fp16 activations); every constant
can be overridden by flags.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import config_io
from .config_io import ConfigError
from .devices import (DEVICE_PROFILE_FACTORIES, FaultModel, TESTBED_PRESETS,
                      TrustedDomain, ValidationError, testbed_preset)
from .parallelism import (ALL_KINDS, KIND_SINGLE, PlanError, check_memory,
                          make_dp_plan, make_pp_plan, make_single_plan,
                          make_sp_plan, make_tp_plan)
from .scheduler import (InfeasibleError, Objective, orchestrate,
                        partition_stages)
from .simengine import (DEFAULT_ITERATIONS, inject_faults, simulate,
                        write_trace)
from .workload import MODEL_PRESETS, default_edge_job, model_preset

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2

SWEEP_KINDS = ALL_KINDS  # single, dp, sp, tp, pp
SWEEP_MODELS = ("distilbert", "gpt2-s", "opt-350m", "gpt2-l")


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _read_file(path: str, context: str) -> str:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"{context}: file not found: {path}")
    return p.read_text()


def _build_domain(args) -> TrustedDomain:
    mode = getattr(args, "mode", None)
    if getattr(args, "domain", None):
        domain = config_io.domain_from_dict(
            config_io.parse_yaml(_read_file(args.domain, "domain"), "domain"))
    elif getattr(args, "devices", None):
        profiles = []
        counters: dict[str, int] = {}
        for name in args.devices.split(","):
            name = name.strip().lower()
            if name not in DEVICE_PROFILE_FACTORIES:
                known = ", ".join(sorted(DEVICE_PROFILE_FACTORIES))
                raise ConfigError(f"unknown device profile {name!r} "
                                  f"(known: {known})")
            idx = counters.get(name, 0)
            counters[name] = idx + 1
            profiles.append(DEVICE_PROFILE_FACTORIES[name](f"{name}-{idx}"))
        domain = TrustedDomain(devices=tuple(profiles), name="adhoc")
    else:
        testbed = getattr(args, "testbed", None) or "homogeneous-nano4"
        try:
            domain = testbed_preset(testbed)
        except KeyError as exc:
            raise ConfigError(str(exc)) from exc
    if mode:
        domain = domain.with_mode(mode)
    return domain


def _build_spec(args):
    if getattr(args, "model_config", None):
        return config_io.model_from_dict(
            config_io.parse_yaml(_read_file(args.model_config, "model"), "model"))
    name = getattr(args, "model", None) or "gpt2-s"
    try:
        return model_preset(name)
    except KeyError as exc:
        raise ConfigError(str(exc)) from exc


def _build_job(args):
    overrides = {}
    for flag, key in (("batch_size", "global_batch"), ("seq_len", "seq_len"),
                      ("micro_batch", "micro_batch"),
                      ("sync_period", "dp_sync_period"),
                      ("param_bytes", "param_bytes"),
                      ("optimizer_multiplier", "optimizer_state_multiplier"),
                      ("activation_factor", "activation_bytes_factor")):
        value = getattr(args, flag, None)
        if value is not None:
            overrides[key] = value
    try:
        return default_edge_job(**overrides)
    except ValueError as exc:
        raise ConfigError(f"job: {exc}") from exc


def _build_objective(args) -> Objective:
    target = getattr(args, "objective", "energy")
    return Objective(target=target,
                     weight_energy=getattr(args, "weight_energy", 1.0),
                     weight_latency=getattr(args, "weight_latency", 0.0))


def _add_domain_flags(p):
    p.add_argument("--testbed", help="testbed preset name")
    p.add_argument("--domain", help="domain config YAML file")
    p.add_argument("--devices", help="comma-separated device profile names "
                                     "(nano, tx2, nx) for an ad-hoc domain")
    p.add_argument("--mode", choices=("cpu", "gpu"), help="execution mode")


def _add_job_flags(p):
    p.add_argument("--batch-size", type=int)
    p.add_argument("--seq-len", type=int)
    p.add_argument("--micro-batch", type=int)
    p.add_argument("--sync-period", type=int)
    p.add_argument("--param-bytes", type=float)
    p.add_argument("--optimizer-multiplier", type=float)
    p.add_argument("--activation-factor", type=float)


def _write_out(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_plan(args) -> int:
    domain = _build_domain(args)
    spec = _build_spec(args)
    job = _build_job(args)
    objective = _build_objective(args)
    fault_model = FaultModel(mtbf_per_device=args.mtbf,
                             checkpoint_write_bandwidth=args.ckpt_bandwidth,
                             recovery_reload_bandwidth=args.reload_bandwidth)
    try:
        strategy = orchestrate(domain, spec, job, objective,
                               fault_model=fault_model,
                               select=args.select_devices,
                               iterations=args.iterations)
    except InfeasibleError as exc:
        print(f"infeasible: {spec.name} does not fit this domain", file=sys.stderr)
        for kind, reason in sorted(exc.reasons.items()):
            print(f"  {kind}: {reason}", file=sys.stderr)
        return EXIT_INFEASIBLE
    data = config_io.plan_to_dict(strategy.plan, domain,
                                  strategy.checkpoint_interval,
                                  strategy.predicted)
    _write_out(config_io.dump_yaml(data), args.out)
    r = strategy.predicted
    print(f"plan: {strategy.plan.kind} on {len(strategy.plan.participants)} "
          f"device(s) [{', '.join(strategy.plan.participants)}]", file=sys.stderr)
    print(f"  latency {r.latency_per_sample * 1e3:.2f} ms/sample, "
          f"energy {r.energy_per_sample:.3f} J/sample, "
          f"checkpoint every {strategy.checkpoint_interval:.1f} s",
          file=sys.stderr)
    return EXIT_OK


def cmd_simulate(args) -> int:
    data = config_io.parse_yaml(_read_file(args.plan, "plan"), "plan")
    plan, domain, _ = config_io.plan_from_dict(data)
    result = simulate(plan, domain, iterations=args.iterations,
                      record_trace=args.trace is not None)
    if args.trace is not None:
        write_trace(result.trace, args.trace)
    _write_out(config_io.dump_yaml(config_io.result_to_dict(result)), args.out)
    if result.oom:
        print("simulation aborted: out of memory on "
              + ", ".join(result.oom_devices), file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


def _sweep_plan(kind: str, domain: TrustedDomain, spec, job):
    ids = domain.device_ids
    if kind == KIND_SINGLE:
        # Paper-style baseline: the least capable device (a Nano on the presets).
        from .devices import effective_throughput
        baseline = min(ids, key=lambda p: (
            effective_throughput(domain.device(p), domain.mode), p))
        return make_single_plan(domain, spec, job, baseline)
    if kind == "dp":
        return make_dp_plan(domain, spec, job, ids)
    if kind == "sp":
        return make_sp_plan(domain, spec, job, ids)
    if kind == "tp":
        return make_tp_plan(domain, spec, job, ids)
    if kind == "pp":
        ranges = partition_stages(domain, ids, spec, job)
        return make_pp_plan(domain, spec, job, ids, ranges)
    raise ConfigError(f"unknown kind {kind!r}")


def sweep_rows(domain: TrustedDomain, job, models=SWEEP_MODELS,
               modes=("cpu", "gpu"), iterations: int = DEFAULT_ITERATIONS):
    """One row per (model, kind, mode): the experiment grid of the sweeps."""
    rows = []
    for model_name in models:
        spec = model_preset(model_name)
        for kind in SWEEP_KINDS:
            for mode in modes:
                moded = domain.with_mode(mode)
                try:
                    plan = _sweep_plan(kind, moded, spec, job)
                except (PlanError, InfeasibleError):
                    rows.append({"model": model_name, "kind": kind, "mode": mode,
                                 "testbed": domain.name, "latency_per_sample_s": None,
                                 "energy_per_sample_j": None, "oom": True,
                                 "comm_bytes_per_iter": 0.0})
                    continue
                result = simulate(plan, moded, iterations=iterations)
                comm = (result.total_comm_bytes / iterations
                        if not result.oom else 0.0)
                rows.append({
                    "model": model_name, "kind": kind, "mode": mode,
                    "testbed": domain.name,
                    "latency_per_sample_s": result.latency_per_sample,
                    "energy_per_sample_j": result.energy_per_sample,
                    "oom": result.oom,
                    "comm_bytes_per_iter": comm,
                })
    return rows


def format_sweep_table(rows) -> str:
    header = ("model\tkind\tmode\ttestbed\tlatency_per_sample_s\t"
              "energy_per_sample_j\toom\tcomm_bytes_per_iter\n")
    lines = [header]
    for r in rows:
        lat = "" if r["latency_per_sample_s"] is None \
            else f"{r['latency_per_sample_s']:.9g}"
        en = "" if r["energy_per_sample_j"] is None \
            else f"{r['energy_per_sample_j']:.9g}"
        lines.append(f"{r['model']}\t{r['kind']}\t{r['mode']}\t{r['testbed']}\t"
                     f"{lat}\t{en}\t{str(r['oom']).lower()}\t"
                     f"{r['comm_bytes_per_iter']:.9g}\n")
    return "".join(lines)


def cmd_sweep(args) -> int:
    domain = _build_domain(args)
    job = _build_job(args)
    modes = ("cpu", "gpu") if args.mode is None else (args.mode,)
    models = args.models.split(",") if args.models else SWEEP_MODELS
    for m in models:
        if m not in MODEL_PRESETS:
            raise ConfigError(f"unknown model preset {m!r}")
    rows = sweep_rows(domain, job, models=models, modes=modes,
                      iterations=args.iterations)
    _write_out(format_sweep_table(rows), args.out)
    return EXIT_OK


def cmd_faults(args) -> int:
    if args.mtbf <= 0:
        raise ConfigError("--mtbf must be > 0")
    data = config_io.parse_yaml(_read_file(args.plan, "plan"), "plan")
    plan, domain, interval = config_io.plan_from_dict(data)
    fault_model = FaultModel(mtbf_per_device=args.mtbf,
                             checkpoint_write_bandwidth=args.ckpt_bandwidth,
                             recovery_reload_bandwidth=args.reload_bandwidth,
                             rng_seed=args.seed)
    report = inject_faults(plan, domain, fault_model,
                           iterations=args.iterations,
                           checkpoint_interval=interval)
    ff = report.fault_free
    out = config_io.dump_yaml({
        "schema_version": config_io.SCHEMA_VERSION,
        "wall_time_s": report.wall_time,
        "goodput_samples_per_s": report.goodput_samples_per_s,
        "fault_free_throughput_samples_per_s":
            ff.samples_processed / ff.makespan,
        "failures": report.failures,
        "executed_iterations": report.executed_iterations,
        "completed_iterations": report.completed_iterations,
        "checkpoint_writes": report.checkpoint_writes,
        "checkpoint_interval_s": report.checkpoint_interval,
        "rework_time_s": report.rework_time,
        "reload_time_s": report.reload_time,
        "checkpoint_time_s": report.checkpoint_time,
        "energy_estimate_j": report.energy_estimate,
        "seed": report.seed,
    })
    _write_out(out, args.out)
    return EXIT_OK


def cmd_presets(args) -> int:
    del args
    print("model presets:")
    for name, spec in MODEL_PRESETS.items():
        print(f"  {name}: {spec.num_blocks} blocks, hidden {spec.hidden_size}, "
              f"{spec.num_heads} heads, vocab {spec.vocab_size}")
    print("testbed presets:")
    for name in TESTBED_PRESETS:
        domain = testbed_preset(name)
        print(f"  {name}: {', '.join(domain.device_ids)}")
    print("device profiles: " + ", ".join(sorted(DEVICE_PROFILE_FACTORIES)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="edgetrainsim",
                     description="Collaborative edge training planner and "
                                 "simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="choose devices/parallelism/checkpointing")
    _add_domain_flags(p)
    p.add_argument("--model", help="model preset name")
    p.add_argument("--model-config", help="custom model YAML file")
    p.add_argument("--objective", choices=("energy", "latency", "weighted"),
                   default="energy")
    p.add_argument("--weight-energy", type=float, default=1.0)
    p.add_argument("--weight-latency", type=float, default=0.0)
    p.add_argument("--select-devices", action="store_true",
                   help="also search participant subsets (default: all devices)")
    _add_job_flags(p)
    p.add_argument("--iterations", type=int, default=DEFAULT_ITERATIONS)
    p.add_argument("--mtbf", type=float, default=86400.0,
                   help="per-device MTBF seconds for checkpoint planning")
    p.add_argument("--ckpt-bandwidth", type=float, default=50e6)
    p.add_argument("--reload-bandwidth", type=float, default=50e6)
    p.add_argument("--out", help="plan output file (default stdout)")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("simulate", help="simulate a previously emitted plan")
    p.add_argument("--plan", required=True, help="plan YAML file")
    p.add_argument("--iterations", type=int, default=DEFAULT_ITERATIONS)
    p.add_argument("--trace", help="write an event trace table to this file")
    p.add_argument("--out", help="result output file (default stdout)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="run the model x parallelism x mode grid")
    _add_domain_flags(p)
    p.add_argument("--models", help="comma-separated model presets "
                                    "(default: all four)")
    _add_job_flags(p)
    p.add_argument("--iterations", type=int, default=DEFAULT_ITERATIONS)
    p.add_argument("--out", help="TSV output file (default stdout)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("faults", help="fault-injected goodput report for a plan")
    p.add_argument("--plan", required=True)
    p.add_argument("--mtbf", type=float, required=True,
                   help="per-device MTBF in seconds")
    p.add_argument("--ckpt-bandwidth", type=float, default=50e6)
    p.add_argument("--reload-bandwidth", type=float, default=50e6)
    p.add_argument("--iterations", type=int, default=DEFAULT_ITERATIONS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="report output file (default stdout)")
    p.set_defaults(func=cmd_faults)

    p = sub.add_parser("presets", help="list built-in models and testbeds")
    p.set_defaults(func=cmd_presets)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValidationError, PlanError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
