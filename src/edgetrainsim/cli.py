"""Operator entry point: plan, simulate, sweep, faults, presets.

Exit codes: 0 success, 1 usage/config error or unwritable output file,
2 valid-but-infeasible (OOM).

The default job matches the reference experiment grid (global batch 128,
sequence length 32, micro-batch 8, gradient sync every 5 iterations) and a
half-precision runtime (2-byte parameters, fp16 activations); every constant
can be overridden by flags.

Each command's flags are declared once, as :class:`Flag` data in
:data:`COMMANDS`.  :func:`parse_args` reads an argv made only of the command
and exact ``--flag value`` (or store-true ``--flag``) items straight from
that table, building no parser.  Every other argv (help, ``--``,
``--flag=value``, abbreviations, values that start with ``-``, bad values,
unknown or missing flags) goes to the full parser from :func:`build_parser`,
built from the same table, which prints every help text, usage line and
error.  Only one domain source (``--testbed``, ``--domain``, ``--devices``)
and one model source (``--model``, ``--model-config``) may be given.
Output files are written as UTF-8 whatever the locale.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable, NamedTuple

from . import config_io
from .config_io import ConfigError
from .devices import (DEFAULT_FAULT_MODEL, DEVICE_PROFILE_FACTORIES,
                      FaultModel, TESTBED_PRESETS, TrustedDomain,
                      ValidationError, effective_throughput, testbed_preset)
from .parallelism import ALL_KINDS, KIND_PP, KIND_SINGLE, PlanError, make_plan
from .scheduler import (InfeasibleError, Objective, orchestrate,
                        partition_stages, plan_checkpointing)
from .simengine import (DEFAULT_ITERATIONS, OutOfMemoryError, SimulationError,
                        inject_faults, simulate, write_trace)
from .workload import MODEL_PRESETS, default_edge_job, model_preset

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
PROG = "edgetrainsim"


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
    try:
        return p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"{context}: {path} is not UTF-8 text: byte "
                          f"{exc.object[exc.start]:#04x} on line {line}") \
            from exc


def _one_source(args, *dests: str) -> None:
    """Refuse ``args`` that give more than one of the flags ``dests``."""
    given = [f"--{dest.replace('_', '-')}" for dest in dests
             if getattr(args, dest) is not None]
    if len(given) > 1:
        raise ConfigError(f"give only one of {', '.join(given)}")


def _build_domain(args) -> TrustedDomain:
    _one_source(args, "testbed", "domain", "devices")
    if args.domain is not None:
        domain = config_io.domain_from_dict(
            config_io.parse_yaml(_read_file(args.domain, "domain"), "domain"))
    elif args.devices is not None:
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
        try:
            domain = testbed_preset("homogeneous-nano4" if args.testbed is None
                                    else args.testbed)
        except KeyError as exc:
            raise ConfigError(str(exc)) from exc
    if args.mode is not None:
        domain = domain.with_mode(args.mode)
    return domain


def _build_spec(args):
    _one_source(args, "model", "model_config")
    if args.model_config is not None:
        return config_io.model_from_dict(
            config_io.parse_yaml(_read_file(args.model_config, "model"), "model"))
    try:
        return model_preset("gpt2-s" if args.model is None else args.model)
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
    """``--objective energy`` and ``latency`` ignore the weight flags."""
    weights = {"energy": (1.0, 0.0), "latency": (0.0, 1.0)}.get(
        args.objective, (args.weight_energy, args.weight_latency))
    try:
        return Objective(*weights)
    except ValueError as exc:
        raise ConfigError(f"objective: {exc}") from exc


def _write_out(text: str, out: str | None):
    """Write ``text`` to ``out``, or to stdout without ``--out``, as UTF-8
    whatever the locale; a stdout without a byte buffer (a redirect to a
    ``StringIO``) gets the text itself."""
    if out:
        Path(out).write_text(text, encoding="utf-8")
    elif hasattr(sys.stdout, "buffer"):
        sys.stdout.flush()
        sys.stdout.buffer.write(text.encode("utf-8"))
        sys.stdout.buffer.flush()
    else:
        sys.stdout.write(text)


def cmd_plan(args) -> int:
    domain = _build_domain(args)
    spec = _build_spec(args)
    job = _build_job(args)
    objective = _build_objective(args)
    fault_model = replace(DEFAULT_FAULT_MODEL, mtbf_per_device=args.mtbf,
                          checkpoint_write_bandwidth=args.ckpt_bandwidth)
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
    if args.trace is None:
        result = simulate(plan, domain, iterations=args.iterations)
    else:
        result = write_trace(plan, domain, args.iterations, args.trace)
    _write_out(config_io.dump_yaml(config_io.result_to_dict(result)), args.out)
    if result.oom:
        print("simulation aborted: out of memory on "
              + ", ".join(result.oom_devices), file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


def _sweep_plan(kind: str, domain: TrustedDomain, spec, job):
    ids, ranges = domain.device_ids, None
    if kind == KIND_SINGLE:
        # Paper-style baseline: the least capable device (a Nano on the presets).
        ids = (min(ids, key=lambda p: (
            effective_throughput(domain.device(p), domain.mode), p)),)
    elif kind == KIND_PP:
        ranges = partition_stages(domain, ids, spec, job)
    return make_plan(kind, domain, spec, job, ids, ranges)


def sweep_rows(domain: TrustedDomain, job, models=tuple(MODEL_PRESETS),
               modes=("cpu", "gpu"), iterations: int = DEFAULT_ITERATIONS):
    """One row per (model, kind, mode): the experiment grid of the sweeps."""
    rows = []
    moded_domains = {mode: domain.with_mode(mode) for mode in modes}
    for model_name in models:
        spec = model_preset(model_name)
        for kind in ALL_KINDS:
            for mode, moded in moded_domains.items():
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
    models = (tuple(MODEL_PRESETS) if args.models is None
              else args.models.split(","))
    for m in models:
        if m not in MODEL_PRESETS:
            raise ConfigError(f"unknown model preset {m!r}")
    rows = sweep_rows(domain, job, models=models, modes=modes,
                      iterations=args.iterations)
    _write_out(format_sweep_table(rows), args.out)
    return EXIT_OK


def cmd_faults(args) -> int:
    data = config_io.parse_yaml(_read_file(args.plan, "plan"), "plan")
    plan, domain, interval = config_io.plan_from_dict(data)
    fault_model = FaultModel(mtbf_per_device=args.mtbf,
                             checkpoint_write_bandwidth=args.ckpt_bandwidth,
                             recovery_reload_bandwidth=args.reload_bandwidth,
                             rng_seed=args.seed)
    if interval is None:
        interval = plan_checkpointing(plan, domain, fault_model)
    try:
        report = inject_faults(plan, domain, fault_model, interval,
                               iterations=args.iterations)
    except OutOfMemoryError as exc:
        print(f"faults aborted: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    _write_out(config_io.dump_yaml(config_io.fault_report_to_dict(report)),
               args.out)
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


class Flag(NamedTuple):
    """One long flag of a command: what ``add_argument`` is given for it."""

    name: str
    type: Callable[[str], object] = str
    default: object = None
    choices: tuple | None = None
    required: bool = False
    store_true: bool = False
    help: str | None = None


class _Flags(dict):
    """A command's flags by name, in help order; called on a parser, it adds
    them to it."""

    def __init__(self, *flags: Flag):
        super().__init__((f.name, f) for f in flags)

    def __call__(self, parser: argparse.ArgumentParser) -> None:
        for f in self.values():
            kwargs = ({"action": "store_true"} if f.store_true else
                      {"type": f.type, "choices": f.choices,
                       "required": f.required})
            parser.add_argument(f.name, default=f.default, help=f.help,
                                **kwargs)


_DOMAIN_FLAGS = (
    Flag("--testbed", help="testbed preset name"),
    Flag("--domain", help="domain config YAML file"),
    Flag("--devices", help="comma-separated device profile names "
                           "(nano, tx2, nx) for an ad-hoc domain"),
    Flag("--mode", choices=("cpu", "gpu"), help="execution mode"),
)
_JOB_FLAGS = (
    *(Flag(f"--{name}", int) for name in ("batch-size", "seq-len",
                                          "micro-batch", "sync-period")),
    *(Flag(f"--{name}", float) for name in ("param-bytes",
                                            "optimizer-multiplier",
                                            "activation-factor")),
)
_ITERATIONS = Flag("--iterations", int, DEFAULT_ITERATIONS)
_CKPT_BANDWIDTH = Flag("--ckpt-bandwidth", float, 50e6)

# Each command's help line and flags, in the order help lists them.  A
# command `name` runs the module's `cmd_<name>`, looked up when its
# arguments are parsed, so a wrapper put on that name (as bench/tracing.py
# does) is what gets called.
COMMANDS = {
    "plan": ("choose devices/parallelism/checkpointing", _Flags(
        *_DOMAIN_FLAGS,
        Flag("--model", help="model preset name"),
        Flag("--model-config", help="custom model YAML file"),
        Flag("--objective", default="energy",
             choices=("energy", "latency", "weighted")),
        Flag("--weight-energy", float, 1.0),
        Flag("--weight-latency", float, 0.0),
        Flag("--select-devices", default=False, store_true=True,
             help="also search participant subsets (default: all devices)"),
        *_JOB_FLAGS,
        _ITERATIONS,
        Flag("--mtbf", float, 86400.0,
             help="per-device MTBF seconds for checkpoint planning"),
        _CKPT_BANDWIDTH,
        Flag("--out", help="plan output file (default stdout)"))),
    "simulate": ("simulate a previously emitted plan", _Flags(
        Flag("--plan", required=True, help="plan YAML file"),
        _ITERATIONS,
        Flag("--trace", help="write an event trace table to this file"),
        Flag("--out", help="result output file (default stdout)"))),
    "sweep": ("run the model x parallelism x mode grid", _Flags(
        *_DOMAIN_FLAGS,
        Flag("--models", help="comma-separated model presets "
                              "(default: all four)"),
        *_JOB_FLAGS,
        _ITERATIONS,
        Flag("--out", help="TSV output file (default stdout)"))),
    "faults": ("fault-injected goodput report for a plan", _Flags(
        Flag("--plan", required=True),
        Flag("--mtbf", float, required=True,
             help="per-device MTBF in seconds"),
        _CKPT_BANDWIDTH,
        Flag("--reload-bandwidth", float, 50e6),
        _ITERATIONS,
        Flag("--seed", int, 0),
        Flag("--out", help="report output file (default stdout)"))),
    "presets": ("list built-in models and testbeds", _Flags()),
}


def build_parser() -> argparse.ArgumentParser:
    """The full parser: every command as a subparser."""
    parser = _Parser(prog=PROG,
                     description="Collaborative edge training planner and "
                                 "simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_flags) in COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        add_flags(command)
        command.set_defaults(func=globals()[f"cmd_{name}"])
    return parser


def _parse_exact(argv: list[str]) -> argparse.Namespace | None:
    """The Namespace :func:`build_parser` gives ``argv`` when ``argv`` is a
    command and then only ``--flag value`` and store-true ``--flag`` items,
    or None for any other ``argv``.

    Each flag must be the command's own, spelled in full; each value must not
    start with ``-`` and must convert with the flag's type into its choices;
    the last of a repeated flag counts; every required flag must be given.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    flags = COMMANDS[argv[0]][1]
    given = {}
    items = iter(argv[1:])
    for item in items:
        flag = flags.get(item)
        if flag is None:
            return None
        if flag.store_true:
            given[item] = True
            continue
        value = next(items, None)
        if value is None or value.startswith("-"):
            return None
        try:
            value = flag.type(value)
        except (TypeError, ValueError):
            return None
        if flag.choices is not None and value not in flag.choices:
            return None
        given[item] = value
    if any(f.required and name not in given for name, f in flags.items()):
        return None
    args = argparse.Namespace(command=argv[0],
                              func=globals()[f"cmd_{argv[0]}"])
    for name, flag in flags.items():
        dest = name[2:].replace("-", "_")
        setattr(args, dest, given.get(name, flag.default))
    return args


def parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse ``argv`` as :func:`build_parser` does, building no parser when
    :func:`_parse_exact` reads it."""
    args = _parse_exact(argv)
    return build_parser().parse_args(argv) if args is None else args


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except (ConfigError, ValidationError, PlanError, SimulationError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
