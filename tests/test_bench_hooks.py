"""The benchmark's tracer still finds the functions it times.

`bench/selftest.py` requires these namespaces to be patched; checking them
here makes a rename fail a fast test instead of only the slow self-test.
"""

import edgetrainsim.cli

REQUIRED = (("edgetrainsim.scheduler", "simulate"),
            ("edgetrainsim.cli", "partition_stages"),
            ("edgetrainsim.simengine", "simulate"),
            ("TrustedDomain", "device"))


def test_tracer_patches_required_namespaces(monkeypatch, request):
    monkeypatch.syspath_prepend(str(request.config.rootpath / "bench"))
    from tracing import Tracer
    tracer = Tracer()
    tracer.install()
    try:
        patched = {(getattr(owner, "__name__", ""), name)
                   for owner, name, _ in tracer.patched}
    finally:
        tracer.uninstall()
    assert set(REQUIRED) <= patched
    assert not hasattr(edgetrainsim.cli.partition_stages, "__wrapped__")


def test_tracer_counts_each_command_once(monkeypatch, request, tmp_path):
    """A command table that held the `cmd_*` functions themselves would call
    them past the tracer's wrappers, which then count no call."""
    monkeypatch.syspath_prepend(str(request.config.rootpath / "bench"))
    from tracing import Tracer
    plan = str(tmp_path / "plan.yaml")
    nano4 = ["--testbed", "homogeneous-nano4"]
    commands = {
        "plan": ["plan", *nano4, "--model", "distilbert", "--out", plan],
        "simulate": ["simulate", "--plan", plan,
                     "--out", str(tmp_path / "result.yaml")],
        "sweep": ["sweep", *nano4, "--models", "distilbert",
                  "--out", str(tmp_path / "sweep.tsv")],
        "faults": ["faults", "--plan", plan, "--mtbf", "600",
                   "--out", str(tmp_path / "report.yaml")],
    }
    tracer = Tracer()
    tracer.install()
    try:
        for argv in commands.values():
            assert edgetrainsim.cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert {name: tracer.stats[f"cli.{name}"].calls for name in commands} \
        == dict.fromkeys(commands, 1)
