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
