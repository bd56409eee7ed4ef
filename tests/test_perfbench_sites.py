"""Every place the benchmark's traced runs wrap still exists.

``perfbench/tracing.install`` raises on a site that is gone, and a
traced run installs ``layers.CHAIN`` (the simulator) and, in the traced
server, ``layers.CHAIN + layers.SERVE``.  A rename in ``src/repro`` that
drops one of those names would otherwise surface only when a traced
benchmark run starts.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import layers
        import tracing
    finally:
        sys.path.remove(str(PERFBENCH))
    return layers, tracing


def _lookup(tracing, site):
    """The attribute a site names, as ``install`` saves it."""
    owner, name = tracing._owner(site)
    return vars(owner)[name] if isinstance(owner, type) else getattr(owner, name)


def test_chain_and_serve_sites_install_and_remove_cleanly(perfbench):
    layers, tracing = perfbench
    probes = layers.CHAIN + layers.SERVE
    sites = [site for probe in probes for site in probe.sites]
    before = [_lookup(tracing, site) for site in sites]
    installed = tracing.install(tracing.Tracer(), probes)
    try:
        for original, site in zip(before, sites):
            assert _lookup(tracing, site).__wrapped__ is original, site
    finally:
        installed.remove()
    for original, site in zip(before, sites):
        assert _lookup(tracing, site) is original, site
