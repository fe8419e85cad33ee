"""Every span the benchmark's layer tracing wraps still names a package object.

``benchmarks/layers.py`` patches package names by string and skips a name the
package no longer has, so a rename would zero a metric without failing a run.
"""

import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "benchmarks" / "layers.py"

# gone from the package since the split step lost its per-slice function; the
# benchmark still lists it (ROADMAP item 12 re-points it)
RETIRED = {"splitstep.apply_slice"}


class NameRecorder:
    """A recorder whose ``wrap`` notes the span name and leaves the function as it is."""

    def __init__(self):
        self.names = set()

    def wrap(self, name, fn, on_return):
        self.names.add(name)
        return fn


def test_every_traced_span_names_a_package_object():
    spec = importlib.util.spec_from_file_location("benchmark_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    recorder = NameRecorder()
    layers.uninstall(layers.install(recorder, layers.Counters()))
    assert recorder.names == set(layers.TIME_METRICS) - RETIRED
