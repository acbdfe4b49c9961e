"""Module -> layer map used to split profiled self-time across the
simulator's layers.

Packages that belong to one layer are assigned whole.  ``repro.sim`` and
``repro.verify`` straddle layers, so each of their modules is listed on
its own and a new module there has no layer until it is added here (the
benchmark's tests fail until then); the same holds for a new top-level
module or package.  Every frame outside ``src/repro`` -- the standard
library, builtins and the benchmark's own code -- is ``stdlib``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

#: Layers in report order.  ``serve`` runs in the server process, which
#: the client-side profiler cannot see, so it never gets a share metric.
LAYERS = ("sim", "cpu", "coherence", "tlr", "obs", "workloads",
          "harness", "serve", "stdlib")

#: Module (or whole-package) name -> layer; the longest matching entry
#: wins.  ``repro`` itself is listed only as the package ``__init__``.
MODULE_LAYERS = {
    "repro.sim.kernel": "sim",
    "repro.sim.rng": "sim",
    "repro.sim.stats": "sim",
    "repro.sim.fastpath": "sim",
    "repro.sim.__init__": "sim",
    "repro.cpu": "cpu",
    "repro.runtime": "cpu",
    "repro.sync": "cpu",
    "repro.sched": "cpu",
    "repro.coherence": "coherence",
    "repro.tlr": "tlr",
    "repro.sle": "tlr",
    "repro.policies": "tlr",
    "repro.obs": "obs",
    "repro.sim.taps": "obs",
    "repro.sim.trace": "obs",
    "repro.record": "obs",
    "repro.verify.recorder": "obs",
    "repro.verify.monitors": "obs",
    "repro.workloads": "workloads",
    "repro.harness": "harness",
    "repro.verify.__init__": "harness",
    "repro.verify.oracle": "harness",
    "repro.verify.explorer": "harness",
    "repro.cli": "harness",
    "repro.__main__": "harness",
    "repro.__init__": "harness",
    "repro.serve": "serve",
}

#: Packages whose modules must each be listed (no package-wide entry).
SPLIT_PACKAGES = ("repro.sim", "repro.verify")


def module_name(path: Path, src: Path) -> Optional[str]:
    """``src/repro/sim/kernel.py`` -> ``repro.sim.kernel``; ``None``
    for a file outside ``src``.  Package ``__init__`` files keep their
    ``__init__`` suffix so they can be told apart from the package."""
    try:
        rel = path.resolve().relative_to(src.resolve())
    except ValueError:
        return None
    if rel.suffix != ".py":
        return None
    return ".".join(rel.with_suffix("").parts)


def layer_of(module: str) -> Optional[str]:
    """The layer of a ``repro`` module, or ``None`` when unassigned."""
    parts = module.split(".")
    for cut in range(len(parts), 0, -1):
        prefix = ".".join(parts[:cut])
        if prefix in SPLIT_PACKAGES and cut < len(parts):
            return None
        layer = MODULE_LAYERS.get(prefix)
        if layer is not None:
            return layer
    return None


class LayerMapper:
    """Maps profiler file names to layers, memoising per file."""

    def __init__(self, src: Path):
        self.src = src.resolve()
        self._cache: dict[str, str] = {}

    def __call__(self, filename: str) -> str:
        layer = self._cache.get(filename)
        if layer is None:
            module = None
            if filename.endswith(".py"):
                module = module_name(Path(filename), self.src)
            if module is None or not module.startswith("repro"):
                layer = "stdlib"
            else:
                layer = layer_of(module)
                if layer is None:
                    raise KeyError(f"module {module} has no layer; add it "
                                   f"to bench/layers.py MODULE_LAYERS")
            self._cache[filename] = layer
        return layer


def self_time_by_layer(stats, mapper: LayerMapper) -> dict[str, float]:
    """Seconds of profiled self-time per layer from a ``pstats.Stats``
    (``stats.stats`` maps ``(file, line, func)`` to ``(cc, nc, tt, ct,
    callers)``; builtins have file ``~`` and land in ``stdlib``)."""
    totals = {layer: 0.0 for layer in LAYERS}
    for (filename, _line, _func), row in stats.stats.items():
        totals[mapper(filename)] += row[2]
    return totals
