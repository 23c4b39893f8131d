"""Per-layer tracing of blochrate from outside the package.

A ``Tracer`` used as a context manager replaces the public functions of each
layer (the modules ``fieldsim``, ``kinetics``, ``spectrum`` and ``cli``) with
timing wrappers and puts the originals back on exit; no package source
changes. Some functions are imported by name into other modules, so each name
is patched where it is looked up: ``autocorrelation_kernel`` in ``kinetics`` and
``spectrum``, ``run_ensemble`` in ``cli`` and ``fieldsim``, ``gaussian_pair`` in
``fieldsim``, and the ``RngStream`` methods on the class. A name that no longer
exists is reported as absent instead of failing the run.

A layer's self time is its calls' time minus the time of traced calls nested
inside them, on the same thread. Wrapper bookkeeping is charged to neither.
"""

from __future__ import annotations

import functools
import threading
import tracemalloc
from time import perf_counter

import numpy as np

from blochrate import cli, fieldsim, kinetics, spectrum

MODULES = {"fieldsim": fieldsim, "kinetics": kinetics, "spectrum": spectrum, "cli": cli}


def _normals(args, result):
    return {"count": len(result)}


def _traj_steps(args, result):
    return {"traj_steps": result.n_traj * (len(result.t) - 1)}


def _solver_steps(args, result):
    return {"steps": len(result.t) - 1}


def _kernel_evals(args, result):
    rows = len(getattr(args[0], "omega", (0.0,)))    # a closed-form line counts as one row
    return {"evals": int(np.size(result)) * rows}


def _written(args, result):
    path, text = args[:2]
    rows = text.count("\n") - 1 if str(path).endswith(".csv") else 0
    return {"bytes": len(text.encode()), "rows": rows}


# layer, module, attribute path, work counter, trace allocations
TARGETS = (
    ("fieldsim.RngStream.init", "fieldsim", "RngStream.__init__", None, False),
    ("fieldsim.RngStream.normals", "fieldsim", "RngStream.normals", _normals, False),
    ("fieldsim.gaussian_pair", "fieldsim", "gaussian_pair", None, False),
    ("fieldsim.run_ensemble", "fieldsim", "run_ensemble", _traj_steps, False),
    ("fieldsim.run_ensemble", "cli", "run_ensemble", _traj_steps, False),
    ("fieldsim.phase_autocorrelation", "fieldsim", "phase_autocorrelation", None, False),
    ("fieldsim.simulate_phases", "fieldsim", "simulate_phases", None, False),
    ("kinetics.integrate_memory_kernel", "kinetics", "integrate_memory_kernel",
     _solver_steps, False),
    ("kinetics.integrate_effective_bloch", "kinetics", "integrate_effective_bloch",
     None, False),
    ("spectrum.autocorrelation_kernel", "spectrum", "autocorrelation_kernel",
     _kernel_evals, True),
    ("spectrum.autocorrelation_kernel", "kinetics", "autocorrelation_kernel",
     _kernel_evals, True),
    ("spectrum.wk_estimate", "spectrum", "wk_estimate", None, True),
    ("spectrum.spectrum_from_autocorrelation", "spectrum",
     "spectrum_from_autocorrelation", None, False),
    ("cli.main", "cli", "main", None, False),
    ("cli.atomic_write_text", "cli", "atomic_write_text", _written, False),
)


def _per(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return scale * numerator / denominator if denominator else 0.0


# Per-layer metrics: name, unit, layer, value from that layer's totals. The
# names and units are the per_layer list of BENCHMARK.json. The two metrics
# with no layer are measured by the worker around whole passes.
METRICS = (
    ("fieldsim.RngStream.init.calls", "count", "fieldsim.RngStream.init",
     lambda s: s["calls"]),
    ("fieldsim.RngStream.init.self_s", "s", "fieldsim.RngStream.init",
     lambda s: s["self_s"]),
    ("fieldsim.gaussian_pair.self_s", "s", "fieldsim.gaussian_pair",
     lambda s: s["self_s"]),
    ("fieldsim.RngStream.normals.count", "count", "fieldsim.RngStream.normals",
     lambda s: s["count"]),
    ("fieldsim.RngStream.normals.self_s", "s", "fieldsim.RngStream.normals",
     lambda s: s["self_s"]),
    ("fieldsim.RngStream.normals.ns_per_normal", "ns", "fieldsim.RngStream.normals",
     lambda s: _per(s["total_s"], s["count"], 1e9)),
    ("fieldsim.run_ensemble.self_s", "s", "fieldsim.run_ensemble",
     lambda s: s["self_s"]),
    ("fieldsim.run_ensemble.traj_steps", "count", "fieldsim.run_ensemble",
     lambda s: s["traj_steps"]),
    ("fieldsim.run_ensemble.ns_per_traj_step", "ns", "fieldsim.run_ensemble",
     lambda s: _per(s["self_s"], s["traj_steps"], 1e9)),
    ("fieldsim.phase_autocorrelation.self_s", "s", "fieldsim.phase_autocorrelation",
     lambda s: s["self_s"]),
    ("fieldsim.simulate_phases.self_s", "s", "fieldsim.simulate_phases",
     lambda s: s["self_s"]),
    ("fieldsim.threads.speedup", "x", None, None),
    ("kinetics.integrate_memory_kernel.self_s", "s", "kinetics.integrate_memory_kernel",
     lambda s: s["self_s"]),
    ("kinetics.integrate_memory_kernel.steps", "count", "kinetics.integrate_memory_kernel",
     lambda s: s["steps"]),
    ("kinetics.integrate_memory_kernel.ns_per_step", "ns",
     "kinetics.integrate_memory_kernel",
     lambda s: _per(s["self_s"], s["steps"], 1e9)),
    ("kinetics.integrate_effective_bloch.self_s", "s", "kinetics.integrate_effective_bloch",
     lambda s: s["self_s"]),
    ("spectrum.autocorrelation_kernel.self_s", "s", "spectrum.autocorrelation_kernel",
     lambda s: s["self_s"]),
    ("spectrum.autocorrelation_kernel.evals", "count", "spectrum.autocorrelation_kernel",
     lambda s: s["evals"]),
    ("spectrum.autocorrelation_kernel.peak_alloc_mb", "MB",
     "spectrum.autocorrelation_kernel", lambda s: s["peak_alloc_b"] / 1e6),
    ("spectrum.wk_estimate.self_s", "s", "spectrum.wk_estimate",
     lambda s: s["self_s"]),
    ("spectrum.wk_estimate.peak_alloc_mb", "MB", "spectrum.wk_estimate",
     lambda s: s["peak_alloc_b"] / 1e6),
    ("spectrum.spectrum_from_autocorrelation.calls", "count",
     "spectrum.spectrum_from_autocorrelation", lambda s: s["calls"]),
    ("spectrum.spectrum_from_autocorrelation.self_s", "s",
     "spectrum.spectrum_from_autocorrelation", lambda s: s["self_s"]),
    ("cli.main.self_s", "s", "cli.main", lambda s: s["self_s"]),
    ("cli.atomic_write_text.self_s", "s", "cli.atomic_write_text", lambda s: s["self_s"]),
    ("cli.atomic_write_text.bytes", "count", "cli.atomic_write_text", lambda s: s["bytes"]),
    ("cli.rows", "count", "cli.atomic_write_text", lambda s: s["rows"]),
    ("trace.overhead", "x", None, None),
)


def _empty() -> dict:
    return {"calls": 0, "self_s": 0.0, "total_s": 0.0, "peak_alloc_b": 0,
            "count": 0, "traj_steps": 0, "steps": 0, "evals": 0, "bytes": 0, "rows": 0}


class Tracer:
    """Wraps every layer's public functions while the ``with`` block runs.

    ``layers`` accumulates per-layer totals across every ``with`` block of
    one tracer; ``absent`` lists patch targets that were not found.
    """

    def __init__(self):
        self.layers: dict[str, dict] = {}
        self.absent: set[str] = set()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for layer, module, attr, counter, alloc in TARGETS:
            *outer, name = attr.split(".")
            owner = MODULES[module]
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, name, None)
            if original is None:
                self.absent.add(f"{module}.{attr}")
                continue
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(layer, original, counter, alloc))
        return self

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def reached(self, layer: str) -> bool:
        return self.layers.get(layer, {}).get("calls", 0) > 0

    def _wrap(self, layer, fn, counter, alloc):
        stats = self.layers.setdefault(layer, _empty())
        local, lock = self._local, self._lock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = perf_counter()
            stack = local.__dict__.setdefault("stack", [])
            stack.append(0.0)             # time of traced calls nested in this one
            own_alloc = alloc and not tracemalloc.is_tracing()
            if own_alloc:
                tracemalloc.start()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                nested = stack.pop()
                peak = tracemalloc.get_traced_memory()[1] if own_alloc else 0
                if own_alloc:
                    tracemalloc.stop()
            counts = counter(args, result) if counter else {}
            with lock:
                stats["calls"] += 1
                stats["self_s"] += elapsed - nested
                stats["total_s"] += elapsed
                stats["peak_alloc_b"] = max(stats["peak_alloc_b"], peak)
                for key, value in counts.items():
                    stats[key] += value
            if stack:
                stack[-1] += perf_counter() - entered
            return result

        return traced


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every layer-derived metric of METRICS from the tracer's totals."""
    return {name: value(tracer.layers.get(layer, _empty()))
            for name, _, layer, value in METRICS if layer is not None}
