"""Span recorder for the traced run: times calls into capmimo's public functions.

The recorder wraps each listed function and rebinds the name in every
capmimo module that holds it (``models.operator_trace`` is the same object
as ``physics.operator_trace``, and the cached trace only shows if both are
wrapped). Spans stay in memory and are turned into per-layer metrics when
the run ends.

Sweeps run cells on pool threads, so every thread keeps its own stack of
open spans. A span opened on a thread with an empty stack is attributed to
the innermost span open on the thread that installed the recorder, which
is the sweep that handed the cell to the pool. A span's self time is its
duration minus the part of it that its child spans cover; children on
pool threads may overlap each other, so the covered part is the union of
their intervals.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import threading
import time
from dataclasses import dataclass, field

PHYSICS = ("operator_trace", "kernel_diagonal", "green_offset")
SPECTRA = ("assemble_kernel_matrix", "assemble_channel_matrix", "gram_from_channel",
           "hermitian_eigenvalues")
MODELS = ("mi_continuous", "mi_discrete_rx", "mi_discrete_trx", "noise_rx", "noise_trx")
EXPERIMENTS = ("sweep_receiver", "sweep_transceiver", "sweep_grid")
CLI = ("main",)
TRACED = {"physics": PHYSICS, "spectra": SPECTRA, "models": MODELS,
          "experiments": EXPERIMENTS, "cli": CLI}
# lru_cache-wrapped helpers whose cache_info() gives the cache counts
CACHES = {"ref_cache": "_reference_spectrum", "trace_cache": "_unit_trace"}


@dataclass
class Span:
    name: str
    parent: Span | None
    thread: int
    start: float
    end: float = 0.0
    # what the call did, as a count: elements evaluated, matrix dimension, ...
    work: dict = field(default_factory=dict)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def _bound_args(sig: inspect.Signature, args, kwargs) -> dict:
    try:
        bound = sig.bind(*args, **kwargs)
    except TypeError:
        return {}
    return dict(bound.arguments)


def _green_offset_work(arguments: dict, result) -> dict:
    return {"evals": int(getattr(result, "size", 1))}


def _kernel_matrix_work(arguments: dict, result) -> dict:
    # A A^H with A of shape (m, n): 8 m^2 n real flops
    grid, cfg = arguments.get("grid"), arguments.get("cfg")
    n = arguments.get("inner_points")
    if n is None and cfg is not None:
        n = cfg.default_inner_points()
    m = getattr(grid, "m", None)
    return {} if m is None or n is None else {"flops": 8 * m * m * n, "dim": m}


def _eigen_work(arguments: dict, result) -> dict:
    k = arguments.get("K")
    return {"dim": int(k.shape[0]) if hasattr(k, "shape") else 0,
            "clamped": int(getattr(result, "clamped_count", 0))}


def _trace_work(arguments: dict, result) -> dict:
    cfg = arguments.get("cfg")
    if cfg is None:
        return {}
    return {"geometry": (cfg.wavelength_m, cfg.aperture_m, cfg.distance_m)}


WORK = {"physics.green_offset": _green_offset_work,
        "spectra.assemble_kernel_matrix": _kernel_matrix_work,
        "spectra.hermitian_eigenvalues": _eigen_work,
        "physics.operator_trace": _trace_work}


class Recorder:
    """Collects spans from wrapped functions; one per traced process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stacks: dict[int, list[Span]] = {}
        self._home = threading.get_ident()
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        ident = threading.get_ident()
        stack = self._stacks.get(ident)
        if stack is None:
            with self._lock:
                stack = self._stacks.setdefault(ident, [])
        return stack

    def _wrap(self, name: str, fn):
        sig = inspect.signature(fn)
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                home = self._stacks.get(self._home)
                parent = home[-1] if home else None
            span = Span(name, parent, threading.get_ident(), time.perf_counter())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append(span)
            if work is not None:
                span.work = work(_bound_args(sig, args, kwargs), result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every function in TRACED, rebinding it wherever capmimo holds it."""
        modules = [package] + [getattr(package, m) for m in TRACED]
        for layer, names in TRACED.items():
            home = getattr(package, layer)
            for fname in names:
                fn = getattr(home, fname, None)
                if not callable(fn):
                    self.absent.append(f"{layer}.{fname}")
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", fn)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, attr, wrapper)

    def metrics(self, package) -> dict:
        """Per-layer metrics from the recorded spans and capmimo's caches."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(id(s.parent), []).append(s)

        def self_time(s: Span) -> float:
            kids = [(max(c.start, s.start), min(c.end, s.end)) for c in children.get(id(s), [])]
            return (s.end - s.start) - _union_length([k for k in kids if k[1] > k[0]])

        def under(s: Span, names: tuple[str, ...]) -> bool:
            p = s.parent
            while p is not None:
                if p.name in names:
                    return True
                p = p.parent
            return False

        by_name: dict[str, list[Span]] = {}
        for s in self.spans:
            by_name.setdefault(s.name, []).append(s)
        out: dict[str, float] = {}
        for layer, names in TRACED.items():
            for fname in names:
                spans = by_name.get(f"{layer}.{fname}", [])
                key = f"{layer}.{fname}"
                out[f"{key}.calls"] = len(spans)
                out[f"{key}.self_s"] = sum(self_time(s) for s in spans)

        trace_spans = by_name.get("physics.operator_trace", [])
        geometries = {s.work.get("geometry") for s in trace_spans}
        out["physics.operator_trace.useful_ratio"] = (
            len(geometries) / len(trace_spans) if trace_spans else 0.0)
        out["physics.green_offset.evals"] = sum(
            s.work.get("evals", 0) for s in by_name.get("physics.green_offset", []))
        out["spectra.assemble_kernel_matrix.flops"] = sum(
            s.work.get("flops", 0) for s in by_name.get("spectra.assemble_kernel_matrix", []))
        eig = by_name.get("spectra.hermitian_eigenvalues", [])
        out["spectra.hermitian_eigenvalues.max_dim"] = max(
            (s.work.get("dim", 0) for s in eig), default=0)
        out["spectra.hermitian_eigenvalues.clamped"] = sum(s.work.get("clamped", 0) for s in eig)

        for metric, helper in CACHES.items():
            info = getattr(getattr(package.models, helper, None), "cache_info", None)
            if info is None:
                self.absent.append(f"models.{metric}")
                hits = misses = 0
            else:
                hits, misses = info().hits, info().misses
            out[f"models.{metric}.misses"] = misses
            out[f"models.{metric}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0

        sweeps = tuple(f"experiments.{n}" for n in EXPERIMENTS)
        cells = [s for s in self.spans
                 if s.name in ("models.mi_discrete_rx", "models.mi_discrete_trx")
                 and under(s, sweeps)]
        cell_s = [s.end - s.start for s in cells]
        out["experiments.cells"] = len(cells)
        out["experiments.workers"] = len({s.thread for s in cells})
        out["experiments.cell_s.p50"] = statistics.median(cell_s) if cell_s else 0.0
        out["experiments.cell_s.max"] = max(cell_s, default=0.0)
        out["experiments.ref_s"] = sum(s.end - s.start for s in self.spans
                                       if s.name == "models.mi_continuous" and under(s, sweeps))
        out["experiments.sweep.self_s"] = sum(out.pop(f"{n}.self_s") for n in sweeps)
        for n in sweeps:
            out.pop(f"{n}.calls")

        # the continuous-reference path: the trace plus spectra work done for
        # the reference solve, as wall time covered on any thread
        reference = [(s.start, s.end) for s in self.spans
                     if s.name == "physics.operator_trace"
                     or (s.name.startswith("spectra.") and under(s, ("models.mi_continuous",)))]
        out["reference_path_s"] = _union_length(reference)
        return out
