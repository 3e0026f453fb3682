"""Spans around aqmkit's public functions, for the traced run only.

``Tracer.install()`` wraps each function in ``LAYERS`` and rebinds the
wrapper in every ``aqmkit`` module namespace that holds the original (for
example ``cli.apply_circuit``, ``annealing.embed_gate``,
``simulate.is_unitary``), so calls between modules are seen too. Methods are
wrapped on their class.

A span is (name, start, end, parent). Spans are kept in memory in flat
arrays and folded into per-layer totals after each pass. A span's self time
is its duration minus the part of it covered by its child spans. Spans
opened by ``match --jobs 2`` worker threads take the main thread's open span
as parent; their intervals can overlap, so coverage is an interval union.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from array import array

import numpy as np

# (module, attribute) -> layer name. Names follow <module>.<public function>.
LAYERS = {
    ("aqmkit.cli", "main"): "cli.main",
    ("aqmkit.circuit", "parse_circuit"): "circuit.parse_circuit",
    ("aqmkit.profiles", "parse_device_profile"): "profiles.parse_device_profile",
    ("aqmkit.devices", "builtin_profile"): "devices.builtin_profile",
    ("aqmkit.state", "StateVector.__post_init__"): "state.StateVector",
    ("aqmkit.linalg", "is_unitary"): "linalg.is_unitary",
    ("aqmkit.simulate", "apply_circuit"): "simulate.apply_circuit",
    ("aqmkit.simulate", "apply_gate"): "simulate.apply_gate",
    ("aqmkit.simulate", "embed_gate"): "simulate.embed_gate",
    ("aqmkit.simulate", "circuit_unitary"): "simulate.circuit_unitary",
    ("aqmkit.simulate", "expectation"): "simulate.expectation",
    ("aqmkit.measure", "apply_measurement"): "measure.apply_measurement",
    ("aqmkit.measure", "validate_measurement_set"): "measure.validate_measurement_set",
    ("aqmkit.dilation", "synthesize_measurement"): "dilation.synthesize_measurement",
    ("aqmkit.dilation", "DilatedMeasurement.run"): "dilation.DilatedMeasurement.run",
    ("aqmkit.mbqc", "mbqc_execute"): "mbqc.mbqc_execute",
    ("aqmkit.pipeline", "compile_for_device"): "pipeline.compile_for_device",
    ("aqmkit.rewrite", "rewrite_to_basis"): "rewrite.rewrite_to_basis",
    ("aqmkit.approx", "approximate_single_qubit"): "approx.approximate_single_qubit",
    ("aqmkit.route", "route_circuit"): "route.route_circuit",
    ("aqmkit.cost", "estimate_cost"): "cost.estimate_cost",
    ("aqmkit.matcher", "match_profiles"): "matcher.match_profiles",
    ("aqmkit.annealing", "anneal"): "annealing.anneal",
    ("aqmkit.annealing", "build_annealing_hamiltonian"): "annealing.build_annealing_hamiltonian",
}

ROOT = "bench.op"  # one span around every op; its self time is harness and glue code


def _count_swaps(circuit) -> int:
    return sum(inst.gate == "SWAP" for inst in circuit.instructions)


class Tracer:
    def __init__(self):
        self.names = [ROOT] + sorted(set(LAYERS.values()))
        self._ids = {name: i for i, name in enumerate(self.names)}
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._lock = threading.Lock()  # worker threads append spans too
        self._restore: list[tuple[object, str, object]] = []
        self.active = False
        self.reset()

    # -- recording ---------------------------------------------------------

    def reset(self):
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.bytes_computed = 0
        self.approx_calls = 0
        self.approx_achieved = 0
        self.approx_worst = 0.0
        self.swaps_inserted = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.current_thread() is threading.main_thread() \
                else []
            self._local.stack = stack
        return stack

    def _open(self, name_id: int) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else -1
        with self._lock:
            index = len(self.start)
            self.name_id.append(name_id)
            self.parent.append(parent)
            self.start.append(time.perf_counter())
            self.end.append(0.0)
        stack.append(index)
        return index

    def _close(self, index: int):
        self.end[index] = time.perf_counter()
        self._stack().pop()

    def span(self, name: str):
        return _Span(self, self._ids[name])

    def _observe(self, name: str, args, result):
        if name == "simulate.apply_gate":
            self.bytes_computed += args[0].nbytes + result.nbytes  # state read + state written
        elif name == "approx.approximate_single_qubit":
            self.approx_calls += 1
            self.approx_achieved += bool(result.achieved)
            self.approx_worst = max(self.approx_worst, float(result.distance))
        elif name == "route.route_circuit":
            self.swaps_inserted += _count_swaps(result) - _count_swaps(args[0])

    def _wrap(self, name: str, func):
        name_id = self._ids[name]
        observed = name in ("simulate.apply_gate", "approx.approximate_single_qubit",
                            "route.route_circuit")

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not self.active:
                return func(*args, **kwargs)
            index = self._open(name_id)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(index)
            if observed:
                self._observe(name, args, result)
            return result

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "aqmkit" or key.startswith("aqmkit."))]
        for (module_name, attr), name in LAYERS.items():
            owner = sys.modules[module_name]
            if "." in attr:
                class_name, method = attr.split(".")
                cls = getattr(owner, class_name)
                original = cls.__dict__[method]
                self._restore.append((cls, method, original))
                setattr(cls, method, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self):
        for target, key, original in reversed(self._restore):
            setattr(target, key, original)
        self._restore.clear()

    # -- folding -----------------------------------------------------------

    def fold(self) -> dict[str, tuple[int, float]]:
        """Per-layer (calls, self seconds) for the spans recorded since reset()."""
        names = np.frombuffer(self.name_id, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        duration = end - start
        has_parent = parents >= 0
        covered = np.bincount(parents[has_parent], weights=duration[has_parent],
                              minlength=len(start))
        # Children of one parent overlap only when they ran on different threads.
        children = np.flatnonzero(has_parent)
        order = children[np.lexsort((start[children], parents[children]))]
        same = parents[order][1:] == parents[order][:-1]
        overlap = same & (start[order][1:] < end[order][:-1])
        for p in np.unique(parents[order][1:][overlap]):
            kids = order[parents[order] == p]
            total, reach = 0.0, -np.inf
            for s, e in sorted(zip(start[kids], end[kids])):
                if e > reach:
                    total += e - max(s, reach)
                    reach = e
            covered[p] = total
        self_time = duration - covered
        calls = np.bincount(names, minlength=len(self.names))
        seconds = np.bincount(names, weights=self_time, minlength=len(self.names))
        return {name: (int(calls[i]), float(seconds[i])) for i, name in enumerate(self.names)}


class _Span:
    __slots__ = ("tracer", "name_id", "index")

    def __init__(self, tracer: Tracer, name_id: int):
        self.tracer, self.name_id = tracer, name_id

    def __enter__(self):
        self.index = self.tracer._open(self.name_id) if self.tracer.active else None
        return self

    def __exit__(self, *exc):
        if self.index is not None:
            self.tracer._close(self.index)
        return False
