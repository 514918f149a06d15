"""Spans and counts around calls into the package's layers.

Callers inside the package use their own imported names, so every binding
of a traced function is patched at each module that holds it.  Spans are
kept in memory as ``[name, start, end, parent]`` and turned into per-layer
metrics when the run ends.  Nothing is patched unless a ``Tracer`` is
installed, which only the traced run does.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter

import numpy as np


def _transfer_counts(args, kwargs, result):
    return {"transfer_calls": 1, "transfer_k": int(np.size(args[1]))}


def _poles_counts(args, kwargs, result):
    return {"poles_returned": len(result)}


def _full_counts(args, kwargs, result):
    return {"pole_pairs": len(args[1])}


def _single_counts(args, kwargs, result):
    return {"pole_pairs": 1}


def _slopes_counts(args, kwargs, result):
    return {"local_slopes_points": int(np.size(args[0]))}


def _kernel_counts(args, kwargs, result):
    y = np.asarray(args[0])
    return {"kernel_points": int(y.size), "kernel_reflected": int(np.count_nonzero(y.real < 0.0))}


# (module, attribute, span name or None for a count-only hook, count hook);
# _transfer_entries runs ~20k times in one pole search, so it only counts
BINDINGS = [
    ("rtbuildup.scattering", "_transfer_entries", None, _transfer_counts),
    ("rtbuildup.resonances", "_transfer_entries", None, _transfer_counts),
    ("rtbuildup.resonances", "transmission_scan", "scattering.transmission_scan", None),
    ("rtbuildup.resonances", "refine_pole", "resonances.refine_pole", None),
    ("rtbuildup.resonances", "winding_number", "resonances.winding_number", None),
    ("rtbuildup.resonances", "_recover_poles", "resonances.recover", None),
    ("rtbuildup.resonances", "gamow_state", "resonances.gamow_state", None),
    ("rtbuildup.cli", "find_poles", "resonances.find_poles", _poles_counts),
    ("rtbuildup", "find_poles", "resonances.find_poles", _poles_counts),
    ("rtbuildup.cli", "evolve_full", "dynamics.evolve", _full_counts),
    ("rtbuildup", "evolve_full", "dynamics.evolve", _full_counts),
    ("rtbuildup.cli", "evolve_single_resonance", "dynamics.evolve", _single_counts),
    ("rtbuildup.cli", "stationary_state", "scattering.stationary_state", None),
    ("rtbuildup.dynamics", "stationary_state", "scattering.stationary_state", None),
    ("rtbuildup.analysis", "stationary_wave", "scattering.stationary_state", None),
    ("rtbuildup.cli", "normalize_buildup", "analysis.normalize", None),
    ("rtbuildup.cli", "delta_curve", "analysis.delta_curve", None),
    ("rtbuildup.cli", "local_slopes", "analysis.local_slopes", _slopes_counts),
    ("rtbuildup.cli", "detect_onset", "analysis.detect_onset", None),
    ("rtbuildup.dynamics", "_moshinsky_m_grid", "moshinsky.kernel", _kernel_counts),
]

class Tracer:
    """Records spans and counts while ``active``; patched calls pass straight through otherwise."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.active = False
        self._stack: list[int] = []

    def install(self) -> None:
        for module_name, attr, span, hook in BINDINGS:
            module = importlib.import_module(module_name)
            setattr(module, attr, self._wrap(getattr(module, attr), span, hook))

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span of its own (for calls made by the benchmark)."""
        return self._wrap(fn, name, None)(*args, **kwargs)

    def count(self, **amounts) -> None:
        if self.active:
            self.counts.update(amounts)

    def _wrap(self, fn, name, hook):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = None
            if name is not None:
                index = len(tracer.spans)
                parent = tracer._stack[-1] if tracer._stack else None
                tracer.spans.append([name, time.perf_counter(), None, parent])
                tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if name is not None:
                    tracer.counts[name + ".failed"] += 1
                raise
            finally:
                if index is not None:
                    tracer.spans[index][2] = time.perf_counter()
                    tracer._stack.pop()
            if hook is not None:
                tracer.counts.update(hook(args, kwargs, result))
            return result

        return traced

    def mark(self) -> tuple[int, Counter]:
        """Position to slice a phase of the run from (see ``layer_metrics``)."""
        return len(self.spans), Counter(self.counts)


def _phase_totals(spans, first, last):
    """Integer counts and float seconds per span name over spans[first:last]."""
    child_time = Counter()
    for name, start, end, parent in spans[first:last]:
        if parent is not None:
            child_time[parent] += end - start
    calls, seconds = Counter(), Counter()
    recovered = set()
    for i in range(first, last):
        name, start, end, parent = spans[i]
        calls[name] += 1
        seconds[name] += end - start
        seconds[name + ".self"] += end - start - child_time[i]
        if name == "resonances.recover":
            while parent is not None and spans[parent][0] != "resonances.find_poles":
                parent = spans[parent][3]
            if parent is not None:
                recovered.add(parent)
    calls["find_poles.recovered"] = len(recovered)
    return calls, seconds


def layer_metrics(tracer: Tracer, setup, passes, overhead: float) -> dict[str, float]:
    """Per-layer metrics for the set-up phase plus one pass over the inputs.

    ``setup`` and each of ``passes`` are ``(mark_before, mark_after)`` pairs
    from ``Tracer.mark``.  Pass totals are averaged over the passes; counts
    stay integers until that division, so equal passes give exact counts.
    """
    def phase(marks):
        (first, c0), (last, c1) = marks
        calls, seconds = _phase_totals(tracer.spans, first, last)
        calls.update({key: c1[key] - c0[key] for key in c1})
        return calls, seconds

    calls, seconds = phase(setup)
    pass_calls, pass_seconds = Counter(), Counter()
    for marks in passes:
        c, s = phase(marks)
        pass_calls.update(c)
        pass_seconds.update(s)
    n = len(passes)

    def c(key):
        value = calls[key] + pass_calls[key] / n
        return int(value) if value.is_integer() else value

    def t(key):
        return seconds[key] + pass_seconds[key] / n

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "scattering.transfer_calls": c("transfer_calls"),
        "scattering.transfer_k": c("transfer_k"),
        "scattering.k_per_call": ratio(c("transfer_k"), c("transfer_calls")),
        "scattering.transmission_scan_s": t("scattering.transmission_scan"),
        "scattering.stationary_state_s": t("scattering.stationary_state"),
        "resonances.find_poles_s": t("resonances.find_poles"),
        "resonances.winding_calls": c("resonances.winding_number"),
        "resonances.winding_s": t("resonances.winding_number"),
        "resonances.recover_s": t("resonances.recover"),
        "resonances.recover_share": ratio(c("find_poles.recovered"), c("resonances.find_poles")),
        "resonances.refine_pole_calls": c("resonances.refine_pole"),
        "resonances.refine_pole_failed": c("resonances.refine_pole.failed"),
        "resonances.poles_per_newton": ratio(c("poles_returned"), c("resonances.refine_pole")),
        "resonances.gamow_calls": c("resonances.gamow_state"),
        "resonances.gamow_s": t("resonances.gamow_state"),
        "moshinsky.kernel_calls": c("moshinsky.kernel"),
        "moshinsky.kernel_points": c("kernel_points"),
        "moshinsky.kernel_s": t("moshinsky.kernel"),
        "moshinsky.ns_per_point": 1e9 * ratio(t("moshinsky.kernel"), c("kernel_points")),
        "moshinsky.reflected_share": ratio(c("kernel_reflected"), c("kernel_points")),
        "dynamics.evolve_s": t("dynamics.evolve"),
        "dynamics.self_s": t("dynamics.evolve.self"),
        "dynamics.pole_pairs": c("pole_pairs"),
        "analysis.local_slopes_s": t("analysis.local_slopes"),
        "analysis.local_slopes_points": c("local_slopes_points"),
        "analysis.detect_onset_s": t("analysis.detect_onset"),
        "analysis.normalize_s": t("analysis.normalize"),
        "cli.self_s": t("cli.main.self"),
        "cli.csv_rows": c("csv_rows"),
        "trace.overhead": overhead,
    }
