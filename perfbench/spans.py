"""Spans around calls into abelcentral's public functions, for the traced run.

``Tracer.install`` replaces each target function by a wrapper at every name
that binds it inside the ``abelcentral`` package (``cohomology`` imports
``central_series`` from ``groups``, ``cli`` imports ``make_field``, the
package ``__init__`` re-exports most of them), and the two dataclass
``__post_init__`` hooks on their classes.  ``uninstall`` puts the originals
back.  No file of the package is changed.

Each call records a span ``[name, start, end, parent span, job]``; spans stay
in memory until the run writes them out.  Counts that the program does not
report itself (tables built, system cells, ...) are computed by the wrapper
from the call's arguments and return value.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
import tracemalloc
from collections import defaultdict

# (module, attribute) -> span name.  A dotted attribute is a method patched
# on its class.
TARGETS = {
    ("tables", "phi"): "tables.phi",
    ("tables", "psi"): "tables.psi",
    ("tables", "ffrak_generate"): "tables.ffrak_generate",
    ("finfield", "make_field"): "finfield.make_field",
    ("modring", "howell_form"): "modring.howell_form",
    ("modring", "structure"): "modring.structure",
    ("modring", "membership"): "modring.membership",
    ("modring", "solve_linear"): "modring.solve_linear",
    ("modring", "nullspace"): "modring.nullspace",
    ("groups", "TableGroup.__post_init__"): "groups.TableGroup.init",
    ("groups", "central_series"): "groups.central_series",
    ("groups", "abelian_decomposition"): "groups.abelian_decomposition",
    ("groups", "layer_maps"): "groups.layer_maps",
    ("cohomology", "verify_thm23_and_omegaR"): "cohomology.verify_thm23_and_omegaR",
    ("cohomology", "kernel_of_inflation"): "cohomology.kernel_of_inflation",
    ("cohomology", "solve_coboundary"): "cohomology.solve_coboundary",
    ("cohomology", "Cocycle2.__post_init__"): "cohomology.Cocycle2.init",
    ("cohomology", "special_elements"): "cohomology.special_elements",
    ("heisenberg", "enumerate_homs_check"): "heisenberg.enumerate_homs_check",
    ("heisenberg", "pointwise_embedding_check"): "heisenberg.pointwise_embedding_check",
    ("heisenberg", "to_table_group"): "heisenberg.to_table_group",
    ("relations", "relation_check"): "relations.relation_check",
    ("cli", "main"): "cli.main",
}

# Spans whose peak traced allocation is reported.
PEAK_SPANS = {"cohomology.kernel_of_inflation", "cohomology.solve_coboundary", "relations.relation_check"}


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _ffrak_generate(counts, args, kwargs, result):
    n = _arg(args, kwargs, 1, "omega").order
    counts["tables.ffrak_generate.built"] += n * n + n
    counts["tables.ffrak_generate.kept"] += sum(1 for t in result.generators if t.values.any())


def _make_field(counts, args, kwargs, result):
    counts["finfield.dlog_entries"] += result.q


def _solve_linear(counts, args, kwargs, result):
    a = _arg(args, kwargs, 0, "a")
    counts["modring.system_cells"] += a.rows * a.cols
    counts["modring.solve_linear.none"] += result is None


def _nullspace(counts, args, kwargs, result):
    mat = _arg(args, kwargs, 0, "mat")
    counts["modring.system_cells"] += mat.rows * mat.cols


def _enumerate_homs(counts, args, kwargs, result):
    counts["heisenberg.images_enumerated"] += _arg(args, kwargs, 1, "field").n ** 3


def _relation_check(counts, args, kwargs, result):
    counts["relations.cond6_cells"] += (_arg(args, kwargs, 1, "omega").field.q - 1) ** 2


DERIVED = {
    "tables.ffrak_generate": _ffrak_generate,
    "finfield.make_field": _make_field,
    "modring.solve_linear": _solve_linear,
    "modring.nullspace": _nullspace,
    "heisenberg.enumerate_homs_check": _enumerate_homs,
    "relations.relation_check": _relation_check,
}


class Tracer:
    """Spans of the TARGETS whose span names are in ``only`` (default: all)."""

    def __init__(self, only=None):
        self.only = set(TARGETS.values()) if only is None else set(only)
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.job = None
        self._open: list[int] = []
        self._peaks: list[list[int]] = []  # [allocated at entry, peak seen] per open peak span
        self._patches: list[tuple[object, str, object]] = []

    # -- patching --

    def install(self) -> None:
        for mod_name, _ in TARGETS:
            importlib.import_module(f"abelcentral.{mod_name}")
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "abelcentral" or name.startswith("abelcentral.")}
        for (mod_name, attr), span_name in TARGETS.items():
            if span_name not in self.only:
                continue
            mod = modules[f"abelcentral.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                self._patch(cls, meth, self._wrap(span_name, getattr(cls, meth)))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(span_name, original)
            for owner in modules.values():
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._patch(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _patch(self, owner, key, wrapper) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _wrap(self, name: str, fn):
        spans, open_, counts = self.spans, self._open, self.counts
        derive = DERIVED.get(name)
        peak = name in PEAK_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1, self.job]
            open_.append(len(spans))
            spans.append(span)
            track = peak and tracemalloc.is_tracing()
            if track:
                self._enter_peak()
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                open_.pop()
                if track:
                    span.append(self._exit_peak())
            if derive is not None:
                derive(counts, args, kwargs, result)
            return result

        return wrapper

    # -- peak allocation of nested spans from one global tracemalloc peak --

    def _enter_peak(self) -> None:
        current, peak = tracemalloc.get_traced_memory()
        if self._peaks:
            self._peaks[-1][1] = max(self._peaks[-1][1], peak)
        tracemalloc.reset_peak()
        self._peaks.append([current, current])

    def _exit_peak(self) -> int:
        _, peak = tracemalloc.get_traced_memory()
        start, seen = self._peaks.pop()
        seen = max(seen, peak)
        if self._peaks:
            self._peaks[-1][1] = max(self._peaks[-1][1], seen)
        return seen - start

    # -- results --

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self seconds and peak allocated bytes."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                covered[span[3]] += span[2] - span[1]
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "peak_bytes": 0})
        for span, inner in zip(self.spans, covered):
            agg = out[span[0]]
            agg["calls"] += 1
            agg["self_s"] += span[2] - span[1] - inner
            if len(span) > 5:
                agg["peak_bytes"] = max(agg["peak_bytes"], span[5])
        return out

    def write(self, path: str) -> None:
        with gzip.open(path, "wt") as fh:
            for i, span in enumerate(self.spans):
                name, start, end, parent, job = span[:5]
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")
