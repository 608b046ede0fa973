"""Span tracer that wraps qcorr's public functions from outside the program.

Each traced function is replaced, in every qcorr module that holds a
reference to it, by a wrapper that records a span: its parent span, its
name and its start and end on ``perf_counter_ns``.  Replacing every
binding matters because callers look functions up in their own module:
``app`` imports ``correlations`` by name, and ``numkernel`` calls
``hermitian_eig`` through its own globals.  Spans stay in memory until
``collect`` folds them into per-function totals, where a span's self time
is its duration minus the durations of its direct children (calls are
nested, never concurrent, in a single thread).

A function that does not exist at the traced commit is listed in
``absent`` and reports zero calls instead of failing the run.
"""

from __future__ import annotations

import functools
import sys
import time

PACKAGE = "qcorr"

# module -> public functions traced, as named by the benchmark's metrics.
TRACED = {
    "cli": ("cli_main",),
    "app": ("run_sweep", "emit_csv", "frozen_lqfi_windows"),
    "audit": ("audit_formulas",),
    "quantifiers": ("correlations", "negativity", "lqu", "lqfi", "pt_eigen_closed"),
    "model": (
        "build_hamiltonian",
        "thermal_state_oracle",
        "thermal_state_closed",
        "derived_scales",
        "x_eigenvalues",
        "closed_spectrum",
    ),
    "decoherence": (
        "apply_dephasing",
        "dephased_spectrum_closed",
        "dephased_pt_eigen_closed",
    ),
    "numkernel": (
        "hermitian_eig",
        "gibbs_exp",
        "psd_sqrt",
        "partial_transpose_first",
        "embed_pauli_first",
        "sym3_eig",
        "sym3_eig_max",
    ),
}
NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)

# Functions whose distinct first arguments are counted within each unit of
# work (between two ``collect`` calls); a state cache would turn repeats of
# these into hits.
DISTINCT_ARG = ("model.thermal_state_oracle",)


class Tracer:
    """Installs span-recording wrappers and folds spans into totals."""

    def __init__(self) -> None:
        self.spans: list = []
        self.absent: list[str] = []
        self.distinct: dict[str, set] = {name: set() for name in DISTINCT_ARG}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, index: int, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        seen = self.distinct.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            if seen is not None and args:
                seen.add(args[0])
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[sid] = (parent, index, start, clock())
                stack.pop()

        return traced

    def install(self) -> None:
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for index, name in enumerate(NAMES):
            mod_name, fn_name = name.split(".")
            home = sys.modules.get(f"{PACKAGE}.{mod_name}")
            original = getattr(home, fn_name, None) if home is not None else None
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(index, name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def collect(self, totals: "Totals") -> None:
        """Fold the recorded spans into ``totals`` and clear them."""
        if self._stack:
            raise RuntimeError("collect called inside a traced call")
        child_ns = [0] * len(self.spans)
        for parent, _, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for sid, (_, index, start, end) in enumerate(self.spans):
            duration = end - start
            totals.calls[index] += 1
            totals.total_ns[index] += duration
            totals.self_ns[index] += duration - child_ns[sid]
        for name, seen in self.distinct.items():
            totals.distinct[name] += len(seen)
            seen.clear()
        self.spans.clear()


class Totals:
    """Per-function call counts and summed times over collected spans."""

    def __init__(self) -> None:
        self.calls = [0] * len(NAMES)
        self.total_ns = [0] * len(NAMES)
        self.self_ns = [0] * len(NAMES)
        self.distinct = {name: 0 for name in DISTINCT_ARG}

    def calls_of(self, name: str) -> int:
        return self.calls[NAMES.index(name)]
