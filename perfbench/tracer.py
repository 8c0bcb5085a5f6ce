"""Spans and counters recorded from outside crnkit, by wrapping public functions.

``Tracer.install`` replaces each target function with a timing wrapper in
every loaded ``crnkit`` module that binds it, so calls made through
re-exports and ``from .x import y`` bindings are seen too.  A target that no
longer exists is listed in ``missing`` instead of failing the run.  Spans
stay in memory; ``dump`` writes them out once the run is over.

A span's self time is its duration minus the durations of the spans it
directly encloses.  Times are integer nanoseconds, so the self times of all
spans add up exactly to the durations of the outermost ones.
"""

from __future__ import annotations

import gzip
import json
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

# (defining module, attribute, span name).  Cross-module bindings such as
# crnkit.conservation.nullspace_basis are reached because the wrapper
# replaces every binding of the same function object.
TARGETS = (
    ("crnkit.network", "parse_network", "network.parse_network"),
    ("crnkit.poly", "parse_system", "poly.parse_system"),
    ("crnkit.kinetics", "induced_kinetic_ode", "kinetics.induced_kinetic_ode"),
    ("crnkit.kinetics", "negative_cross_effect", "kinetics.negative_cross_effect"),
    ("crnkit.kinetics", "canonical_realization", "kinetics.canonical_realization"),
    ("crnkit.qfi", "find_quadratic_first_integrals", "qfi.find_quadratic_first_integrals"),
    ("crnkit.qfi", "lie_derivative", "qfi.lie_derivative"),
    ("crnkit.qfi", "generate_diagonal_system", "qfi.generate"),
    ("crnkit.qfi", "generate_binary_form_system", "qfi.generate"),
    ("crnkit.qfi", "generate_mixed_sign_system", "qfi.generate"),
    ("crnkit.qfi", "generate_shifted_system", "qfi.generate"),
    ("crnkit.linalg", "nullspace_basis", "linalg.nullspace_basis"),
    ("crnkit.linalg", "positive_vector_in_span", "linalg.positive_vector_in_span"),
    ("crnkit.linalg", "symmetric_inertia", "linalg.symmetric_inertia"),
    ("crnkit.conservation", "nullspace_basis", "linalg.nullspace_basis"),
    ("crnkit.conservation", "kinetic_conservation", "conservation.kinetic_conservation"),
    ("crnkit.conservation", "stoichiometric_conservation", "conservation.stoichiometric_conservation"),
    ("crnkit.sim", "integrate", "sim.integrate"),
    ("crnkit.sim", "compile_rhs", "sim.compile_rhs"),
    ("crnkit.sim", "drift_report", "sim.drift_report"),
    ("crnkit.cli", "main", "cli.main"),
)
POLYNOMIAL_CLASS = ("crnkit.poly", "Polynomial")


def _max_bits(vectors) -> int:
    bits = 0
    for vec in vectors:
        for v in vec:
            bits = max(bits, abs(v.numerator).bit_length(), v.denominator.bit_length())
    return bits


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, op, name, start_ns, end_ns, self_ns)
        self.counts: Counter = Counter()
        self.max_bits = 0  # largest numerator or denominator in a nullspace basis
        self.missing: list[str] = []
        self.op = -1
        self._next_id = 0
        self._stack: list[list[int]] = []  # [span id, child ns]
        self._patches: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [span_id, 0]
        self._stack.append(frame)
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            self.spans.append((span_id, parent, self.op, name, start, end, duration - frame[1]))

    def _wrap(self, name, fn):
        tracer = self
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            evals_before = tracer.counts["sim.rhs_evals"]
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                result = observe(args, kwargs, result, evals_before)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- sizes derived from arguments and results -----------------------------

    def _observe_linalg_nullspace_basis(self, args, kwargs, result, evals_before):
        rows, ncols = args[0], args[1]
        self.counts["linalg.nullspace_basis.cells"] += len(rows) * ncols
        self.max_bits = max(self.max_bits, _max_bits(result))
        return result

    def _observe_linalg_positive_vector_in_span(self, args, kwargs, result, evals_before):
        self.counts["linalg.positive_vector_in_span.feasible"] += result.vector is not None
        return result

    def _observe_qfi_find_quadratic_first_integrals(self, args, kwargs, result, evals_before):
        self.counts["qfi.found"] += bool(result.found)
        return result

    def _observe_conservation_kinetic_conservation(self, args, kwargs, result, evals_before):
        self.counts["conservation.found"] += result is not None
        return result

    _observe_conservation_stoichiometric_conservation = _observe_conservation_kinetic_conservation

    def _observe_sim_compile_rhs(self, args, kwargs, rhs, evals_before):
        counts = self.counts

        def counted(state):
            counts["sim.rhs_evals"] += 1
            return rhs(state)

        return counted

    def _observe_sim_integrate(self, args, kwargs, trajectory, evals_before):
        config = args[2] if len(args) > 2 else kwargs["config"]
        steps = len(trajectory.times) - 1
        self.counts["sim.accepted_steps"] += steps
        if config.method == "rkf45_adaptive":
            self.counts["sim.rkf45.accepted"] += steps
            self.counts["sim.rkf45.rhs_evals"] += self.counts["sim.rhs_evals"] - evals_before
        return trajectory

    # -- install / remove ---------------------------------------------------------

    def install(self):
        """Wrap every target in every crnkit module that binds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "crnkit" or n.startswith("crnkit.")]
        wrappers: dict[int, object] = {}
        for module_name, attr, span_name in TARGETS:
            module = sys.modules.get(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            if id(fn) in wrappers:
                continue
            wrappers[id(fn)] = self._wrap(span_name, fn)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, name, fn))
                        setattr(mod, name, wrappers[id(fn)])
        self._count_polynomials()

    def _count_polynomials(self):
        module = sys.modules.get(POLYNOMIAL_CLASS[0])
        cls = getattr(module, POLYNOMIAL_CLASS[1], None)
        if cls is None:
            self.missing.append(".".join(POLYNOMIAL_CLASS))
            return
        original = cls.__init__
        counts = self.counts

        def counting_init(self, *args, **kwargs):
            counts["poly.Polynomial.constructed"] += 1
            original(self, *args, **kwargs)

        self._patches.append((cls, "__init__", original))
        cls.__init__ = counting_init

    def remove(self):
        for target, name, original in reversed(self._patches):
            setattr(target, name, original)
        self._patches.clear()

    # -- summaries ----------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, int]]:
        """Per span name: calls and summed self time in ns."""
        out: dict[str, dict[str, int]] = {}
        for _, _, _, name, _, _, self_ns in self.spans:
            entry = out.setdefault(name, {"calls": 0, "self_ns": 0})
            entry["calls"] += 1
            entry["self_ns"] += self_ns
        return out

    def root_ns(self) -> int:
        """Summed duration of the spans no other span encloses."""
        return sum(end - start for _, parent, _, _, start, end, _ in self.spans if parent is None)

    def dump(self, path):
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for span_id, parent, op, name, start, end, self_ns in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "parent": parent, "op": op, "name": name,
                    "start_ns": start, "end_ns": end, "self_ns": self_ns,
                }) + "\n")
