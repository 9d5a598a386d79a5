"""In-memory span tracer that wraps gfharmonic's public functions from outside.

Nothing under ``src/`` knows about tracing.  :meth:`Tracer.install` replaces
the listed functions and methods with wrappers, and rebinds every name that
any ``gfharmonic.*`` module imported with ``from .x import y`` (for example
``frobenius.fourier_matrix``), so import-bound calls are traced too.

Two kinds of wrapper exist:

* spans record ``(name, start, end, parent)`` and give a layer's busy time as
  self time (span time minus the time covered by its direct child spans);
* counters only count calls.  They sit on the cyclotomic scalar kernels,
  which run millions of times per job: a span there would cost more than the
  kernel.  Per-call costs for those kernels come from the micro-runs.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

ROOT = -1

# (module, attribute, span name).  "Class.method" patches a class attribute.
SPANS = (
    ("gf", "make_field", "gf.build"),
    ("hilbert", "ring_for", "hilbert"),
    ("hilbert", "point_projector", "hilbert"),
    ("hilbert", "subspace_projector", "hilbert"),
    ("hilbert", "phi_basis", "hilbert"),
    ("hilbert", "phi_basis_matrix", "hilbert"),
    ("hilbert", "component_character", "hilbert"),
    ("hilbert", "tensor_factorize_phi", "hilbert"),
    ("linalg", "OperatorMatrix.__matmul__", "linalg.matmul"),
    ("linalg", "OperatorMatrix.equals", "linalg.equals"),
    ("linalg", "OperatorMatrix.__add__", "linalg.elementwise"),
    ("linalg", "OperatorMatrix.__sub__", "linalg.elementwise"),
    ("linalg", "OperatorMatrix.scaled", "linalg.elementwise"),
    ("linalg", "OperatorMatrix.adjoint", "linalg.elementwise"),
    ("linalg", "Monomial.__matmul__", "linalg.monomial"),
    ("linalg", "Monomial.left_mul_dense", "linalg.monomial"),
    ("linalg", "Monomial.right_mul_dense", "linalg.monomial"),
    ("linalg", "Monomial.conjugate_dense", "linalg.monomial"),
    ("fourier", "fourier_matrix", "fourier.fourier_matrix"),
    ("fourier", "fourier_spectrum", "fourier.spectrum"),
    ("frobenius", "frobenius_spectrum", "frobenius.spectrum"),
    ("heisenberg", "weyl_expand", "heisenberg.weyl_expand"),
    ("heisenberg", "weyl_reconstruct", "heisenberg.weyl_reconstruct"),
    ("heisenberg", "resolution_of_identity_check",
     "heisenberg.resolution_of_identity"),
    ("heisenberg", "marginal_projectors", "heisenberg.marginals"),
    ("heisenberg", "marginal_sum_alpha", "heisenberg.marginals"),
    ("heisenberg", "marginal_sum_beta", "heisenberg.marginals"),
    ("symplectic", "generator_shear_x", "symplectic.shear_x"),
    ("symplectic", "synthesize", "symplectic.synthesize"),
    ("symplectic", "action_check", "symplectic.action_check"),
    ("symplectic", "transformed_marginals", "symplectic.transformed_marginals"),
    ("symplectic", "closed_form_matrix", "symplectic.closed_form"),
    ("symplectic", "closed_form_elements_check", "symplectic.closed_form"),
    ("jsonio", "matrix_to_json", "jsonio.matrix_to_json"),
    # private, but it is exactly the json.dumps plus the write of CLI output
    ("cli", "_emit", "cli.emit"),
)

COUNTERS = (
    ("cyclo", "CycloRing.scalar", "cyclo.scalar.calls"),
    ("cyclo", "CycloScalar.__mul__", "cyclo.mul.calls"),
    ("cyclo", "ScalarAccumulator.add", "cyclo.acc.terms"),
    ("cyclo", "ScalarAccumulator.add_product", "cyclo.acc.terms"),
)


class Tracer:
    """Span and call-count recorder for one workload run (one process)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []  # (name, start, end, parent index or ROOT)
        self.harness: set[int] = set()  # indices of spans the harness opened
        self._stack = [ROOT]
        self._counts: dict[str, list] = {}

    # -- wrappers -------------------------------------------------------------

    def _span_wrapper(self, fn, name):
        span = self.span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with span(name):
                return fn(*args, **kwargs)
        return wrapper

    def _count_wrapper(self, fn, name):
        cell = self._counts.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def harness_span(self, name: str):
        """A span of the benchmark's own driver code, not of a program layer.

        Its self time is driver code plus program code that no wrapper
        covers, so it counts as unattributed time.
        """
        return self.span(name, harness=True)

    @contextlib.contextmanager
    def span(self, name: str, harness: bool = False):
        """Record one span; nested spans become its children."""
        idx = len(self.spans)
        self.spans.append(None)
        if harness:
            self.harness.add(idx)
        parent = self._stack[-1]
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent)

    # -- installation ---------------------------------------------------------

    def install(self):
        """Patch every listed function, method and import-bound name."""
        for table, make in ((SPANS, self._span_wrapper),
                            (COUNTERS, self._count_wrapper)):
            for module_name, attr, name in table:
                module = sys.modules[f"gfharmonic.{module_name}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    setattr(cls, meth, make(cls.__dict__[meth], name))
                else:
                    _rebind(getattr(module, attr), make(getattr(module, attr), name))

    # -- results --------------------------------------------------------------

    def counts(self) -> dict[str, int]:
        return {name: cell[0] for name, cell in self._counts.items()}

    def summary(self) -> dict:
        """Busy (self) seconds and call counts per span name, top-level totals.

        ``layer_s`` is the time covered by outermost program-layer spans,
        those whose parent is the root or a harness span.  Time outside it
        (interpreter start, imports, harness code, and program code reached
        through no wrapped name) is unattributed.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent != ROOT:
                child[parent] += end - start
        busy: dict[str, float] = {}
        calls: dict[str, int] = {}
        top: dict[str, float] = {}
        layer_s = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            busy[name] = busy.get(name, 0.0) + (end - start) - child[i]
            calls[name] = calls.get(name, 0) + 1
            if parent == ROOT:
                top[name] = top.get(name, 0.0) + (end - start)
            if i not in self.harness and (parent == ROOT or parent in self.harness):
                layer_s += end - start
        return {"busy_s": busy, "calls": calls, "top_level_s": top,
                "layer_s": layer_s, "counts": self.counts()}


def _rebind(original, wrapper):
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "gfharmonic" or mod_name.startswith("gfharmonic."):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
