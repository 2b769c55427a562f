"""Per-layer tracing of cdalg from outside the package.

`Tracer.install()` wraps each layer's public functions and rebinds the
wrapper in every `cdalg` namespace that holds the original (a
`from .linalg import nullspace` leaves a copy in structure, catalog, cli and
the package itself).  Products are traced by patching `Element.__mul__` on
the class, counting Element x Element products only; the recursive
coordinate kernel below it is left alone.  `uninstall()` restores every
binding.

Each wrapped call is a span.  A span's self time is its duration minus the
durations of the wrapped calls it made; a call into the same group directly
under itself (left_mult_matrix calling matrix_of) is not a new span.
"""

from __future__ import annotations

import sys
import time
import warnings
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

# (module, function, span name); functions sharing a span name form a group
TRACED: Tuple[Tuple[str, str, str], ...] = (
    ("algebra", "is_alternative", "algebra.is_alternative"),
    ("algebra", "parse_element", "algebra.text"),
    ("algebra", "format_element", "algebra.text"),
    ("linalg", "left_mult_matrix", "linalg.mult_matrix"),
    ("linalg", "right_mult_matrix", "linalg.mult_matrix"),
    ("linalg", "matrix_of", "linalg.mult_matrix"),
    ("linalg", "mat_mul", "linalg.mat_mul"),
    ("linalg", "nullspace", "linalg.nullspace"),
    ("linalg", "rref_rows", "linalg.rref_rows"),
    ("linalg", "eigen_kernel", "linalg.eigen_kernel"),
    ("linalg", "symmetric_eigen_float", "linalg.symmetric_eigen_float"),
    ("structure", "zero_divisor_test", "structure.zero_divisor_test"),
    ("structure", "couple_failure", "structure.couple_failure"),
    ("structure", "special_zd_verdict", "structure.special_zd_verdict"),
    ("structure", "decompose", "structure.decompose"),
    ("structure", "annihilator", "structure.annihilator"),
    ("catalog", "run_catalog", "catalog.run_catalog"),
    ("catalog", "write_jsonl", "catalog.write"),
    ("catalog", "write_csv", "catalog.write"),
    ("cli", "main", "cli.main"),
)
MUL = "algebra.mul"


class SpanStats:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


def _entry_bits(matrix) -> int:
    return max((max(abs(x.numerator).bit_length(), x.denominator.bit_length())
                for row in matrix for x in row), default=0)


class Tracer:
    """Aggregated spans for one traced pass; create one per pass."""

    def __init__(self):
        self.stats: Dict[str, SpanStats] = defaultdict(SpanStats)
        self.nullspace_max_bits = 0
        self.eigen_warnings = 0
        # one [span name, child seconds] frame per open span
        self._stack: List[list] = []
        self._restore: List[Tuple[object, str, object]] = []

    def _span(self, name: str, fn: Callable, pre: Callable = None) -> Callable:
        stack, stats, clock = self._stack, self.stats, time.perf_counter

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            t_pre = clock()
            if pre is not None:
                pre(args)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                st = stats[name]
                st.calls += 1
                st.total_s += dt
                st.self_s += dt - frame[1]
                if stack:
                    # the bookkeeping before t0 is tracer cost, not parent work
                    stack[-1][1] += dt + (t0 - t_pre)

        wrapper.__wrapped__ = fn
        return wrapper

    def _note_bits(self, args) -> None:
        self.nullspace_max_bits = max(self.nullspace_max_bits, _entry_bits(args[0]))

    def _recording_warnings(self, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", RuntimeWarning)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.eigen_warnings += sum(
                        issubclass(w.category, RuntimeWarning) for w in caught)
        return wrapper

    def install(self) -> None:
        import cdalg
        from cdalg.algebra import Element

        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "cdalg" or name.startswith("cdalg."))]
        wrapped: Dict[int, Callable] = {}
        for mod_name, func_name, span in TRACED:
            original = getattr(getattr(cdalg, mod_name), func_name)
            pre = self._note_bits if span == "linalg.nullspace" else None
            w = self._span(span, original, pre)
            if span == "linalg.symmetric_eigen_float":
                w = self._recording_warnings(w)
            wrapped[id(original)] = (original, w)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

        orig_mul = Element.__mul__
        mul_span = self._span(MUL, orig_mul)

        def traced_mul(a, b):
            if isinstance(b, Element):
                return mul_span(a, b)
            return orig_mul(a, b)

        self._restore.append((Element, "__mul__", orig_mul))
        Element.__mul__ = traced_mul

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
