"""Spans and counts around the public functions of each gravoptics layer.

The tracer wraps functions from outside the package: every module attribute
that is the original function object (the defining module and every module
that imported the name) is replaced by a wrapper while the tracer is
installed, and restored by ``uninstall``.  Spans are recorded only inside an
op (``with tracer.op():``), so checks that call the package are not counted.
A span's self time is its duration minus that of its direct children.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute) of each traced function; the span is named module.attribute
TARGETS = (
    ("cli", "load_config"),
    ("cli", "_grid"),
    ("cli", "_emit"),
    ("counting", "delta_pn"),
    ("counting", "closed_form_p012"),
    ("counting", "prob_n_hafnian"),
    ("counting", "loop_hafnian"),
    ("counting", "counting_matrices"),
    ("series", "exp_bivariate_quadratic"),
    ("correlations", "g2_ideal"),
    ("tomography", "simulate_phase_sweep"),
    ("tomography", "reconstruct_gaussian"),
    ("tomography", "delta_g2_terms"),
    ("fock", "build_gw_density"),
    ("fock", "evolved_bar_density"),
    ("fock", "splitting_column"),
    ("dynamics", "lyapunov_bar_marginal"),
)


class _CountingWriter:
    """File-like proxy that counts the characters written through it."""

    def __init__(self, inner):
        self.inner = inner
        self.count = 0

    def write(self, text: str) -> int:
        self.count += len(text)
        return self.inner.write(text)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []  # (id, name index, start, end, parent id, op index)
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.dims: list[int] = []
        self.emit_chars = 0
        self.ops = 0
        self._stack: list[list] = []  # [span id, name index, start, child time]
        self._patched: list[tuple] = []
        self._next_id = 0

    # -- recording -------------------------------------------------------
    def _name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _enter(self, index: int) -> None:
        self._stack.append([self._next_id, index, time.perf_counter(), 0.0])
        self._next_id += 1

    def _exit(self) -> None:
        end = time.perf_counter()
        span_id, index, start, child = self._stack.pop()
        duration = end - start
        name = self.names[index]
        self.calls[name] += 1
        self.self_s[name] += duration - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.spans.append((span_id, index, start, end, parent[0] if parent else None, self.ops))

    @contextmanager
    def op(self):
        """Root span of one op; wrapped functions record only inside it."""
        self._enter(self._name_index("op"))
        try:
            yield
        finally:
            self._exit()
            self.ops += 1

    def _wrap(self, name: str, fn):
        index = self._name_index(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            if name == "fock.evolved_bar_density":
                tracer.dims.append(args[0].dim)
            if name == "cli._emit":
                out = _CountingWriter(args[2])
                args = (args[0], args[1], out, *args[3:])
            tracer._enter(index)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit()
                if name == "cli._emit":
                    tracer.emit_chars += out.count

        return traced

    # -- patching --------------------------------------------------------
    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "gravoptics" or k.startswith("gravoptics.")]
        for mod, attr in TARGETS:
            name, original = f"{mod}.{attr}", getattr(sys.modules[f"gravoptics.{mod}"], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, binding, original))
                        setattr(module, binding, wrapper)
        # the eigvalsh positivity check of every truncated density matrix
        state_cls = sys.modules["gravoptics.fock"].TruncatedState
        original = state_cls.__post_init__
        self._patched.append((state_cls, "__post_init__", original))
        state_cls.__post_init__ = self._wrap("fock.TruncatedState.init", original)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results ---------------------------------------------------------
    def per_op_ms(self, name: str) -> float:
        return 1e3 * self.self_s.get(name, 0.0) / max(self.ops, 1)

    def per_op_calls(self, name: str) -> float:
        return self.calls.get(name, 0) / max(self.ops, 1)

    def dim_stats(self) -> tuple[float, float]:
        if not self.dims:
            return 0.0, 0.0
        return float(statistics.median(self.dims)), float(max(self.dims))

    def dump(self) -> dict:
        origin = min((s[2] for s in self.spans), default=0.0)
        return {
            "names": self.names,
            "fields": ["id", "name", "start_us", "end_us", "parent", "op"],
            "spans": [
                [sid, idx, round((s - origin) * 1e6, 1), round((e - origin) * 1e6, 1), parent, op]
                for sid, idx, s, e, parent, op in sorted(self.spans)
            ],
        }
