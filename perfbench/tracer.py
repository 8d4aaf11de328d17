"""Spans around calls into each ``lefschetz`` module, recorded from outside.

``Tracer.install`` replaces every module-level binding of the traced public
functions (in every loaded ``lefschetz`` module, so ``lefschetz.cli``'s
imported ``decompose_via_orbit`` and ``orbit``'s own ``compose`` are both
covered) with a wrapper that records a span: name, start, end and the index
of the enclosing span.  Recursive and nested calls go through the same
bindings, so they are attributed to their callers.  Spans are kept in flat
lists in memory and summarised when the run ends; nothing in ``src/`` is
changed.

The harness opens one root span named ``op`` per operation and times each
operation itself as well; ``Tracer.summary`` checks the spans against those
times.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter_ns

TRACED = {
    "exprlang": ("parse_expr", "render_expr"),
    "varieties": ("motive_of", "dimension_of", "exceptional_collection_of", "fec_verdict"),
    "tate": ("tensor", "direct_sum", "poincare"),
    "measures": ("k0_class", "chi_gs", "chi_hd", "hodge_numbers"),
    "sod": ("solve_nc_ranks", "fec_obstruction"),
    "orbit": ("block_unit_iso", "compose", "decompose_via_orbit"),
    "cli": ("main",),
}
LAYERS = tuple(TRACED)
ROOT = "op"
# An operation's self times may fall short of its separately measured wall
# time by at most this much (the root span's own open and close).
WALL_TOLERANCE_NS = 1_000_000
WALL_TOLERANCE_SHARE = 0.01
# Share of wall time outside every traced function: the harness's own code
# plus any library call the tracer does not see.
HARNESS_MAX = 0.1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.stack: list[int] = []
        self.opaque_parts = 0
        self._undo: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0)
        self.stack.append(idx)
        self.starts.append(perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = perf_counter_ns()
        self.stack.pop()

    def _wrap(self, name, fn):
        tracer = self
        top_motive = name == "varieties.motive_of"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.stack:
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if top_motive and tracer.names[tracer.parents[idx]] != name:
                tracer.opaque_parts += len(out.opaque)
            return out

        return traced

    def install(self) -> None:
        """Patch every binding of the traced functions in loaded lefschetz modules."""
        modules = [m for n, m in list(sys.modules.items()) if n == "lefschetz" or n.startswith("lefschetz.")]
        for layer, funcs in TRACED.items():
            home = sys.modules["lefschetz." + layer]
            for func in funcs:
                orig = getattr(home, func)
                wrapped = self._wrap("%s.%s" % (layer, func), orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._undo.append((mod, attr, value))
                            setattr(mod, attr, wrapped)
        cls = sys.modules["lefschetz.orbit"].OrbitMorphism
        self._undo.append((cls, "__init__", cls.__init__))
        cls.__init__ = self._wrap("orbit.OrbitMorphism", cls.__init__)

    def uninstall(self) -> None:
        for obj, attr, value in reversed(self._undo):
            setattr(obj, attr, value)
        self._undo.clear()

    def summary(self, op_wall_ns: list[int]) -> dict:
        """Per-span-name calls and self time, per-layer self time, and checks.

        Self time is a span's duration minus its children's; calls nest
        strictly in one thread, so children never overlap.  ``op_wall_ns``
        holds each operation's wall time as the harness measured it around
        the root span.  The books are checked against those times: every self
        time must be >= 0, each operation's self times must add up to its
        measured wall time within the tolerance above, and the time outside
        every traced function must stay below ``HARNESS_MAX`` of the total.
        Each violation is a line in ``problems``.
        """
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        self_ns = list(dur)
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                self_ns[p] -= dur[i]
        problems = []
        calls: dict[str, int] = {}
        selft: dict[str, int] = {}
        op_total: dict[int, int] = {}
        root_of = [0] * n
        for i in range(n):
            name = self.names[i]
            if self_ns[i] < 0 or self.ends[i] == 0:
                problems.append("span %d (%s) has negative self time or never closed" % (i, name))
            calls[name] = calls.get(name, 0) + 1
            selft[name] = selft.get(name, 0) + self_ns[i]
            p = self.parents[i]
            root_of[i] = i if p < 0 else root_of[p]
            op_total[root_of[i]] = op_total.get(root_of[i], 0) + self_ns[i]
        roots = [i for i in range(n) if self.parents[i] < 0]
        n_ops = len(op_wall_ns)
        if len(roots) != n_ops or any(self.names[r] != ROOT for r in roots):
            problems.append("expected %d root spans, found %d" % (n_ops, len(roots)))
        off = [(op_total[r], wall_ns) for r, wall_ns in zip(roots, op_wall_ns)
               if not 0 <= wall_ns - op_total[r] <= WALL_TOLERANCE_NS + WALL_TOLERANCE_SHARE * wall_ns]
        if off:
            problems.append("the self times of %d of %d ops do not add up to their measured wall time "
                            "(first: %d ns against %d ns)" % (len(off), n_ops, *off[0]))
        wall = sum(op_wall_ns)
        harness = wall - sum(v for k, v in selft.items() if k != ROOT)
        if harness > HARNESS_MAX * wall:
            problems.append("%.3f of the traced time is outside every traced function (limit %.2f)"
                            % (harness / wall, HARNESS_MAX))
        compose_in_decompose = sum(
            dur[i] for i in range(n)
            if self.names[i] == "orbit.compose" and self.parents[i] >= 0
            and self.names[self.parents[i]] == "orbit.decompose_via_orbit"
        )
        decompose = sum(dur[i] for i in range(n) if self.names[i] == "orbit.decompose_via_orbit")
        top_motive = sum(
            1 for i in range(n)
            if self.names[i] == "varieties.motive_of" and self.names[self.parents[i]] != "varieties.motive_of"
        )
        return {
            "calls": calls,
            "self_ns": selft,
            "layer_self_ns": {
                layer: sum(v for k, v in selft.items() if k.startswith(layer + "."))
                for layer in LAYERS
            },
            "wall_ns": wall,
            "harness_ns": harness,
            "verify_share": compose_in_decompose / decompose if decompose else 0.0,
            "motive_calls_per_op": top_motive / n_ops if n_ops else 0.0,
            "opaque_parts": self.opaque_parts,
            "problems": problems,
        }
