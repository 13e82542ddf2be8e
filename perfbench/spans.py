"""Span tracing of equicut's public functions, installed from outside.

``Tracer`` replaces every public function of the traced modules with a
timing wrapper, in every module namespace that binds it: ``from
.measure import integral_on`` copies the binding into ``solver``,
``topology`` and ``analysis``, and each copy is a separate path into the
function. Functions reached through a module attribute, such as
``topology.residual_map`` from the solver, are covered by the one binding.
The wrappers are bound only inside ``installed`` (around each traced
operation, and one traced set-up), so output checks never run traced.

Spans (name, start, end, parent, op id, tag) live in flat arrays so that a
few hundred thousand of them per second stay cheap, and are written out
once at the end. A span's self time is its duration minus the time its
direct children cover; calls are sequential in one thread, so child
intervals never overlap.
"""

from __future__ import annotations

import contextlib
import json
import types
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

import equicut
from equicut import analysis, cli, measure, oracle, solver, topology

MODULES = (measure, solver, topology, analysis, oracle, cli)
NAMESPACES = (equicut, *MODULES)
OP = "op"


def public_functions() -> dict:
    """Original function object -> span name, for every public function
    defined in one of the traced modules."""
    found = {}
    for module in MODULES:
        for name, obj in vars(module).items():
            if (
                isinstance(obj, types.FunctionType)
                and not name.startswith("_")
                and obj.__module__ == module.__name__
            ):
                found[obj] = f"{module.__name__.removeprefix('equicut.')}.{name}"
    return found


# Tags record one small integer outcome per span, read by the layer stats.
def _tag_chain(result, args):
    return result[0] is None  # no chain reached v: the evaluation was wasted


def _tag_solve(result, args):
    return SOLVE_STATUS[result.status.value]


def _tag_descent(result, args):
    return tuple(result) != tuple(float(x) for x in args[1])  # moved off its start


SOLVE_STATUS = {"converged": 0, "refined_converged": 1, "best_effort": 2}
TAGS = {
    "solver.chain_cuts": _tag_chain,
    "solver.solve_equitable": _tag_solve,
    "topology.descent_refine": _tag_descent,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.tag = array("b")
        self._stack: list[int] = []
        self._op = -1
        wrappers = {fn: self.wrap(name, fn) for fn, name in public_functions().items()}
        self._bindings = [
            (ns, attr, obj, wrappers[obj])
            for ns in NAMESPACES
            for attr, obj in vars(ns).items()
            if isinstance(obj, types.FunctionType) and obj in wrappers
        ]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        tag = TAGS.get(name)
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self._op)
            self.tag.append(0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            self.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
            if tag is not None:
                self.tag[idx] = tag(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def spans(self) -> int:
        return len(self.name)

    def run_op(self, fn, *args):
        """Run one benchmark operation traced, under its own root span."""
        self._op += 1
        with self.installed():
            return self.wrap(OP, fn)(*args)

    @contextlib.contextmanager
    def installed(self):
        """Bind the wrappers for the duration of the block."""
        for ns, attr, _, wrapper in self._bindings:
            setattr(ns, attr, wrapper)
        try:
            yield
        finally:
            for ns, attr, original, _ in self._bindings:
                setattr(ns, attr, original)

    def write(self, path: Path) -> None:
        """Spans as one .npz of parallel arrays plus the name table."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            name=np.frombuffer(self.name, dtype=np.uint16),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
            tag=np.frombuffer(self.tag, dtype=np.int8),
            names=np.array(json.dumps(self.names)),
        )

    def layer_stats(self) -> "LayerStats":
        return LayerStats(self)


class LayerStats:
    """Per-name counts, self times and tag sums over all recorded spans."""

    def __init__(self, tr: Tracer):
        name = np.frombuffer(tr.name, dtype=np.uint16).astype(np.int64)
        dur = np.frombuffer(tr.end) - np.frombuffer(tr.start)
        parent = np.frombuffer(tr.parent, dtype=np.int64)
        tag = np.frombuffer(tr.tag, dtype=np.int8).astype(np.int64)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - covered
        k = len(tr.names)
        self.ids = {n: i for i, n in enumerate(tr.names)}
        self._count = np.bincount(name, minlength=k)
        self._self = np.bincount(name, weights=self_time, minlength=k)
        self._tags = np.bincount(name, weights=tag, minlength=k)
        self._name, self._parent, self._tag = name, parent, tag
        op_id = self.ids.get(OP)
        self.ops = int(self._count[op_id]) if op_id is not None else 0
        self.op_time = float(dur[name == op_id].sum()) if op_id is not None else 0.0

    def count(self, name: str) -> int:
        i = self.ids.get(name)
        return 0 if i is None else int(self._count[i])

    def calls_per_op(self, name: str) -> float:
        return self.count(name) / self.ops if self.ops else 0.0

    def self_us_per_call(self, name: str) -> float:
        c = self.count(name)
        return 1e6 * float(self._self[self.ids[name]]) / c if c else 0.0

    def self_share(self, name: str) -> float:
        c = self.count(name)
        return float(self._self[self.ids[name]]) / self.op_time if c and self.op_time else 0.0

    def tag_frac(self, name: str) -> float:
        """Share of calls whose tag is nonzero."""
        c = self.count(name)
        return float(self._tags[self.ids[name]]) / c if c else 0.0

    def frac_under_status(self, name: str, parent_name: str, status: str) -> float:
        """Share of calls of ``name`` made directly by a ``parent_name`` solve
        that ended with ``status``, e.g. plateau repairs that converged."""
        value = SOLVE_STATUS[status]
        i, p = self.ids.get(name), self.ids.get(parent_name)
        if i is None or p is None:
            return 0.0
        parents = self._parent[self._name == i]
        if not len(parents):
            return 0.0
        hit = (self._name[parents] == p) & (self._tag[parents] == value)
        return float(hit.sum()) / len(parents)

    def outermost(self, names, among) -> int:
        """Calls of any of ``names`` whose direct parent is none of ``among``."""
        ids = [self.ids[n] for n in names if n in self.ids]
        outer = [self.ids[n] for n in among if n in self.ids]
        parents = self._parent[np.isin(self._name, ids)]
        nested = np.zeros(len(parents), dtype=bool)
        has = parents >= 0
        nested[has] = np.isin(self._name[parents[has]], outer)
        return int((~nested).sum())
