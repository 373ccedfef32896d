"""Span tracing of asep2's layers, installed from outside the package.

`install` replaces the public functions of every asep2 module, and the
public methods and arithmetic operators of the classes that carry a
layer's work, with wrappers that record one span per call: name, start,
end, parent span and whether the call raised.  Spans are kept in memory
in flat arrays; `Tracer.save` writes them out when the worker exits.

Wrapped objects are rebound in every asep2 module that imported them by
name (e.g. `h_exact` in `cli` and `duality`, `qz_value` in `dynamics`);
class-level aliases such as `LaurentPoly.__rmul__ = __mul__` are wrapped
once per alias, under the alias's own name.

The value types of `lattice` (Config, Positions, Sector) are left alone:
their per-site accessors run over a million times in one `verify all
--L 3` and wrapping them would cost more than the work they do.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = (
    "qring",
    "sparse",
    "lattice",
    "generator",
    "qsym",
    "measures",
    "duality",
    "dynamics",
    "reporting",
    "cli",
)

OPERATORS = frozenset(
    {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
     "__neg__", "__pow__", "__matmul__"}
)
UNTRACED_CLASSES = frozenset({"Config", "Positions", "Sector"})


class Tracer:
    """In-memory span store; span i is (name[i], parent[i], start[i], end[i])."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.stack = [-1]
        # span index -> value returned by the wrapper's hook
        self.tags: dict[int, object] = {}

    def reset(self) -> None:
        """Forget every span recorded so far (call with no span open)."""
        for column in (self.name, self.parent, self.start, self.end, self.raised):
            del column[:]
        self.tags.clear()

    def wrap(self, name: str, fn, hook=None):
        nid = len(self.names)
        self.names.append(name)
        span_name, parents, starts, ends, raised = (
            self.name, self.parent, self.start, self.end, self.raised
        )
        stack, tags, clock = self.stack, self.tags, time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            sid = len(span_name)
            span_name.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            raised.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                raised[sid] = 1
                raise
            finally:
                ends[sid] = clock()
                stack.pop()
            if hook is not None:
                tags[sid] = hook(args, kwargs, out)
            return out

        return span

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "raised": np.frombuffer(self.raised, dtype=np.int8).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, run_id=self.run_id, names=np.array(self.names), **self.arrays())


def _wrappable(obj, module_name: str) -> bool:
    return (
        callable(obj)
        and not isinstance(obj, type)
        and getattr(obj, "__module__", None) == module_name
        and not inspect.isgeneratorfunction(obj)
    )


def install(tracer: Tracer, hooks: dict | None = None) -> int:
    """Wrap every layer's public callables; returns how many were wrapped."""
    hooks = hooks or {}
    wrapped: dict[int, object] = {}  # id(original) -> wrapper
    for layer in LAYERS:
        mod = importlib.import_module(f"asep2.{layer}")
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_"):
                continue
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                if obj.__name__ not in UNTRACED_CLASSES:
                    _wrap_methods(tracer, layer, obj, hooks)
            elif _wrappable(obj, mod.__name__):
                name = f"{layer}.{attr}"
                wrapped[id(obj)] = tracer.wrap(name, obj, hooks.get(name))
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "asep2" and not mod_name.startswith("asep2."):
            continue
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrapped:
                setattr(mod, attr, wrapped[id(obj)])
    return len(wrapped)


def _wrap_methods(tracer: Tracer, layer: str, cls: type, hooks: dict) -> None:
    for attr, raw in list(vars(cls).items()):
        if attr.startswith("_") and attr not in OPERATORS:
            continue
        name = f"{layer}.{cls.__name__}.{attr}"
        hook = hooks.get(name)
        if isinstance(raw, (classmethod, staticmethod)):
            if _wrappable(raw.__func__, cls.__module__):
                setattr(cls, attr, type(raw)(tracer.wrap(name, raw.__func__, hook)))
        elif inspect.isfunction(raw) and _wrappable(raw, cls.__module__):
            setattr(cls, attr, tracer.wrap(name, raw, hook))


# ---------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------


class SpanSummary:
    """Counts, durations and self times computed from a tracer's spans."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = tracer.names
        self.tags = tracer.tags
        self.name = a["name"]
        self.parent = a["parent"]
        self.raised = a["raised"]
        self.dur = a["end"] - a["start"]
        child = np.zeros_like(self.dur)
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child
        self.layer_of_name = np.array(
            [LAYERS.index(n.split(".", 1)[0]) for n in self.names] or [0], dtype=np.int32
        )

    def _ids(self, names) -> np.ndarray:
        wanted = set(names)
        return np.array([i for i, n in enumerate(self.names) if n in wanted], dtype=np.int32)

    def spans_of(self, *names) -> np.ndarray:
        return np.flatnonzero(np.isin(self.name, self._ids(names)))

    def calls(self, *names) -> int:
        return int(self.spans_of(*names).size)

    def failed(self, *names) -> int:
        return int(self.raised[self.spans_of(*names)].sum())

    def outer_time(self, *names) -> float:
        """Wall time inside any of `names`, counting nested calls once."""
        ids = set(self._ids(names).tolist())
        total = 0.0
        for sid in self.spans_of(*names):
            p = self.parent[sid]
            while p >= 0 and self.name[p] not in ids:
                p = self.parent[p]
            if p < 0:
                total += self.dur[sid]
        return float(total)

    def layer_self(self, layer: str) -> float:
        if not self.names:
            return 0.0
        in_layer = self.layer_of_name[self.name] == LAYERS.index(layer)
        return float(self.self_time[in_layer].sum())

    def tagged(self, *names) -> list[tuple[int, object]]:
        """(span, hook value) of each call of `names` that returned."""
        return [(sid, self.tags[sid]) for sid in self.spans_of(*names).tolist() if sid in self.tags]


# ---------------------------------------------------------------------
# the benchmark's per-layer metrics
# ---------------------------------------------------------------------

ESTIMATE = "dynamics.estimate_Q_many"
MATMUL = "sparse.SparseMatrix.__matmul__"
RENDER = "reporting.Report.render"


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


HOOKS = {
    MATMUL: lambda args, kwargs, out: out.nnz,
    # (t, trajectories) of each sampler call
    ESTIMATE: lambda args, kwargs, out: (
        _arg(args, kwargs, 2, "t"), _arg(args, kwargs, 3, "trajectories")
    ),
    # (relations, failed relations) of each rendered report
    RENDER: lambda args, kwargs, out: (
        len(args[0].results), sum(not r.passed for r in args[0].results)
    ),
}


def layer_metrics(s: SpanSummary) -> dict[str, float]:
    """Per-layer counts and times of one traced repetition."""
    def prefixed(prefix, exclude=()):
        return [n for n in s.names if n.startswith(prefix) and n not in exclude]

    sampler = s.tagged(ESTIMATE)
    no_jump = [(sid, n) for sid, (t, n) in sampler if t == 0]
    no_jump_traj = sum(n for _, n in no_jump)
    no_jump_time = sum(float(s.dur[sid]) for sid, _ in no_jump)
    reports = [tag for _, tag in s.tagged(RENDER)]
    m = {
        "qring.mul_calls": s.calls("qring.LaurentPoly.__mul__", "qring.LaurentPoly.__rmul__"),
        "qring.add_calls": s.calls("qring.LaurentPoly.__add__", "qring.LaurentPoly.__radd__"),
        "qring.exact_div_calls": s.calls("qring.exact_div"),
        "sparse.matmul_calls": s.calls(MATMUL),
        "sparse.matmul_out_nnz": sum(tag for _, tag in s.tagged(MATMUL)),
        "sparse.add_calls": s.calls("sparse.SparseMatrix.__add__"),
        "lattice.check_s": s.outer_time(*prefixed("lattice.check_")),
        "lattice.enumerate_sector_calls": s.calls("lattice.enumerate_sector"),
        "generator.build_s": s.outer_time(
            "generator.build_H", "generator.build_H_sector",
            "generator.h_exact", "generator.h_sector_exact",
        ),
        "generator.build_calls": s.calls("generator.build_H", "generator.build_H_sector"),
        "qsym.build_s": s.outer_time(
            "qsym.build_Y", "qsym.build_Y_site", "qsym.build_cartan", "qsym.site_embed"
        ),
        "qsym.check_symmetry_s": s.outer_time("qsym.check_symmetry"),
        "qsym.check_algebra_s": s.outer_time("qsym.check_algebra_relations"),
        "qsym.check_conjugation_s": s.outer_time("qsym.check_conjugation_lemma"),
        "measures.check_reversibility_s": s.outer_time("measures.check_reversibility"),
        "measures.check_other_s": s.outer_time(
            *prefixed("measures.check_", exclude=("measures.check_reversibility",))
        ),
        "duality.build_S_s": s.outer_time("duality.build_S"),
        "duality.check_duality_s": s.outer_time("duality.check_duality"),
        "duality.check_sum_rules_s": s.outer_time("duality.check_sum_rules"),
        "duality.qz_value_calls": s.calls("duality.qz_value"),
        "dynamics.sample_s": s.outer_time(ESTIMATE, "dynamics.estimate_Q"),
        "dynamics.trajectories": sum(n for _, (t, n) in sampler),
        # t = 0 makes no jumps, so it times per-trajectory set-up alone
        "dynamics.traj_setup_us": 1e6 * no_jump_time / no_jump_traj if no_jump_traj else 0.0,
        "dynamics.duality_rhs_s": s.outer_time("dynamics.duality_rhs"),
        "dynamics.evolve_s": s.outer_time("dynamics.evolve"),
        "dynamics.evolve_calls": s.calls("dynamics.evolve"),
        "dynamics.evolve_failed": s.failed("dynamics.evolve"),
        "reporting.relations": sum(r[0] for r in reports),
        "reporting.relations_failed": sum(r[1] for r in reports),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = s.layer_self(layer)
    return m
