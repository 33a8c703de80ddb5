"""Span tracing from outside the package, and the per-layer metrics.

While installed, a Tracer replaces the package functions that bound each
layer with wrappers that record one span per call: its name, start, end,
the span that was open when it began, whether it raised, and one number
read from its arguments or result (rows of an LP, beta of a scale query,
iterations of an L-BFGS round).  The functions are replaced on the module
that calls them, as the caller looks them up, so nothing under ``src/``
changes.  Spans stay in memory until the run writes them out.
"""

import json
import time

import numpy as np

import minscale
import minscale.cli
import minscale.scale
import minscale.trajopt

# span fields, one list per span
NAME, START, END, PARENT, ERROR, VALUE, DEGENERATE = range(7)


def _rows(args, kwargs, out):
    return float(args[0].m)


def _beta(args, kwargs, out):
    return float(out.beta)


def _iterations(args, kwargs, out):
    return float(out[1].iterations)


# (module, attribute, span name, value read from the call)
TARGETS = (
    (minscale.scale, "vrep_scale_lp", "vrep_scale_lp", None),
    (minscale.scale, "solve", "solve", _rows),
    (minscale.scale, "active_set", "active_set", None),
    (minscale.trajopt, "min_scale_vrep", "min_scale_vrep", _beta),
    (minscale.trajopt, "assemble_active_system", "assemble_active_system", None),
    (minscale.trajopt, "grad_scale_se2", "grad_scale", None),
    (minscale.trajopt, "lbfgs_minimize", "lbfgs_minimize", _iterations),
    (minscale, "plan", "plan", _iterations),
    (minscale, "min_scale_vrep", "min_scale_vrep", _beta),
    (minscale, "assemble_active_system", "assemble_active_system", None),
    (minscale, "grad_scale_se3", "grad_scale", None),
    (minscale.cli, "load_scene", "load_scene", None),
)


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self):
        self.names = []
        self.spans = []
        self._stack = [-1]
        self._saved = []

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name, fn, value=None):
        nid = self._name_id(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [nid, clock(), 0.0, stack[-1], 1, 0.0, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            rec[ERROR] = 0
            if value is not None:
                rec[VALUE] = value(args, kwargs, out)
            if getattr(out, "degenerate", False):
                rec[DEGENERATE] = 1
            return out

        return traced

    def _traced_lbfgs(self, lbfgs):
        def run(objective, *args, **kwargs):
            return lbfgs(self.wrap("objective", objective), *args, **kwargs)
        return run

    def __enter__(self):
        for module, attr, name, value in TARGETS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            fn = self._traced_lbfgs(original) if attr == "lbfgs_minimize" else original
            setattr(module, attr, self.wrap(name, fn, value))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False

    def columns(self):
        """The spans as numpy columns, keyed by field name."""
        s = np.array(self.spans, dtype=float).reshape(-1, 7)
        return {
            "name": s[:, NAME].astype(np.int16),
            "start": s[:, START],
            "end": s[:, END],
            "parent": s[:, PARENT].astype(np.int64),
            "error": s[:, ERROR].astype(np.int8),
            "value": s[:, VALUE],
            "degenerate": s[:, DEGENERATE].astype(np.int8),
        }

    def write(self, path):
        """Write every span to an .npz file, with the name table as JSON."""
        np.savez(path, names=np.array(json.dumps(self.names)), **self.columns())


UNITS = {
    "sdlp.solve_calls": "count",
    "sdlp.solve_s": "s",
    "sdlp.solve_us_median": "us",
    "sdlp.rows_per_solve": "rows",
    "sdlp.active_set_s": "s",
    "scale.query_calls": "count",
    "scale.query_s": "s",
    "scale.lp_build_s": "s",
    "scale.self_s": "s",
    "scale.degenerate_ratio": "ratio",
    "gradient.calls": "count",
    "gradient.s": "s",
    "gradient.failed": "count",
    "trajopt.audit_s": "s",
    "trajopt.audit_queries": "count",
    "trajopt.audit_share": "ratio",
    "trajopt.cost_evals": "count",
    "trajopt.cost_s": "s",
    "trajopt.cost_self_s": "s",
    "trajopt.queries_per_cost_eval": "count",
    "trajopt.hinge_ratio": "ratio",
    "trajopt.lbfgs_iterations": "count",
    "trajopt.rounds": "count",
    "trajopt.evals_per_iteration": "count",
    "cli.load_scene_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _ratio(num, den):
    return float(num) / float(den) if den else 0.0


def layer_metrics(tracer, since, hinge_target):
    """Per-layer metrics over the spans recorded from index ``since`` on.

    Scene loading is timed over the spans before ``since``: the set-up.
    ``hinge_target`` is the scale the optimiser aims for: a cost-evaluation
    query whose beta falls below it feeds the safety hinge.
    """
    cols = tracer.columns()
    ids = {label: i for i, label in enumerate(tracer.names)}
    setup = cols["name"][:since] == ids.get("load_scene", -1)
    load_scene_s = float((cols["end"] - cols["start"])[:since][setup].sum())
    keep = slice(since, None)
    name = cols["name"][keep]
    dur = (cols["end"] - cols["start"])[keep]
    parent = cols["parent"][keep] - since
    error = cols["error"][keep]
    value = cols["value"][keep]
    degenerate = cols["degenerate"][keep]
    n = name.shape[0]

    def is_(label):
        return name == ids.get(label, -1)

    has_parent = parent >= 0
    parent_name = np.full(n, -1)
    parent_name[has_parent] = name[parent[has_parent]]

    def under(label):
        return parent_name == ids.get(label, -1)

    def child_time(mask=None):
        w = dur if mask is None else dur * mask
        return np.bincount(parent[has_parent], weights=w[has_parent], minlength=n)

    solve, query = is_("solve"), is_("min_scale_vrep")
    assemble, grad = is_("assemble_active_system"), is_("grad_scale")
    objective, lbfgs, plan = is_("objective"), is_("lbfgs_minimize"), is_("plan")
    children = child_time()
    lbfgs_children = child_time(lbfgs)
    cost_queries = query & under("objective")
    plan_s = float(dur[plan].sum())
    audit_s = float((dur[plan] - lbfgs_children[plan]).sum())
    cost_evals = int(objective.sum())
    iterations = int(value[lbfgs].sum())
    return {
        "sdlp.solve_calls": int(solve.sum()),
        "sdlp.solve_s": float(dur[solve].sum()),
        "sdlp.solve_us_median": float(np.median(dur[solve]) * 1e6) if solve.any() else 0.0,
        "sdlp.rows_per_solve": float(value[solve].mean()) if solve.any() else 0.0,
        "sdlp.active_set_s": float(dur[is_("active_set")].sum()),
        "scale.query_calls": int(query.sum()),
        "scale.query_s": float(dur[query].sum()),
        "scale.lp_build_s": float(dur[is_("vrep_scale_lp")].sum()),
        "scale.self_s": float((dur[query] - children[query]).sum()),
        "scale.degenerate_ratio": _ratio(degenerate[query].sum(), query.sum()),
        "gradient.calls": int(assemble.sum()),
        "gradient.s": float(dur[assemble | grad].sum()),
        "gradient.failed": int(error[assemble | grad].sum()),
        "trajopt.audit_s": audit_s,
        "trajopt.audit_queries": int((query & under("plan")).sum()),
        "trajopt.audit_share": _ratio(audit_s, plan_s),
        "trajopt.cost_evals": cost_evals,
        "trajopt.cost_s": float(dur[objective].sum()),
        "trajopt.cost_self_s": float((dur[objective] - children[objective]).sum()),
        "trajopt.queries_per_cost_eval": _ratio(cost_queries.sum(), cost_evals),
        "trajopt.hinge_ratio": _ratio((value[cost_queries] < hinge_target).sum(),
                                      cost_queries.sum()),
        "trajopt.lbfgs_iterations": iterations,
        "trajopt.rounds": int(lbfgs.sum()),
        "trajopt.evals_per_iteration": _ratio(cost_evals, iterations),
        "cli.load_scene_s": load_scene_s,
    }
