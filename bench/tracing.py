"""Span tracing of privdet from outside the package.

The tracer wraps module functions at every name through which they are
called: a function imported by name into another module (``from .metrics
import full_report`` in ``design``) is replaced there too, so a call made
through that name still opens a span.  Each span records its layer (the
module that defines the function), its parent span and its start and end
time.  Spans are kept in memory; ``write_jsonl`` writes them out when the
run ends.  A wrapped name that no longer exists marks its layer absent; it
does not stop the run.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import sys
import time

LAYERS = ("cli", "design", "metrics", "model", "detection", "simplex", "epic", "relations")

#: layer -> wrapped names, as "function" or "Class.method", in module privdet.<layer>.
#: Every binding of the same function object in any privdet module is wrapped.
WRAPPED = {
    "cli": ("main", "run_sweep", "_run_group", "_evaluate_mapping", "_run_epic_cell"),
    "design": (
        "chain_designs",
        "design",
        "design_ldp",
        "design_ill",
        "design_lip",
        "design_inp",
        "design_info_stage",
        "ldp_closed_form_step",
        "ldp_lp_step",
        "_stage_column_stats",
        "_audited_waterfill",
        "_enforce_info_budget",
    ),
    "metrics": (
        "full_report",
        "info_privacy_budget",
        "per_sensor_mutual_information",
        "empirical_budgets",
        "mutual_information",
        "max_abs_log_posterior_ratio",
        "_joint_xz",
    ),
    "model": (
        "push_forward",
        "push_forward_model",
        "generate_correlated_model",
        "load_model",
        "JointModel.p_x",
        "JointModel.joint_hgx",
        "JointModel.sample",
    ),
    "detection": (
        "optimal_fusion_rule",
        "optimal_rule_from_pushed",
        "bayes_error_H_pushed",
        "bayes_error_G_pushed",
        "min_risk_detector",
        "compute_c_G",
    ),
    "simplex": ("solve_lp",),
    "epic": (
        "epic_solve",
        "eldp_solve",
        "dataset_from_model",
        "holdout_errors",
        "gram_matrix",
        "_fit_representer",
    ),
    "relations": ("check_bound_suite", "all_witnesses"),
}


def _lp_cells(args, kwargs) -> int:
    """Rows x columns of the constraint matrices passed to solve_lp."""
    names = ("c", "a_ub", "b_ub", "a_eq", "b_eq")
    bound = dict(zip(names, args))
    bound.update(kwargs)
    n_cols = len(bound["c"])
    rows = sum(len(bound[k]) for k in ("a_ub", "a_eq") if bound.get(k) is not None)
    return rows * n_cols


class Span:
    __slots__ = ("sid", "parent", "layer", "name", "t0", "t1", "cells", "error", "args", "result")

    def __init__(self, sid, parent, layer, name):
        self.sid = sid
        self.parent = parent
        self.layer = layer
        self.name = name
        self.t0 = self.t1 = 0.0
        self.cells = 0
        self.error = ""
        self.args = self.result = None


class Tracer:
    """Wraps the names in ``WRAPPED`` while installed and records spans."""

    #: names whose call arguments and results are kept for the output checks
    CAPTURE = ("design.chain_designs", "design.design_inp", "epic.epic_solve", "epic.eldp_solve")

    def __init__(self, package: str = "privdet"):
        self.package = package
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.absent: list[str] = []  # "layer.name" that could not be resolved
        self.sites: list[str] = []  # "module.name" bindings replaced
        self._targets = self._resolve()

    def _resolve(self):
        targets = []
        for layer, names in WRAPPED.items():
            try:
                module = importlib.import_module(f"{self.package}.{layer}")
            except ImportError:
                self.absent.extend(f"{layer}.{n}" for n in names)
                continue
            for name in names:
                owner, attr = module, name
                if "." in name:
                    cls_name, attr = name.split(".", 1)
                    owner = getattr(module, cls_name, None)
                fn = getattr(owner, attr, None) if owner is not None else None
                if not callable(fn):
                    self.absent.append(f"{layer}.{name}")
                    continue
                targets.append((layer, name, owner, attr, fn))
        return targets

    def absent_layers(self) -> list:
        present = {layer for layer, *_ in self._targets}
        return [layer for layer in LAYERS if layer not in present]

    def _wrap(self, layer, name, fn):
        qual = f"{layer}.{name}"
        capture = qual in self.CAPTURE
        signature = inspect.signature(fn) if capture else None
        is_lp = layer == "simplex"
        is_xz = qual == "metrics._joint_xz"
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = Span(len(spans), stack[-1].sid if stack else -1, layer, qual)
            spans.append(span)
            if is_lp:
                span.cells = _lp_cells(args, kwargs)
            if capture:
                span.args = signature.bind(*args, **kwargs).arguments
            stack.append(span)
            span.t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.t1 = clock()
                stack.pop()
            if is_xz:
                span.cells = int(out.size)
            if capture:
                span.result = out
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Replace every binding of each target while the block runs."""
        modules = [
            m for k, m in list(sys.modules.items())
            if m is not None and (k == self.package or k.startswith(self.package + "."))
        ]
        replaced = []
        try:
            for layer, name, owner, attr, fn in self._targets:
                wrapper = self._wrap(layer, name, fn)
                if isinstance(owner, type):
                    replaced.append((owner, attr, fn))
                    setattr(owner, attr, wrapper)
                    continue
                for module in modules:
                    for key, val in list(vars(module).items()):
                        if val is fn:
                            replaced.append((module, key, fn))
                            setattr(module, key, wrapper)
            self.sites = sorted(
                {f"{getattr(o, '__name__', o)}.{k}" for o, k, _ in replaced}
            )
            yield self
        finally:
            for owner, key, fn in reversed(replaced):
                setattr(owner, key, fn)

    def take(self) -> list:
        """Spans recorded since the last call, in start order."""
        out = self.spans[:]
        self.spans.clear()
        return out


def pass_metrics(spans, ok_ops: int) -> dict:
    """Per-layer figures for the spans of one pass."""
    child_time = {}
    by_id = {sp.sid: sp for sp in spans}
    for sp in spans:
        if sp.parent >= 0:
            child_time[sp.parent] = child_time.get(sp.parent, 0.0) + (sp.t1 - sp.t0)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = 0
        out[f"{layer}.self_s"] = 0.0
    out.update({
        "cli.design_s": 0.0, "cli.evaluate_s": 0.0,
        "design.block_steps": 0, "design.info_stage_s": 0.0,
        "metrics.reports": 0, "metrics.xz_cells": 0,
        "simplex.solves": 0, "simplex.lp_cells": 0, "simplex.infeasible": 0,
        "epic.fits": 0, "epic.fit_s": 0.0, "epic.gram_s": 0.0,
    })
    for sp in spans:
        dur = sp.t1 - sp.t0
        out[f"{sp.layer}.calls"] += 1
        out[f"{sp.layer}.self_s"] += dur - child_time.get(sp.sid, 0.0)
        parent = by_id.get(sp.parent)
        if sp.layer == "design" and parent is not None and parent.layer == "cli":
            out["cli.design_s"] += dur
        if sp.name == "cli._evaluate_mapping":
            out["cli.evaluate_s"] += dur
        elif sp.name in ("design.ldp_closed_form_step", "design.ldp_lp_step"):
            out["design.block_steps"] += 1
        elif sp.name == "design.design_info_stage":
            out["design.info_stage_s"] += dur
        elif sp.name == "metrics.full_report":
            out["metrics.reports"] += 1
        elif sp.name == "metrics._joint_xz":
            out["metrics.xz_cells"] += sp.cells
        elif sp.layer == "simplex":
            out["simplex.solves"] += 1
            out["simplex.lp_cells"] += sp.cells
            out["simplex.infeasible"] += sp.error == "LPInfeasible"
        elif sp.name == "epic._fit_representer":
            out["epic.fits"] += 1
            out["epic.fit_s"] += dur
        elif sp.name == "epic.gram_matrix":
            out["epic.gram_s"] += dur
    out["metrics.reports_per_op"] = out["metrics.reports"] / ok_ops if ok_ops else 0.0
    return out


def unit(key: str) -> str:
    """Unit of a per-layer metric named by ``pass_metrics``."""
    if key.endswith("_cells"):
        return "cells"
    if key.endswith("_per_op"):
        return "reports/op"
    return "s" if key.endswith("_s") else "count"


def write_jsonl(path, passes, tracer: Tracer) -> None:
    """One header line, then one line per span: [pass, id, parent, name, t0, t1, error]."""
    with open(path, "w", encoding="utf-8") as fh:
        header = {"sites": tracer.sites, "absent": tracer.absent, "passes": len(passes)}
        fh.write(json.dumps(header) + "\n")
        for k, spans in enumerate(passes):
            for sp in spans:
                fh.write(
                    json.dumps([k, sp.sid, sp.parent, sp.name, sp.t0, sp.t1, sp.error]) + "\n"
                )
