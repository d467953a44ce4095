"""Spans around calls into anticonc's public functions, recorded from outside
the package.

Modules bind names at import (``bounds`` and ``cli`` import ``mc_q``,
``verify`` imports ``violation_condition``, ``concentration`` imports
``cp_sample_rng``), so ``Tracer.install`` replaces a function under every
name that refers to it in every loaded ``anticonc`` module.  Spans are kept
in memory and written out by ``Tracer.write``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# A span is [name, start, end, parent index or -1, op id, counters or None].
NAME, START, END, PARENT, OP, COUNTS = range(6)


def _exact_q_label(args, kwargs):
    f = args[0] if args else kwargs["f"]
    return f"concentration.exact_q.{f.dim}d"


def _count_mc_q(args, kwargs, out):
    n = args[2] if len(args) > 2 else kwargs["n_samples"]
    return {"samples": int(n)}


def _count_atoms_in(args, kwargs, out):
    f = args[0] if args else kwargs["f"]
    return {"atoms_in": f.n_atoms}


def _count_atoms_out(args, kwargs, out):
    return {"atoms_out": out.n_atoms}


def _count_evaluations(args, kwargs, out):
    return {"evaluations": out.evaluations}


def _count_iterations(args, kwargs, out):
    return {"iterations": out.iterations}


# (module, attribute, span name or label function, counter function,
#  whether the returned samples are counted for distinct rows)
TARGETS = (
    ("cli", "main", "cli.main", None, False),
    ("instances", "load_instances", "instances.load_instances", None, False),
    ("bounds", "build_bound_report", "bounds.build_bound_report", None, False),
    ("bounds", "verify_pointwise_chain", "bounds.verify_pointwise_chain", None, False),
    ("verify", "run_verification", "verify.run_verification", None, False),
    ("concentration", "mc_q", "concentration.mc_q", _count_mc_q, False),
    ("concentration", "WeightedSum.sample", "concentration.WeightedSum.sample", None, True),
    ("distributions", "cp_sample_rng", "distributions.cp_sample_rng", None, True),
    ("concentration", "exact_q_of_distribution", _exact_q_label, _count_atoms_in, False),
    (
        "concentration",
        "weighted_sum_distribution",
        "concentration.weighted_sum_distribution",
        _count_atoms_out,
        False,
    ),
    ("concentration", "esseen_upper_q", "concentration.esseen_upper_q", None, False),
    ("concentration", "regularity_check", "concentration.regularity_check", None, False),
    ("progressions", "beta_rm", "progressions.beta_rm", _count_evaluations, False),
    ("progressions", "gamma_rs", "progressions.gamma_rs", _count_evaluations, False),
    ("progressions", "uncovered_mass", "progressions.uncovered_mass", None, False),
    ("lcd", "compute_lcd", "lcd.compute_lcd", _count_iterations, False),
    ("lcd", "violation_condition", "lcd.violation_condition", None, False),
)


class Tracer:
    """Records one span per wrapped call made while an op is open."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = None
        self._samples = []  # (span, sample array), counted after the op

    def wrap(self, fn, name, count=None, keep_samples=False):
        spans = self.spans
        stack = self._stack
        label = name if callable(name) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            span = [
                label(args, kwargs) if label else name,
                0.0,
                0.0,
                stack[-1] if stack else -1,
                self._op,
                None,
            ]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[END] = time.perf_counter()
                stack.pop()
                span[COUNTS] = {"failed": 1}
                raise
            span[END] = time.perf_counter()
            stack.pop()
            if count is not None:
                span[COUNTS] = count(args, kwargs, out)
            if keep_samples:
                self._samples.append((span, out))
            return out

        return traced

    def install(self):
        """Wrap every TARGETS function under each name that refers to it."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "anticonc"]
        for module, attr, name, count, keep in TARGETS:
            home = importlib.import_module(f"anticonc.{module}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, meth, self.wrap(getattr(cls, meth), name, count, keep))
                continue
            original = getattr(home, attr)
            wrapper = self.wrap(original, name, count, keep)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def begin_op(self, op_id: int):
        self._op = op_id

    def end_op(self):
        """Close the op and count distinct sample rows (outside any span)."""
        import numpy as np

        self._op = None
        for span, samples in self._samples:
            span[COUNTS] = {
                "samples": int(samples.shape[0]),
                "distinct": int(np.unique(samples, axis=0).shape[0]),
            }
        self._samples.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span[:COUNTS] + [span[COUNTS] or {}]) + "\n")


def layer_totals(spans, lo: int, hi: int) -> dict:
    """Per-name calls, inclusive busy time, self time and summed counters of
    ``spans[lo:hi]``, a run of whole ops (parents are indices into ``spans``).

    ``busy_s`` counts a span only when no ancestor has the same name, so
    recursion is not counted twice; ``self_s`` subtracts the direct children.
    """
    child_time = defaultdict(float)
    for i in range(lo, hi):
        span = spans[i]
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    out = defaultdict(lambda: defaultdict(float))
    for i in range(lo, hi):
        span = spans[i]
        dur = span[END] - span[START]
        rec = out[span[NAME]]
        rec["calls"] += 1
        rec["self_s"] += dur - child_time[i]
        parent = span[PARENT]
        while parent >= 0 and spans[parent][NAME] != span[NAME]:
            parent = spans[parent][PARENT]
        if parent < 0:
            rec["busy_s"] += dur
        for key, value in (span[COUNTS] or {}).items():
            rec[key] += value
    return out
