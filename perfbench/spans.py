"""Spans and counters for the traced run, recorded from outside the program.

``Tracer.install`` replaces the public functions of ``mcgcert`` with timing
wrappers under every module-level name that refers to them, so calls from
``cli``, ``constructions`` and the benchmark itself all pass through a
wrapper; the source is left untouched.  Each span records a name, a start,
an end and its parent, and stays in memory until the run writes the trace.

``Word.__mul__`` runs millions of times a pass, too often for one span per
call: its calls and time are summed per parent span instead, and that sum
counts as child time of the parent.
"""

from __future__ import annotations

import contextlib
import json
import statistics
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# Every per-layer metric the traced run reports, as BENCHMARK.json lists it.
LAYER_METRICS = tuple(
    (m["name"], m["unit"])
    for m in json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())["per_layer"]
)

MUL = "words.mul"


def _ball_size(rank, radius):
    return 1 + sum(2 * rank * (2 * rank - 1) ** (k - 1) for k in range(1, radius + 1))


def _letters(words):
    return sum(len(w.letters) for w in words)


def _function_counters():
    """(module, function name, span name, counts from (args, result))."""
    from mcgcert import cli, constructions, fpgroup, quasi, stallings, words

    return (
        (cli, "load_presentation", "cli.read", None),
        (cli, "load_coset_table", "cli.read", None),
        (cli, "load_word_list", "cli.read", None),
        (constructions, "verify_all", "constructions.verify_all", None),
        (
            fpgroup,
            "tietze_simplify",
            "fpgroup.tietze_simplify",
            lambda a, r: {
                "calls": 1,
                "in_letters": _letters(a[0].relators),
                "out_generators": r.alphabet.rank,
                "out_relators": len(r.relators),
            },
        ),
        (fpgroup, "abelianization", "fpgroup.abelianization", None),
        (
            fpgroup,
            "smith_normal_form",
            "fpgroup.smith_normal_form",
            lambda a, r: {"cells": len(a[0]) * (len(a[0][0]) if a[0] else 0)},
        ),
        (fpgroup, "todd_coxeter", "fpgroup.todd_coxeter", lambda a, r: {"cosets": r.index}),
        (fpgroup, "regular_coset_table", "fpgroup.regular_coset_table", None),
        (fpgroup, "perm_image", "fpgroup.perm_image", None),
        (
            fpgroup,
            "reidemeister_schreier",
            "fpgroup.reidemeister_schreier",
            lambda a, r: {
                "generators": r.presentation.alphabet.rank,
                "relator_letters": _letters(r.presentation.relators),
            },
        ),
        (
            stallings,
            "subgroup_graph",
            "stallings.subgroup_graph",
            lambda a, r: {"input_letters": _letters(a[1])},
        ),
        (stallings, "from_coset_action", "stallings.from_coset_action", None),
        (
            quasi,
            "defect_ball",
            "quasi.defect_ball",
            lambda a, r: {"pairs": _ball_size(a[0].domain.rank, a[1]) ** 2},
        ),
        (quasi, "independence_rank", "quasi.independence_rank", None),
        (words, "ball", "words.ball", None),
    )


class Tracer:
    """Records spans, per-parent call sums for ``words.mul``, and counters,
    inside passes only: calls made while checking outputs are not traced."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.leaf = defaultdict(lambda: [0, 0.0])  # parent index -> [calls, seconds]
        self.counters = []  # one dict per pass
        self.stack = []
        self._restore = []

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name):
        if not self.stack:
            yield
            return
        index = len(self.spans)
        self.spans.append([name, perf_counter(), None, self.stack[-1]])
        self.stack.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = perf_counter()
            self.stack.pop()

    @contextlib.contextmanager
    def timed_pass(self):
        self.counters.append(defaultdict(int))
        self.spans.append(["bench.pass", perf_counter(), None, -1])
        self.stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self.spans[self.stack.pop()][2] = perf_counter()

    def count(self, prefix, values):
        if self.stack:
            counters = self.counters[-1]
            for key, value in values.items():
                counters[f"{prefix}.{key}"] += value

    # -- installing wrappers -----------------------------------------------

    def _replace(self, owner, attr, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _wrap(self, fn, name, counts):
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counts is not None:
                self.count(name, counts(args, result))
            return result

        return wrapper

    def install(self):
        import mcgcert
        from mcgcert import cli, constructions, fpgroup, quasi, stallings, words

        modules = (mcgcert, cli, constructions, fpgroup, quasi, stallings, words)
        for home, attr, name, counts in _function_counters():
            fn = getattr(home, attr)
            wrapper = self._wrap(fn, name, counts)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._replace(module, key, wrapper)

        graph = stallings.SubgroupGraph
        self._replace(
            graph,
            "intersect",
            self._wrap(graph.intersect, "stallings.intersect", lambda a, r: {"vertices": r.vertices}),
        )
        self._replace(graph, "basis", self._wrap(graph.basis, "stallings.basis", None))

        run_one = constructions._run_one

        def traced_run_one(check_id, cfg):
            with self.span(f"constructions.check.{check_id}"):
                return run_one(check_id, cfg)

        self._replace(constructions, "_run_one", traced_run_one)

        mul = words.Word.__mul__
        leaf, stack = self.leaf, self.stack

        def traced_mul(a, b):
            start = perf_counter()
            result = mul(a, b)
            if stack:
                cell = leaf[stack[-1]]
                cell[0] += 1
                cell[1] += perf_counter() - start
            return result

        self._replace(words.Word, "__mul__", traced_mul)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- reading the trace -------------------------------------------------

    def self_times(self):
        """Seconds of each span name over the run, minus the time its
        children cover."""
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for parent, (_, seconds) in self.leaf.items():
            child[parent] += seconds
        out = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            out[name] += end - start - child[i]
        out[MUL] += sum(seconds for _, seconds in self.leaf.values())
        return dict(sorted(out.items(), key=lambda kv: -kv[1]))

    def pass_metrics(self):
        """One dict of per-layer metrics per pass."""
        root = []
        passes = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            root.append(i if parent < 0 else root[parent])
            if parent < 0:
                passes[i] = defaultdict(float, self.counters[len(passes)])
            # a span inside a span of the same name is already counted
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                passes[root[i]][f"{name}.s"] += end - start
        for parent, (calls, seconds) in self.leaf.items():
            metrics = passes[root[parent]]
            metrics[f"{MUL}.calls"] += calls
            metrics[f"{MUL}.s"] += seconds
        for metrics in passes.values():
            metrics["trace.certify.s"] = metrics.pop("bench.pass.s")
        return list(passes.values())

    def layer_metrics(self):
        """Median over passes of every per-layer metric, 0 where unused."""
        passes = self.pass_metrics()
        return {
            name: {"value": statistics.median(p.get(name, 0) for p in passes), "unit": unit}
            for name, unit in LAYER_METRICS
        }

    def to_json(self):
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans
            ],
            "mul_by_parent": [
                {"parent": p, "calls": c, "seconds": t} for p, (c, t) in sorted(self.leaf.items())
            ],
            "self_s": self.self_times(),
        }
