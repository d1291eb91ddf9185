"""The pipeline each workload runs, its reference check, and the layer
wrappers used for tracing and the memory pass.

A pipeline starts from an instance's text and ends at a verdict, calling
the same library functions `bigrule.cli` wires together: parse, rewriters,
decompose, oracle ground and oracle solve. It calls them through a `Layers`
table, which holds either the plain functions (timed passes) or wrappers
(traced and memory passes), so the untimed bookkeeping stays outside the
functions being measured.
"""

from __future__ import annotations

import time
import tracemalloc
from types import SimpleNamespace

import bigrule
from bigrule import decompose as bigrule_decompose
from bigrule import treedecomp as bigrule_treedecomp
from bigrule.decompose import ESTIMATE_SATURATED
from bigrule.parse import Clause, InputGraph, Qbf
from bigrule.syntax import Atom, GroundProgram, GroundRule, Integer

# Library function -> layer. The treedecomp functions are reached only from
# inside decompose_program, so they are wrapped in place (traced passes only).
LAYER_OF = {
    "parse_graph": "parse",
    "parse_qdimacs": "parse",
    "parse_reified": "parse",
    "threecol_single_rule": "rewriters",
    "qbf2_classic": "rewriters",
    "qbf2_large_rule": "rewriters",
    "disjunctive_to_normal": "rewriters",
    "decompose_program": "decompose",
    "gaifman": "treedecomp",
    "decompose_graph": "treedecomp",
    "validate_td": "treedecomp",
    "root_at_head": "treedecomp",
    "ground": "oracle.ground",
    "has_answer_set": "oracle.solve",
    "answer_sets": "oracle.solve",
    "solve_coloring": "oracle.ref",
    "eval_qbf": "oracle.ref",
    "answer_sets_naive": "oracle.ref",
}
LAYERS = ("parse", "rewriters", "decompose", "treedecomp", "oracle.ground", "oracle.solve", "oracle.ref")
TREEDECOMP_NAMES = ("gaifman", "decompose_graph", "validate_td", "root_at_head")


class Layers(SimpleNamespace):
    """Library entry points by name. `wrap(layer, fn)` may replace each one;
    `tag` names the encoding being run, so spans can be split by it."""

    def __init__(self, wrap=None):
        fns = {name: getattr(bigrule, name) for name in LAYER_OF if name not in TREEDECOMP_NAMES}
        if wrap is not None:
            fns = {name: wrap(LAYER_OF[name], fn) for name, fn in fns.items()}
        super().__init__(tag="", **fns)


class Tracer:
    """Spans recorded in memory: (layer, tag, start, end, parent, instance).
    `parent` is the index of the enclosing span, or -1."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.instance = -1
        self.layers = Layers(self.wrap)

    def wrap(self, layer, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (layer, self.layers.tag, start, end, parent, self.instance)

        return traced

    def patch_treedecomp(self):
        """Wrap the treedecomp functions, both in bigrule.treedecomp and
        where bigrule.decompose imported them by name. Returns the originals
        for `restore_treedecomp`."""
        saved = [
            (module, name, getattr(module, name))
            for module in (bigrule_decompose, bigrule_treedecomp)
            for name in TREEDECOMP_NAMES if hasattr(module, name)
        ]
        for module, name, fn in saved:
            setattr(module, name, self.wrap("treedecomp", fn))
        return saved

    @staticmethod
    def restore_treedecomp(saved):
        for module, name, fn in saved:
            setattr(module, name, fn)

    def self_times(self, first: int, last: int) -> dict[str, float]:
        """Seconds of self time per layer and per `layer@tag` over the spans
        first..last-1, a span's self time being its duration minus the
        durations of its direct children."""
        spans = self.spans[first:last]
        child = [0.0] * len(spans)
        for _, _, start, end, parent, _ in spans:
            if parent >= first:
                child[parent - first] += end - start
        out: dict[str, float] = {}
        for (layer, tag, start, end, _, _), covered in zip(spans, child):
            own = end - start - covered
            out[layer] = out.get(layer, 0.0) + own
            if tag:
                key = f"{layer}@{tag}"
                out[key] = out.get(key, 0.0) + own
        return out


class MemoryProbe:
    """Peak traced allocation of each decompose, ground and solve call,
    taken with tracemalloc. Only for the untimed memory pass."""

    MEASURED = ("decompose", "oracle.ground", "oracle.solve")

    def __init__(self):
        self.peak_mb: dict[str, float] = {}
        self.layers = Layers(self.wrap)

    def wrap(self, layer, fn):
        if layer not in self.MEASURED:
            return fn

        def measured(*args, **kwargs):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                return fn(*args, **kwargs)
            finally:
                peak = (tracemalloc.get_traced_memory()[1] - base) / 2**20
                tag = self.layers.tag
                for key in [layer] + ([f"{layer}@{tag}"] if tag else []):
                    self.peak_mb[key] = max(peak, self.peak_mb.get(key, 0.0))

        return measured


# ----------------------------------------------------------- pipelines --

class Stage(SimpleNamespace):
    """What one program went through: its encoding tag ("classic" for the
    fixed QBF program, "large" for every instance-shaped large-rule
    encoding), the rewritten program, the decomposition report, the
    grounding result and the number of answer sets the solver reported."""


def _solve(layers, program, caps, enumerate_all: bool):
    """decompose -> ground -> solve on one rewritten program."""
    small, report = layers.decompose_program(program)
    result = layers.ground(small, max_ground_rules=caps["max_ground_rules"])
    gp = result.ground_program
    if enumerate_all:
        found = layers.answer_sets(gp, max_atoms=caps["max_atoms"])
    else:
        found = layers.has_answer_set(gp, max_atoms=caps["max_atoms"])
    stage = Stage(tag=layers.tag, program=program, small=small, report=report, result=result,
                  answer_sets=len(found) if enumerate_all else int(found))
    return found, stage


def decide_coloring(layers, text, caps):
    """Verdict: True when the encoding has an answer set, i.e. when the
    graph has no proper 3-colouring."""
    layers.tag = ""
    graph = layers.parse_graph(text)
    layers.tag = "large"
    program = layers.threecol_single_rule(graph)
    found, stage = _solve(layers, program, caps, enumerate_all=False)
    return found, [stage]


def decide_qbf2(layers, text, caps):
    """Verdict: (classic, large), each True when that encoding has an
    answer set, i.e. when the formula is false."""
    layers.tag = ""
    qbf = layers.parse_qdimacs(text)
    verdict, stages = [], []
    for tag, encode in (("classic", layers.qbf2_classic), ("large", layers.qbf2_large_rule)):
        layers.tag = tag
        found, stage = _solve(layers, encode(qbf), caps, enumerate_all=False)
        verdict.append(found)
        stages.append(stage)
    layers.tag = ""
    return tuple(verdict), stages


def decide_shift(layers, text, caps):
    """Verdict: the answer sets of the rewritten program, projected onto
    the atoms `assign(A,1)` chooses, as a set of frozensets of atom ids."""
    layers.tag = ""
    gp_in = layers.parse_reified(text)
    layers.tag = "large"
    program = layers.disjunctive_to_normal(gp_in)
    found, stage = _solve(layers, program, caps, enumerate_all=True)
    gp = stage.result.ground_program
    one = Integer(1)
    projected = set()
    for interp in found:
        chosen = set()
        for i in interp.true_atoms:
            a = gp.atoms[i]
            if a.pred == "assign" and a.args[1] == one:
                chosen.add(a.args[0].name)
        projected.add(frozenset(chosen))
    return projected, [stage]


# ----------------------------------------------------------- references --
# Each reference builds its input from the generator's data, not from the
# parsed text, and returns (expected verdict, problem or None).

def ref_coloring(layers, data, caps):
    graph = InputGraph(
        frozenset(data["vertices"]),
        frozenset((min(u, w), max(u, w)) for u, w in data["edges"]),
    )
    coloring = layers.solve_coloring(graph, max_vertices=caps["max_ref_vertices"])
    if coloring is not None:
        if set(coloring) != set(data["vertices"]):
            return None, "solve_coloring left vertices uncoloured"
        if any(coloring[u] == coloring[w] for u, w in data["edges"]):
            return None, "solve_coloring returned an improper colouring"
    return coloring is None, None


def ref_qbf2(layers, data, caps):
    universal, existential = data["universal"], data["existential"]
    total = universal + existential
    qbf = Qbf(
        (("a", tuple(range(1, universal + 1))), ("e", tuple(range(universal + 1, total + 1)))),
        tuple(Clause.of(lits) for lits in data["clauses"]),
        total,
    )
    false = not layers.eval_qbf(qbf, max_vars=caps["max_ref_qbf_vars"])
    return (false, false), None


def ref_shift(layers, data, caps):
    names = data["atoms"]
    gp = GroundProgram(
        [Atom(name) for name in names],
        [GroundRule(tuple(h), tuple(p), tuple(n)) for h, p, n in data["rules"]],
    )
    sets = layers.answer_sets_naive(gp, max_atoms=caps["max_ref_atoms"])
    return {frozenset(names[i] for i in s.true_atoms) for s in sets}, None


WORKLOADS = {
    "col-grid": (decide_coloring, ref_coloring),
    "col-planted": (decide_coloring, ref_coloring),
    "qbf2": (decide_qbf2, ref_qbf2),
    "shift": (decide_shift, ref_shift),
}


# ---------------------------------------------------------------- counts --

MAXIMA = ("rewriters.max_body", "decompose.width_max", "oracle.solve.atoms_max")


def stage_counts(stages) -> dict[str, int]:
    """Work counts of one instance. They repeat exactly for the same input.
    Each is also kept per encoding tag, as `name@tag`, for the qbf2 split."""
    out: dict[str, int] = {}
    for st in stages:
        own = {
            "rewriters.max_body": max(
                (len(r.pos_body) + len(r.neg_body) + len(r.arith) + len(r.aggregates)
                 for r in st.program.rules),
                default=0,
            ),
            "decompose.width_max": max((s.width for s in st.report.rules), default=0),
            "decompose.rules_out": len(st.small.rules),
            "decompose.est_after": min(sum(s.est_after for s in st.report.rules), ESTIMATE_SATURATED),
            "ground_rules": st.result.rule_count,
            "oracle.ground.atoms": st.result.atom_count,
            "oracle.solve.calls": 1,
            "oracle.solve.atoms_max": len(st.result.ground_program.atoms),
            "oracle.solve.answer_sets": st.answer_sets,
        }
        merge_counts(out, own)
        if st.tag:
            merge_counts(out, {f"{key}@{st.tag}": value for key, value in own.items()})
    return out


def merge_counts(total: dict[str, int], counts: dict[str, int]):
    """Add `counts` into `total`: maxima stay maxima, the estimate is a sum
    saturating like StatsReport's, everything else is summed."""
    for key, value in counts.items():
        name = key.split("@")[0]
        if name in MAXIMA:
            total[key] = max(total.get(key, 0), value)
        elif name == "decompose.est_after":
            total[key] = min(total.get(key, 0) + value, ESTIMATE_SATURATED)
        else:
            total[key] = total.get(key, 0) + value
