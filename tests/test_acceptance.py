"""Acceptance suite: every criterion runs at its stated size and tolerance
and prints one PASS/FAIL line (visible with `pytest -s` or in the captured
output summary)."""

import random
import time

import pytest

from bigrule.cli import _projected
from bigrule.decompose import (
    FreshNamer,
    decompose_program,
    decompose_rule,
    grounding_estimate,
)
from bigrule.oracle import (
    abduce_bruteforce,
    answer_sets,
    eval_qbf,
    ground,
    has_answer_set,
    solve_coloring,
)
from bigrule.parse import (
    emit_qdimacs,
    emit_reified,
    make_graph,
    parse_program,
    parse_qdimacs,
    parse_reified,
    print_program,
)
from bigrule.rewriters import (
    abduction_encoding,
    disjunctive_to_normal,
    qbf2_classic,
    qbf2_large_rule,
    qbf3_large_rule,
    threecol_second_level,
    threecol_single_rule,
)
from bigrule.syntax import Integer, Program, variables_of
from bigrule.treedecomp import (
    TreeDecomposition,
    decompose_graph,
    exact_treewidth,
    gaifman,
    validate_td,
)

from corpus import (
    random_abduction,
    random_ground_program,
    random_partitioned_graph,
    random_qbf2,
    random_qbf3,
    random_safe_rule_program,
)

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def _report(number: int, ok: bool, label: str, detail: str, started: float):
    verdict = "PASS" if ok else "FAIL"
    elapsed = time.time() - started
    print(f"ACCEPTANCE [{number:2d}] {verdict} - {label} ({detail}, {elapsed:.1f}s)")


def _fresh_projected(gp):
    """Answer sets without the decomposition's temp_ and dom_ atoms."""
    return _projected(gp, answer_sets(gp, max_atoms=5000), ("temp_", "dom_"))


def _rule_corpus(count=200):
    rng = random.Random(0xC0FFEE)
    return [
        random_safe_rule_program(
            rng, max_vars=8, max_body=10, max_neg=2,
            domain_size=rng.choice((3, 4)),
        )
        for _ in range(count)
    ]


# 1 ---------------------------------------------------------------------

def test_criterion_1_decomposition_equivalence():
    started = time.time()
    mismatches = []
    programs = _rule_corpus(200)
    for k, program in enumerate(programs):
        left = _fresh_projected(ground(program).ground_program)
        # The estimate keeps most of these rules whole; always splitting
        # checks every decomposition too.
        for threshold in (True, False):
            decomposed, _ = decompose_program(program, threshold=threshold)
            right = _fresh_projected(ground(decomposed).ground_program)
            if left != right:
                mismatches.append((k, threshold))
    ok = not mismatches
    _report(1, ok, "decomposition equivalence",
            f"{len(programs)} rules, {len(mismatches)} mismatches", started)
    assert ok, mismatches
    assert time.time() - started < 60


# 2 ---------------------------------------------------------------------

def test_criterion_2_worked_example_golden():
    started = time.time()
    rule = parse_program("h(X,W) :- e(X,Y), e(Y,Z), not e(Z,W), e(W,X).").rules[0]
    td = TreeDecomposition(
        [frozenset({"X", "W", "Y"}), frozenset({"Y", "Z", "W"})], [(0, 1)], 0
    )
    pieces = decompose_rule(rule, td, FreshNamer("0"))
    expected = [
        parse_program("dom_0_W(W) :- e(W,X).").rules[0],
        parse_program("temp_0_1(Y,W) :- e(Y,Z), dom_0_W(W), not e(Z,W).").rules[0],
        parse_program("h(X,W) :- e(X,Y), e(W,X), temp_0_1(Y,W).").rules[0],
    ]

    def struct(r):
        return (r.head, frozenset(r.pos_body), frozenset(r.neg_body))

    golden = [struct(p) for p in pieces] == [struct(e) for e in expected]
    assert td.width == 2
    _, report = decompose_program(
        Program([rule], parse_program("e(a,b). e(b,c).").facts)
    )
    width_ok = report.rules[0].width == 2
    ok = golden and width_ok
    _report(2, ok, "golden worked-example decomposition",
            f"3 rules exact, width={report.rules[0].width}", started)
    assert ok


# 3 ---------------------------------------------------------------------

def test_criterion_3_2qbf_iff():
    started = time.time()
    rng = random.Random(0x2B2B)
    mismatches = []
    count = 500
    for k in range(count):
        qbf = random_qbf2(rng, max_universal=4, max_exist=4, max_clauses=8)
        want = not eval_qbf(qbf)
        classic = has_answer_set(
            ground(qbf2_classic(qbf)).ground_program, max_atoms=1000
        )
        large = has_answer_set(
            ground(qbf2_large_rule(qbf)).ground_program, max_atoms=1000
        )
        if classic != want or large != want or classic != large:
            mismatches.append(k)
    ok = not mismatches
    _report(3, ok, "2-QBF consistency iff falsity (classic and large-rule)",
            f"{count} formulas, {len(mismatches)} mismatches", started)
    assert ok, mismatches
    assert time.time() - started < 120


# 4 ---------------------------------------------------------------------

def test_criterion_4_3qbf_iff():
    started = time.time()
    rng = random.Random(0x3C3C)
    mismatches = []
    count = 200
    for k in range(count):
        qbf = random_qbf3(rng, max_outer=3, max_universal=3, max_exist=3, max_clauses=6)
        want = eval_qbf(qbf)
        got = has_answer_set(
            ground(qbf3_large_rule(qbf)).ground_program, max_atoms=2000
        )
        if got != want:
            mismatches.append(k)
    ok = not mismatches
    _report(4, ok, "3-QBF consistency iff validity",
            f"{count} formulas, {len(mismatches)} mismatches", started)
    assert ok, mismatches
    assert time.time() - started < 300


# 5 ---------------------------------------------------------------------

def test_criterion_5_disjunctive_to_normal():
    started = time.time()
    rng = random.Random(0x5D5D)
    mismatches = []
    nonnormal = []
    count = 200
    for k in range(count):
        gp = random_ground_program(rng, max_atoms=6, max_rules=8)
        program = disjunctive_to_normal(gp)
        if any(len(r.head) > 1 for r in program.rules):
            nonnormal.append(k)
            continue
        original = {
            frozenset(str(gp.atoms[i]) for i in s.true_atoms)
            for s in answer_sets(gp, max_atoms=24)
        }
        decomposed, _ = decompose_program(program)
        rewritten_gp = ground(decomposed).ground_program
        projected = set()
        for interp in answer_sets(rewritten_gp, max_atoms=5000):
            chosen = set()
            for i in interp.true_atoms:
                a = rewritten_gp.atoms[i]
                if a.pred == "assign" and a.args[1] == Integer(1):
                    chosen.add(a.args[0].name)
            projected.add(frozenset(chosen))
        if projected != original:
            mismatches.append(k)
    ok = not mismatches and not nonnormal
    _report(5, ok, "disjunction elimination (normal output, equal projections)",
            f"{count} programs, {len(mismatches)} mismatches,"
            f" {len(nonnormal)} non-normal", started)
    assert ok, (mismatches, nonnormal)
    assert time.time() - started < 180


# 6 ---------------------------------------------------------------------

def test_criterion_6_abduction_iff():
    started = time.time()
    rng = random.Random(0x6A6A)
    mismatches = []
    count = 100
    for k in range(count):
        inst = random_abduction(rng, max_atoms=5, max_hyp=3, max_rules=6)
        want = abduce_bruteforce(inst) is not None
        program = abduction_encoding(inst)
        decomposed, _ = decompose_program(program)
        got = has_answer_set(ground(decomposed).ground_program, max_atoms=5000)
        if got != want:
            mismatches.append(k)
    ok = not mismatches
    _report(6, ok, "abduction encoding iff brute-force witness",
            f"{count} instances, {len(mismatches)} mismatches", started)
    assert ok, mismatches
    assert time.time() - started < 300


# 7 ---------------------------------------------------------------------

def test_criterion_7_grounding_size_bound():
    started = time.time()
    n = 10
    violations = []
    checked = 0
    for program in _rule_corpus(200):
        decomposed, report = decompose_program(program, threshold=False)
        stats = report.rules[0]
        if not stats.decomposed:
            continue
        checked += 1
        emitted = decomposed.rules
        total = sum(grounding_estimate(r, n) for r in emitted)
        original = grounding_estimate(program.rules[0], n)
        if total > original:
            violations.append(("sum", stats.index, total, original))
        if any(len(variables_of(r)) > stats.width + 1 for r in emitted):
            violations.append(("width", stats.index))

    worked = parse_program("h(X,W) :- e(X,Y), e(Y,Z), not e(Z,W), e(W,X).").rules[0]
    td = TreeDecomposition(
        [frozenset({"X", "W", "Y"}), frozenset({"Y", "Z", "W"})], [(0, 1)], 0
    )
    pieces = decompose_rule(worked, td, FreshNamer("0"))
    worked_sum = sum(grounding_estimate(r, 10) for r in pieces)
    if not (worked_sum <= 3000 < 10_000 == grounding_estimate(worked, 10)):
        violations.append(("worked", worked_sum))
    ok = not violations
    _report(7, ok, "grounding-size bound after decomposition",
            f"{checked} decomposed rules at n={n}, worked-example"
            f" {worked_sum} <= 3000 vs 10000, {len(violations)} violations", started)
    assert ok, violations[:5]


# 8 ---------------------------------------------------------------------

def test_criterion_8_td_validity_and_width():
    started = time.time()
    invalid = []
    gaps = []
    checked = 0
    for program in _rule_corpus(200):
        rule = program.rules[0]
        graph = gaifman(rule)
        td = decompose_graph(graph)
        valid, why = validate_td(graph, td)
        if not valid:
            invalid.append(why)
        if len(graph.vertices) <= 8:
            checked += 1
            exact = exact_treewidth(graph)
            gaps.append(td.width - exact)
            if td.width < exact:
                invalid.append(f"width below optimum on rule {rule}")
    worst = max(gaps) if gaps else 0
    ok = not invalid and worst <= 2
    _report(8, ok, "tree decompositions valid, width near optimum",
            f"{checked} exact comparisons, worst gap +{worst},"
            f" {len(invalid)} invalid", started)
    assert ok, (invalid[:3], worst)


# 9 ---------------------------------------------------------------------

def test_criterion_9_round_trips():
    started = time.time()
    failures = 0
    programs = _rule_corpus(200)
    artifacts = 0
    for program in programs:
        artifacts += 1
        if parse_program(print_program(program)) != program:
            failures += 1
        decomposed, _ = decompose_program(program)
        artifacts += 1
        if parse_program(print_program(decomposed)) != decomposed:
            failures += 1
    rng = random.Random(0x9F9F)
    for _ in range(200):
        qbf = random_qbf2(rng)
        artifacts += 1
        if parse_qdimacs(emit_qdimacs(qbf)) != qbf:
            failures += 1
        gp = random_ground_program(rng)
        artifacts += 1
        back = parse_reified(emit_reified(gp))
        if back.rules != gp.rules or len(back.atoms) != len(gp.atoms):
            failures += 1
    reduct_source = parse_reified(
        "atom(a). atom(b). rule(r0). head(r0,a). head(r0,b). rule(r1). pos(r1,a). neg(r1,b)."
    )
    from bigrule.rewriters import AbductionInstance

    for encoder_program in (
        threecol_single_rule(make_graph([("a", "b"), ("b", "c")])),
        threecol_second_level(make_graph([("a", "b"), ("b", "c")], partition_v1=["a"])),
        qbf2_classic(parse_qdimacs("p cnf 2 1\na 1 0\ne 2 0\n1 2 0")),
        qbf2_large_rule(parse_qdimacs("p cnf 2 1\na 1 0\ne 2 0\n1 2 0")),
        qbf3_large_rule(parse_qdimacs("p cnf 3 1\ne 1 0\na 2 0\ne 3 0\n1 2 3 0")),
        disjunctive_to_normal(reduct_source),
        abduction_encoding(
            AbductionInstance(reduct_source, frozenset(), frozenset({0}))
        ),
    ):
        artifacts += 1
        if parse_program(print_program(encoder_program)) != encoder_program:
            failures += 1
    ok = failures == 0
    _report(9, ok, "print/parse round trips (programs, QDIMACS, reified)",
            f"{artifacts} artifacts, {failures} failures", started)
    assert ok


# 10 --------------------------------------------------------------------

def test_criterion_10_coloring_encodings():
    started = time.time()
    from corpus import random_graph

    rng = random.Random(0xAAAA)
    mismatches = []
    graphs = [random_graph(rng, max_vertices=8) for _ in range(50)]
    graphs.append(make_graph([("a", "b"), ("b", "c"), ("c", "d"), ("a", "d"), ("b", "d")]))
    graphs.append(
        make_graph(
            [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]
        )
    )
    for k, graph in enumerate(graphs):
        program = threecol_single_rule(graph)
        consistent = has_answer_set(ground(program).ground_program, max_atoms=500)
        if consistent != (solve_coloring(graph) is None):
            mismatches.append(("3col", k))

    def extension_impossible(graph):
        from itertools import product

        v1 = sorted(graph.partition[0])
        rest = sorted(graph.vertices - set(v1))
        edges = graph.edges

        def proper(coloring):
            return all(
                coloring.get(u) is None
                or coloring.get(w) is None
                or coloring[u] != coloring[w]
                for u, w in edges
            )

        for combo in product(range(3), repeat=len(v1)):
            partial = dict(zip(v1, combo))
            if not proper(partial):
                continue
            if not any(
                proper({**partial, **dict(zip(rest, ext))})
                for ext in product(range(3), repeat=len(rest))
            ):
                return True
        return False

    partitioned = [random_partitioned_graph(rng, max_vertices=6) for _ in range(30)]
    for k, graph in enumerate(partitioned):
        program = threecol_second_level(graph)
        consistent = has_answer_set(ground(program).ground_program, max_atoms=2000)
        if consistent != extension_impossible(graph):
            mismatches.append(("3col2", k))
    ok = not mismatches
    _report(10, ok, "coloring encodings against brute force",
            f"{len(graphs)} single-rule graphs, {len(partitioned)} partitioned,"
            f" {len(mismatches)} mismatches", started)
    assert ok, mismatches
