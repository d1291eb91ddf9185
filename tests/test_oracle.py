import random
import warnings

import pytest

from bigrule.errors import (
    DivisionByZeroError,
    GroundingLimitError,
    TooManyAtomsError,
    TooManyVarsError,
    UnsupportedAggregateError,
)
from bigrule.oracle import (
    abduce_bruteforce,
    answer_sets,
    answer_sets_naive,
    eval_qbf,
    eval_qbf_expansion,
    ground,
    has_answer_set,
    reduct,
    solve_coloring,
)
from bigrule.parse import make_graph, parse_program, parse_qdimacs
from bigrule.rewriters import AbductionInstance
from bigrule.syntax import (
    Atom,
    GroundProgram,
    GroundRule,
    Interpretation,
)

from corpus import random_ground_program, random_qbf2


def gp_of(atom_names, rules):
    atoms = tuple(Atom(a) for a in atom_names)
    idx = {a: i for i, a in enumerate(atom_names)}
    return GroundProgram(
        atoms,
        tuple(
            GroundRule(
                tuple(idx[x] for x in h),
                tuple(idx[x] for x in p),
                tuple(idx[x] for x in g),
            )
            for h, p, g in rules
        ),
    )


def as_names(gp, sets):
    return sorted(sorted(str(gp.atoms[i]) for i in s.true_atoms) for s in sets)


# ------------------------------------------------------------- grounding ---

def test_ground_simple_rule_instances():
    program = parse_program("q(a). q(b).\np(X) :- q(X).")
    result = ground(program)
    texts = [result.ground_program.rule_str(r) for r in result.ground_program.rules]
    assert "p(a) :- q(a)." in texts and "p(b) :- q(b)." in texts
    assert result.rule_count == 2
    assert set(result.source_rule_map.values()) == {0}


def test_ground_fact_only_program():
    result = ground(parse_program("p(a). q(b)."))
    assert result.rule_count == 0
    assert len(result.ground_program.rules) == 2  # facts preserved


def test_ground_coloring_constraint_matches_facts():
    program = parse_program(
        "col(r). col(g). col(b). e(r,g). e(r,b). e(g,b). e(g,r). e(b,r). e(b,g).\n"
        ":- e(A,B), e(B,C), e(C,D), e(D,A), e(B,D)."
    )
    result = ground(program)
    assert result.rule_count >= 1  # the worked graph is 3-colorable


def test_ground_arithmetic_binding():
    program = parse_program("p(1). p(2).\nq(X) :- p(Y), X = Y+1.")
    result = ground(program)
    texts = {result.ground_program.rule_str(r) for r in result.ground_program.rules}
    assert "q(2) :- p(1)." in texts and "q(3) :- p(2)." in texts


def test_ground_division_truncates_toward_zero():
    program = parse_program("p(1).\nq(X) :- p(Y), X = (0-7)/2.")
    result = ground(program)
    texts = {result.ground_program.rule_str(r) for r in result.ground_program.rules}
    assert any("q(-3)" in t for t in texts)


def large_body_text(n: int = 1500) -> str:
    """One rule of n atoms pK(X) over one variable; every pK holds for a,
    and all but the last for b, so exactly one instance survives."""
    facts = "".join(f"p{k}(a). p{k}(b).\n" for k in range(n - 1))
    body = ", ".join(f"p{k}(X)" for k in range(n))
    return f"{facts}p{n - 1}(a).\nh(X) :- {body}.\n"


def test_ground_large_body_runs_without_recursion():
    result = ground(parse_program(large_body_text()))
    gp = result.ground_program
    assert result.rule_count == 1
    (instance,) = [gp.rules[i] for i in result.source_rule_map]
    assert gp.rule_str(instance).startswith("h(a) :- p0(a), p1(a),")
    assert len(instance.pos) == 1500


def test_ground_division_by_zero_is_an_error():
    program = parse_program("p(0). p(1).\nq(X) :- p(Y), X = 1/Y.")
    with pytest.raises(DivisionByZeroError):
        ground(program)


def test_ground_monotone_in_facts():
    rng = random.Random(404)
    base = parse_program("q(a). q(b).\np(X) :- q(X), not r(X).\nr(a).")
    more = parse_program("q(a). q(b). q(c).\np(X) :- q(X), not r(X).\nr(a).")
    del rng
    shapes = lambda res: {
        res.ground_program.rule_str(r) for r in res.ground_program.rules
    }
    assert shapes(ground(base)) <= shapes(ground(more))


def test_ground_limit_exceeded():
    program = parse_program("p(1).\np(Y) :- p(X), Y = X+1.")
    with pytest.raises(GroundingLimitError):
        ground(program, max_ground_rules=50)


def test_ground_limit_names_rule_and_counts():
    program = parse_program("q(a).\np(X) :- q(X).\nr(Y) :- r(X), Y = X+1.\nr(0).")
    with pytest.raises(GroundingLimitError) as info:
        ground(program, max_ground_rules=50)
    message = str(info.value)
    assert "exceeds 50 rule instances" in message
    assert "rule 1 `r(Y) :- r(X), Y = X+1.`" in message
    assert "reached 51" in message and "48 of its matches" in message

    facts = "".join(f"c({k}).\n" for k in range(30))
    wide = parse_program(facts + "a(X) | b(X) :- c(X).")
    with pytest.raises(GroundingLimitError) as info:
        ground(wide, max_ground_rules=70)
    assert "closure exceeds 70 atoms: 90 after rule 0 `a(X) | b(X) :- c(X).`" in str(info.value)


def test_ground_negative_fact_literal_drops_instance():
    program = parse_program("q(a). q(b). r(a).\np(X) :- q(X), not r(X).")
    result = ground(program)
    texts = {result.ground_program.rule_str(r) for r in result.ground_program.rules}
    assert "p(b) :- q(b)." in texts  # vacuous literal removed
    assert not any(t.startswith("p(a)") for t in texts)


def test_ground_deterministic_order():
    program = parse_program("q(b). q(a).\np(X) :- q(X).")
    r1 = ground(program)
    r2 = ground(program)
    assert [r1.ground_program.rule_str(r) for r in r1.ground_program.rules] == [
        r2.ground_program.rule_str(r) for r in r2.ground_program.rules
    ]


# ----------------------------------------------------------------- reduct --

def test_reduct_keeps_rule_on_empty_intersection():
    gp = gp_of(["a", "b"], [(("a",), (), ("b",))])
    red = reduct(gp, Interpretation(frozenset()))
    assert red.rules == (GroundRule((0,), (), ()),)


def test_reduct_drops_rule():
    gp = gp_of(["a", "b"], [(("a",), (), ("b",))])
    red = reduct(gp, Interpretation(frozenset({1})))
    assert red.rules == ()


def test_reduct_mixed():
    gp = gp_of(["a", "b", "c"], [(("a",), ("b",), ("c",)), (("c",), (), ("a",))])
    red = reduct(gp, Interpretation(frozenset({0})))
    assert red.rules == (GroundRule((0,), (1,), ()),)


# ------------------------------------------------------------ answer sets --

def test_answer_sets_disjunctive_fact():
    gp = gp_of(["a", "b"], [(("a", "b"), (), ())])
    assert as_names(gp, answer_sets(gp)) == [["a"], ["b"]]


def test_answer_sets_even_negation_loop():
    gp = gp_of(["a", "b"], [(("a",), (), ("b",)), (("b",), (), ("a",))])
    assert as_names(gp, answer_sets(gp)) == [["a"], ["b"]]


def test_answer_sets_odd_loop_has_none():
    gp = gp_of(["a"], [(("a",), (), ("a",))])
    assert answer_sets(gp) == set()


def test_answer_sets_atom_cap():
    gp = gp_of([f"a{i}" for i in range(30)], [])
    with pytest.raises(TooManyAtomsError):
        answer_sets(gp, max_atoms=24)


def test_answer_sets_agree_with_naive_on_corpus():
    rng = random.Random(1234)
    for _ in range(400):
        gp = random_ground_program(rng, max_atoms=6, max_rules=8)
        fast = answer_sets(gp, max_atoms=10)
        naive = answer_sets_naive(gp)
        assert fast == naive


def test_answer_sets_antichain_and_modelhood():
    rng = random.Random(999)
    for _ in range(200):
        gp = random_ground_program(rng)
        sets = list(answer_sets(gp, max_atoms=10))
        for i, s in enumerate(sets):
            for j, t in enumerate(sets):
                if i != j:
                    assert not s.true_atoms <= t.true_atoms
        for s in sets:
            for r in gp.rules:
                if set(r.pos) <= s.true_atoms and not (set(r.neg) & s.true_atoms):
                    assert set(r.head) & s.true_atoms


def test_has_answer_set_matches_enumeration():
    rng = random.Random(31415)
    for _ in range(150):
        gp = random_ground_program(rng)
        assert has_answer_set(gp, max_atoms=10) == bool(answer_sets(gp, max_atoms=10))


# -------------------------------------------------------------- eval_qbf ---

def test_eval_qbf_worked_example():
    qbf = parse_qdimacs("p cnf 2 2\na 1 0\ne 2 0\n1 2 0\n-1 -2 0")
    assert eval_qbf(qbf) is True


def test_eval_qbf_forall_single_positive():
    qbf = parse_qdimacs("p cnf 1 1\na 1 0\n1 0")
    assert eval_qbf(qbf) is False


def test_eval_qbf_empty_matrix():
    qbf = parse_qdimacs("p cnf 1 0\na 1 0")
    assert eval_qbf(qbf) is True


def test_eval_qbf_empty_clause_false():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        qbf = parse_qdimacs("p cnf 1 1\ne 1 0\n0")
    assert eval_qbf(qbf) is False


def test_eval_qbf_var_cap():
    prefix = (("e", tuple(range(1, 26))),)
    from bigrule.parse import Qbf

    with pytest.raises(TooManyVarsError):
        eval_qbf(Qbf(prefix, (), 25))


def test_eval_qbf_dual_implementation_agrees():
    rng = random.Random(271828)
    for _ in range(300):
        qbf = random_qbf2(rng, max_universal=4, max_exist=4, max_clauses=6)
        if qbf.num_vars > 12:
            continue
        assert eval_qbf(qbf) == eval_qbf_expansion(qbf)


# --------------------------------------------------------------- coloring --

def test_solve_coloring_worked_graph():
    g = make_graph([("a", "b"), ("b", "c"), ("c", "d"), ("a", "d"), ("b", "d")])
    coloring = solve_coloring(g)
    assert coloring is not None
    for u, w in g.edges:
        assert coloring[u] != coloring[w]


def test_solve_coloring_k4_absent():
    edges = [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]
    assert solve_coloring(make_graph(edges)) is None


def test_solve_coloring_empty_graph():
    assert solve_coloring(make_graph([])) == {}


# -------------------------------------------------------------- abduction --

def test_abduce_simple_witness():
    gp = gp_of(["h", "m"], [(("m",), ("h",), ())])
    inst = AbductionInstance(gp, frozenset({0}), frozenset({1}))
    assert abduce_bruteforce(inst) == frozenset({0})


def test_abduce_unreachable_manifestation():
    gp = gp_of(["m"], [])
    inst = AbductionInstance(gp, frozenset(), frozenset({0}))
    assert abduce_bruteforce(inst) is None


def test_abduce_empty_manifestations_vacuous():
    gp = gp_of(["a"], [((), ("a",), ())])  # constraint only
    inst = AbductionInstance(gp, frozenset(), frozenset())
    assert abduce_bruteforce(inst) == frozenset()


def test_abduce_require_consistent_changes_answer():
    # Program {:- not a} over universe {a}: no answer set for E = {},
    # so the vacuous for-all accepts only without the consistency demand.
    gp = gp_of(["a"], [((), (), ("a",))])
    inst = AbductionInstance(gp, frozenset(), frozenset())
    assert abduce_bruteforce(inst) == frozenset()
    assert abduce_bruteforce(inst, require_consistent=True) is None


# ------------------------------------------------------------- aggregates --

def test_ground_aggregate_count():
    program = parse_program(
        "edge(a,b). edge(a,c). edge(b,c).\n"
        "busy(X) :- node(X), #count{V : edge(X,V)} >= 2.\n"
        "node(a). node(b). node(c)."
    )
    result = ground(program)
    texts = {result.ground_program.rule_str(r) for r in result.ground_program.rules}
    assert any(t.startswith("busy(a)") for t in texts)
    assert not any(t.startswith("busy(b)") for t in texts)


def test_ground_aggregate_sum_and_guard():
    program = parse_program(
        "w(1). w(2). w(3).\nok :- #sum{V : w(V)} = 6.\nbad :- #sum{V : w(V)} > 6."
    )
    result = ground(program)
    texts = {result.ground_program.rule_str(r) for r in result.ground_program.rules}
    assert "ok :- ." in texts or "ok." in texts
    assert not any(t.startswith("bad") for t in texts)


def test_ground_aggregate_min_max():
    program = parse_program(
        "w(2). w(5).\nlo :- #min{V : w(V)} = 2.\nhi :- #max{V : w(V)} = 5."
    )
    texts = {
        ground(program).ground_program.rule_str(r)
        for r in ground(program).ground_program.rules
    }
    assert any(t.startswith("lo") for t in texts)
    assert any(t.startswith("hi") for t in texts)


def test_ground_aggregate_over_derived_deterministic_predicate():
    program = parse_program(
        "e(a,b). e(b,c).\nlink(X,Y) :- e(X,Y).\nok :- #count{X,Y : link(X,Y)} = 2."
    )
    texts = {
        ground(program).ground_program.rule_str(r)
        for r in ground(program).ground_program.rules
    }
    assert any(t.startswith("ok") for t in texts)


def test_ground_aggregate_rejects_nondeterministic_condition():
    program = parse_program(
        "c(a).\np(X) | q(X) :- c(X).\nok :- #count{X : p(X)} >= 1, c(X)."
    )
    with pytest.raises(UnsupportedAggregateError):
        ground(program)
