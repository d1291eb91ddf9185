import random
import sys
import warnings
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from bigrule import oracle
from bigrule.decompose import _Size, _join_estimate
from bigrule.errors import (
    DivisionByZeroError,
    GroundingLimitError,
    InternalError,
    TooManyAtomsError,
    TooManyVarsError,
    UnsupportedAggregateError,
)
from bigrule.oracle import (
    _Plan,
    _bound_score,
    _enumerate_answer_sets,
    _is_ordered,
    _join_order,
    _minimal_below,
    _root_residual,
    _rule_masks,
    _supported_model,
    abduce_bruteforce,
    answer_sets,
    answer_sets_naive,
    eval_qbf,
    eval_qbf_expansion,
    ground,
    has_answer_set,
    solve_coloring,
)
from bigrule.parse import make_graph, parse_program, parse_qdimacs, print_ground_program
from bigrule.rewriters import AbductionInstance
from bigrule.syntax import (
    Aggregate,
    Arith,
    Atom,
    Comparison,
    Constant,
    GroundProgram,
    GroundRule,
    Integer,
    Literal,
    Rule,
    Variable,
    eval_term,
    global_vars,
    is_safe,
    variables_of,
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
    with pytest.raises(DivisionByZeroError, match="division by zero in 1/Y"):
        ground(program)


TERM_VARS = ("X", "Y", "Z")
_values = st.one_of(
    st.sampled_from([0, 1, -1, 2, 2**62, 2**63 - 1, -(2**63), -(2**63) + 1]),
    st.integers(-(2**63), 2**63 - 1),
)
_terms = st.recursive(
    st.one_of(
        _values.map(Integer),
        st.sampled_from(["a", "b"]).map(Constant),
        st.sampled_from(TERM_VARS).map(Variable),
    ),
    lambda inner: st.builds(Arith, st.sampled_from(["+", "-", "*", "/"]), inner, inner),
    max_leaves=8,
)


def _outcome(evaluate):
    try:
        return ("value", evaluate())
    except Exception as exc:  # the error must match too
        return (type(exc), str(exc))


@given(_terms, st.tuples(*[st.one_of(_values, st.just("a")) for _ in TERM_VARS]))
def test_compiled_term_matches_eval_term(term, values):
    slots = {name: i for i, name in enumerate(TERM_VARS)}
    compiled = oracle._term_fn(term, slots)
    assert _outcome(lambda: compiled(values)) == _outcome(
        lambda: eval_term(term, dict(zip(TERM_VARS, values)))
    )


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


def test_ground_emission_dedup_and_atom_order():
    # At e(a,a) the head, the positive body and the negative body each
    # repeat an atom. At e(a,b) the instance of z is dropped by the negated
    # fact f(b), so neither z(b) nor g(b) may be numbered there: g(b) is
    # first used by the last rule.
    program = parse_program(
        "e(a,a). e(a,b). f(b).\n"
        "p(X) | p(Y) :- e(X,Y).\n"
        "r(X) :- e(X,Y), e(Y,X), e(X,X).\n"
        "n(X) :- e(X,Y), not p(X), not p(Y).\n"
        "z(Y) :- e(X,Y), not g(Y), not f(Y).\n"
        "g(Y) :- e(X,Y).\n"
    )
    result = ground(program)
    gp = result.ground_program
    assert print_ground_program(gp) == (
        "e(a,a).\n"
        "e(a,b).\n"
        "f(b).\n"
        "p(a) :- e(a,a).\n"
        "p(a) | p(b) :- e(a,b).\n"
        "r(a) :- e(a,a).\n"
        "n(a) :- e(a,a), not p(a).\n"
        "n(a) :- e(a,b), not p(a), not p(b).\n"
        "z(a) :- e(a,a), not g(a).\n"
        "g(a) :- e(a,a).\n"
        "g(b) :- e(a,b).\n"
    )
    assert [str(a) for a in gp.atoms] == [
        "e(a,a)", "e(a,b)", "f(b)", "p(a)", "p(b)", "r(a)", "n(a)", "z(a)", "g(a)", "g(b)",
    ]
    assert result.source_rule_map == {3: 0, 4: 0, 5: 1, 6: 2, 7: 2, 8: 3, 9: 4, 10: 4}


def test_ground_atom_order_interleaves_predicates():
    # First uses alternate between p and q: in the facts, then a head
    # (q(3)), a negated atom (p(3)) and a positive body atom (q(2)). The
    # instance at X=1 is dropped by the negated fact p(2), so q(2) is first
    # used by the last rule. Numbering all p atoms before all q atoms, or in
    # any order other than first use across predicates, changes the table.
    program = parse_program(
        "p(1). q(1). p(2).\n"
        "q(Y) :- p(X), Y = X+1, Y < 4, not p(Y).\n"
        "p(X) :- q(X), X > 1.\n"
    )
    result = ground(program)
    gp = result.ground_program
    assert [str(a) for a in gp.atoms] == ["p(1)", "q(1)", "p(2)", "q(3)", "p(3)", "q(2)"]
    assert print_ground_program(gp) == (
        "p(1).\n"
        "q(1).\n"
        "p(2).\n"
        "q(3) :- p(2), not p(3).\n"
        "p(2) :- q(2).\n"
        "p(3) :- q(3).\n"
    )
    assert result.source_rule_map == {3: 0, 4: 1, 5: 1}


def test_ground_deterministic_order():
    program = parse_program("q(b). q(a).\np(X) :- q(X).")
    r1 = ground(program)
    r2 = ground(program)
    assert [r1.ground_program.rule_str(r) for r in r1.ground_program.rules] == [
        r2.ground_program.rule_str(r) for r in r2.ground_program.rules
    ]


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
    message = (
        "ground program has 30 atoms, over the solver's cap max_atoms=24"
        " (--max-atoms on the command line)"
    )
    for solve in (answer_sets, has_answer_set):
        with pytest.raises(TooManyAtomsError) as info:
            solve(gp, max_atoms=24)
        assert str(info.value) == message


def test_answer_sets_agree_with_naive_on_corpus():
    # Each program is solved in its own rule order and reversed, so both the
    # one-sweep closure (ordered programs) and the repeated one are checked.
    # It also counts the programs whose root propagation drops a rule and
    # leaves others to search, where the dropped rules' support matters.
    rng = random.Random(1234)
    ordered = Counter()
    partial = 0
    for _ in range(400):
        gp = random_ground_program(rng, max_atoms=6, max_rules=8)
        naive = answer_sets_naive(gp)
        for rules in (gp.rules, gp.rules[::-1]):
            program = GroundProgram(gp.atoms, rules)
            masks = _rule_masks(program)
            in_order = _is_ordered(masks)
            ordered[in_order] += 1
            root = _root_residual(masks, in_order, (1 << len(gp.atoms)) - 1)
            partial += root is not None and 0 < len(root[2]) < len(masks)
            assert answer_sets(program, max_atoms=10) == naive
    assert ordered[True] >= 100 and ordered[False] >= 100
    assert partial >= 80


def test_enumeration_order_is_decision_order():
    # The search returns answer sets in lexicographic order of the decision
    # atoms (those in negative bodies or disjunctive heads), true before
    # false, however much propagation prunes; `first_only` keeps the first.
    rng = random.Random(2024)
    checked = 0
    for _ in range(600):
        gp = random_ground_program(rng, max_atoms=9, max_rules=14)
        naive = answer_sets_naive(gp)
        for rules in (gp.rules, gp.rules[::-1]):
            decisions = sorted(
                {i for r in rules for i in r.neg}
                | {i for r in rules if len(r.head) > 1 for i in r.head}
            )
            expected = sorted(
                (sum(1 << i for i in s.true_atoms) for s in naive),
                key=lambda m: [not m >> i & 1 for i in decisions],
            )
            program = GroundProgram(gp.atoms, rules)
            for first_only in (True, False):
                found = _enumerate_answer_sets(program, first_only)
                assert found == (expected[:1] if first_only else expected)
                checked += 1
    assert checked == 2400


def test_root_propagates_forward_only():
    # Making a true at the root because `:- not a.` needs it would count a
    # as supported by the dropped constraint, and {a, d, e}, where neither
    # `a :- b.` nor `a :- c.` fires, would pass as an answer set.
    gp = gp_of(
        ["a", "b", "c", "d", "e"],
        [
            ((), (), ("a",)),
            (("a",), ("b",), ()),
            (("a",), ("c",), ()),
            (("b",), (), ("d",)),
            (("d",), (), ("b",)),
            (("c",), (), ("e",)),
            (("e",), (), ("c",)),
        ],
    )
    expected = [["a", "b", "c"], ["a", "b", "e"], ["a", "c", "d"]]
    assert as_names(gp, answer_sets(gp)) == expected
    assert as_names(gp, answer_sets_naive(gp)) == expected


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


def test_rules_fixed_at_the_root_keep_their_support():
    # `a.` and `b :- a.` are settled at the root and `d :- not a.` can never
    # fire, so only `c | d :- b.` is searched; a and b still need their
    # support, and the minimality check must start from them.
    gp = gp_of(
        ["a", "b", "c", "d"],
        [
            (("a",), (), ()),
            (("b",), ("a",), ()),
            (("c", "d"), ("b",), ()),
            (("d",), (), ("a",)),
        ],
    )
    masks = _rule_masks(gp)
    assert _root_residual(masks, True, 0b1111) == (0b0011, 0, [masks[2]])
    expected = [["a", "b", "c"], ["a", "b", "d"]]
    assert as_names(gp, answer_sets(gp)) == expected
    assert as_names(gp, answer_sets_naive(gp)) == expected


def test_supported_model_needs_a_unique_true_head():
    # `a | b.` supports a when b is false, but neither atom when both are
    # true; `c :- a.` then supports c only while a is true.
    gp = gp_of(["a", "b", "c"], [(("a", "b"), (), ()), (("c",), ("a",), ())])
    masks = _rule_masks(gp)
    assert _supported_model(masks, 0b101)
    assert _supported_model(masks, 0b010)
    assert not _supported_model(masks, 0b111)
    assert not _supported_model(masks, 0b110)  # c unsupported
    assert not _supported_model(masks, 0b001)  # c :- a violated


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_has_answer_set_deep_search_runs_without_recursion():
    # One decision per even loop `ai :- not bi. bi :- not ai.`: the search
    # goes 200 decisions deep, with the recursion limit 50 frames above here.
    k = 200
    names = [x for i in range(k) for x in (f"a{i}", f"b{i}")]
    rules = [
        rule
        for i in range(k)
        for rule in (((f"a{i}",), (), (f"b{i}",)), ((f"b{i}",), (), (f"a{i}",)))
    ]
    gp = gp_of(names, rules)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 50)
    try:
        found = has_answer_set(gp, max_atoms=2 * k)
    finally:
        sys.setrecursionlimit(limit)
    assert found


def test_minimal_below_deep_branching_runs_without_recursion():
    # 1,200 disjunctions `ai | bi.`: all atoms true is a model but not a
    # minimal one, found 1,200 branchings deep.
    k = 1200
    names = [x for i in range(k) for x in (f"a{i}", f"b{i}")]
    gp = gp_of(names, [((f"a{i}", f"b{i}"), (), ()) for i in range(k)])
    masks = _rule_masks(gp)
    assert _minimal_below(masks, (1 << 2 * k) - 1, _is_ordered(masks)) is False


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


def test_abduce_inconsistent_extension_accepted_vacuously():
    # Program {:- not a} over universe {a}: no answer set for E = {}, so
    # the for-all over its answer sets holds vacuously.
    gp = gp_of(["a"], [((), (), ("a",))])
    inst = AbductionInstance(gp, frozenset(), frozenset())
    assert abduce_bruteforce(inst) == frozenset()


# ----------------------------------------------------------------- safety --

_leaf = st.one_of(
    st.sampled_from(("X", "Y", "Z")).map(Variable), st.sampled_from((Integer(1), Constant("a")))
)
_term = st.one_of(_leaf, st.builds(Arith, st.sampled_from("+-"), _leaf, _leaf))
_atom = st.builds(
    lambda pred, args: Atom(pred, tuple(args)),
    st.sampled_from("pq"),
    st.lists(_term, min_size=1, max_size=2),
)
_literal = st.builds(Literal, _atom, st.booleans())
_comparison = st.one_of(
    st.builds(Comparison, st.sampled_from(("=", "<")), _term, _term),
    st.builds(Comparison, st.just("="), st.sampled_from(("X", "Y", "Z")).map(Variable), _term),
)


@st.composite
def _aggregate(draw):
    condition = tuple(draw(st.lists(_literal, min_size=1, max_size=2)))
    names = sorted(variables_of(list(condition)))
    tuple_vars = draw(st.lists(st.sampled_from(names), unique=True, max_size=1)) if names else []
    return Aggregate("count", tuple(tuple_vars), condition, ">=", draw(_term))


_rule = st.builds(
    lambda head, body, neg, arith, aggs: Rule(
        tuple(head),
        tuple(Literal(a) for a in body),
        tuple(Literal(a, True) for a in neg),
        tuple(arith),
        tuple(aggs),
    ),
    st.lists(_atom, max_size=1),
    st.lists(_atom, max_size=3),
    st.lists(_atom, max_size=2),
    st.lists(_comparison, max_size=2),
    st.lists(_aggregate(), max_size=1),
)


def _plans_leave_a_variable_unbound(r: Rule) -> bool:
    """Compile the rule's join plan, then each aggregate's condition plan
    over the rule's bound variables, as the grounder does, and report
    whether any variable is left unbound."""
    try:
        plan = _Plan([l.atom for l in r.pos_body], r.arith)
        if global_vars(r) - plan.slots.keys():
            return True
        names = tuple(sorted(plan.slots))
        for agg in r.aggregates:
            cond = _Plan([l.atom for l in agg.condition if not l.negated], (), names)
            if variables_of(list(agg.condition)) - cond.slots.keys():
                return True
    except InternalError:  # a comparison or arithmetic argument stayed open
        return True
    return False


@given(_rule)
def test_is_safe_is_the_plan_binding_rule(r):
    assert is_safe(r)[0] == (not _plans_leave_a_variable_unbound(r))


@given(_rule)
def test_join_estimate_binds_what_the_plan_binds(r):
    try:
        plan = _Plan([l.atom for l in r.pos_body], r.arith)
    except InternalError:
        return
    sizes = {}
    for pred in "pq":
        sizes[pred] = _Size(2)
        sizes[pred].add(2.0, (Variable("X"), Variable("Y")), [2.0, 2.0])
    _, _, values = _join_estimate(r, sizes)
    assert values.keys() == plan.slots.keys()



def test_join_order_is_a_scan_for_the_best_score():
    """The heap yields what a scan of the atoms left for the most bound
    arguments, ties to the earlier atom, yields."""
    rng = random.Random(5)
    names = [f"X{i}" for i in range(8)]
    for _ in range(500):
        atoms = [
            Atom(
                rng.choice("pqr"),
                tuple(
                    Variable(rng.choice(names)) if rng.random() < 0.8 else Constant("a")
                    for _ in range(rng.randint(0, 3))
                ),
            )
            for _ in range(rng.randint(0, 12))
        ]
        bound = set(rng.sample(names, rng.randint(0, 2)))
        scanned, left, seen = [], list(range(len(atoms))), set(bound)
        while left:
            idx = max(left, key=lambda i: _bound_score(atoms[i], seen))
            left.remove(idx)
            scanned.append(idx)
            seen.update(arg.name for arg in atoms[idx].args if isinstance(arg, Variable))
        fresh: list[str] = []
        heaped = []
        for idx in _join_order(atoms, bound, fresh):
            heaped.append(idx)
            for arg in atoms[idx].args:
                if isinstance(arg, Variable) and arg.name not in bound:
                    bound.add(arg.name)
                    fresh.append(arg.name)
        assert heaped == scanned


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


@pytest.mark.parametrize(
    "text",
    [
        "c(a).\np(X) | q(X) :- c(X).\nok :- #count{X : p(X)} >= 1, c(X).",
        "e(a,b). e(b,c).\nr(X,Y) :- e(X,Y).\nr(X,Z) :- r(X,Y), e(Y,Z).\n"
        "ok :- #count{X,Y : r(X,Y)} >= 1.",
        "c(a). c(b).\nd(X) :- c(X), X != a.\np(X) :- c(X), not d(X).\n"
        "ok :- #count{X : p(X)} >= 1.",
        "c(a).\np(X) :- c(X), #count{Y : c(Y)} >= 1.\nok :- #count{X : p(X)} >= 1.",
        "c(a).\nd(X) | e(X) :- c(X).\np(X) :- c(X), d(X).\nok :- #count{X : p(X)} >= 1.",
    ],
    ids=["disjunctive", "recursive", "negates-derived", "has-aggregate", "uses-disjunctive"],
)
def test_ground_aggregate_rejects_nondeterministic_condition(text):
    with pytest.raises(UnsupportedAggregateError):
        ground(parse_program(text))


def test_ground_aggregate_over_two_level_derived_chain():
    program = parse_program(
        "e(a,b). e(b,c). f(b).\nl1(X,Y) :- e(X,Y).\nl2(X) :- l1(X,Y), not f(X).\n"
        "one :- #count{X : l2(X)} = 1.\ntwo :- #count{X : l2(X)} = 2."
    )
    gp = ground(program).ground_program
    texts = {gp.rule_str(r) for r in gp.rules}
    assert "one." in texts
    assert not any(t.startswith("two") for t in texts)


def test_aggregate_fragment_closure_carries_the_budget(monkeypatch):
    limits = []
    closure = oracle._closure

    def spy(units, store, keep=None, limit=None, spent=0):
        limits.append(limit)
        return closure(units, store, keep, limit, spent)

    monkeypatch.setattr(oracle, "_closure", spy)
    program = parse_program(
        "e(a,b). e(b,c).\nl(X,Y) :- e(X,Y).\nok :- #count{X,Y : l(X,Y)} = 2."
    )
    ground(program, max_ground_rules=500)
    assert limits == [500, 500]


def test_aggregate_fragment_limit_names_the_program_rule():
    facts = "".join(f"n({k}).\n" for k in range(10))
    program = parse_program(
        facts + "q :- #count{X : n(X)} >= 1.\nd(X,Y,Z) :- n(X), n(Y), n(Z)."
    )
    with pytest.raises(GroundingLimitError) as info:
        ground(program, max_ground_rules=100)
    message = str(info.value)
    assert "exceeds 100 rule instances" in message
    assert "at rule 1 `d(X,Y,Z) :- n(X), n(Y), n(Z).`" in message


def test_aggregate_fragment_grounds_only_rules_conditions_read(monkeypatch):
    # `d` feeds no aggregate condition, so the fragment store holds no `d`
    # atom; `m` is read positively and `e` negated, so both are closed.
    stores = []
    init = oracle._AggregateContext.__init__

    def spy(self, *args):
        init(self, *args)
        stores.append(self.store)

    monkeypatch.setattr(oracle._AggregateContext, "__init__", spy)
    facts = "".join(f"n({k}).\n" for k in range(10))
    program = parse_program(
        facts + "d(X,Y,Z) :- n(X), n(Y), n(Z).\nm(X) :- n(X).\ne(X) :- m(X), X > 5.\n"
        "q :- #count{X : m(X), not e(X)} = 6."
    )
    gp = ground(program).ground_program
    (store,) = stores
    assert "d" not in store.by_pred
    assert len(store.by_pred["m"]) == 10 and len(store.by_pred["e"]) == 4
    texts = {gp.rule_str(r) for r in gp.rules}
    assert "q." in texts
    assert sum(t.startswith("d(") for t in texts) == 1000
