import random
import sys
import time
import tracemalloc
import warnings
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from bigrule import oracle
from bigrule.decompose import _Size, _join_estimate, decompose_program
from bigrule.errors import (
    DivisionByZeroError,
    GroundingLimitError,
    IntegerRangeError,
    InternalError,
    TooManyAtomsError,
    TooManyVarsError,
    TooManyVerticesError,
    UnsupportedAggregateError,
)
from bigrule.oracle import (
    _Plan,
    _Store,
    _enumerate_answer_sets,
    _is_model,
    _is_ordered,
    _minimal_below,
    _root_residual,
    _rule_masks,
    abduce_bruteforce,
    answer_sets,
    answer_sets_naive,
    eval_qbf,
    eval_qbf_expansion,
    ground,
    has_answer_set,
    solve_coloring,
)
from bigrule.parse import Qbf, make_graph, parse_program, parse_qdimacs, print_ground_program
from bigrule.rewriters import AbductionInstance, threecol_single_rule
from bigrule.syntax import (
    Aggregate,
    Arith,
    Atom,
    Comparison,
    Constant,
    GroundProgram,
    GroundRule,
    Integer,
    Interpretation,
    Literal,
    Rule,
    Variable,
    eval_term,
    global_vars,
    is_safe,
    join_order,
    variables_of,
)

from corpus import random_ground_program, random_overlapping_ground_program, random_qbf2
from test_ground_golden import grid


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
    # p is inside the deterministic fragment: its instances become facts.
    program = parse_program("q(a). q(b).\np(X) :- q(X).")
    result = ground(program)
    texts = [result.ground_program.rule_str(r) for r in result.ground_program.rules]
    assert texts == ["q(a).", "q(b).", "p(a).", "p(b)."]
    assert result.rule_count == 2
    assert set(result.source_rule_map.values()) == {0}


def test_ground_fact_only_program():
    result = ground(parse_program("p(a). q(b)."))
    assert result.rule_count == 0
    assert len(result.ground_program.rules) == 2  # facts preserved


@pytest.mark.parametrize("text", ["p(1+2). p(3). q(X) :- p(X).", "p(3). p(1+2). q(X) :- p(X)."])
def test_ground_arithmetic_fact_is_its_value_once(text):
    gp = ground(parse_program(text)).ground_program
    assert print_ground_program(gp) == "p(3).\nq(3).\n"
    assert gp.atoms == (Atom("p", (Integer(3),)), Atom("q", (Integer(3),)))


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
    assert "q(2)." in texts and "q(3)." in texts


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
    # Every pK is a fact predicate, so h is inside the deterministic
    # fragment and its one instance is emitted as the fact h(a).
    result = ground(parse_program(large_body_text()))
    gp = result.ground_program
    assert result.rule_count == 1
    (instance,) = [gp.rules[i] for i in result.source_rule_map]
    assert gp.rule_str(instance) == "h(a)."
    # Over a predicate that a disjunctive rule heads, the body stays whole.
    n = 1500
    text = "d(a).\n" + "".join(f"k({i}).\n" for i in range(n))
    text += "p(X,K) | z :- d(X), k(K).\nh(X) :- " + ", ".join(f"p(X,{i})" for i in range(n)) + ".\n"
    result = ground(parse_program(text))
    gp = result.ground_program
    (instance,) = [gp.rules[i] for i, src in result.source_rule_map.items() if src == 1]
    assert gp.rule_str(instance).startswith("h(a) :- p(a,0), p(a,1),")
    assert len(instance.pos) == n


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
    program = parse_program("q(a). q(b). r(a).\np(X) | s(X) :- q(X), not r(X).")
    result = ground(program)
    texts = {result.ground_program.rule_str(r) for r in result.ground_program.rules}
    assert "p(b) | s(b)." in texts  # fact q(b) and vacuous literal removed
    assert not any(t.startswith("p(a)") for t in texts)


def test_ground_emission_dedup_and_atom_order():
    # e is headed by a disjunctive rule, so it stays outside the
    # deterministic fragment, and so do the rules that read it. At e(a,a)
    # the head, the positive body and the negative body each repeat an
    # atom. At e(a,b) the instance of z is dropped by the negated fact
    # f(b), so neither z(b) nor g(b) may be numbered there: g(b) is first
    # used by the last rule. The facts d(a,a) and d(a,b) leave the first
    # rule's body.
    program = parse_program(
        "d(a,a). d(a,b). f(b).\n"
        "e(X,Y) | x :- d(X,Y).\n"
        "p(X) | p(Y) :- e(X,Y).\n"
        "r(X) :- e(X,Y), e(Y,X), e(X,X).\n"
        "n(X) :- e(X,Y), not p(X), not p(Y).\n"
        "z(Y) :- e(X,Y), not g(Y), not f(Y).\n"
        "g(Y) :- e(X,Y).\n"
    )
    result = ground(program)
    gp = result.ground_program
    assert print_ground_program(gp) == (
        "d(a,a).\n"
        "d(a,b).\n"
        "f(b).\n"
        "e(a,a) | x.\n"
        "e(a,b) | x.\n"
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
        "d(a,a)", "d(a,b)", "f(b)", "e(a,a)", "x", "e(a,b)",
        "p(a)", "p(b)", "r(a)", "n(a)", "z(a)", "g(a)", "g(b)",
    ]
    assert result.source_rule_map == {
        3: 0, 4: 0, 5: 1, 6: 1, 7: 2, 8: 3, 9: 3, 10: 4, 11: 5, 12: 5,
    }


def test_ground_atom_order_interleaves_predicates():
    # First uses alternate between p and q: in the facts, then a head
    # (q(3)) and a negated atom (p(3)). The instance at X=1 can never fire,
    # its negated atom p(2) being a fact, so it derives no q(2) and the
    # last rule has no instance at X=2. Numbering all p atoms before all q
    # atoms, or in any order other than first use across predicates,
    # changes the table. Both predicates are outside the deterministic
    # fragment (q negates p, which a rule heads), so only the fact p(2)
    # leaves a body.
    program = parse_program(
        "p(1). q(1). p(2).\n"
        "q(Y) :- p(X), Y = X+1, Y < 4, not p(Y).\n"
        "p(X) :- q(X), X > 1.\n"
    )
    result = ground(program)
    gp = result.ground_program
    assert [str(a) for a in gp.atoms] == ["p(1)", "q(1)", "p(2)", "q(3)", "p(3)"]
    assert print_ground_program(gp) == (
        "p(1).\n"
        "q(1).\n"
        "p(2).\n"
        "q(3) :- not p(3).\n"
        "p(3) :- q(3).\n"
    )
    assert result.source_rule_map == {3: 0, 4: 1}


def test_ground_deterministic_order():
    program = parse_program("q(b). q(a).\np(X) :- q(X).")
    r1 = ground(program)
    r2 = ground(program)
    assert [r1.ground_program.rule_str(r) for r in r1.ground_program.rules] == [
        r2.ground_program.rule_str(r) for r in r2.ground_program.rules
    ]


def test_ground_sorts_integer_and_symbol_bindings_apart():
    # X takes integers and symbols, which plain tuple order cannot compare;
    # the instances come integers first, then symbols, here as facts.
    gp = ground(parse_program("p(1). p(a). p(2). p(b).\nq(X) :- p(X).")).ground_program
    assert print_ground_program(gp).splitlines()[4:] == ["q(1).", "q(2).", "q(a).", "q(b)."]


def ground_text(text: str) -> str:
    return print_ground_program(ground(parse_program(text)).ground_program)


def test_ground_certain_rule_emits_each_new_head_atom_once_as_a_fact():
    # p is inside the deterministic fragment: p(a) has two matches, p(c)
    # is a fact already, and the second rule adds only p(d).
    result = ground(parse_program(
        "e(a,b). e(a,c). e(b,c). p(c). f(d).\np(X) :- e(X,Y).\np(X) :- e(X,b).\np(X) :- f(X).\n"
    ))
    assert print_ground_program(result.ground_program) == (
        "e(a,b).\ne(a,c).\ne(b,c).\np(c).\nf(d).\np(a).\np(b).\np(d).\n"
    )
    assert result.source_rule_map == {5: 0, 6: 0, 7: 2}


def test_ground_facts_and_certain_atoms_leave_disjunctive_bodies():
    assert ground_text("d(1).\np(X) | q(X) :- d(X).") == "d(1).\np(1) | q(1).\n"
    assert ground_text("d(1).\nc(X) :- d(X).\np(X) | q(X) :- c(X), d(X).") == (
        "d(1).\nc(1).\np(1) | q(1).\n"
    )


def test_ground_drops_an_instance_that_negates_a_certain_atom():
    # c(1) is derived inside the fragment, so `not c(1)` never holds; c(2)
    # is never derived, so `not c(2)` always holds and leaves the body.
    assert ground_text("d(1). d(2).\nc(X) :- d(X), X < 2.\np(X) | q(X) :- d(X), not c(X).") == (
        "d(1).\nd(2).\nc(1).\np(2) | q(2).\n"
    )


def test_ground_drops_an_instance_whose_head_holds_a_fact():
    # p has facts and is headed by a disjunctive rule: only its facts are
    # certain, in a head and in a body alike.
    assert ground_text(
        "d(1). d(2). e(1). e(3). p(1).\np(X) | q(X) :- d(X).\np(X) :- e(X).\nr(X) :- p(X).\n"
    ) == (
        "d(1).\nd(2).\ne(1).\ne(3).\np(1).\np(2) | q(2).\np(3).\n"
        "r(1).\nr(2) :- p(2).\nr(3) :- p(3).\n"
    )


def test_ground_a_match_that_negates_a_certain_atom_derives_nothing():
    # The fragment is joined first, so the match at X=1 is dropped where it
    # is joined: p(1) never enters the closure, and `q(1) :- p(1).` is not
    # emitted.
    text = "d(1). d(2).\nc(X) :- d(X), X < 2.\np(X) | s(X) :- d(X), not c(X).\nq(X) :- p(X)."
    result = ground(parse_program(text))
    gp = result.ground_program
    assert print_ground_program(gp) == "d(1).\nd(2).\nc(1).\np(2) | s(2).\nq(2) :- p(2).\n"
    assert (result.rule_count, result.atom_count) == (3, 6)
    assert as_names(gp, answer_sets(gp)) == [
        ["c(1)", "d(1)", "d(2)", "p(2)", "q(2)"], ["c(1)", "d(1)", "d(2)", "s(2)"],
    ]


def test_ground_a_match_whose_head_holds_a_fact_derives_nothing():
    # The only match of the disjunctive rule holds the fact p(1) in its
    # head, so q(1) is never possibly true and r reads nothing.
    assert ground_text("d(1). p(1).\np(X) | q(X) :- d(X).\nr(X) :- q(X).") == "d(1).\np(1).\n"


def test_ground_evaluates_a_fragment_rule_negated_atom_for_its_errors():
    # No q atom exists, so the negated atom can never be certain; it is
    # still evaluated where the match is joined.
    with pytest.raises(IntegerRangeError, match=r"outside the 64-bit range.* at rule 0 `p :- "):
        ground(parse_program("p :- not q(9223372036854775807+1)."))


def test_ground_constraint_over_certain_atoms_is_one_empty_rule():
    result = ground(parse_program("d(1). d(2).\nc(X) :- d(X).\n:- c(X), d(Y)."))
    gp = result.ground_program
    assert print_ground_program(gp) == "d(1).\nd(2).\nc(1).\nc(2).\n:- .\n"
    assert result.rule_count == 3
    assert not has_answer_set(gp)


def _decomposed_coloring(graph):
    program, _ = decompose_program(threecol_single_rule(graph))
    result = ground(program)
    gp = result.ground_program
    return gp, [r for r in gp.rules if r.pos or r.neg or len(r.head) != 1]


def test_ground_decomposed_colourable_grid_is_facts_and_one_empty_rule():
    # Every temp predicate is inside the fragment, and the constraint reads
    # only them: it has a match, since the grid is 3-colourable.
    gp, rules = _decomposed_coloring(grid(3, 4))
    assert rules == [GroundRule((), (), ())]
    assert not has_answer_set(gp, max_atoms=len(gp.atoms))


def test_ground_decomposed_strip_with_a_k4_is_facts_only():
    # The K4 leaves the constraint without a match, so no rule is left.
    k4 = ("v0_0", "v0_1", "v1_0", "v1_1")
    edges = [(u, w) for i, u in enumerate(k4) for w in k4[i + 1:]]
    graph = make_graph([*grid(3, 4).edges, *edges])
    gp, rules = _decomposed_coloring(graph)
    assert rules == [] and len(gp.rules) == len(gp.atoms)
    assert has_answer_set(gp, max_atoms=len(gp.atoms))


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
            facts, masks = _rule_masks(program)
            in_order = _is_ordered(masks)
            ordered[in_order] += 1
            root = _root_residual(facts, masks, in_order, (1 << len(gp.atoms)) - 1)
            partial += root is not None and 0 < len(root[2]) < len(rules)
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
    facts, masks = _rule_masks(gp)
    assert facts == 0b0001
    assert masks == [(0b0010, 0b0001, 0), (0b1100, 0b0010, 0), (0b1000, 0, 0b0001)]
    assert _root_residual(facts, masks, True, 0b1111) == (0b0011, 0, [masks[1]])
    expected = [["a", "b", "c"], ["a", "b", "d"]]
    assert as_names(gp, answer_sets(gp)) == expected
    assert as_names(gp, answer_sets_naive(gp)) == expected


def test_contradictory_body_makes_nothing_false():
    # `:- a, not a.` can never fire. Read as one undecided body literal, it
    # made a false by the backward step, losing {a}; the root drops it.
    gp = gp_of(["a", "b"], [(("a", "b"), (), ()), ((), ("a",), ("a",))])
    facts, masks = _rule_masks(gp)
    assert facts == 0 and masks == [(0b11, 0, 0), (0, 0b01, 0b01)]
    assert _root_residual(facts, masks, True, 0b11) == (0, 0, [masks[0]])
    assert as_names(gp, answer_sets(gp)) == [["a"], ["b"]]
    assert as_names(gp, answer_sets_naive(gp)) == [["a"], ["b"]]


def test_contradictory_body_supports_nothing():
    # `a1 :- a3, not a3.` never fires, so a1 stays false and a3 is derived.
    gp = gp_of(["a1", "a3"], [(("a1",), ("a3",), ("a3",)), (("a3",), (), ("a1",))])
    assert as_names(gp, answer_sets(gp)) == [["a3"]]
    assert as_names(gp, answer_sets_naive(gp)) == [["a3"]]
    assert has_answer_set(gp)


def root_of(gp):
    """`_root_residual` of gp in its rule order and reversed, each with the
    one-sweep closure where the order allows it and with the repeated one."""
    found = []
    for rules in (gp.rules, gp.rules[::-1]):
        facts, masks = _rule_masks(GroundProgram(gp.atoms, rules))
        for in_order in {_is_ordered(masks), False}:
            found.append(_root_residual(facts, masks, in_order, (1 << len(gp.atoms)) - 1))
    return found


def test_root_alternates_its_two_closures():
    # Round 1 bounds every atom and derives b; round 2 drops c from the
    # bound, as b is true, and derives d; round 3 changes nothing.
    gp = gp_of(
        ["a", "b", "c", "d"],
        [
            (("a",), (), ()),
            (("b",), ("a",), ()),
            (("c",), (), ("b",)),
            (("d",), (), ("c",)),
        ],
    )
    for root in root_of(gp):
        assert root == (0b1011, 0b0100, [])
    assert as_names(gp, answer_sets(gp)) == [["a", "b", "d"]]


def test_root_conflict_from_a_constraint_it_derives():
    # c can never be true, so `:- b, not c.` is sure, and b is derived.
    gp = gp_of(["a", "b", "c"], [(("a",), (), ()), (("b",), ("a",), ()), ((), ("b",), ("c",))])
    assert root_of(gp) == [None] * 3  # reversed, the constraint reads b first
    assert answer_sets(gp) == answer_sets_naive(gp) == set()


def chain_closure(n):
    """The ground program of `p(X,Y) :- e(X,Y). p(X,Z) :- e(X,Y), p(Y,Z).`
    over the edges e(i,i+1), i < n, rule by rule in binding order, so a
    rule reads p atoms that later rules head: it is not ordered."""
    atoms = [Atom("e", (Integer(i), Integer(i + 1))) for i in range(n)]
    index = {}

    def p(i, j):
        if (i, j) not in index:
            index[i, j] = len(atoms)
            atoms.append(Atom("p", (Integer(i), Integer(j))))
        return index[i, j]

    rules = [GroundRule((i,), (), ()) for i in range(n)]
    rules += [GroundRule((p(i, i + 1),), (i,), ()) for i in range(n)]
    rules += [
        GroundRule((p(i, k),), (i, p(i + 1, k)), ())
        for i in range(n)
        for k in range(i + 2, n + 1)
    ]
    return GroundProgram(tuple(atoms), tuple(rules))


def test_root_closes_a_long_chain_fast():
    # The root derives about one chain link per sweep of this unordered
    # program; a root that closes the bound again after each such sweep
    # takes about 30 s on 100 edges.
    gp = chain_closure(100)
    assert not _is_ordered(_rule_masks(gp)[1])
    start = time.perf_counter()
    assert has_answer_set(gp, max_atoms=len(gp.atoms))
    assert time.perf_counter() - start < 3.0
    gp = chain_closure(50)
    start = time.perf_counter()
    found = answer_sets(gp, max_atoms=len(gp.atoms))
    assert time.perf_counter() - start < 0.5
    assert [Counter(gp.atoms[i].pred for i in s.true_atoms) for s in found] == [
        {"e": 50, "p": 1275}
    ]


def test_answer_sets_agree_with_naive_when_rule_parts_share_atoms():
    # One atom may sit in a rule's head and both bodies; `answer_sets` once
    # lost answer sets to rules like `:- a, not a.`.
    rng = random.Random(1)
    shared = ordered = 0
    for _ in range(2000):
        gp = random_overlapping_ground_program(rng)
        naive = answer_sets_naive(gp)
        assert answer_sets(gp) == naive
        assert has_answer_set(gp) == bool(naive)
        shared += any(set(r.pos) & set(r.neg) for r in gp.rules)
        ordered += _is_ordered(_rule_masks(gp)[1])
    assert shared > 1000 and 200 < ordered < 1800


def test_facts_seed_the_root_like_any_rule():
    # Facts, and sometimes `:- .`, dropped anywhere into programs whose
    # atoms overlap freely: seeding the root with the facts as one mask must
    # give the answer sets, and their order, of deriving them. Many of the
    # facts also sit in a negative body or a disjunctive head, where the
    # search would otherwise decide them.
    rng = random.Random(25)
    overlapping = 0
    for _ in range(1000):
        gp = random_overlapping_ground_program(rng)
        rules = list(gp.rules)
        added = [GroundRule((rng.randrange(len(gp.atoms)),)) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.2:
            added.append(GroundRule())
        for rule in added:
            rules.insert(rng.randint(0, len(rules)), rule)
        program = GroundProgram(gp.atoms, rules)
        facts = {r.head[0] for r in rules if len(r.head) == 1 and not r.pos and not r.neg}
        decisions = sorted(
            {i for r in rules for i in r.neg} | {i for r in rules if len(r.head) > 1 for i in r.head}
        )
        overlapping += bool(facts & set(decisions))
        naive = answer_sets_naive(program)
        expected = sorted(
            (sum(1 << i for i in s.true_atoms) for s in naive),
            key=lambda m: [not m >> i & 1 for i in decisions],
        )
        assert answer_sets(program) == naive
        assert has_answer_set(program) == bool(naive)
        assert _enumerate_answer_sets(program, True) == expected[:1]
        assert _enumerate_answer_sets(program, False) == expected
    assert overlapping >= 500


def test_sixty_thousand_facts_solve_in_linear_time_and_space():
    # The decomposed 3x1200 colouring strip grounds to about 57,500 facts
    # and `:- .`. A bitmask and a sweep per fact took seconds and over
    # 200 MB on these programs; the facts seed the root as one mask instead.
    n = 60_000
    atoms = tuple(Atom("v", (Integer(i),)) for i in range(n))
    facts = [GroundRule((i,)) for i in range(n)]
    inconsistent = GroundProgram(atoms, [*facts, GroundRule()])
    consistent = GroundProgram(atoms, facts)
    for solve, expected in (
        (lambda: has_answer_set(inconsistent, max_atoms=n), False),
        (lambda: answer_sets(consistent, max_atoms=n), {Interpretation(frozenset(range(n)))}),
    ):
        tracemalloc.start()
        start = time.perf_counter()
        try:
            found = solve()
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert found == expected
        assert elapsed < 2.0 and peak < 40_000_000


def test_answer_sets_need_a_unique_true_head():
    # `a | b.` supports a when b is false, but neither atom when both are
    # true; `c :- a.` then supports c only while a is true. So {a, b, c} and
    # {b, c} are not answer sets, nor is {a}, which violates `c :- a.`.
    gp = gp_of(["a", "b", "c"], [(("a", "b"), (), ()), (("c",), ("a",), ())])
    expected = [["a", "c"], ["b"]]
    assert as_names(gp, answer_sets(gp)) == expected
    assert as_names(gp, answer_sets_naive(gp)) == expected


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
    # minimal one, found 1,200 branchings deep, with the recursion limit 50
    # frames above here.
    k = 1200
    names = [x for i in range(k) for x in (f"a{i}", f"b{i}")]
    gp = gp_of(names, [((f"a{i}", f"b{i}"), (), ()) for i in range(k)])
    _, masks = _rule_masks(gp)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 50)
    try:
        minimal = _minimal_below(masks, (1 << 2 * k) - 1, _is_ordered(masks), 0)
    finally:
        sys.setrecursionlimit(limit)
    assert minimal is False


def _minimal_by_subsets(masks, m: int, lo: int) -> bool:
    """No proper subset of m that contains lo models the reduct w.r.t. m,
    tried one subset at a time."""
    red = [(h, p) for h, p, g in masks if not g & m]
    sub = m
    while sub:
        sub = (sub - 1) & m
        if sub & lo == lo and all(h & sub or p & ~sub for h, p in red):
            return False
    return True


def test_minimal_below_agrees_with_subset_enumeration():
    # Every model m of a random ground program that contains its facts,
    # with the facts as lo: the search over the reduct finds a model
    # strictly below m exactly when one of m's subsets is one.
    rng = random.Random(28)
    checked = rejected = 0
    for k in range(2000):
        make = random_overlapping_ground_program if k % 2 else random_ground_program
        gp = make(rng, max_atoms=8, max_rules=10)
        rules = [*gp.rules, *(GroundRule((rng.randrange(len(gp.atoms)),))
                              for _ in range(rng.randint(0, 2)))]
        rng.shuffle(rules)
        facts, masks = _rule_masks(GroundProgram(gp.atoms, rules))
        ordered = _is_ordered(masks)
        for m in range(1 << len(gp.atoms)):
            if m & facts != facts or not _is_model(masks, m):
                continue
            expected = _minimal_by_subsets(masks, m, facts)
            assert _minimal_below(masks, m, ordered, facts) is expected
            checked += 1
            rejected += not expected
    assert checked - rejected >= 1000 and rejected >= 20_000


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


# ------------------------------------------------------------------- caps --

THREE_ATOMS = gp_of(["a", "b", "c"], [])


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: answer_sets_naive(THREE_ATOMS, max_atoms=2), TooManyAtomsError, "3 atoms"),
        (
            lambda: eval_qbf_expansion(Qbf((("e", (1, 2, 3)),), (), 3), max_vars=2),
            TooManyVarsError,
            "3 variables",
        ),
        (
            lambda: solve_coloring(make_graph([("a", "b"), ("b", "c")]), max_vertices=2),
            TooManyVerticesError,
            "3 vertices",
        ),
        (
            lambda: abduce_bruteforce(
                AbductionInstance(THREE_ATOMS, frozenset(), frozenset()), max_universe=2
            ),
            TooManyAtomsError,
            "3 atoms",
        ),
        (
            lambda: abduce_bruteforce(
                AbductionInstance(THREE_ATOMS, frozenset({0, 1, 2}), frozenset()),
                max_hypotheses=2,
            ),
            TooManyAtomsError,
            "3 hypotheses",
        ),
    ],
    ids=[
        "answer_sets_naive",
        "eval_qbf_expansion",
        "solve_coloring",
        "abduce_bruteforce-universe",
        "abduce_bruteforce-hypotheses",
    ],
)
def test_reference_refuses_input_over_its_cap(call, error, message):
    with pytest.raises(error, match=f"^{message} exceeds cap 2$"):
        call()


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
        plan = _Plan([l.atom for l in r.pos_body], r.arith, store=_Store())
        if global_vars(r) - plan.slots.keys():
            return True
        names = tuple(sorted(plan.slots))
        for agg in r.aggregates:
            cond = _Plan([l.atom for l in agg.condition if not l.negated], (), store=_Store(), bound=names)
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
        plan = _Plan([l.atom for l in r.pos_body], r.arith, store=_Store())
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
    arguments, ties to the earlier atom, yields. An arithmetic argument is
    bound once all its variables are."""
    rng = random.Random(5)
    names = [f"X{i}" for i in range(8)]

    def argument():
        roll = rng.random()
        if roll < 0.6:
            return Variable(rng.choice(names))
        if roll < 0.8:
            right = rng.choice([Integer(1), Variable(rng.choice(names))])
            return Arith(rng.choice("+-"), Variable(rng.choice(names)), right)
        return Constant("a")

    def bound_arguments(a, seen):
        return sum(variables_of(arg) <= seen for arg in a.args)

    for _ in range(500):
        atoms = [
            Atom(rng.choice("pqr"), tuple(argument() for _ in range(rng.randint(0, 3))))
            for _ in range(rng.randint(0, 12))
        ]
        bound = set(rng.sample(names, rng.randint(0, 2)))
        scanned, left, seen = [], list(range(len(atoms))), set(bound)
        while left:
            idx = max(left, key=lambda i: bound_arguments(atoms[i], seen))
            left.remove(idx)
            scanned.append(idx)
            seen.update(arg.name for arg in atoms[idx].args if isinstance(arg, Variable))
        fresh: list[str] = []
        heaped = []
        for idx in join_order(atoms, bound, fresh):
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


def test_empty_min_meets_no_guard():
    gp = ground(parse_program("r(1).\nh :- r(1), #min{X : p(X)} < 5.")).ground_program
    assert as_names(gp, answer_sets(gp)) == [["r(1)"]]


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


def test_an_aggregate_is_decided_once_per_reading():
    # The aggregate reads no rule variable, so its 2,000 matches decide it
    # once: 3 s on 2 vCPUs when each match evaluated it again.
    facts = "".join(f"n({k}). g({k}).\n" for k in range(2000))
    program = parse_program(facts + "h(X) :- g(X), #count{Z : n(Z)} > 1.")
    start = time.perf_counter()
    result = ground(program)
    assert time.perf_counter() - start < 1.0
    assert result.rule_count == 2000


def test_aggregates_read_the_one_closure(monkeypatch):
    # `m` is read positively and `e` negated; `d` feeds no condition. The
    # closure runs once, and each rule is joined once.
    closures, joined = [], []
    closure, matches = oracle._closure, oracle._RulePlan.matches

    def closure_spy(*args):
        closures.append(args)
        return closure(*args)

    def matches_spy(self):
        joined.append(str(self.rule))
        return matches(self)

    monkeypatch.setattr(oracle, "_closure", closure_spy)
    monkeypatch.setattr(oracle._RulePlan, "matches", matches_spy)
    facts = "".join(f"n({k}).\n" for k in range(10))
    program = parse_program(
        facts + "d(X,Y,Z) :- n(X), n(Y), n(Z).\nm(X) :- n(X).\ne(X) :- m(X), X > 5.\n"
        "q :- #count{X : m(X), not e(X)} = 6."
    )
    gp = ground(program).ground_program
    assert len(closures) == 1
    assert sorted(joined) == sorted(map(str, program.rules))
    texts = {gp.rule_str(r) for r in gp.rules}
    assert "q." in texts
    assert sum(t.startswith("d(") for t in texts) == 1000


def test_aggregate_condition_rule_over_the_limit_names_that_rule():
    facts = "".join(f"n({k}).\n" for k in range(10))
    program = parse_program(
        facts + "q :- #count{X : m(X,Y)} >= 1.\nm(X,Y) :- n(X), n(Y)."
    )
    with pytest.raises(GroundingLimitError) as info:
        ground(program, max_ground_rules=50)
    message = str(info.value)
    assert "exceeds 50 rule instances" in message
    assert "at rule 1 `m(X,Y) :- n(X), n(Y).`" in message
