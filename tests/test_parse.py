import random
import time
import warnings

import pytest
from hypothesis import given, strategies as st

from bigrule.errors import (
    DanglingReferenceError,
    DuplicateIdError,
    ParseError,
    PartitionError,
    SafetyError,
)
from bigrule.parse import (
    Clause,
    Qbf,
    QdimacsWarning,
    emit_qdimacs,
    emit_reified,
    make_graph,
    parse_graph,
    parse_program,
    parse_qdimacs,
    parse_reified,
    print_program,
    reified_atom_ids,
    reified_rule_ids,
)
from bigrule.syntax import Arith, Atom, Constant, GroundProgram, GroundRule, Integer

from corpus import random_ground_program, random_safe_rule_program


# ------------------------------------------------------------ ASP text ----

def test_fifty_deep_terms_parse():
    nested = "(" * 50 + "1" + "+1)" * 50
    program = parse_program(f"p({nested}). q(Y) :- p(X), Y = X{'+1' * 50}.")
    term = program.facts[0].args[0]
    for _ in range(50):
        assert isinstance(term, Arith)
        term = term.left
    assert term == Integer(1)
    assert parse_program(print_program(program)) == program


def test_parse_three_facts():
    program = parse_program("col(r). col(g). col(b).")
    assert len(program.facts) == 3 and not program.rules


def test_parse_single_big_constraint():
    program = parse_program(":- e(A,B), e(B,C), e(C,D), e(D,A), e(B,D).")
    assert len(program.rules) == 1
    rule = program.rules[0]
    assert rule.head == ()
    assert len(rule.pos_body) == 5
    from bigrule.syntax import variables_of

    assert variables_of(rule) == {"A", "B", "C", "D"}


def test_parse_unsafe_rule_rejected():
    with pytest.raises(SafetyError) as err:
        parse_program(":- not p(X).")
    assert err.value.unsafe_vars == {"X"}


def test_parse_facts_keep_statement_order():
    # `q :- .` is a fact too, and Program lists it where it was written.
    program = parse_program("q :- .\np.\n")
    assert program.facts == (Atom("q"), Atom("p"))
    assert program.rules == ()


def test_parse_syntax_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_program("p(a)\nq(b).")
    assert err.value.line == 2


def test_parse_disjunction_and_negation():
    program = parse_program("a | b :- c, not d.\nc.\n")
    rule = program.rules[0]
    assert [a.pred for a in rule.head] == ["a", "b"]
    assert [l.atom.pred for l in rule.pos_body] == ["c"]
    assert [l.atom.pred for l in rule.neg_body] == ["d"]


def test_parse_comparison_and_aggregate():
    program = parse_program(
        "big(N) :- n(N), N >= 2, #count{V : edge(V,W), node(W)} >= N."
    )
    rule = program.rules[0]
    assert rule.arith[0].op == ">="
    agg = rule.aggregates[0]
    assert agg.func == "count" and agg.tuple_vars == ("V",)


def test_parse_arith_parenthesization_round_trip():
    text = "p(X) :- q(Y), X = (Y+1)*2.\n"
    program = parse_program(text)
    assert print_program(program) == text
    nested = parse_program("p(X) :- q(Y), X = Y-(1-1).")
    assert parse_program(print_program(nested)) == nested


def test_empty_program_prints_empty():
    assert print_program(parse_program("")) == ""


def test_comments_ignored():
    program = parse_program("% header\np(a). % trailing\n% done\n")
    assert len(program.facts) == 1


def test_print_parse_identity_on_random_programs():
    rng = random.Random(90125)
    for _ in range(150):
        program = random_safe_rule_program(rng)
        assert parse_program(print_program(program)) == program


def test_print_parse_identity_with_aggregate_and_arith():
    text = (
        "p(a).\n"
        "big(N) :- n(N), N >= 2, #count{V : edge(V,W), not node(W)} >= N.\n"
        "q(X) :- p(Y), X = Y+1.\n"
    )
    program = parse_program("n(1). edge(a,b). node(b). p(1). " + text.replace("\n", " "))
    assert parse_program(print_program(program)) == program


def test_constraint_with_empty_body_round_trips():
    program = parse_program(":- .")
    assert len(program.rules) == 1
    assert parse_program(print_program(program)) == program


def test_negative_integers_round_trip():
    # Ground programs printed by the grounder may contain arithmetic
    # results below zero.
    program = parse_program("q(-3).\np(X) :- q(Y), X = Y - -1.")
    assert parse_program(print_program(program)) == program
    from bigrule.syntax import Integer

    assert program.facts[0].args == (Integer(-3),)


# ------------------------------------------------------------- QDIMACS ----

def test_parse_qdimacs_basic():
    qbf = parse_qdimacs("p cnf 2 2\na 1 0\ne 2 0\n1 2 0\n-1 -2 0")
    assert qbf.prefix == (("a", (1,)), ("e", (2,)))
    assert [c.lits for c in qbf.clauses] == [(1, 2), (-1, -2)]


def test_parse_qdimacs_vacuous_universal():
    qbf = parse_qdimacs("p cnf 1 0\na 1 0")
    assert qbf.prefix == (("a", (1,)),) and qbf.clauses == ()


def test_parse_qdimacs_tautology_flagged():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        qbf = parse_qdimacs("p cnf 1 1\na 1 0\n1 -1 0")
    assert qbf.clauses[0].tautology


def test_parse_qdimacs_wide_clause_is_linear():
    width = 100_000
    lits = " ".join(f"{v} {-v}" for v in range(1, width + 1))
    text = f"p cnf {width} 1\n{lits} 0"
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        qbf = parse_qdimacs(text)
    assert time.perf_counter() - start < 1.0
    (clause,) = qbf.clauses
    assert clause.tautology and len(clause.lits) == 2 * width
    assert clause.lits[:4] == (1, -1, 2, -2)


def test_clause_of_keeps_first_occurrence_order():
    assert Clause.of([3, -1, 3, 2, -1]) == Clause((3, -1, 2), False)
    assert Clause.of([2, 1, -2, 2]) == Clause((2, 1, -2), True)


def test_parse_qdimacs_merges_adjacent_blocks():
    qbf = parse_qdimacs("p cnf 3 1\na 1 0\na 2 0\ne 3 0\n1 3 0")
    assert qbf.prefix == (("a", (1, 2)), ("e", (3,)))


def test_parse_qdimacs_free_vars_bound_innermost():
    with pytest.warns(QdimacsWarning):
        qbf = parse_qdimacs("p cnf 2 1\na 1 0\n1 2 0")
    assert qbf.prefix == (("a", (1,)), ("e", (2,)))


@pytest.mark.parametrize("text", ["p cnf 1000000000 0", "p cnf 1000000000 1\n1000000000 0"])
def test_parse_qdimacs_huge_header_costs_what_the_clauses_cost(text):
    # Only variables of some clause are bound innermost: one that occurs
    # nowhere cannot change the formula's value.
    start = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        qbf = parse_qdimacs(text)
    assert time.perf_counter() - start < 1.0
    assert qbf.num_vars == 10**9
    if qbf.clauses:
        assert qbf.prefix == (("e", (10**9,)),)
        assert [str(w.message) for w in caught] == [
            "1 unbound variable(s) (1000000000); binding existentially innermost"
        ]
    else:
        assert qbf.prefix == () and caught == []


def test_parse_qdimacs_unbound_warning_counts_and_clips():
    with pytest.warns(QdimacsWarning, match=r"^7 unbound variable\(s\) \(2, 3, 4, 5, 6, …\);"):
        qbf = parse_qdimacs("p cnf 9 1\na 1 0\n1 2 3 4 5 6 7 8 0")
    assert qbf.prefix == (("a", (1,)), ("e", (2, 3, 4, 5, 6, 7, 8)))


def test_parse_qdimacs_duplicate_quantifier_rejected():
    with pytest.raises(ParseError):
        parse_qdimacs("p cnf 1 1\na 1 0\ne 1 0\n1 0")


def test_qdimacs_round_trip_deterministic_cases():
    for text in (
        "p cnf 2 2\na 1 0\ne 2 0\n1 2 0\n-1 -2 0\n",
        "p cnf 1 0\na 1 0\n",
        "p cnf 3 2\ne 1 2 3 0\n1 -2 0\n3 0\n",
    ):
        qbf = parse_qdimacs(text)
        assert parse_qdimacs(emit_qdimacs(qbf)) == qbf


@given(st.data())
def test_qdimacs_emit_parse_identity(data):
    m = data.draw(st.integers(0, 3))
    n = data.draw(st.integers(1, 3))
    total = m + n
    prefix = []
    if m:
        prefix.append(("a", tuple(range(1, m + 1))))
    prefix.append(("e", tuple(range(m + 1, total + 1))))
    n_clauses = data.draw(st.integers(0, 5))
    clauses = []
    for _ in range(n_clauses):
        lits = data.draw(
            st.lists(
                st.integers(1, total).flatmap(
                    lambda v: st.sampled_from([v, -v])
                ),
                min_size=1,
                max_size=3,
            )
        )
        clauses.append(Clause.of(lits))
    qbf = Qbf(tuple(prefix), tuple(clauses), total)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert parse_qdimacs(emit_qdimacs(qbf)) == qbf


# --------------------------------------------------------------- graphs ----

def test_parse_graph_worked_example():
    g = parse_graph("a b\nb c\nc d\na d\nb d")
    assert g.vertices == {"a", "b", "c", "d"}
    assert len(g.edges) == 5


def test_parse_graph_empty():
    g = parse_graph("")
    assert not g.vertices and not g.edges


def test_parse_graph_self_loop_rejected():
    with pytest.raises(ParseError):
        parse_graph("a a")


def test_parse_graph_partition():
    g = parse_graph("a b\nb c\n#V1\na\nc\n")
    assert g.partition == (frozenset({"a", "c"}), frozenset({"b"}))


def test_parse_graph_partition_unknown_vertex():
    with pytest.raises(PartitionError):
        parse_graph("a b\n#V1\nz\n")


def test_parse_graph_bad_vertex_name():
    with pytest.raises(ParseError):
        parse_graph("A b")


@pytest.mark.parametrize(
    "edge, message",
    [(("a", "a"), "self-loop on 'a'"), (("a", "B"), "vertex name 'B' is not a valid constant")],
    ids=["self-loop", "bad-name"],
)
def test_graph_edge_errors(edge, message):
    # make_graph reports no line; parse_graph reports the edge's line.
    with pytest.raises(ParseError) as direct:
        make_graph([("a", "b"), edge])
    assert (str(direct.value), direct.value.line) == (message, None)
    with pytest.raises(ParseError) as parsed:
        parse_graph("a b\n" + " ".join(edge))
    assert (str(parsed.value), parsed.value.line) == (f"line 2: {message}", 2)


# -------------------------------------------------------------- reified ----

def test_reified_simple_disjunctive_fact():
    gp = GroundProgram((Atom("a"), Atom("b")), (GroundRule((0, 1), (), ()),))
    text = emit_reified(gp)
    assert text.splitlines() == [
        "atom(a).",
        "atom(b).",
        "rule(r0).",
        "head(r0,a).",
        "head(r0,b).",
    ]
    assert parse_reified(text) == gp


def test_reified_dangling_reference():
    with pytest.raises(DanglingReferenceError):
        parse_reified("rule(r0). pos(r0,a).")


def test_reified_duplicate_id():
    with pytest.raises(DuplicateIdError):
        parse_reified("atom(a). atom(a).")


def test_reified_unknown_predicate():
    with pytest.raises(ParseError):
        parse_reified("atom(a). weird(a).")


def test_reified_ids_are_distinct_symbols():
    # p_a(b) falls back to p_a_b, then to p_a_b_2, which the first atom holds;
    # p(-1) must not yield p_-1, which is not a symbol.
    gp = GroundProgram(
        (
            Atom("p_a_b_2"),
            Atom("p", (Constant("a_b"),)),
            Atom("p_a", (Constant("b"),)),
            Atom("p", (Integer(-1),)),
        ),
        (GroundRule((0,)), GroundRule((1, 2)), GroundRule((3,), (), (0,))),
    )
    ids = reified_atom_ids(gp)
    assert ids == ["p_a_b_2", "p_a_b", "p_a_b_2_", "p_m1"]
    back = parse_reified(emit_reified(gp))
    assert [str(a) for a in back.atoms] == ids
    assert back.rules == gp.rules


def test_reified_rule_id_skips_an_atom_id():
    gp = GroundProgram((Atom("r0"),), (GroundRule((0,)),))
    assert reified_rule_ids(gp, reified_atom_ids(gp)) == ["r0_"]
    assert emit_reified(gp).splitlines() == ["atom(r0).", "rule(r0_).", "head(r0_,r0)."]
    assert parse_reified(emit_reified(gp)) == gp


def test_reified_round_trip_on_random_programs():
    rng = random.Random(777)
    for _ in range(200):
        gp = random_ground_program(rng)
        back = parse_reified(emit_reified(gp))
        assert len(back.rules) == len(gp.rules)
        assert back.rules == gp.rules  # same index structure
        assert len(back.atoms) == len(gp.atoms)


def test_reified_nonzero_arity_atoms_get_mangled_ids():
    # Two atoms whose mangled names would collide must stay distinct.
    from bigrule.syntax import Constant

    gp = GroundProgram(
        (Atom("p", (Constant("a_b"),)), Atom("p_a", (Constant("b"),))),
        (GroundRule((0,), (1,), ()),),
    )
    back = parse_reified(emit_reified(gp))
    assert len(back.atoms) == 2
    assert back.rules == gp.rules
