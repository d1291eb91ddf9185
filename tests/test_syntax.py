import random

import pytest
from hypothesis import given, strategies as st

from bigrule.errors import ArityError, SafetyError
from bigrule.parse import parse_program
from bigrule.syntax import (
    Arith,
    Atom,
    Constant,
    GroundProgram,
    GroundRule,
    Integer,
    Literal,
    Program,
    Rule,
    Variable,
    eval_term,
    is_head_cycle_free,
    is_safe,
    shift,
    variables_in_order,
    variables_of,
)
from bigrule.oracle import answer_sets

from corpus import random_ground_program


def rule_of(text):
    return parse_program(text).rules[0]


def test_variables_of_atom():
    assert variables_of(Atom("e", (Variable("X"), Variable("Y")))) == {"X", "Y"}


def test_variables_of_worked_rule():
    r = rule_of("h(X,W) :- e(X,Y), e(Y,Z), not e(Z,W), e(W,X).")
    assert variables_of(r) == {"X", "Y", "Z", "W"}


def test_variables_of_ground_fact():
    assert variables_of(Atom("col", (Constant("r"),))) == set()


def test_variables_of_arith_and_aggregate():
    r = rule_of("p(X) :- q(Y), X = Y+1, #count{V : s(V,Z), t(Z)} >= N, n(N).")
    assert variables_of(r) == {"X", "Y", "V", "Z", "N"}


ORDER_RULE = (
    "h(X,Y,X) :- p(X,Z), r(Y), not q(Z,W), W = Z+Y, E = W*U,"
    " #count{V,T : s(T,V), t(V,A)} >= B, u(U), b(B)."
)


def test_variables_in_order_of_rule():
    # Head, then positive, negative, arithmetic and aggregate elements; an
    # aggregate's tuple variables come before its condition's.
    r = rule_of(ORDER_RULE)
    assert variables_in_order(r) == ["X", "Y", "Z", "U", "B", "W", "E", "V", "T", "A"]


def test_variables_in_order_of_parts():
    r = rule_of(ORDER_RULE)
    assert variables_in_order(r.aggregates[0]) == ["V", "T", "A", "B"]
    assert variables_in_order([r.pos_body[0], *r.neg_body]) == ["X", "Z", "W"]
    assert variables_in_order(r.neg_body[0]) == ["Z", "W"]
    assert variables_in_order(r.arith[1]) == ["E", "W", "U"]
    nested = Arith("-", Variable("B"), Arith("*", Variable("A"), Variable("B")))
    assert variables_in_order(nested) == ["B", "A"]
    assert variables_in_order(()) == []
    with pytest.raises(TypeError):
        variables_in_order("X")


def test_is_safe_negative_only_variable():
    r = Rule(
        head=(),
        pos_body=(Literal(Atom("e", (Variable("X"), Variable("Y")))),),
        neg_body=(Literal(Atom("e", (Variable("Y"), Variable("Z"))), True),),
    )
    ok, unsafe = is_safe(r)
    assert not ok and unsafe == {"Z"}


def test_is_safe_worked_rule():
    ok, unsafe = is_safe(rule_of("h(X,W) :- e(X,Y), e(Y,Z), not e(Z,W), e(W,X)."))
    assert ok and unsafe == set()


def test_is_safe_arithmetic_closure():
    ok, unsafe = is_safe(rule_of(":- p(Y), X = Y+1, not q(X)."))
    assert ok and unsafe == set()


def test_is_safe_unresolvable_chain():
    bad = Rule(
        head=(),
        pos_body=(Literal(Atom("p", (Variable("Y"),))),),
        arith=(),
        neg_body=(Literal(Atom("q", (Variable("X"),)), True),),
    )
    ok, unsafe = is_safe(bad)
    assert not ok and unsafe == {"X"}


@given(st.data())
def test_is_safe_monotone_under_positive_atoms(data):
    names = ["A", "B", "C", "D"]
    n_neg = data.draw(st.integers(0, 3))
    neg = tuple(
        Literal(Atom("q", (Variable(data.draw(st.sampled_from(names))),)), True)
        for _ in range(n_neg)
    )
    n_pos = data.draw(st.integers(0, 3))
    pos = tuple(
        Literal(Atom("p", (Variable(data.draw(st.sampled_from(names))),)))
        for _ in range(n_pos)
    )
    base = Rule(head=(), pos_body=pos, neg_body=neg)
    extra = Literal(Atom("p", (Variable(data.draw(st.sampled_from(names))),)))
    extended = Rule(head=(), pos_body=pos + (extra,), neg_body=neg)
    _, unsafe_base = is_safe(base)
    _, unsafe_ext = is_safe(extended)
    assert unsafe_ext <= unsafe_base


def test_bindable_vars_excludes_embedded_arith():
    r = rule_of("p(X) :- q(X), or(N, X-Y, M), leq(Y, X).")
    assert is_safe(r) == (True, set())
    r2 = Rule(
        head=(),
        pos_body=(
            Literal(
                # X only occurs inside the arithmetic argument
                Atom("or", (Variable("N"), Arith("-", Variable("X"), Integer(1)), Variable("M")))
            ),
        ),
    )
    assert is_safe(r2) == (False, {"X"})


def test_shift_textbook_disjunction():
    gp = GroundProgram(
        (Atom("a"), Atom("b")),
        (GroundRule((0, 1), (), ()),),
    )
    shifted = shift(gp)
    assert shifted.rules == (
        GroundRule((0,), (), (1,)),
        GroundRule((1,), (), (0,)),
    )


def test_shift_identity_on_normal():
    gp = GroundProgram((Atom("a"), Atom("b")), (GroundRule((0,), (1,), ()),))
    assert shift(gp).rules == gp.rules


def test_shift_detects_head_cycle():
    gp = GroundProgram(
        (Atom("a"), Atom("b")),
        (
            GroundRule((0, 1), (), ()),
            GroundRule((0,), (1,), ()),
            GroundRule((1,), (0,), ()),
        ),
    )
    assert not is_head_cycle_free(gp)


def test_shift_preserves_answer_sets_on_hcf_corpus():
    rng = random.Random(4217)
    checked = 0
    for _ in range(300):
        gp = random_ground_program(rng, max_atoms=6, max_rules=6)
        if not is_head_cycle_free(gp):
            continue
        checked += 1
        assert answer_sets(shift(gp), max_atoms=10) == answer_sets(gp, max_atoms=10)
    assert checked >= 150


def test_arity_clash_rejected():
    with pytest.raises(ArityError):
        Program([], [Atom("p", (Constant("a"),)), Atom("p", (Constant("a"), Constant("b")))])


UNSAFE_RULE = Rule(
    head=(Atom("a", (Variable("X"),)),),
    neg_body=(Literal(Atom("b", (Variable("X"),)), True),),
)


def test_program_rejects_an_unsafe_rule():
    with pytest.raises(SafetyError) as err:
        Program([UNSAFE_RULE])
    assert str(err.value) == "unsafe variables {X} in `a(X) :- not b(X).`"
    assert err.value.unsafe_vars == {"X"}


def test_program_safety_wins_over_arity_clash():
    with pytest.raises(SafetyError):
        Program([UNSAFE_RULE], [Atom("a", (Constant("c"), Constant("d")))])


def test_program_normalizes_ground_unit_rules_to_facts():
    fact_rule = Rule(head=(Atom("p", (Constant("a"),)),))
    program = Program([fact_rule], [])
    assert program.rules == ()
    assert program.facts == (Atom("p", (Constant("a"),)),)


def test_interpretation_atom_strings():
    gp = GroundProgram((Atom("b"), Atom("a")), ())
    from bigrule.syntax import Interpretation

    assert Interpretation(frozenset({0, 1})).atom_strs(gp) == ["a", "b"]


def test_ground_rule_fields_defaults_and_immutability():
    rule = GroundRule((0,), (1,))
    assert GroundRule((0,)).pos == GroundRule((0,)).neg == ()
    assert repr(rule) == "GroundRule(head=(0,), pos=(1,), neg=())"
    with pytest.raises(AttributeError):
        rule.head = (1,)
    twin = GroundRule(head=(0,), pos=(1,), neg=())
    assert twin == rule and hash(twin) == hash(rule)
    assert GroundRule((0,), (2,)) != rule


@pytest.mark.parametrize(
    "atoms, rule, message",
    [
        (("a", "b"), GroundRule((0,), (-1,), ()), "unregistered atom index -1"),
        (("a", "b"), GroundRule((0,), (), (2,)), "unregistered atom index 2"),
        (("a", "a"), GroundRule((0,), (), ()), "duplicate atom"),
    ],
)
def test_ground_program_rejects_bad_atom_table(atoms, rule, message):
    with pytest.raises(ValueError, match=message):
        GroundProgram(tuple(Atom(a) for a in atoms), (rule,))


@pytest.mark.parametrize(
    "text, value",
    [
        ("100000000000000001/3", 33333333333333333),
        ("(0-100000000000000001)/7", -14285714285714285),
        ("9223372036854775807/2", 4611686018427387903),
        ("-7/2", -3),
        ("7/(0-2)", -3),
        ("-7/(0-2)", 3),
        ("7/2", 3),
    ],
)
def test_division_is_exact_and_truncates_toward_zero(text, value):
    comp = parse_program(f"p(Y) :- Y = {text}.").rules[0].arith[0]
    assert eval_term(comp.right, {}) == value
