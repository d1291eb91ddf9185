import random
import time

import pytest

import bigrule.decompose
import bigrule.syntax
from bigrule.decompose import (
    ESTIMATE_SATURATED,
    RULE_COST,
    FreshNamer,
    _fact_sizes,
    _join_estimate,
    decompose_program,
    decompose_rule,
    grounding_estimate,
    rename_reserved,
    split_aggregate,
    synthesize_dom_rules,
)
from bigrule.errors import ReservedPrefixCollisionError, UnsecurableVariableError
from bigrule.oracle import _Plan, _Store, answer_sets, answer_sets_naive, ground
from bigrule.parse import make_graph, parse_program, parse_qdimacs, print_program
from bigrule.rewriters import qbf2_classic, threecol_single_rule
from bigrule.syntax import (
    Atom,
    Literal,
    Program,
    Rule,
    Variable,
    is_safe,
    variables_of,
)
from bigrule.treedecomp import (
    TreeDecomposition,
    decompose_graph,
    gaifman,
    root_at_head,
    validate_td,
)

from corpus import random_safe_rule_program


def rule_of(text):
    return parse_program(text).rules[0]


WORKED_RULE = rule_of("h(X,W) :- e(X,Y), e(Y,Z), not e(Z,W), e(W,X).")
WORKED_TD = TreeDecomposition(
    [frozenset({"X", "W", "Y"}), frozenset({"Y", "Z", "W"})], [(0, 1)], root=0
)


def struct(rule):
    return (
        tuple(rule.head),
        frozenset(rule.pos_body),
        frozenset(rule.neg_body),
        frozenset(rule.arith),
        frozenset(rule.aggregates),
    )


def project_answer_sets(gp, prefixes=("temp_", "dom_"), max_atoms=4000):
    out = set()
    for interp in answer_sets(gp, max_atoms=max_atoms):
        out.add(
            frozenset(
                str(gp.atoms[i])
                for i in interp.true_atoms
                if not gp.atoms[i].pred.startswith(prefixes)
            )
        )
    return out


def equivalent_after_decomposition(program, **kwargs):
    decomposed, report = decompose_program(program, **kwargs)
    original = ground(program).ground_program
    rewritten = ground(decomposed).ground_program
    return (
        project_answer_sets(original) == project_answer_sets(rewritten),
        decomposed,
        report,
    )


# ---------------------------------------------------------- golden example --

def test_worked_example_produces_three_known_rules():
    pieces = decompose_rule(WORKED_RULE, WORKED_TD, FreshNamer("0"))
    expected = [
        rule_of("dom_0_W(W) :- e(W,X).\n"),
        rule_of("temp_0_1(Y,W) :- e(Y,Z), dom_0_W(W), not e(Z,W).\n"),
        rule_of("h(X,W) :- e(X,Y), e(W,X), temp_0_1(Y,W).\n"),
    ]
    assert [struct(p) for p in pieces] == [struct(e) for e in expected]
    for piece in pieces:
        ok, unsafe = is_safe(piece)
        assert ok, unsafe


def test_worked_example_width_two_via_driver():
    program = Program([WORKED_RULE], parse_program("e(a,b). e(b,c). e(c,d). e(d,a).").facts)
    _, report = decompose_program(program, threshold=False)
    assert report.rules[0].width == 2
    assert report.rules[0].decomposed


def test_split_of_a_rerooted_branching_tree():
    # Six bags, edges listed out of index order, rooted at bag 3 and
    # re-rooted at bag 4, the first bag in preorder holding the head. The
    # root's children are 0, 2 and 5 in index order; the preorder is
    # 4 0 2 1 5 3, which numbers the temp predicates, and the rules come in
    # postorder 0 1 2 3 5 4.
    rule = rule_of("h(A,B) :- s(E,B,A), q(B,C), r(C,D), t(E,F), u(A,G), p(A,B).")
    td = TreeDecomposition(
        [
            frozenset({"A", "G"}),
            frozenset({"E", "F"}),
            frozenset({"A", "B", "E"}),
            frozenset({"C", "D"}),
            frozenset({"A", "B"}),
            frozenset({"B", "C"}),
        ],
        [(3, 5), (1, 2), (4, 0), (5, 4), (2, 4)],
        3,
    )
    rooted = root_at_head(td, {"A", "B"})
    assert rooted.root == 4
    assert validate_td(gaifman(rule), rooted) == (True, None)
    pieces = decompose_rule(rule, rooted, FreshNamer("0"))
    assert pieces == [
        rule_of("temp_0_1(A) :- u(A,G)."),
        rule_of("temp_0_3(E) :- t(E,F)."),
        rule_of("temp_0_2(B,A) :- s(E,B,A), p(A,B), temp_0_3(E)."),
        rule_of("temp_0_5(C) :- r(C,D)."),
        rule_of("temp_0_4(B) :- q(B,C), temp_0_5(C)."),
        rule_of("h(A,B) :- temp_0_1(A), temp_0_2(B,A), temp_0_4(B)."),
    ]


def test_single_bag_identity():
    rule = rule_of("p(X) :- q(X,Y), r(Y,X).")
    td = TreeDecomposition([frozenset({"X", "Y"})], [], 0)
    assert decompose_rule(rule, td, FreshNamer("0")) == [rule]


def test_path_decomposition_small_rules():
    rule = rule_of(":- p(X), q(X,Y), r(Y,Z), s(Z).")
    td = TreeDecomposition(
        [frozenset({"X", "Y"}), frozenset({"Y", "Z"}), frozenset({"Z"})],
        [(0, 1), (1, 2)],
        0,
    )
    pieces = decompose_rule(rule, td, FreshNamer("0"))
    assert len(pieces) == 3
    assert all(len(variables_of(p)) <= 2 for p in pieces)
    program = Program(
        [rule],
        parse_program("p(a). p(b). q(a,b). q(b,c). r(b,a). r(c,a). s(a).").facts,
    )
    ok, _, _ = equivalent_after_decomposition(program)
    assert ok


# ------------------------------------------------------------- dom rules ----

def test_dom_picks_first_positive_atom():
    rules = synthesize_dom_rules(WORKED_RULE, {"W"}, FreshNamer("0"))
    assert struct(rules["W"]) == struct(rule_of("dom_0_W(W) :- e(W,X)."))


def test_dom_arithmetic_closure():
    rule = rule_of(":- p(Y), X = Y+1, not q(X).")
    rules = synthesize_dom_rules(rule, {"X"}, FreshNamer("0"))
    assert struct(rules["X"]) == struct(rule_of("dom_0_X(X) :- p(Y), X = Y+1."))


def test_dom_tie_break_first_atom():
    rule = rule_of(":- a(X), b(X), not c(X).")
    rules = synthesize_dom_rules(rule, {"X"}, FreshNamer("0"))
    assert struct(rules["X"]) == struct(rule_of("dom_0_X(X) :- a(X)."))


def test_dom_unsecurable_variable():
    rule = Rule(
        head=(),
        pos_body=(Literal(Atom("p", (Variable("Y"),))),),
        neg_body=(Literal(Atom("q", (Variable("X"),)), True),),
    )
    with pytest.raises(UnsecurableVariableError):
        synthesize_dom_rules(rule, {"X"}, FreshNamer("0"))


def test_dom_chain_equivalence_with_oracle():
    program = parse_program(
        "p(1). p(2).\nout(X) :- p(Y), X = Y+1, not p(X)."
    )
    ok, decomposed, _ = equivalent_after_decomposition(program, threshold=False)
    assert ok
    for rule in decomposed.rules:
        safe, unsafe = is_safe(rule)
        assert safe, unsafe


def test_dom_prefers_the_equation_with_fewest_variables():
    rule = rule_of(":- p(Y), q(Z), X = Y+Z, X = Z, not r(X).")
    rules = synthesize_dom_rules(rule, {"X"}, FreshNamer("0"))
    assert rules["X"] == rule_of("dom_0_X(X) :- q(Z), X = Z.")


def test_dom_body_keeps_the_rule_order():
    # Atoms and equations come in the rule's order: not in the order they
    # are secured, and not in the iteration order of a set of names.
    rule = rule_of(":- p(A), Y = A*2, X = Y+1, not q(X).")
    rules = synthesize_dom_rules(rule, {"X"}, FreshNamer("0"))
    assert rules["X"] == rule_of("dom_0_X(X) :- p(A), Y = A*2, X = Y+1.")
    rule = rule_of(":- a(U), b(V), X = U+V, not s(X).")
    rules = synthesize_dom_rules(rule, {"X"}, FreshNamer("0"))
    assert rules["X"] == rule_of("dom_0_X(X) :- a(U), b(V), X = U+V.")


ARITH_ARGUMENT_RULE = "h :- p(X,Y+Z), q(Y), r(Z), X < W, a(W,A), b(A,B), c(B,C), d(C,D).\n"


def test_dom_secures_the_arithmetic_arguments_of_its_atom():
    # X is bound by p(X,Y+Z), which reads Y and Z: its dom rule needs q(Y)
    # and r(Z) too. The facts make the split pay under the threshold.
    facts = ["q(1). r(2)."] + [f"p({i},3)." for i in range(20)]
    facts += [f"{p}({i},{j})." for p in "abcd" for i in range(12) for j in range(12)]
    program = parse_program(" ".join(facts) + "\n" + ARITH_ARGUMENT_RULE)
    decomposed, report = decompose_program(program)
    assert report.rules[0].decomposed
    assert rule_of("dom_0_X(X) :- p(X,Y+Z), q(Y), r(Z).") in decomposed.rules
    # The source's one answer set is its facts and h: p(0,3), q(1), r(2),
    # 0 < 1 and a chain a(1,0), b(0,0), c(0,0), d(0,0) match the body.
    expected = {frozenset(str(f) for f in program.facts) | {"h"}}
    assert project_answer_sets(ground(decomposed).ground_program) == expected


@pytest.mark.parametrize(
    "text",
    [
        "q(1). r(2). p(0,3). p(1,3). p(5,4). a(1,0). a(0,2). b(0,1). b(2,2). c(1,1). d(1,0).\n"
        + ARITH_ARGUMENT_RULE,
        "z(1). z(2). s(2,1). g(1,1). g(3,1). e(1,2). f(2,0).\n"
        "h(X) :- z(Z), X = Y+1, Y = X-1, Y = Z, not s(X,W), g(W,A), e(A,B), f(B,C).",
        "a(1). a(2). b(1). s(2,1). g(1,1). g(3,1). e(1,2). f(2,0).\n"
        "h(X) :- a(U), b(V), X = U+V, not s(X,W), g(W,A), e(A,B), f(B,C).",
    ],
    ids=["arithmetic-argument", "cyclic-equations", "two-atom-equation"],
)
def test_dom_rules_of_earlier_failures_keep_answer_sets(text):
    ok, decomposed, report = equivalent_after_decomposition(
        parse_program(text), threshold=False
    )
    assert ok
    assert report.rules[0].decomposed
    assert any(r.head[0].pred.startswith("dom_") for r in decomposed.rules)


def _equation_chain(length):
    """`h(X0) :- p(X0), X1 = X0+1, ..., Xn = Xn-1+1, not q(Xn).`"""
    equations = ", ".join(f"X{i} = X{i - 1}+1" for i in range(1, length + 1))
    return f"h(X0) :- p(X0), {equations}, not q(X{length})."


def test_dom_rule_of_a_long_equation_chain():
    # Securing one variable per call frame exceeds the recursion limit here.
    rule = rule_of(_equation_chain(1200))
    dom = synthesize_dom_rules(rule, {"X1200"}, FreshNamer("0"))["X1200"]
    assert dom.pos_body == rule.pos_body and dom.arith == rule.arith
    facts = parse_program("p(1). p(5).").facts
    (answer,) = answer_sets(ground(Program([dom], facts)).ground_program)
    assert len(answer) == 4  # p(1), p(5), dom_0_X1200(1201), dom_0_X1200(1205)


def test_decompose_of_an_equation_chain_is_fast():
    # Rooted at the head's X0, the split needs a dom rule for each chain
    # variable, each holding the chain below it: 300 rules, 11,926 body
    # elements. Equations listed target-first made each safety sweep over
    # a dom rule quadratic.
    program = parse_program("p(1). p(5). q(151).\n" + _equation_chain(150))
    start = time.perf_counter()
    decomposed, report = decompose_program(program, threshold=False)
    assert time.perf_counter() - start < 2.0
    assert report.rules[0].decomposed
    original = ground(program).ground_program
    assert project_answer_sets(original) == project_answer_sets(
        ground(decomposed).ground_program
    )


def test_decompose_of_a_reversed_equation_chain_is_fast():
    # Listed last equation first, a binding order that sweeps `pending`
    # again until nothing is ready readies one equation per sweep: 17 s on
    # 2 vCPUs, against 0.6 s when an item waits on its unbound input.
    equations = ", ".join(f"X{i} = X{i - 1}+1" for i in range(300, 0, -1))
    program = parse_program(f"p(1). p(5). q(301).\nh(X0) :- p(X0), {equations}, not q(X300).")
    start = time.perf_counter()
    decomposed, report = decompose_program(program, threshold=False)
    assert time.perf_counter() - start < 5.0
    assert report.rules[0].decomposed and len(decomposed.rules) == 600


# ------------------------------------------------------------- aggregates ---

def test_split_aggregate_disconnected_chain():
    rule = rule_of("big(U) :- u(U), #count{V : p(V,U), q(U,T), s(T)} >= 2.")
    new_rule, helpers = split_aggregate(rule, 0, FreshNamer("0"))
    # p and q touch the tuple variable V or the shared variable U; s does not.
    agg = new_rule.aggregates[0]
    cond_preds = sorted(l.atom.pred for l in agg.condition)
    assert cond_preds == ["p", "q", "temp_0_agg0"]
    assert len(helpers) == 1
    helper = helpers[0]
    assert helper.head[0].pred == "temp_0_agg0"
    assert [a.name for a in helper.head[0].args] == ["T"]
    assert struct(helper) == struct(rule_of("temp_0_agg0(T) :- s(T)."))


def test_split_aggregate_all_connected_no_change():
    rule = rule_of("big(U) :- u(U), #count{V : p(V,U), q(U,V)} >= 2.")
    new_rule, helpers = split_aggregate(rule, 0, FreshNamer("0"))
    assert new_rule == rule and helpers == []


def test_split_aggregate_long_local_chain():
    rule = rule_of("big(U) :- u(U), #count{V : p(V,U), a(T1,T2), b(T2,T3), c(T3)} >= 1.")
    new_rule, helpers = split_aggregate(rule, 0, FreshNamer("0"))
    helper = helpers[0]
    assert len(helper.pos_body) == 3
    # The local chain shares nothing with the connected part.
    assert helper.head[0].args == ()
    agg = new_rule.aggregates[0]
    assert any(l.atom.pred == "temp_0_agg0" for l in agg.condition)


def test_split_aggregate_negative_local_literal_gets_dom():
    rule = rule_of("big(U) :- u(U), #count{V : p(V,U), s(T), not t(T)} >= 1.")
    new_rule, helpers = split_aggregate(rule, 0, FreshNamer("0"))
    helper = helpers[0]
    assert any(l.negated for l in helper.neg_body)
    ok, unsafe = is_safe(helper)
    assert ok, unsafe


def test_split_aggregate_secures_a_negative_part_from_the_condition():
    # The part `not q(W)` binds nothing, so W's domain comes from the
    # aggregate's positive condition.
    program = parse_program(
        "p(1,a). p(2,b). p(3,c). q(b).\nh :- #count{X : p(X,W), not q(W)} >= 2."
    )
    decomposed, _ = decompose_program(program)
    assert print_program(decomposed).splitlines()[4:] == [
        "h :- #count{X : p(X,W), temp_0_agg0(W)} >= 2.",
        "temp_0_agg0(W) :- dom_0_agg0_W(W), not q(W).",
        "dom_0_agg0_W(W) :- p(X,W).",
    ]
    expected = {frozenset({"h", "p(1,a)", "p(2,b)", "p(3,c)", "q(b)"})}
    assert project_answer_sets(ground(program).ground_program) == expected
    assert project_answer_sets(ground(decomposed).ground_program) == expected


def test_aggregate_program_equivalence():
    program = parse_program(
        "u(a). u(b). p(1,a). p(2,a). p(1,b). q(a,c). q(b,c). s(c).\n"
        "big(U) :- u(U), #count{V : p(V,U), q(U,T), s(T)} >= 2."
    )
    ok, decomposed, _ = equivalent_after_decomposition(program, threshold=False)
    assert ok
    assert any("temp_" in print_program(decomposed) for _ in [0])


@pytest.mark.parametrize(
    "text, splits",
    [
        (
            "g(1). g(2). p(1,a). p(2,b). q(c). q(d). f(c). r(d). n(W) :- r(W).\n"
            "h(X) :- g(X), #count{Z : p(X,Z), q(W), not n(W)} >= 1.",
            False,
        ),
        (
            "g(1). g(2). p(1,a). p(2,b). q(c).\n"
            "h(X) :- g(X), #count{Z : p(X,Z), q(W), not zz(W)} >= 1.",
            True,
        ),
    ],
    ids=["negates-derived", "negates-undefined-splits"],
)
def test_aggregate_kept_whole_when_its_part_would_negate_a_non_fact_predicate(text, splits):
    # Split off, `q(W), not n(W)` would be a rule negating a predicate that
    # facts alone do not define, outside the fragment aggregates may read.
    # `zz` has neither facts nor rules, so it is fact-only (empty in every
    # answer set): `q(W), not zz(W)` is split off, and the answer sets stay.
    program = parse_program(text)
    expected = project_answer_sets(ground(program).ground_program)
    assert {"h(1)", "h(2)"} <= set().union(*expected)
    for threshold in (True, False):
        decomposed, _ = decompose_program(program, threshold=threshold)
        assert ("temp_0_agg0" in print_program(decomposed)) is splits
        assert project_answer_sets(ground(decomposed).ground_program) == expected


# ---------------------------------------------------------------- driver ----

def test_driver_identity_on_ground_rules():
    program = parse_program("a :- b, not c.\nb.")
    decomposed, report = decompose_program(program)
    assert decomposed == program
    assert not report.rules[0].decomposed


def test_driver_threshold_skips_cliques():
    program = parse_program("p(a,b).\n:- p(X,Y), p(Y,X), p(X,X).")
    decomposed, report = decompose_program(program)
    # Gaifman graph is a 2-clique: decomposition cannot shrink it.
    assert decomposed.rules == program.rules


def test_driver_hands_back_an_unchanged_program():
    program = Program([WORKED_RULE], parse_program("e(a,b). e(b,c).").facts)
    assert decompose_program(program)[0] is program
    split, report = decompose_program(program, threshold=False)
    assert report.rules[0].decomposed and split is not program


@pytest.mark.parametrize(
    "text, threshold, split, analyses",
    [
        ("e(a,b). e(b,c).\nh(X,W) :- e(X,Y), e(Y,Z), not e(Z,W), e(W,X).", True, False, 1),
        ("e(a,b). e(b,c).\nh(X,W) :- e(X,Y), e(Y,Z), not e(Z,W), e(W,X).", False, True, 2),
        ("e(a,b). e(b,c).\nl(X,Y) :- e(X,Y).\nok :- #count{X,Y : l(X,Y)} = 2.", True, False, 1),
        ("n(1). n(2). m(a).\nok :- #count{X : n(X), m(Y)} >= 1.", True, True, 2),
    ],
    ids=["unsplit", "split", "aggregate", "split-aggregate"],
)
def test_each_program_is_analysed_once(monkeypatch, text, threshold, split, analyses):
    """Parse, decompose and ground compute the component order once per
    `Program`: for the parsed one, and for the decomposed one if it is
    new."""
    calls = []
    scc_index = bigrule.syntax._scc_index

    def counted(succ, count):
        calls.append(count)
        return scc_index(succ, count)

    monkeypatch.setattr(bigrule.syntax, "_scc_index", counted)
    program = parse_program(text)
    decomposed, _ = decompose_program(program, threshold=threshold)
    ground(decomposed)
    assert (decomposed is not program, len(calls)) == (split, analyses)


def test_driver_reserved_prefix_rejected():
    program = parse_program("temp_0(a).\np(X) :- temp_0(X).")
    with pytest.raises(ReservedPrefixCollisionError):
        decompose_program(program)


def test_rename_reserved_makes_program_acceptable():
    # The second program has its reserved names inside an aggregate's
    # condition.
    for text, names in (
        ("temp_0(a). dom_1(b).\np(X) :- temp_0(X), not dom_1(X).", {"p_temp_0", "p_dom_1"}),
        (
            "temp_a(1). dom_b(2).\nh :- #count{X : temp_a(X), not dom_b(X)} >= 1.",
            {"p_temp_a", "p_dom_b"},
        ),
    ):
        renamed = rename_reserved(parse_program(text))
        decomposed, _ = decompose_program(renamed)
        assert names <= set(decomposed.predicates())


def test_chorded_cycle_rule_decomposes_to_three_vars():
    program = parse_program(
        "e(r,g). e(r,b). e(g,b). e(g,r). e(b,r). e(b,g). col(r). col(g). col(b).\n"
        ":- e(A,B), e(B,C), e(C,D), e(D,A), e(B,D)."
    )
    decomposed, report = decompose_program(program, threshold=False)
    stats = report.rules[0]
    assert stats.width == 2
    assert stats.decomposed
    for rule in decomposed.rules:
        assert len(variables_of(rule)) <= 3
    ok, _, _ = equivalent_after_decomposition(program, threshold=False)
    assert ok


def test_stats_report_line_format():
    program = Program([WORKED_RULE], parse_program("e(a,b). e(b,c).").facts)
    _, report = decompose_program(program)
    line = report.render().splitlines()[0]
    assert line.startswith("rule 0: vars=4 width=2 emitted=")
    assert "est_before=" in line and "est_after=" in line


def test_grounding_estimate_examples():
    assert grounding_estimate(WORKED_RULE, 10) == 10_000
    assert grounding_estimate(rule_of("a :- b."), 7) == 1
    eight_vars = rule_of(
        ":- p(V1,V2), p(V2,V3), p(V3,V4), p(V4,V5), p(V5,V6), p(V6,V7), p(V7,V8)."
    )
    assert grounding_estimate(eight_vars, 5) == 5**8


def test_grounding_estimate_rejects_a_negative_domain_size():
    with pytest.raises(ValueError, match="^domain size must be non-negative$"):
        grounding_estimate(WORKED_RULE, -1)


def test_grounding_estimate_saturates():
    wide = rule_of(
        ":- p(V1,V2), p(V2,V3), p(V3,V4), p(V4,V5), p(V5,V6), p(V6,V7), p(V7,V8)."
    )
    assert grounding_estimate(wide, 10**9) == ESTIMATE_SATURATED


def test_worked_example_estimate_bound():
    pieces = decompose_rule(WORKED_RULE, WORKED_TD, FreshNamer("0"))
    assert grounding_estimate(WORKED_RULE, 10) == 10_000
    assert sum(grounding_estimate(piece, 10) for piece in pieces) <= 3000


def test_temp_arity_can_exceed_input_arity_but_not_bag_size():
    # Unary input predicates, but a wide separator: the helper predicate
    # arity grows past the input bound while staying within width + 1.
    program = parse_program(
        "p(a). q(a). r(a). s(a). t(a).\n"
        ":- p(X), q(Y), r(Z), a1(X,Y), a2(Y,Z), a3(Z,X), b1(X,W), b2(Y,W), b3(Z,W), s(W).\n"
        "a1(a,a). a2(a,a). a3(a,a). b1(a,a). b2(a,a). b3(a,a)."
    )
    decomposed, report = decompose_program(program)
    stats = report.rules[0]
    max_input_arity = 2
    max_temp_arity = max(
        [a.arity for r in decomposed.rules for a in r.head if a.pred.startswith("temp_")],
        default=0,
    )
    assert max_temp_arity >= 0
    for rule in decomposed.rules:
        for atom in rule.head:
            if atom.pred.startswith("temp_"):
                assert atom.arity <= stats.width + 1
    if stats.decomposed:
        assert max_temp_arity <= stats.width + 1
        # Not guaranteed to exceed for every heuristic outcome, but this
        # instance's separators are larger than any input arity.
        assert max_temp_arity >= max_input_arity


def test_decomposition_equivalence_random_corpus_small():
    rng = random.Random(246)
    mismatches = 0
    for _ in range(60):
        program = random_safe_rule_program(rng, max_vars=6, max_body=7)
        ok, _, _ = equivalent_after_decomposition(program)
        if not ok:
            mismatches += 1
    assert mismatches == 0


def test_emitted_rules_are_safe_and_bounded():
    rng = random.Random(135)
    for _ in range(40):
        program = random_safe_rule_program(rng)
        decomposed, report = decompose_program(program)
        for rule in decomposed.rules:
            ok, unsafe = is_safe(rule)
            assert ok, unsafe
        stats = report.rules[0]
        if stats.decomposed:
            for rule in decomposed.rules:
                assert len(variables_of(rule)) <= stats.width + 1


# ---------------------------------------------------------------- policy ----

def naive_projected(program):
    """Answer sets of the undecomposed program by subset enumeration."""
    gp = ground(program).ground_program
    return {
        frozenset(str(gp.atoms[i]) for i in interp.true_atoms)
        for interp in answer_sets_naive(gp, max_atoms=len(gp.atoms))
    }


def test_policy_keeps_classic_qbf2_rule_whole():
    # forall x1 exists y2: (x1 | y2) & (x1 | -y2) is false, so the
    # encoding has answer sets.
    qbf = parse_qdimacs("p cnf 2 2\na 1 0\ne 2 0\n1 2 0\n1 -2 0\n")
    program = qbf2_classic(qbf)
    sat = next(i for i, r in enumerate(program.rules) if r.head and r.head[0].pred == "sat"
               and len(r.pos_body) == 6)
    decomposed, report = decompose_program(program)
    assert not report.rules[sat].decomposed
    assert decomposed.rules == program.rules
    split, forced = decompose_program(program, threshold=False)
    assert forced.rules[sat].decomposed  # the rule has a smaller decomposition
    expected = naive_projected(program)
    assert expected
    assert project_answer_sets(ground(decomposed).ground_program) == expected
    assert project_answer_sets(ground(split).ground_program) == expected


def test_policy_splits_grid_coloring_rule():
    edges = [(f"v{r}{c}", f"v{r}{c + 1}") for r in range(3) for c in range(2)]
    edges += [(f"v{r}{c}", f"v{r + 1}{c}") for r in range(2) for c in range(3)]
    program = threecol_single_rule(make_graph(edges))
    decomposed, report = decompose_program(program)
    assert report.rules[0].decomposed
    assert report.rules[0].est_after < report.rules[0].est_before
    assert decomposed == decompose_program(program, threshold=False)[0]
    assert project_answer_sets(ground(decomposed).ground_program) == naive_projected(program)


def test_policy_without_facts_splits_structurally():
    rng = random.Random(77)
    split = 0
    for _ in range(40):
        rules = random_safe_rule_program(rng, max_vars=6, max_body=7).rules
        program = Program(rules)
        decomposed, report = decompose_program(program)
        assert decomposed == decompose_program(program, threshold=False)[0]
        assert all(s.est_before == s.est_after == 0 for s in report.rules)
        assert project_answer_sets(ground(decomposed).ground_program) == naive_projected(program)
        split += report.rules[0].decomposed
    assert split >= 10


def test_estimates_reach_recursive_and_empty_rules():
    program = parse_program(
        "e(1,2). e(2,3). e(3,4).\n"
        "r(X,Z) :- r(X,Y), e(Y,Z).\n"
        "r(X,Y) :- e(X,Y).\n"
        "s(X) :- t(X).\n"
    )
    _, report = decompose_program(program)
    recursive, base, empty = report.rules
    assert base.est_before == 3
    assert recursive.est_before > 0  # sees r's base atoms though listed first
    assert empty.est_before == empty.est_after == 0


def _long_grid_program(cols):
    edges = [(f"v{r}_{c}", f"v{r}_{c + 1}") for r in range(3) for c in range(cols - 1)]
    edges += [(f"v{r}_{c}", f"v{r + 1}_{c}") for r in range(2) for c in range(cols)]
    return threecol_single_rule(make_graph(edges))


def test_validate_and_split_of_a_long_grid_rule_are_linear():
    # 4,608 variables and 4,605 bags: scanning every bag per edge, per
    # vertex or per body element takes seconds here.
    (rule,) = _long_grid_program(1536).rules
    graph = gaifman(rule)
    td = decompose_graph(graph)
    start = time.perf_counter()
    assert validate_td(graph, td) == (True, None)
    pieces = decompose_rule(rule, td, FreshNamer("0"))
    assert time.perf_counter() - start < 1.5
    assert len(pieces) == len(td.bags)


def test_a_part_too_cheap_to_split_builds_no_tree(monkeypatch):
    program = parse_program("e(1,2). e(2,1).\nh :- e(X,Y), e(Y,Z), e(Z,W), e(W,X).")
    (rule,) = program.rules
    assert _join_estimate(rule, _fact_sizes(program.facts))[0] <= RULE_COST

    def no_tree(*args):
        raise AssertionError("bag tree built")

    monkeypatch.setattr(bigrule.decompose, "bag_tree", no_tree)
    decomposed, report = decompose_program(program)
    assert decomposed == program
    assert report.rules[0].width == decompose_graph(gaifman(rule)).width == 2
    with pytest.raises(AssertionError, match="bag tree built"):
        decompose_program(program, threshold=False)


def test_join_order_of_a_long_grid_rule_is_linear():
    # 7,677 body atoms: scanning the atoms left for the best score at every
    # step takes seconds here, in the estimate and in the join plan alike.
    program = _long_grid_program(1536)
    (rule,) = program.rules
    sizes = _fact_sizes(program.facts)
    start = time.perf_counter()
    _join_estimate(rule, sizes)
    _Plan([l.atom for l in rule.pos_body], rule.arith, store=_Store())
    assert time.perf_counter() - start < 1.0
