import hashlib
import random
import time

import pytest

from bigrule.decompose import decompose_program
from bigrule.errors import (
    ClauseTooWideError,
    MissingPartitionError,
    PrefixShapeError,
    TupleWidthError,
)
from bigrule.oracle import (
    abduce_bruteforce,
    answer_sets,
    answer_sets_naive,
    eval_qbf,
    ground,
    has_answer_set,
    solve_coloring,
)
from bigrule.parse import (
    Clause,
    Qbf,
    make_graph,
    parse_program,
    parse_qdimacs,
    print_program,
    reified_atom_ids,
)
from bigrule.rewriters import (
    AbductionInstance,
    abduction_encoding,
    disjunctive_to_normal,
    qbf2_classic,
    qbf2_large_rule,
    qbf3_large_rule,
    reduct_rule,
    threecol_second_level,
    threecol_single_rule,
)
from bigrule.syntax import Atom, Constant, GroundProgram, GroundRule, Integer, is_safe

from corpus import random_abduction, random_ground_program, random_qbf2, random_qbf3

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


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


def consistent(program, max_atoms=3000, decompose=False):
    if decompose:
        program, _ = decompose_program(program)
    gp = ground(program).ground_program
    return has_answer_set(gp, max_atoms=max_atoms)


# ---------------------------------------------------------------- coloring --

def test_threecol_worked_graph_inconsistent():
    g = make_graph([("a", "b"), ("b", "c"), ("c", "d"), ("a", "d"), ("b", "d")])
    assert solve_coloring(g) is not None
    assert not consistent(threecol_single_rule(g))


def test_threecol_k4_consistent():
    g = make_graph(
        [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]
    )
    assert solve_coloring(g) is None
    assert consistent(threecol_single_rule(g))


def test_threecol_empty_graph_inconsistent():
    assert not consistent(threecol_single_rule(make_graph([])))


def test_threecol_rules_are_safe_and_printable():
    g = make_graph([("a", "b"), ("b", "c")])
    program = threecol_single_rule(g)
    for rule in program.rules:
        ok, unsafe = is_safe(rule)
        assert ok, unsafe
    assert parse_program(print_program(program)) == program


def test_threecol2_requires_partition():
    with pytest.raises(MissingPartitionError):
        threecol_second_level(make_graph([("a", "b")]))


def test_threecol2_single_edge_always_extends():
    g = make_graph([("a", "b")], partition_v1=["a"])
    assert not consistent(threecol_second_level(g))


def test_threecol2_triangle_with_apex_consistent():
    g = make_graph(
        [("a", "b"), ("b", "c"), ("a", "c"), ("a", "d"), ("b", "d"), ("c", "d")],
        partition_v1=["a", "b", "c"],
    )
    assert consistent(threecol_second_level(g))


def test_threecol2_empty_second_class():
    g = make_graph([("a", "b")], partition_v1=["a", "b"])
    assert not consistent(threecol_second_level(g))


# -------------------------------------------------------------------- QBF ---

TRUE_2QBF = "p cnf 2 2\na 1 0\ne 2 0\n1 2 0\n-1 -2 0"
FALSE_2QBF = "p cnf 1 1\na 1 0\n1 0"


def test_qbf2_classic_true_formula_inconsistent():
    qbf = parse_qdimacs(TRUE_2QBF)
    assert eval_qbf(qbf)
    assert not consistent(qbf2_classic(qbf))


def test_qbf2_classic_false_formula_consistent():
    qbf = parse_qdimacs(FALSE_2QBF)
    assert not eval_qbf(qbf)
    assert consistent(qbf2_classic(qbf))


def test_qbf2_classic_empty_matrix_inconsistent():
    qbf = parse_qdimacs("p cnf 2 0\na 1 0\ne 2 0")
    assert eval_qbf(qbf)
    assert not consistent(qbf2_classic(qbf))


def test_qbf2_classic_rejects_wide_clause():
    qbf = Qbf((("e", (1, 2, 3, 4)),), (Clause.of([1, 2, 3, 4]),), 4)
    with pytest.raises(ClauseTooWideError):
        qbf2_classic(qbf)


def test_qbf2_classic_rejects_bad_prefix():
    qbf = parse_qdimacs("p cnf 2 1\ne 1 0\na 2 0\n1 2 0")
    with pytest.raises(PrefixShapeError):
        qbf2_classic(qbf)


def test_qbf2_classic_short_clauses_padded():
    qbf = parse_qdimacs("p cnf 2 2\na 1 0\ne 2 0\n1 0\n-1 2 0")
    program = qbf2_classic(qbf)
    slots = {f.pred for f in program.facts if f.pred.startswith("pos_")}
    assert slots == {"pos_1", "pos_2", "pos_3"}
    assert consistent(program) == (not eval_qbf(qbf))


def test_qbf2_classic_empty_clause_is_a_sat_fact():
    qbf = parse_qdimacs("p cnf 2 2\na 1 0\ne 2 0\n0\n1 2 0\n")
    program = qbf2_classic(qbf)
    # `sat.` follows the instance facts; the rules are the fixed five.
    assert print_program(program) == (
        "var(x1).\nvar(y2).\nexists(y2).\n"
        "pos_1(c2,x1,1).\npos_2(c2,y2,1).\npos_3(c2,y2,1).\n"
        "sat.\n"
        "ass(X,1) | ass(X,0) :- var(X).\n"
        "ass(X,0) :- sat, exists(X).\n"
        "ass(X,1) :- sat, exists(X).\n"
        "sat :- pos_1(C,X1,A1), ass(X1,1-A1), pos_2(C,X2,A2), ass(X2,1-A2),"
        " pos_3(C,X3,A3), ass(X3,1-A3).\n"
        ":- not sat.\n"
    )
    assert not eval_qbf(qbf)
    assert consistent(program) and consistent(qbf2_large_rule(qbf))


def test_qbf2_classic_programs_share_their_rules():
    first = qbf2_classic(parse_qdimacs(TRUE_2QBF)).rules
    second = qbf2_classic(parse_qdimacs(FALSE_2QBF)).rules
    assert len(first) == len(second) == 5
    assert all(a is b for a, b in zip(first, second))


def test_qbf2_large_rule_clause_accessor_example():
    # clause c = not y1 or x2 or y3 over universal {2}, existentials {1,3}:
    # the existential tuple is (not y1, y3) and the blocked tuple is (1, 0).
    qbf = Qbf((("a", (2,)), ("e", (1, 3))), (Clause.of([-1, 2, 3]),), 3)
    program = qbf2_large_rule(qbf)
    facts = {str(f) for f in program.facts}
    assert "c1(1,0)" not in facts
    assert {"c1(0,0)", "c1(0,1)", "c1(1,1)"} <= facts
    big = [r for r in program.rules if not r.head][0]
    assert "c1(Y1,Y3)" in str(big)


def test_qbf2_large_rule_true_false():
    qbf = parse_qdimacs(TRUE_2QBF)
    assert not consistent(qbf2_large_rule(qbf))
    qbf2 = parse_qdimacs(FALSE_2QBF)
    assert consistent(qbf2_large_rule(qbf2))


def test_qbf2_large_rule_all_universal_clause():
    # A clause with no existential literal gets a zero-arity predicate whose
    # only support is the universal guess.
    qbf = parse_qdimacs("p cnf 1 1\na 1 0\n1 0")
    program = qbf2_large_rule(qbf)
    assert consistent(program) == (not eval_qbf(qbf))


def test_qbf2_large_rule_tuple_cap():
    lits = list(range(1, 14))
    qbf = Qbf((("e", tuple(lits)),), (Clause.of(lits),), 13)
    with pytest.raises(TupleWidthError):
        qbf2_large_rule(qbf)


def test_qbf2_large_rule_accepts_wide_clauses():
    # The classic encoding is capped at width 3; the large-rule one only
    # caps the existential tuple expansion.
    rng = random.Random(99)
    for _ in range(25):
        m = rng.randint(1, 2)
        n = rng.randint(1, 4)
        total = m + n
        prefix = (("a", tuple(range(1, m + 1))), ("e", tuple(range(m + 1, total + 1))))
        clauses = []
        for _ in range(rng.randint(1, 4)):
            width = rng.randint(1, 5)
            clauses.append(
                Clause.of(
                    [rng.choice((1, -1)) * rng.randint(1, total) for _ in range(width)]
                )
            )
        qbf = Qbf(prefix, tuple(clauses), total)
        want = not eval_qbf(qbf)
        assert consistent(qbf2_large_rule(qbf), max_atoms=600) == want


def test_qbf2_encodings_agree_small_corpus():
    rng = random.Random(515)
    for _ in range(60):
        qbf = random_qbf2(rng, max_universal=3, max_exist=3, max_clauses=5)
        want = not eval_qbf(qbf)
        assert consistent(qbf2_classic(qbf), max_atoms=400) == want
        assert consistent(qbf2_large_rule(qbf), max_atoms=400) == want


def test_qbf2_classic_hard_formulas_solve_fast():
    # Formulas 3, 4 and 6 of a seeded draw, 10 universal and 20 existential
    # variables, 40 clauses of 3 distinct variables. Under saturation each
    # candidate's minimality check is the inner SAT problem, so a check
    # that does not propagate takes seconds on these.
    rng = random.Random(11)
    prefix = (("a", tuple(range(1, 11))), ("e", tuple(range(11, 31))))
    formulas = [
        Qbf(prefix, tuple(
            Clause.of([v if rng.random() < 0.5 else -v for v in rng.sample(range(1, 31), 3)])
            for _ in range(40)
        ), 30)
        for _ in range(6)
    ]
    for k in (3, 4, 6):
        qbf = formulas[k - 1]
        start = time.perf_counter()
        verdict = consistent(qbf2_classic(qbf), decompose=True)
        assert time.perf_counter() - start < 1.5
        assert verdict == consistent(qbf2_large_rule(qbf), decompose=True)


def test_qbf3_validity_iff_consistency_examples():
    valid = parse_qdimacs("p cnf 3 2\ne 1 0\na 2 0\ne 3 0\n1 -2 3 0\n-1 2 -3 0")
    assert eval_qbf(valid)
    assert consistent(qbf3_large_rule(valid), max_atoms=600)

    invalid = parse_qdimacs("p cnf 3 2\ne 1 0\na 2 0\ne 3 0\n1 0\n-1 0")
    assert not eval_qbf(invalid)
    assert not consistent(qbf3_large_rule(invalid), max_atoms=600)


def test_qbf3_empty_matrix_consistent():
    qbf = parse_qdimacs("p cnf 3 0\ne 1 0\na 2 0\ne 3 0")
    assert consistent(qbf3_large_rule(qbf), max_atoms=600)


def test_qbf3_contradictory_single_exists_block():
    qbf = parse_qdimacs("p cnf 1 2\ne 1 0\n1 0\n-1 0")
    assert not eval_qbf(qbf)
    assert not consistent(qbf3_large_rule(qbf), max_atoms=200)


def test_qbf3_rejects_bad_prefix():
    qbf = parse_qdimacs("p cnf 4 1\na 1 0\ne 2 0\na 3 4 0\n1 2 0")
    with pytest.raises(PrefixShapeError):
        qbf3_large_rule(qbf)


def _qbf_with_prefix(pattern: str) -> Qbf:
    # One variable per block, and one clause over all of them.
    prefix = tuple((q, (k,)) for k, q in enumerate(pattern, start=1))
    return Qbf(prefix, (Clause.of(range(1, len(pattern) + 1)),), len(pattern))


@pytest.mark.parametrize("encode", [qbf2_classic, qbf2_large_rule], ids=lambda f: f.__name__)
@pytest.mark.parametrize("pattern", ["ea", "aa", "ee", "aea", "eae"])
def test_qbf2_encoders_name_the_rejected_prefix(encode, pattern):
    with pytest.raises(PrefixShapeError) as caught:
        encode(_qbf_with_prefix(pattern))
    found = "-".join(pattern)
    assert str(caught.value) == f"need a forall-exists prefix, found {found}"


@pytest.mark.parametrize("pattern", ["aa", "ee", "aea", "eaea", "aeae"])
def test_qbf3_encoder_names_the_rejected_prefix(pattern):
    with pytest.raises(PrefixShapeError) as caught:
        qbf3_large_rule(_qbf_with_prefix(pattern))
    found = "-".join(pattern)
    assert str(caught.value) == f"need an exists-forall-exists prefix, found {found}"


@pytest.mark.parametrize(
    "encode, pattern",
    [
        *((encode, p) for encode in (qbf2_classic, qbf2_large_rule) for p in ("", "a", "e", "ae")),
        *((qbf3_large_rule, p) for p in ("", "e", "a", "ea", "ae", "eae")),
    ],
    ids=lambda v: getattr(v, "__name__", v or "none"),
)
def test_qbf_encoders_accept_each_run_of_their_prefix(encode, pattern):
    # Each block plays its role: the 2-QBF encodings are consistent exactly
    # when the formula is false, the 3-QBF one exactly when it is true.
    qbf = _qbf_with_prefix(pattern)
    assert consistent(encode(qbf)) == (eval_qbf(qbf) == (encode is qbf3_large_rule))


def test_large_rule_encodings_derive_no_fact():
    # A rule whose only head atom is a fact changes no answer set: only the
    # blocked tuple of a clause is derived, and saturated.
    rng = random.Random(1717)
    programs = [qbf2_large_rule(random_qbf2(rng)) for _ in range(40)]
    programs += [qbf3_large_rule(random_qbf3(rng)) for _ in range(40)]
    derived = 0
    for program in programs:
        facts = set(program.facts)
        for rule in program.rules:
            assert not (len(rule.head) == 1 and rule.head[0] in facts), str(rule)
            derived += any(a.pred.startswith("c") for a in rule.head)
    assert derived > 80


def test_qbf_encodings_survive_decomposition():
    rng = random.Random(616)
    for _ in range(12):
        qbf = random_qbf2(rng, max_universal=2, max_exist=3, max_clauses=4)
        program = qbf2_large_rule(qbf)
        want = consistent(program, max_atoms=500)
        assert consistent(program, max_atoms=1000, decompose=True) == want


# ------------------------------------------------- disjunction elimination --

def assign_projection(gp):
    out = set()
    for interp in answer_sets(gp, max_atoms=4000):
        chosen = set()
        for i in interp.true_atoms:
            a = gp.atoms[i]
            if a.pred == "assign" and a.args[1] == Integer(1):
                chosen.add(a.args[0].name)
        out.add(frozenset(chosen))
    return out


def rewrite_and_solve(source_gp):
    program = disjunctive_to_normal(source_gp)
    assert all(len(r.head) <= 1 for r in program.rules)
    decomposed, _ = decompose_program(program)
    gp = ground(decomposed).ground_program
    return assign_projection(gp)


def original_sets(source_gp):
    return {
        frozenset(str(source_gp.atoms[i]) for i in s.true_atoms)
        for s in answer_sets(source_gp, max_atoms=24)
    }


def test_disjunctive_to_normal_disjunctive_fact():
    gp = gp_of(["a", "b"], [(("a", "b"), (), ())])
    assert rewrite_and_solve(gp) == original_sets(gp) == {frozenset({"a"}), frozenset({"b"})}


def test_disjunctive_to_normal_odd_loop():
    gp = gp_of(["a"], [(("a",), (), ("a",))])
    assert rewrite_and_solve(gp) == original_sets(gp) == set()


def test_disjunctive_to_normal_with_colliding_atom_ids():
    # p_a(b) and p(a_b) share the base id p_a_b; the fallback p_a_b_2 is taken.
    gp = GroundProgram(
        (Atom("p_a_b_2"), Atom("p", (Constant("a_b"),)), Atom("p_a", (Constant("b"),))),
        (GroundRule((0,)), GroundRule((1, 2))),
    )
    ids = reified_atom_ids(gp)
    want = {frozenset(ids[i] for i in s.true_atoms) for s in answer_sets_naive(gp)}
    assert len(want) == 2
    assert rewrite_and_solve(gp) == want


def test_disjunctive_to_normal_neq_chain_shape():
    gp = gp_of(["a", "b"], [(("a", "b"), (), ())])
    rule = reduct_rule(gp, ["a", "b"], head=())
    eqs = [str(e) for e in rule.arith if str(e).startswith("N")]
    lits = [str(l) for l in rule.pos_body if str(l).startswith("or(N")]
    assert eqs == ["N0 = 0", "N2 = 1"]
    assert lits == ["or(N0,X_a-Y_a,N1)", "or(N1,X_b-Y_b,N2)"]


def test_disjunctive_to_normal_empty_program():
    gp = GroundProgram((), ())
    program = disjunctive_to_normal(gp)
    decomposed, _ = decompose_program(program)
    gp2 = ground(decomposed).ground_program
    assert assign_projection(gp2) == {frozenset()}


def test_reduct_rule_is_safe():
    gp = gp_of(["a", "b", "c"], [(("a", "b"), ("c",), ()), (("c",), (), ("a",))])
    rule = reduct_rule(gp, ["a", "b", "c"], head=())
    ok, unsafe = is_safe(rule)
    assert ok, unsafe


# ------------------------------------------------------------ golden output --
#
# sha256 of the printed rewriter output over fixed seeded corpora. The
# digests were taken before the subset-minimality constraint became the
# function `reduct_rule`; never regenerate them to make a change pass.
# 35 of the 60 abduction instances have hypotheses, so the `Y_h = X_h`
# pinning is covered.


def _print_digest(programs) -> str:
    h = hashlib.sha256()
    for program in programs:
        h.update(print_program(program).encode())
    return h.hexdigest()


def test_disjunctive_to_normal_matches_golden_digest():
    rng = random.Random(0xD150)
    programs = [
        disjunctive_to_normal(random_ground_program(rng, max_atoms=7, max_rules=9))
        for _ in range(60)
    ]
    assert _print_digest(programs) == (
        "ac798fb150ab84b35890ddc8650a22368199a77979ba5bb53f830d6ed3eafa24"
    )


def test_abduction_encoding_matches_golden_digest():
    rng = random.Random(0xAB0C)
    instances = [random_abduction(rng, max_atoms=6, max_hyp=3) for _ in range(60)]
    assert sum(1 for inst in instances if inst.hypotheses) == 35
    assert _print_digest(abduction_encoding(inst) for inst in instances) == (
        "a21f6f6f4cdbe5a6aee41ba20d369d93b9ae8145fbc3b52bc66088049a327416"
    )


# -------------------------------------------------------------- abduction ---

def abduction_consistent(inst):
    program = abduction_encoding(inst)
    decomposed, _ = decompose_program(program)
    gp = ground(decomposed).ground_program
    return has_answer_set(gp, max_atoms=4000)


def test_abduction_simple_witness():
    gp = gp_of(["h", "m"], [(("m",), ("h",), ())])
    inst = AbductionInstance(gp, frozenset({0}), frozenset({1}))
    assert abduce_bruteforce(inst) is not None
    assert abduction_consistent(inst)


def test_abduction_unreachable_manifestation():
    gp = gp_of(["m"], [])
    inst = AbductionInstance(gp, frozenset(), frozenset({0}))
    assert abduce_bruteforce(inst) is None
    assert not abduction_consistent(inst)


def test_abduction_empty_manifestations():
    gp = gp_of(["m"], [])
    inst = AbductionInstance(gp, frozenset(), frozenset())
    assert abduce_bruteforce(inst) == frozenset()
    assert abduction_consistent(inst)


def test_abduction_vacuous_forall_when_extension_inconsistent():
    # Selecting h kills every answer set of the extended program, which
    # satisfies the cautious condition vacuously; the omitted original
    # definition would additionally demand a non-empty answer set.
    gp = gp_of(["h", "m"], [((), ("h",), ())])
    inst = AbductionInstance(gp, frozenset({0}), frozenset({1}))
    assert abduce_bruteforce(inst) == frozenset({0})
    assert abduction_consistent(inst)


def test_abduction_rejects_derivable_hypothesis():
    from bigrule.errors import InputSemanticsError

    gp = gp_of(["h", "m"], [(("h",), ("m",), ()), (("m",), ("h",), ())])
    inst = AbductionInstance(gp, frozenset({0}), frozenset({1}))
    with pytest.raises(InputSemanticsError):
        abduction_encoding(inst)


@pytest.mark.parametrize(
    "hypotheses, manifestations, message",
    [
        ({2}, set(), "hypotheses outside the program's atom universe"),
        ({0}, {-1}, "manifestations outside the program's atom universe"),
    ],
    ids=["hypothesis", "manifestation"],
)
def test_abduction_instance_rejects_atoms_outside_the_program(hypotheses, manifestations, message):
    gp = gp_of(["h", "m"], [(("m",), ("h",), ())])
    with pytest.raises(ValueError, match=f"^{message}$"):
        AbductionInstance(gp, frozenset(hypotheses), frozenset(manifestations))


def test_abduction_rules_safe_and_printable():
    gp = gp_of(["h", "m"], [(("m",), ("h",), ())])
    inst = AbductionInstance(gp, frozenset({0}), frozenset({1}))
    program = abduction_encoding(inst)
    for rule in program.rules:
        ok, unsafe = is_safe(rule)
        assert ok, unsafe
    assert parse_program(print_program(program)) == program


# --------------------------------------------------- pipeline composition ---

def projected_sets(program, max_atoms=3000):
    gp = ground(program).ground_program
    out = set()
    for interp in answer_sets(gp, max_atoms=max_atoms):
        out.add(
            frozenset(
                str(gp.atoms[i])
                for i in interp.true_atoms
                if not gp.atoms[i].pred.startswith(("temp_", "dom_"))
            )
        )
    return out


def test_every_rewriter_output_survives_decomposition():
    qbf = parse_qdimacs(TRUE_2QBF)
    graph = make_graph([("a", "b"), ("b", "c"), ("a", "c")], partition_v1=["a", "b"])
    source_gp = gp_of(["a", "b"], [(("a", "b"), (), ()), (("a",), ("b",), ())])
    inst = AbductionInstance(
        gp_of(["h", "m"], [(("m",), ("h",), ())]), frozenset({0}), frozenset({1})
    )
    outputs = [
        threecol_single_rule(graph),
        threecol_second_level(graph),
        qbf2_classic(qbf),
        qbf2_large_rule(qbf),
        qbf3_large_rule(parse_qdimacs("p cnf 3 1\ne 1 0\na 2 0\ne 3 0\n1 2 3 0")),
        disjunctive_to_normal(source_gp),
        abduction_encoding(inst),
    ]
    for program in outputs:
        for rule in program.rules:
            ok, unsafe = is_safe(rule)
            assert ok, (unsafe, str(rule))
        decomposed, _ = decompose_program(program)
        assert projected_sets(program, 5000) == projected_sets(decomposed, 5000)
