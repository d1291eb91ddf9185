"""Whole-pipeline differential check: decompose (with the cost threshold on
and off), ground and solve, against the source program grounded over the
full domain cross-product (`ground_naive`) and solved by subset enumeration
(`answer_sets_naive`), or, with aggregates, against the FLP answer sets of
that grounding (`flp_answer_sets`). The decomposer's temp_ and dom_ atoms
are projected away before the answer sets are compared."""

import random

from bigrule.decompose import decompose_program
from bigrule.errors import UnsupportedAggregateError
from bigrule.oracle import answer_sets_naive, ground
from bigrule.parse import parse_program, print_program

from corpus import random_pipeline_program
from test_decompose import project_answer_sets
from test_ground_crosscheck import aggregate_program, flp_answer_sets, ground_naive
from test_ground_golden import AGGREGATE_TEXTS


def check_pipeline(program) -> int:
    """Assert that both routes agree; return how many of the two
    decompositions split a rule."""
    naive = ground_naive(program)
    expected = {
        frozenset(str(naive.atoms[i]) for i in s.true_atoms) for s in answer_sets_naive(naive)
    }
    splits = 0
    for threshold in (True, False):
        small, report = decompose_program(program, threshold=threshold)
        got = project_answer_sets(ground(small).ground_program)
        assert got == expected, (threshold, print_program(small))
        splits += any(stats.decomposed for stats in report.rules)
    return splits


def test_pipeline_keeps_answer_sets_of_a_contradictory_ground_body():
    # At X = Y = 1 the constraint grounds to `:- p(1), d(1), not p(1).`,
    # whose body can never hold: {d(1), p(1)} stays an answer set.
    program = parse_program("d(1).\np(X) | q(X) :- d(X).\n:- p(X), d(Y), not p(Y), X = Y.")
    check_pipeline(program)
    assert project_answer_sets(ground(program).ground_program) == {
        frozenset({"d(1)", "p(1)"}),
        frozenset({"d(1)", "q(1)"}),
    }


def test_pipeline_agrees_with_naive_route_on_random_programs():
    rng = random.Random(2718)
    splits = sum(check_pipeline(random_pipeline_program(rng)) for _ in range(300))
    assert splits > 300, splits


# Where decomposition changes what the grounder sees: the link atom of a
# split aggregate carries W; an aggregate that no match of its source rule
# reaches is split into a rule of its own, which is always joined.
SPLIT_TEXTS = (
    "e(2,1). g(3).\nb :- #count{Z : e(Z,W), g(W)} > 0.",
    "e(3,2).\nm(Y,X) :- e(X,Y), not g(X).\nh(X) :- g(X), #sum{Z : m(Z,W)} > 2.",
)


def test_aggregate_pipeline_agrees_with_naive_flp_answer_sets():
    """Golden's aggregate programs, SPLIT_TEXTS and generated programs whose
    aggregates `split_aggregate` often splits, decomposed with the threshold
    on and off. A decomposed program raises
    UnsupportedAggregateError exactly when its source does."""
    rng = random.Random(0xA66)
    programs = [parse_program(text) for text in (*AGGREGATE_TEXTS, *SPLIT_TEXTS)]
    programs += [aggregate_program(rng, detached=True) for _ in range(200)]
    compared = splits = 0
    for program in programs:
        try:
            ground(program)
            source_raises, expected = False, flp_answer_sets(program)
        except UnsupportedAggregateError:
            source_raises, expected = True, None
        for threshold in (True, False):
            small, _ = decompose_program(program, threshold=threshold)
            splits += any("_agg" in a.pred for r in small.rules for a in r.head)
            try:
                gp = ground(small).ground_program
            except UnsupportedAggregateError:
                assert source_raises, print_program(small)
                continue
            assert not source_raises, print_program(program)
            if expected is not None:
                assert project_answer_sets(gp) == expected, print_program(small)
                compared += 1
    assert compared >= 280
    assert splits >= 130
