"""Whole-pipeline differential check, aggregate-free: decompose (with the
cost threshold on and off), ground and solve, against the source program
grounded over the full domain cross-product (`ground_naive`) and solved by
subset enumeration (`answer_sets_naive`). The decomposer's temp_ and dom_
atoms are projected away before the answer sets are compared."""

import random

from bigrule.decompose import decompose_program
from bigrule.oracle import answer_sets_naive, ground
from bigrule.parse import parse_program

from corpus import random_pipeline_program
from test_decompose import project_answer_sets
from test_ground_crosscheck import ground_naive


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
        assert project_answer_sets(ground(small).ground_program) == expected, threshold
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
    splits = 0
    for _ in range(300):
        splits += check_pipeline(random_pipeline_program(rng))
    assert splits > 300
