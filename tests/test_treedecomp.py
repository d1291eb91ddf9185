import random
import time

import pytest

from bigrule.errors import NoCoveringBagError, TooManyVerticesError
from bigrule.parse import parse_program
from bigrule.treedecomp import (
    GaifmanGraph,
    TreeDecomposition,
    bag_tree,
    decompose_graph,
    eliminate,
    exact_treewidth,
    gaifman,
    root_at_head,
    validate_td,
)

from corpus import random_safe_rule_program


def rule_of(text):
    return parse_program(text).rules[0]


def random_gaifman(rng, max_vertices=8, edge_prob=0.4):
    n = rng.randint(0, max_vertices)
    names = [f"V{i}" for i in range(n)]
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                edges.add((names[i], names[j]))
    return GaifmanGraph(frozenset(names), frozenset(edges))


def test_gaifman_worked_rule_is_four_cycle():
    g = gaifman(rule_of("h(X,W) :- e(X,Y), e(Y,Z), not e(Z,W), e(W,X)."))
    assert g.vertices == {"X", "Y", "Z", "W"}
    assert g.edges == {("W", "X"), ("X", "Y"), ("Y", "Z"), ("W", "Z")}


def test_gaifman_chorded_cycle():
    g = gaifman(rule_of(":- e(A,B), e(B,C), e(C,D), e(D,A), e(B,D)."))
    assert g.edges == {("A", "B"), ("B", "C"), ("C", "D"), ("A", "D"), ("B", "D")}


def test_gaifman_ground_rule_empty():
    g = gaifman(parse_program("a :- b, not c.\nb.").rules[0])
    assert not g.vertices and not g.edges


def test_gaifman_aggregate_is_one_unit():
    g = gaifman(rule_of("p(X) :- q(X), #count{V : s(V,Z)} >= 1."))
    assert ("V", "Z") in g.edges or ("Z", "V") in g.edges


def test_decompose_worked_rule_width_two():
    g = gaifman(rule_of("h(X,W) :- e(X,Y), e(Y,Z), not e(Z,W), e(W,X)."))
    td = decompose_graph(g)
    ok, report = validate_td(g, td)
    assert ok, report
    assert td.width == 2


def test_decompose_single_edge():
    g = GaifmanGraph(frozenset({"X", "Y"}), frozenset({("X", "Y")}))
    td = decompose_graph(g)
    assert td.bags == (frozenset({"X", "Y"}),)
    assert td.width == 1


def test_decompose_clique_single_bag():
    names = ["A", "B", "C", "D"]
    edges = {(a, b) for i, a in enumerate(names) for b in names[i + 1:]}
    g = GaifmanGraph(frozenset(names), frozenset(edges))
    td = decompose_graph(g)
    assert td.width == 3
    assert frozenset(names) in td.bags


def test_decompose_empty_graph():
    g = GaifmanGraph(frozenset(), frozenset())
    td = decompose_graph(g)
    assert td.bags == (frozenset(),) and td.width == -1


def test_decompose_disconnected_graph_is_tree():
    g = GaifmanGraph(
        frozenset({"A", "B", "C", "D"}),
        frozenset({("A", "B"), ("C", "D")}),
    )
    td = decompose_graph(g)
    ok, report = validate_td(g, td)
    assert ok, report


def test_validate_catches_missing_edge_coverage():
    g = GaifmanGraph(frozenset({"X", "W"}), frozenset({("W", "X")}))
    td = TreeDecomposition([frozenset({"X"}), frozenset({"W"})], [(0, 1)], 0)
    ok, report = validate_td(g, td)
    assert not ok and "condition (ii)" in report and "(W,X)" in report


def test_validate_catches_disconnected_occurrence():
    g = GaifmanGraph(frozenset({"X", "Y", "Z"}), frozenset())
    td = TreeDecomposition(
        [frozenset({"X"}), frozenset({"Y"}), frozenset({"X", "Z"})],
        [(0, 1), (1, 2)],
        0,
    )
    ok, report = validate_td(g, td)
    assert not ok and "condition (iii)" in report


def test_validate_catches_missing_vertex():
    g = GaifmanGraph(frozenset({"X", "Y"}), frozenset())
    td = TreeDecomposition([frozenset({"X"})], [], 0)
    ok, report = validate_td(g, td)
    assert not ok and "condition (i)" in report


TRIANGLE_BAGS = [frozenset({"X", "Y"}), frozenset({"Y", "Z"}), frozenset({"X", "Z"})]


def test_bags_joined_in_a_cycle_are_rejected():
    # Every vertex's bags are adjacent, but a split along these bags of
    # ":- p(X,Y), q(Y,Z), r(X,Z)." loses the join on Z: with the facts
    # p(a,b). q(b,c). r(a,d). the rule does not fire and the pieces would.
    with pytest.raises(ValueError, match="edges"):
        TreeDecomposition(TRIANGLE_BAGS, [(0, 1), (1, 2), (0, 2)], 0)


def test_a_forest_is_rejected():
    with pytest.raises(ValueError, match="edges"):
        TreeDecomposition(TRIANGLE_BAGS, [(0, 1)], 0)


@pytest.mark.parametrize("edges", [[(0, 1), (1, 3)], [(0, 1), (2, 2)], [(0, 1), (-1, 2)]])
def test_an_edge_to_a_missing_bag_or_to_itself_is_rejected(edges):
    with pytest.raises(ValueError, match="edges"):
        TreeDecomposition(TRIANGLE_BAGS, edges, 0)


@pytest.mark.parametrize(
    "bags, root, message",
    [
        ([], 0, "a tree decomposition needs at least one node"),
        (TRIANGLE_BAGS[:1], 1, "root out of range"),
        (TRIANGLE_BAGS[:1], -1, "root out of range"),
    ],
    ids=["no-bag", "root-past-the-end", "negative-root"],
)
def test_no_bag_or_a_root_out_of_range_is_rejected(bags, root, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        TreeDecomposition(bags, [], root)


def test_exact_treewidth_refuses_a_graph_over_its_cap():
    g = GaifmanGraph(frozenset({"X", "Y", "Z"}), frozenset())
    with pytest.raises(TooManyVerticesError, match="^3 vertices exceeds cap 2$"):
        exact_treewidth(g, max_vertices=2)


def test_validate_catches_bags_that_form_no_tree():
    # Four bags and three edges, but the edges close a cycle and leave bag 3
    # out.
    rule = rule_of(":- p(X,Y), q(Y,Z), r(X,Z), s(W).")
    td = TreeDecomposition(TRIANGLE_BAGS + [frozenset({"W"})], [(0, 1), (1, 2), (0, 2)], 0)
    assert validate_td(gaifman(rule), td) == (
        False,
        "not a tree: bag 3 is not reached from the root 0",
    )
    with pytest.raises(ValueError, match="not a tree"):
        root_at_head(td, {"W"})


def test_root_at_head_worked_example():
    td = TreeDecomposition(
        [frozenset({"X", "W", "Y"}), frozenset({"Y", "Z", "W"})], [(0, 1)], 1
    )
    rooted = root_at_head(td, {"X", "W"})
    assert rooted.root == 0
    assert rooted.bags == td.bags and rooted.edges == td.edges


def test_root_at_head_empty_head_keeps_root():
    td = TreeDecomposition([frozenset({"A"}), frozenset({"A", "B"})], [(0, 1)], 1)
    assert root_at_head(td, set()).root == 1


def test_root_at_head_leaf_becomes_root():
    td = TreeDecomposition(
        [frozenset({"A", "B"}), frozenset({"B", "C"}), frozenset({"C", "D"})],
        [(0, 1), (1, 2)],
        0,
    )
    rooted = root_at_head(td, {"C", "D"})
    assert rooted.root == 2
    g = GaifmanGraph(
        frozenset({"A", "B", "C", "D"}),
        frozenset({("A", "B"), ("B", "C"), ("C", "D")}),
    )
    ok, report = validate_td(g, rooted)
    assert ok, report


def test_root_at_head_no_covering_bag():
    td = TreeDecomposition([frozenset({"A"}), frozenset({"B"})], [(0, 1)], 0)
    with pytest.raises(NoCoveringBagError):
        root_at_head(td, {"A", "B"})


def test_rerooting_preserves_width_and_bags():
    rng = random.Random(5150)
    for _ in range(50):
        g = random_gaifman(rng, max_vertices=7)
        if not g.vertices:
            continue
        td = decompose_graph(g)
        target = sorted(g.vertices)[0]
        rooted = root_at_head(td, {target})
        assert rooted.width == td.width
        assert sorted(rooted.bags) == sorted(td.bags)
        ok, report = validate_td(g, rooted)
        assert ok, report


def test_random_decompositions_always_valid():
    rng = random.Random(31137)
    for _ in range(150):
        g = random_gaifman(rng)
        td = decompose_graph(g)
        ok, report = validate_td(g, td)
        assert ok, report


def test_heuristic_width_close_to_exact():
    rng = random.Random(2600)
    worst_gap = 0
    for _ in range(120):
        g = random_gaifman(rng, max_vertices=8, edge_prob=0.5)
        exact = exact_treewidth(g)
        td = decompose_graph(g)
        assert td.width >= exact
        worst_gap = max(worst_gap, td.width - exact)
    assert worst_gap <= 2


def test_heuristic_width_on_rule_corpus():
    rng = random.Random(6502)
    for _ in range(80):
        program = random_safe_rule_program(rng)
        rule = program.rules[0]
        g = gaifman(rule)
        if len(g.vertices) > 8:
            continue
        exact = exact_treewidth(g)
        td = decompose_graph(g)
        assert exact <= td.width <= exact + 2


def test_exact_treewidth_known_values():
    # Cycle of length 4 has treewidth 2; a tree has treewidth 1.
    cycle = GaifmanGraph(
        frozenset("ABCD"),
        frozenset({("A", "B"), ("B", "C"), ("C", "D"), ("A", "D")}),
    )
    assert exact_treewidth(cycle) == 2
    path = GaifmanGraph(frozenset("ABC"), frozenset({("A", "B"), ("B", "C")}))
    assert exact_treewidth(path) == 1
    assert exact_treewidth(GaifmanGraph(frozenset(), frozenset())) == -1


def test_decomposition_deterministic():
    rng = random.Random(8080)
    for _ in range(20):
        g = random_gaifman(rng)
        td1 = decompose_graph(g)
        td2 = decompose_graph(g)
        assert td1.bags == td2.bags and td1.edges == td2.edges and td1.root == td2.root


def test_elimination_width_is_the_tree_width():
    rng = random.Random(3000)
    for _ in range(3000):
        g = random_gaifman(rng, max_vertices=14, edge_prob=rng.random())
        order, bags = eliminate(g)
        td = decompose_graph(g)
        assert max(map(len, bags), default=0) - 1 == td.width
        if bags:
            tree = bag_tree(order, bags)
            assert (tree.bags, tree.edges, tree.root) == (td.bags, td.edges, td.root)


def _eliminate_by_recount(g):
    """Min-fill elimination that recounts every remaining vertex's fill-in
    each step."""
    adj = g.adjacency()
    order = []
    while adj:
        def fill_in(vtx):
            nbs = adj[vtx]
            return sum(1 for u in nbs for w in nbs if u < w and w not in adj[u])

        best = min(adj, key=lambda vtx: (fill_in(vtx), vtx))
        nbs = adj.pop(best)
        for u in nbs:
            adj[u] |= nbs - {u}
            adj[u].discard(best)
        order.append((best, frozenset(nbs | {best})))
    return [vtx for vtx, _ in order], [bag for _, bag in order]


def test_elimination_matches_a_recount_from_scratch():
    rng = random.Random(4242)
    for _ in range(400):
        g = random_gaifman(rng, max_vertices=12, edge_prob=rng.random())
        assert eliminate(g) == _eliminate_by_recount(g)


def test_min_fill_on_a_wide_clique_is_fast():
    # Every elimination in a clique adds no fill edge; recounting each
    # neighbour's fill-in over its neighbours takes seconds here.
    args = ",".join(f"X{i}" for i in range(200))
    g = gaifman(rule_of(f"p({args}) :- q({args})."))
    start = time.perf_counter()
    td = decompose_graph(g)
    assert time.perf_counter() - start < 1.0
    assert td.bags == (g.vertices,)
