"""Gaifman graphs of rules and heuristic tree decomposition.

Decompositions come from bucket elimination along a min-fill or min-degree
ordering with lexicographic tie-breaking, so results are reproducible.
Eliminating a vertex makes its bag: the vertex and its neighbours then. The
bag's parent is the bag of its first-eliminated other vertex, and extra
roots hang below the last root. A bag may contain its parent's bag but
never the reverse, since its own vertex is in no later bag. Such comparable
bags are merged in one pass in elimination order: each node absorbs its
parent while the parent's bag is a subset of its own, which makes a tail of
shrinking bags one node. `eliminate` makes the order and the bags and
`bag_tree` joins them, so a caller that needs only the width stops after
the elimination.
Exact treewidth (brute force over elimination orderings via subset dynamic
programming) is provided for small graphs as a test yardstick.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import NoCoveringBagError, TooManyVerticesError
from .syntax import Rule, variables_of

# The elimination heuristics of `eliminate`, the default first.
HEURISTICS = ("min-fill", "min-degree")


@dataclass(frozen=True, slots=True)
class GaifmanGraph:
    """Variables of one rule; edges join variables co-occurring in the head
    or in a single body atom (arithmetic and aggregate atoms count as one
    unit each)."""

    vertices: frozenset[str]
    edges: frozenset[tuple[str, str]]

    def adjacency(self) -> dict[str, set[str]]:
        adj: dict[str, set[str]] = {vtx: set() for vtx in self.vertices}
        for u, w in self.edges:
            adj[u].add(w)
            adj[w].add(u)
        return adj


def _edge(u: str, w: str) -> tuple[str, str]:
    return (u, w) if u < w else (w, u)


def _clique(names, edges: set[tuple[str, str]]):
    names = sorted(set(names))
    for i, u in enumerate(names):
        for w in names[i + 1:]:
            edges.add(_edge(u, w))


def gaifman(rule: Rule) -> GaifmanGraph:
    """Gaifman graph of a rule. Head variables form one clique; each body
    element contributes a clique over its own variables."""
    edges: set[tuple[str, str]] = set()
    _clique(variables_of(rule.head), edges)
    for element in rule.body_elements():
        _clique(variables_of(element), edges)
    return GaifmanGraph(frozenset(variables_of(rule)), frozenset(edges))


class TreeDecomposition:
    """Rooted tree of bags. Nodes are indices into `bags`, and `edges` are
    len(bags) - 1 pairs of distinct nodes, which form a tree exactly when
    `walk` reaches every node."""

    __slots__ = ("bags", "edges", "root", "_walk")

    def __init__(self, bags, edges, root: int):
        self.bags: tuple[frozenset[str], ...] = tuple(frozenset(b) for b in bags)
        self.edges: tuple[tuple[int, int], ...] = tuple(tuple(sorted(e)) for e in edges)
        self.root = root
        self._walk: tuple[list[int], list[list[int]], list[int]] | None = None
        count = len(self.bags)
        if not count:
            raise ValueError("a tree decomposition needs at least one node")
        if not 0 <= root < count:
            raise ValueError("root out of range")
        if len(self.edges) != count - 1 or any(not 0 <= a < b < count for a, b in self.edges):
            raise ValueError(f"{count} bags need {count - 1} edges, each between two of them")

    def __repr__(self):
        shown = ", ".join("{" + ",".join(sorted(b)) + "}" for b in self.bags)
        return f"TreeDecomposition(root={self.root}, bags=[{shown}])"

    @property
    def width(self) -> int:
        return max(len(b) for b in self.bags) - 1

    def walk(self) -> tuple[list[int], list[list[int]], list[int]]:
        """Each node's parent (-1 at the root), its children in index order,
        and the preorder that visits them in that order: one depth-first
        pass from the root, cached. Raises ValueError naming a bag the pass
        does not reach, which happens exactly when the edges form no tree."""
        if self._walk is None:
            adj: list[list[int]] = [[] for _ in self.bags]
            for a, b in self.edges:
                adj[a].append(b)
                adj[b].append(a)
            parent = [-2] * len(self.bags)
            parent[self.root] = -1
            children: list[list[int]] = [[] for _ in self.bags]
            pre: list[int] = []
            stack = [self.root]
            while stack:
                node = stack.pop()
                pre.append(node)
                kids = children[node] = sorted({m for m in adj[node] if parent[m] == -2})
                for m in kids:
                    parent[m] = node
                stack.extend(reversed(kids))
            if len(pre) < len(self.bags):
                raise ValueError(
                    f"not a tree: bag {parent.index(-2)} is not reached from the root {self.root}"
                )
            self._walk = parent, children, pre
        return self._walk


def decompose_graph(g: GaifmanGraph, heuristic: str = "min-fill") -> TreeDecomposition:
    """Bucket elimination along the chosen heuristic ordering (`eliminate`),
    then the bags joined into a tree (`bag_tree`). Ties are broken by the
    lexicographically smallest vertex name, which makes the result
    deterministic."""
    order, bags = eliminate(g, heuristic)
    if not bags:
        return TreeDecomposition([frozenset()], [], 0)
    return bag_tree(order, bags)


def eliminate(
    g: GaifmanGraph, heuristic: str = "min-fill"
) -> tuple[list[str], list[frozenset[str]]]:
    """The elimination order along the heuristic, ties to the smallest
    name, and the bag each eliminated vertex makes. Every tree `bag_tree`
    builds from them keeps the largest bag, so its width is the largest
    bag's size less one."""
    if heuristic not in HEURISTICS:
        raise ValueError(f"unknown heuristic {heuristic!r}")
    adj = g.adjacency()
    bags: list[frozenset[str]] = []
    eliminated: list[str] = []

    def fill_in(vtx: str) -> int:
        """Missing edges among the neighbours of vtx."""
        nbs = adj[vtx]
        present = sum(len(adj[u] & nbs) for u in nbs) // 2
        return len(nbs) * (len(nbs) - 1) // 2 - present

    def degree(vtx: str) -> int:
        return len(adj[vtx])

    cost = fill_in if heuristic == "min-fill" else degree
    # A heap of (cost, vertex) with stale entries skipped. Eliminating a
    # vertex changes the degree of its neighbours only, and the fill-in of
    # its neighbours and of theirs, so only those are recounted.
    current = {vtx: cost(vtx) for vtx in adj}
    heap = [(c, vtx) for vtx, c in current.items()]
    heapq.heapify(heap)
    while adj:
        c, best = heapq.heappop(heap)
        if current.get(best) != c:
            continue
        nbs = adj.pop(best)
        del current[best]
        bags.append(frozenset(nbs | {best}))
        eliminated.append(best)
        if cost is fill_in and not c:
            # No fill edge: a neighbour u loses only the missing pairs of
            # best with N(u) \ N[best], and no other fill-in changes.
            for u in nbs:
                around = adj[u]
                around.discard(best)
                drop = len(around - nbs)
                if drop:
                    current[u] -= drop
                    heapq.heappush(heap, (current[u], u))
            continue
        for u in nbs:
            adj[u].discard(best)
            adj[u].update(nbs - {u})
        touched = set(nbs)
        if cost is fill_in:
            for u in nbs:
                touched |= adj[u]
        for u in touched:
            c = cost(u)
            if c != current[u]:
                current[u] = c
                heapq.heappush(heap, (c, u))
    return eliminated, bags


def bag_tree(order: list[str], bags: list[frozenset[str]]) -> TreeDecomposition:
    """The tree decomposition of an elimination (`eliminate`): bags joined
    and comparable neighbours merged, as the module docstring says."""
    position = {vtx: i for i, vtx in enumerate(order)}
    # Each bag hangs below the bag of its first-eliminated other vertex, and
    # extra roots below the last root, so a parent comes later in `bags`.
    parent: list[int] = []
    roots: list[int] = []
    for i, vtx in enumerate(order):
        rest = bags[i] - {vtx}
        if rest:
            parent.append(min(position[u] for u in rest))
        else:
            parent.append(-1)
            roots.append(i)
    for extra in roots[:-1]:
        parent[extra] = roots[-1]
    # Merge comparable adjacent bags (see the module docstring): walking in
    # elimination order, a node absorbs its parent while the parent's bag
    # lies inside its own. A node absorbed by an earlier node stays kept by
    # it, whose bag holds its own vertex and so is inside no later bag.
    kept_by = list(range(len(bags)))
    for i in range(len(bags)):
        if kept_by[i] != i:
            continue
        up = parent[i]
        while up >= 0 and kept_by[up] == up and bags[up] <= bags[i]:
            kept_by[up] = i
            up = parent[up]
        parent[i] = up
    index = {i: k for k, i in enumerate(i for i, keeper in enumerate(kept_by) if keeper == i)}
    edges = sorted(
        tuple(sorted((index[i], index[kept_by[parent[i]]]))) for i in index if parent[i] >= 0
    )
    return TreeDecomposition([bags[i] for i in index], edges, index[kept_by[roots[-1]]])


def validate_td(g: GaifmanGraph, td: TreeDecomposition) -> tuple[bool, str | None]:
    """Check that the bags form a tree, then vertex coverage, edge coverage,
    and connectedness. Returns the first violated condition with a
    witness."""
    try:
        parent = td.walk()[0]
    except ValueError as err:
        return False, str(err)
    bags_of: dict[str, list[int]] = {}  # vertex -> the bags holding it
    for i, bag in enumerate(td.bags):
        for vtx in bag:
            bags_of.setdefault(vtx, []).append(i)
    for vtx in sorted(g.vertices):
        if vtx not in bags_of:
            return False, f"condition (i): vertex {vtx} occurs in no bag"
    for u, w in sorted(g.edges):
        if not any(w in td.bags[i] for i in bags_of.get(u, ())):
            return False, f"condition (ii): edge ({u},{w}) covered by no bag"
    # The bags holding a vertex are connected exactly when one of them has
    # no parent holding it too.
    for vtx in sorted(g.vertices):
        tops = [i for i in bags_of[vtx] if parent[i] < 0 or vtx not in td.bags[parent[i]]]
        if len(tops) > 1:
            return False, (
                f"condition (iii): bags {tops[0]} and {tops[1]} both hold "
                f"{vtx} but are separated by {vtx}-free bags"
            )
    return True, None


def root_at_head(td: TreeDecomposition, head_vars) -> TreeDecomposition:
    """Re-root at a node whose bag covers the head variables. Such a node
    exists for any valid decomposition because head variables form a clique
    in the Gaifman graph."""
    head_vars = frozenset(head_vars)
    if head_vars <= td.bags[td.root]:
        return td
    for node in td.walk()[2]:
        if head_vars <= td.bags[node]:
            return TreeDecomposition(td.bags, td.edges, node)
    raise NoCoveringBagError(
        f"no bag covers head variables {{{','.join(sorted(head_vars))}}}"
    )


def exact_treewidth(g: GaifmanGraph, max_vertices: int = 8) -> int:
    """Exact treewidth by dynamic programming over elimination subsets.
    Test-support only; hard-capped because the table is exponential."""
    verts = sorted(g.vertices)
    count = len(verts)
    if count > max_vertices:
        raise TooManyVerticesError(f"{count} vertices exceeds cap {max_vertices}")
    if count == 0:
        return -1
    index = {vtx: i for i, vtx in enumerate(verts)}
    adj_mask = [0] * count
    for u, w in g.edges:
        adj_mask[index[u]] |= 1 << index[w]
        adj_mask[index[w]] |= 1 << index[u]

    def reach_degree(done: int, vtx: int) -> int:
        # Neighbors of vtx in the graph where `done` vertices are eliminated:
        # vertices outside done reachable from vtx through done.
        seen = 1 << vtx
        frontier = adj_mask[vtx] & ~seen
        result = 0
        while frontier:
            low = frontier & -frontier
            i = low.bit_length() - 1
            frontier &= frontier - 1
            seen |= low
            if done & low:
                frontier |= adj_mask[i] & ~seen
            else:
                result += 1
        return result

    memo = {0: -1}

    def solve(subset: int) -> int:
        cached = memo.get(subset)
        if cached is not None:
            return cached
        best = count
        rest = subset
        while rest:
            low = rest & -rest
            vtx = low.bit_length() - 1
            rest &= rest - 1
            without = subset & ~low
            value = max(solve(without), reach_degree(without, vtx))
            if value < best:
                best = value
        memo[subset] = best
        return best

    full = (1 << count) - 1
    for size_mask in range(full + 1):
        solve(size_mask)
    return memo[full]
