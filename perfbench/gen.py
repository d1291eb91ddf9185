"""Seeded instance generators for the pipeline benchmark.

Each generator returns the text a user would hand to `bigrule` (an edge
list, QDIMACS, or reified facts) together with the plain data the reference
check needs. Nothing here imports `bigrule`, so a change to the program
cannot change the benchmark's inputs. The same seed gives the same inputs.

Instance sizes are stratified: instance k takes shape k mod n of the n
shapes the configuration lists, and the seed decides everything inside a
shape (vertex names, line order, where the K4 sits, literals, which atoms a
rule uses). This keeps the work per run comparable across seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Instance:
    """One input: its text, the generator's own description of it (used by
    the reference check), and a short label naming its shape."""

    text: str
    data: dict
    label: str


# ---------------------------------------------------------------- graphs --

def _grid(width: int, length: int):
    """Grid positions and the edges between horizontal and vertical
    neighbours. A grid is bipartite, so it is 3-colourable."""
    cells = [(i, j) for i in range(width) for j in range(length)]
    edges = []
    for i, j in cells:
        if i + 1 < width:
            edges.append(((i, j), (i + 1, j)))
        if j + 1 < length:
            edges.append(((i, j), (i, j + 1)))
    return cells, edges


def _graph_instance(rng: random.Random, nodes, edges, label: str) -> Instance:
    """Name the nodes with a seeded permutation and list the edges in a
    seeded order and orientation."""
    ids = list(range(len(nodes)))
    rng.shuffle(ids)
    name = {node: f"v{k}" for node, k in zip(nodes, ids)}
    named = [(name[u], name[w]) for u, w in edges]
    rng.shuffle(named)
    named = [(w, u) if rng.random() < 0.5 else (u, w) for u, w in named]
    text = "".join(f"{u} {w}\n" for u, w in named)
    return Instance(text, {"vertices": sorted(name.values()), "edges": named}, label)


def col_grid(rng: random.Random, shape) -> Instance:
    width, length = shape
    cells, edges = _grid(width, length)
    return _graph_instance(rng, cells, edges, f"grid{width}x{length}")


def col_planted(rng: random.Random, shape) -> Instance:
    """A grid with a K4 joined to eight consecutive vertices of
    one boundary row, two per K4 vertex. Each K4 vertex then has degree 5,
    more than any grid vertex (at most 4), so a degree-ordered colouring
    search meets the K4 first. No graph drawn here is 3-colourable."""
    width, length = shape
    cells, edges = _grid(width, length)
    k4 = [("k", a) for a in range(4)]
    edges += [(k4[a], k4[b]) for a in range(4) for b in range(a + 1, 4)]
    row = 0 if rng.random() < 0.5 else width - 1
    start = rng.randrange(0, length - 7)
    for a, vertex in enumerate(k4):
        edges += [(vertex, (row, start + 2 * a)), (vertex, (row, start + 2 * a + 1))]
    return _graph_instance(rng, cells + k4, edges, f"grid{width}x{length}+k4")


# ------------------------------------------------------------------- QBF --

def qbf2(rng: random.Random, shape) -> Instance:
    """A forall-exists CNF with `universal` and `existential` variables and
    `clauses` clauses of width 1 to 3. Literals are drawn over all
    variables, so repeated and complementary literals occur."""
    universal, existential, clauses = shape
    total = universal + existential
    lines = [
        f"p cnf {total} {clauses}",
        "a " + " ".join(str(x) for x in range(1, universal + 1)) + " 0",
        "e " + " ".join(str(x) for x in range(universal + 1, total + 1)) + " 0",
    ]
    drawn = []
    for _ in range(clauses):
        width = rng.randint(1, 3)  # the classic encoding takes widths up to 3
        lits = [rng.choice((1, -1)) * rng.randint(1, total) for _ in range(width)]
        drawn.append(lits)
        lines.append(" ".join(str(lit) for lit in lits) + " 0")
    data = {"universal": universal, "existential": existential, "clauses": drawn}
    return Instance("\n".join(lines) + "\n", data, f"qbf{universal}-{existential}-{clauses}")


# ----------------------------------------------------- ground programs --

# (head, positive, negative) sizes; rule k of a program takes entry k mod 8.
# Fixed sizes keep the work per program steady across seeds; the mix has
# disjunctive heads, constraints and negation.
RULE_SIZES = ((1, 1, 0), (2, 0, 1), (1, 1, 1), (0, 2, 1), (1, 0, 2), (2, 1, 0), (1, 2, 0), (0, 1, 1))


def shift(rng: random.Random, shape) -> Instance:
    """A ground disjunctive program over `atoms` atoms with `rules` rules,
    as reified facts. The atoms of each rule are distinct and drawn by the
    seed; programs with fewer atoms than a rule needs get a smaller rule."""
    n_atoms, n_rules = shape
    names = [f"a{i}" for i in range(n_atoms)]
    rules = []
    for k in range(n_rules):
        pool = rng.sample(range(n_atoms), n_atoms)
        parts = []
        for size in RULE_SIZES[k % len(RULE_SIZES)]:
            parts.append(sorted(pool[:size]))
            pool = pool[size:]
        rules.append(tuple(parts))
    lines = [f"atom({a})." for a in names]
    lines += [f"rule(r{k})." for k in range(n_rules)]
    for k, (head, pos, neg) in enumerate(rules):
        lines += [f"head(r{k},{names[i]})." for i in head]
        lines += [f"pos(r{k},{names[i]})." for i in pos]
        lines += [f"neg(r{k},{names[i]})." for i in neg]
    data = {"atoms": names, "rules": rules}
    return Instance("\n".join(lines) + "\n", data, f"prog{n_atoms}-{n_rules}")


GENERATORS = {
    "col-grid": col_grid,
    "col-planted": col_planted,
    "qbf2": qbf2,
    "shift": shift,
}


def make_instances(workload: str, seed: int, spec: dict) -> list[Instance]:
    """The instance set of one run: `spec["instances"]` instances cycling
    through `spec["shapes"]`, all drawn from one generator seeded by the
    workload name and the seed."""
    rng = random.Random(f"{workload}:{seed}")
    shapes = spec["shapes"]
    make = GENERATORS[workload]
    return [
        make(rng, shapes[k % len(shapes)])
        for k in range(spec["instances"])
    ]
