"""Byte-identity gate for the grounder. Each corpus section is ground and
hashed: the printed ground program, the atom table in order, and the source
rule map in order. The digests were taken when the grounder began to
evaluate the deterministic fragment away (certain atoms leave bodies,
certain rules emit facts), so any change to output, atom order or rule
order shows up here. A program that raises contributes its exception class name.
The decomposed inputs are built here from the decomposition's public
pieces, so the gate pins the grounder and not the split policy of
`decompose_program`.
"""

import hashlib
import random

import pytest

from bigrule.decompose import FreshNamer, decompose_rule, split_aggregate
from bigrule.errors import BigruleError
from bigrule.oracle import ground
from bigrule.parse import make_graph, parse_program, print_ground_program
from bigrule.rewriters import (
    disjunctive_to_normal,
    qbf2_classic,
    qbf2_large_rule,
    threecol_single_rule,
)
from bigrule.syntax import Program, variables_of
from bigrule.treedecomp import decompose_graph, gaifman, root_at_head

from corpus import random_ground_program, random_qbf2, random_safe_rule_program


def split_structurally(program):
    """Every part of every rule split along its min-fill decomposition when
    the largest bag has fewer variables than the part: the split the digests
    were taken with."""
    rules = []
    for index, original in enumerate(program.rules):
        namer = FreshNamer(str(index))
        current = original
        parts = []
        for agg_index in range(len(original.aggregates)):
            current, helpers = split_aggregate(current, agg_index, namer)
            tag = namer.aggregate_part(agg_index).tag
            parts += [(h, FreshNamer(f"{tag}_{k}")) for k, h in enumerate(helpers)]
        for part, part_namer in [(current, namer)] + parts:
            td = decompose_graph(gaifman(part))
            if max(len(b) for b in td.bags) < len(variables_of(part)):
                head_vars = variables_of(list(part.head)) if part.head else set()
                rules += decompose_rule(part, root_at_head(td, head_vars), part_namer)
            else:
                rules.append(part)
    return Program(rules, program.facts)


def grid(rows: int, cols: int):
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((f"v{r}_{c}", f"v{r}_{c + 1}"))
            if r + 1 < rows:
                edges.append((f"v{r}_{c}", f"v{r + 1}_{c}"))
    return make_graph(edges)


def _grids():
    for rows, cols in ((4, 4), (3, 7), (2, 5)):
        yield split_structurally(threecol_single_rule(grid(rows, cols)))


def _qbf2():
    rng = random.Random(0x9BF2)
    for _ in range(30):
        qbf = random_qbf2(rng)
        for encode in (qbf2_classic, qbf2_large_rule):
            program = encode(qbf)
            yield program
            yield split_structurally(program)


def _shift():
    rng = random.Random(0x5417)
    for _ in range(30):
        gp = random_ground_program(rng)
        program = disjunctive_to_normal(gp)
        if len(gp.atoms) <= 4:  # undecomposed, larger ones take seconds
            yield program
        yield split_structurally(program)


def _safe_rules():
    rng = random.Random(0x5AFE)
    for _ in range(60):
        program = random_safe_rule_program(rng, domain_size=rng.choice((3, 4)))
        yield program
        yield split_structurally(program)


AGGREGATE_TEXTS = (
    "edge(a,b). edge(a,c). edge(b,c).\n"
    "busy(X) :- node(X), #count{V : edge(X,V)} >= 2.\n"
    "node(a). node(b). node(c).",
    "w(1). w(2). w(3).\nok :- #sum{V : w(V)} = 6.\nbad :- #sum{V : w(V)} > 6.",
    "w(2). w(5).\nlo :- #min{V : w(V)} = 2.\nhi :- #max{V : w(V)} = 5.",
    "e(a,b). e(b,c).\nlink(X,Y) :- e(X,Y).\nok :- #count{X,Y : link(X,Y)} = 2.",
    "c(a).\np(X) | q(X) :- c(X).\nok :- #count{X : p(X)} >= 1, c(X).",
    "e(a,b). e(b,c). e(c,a). f(b).\nn(X) :- e(X,Y), not f(Y).\n"
    "m(X) :- e(X,Y), #count{Z : n(Z), not e(Z,X)} >= 1.",
    "e(a,b). e(b,c). e(c,a). f(b).\nn(X) :- e(X,Y), not f(Y).\n"
    "m(X) :- e(X,Y), #count{Z : n(Z), not e(Z,X)} = 1.",
)


def _aggregates():
    for text in AGGREGATE_TEXTS:
        yield parse_program(text)


RECURSIVE_TEXTS = (
    "p(0).\np(Y) :- p(X), Y = X+1, Y < 25.",
    "e(1,2). e(2,3). e(3,1). e(3,4).\n"
    "reach(X,Y) :- e(X,Y).\nreach(X,Z) :- reach(X,Y), e(Y,Z).\n"
    "out(X) :- reach(X,X), not e(X,4).",
    "n(0).\nodd(Y) :- even(X), Y = X+1, Y < 12.\neven(Y) :- odd(X), Y = X+1.\n"
    "even(X) :- n(X).\nboth :- odd(X), even(Y), X = Y+3.",
    "p(1). p(2). p(3).\nq(X) :- p(Y), X = Y+1, not p(X).",
    "p(1). p(2).\n:- p(X), p(Y), X = Y+1.",
    "n(0). n(1).\nv(Z) :- n(X), n(Y), Z = X*2+Y, Z >= 1.",
)


def _recursive():
    for text in RECURSIVE_TEXTS:
        yield parse_program(text)


def digest(programs) -> str:
    h = hashlib.sha256()
    for program in programs:
        try:
            result = ground(program)
        except BigruleError as exc:
            h.update(f"raised {type(exc).__name__}\n".encode())
            continue
        gp = result.ground_program
        h.update(print_ground_program(gp).encode())
        h.update(repr([str(a) for a in gp.atoms]).encode())
        h.update(repr(list(result.source_rule_map.items())).encode())
        h.update(f"{result.rule_count} {result.atom_count}\n".encode())
    return h.hexdigest()


GOLDEN = {
    "grids": (
        _grids,
        "54fc53cfa9b1305c3690d9a7e52eca54eb6088efcc339087e7198d3683938fd5",
    ),
    "qbf2": (
        _qbf2,
        "baa3ac3d6bfd28cfee1cb7174ea8b48534d0087151c24421217d819baa67fb43",
    ),
    "shift": (
        _shift,
        "bfd85c7f4c8963d3a8b4822464a77ed68e3cb2700939eedcc6b507ec8f8ec738",
    ),
    "safe_rules": (
        _safe_rules,
        "5a1fa35df222f12422410b2602f8f2034bac671ae72dd7312aa1fddd6b53de1f",
    ),
    "aggregates": (
        _aggregates,
        "2b957abb1fc4085a65c11d17ca17efd5d79a659367da5ab0631bdd0caf040887",
    ),
    "recursive": (
        _recursive,
        "3e6d15164bec0cbbb8c2c1a141c9afcbe3e5d28ce0ced7beb378e6aa2b7f64cb",
    ),
}


@pytest.mark.filterwarnings("ignore::bigrule.parse.QdimacsWarning")
@pytest.mark.parametrize("section", sorted(GOLDEN))
def test_ground_output_matches_golden_digest(section):
    programs, expected = GOLDEN[section]
    assert digest(programs()) == expected
