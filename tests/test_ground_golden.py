"""Byte-identity gate for the grounder. Each corpus section is ground and
hashed: the printed ground program, the atom table in order, and the source
rule map in order. The digests were taken from the join-based grounder the
planned one replaced, so any change to output, atom order or rule order
shows up here. A program that raises contributes its exception class name.
"""

import hashlib
import random

import pytest

from bigrule.decompose import decompose_program
from bigrule.errors import BigruleError
from bigrule.oracle import ground
from bigrule.parse import make_graph, parse_program, print_ground_program
from bigrule.rewriters import (
    disjunctive_to_normal,
    qbf2_classic,
    qbf2_large_rule,
    threecol_single_rule,
)

from corpus import random_ground_program, random_qbf2, random_safe_rule_program


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
        yield decompose_program(threecol_single_rule(grid(rows, cols)))[0]


def _qbf2():
    rng = random.Random(0x9BF2)
    for _ in range(30):
        qbf = random_qbf2(rng)
        for encode in (qbf2_classic, qbf2_large_rule):
            program = encode(qbf)
            yield program
            yield decompose_program(program)[0]


def _shift():
    rng = random.Random(0x5417)
    for _ in range(30):
        gp = random_ground_program(rng)
        program = disjunctive_to_normal(gp)
        if len(gp.atoms) <= 4:  # undecomposed, larger ones take seconds
            yield program
        yield decompose_program(program)[0]


def _safe_rules():
    rng = random.Random(0x5AFE)
    for _ in range(60):
        program = random_safe_rule_program(rng, domain_size=rng.choice((3, 4)))
        yield program
        yield decompose_program(program)[0]


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
        "f08dcb4874606cc8422fe6922eda671ac3e3987c7255f43928471e7b9d510d3c",
    ),
    "qbf2": (
        _qbf2,
        "0155dd7e96a77eb4ac87906285017bebaf599f4ae1309b859cebc78848d9f546",
    ),
    "shift": (
        _shift,
        "650ae9deb3780e5414999c8651ee31c78fe8f23a4ac854f92efc01daafffb1c6",
    ),
    "safe_rules": (
        _safe_rules,
        "5d223e432a377643f8c82414f85f37a20cc00b801b4e1ae64a05eb565e6af2ce",
    ),
    "aggregates": (
        _aggregates,
        "dedf352ae8e6fde22469cdf9486023d38af5fd8d58ef7bbed58da3eaf73ccd20",
    ),
    "recursive": (
        _recursive,
        "47616a18418028283ac9dbbc17c480e9b7a241a722b2d569658b57a1e8cea906",
    ),
}


@pytest.mark.filterwarnings("ignore::bigrule.parse.QdimacsWarning")
@pytest.mark.parametrize("section", sorted(GOLDEN))
def test_ground_output_matches_golden_digest(section):
    programs, expected = GOLDEN[section]
    assert digest(programs()) == expected
