"""Seeded random instance generators shared by the property and acceptance
tests. Everything is deterministic given the Random instance."""

import random
from itertools import product

from bigrule.parse import Clause, InputGraph, Qbf, make_graph
from bigrule.rewriters import AbductionInstance
from bigrule.syntax import (
    Arith,
    Atom,
    Comparison,
    Constant,
    GroundProgram,
    GroundRule,
    Integer,
    Literal,
    Program,
    Rule,
    Variable,
)

BODY_PREDS = (("p", 2), ("q", 2), ("r", 1), ("s", 3))


def random_safe_rule_program(rng: random.Random, max_vars=8, max_body=10, max_neg=2,
                             domain_size=3, fact_density=0.45) -> Program:
    """One random safe rule plus random facts over its body predicates.
    Negative literals use body predicates or the head predicate so both
    fact-level and derived-level negation get exercised."""
    constants = [Constant(f"k{i}") for i in range(1, domain_size + 1)]
    n_vars = rng.randint(1, max_vars)
    variables = [f"V{i}" for i in range(n_vars)]

    n_pos = rng.randint(1, max_body)
    pos_lits = []
    for _ in range(n_pos):
        pred, arity = rng.choice(BODY_PREDS)
        args = tuple(Variable(rng.choice(variables)) for _ in range(arity))
        pos_lits.append(Literal(Atom(pred, args)))
    covered = {a.name for lit in pos_lits for a in lit.atom.args}
    for name in variables:
        if name not in covered:
            pos_lits.append(Literal(Atom("r", (Variable(name),))))
    pos_lits = pos_lits[:max_body] if len(pos_lits) <= max_body else pos_lits
    covered = {a.name for lit in pos_lits for a in lit.atom.args}
    usable = sorted(covered)

    head_size = rng.choice((0, 1, 1, 1, 2))
    head = tuple(
        Atom("h", (Variable(rng.choice(usable)), Variable(rng.choice(usable))))
        for _ in range(head_size)
    )

    neg_lits = []
    for _ in range(rng.randint(0, max_neg)):
        if head_size and rng.random() < 0.5:
            pred, arity = "h", 2
        else:
            pred, arity = rng.choice(BODY_PREDS)
        args = tuple(Variable(rng.choice(usable)) for _ in range(arity))
        neg_lits.append(Literal(Atom(pred, args), True))

    rule = Rule(head, tuple(pos_lits), tuple(neg_lits))

    facts = []
    preds_used = {(l.atom.pred, l.atom.arity) for l in pos_lits}
    preds_used |= {
        (l.atom.pred, l.atom.arity) for l in neg_lits if l.atom.pred != "h"
    }
    for pred, arity in sorted(preds_used):
        for combo in product(constants, repeat=arity):
            if rng.random() < fact_density:
                facts.append(Atom(pred, combo))
    return Program([rule], facts)


def random_ground_program(rng: random.Random, max_atoms=6, max_rules=8) -> GroundProgram:
    n_atoms = rng.randint(1, max_atoms)
    atoms = tuple(Atom(f"a{i}") for i in range(n_atoms))
    indices = list(range(n_atoms))
    rules = []
    for _ in range(rng.randint(0, max_rules)):
        head = tuple(sorted(rng.sample(indices, min(len(indices), rng.choice((0, 1, 1, 2))))))
        rest = [i for i in indices if i not in head]
        pos = tuple(sorted(rng.sample(rest, min(len(rest), rng.choice((0, 1, 1, 2))))))
        rest2 = [i for i in rest if i not in pos]
        neg = tuple(sorted(rng.sample(rest2, min(len(rest2), rng.choice((0, 0, 1, 2))))))
        if not head and not pos and not neg:
            continue
        rules.append(GroundRule(head, pos, neg))
    return GroundProgram(atoms, rules)


def random_overlapping_ground_program(rng: random.Random, max_atoms=9,
                                     max_rules=14) -> GroundProgram:
    """Like `random_ground_program`, but the head (0-3 atoms), positive body
    (0-3) and negative body (0-2) of a rule are drawn independently, so one
    atom can sit in two or three of them, as in `a :- a.` or `:- a, not a.`.
    Half the time the rules are sorted, which groups them by head."""
    n_atoms = rng.randint(1, max_atoms)
    atoms = tuple(Atom(f"a{i}") for i in range(n_atoms))

    def part(most):
        return tuple(sorted(rng.sample(range(n_atoms), min(n_atoms, rng.randint(0, most)))))

    rules = []
    for _ in range(rng.randint(0, max_rules)):
        rule = GroundRule(part(3), part(3), part(2))
        if rule.head or rule.pos or rule.neg:
            rules.append(rule)
    if rng.random() < 0.5:
        rules.sort()
    return GroundProgram(atoms, rules)


FACT_PREDS = (("e", 2), ("d", 1))
DERIVED_PREDS = (("p", 1), ("q", 1), ("r", 1))


def swapped(name: str) -> Arith:
    """`1+2-V`, which swaps 1 and 2. Its constants are 1 and 2, so the
    domain that `ground_naive` ranges over stays {1, 2}; `3-V` would add 3."""
    return Arith("-", Arith("+", Integer(1), Integer(2)), Variable(name))


def random_pipeline_program(rng: random.Random, max_rules=4, max_vars=4) -> Program:
    """Two or more random safe rules over the derived predicates p, q and
    r, which rules also read positively and under negation, so recursion,
    disjunctive heads and negated derived atoms all occur. Now and then a
    comparison between two rule variables, a binding equation `W = 1+2-V`
    for a fresh variable W, which only head and negated atoms then read, and
    `1+2-V` as an argument of head, positive and negated atoms. Facts over
    e/2 and d/1 on the domain {1, 2}, which `1+2-V` maps onto itself. Every
    ground atom is one of those 12, which keeps a naive grounding within
    `answer_sets_naive`'s cap."""
    domain = (Integer(1), Integer(2))
    rules = []
    for _ in range(rng.randint(2, max_rules)):
        names = [f"V{i}" for i in range(rng.randint(1, max_vars))]

        def arg(name):
            return swapped(name) if rng.random() < 0.15 else Variable(name)

        def atom(pred, arity):
            return Atom(pred, tuple(arg(rng.choice(names)) for _ in range(arity)))

        pos = [
            Literal(atom(*rng.choice(FACT_PREDS + DERIVED_PREDS)))
            for _ in range(rng.randint(1, 3))
        ]
        covered = {arg.name for lit in pos for arg in lit.atom.args if isinstance(arg, Variable)}
        pos += [Literal(Atom("d", (Variable(n),))) for n in names if n not in covered]
        arith = ()
        if len(names) > 1 and rng.random() < 0.3:
            left, right = rng.sample(names, 2)
            arith = (Comparison(rng.choice(("=", "!=", "<")), Variable(left), Variable(right)),)
        if rng.random() < 0.3:
            fresh = f"V{len(names)}"
            arith += (Comparison("=", Variable(fresh), swapped(rng.choice(names))),)
            names.append(fresh)
        head = tuple(atom(*rng.choice(DERIVED_PREDS)) for _ in range(rng.choice((0, 1, 1, 2))))
        neg = tuple(
            Literal(atom(*rng.choice(FACT_PREDS + DERIVED_PREDS)), True)
            for _ in range(rng.choice((0, 1, 1, 2)))
        )
        rules.append(Rule(head, tuple(pos), neg, arith))
    facts = [
        Atom(pred, args)
        for pred, arity in FACT_PREDS
        for args in product(domain, repeat=arity)
        if rng.random() < 0.5
    ]
    return Program(rules, facts)


def random_qbf2(rng: random.Random, max_universal=4, max_exist=4, max_clauses=8) -> Qbf:
    m = rng.randint(0, max_universal)
    n = rng.randint(0 if m else 1, max_exist)
    total = m + n
    prefix = []
    if m:
        prefix.append(("a", tuple(range(1, m + 1))))
    if n:
        prefix.append(("e", tuple(range(m + 1, total + 1))))
    clauses = []
    for _ in range(rng.randint(0, max_clauses)):
        if rng.random() < 0.02:
            clauses.append(Clause.of([]))
            continue
        width = rng.randint(1, 3)
        lits = [
            rng.choice((1, -1)) * rng.randint(1, total) for _ in range(width)
        ]
        clauses.append(Clause.of(lits))
    return Qbf(tuple(prefix), tuple(clauses), total)


def random_qbf3(rng: random.Random, max_outer=3, max_universal=3, max_exist=3,
                max_clauses=6) -> Qbf:
    l = rng.randint(1, max_outer)
    m = rng.randint(1, max_universal)
    n = rng.randint(1, max_exist)
    total = l + m + n
    prefix = (
        ("e", tuple(range(1, l + 1))),
        ("a", tuple(range(l + 1, l + m + 1))),
        ("e", tuple(range(l + m + 1, total + 1))),
    )
    clauses = []
    for _ in range(rng.randint(0, max_clauses)):
        width = rng.randint(1, 3)
        lits = [rng.choice((1, -1)) * rng.randint(1, total) for _ in range(width)]
        clauses.append(Clause.of(lits))
    return Qbf(prefix, tuple(clauses), total)


def random_graph(rng: random.Random, max_vertices=8, edge_prob=0.45) -> InputGraph:
    n = rng.randint(2, max_vertices)
    names = [f"v{i}" for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                edges.append((names[i], names[j]))
    if not edges:
        edges.append((names[0], names[1]))
    return make_graph(edges)


def random_partitioned_graph(rng: random.Random, max_vertices=6, edge_prob=0.5) -> InputGraph:
    g = random_graph(rng, max_vertices, edge_prob)
    names = sorted(g.vertices)
    v1 = [v for v in names if rng.random() < 0.5]
    return make_graph(sorted(g.edges), partition_v1=v1)


def random_abduction(rng: random.Random, max_atoms=5, max_hyp=3, max_rules=6) -> AbductionInstance:
    """Hypotheses are drawn from atoms outside every rule head: the
    saturation construction requires them to be genuinely abducible."""
    gp = random_ground_program(rng, max_atoms=max_atoms, max_rules=max_rules)
    universe = list(range(len(gp.atoms)))
    derivable = {i for rule in gp.rules for i in rule.head}
    abducible = [i for i in universe if i not in derivable]
    hyps = frozenset(
        rng.sample(abducible, min(len(abducible), rng.randint(0, max_hyp)))
    )
    rest = [i for i in universe if i not in hyps]
    mans = frozenset(rng.sample(rest, min(len(rest), rng.randint(0, 2))))
    return AbductionInstance(gp, hyps, mans)
