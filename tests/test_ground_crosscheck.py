"""Dual-route grounding check: a deliberately naive grounder instantiates
every rule over the full domain cross-product and keeps underivable
instances. Answer sets (as named atom sets) must coincide with the
join-based grounder's; on programs with variable-free rules, so must the
ground rules, once the naive ones are cut down the way the grounder emits.
The naive route shares no matching or comparison code with the grounder it
checks."""

import random
from itertools import product

import pytest

from bigrule.errors import BigruleError
from bigrule.oracle import answer_sets, ground
from bigrule.parse import parse_program
from bigrule.syntax import (
    Atom,
    Constant,
    GroundProgram,
    GroundRule,
    Literal,
    Program,
    Rule,
    Variable,
    eval_term,
    variables_of,
)

from test_ground_golden import GOLDEN


def ground_naive(program: Program) -> GroundProgram:
    domain = sorted(program.domain, key=str)
    atom_table: dict[Atom, int] = {}
    atoms: list[Atom] = []

    def intern(atom: Atom) -> int:
        if atom not in atom_table:
            atom_table[atom] = len(atoms)
            atoms.append(atom)
        return atom_table[atom]

    rules: list[GroundRule] = []
    for fact in program.facts:
        rules.append(GroundRule((intern(fact),), (), ()))
    for rule in program.rules:
        assert not rule.aggregates, "naive grounder covers aggregate-free rules"
        # Variables that are arguments of positive atoms range over the
        # domain; the rest are computed from binding equations (same
        # convention as the real grounder, reached independently here by
        # substitution).
        names = sorted({
            arg.name
            for lit in rule.pos_body
            for arg in lit.atom.args
            if isinstance(arg, Variable)
        })
        for combo in product(domain, repeat=len(names)):
            binding = {
                name: (term.value if hasattr(term, "value") else term.name)
                for name, term in zip(names, combo)
            }
            ok = True
            pending = [c for c in rule.arith]
            progress = True
            while progress and ok:
                progress = False
                for comp in pending[:]:
                    comp_vars = set(variables_of(comp))
                    if comp_vars <= set(binding):
                        if not _eval_comparison(comp, binding):
                            ok = False
                        pending.remove(comp)
                        progress = True
                    elif (
                        comp.is_binding_equation()
                        and comp.left.name not in binding
                        and set(variables_of(comp.right)) <= set(binding)
                    ):
                        binding[comp.left.name] = eval_term(comp.right, binding)
                        pending.remove(comp)
                        progress = True
            if not ok or pending:
                continue
            instantiate = lambda a: Atom(
                a.pred,
                tuple(
                    _ground_arg(arg, binding)
                    for arg in a.args
                ),
            )
            rules.append(
                GroundRule(
                    tuple(intern(instantiate(a)) for a in rule.head),
                    tuple(intern(instantiate(l.atom)) for l in rule.pos_body),
                    tuple(intern(instantiate(l.atom)) for l in rule.neg_body),
                )
            )
    return GroundProgram(atoms, rules)


def _ground_arg(arg, binding):
    from bigrule.syntax import ground_term

    return ground_term(eval_term(arg, binding))


def _eval_comparison(comp, binding):
    """Integers order before symbols; = and != compare values."""
    left = eval_term(comp.left, binding)
    right = eval_term(comp.right, binding)
    if comp.op == "=":
        return left == right
    if comp.op == "!=":
        return left != right
    rank = lambda value: (0, value, "") if isinstance(value, int) else (1, 0, value)
    a, b = rank(left), rank(right)
    return {"<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b}[comp.op]


def named_answer_sets(gp, max_atoms=4000):
    return {
        frozenset(str(gp.atoms[i]) for i in s.true_atoms)
        for s in answer_sets(gp, max_atoms=max_atoms)
    }


def named_rules(gp: GroundProgram) -> set:
    """The rules as (head, positive, negated) sets of atom names."""
    name = lambda ids: frozenset(str(gp.atoms[i]) for i in ids)
    return {(name(r.head), name(r.pos), name(r.neg)) for r in gp.rules}


def derivable_rules(gp: GroundProgram, facts) -> set:
    """`named_rules` of the naive grounding cut down the way the grounder
    emits: only instances whose positive body the possibly-true closure
    (negation ignored) derives; an instance with a negated fact dropped; a
    negated atom outside the closure dropped from its body."""
    closure: set[int] = set()
    grown = True
    while grown:
        grown = False
        for r in gp.rules:
            if closure.issuperset(r.pos) and not closure.issuperset(r.head):
                closure.update(r.head)
                grown = True
    facts = set(facts)
    fact_ids = {i for i, a in enumerate(gp.atoms) if a in facts}
    kept = [
        GroundRule(r.head, r.pos, tuple(i for i in r.neg if i in closure))
        for r in gp.rules
        if closure.issuperset(r.pos) and not fact_ids.intersection(r.neg)
    ]
    return named_rules(GroundProgram(gp.atoms, kept))


def tiny_program(rng: random.Random, variable_free: bool = False) -> Program:
    """One or two random rules with heads over g/1; bodies may read g, and
    the rule g(X) :- g(Y), q(X,Y) is added at random, with its body in
    either order, so positive recursion gets checked too. With
    `variable_free`, `variable_free_rules` adds some rules without
    variables."""
    consts = [Constant(c) for c in ("k1", "k2", "k3")]
    preds = [("p", 1), ("q", 2), ("r", 1)]
    rules = []
    if rng.random() < 0.4:
        body = [
            Literal(Atom("g", (Variable("Y"),))),
            Literal(Atom("q", (Variable("X"), Variable("Y")))),
        ]
        rng.shuffle(body)
        rules.append(Rule((Atom("g", (Variable("X"),)),), tuple(body)))
    for _ in range(rng.randint(1, 2)):
        n_vars = rng.randint(1, 3)
        names = [f"V{i}" for i in range(n_vars)]
        pos = []
        for _ in range(rng.randint(1, 3)):
            pred, arity = rng.choice(preds + [("g", 1)])
            pos.append(
                Literal(Atom(pred, tuple(Variable(rng.choice(names)) for _ in range(arity))))
            )
        covered = sorted({v.name for l in pos for v in l.atom.args})
        for name in names:
            if name not in covered:
                pos.append(Literal(Atom("r", (Variable(name),))))
        covered = sorted({v.name for l in pos for v in l.atom.args})
        head_n = rng.choice((0, 1, 1, 2))
        head = tuple(
            Atom("g", (Variable(rng.choice(covered)),)) for _ in range(head_n)
        )
        neg = []
        if rng.random() < 0.6:
            pred, arity = rng.choice([("g", 1), ("p", 1), ("q", 2)])
            neg.append(
                Literal(
                    Atom(pred, tuple(Variable(rng.choice(covered)) for _ in range(arity))),
                    True,
                )
            )
        rules.append(Rule(head, tuple(pos), tuple(neg)))
    if variable_free:
        rules += variable_free_rules(rng, consts)
    facts = []
    for pred, arity in preds:
        for combo in product(consts, repeat=arity):
            if rng.random() < 0.5:
                facts.append(Atom(pred, combo))
    return Program(rules, facts)


def variable_free_rules(rng: random.Random, consts) -> list[Rule]:
    """One to three rules without variables: heads over g/1, which the
    other rules read and derive, h/1 and w/0, or none (a constraint);
    positive and negated bodies over the fact predicates, the derived ones,
    and s/1, which nothing derives."""
    heads = [("g", 1), ("h", 1), ("w", 0)]
    bodies = [("p", 1), ("q", 2), ("r", 1), ("g", 1), ("h", 1), ("w", 0), ("s", 1)]

    def atom(pred, arity):
        return Atom(pred, tuple(rng.choice(consts) for _ in range(arity)))

    rules = []
    for _ in range(rng.randint(1, 3)):
        head = tuple(atom(*rng.choice(heads)) for _ in range(rng.choice((0, 1, 1, 2))))
        pos = tuple(Literal(atom(*rng.choice(bodies))) for _ in range(rng.randint(0, 3)))
        neg = tuple(Literal(atom(*rng.choice(bodies)), True) for _ in range(rng.randint(0, 1)))
        rules.append(Rule(head, pos, neg))
    return rules


def test_join_grounder_agrees_with_naive_cross_product():
    rng = random.Random(0xD1CE)
    for _ in range(250):
        program = tiny_program(rng)
        smart = ground(program).ground_program
        naive = ground_naive(program)
        assert named_answer_sets(smart) == named_answer_sets(naive)


def test_variable_free_rules_agree_with_naive_cross_product():
    rng = random.Random(0xF00D)
    for _ in range(300):
        program = tiny_program(rng, variable_free=True)
        smart = ground(program).ground_program
        naive = ground_naive(program)
        assert named_answer_sets(smart) == named_answer_sets(naive)
        assert named_rules(smart) == derivable_rules(naive, program.facts)


ARITHMETIC_TEXTS = (
    "p(1). p(2). p(3).\nq(X) :- p(Y), X = Y+1, not p(X).",
    "p(1). p(2).\n:- p(X), p(Y), X = Y+1.",
    "n(0). n(1).\nv(Z) :- n(X), n(Y), Z = X*2+Y, Z >= 1.",
)


def test_join_grounder_agrees_on_arithmetic_chains():
    for text in ARITHMETIC_TEXTS:
        program = parse_program(text)
        smart = ground(program).ground_program
        naive = ground_naive(program)
        assert named_answer_sets(smart) == named_answer_sets(naive), text


def _generated():
    """The programs the tests above generate."""
    rng = random.Random(0xD1CE)
    yield from (tiny_program(rng) for _ in range(250))
    rng = random.Random(0xF00D)
    yield from (tiny_program(rng, variable_free=True) for _ in range(300))
    yield from map(parse_program, ARITHMETIC_TEXTS)


@pytest.mark.filterwarnings("ignore::bigrule.parse.QdimacsWarning")
@pytest.mark.parametrize("section", sorted(GOLDEN) + ["generated"])
def test_grounder_output_passes_ground_program_checks(section):
    # `ground` builds its GroundProgram without the constructor's checks,
    # on the strength of its atom numbering. Run them here; the numbering
    # also numbers only atoms that some rule uses, so every index is used.
    programs = _generated() if section == "generated" else GOLDEN[section][0]()
    for program in programs:
        try:
            gp = ground(program).ground_program
        except BigruleError:
            continue
        assert GroundProgram(gp.atoms, gp.rules) == gp
        used = {i for r in gp.rules for i in (*r.head, *r.pos, *r.neg)}
        assert used == set(range(len(gp.atoms)))
