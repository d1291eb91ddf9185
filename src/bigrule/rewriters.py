"""Instance-to-program encoders: each takes one concrete problem instance
and produces a non-ground program whose consistency answers the instance.

The second-level encodings rely on saturation; the disjunction-elimination
and abduction encodings additionally build one large subset-minimality
constraint whose body is glued together by or/3 chains. That large rule is
what the decomposition pass is for.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import product

from .errors import (
    ClauseTooWideError,
    InputSemanticsError,
    MissingPartitionError,
    PrefixShapeError,
    TupleWidthError,
)
from .parse import InputGraph, Qbf, QdimacsWarning, reified_atom_ids, reified_rule_ids
from .syntax import (
    Arith,
    Atom,
    Comparison,
    Constant,
    GroundProgram,
    Integer,
    Literal,
    Program,
    Rule,
    Variable,
    neg,
    pos,
)


@dataclass(frozen=True)
class AbductionInstance:
    """Ground program with hypothesis and manifestation atom indices."""

    program: GroundProgram
    hypotheses: frozenset[int]
    manifestations: frozenset[int]

    def __post_init__(self):
        universe = range(len(self.program.atoms))
        if not self.hypotheses <= set(universe):
            raise ValueError("hypotheses outside the program's atom universe")
        if not self.manifestations <= set(universe):
            raise ValueError("manifestations outside the program's atom universe")


# ---------------------------------------------------------------- coloring --

_COLORS = ("r", "g", "b")


def _color_facts() -> list[Atom]:
    facts = [Atom("col", (Constant(color),)) for color in _COLORS]
    for a in _COLORS:
        for b in _COLORS:
            if a != b:
                facts.append(Atom("e", (Constant(a), Constant(b))))
    return facts


def _vertex_var(vertex: str) -> Variable:
    return Variable(f"X_{vertex}")


def _coloring_body(g: InputGraph) -> list[Literal]:
    """A color per vertex variable and a valid color pair per edge."""
    body = [pos(Atom("col", (_vertex_var(v),))) for v in sorted(g.vertices)]
    body += [
        pos(Atom("e", (_vertex_var(u), _vertex_var(w))))
        for u, w in sorted(g.edges)
    ]
    return body


def threecol_single_rule(g: InputGraph) -> Program:
    """One big guess-and-check constraint: a variable per vertex mapped to
    a color, edges mapped to valid color pairs. The program has an answer
    set exactly when no proper 3-coloring exists."""
    constraint = Rule(head=(), pos_body=tuple(_coloring_body(g)))
    return Program([constraint], _color_facts())


def threecol_second_level(g: InputGraph) -> Program:
    """Guess a coloring of the first vertex class with a classical program,
    then use the large rule to check it extends to the whole graph. An
    answer set exists exactly when some coloring of the first class has no
    proper extension."""
    if g.partition is None:
        raise MissingPartitionError("second-level coloring needs a #V1 partition")
    v1, _ = g.partition
    facts = _color_facts()
    facts += [Atom("vertex1", (Constant(v),)) for v in sorted(v1)]
    facts += [Atom("edge", (Constant(u), Constant(w))) for u, w in sorted(g.edges)]

    guess = Rule(
        head=tuple(Atom("c", (Variable("X"), Constant(color))) for color in _COLORS),
        pos_body=(pos(Atom("vertex1", (Variable("X"),))),),
    )
    proper = Rule(
        head=(),
        pos_body=(
            pos(Atom("edge", (Variable("X1"), Variable("X2")))),
            pos(Atom("c", (Variable("X1"), Variable("C")))),
            pos(Atom("c", (Variable("X2"), Variable("C")))),
        ),
    )
    body = _coloring_body(g)
    body += [pos(Atom("c", (Constant(v), _vertex_var(v)))) for v in sorted(v1)]
    r_col = Rule(head=(), pos_body=tuple(body))
    return Program([guess, proper, r_col], facts)


# -------------------------------------------------------------------- QBF ---

def _live_clauses(qbf: Qbf):
    live = []
    for clause in qbf.clauses:
        if clause.tautology:
            warnings.warn(
                "dropping tautological clause from the encoding",
                QdimacsWarning,
                stacklevel=3,
            )
            continue
        live.append(clause)
    return live


def _prefix_blocks(qbf: Qbf, template: str, shape: str) -> list[list[int]]:
    """One variable list per quantifier of `template` ("ae" or "eae"): the
    prefix must read as a run of consecutive template blocks, and the
    blocks it lacks are empty. `shape` names the template in the error."""
    pattern = tuple(q for q, _ in qbf.prefix)
    n = len(pattern)
    start = next((i for i in range(len(template)) if tuple(template[i:i + n]) == pattern), -1)
    if start < 0:
        raise PrefixShapeError(f"need {shape} prefix, found {'-'.join(pattern)}")
    blocks: list[list[int]] = [[] for _ in template]
    for i, (_, block) in enumerate(qbf.prefix, start):
        blocks[i] = list(block)
    return blocks


_X, _SAT, _ZERO, _ONE = Variable("X"), Atom("sat"), Integer(0), Integer(1)
# The fixed rules of `qbf2_classic`, built once and shared by every formula's
# program: guess an assignment, saturate the existential variables once
# `sat` holds, derive `sat` from a falsified clause, and require it.
_CLASSIC_RULES = (
    Rule(head=(Atom("ass", (_X, _ONE)), Atom("ass", (_X, _ZERO))),
         pos_body=(pos(Atom("var", (_X,))),)),
    *[Rule(head=(Atom("ass", (_X, value)),), pos_body=(pos(_SAT), pos(Atom("exists", (_X,)))))
      for value in (_ZERO, _ONE)],
    Rule(head=(_SAT,), pos_body=tuple(
        pos(atom) for slot in (1, 2, 3) for atom in (
            Atom(f"pos_{slot}", (Variable("C"), Variable(f"X{slot}"), Variable(f"A{slot}"))),
            Atom("ass", (Variable(f"X{slot}"), Arith("-", _ONE, Variable(f"A{slot}")))),
        )
    )),
    Rule(neg_body=(neg(_SAT),)),
)


def qbf2_classic(qbf: Qbf) -> Program:
    """Fixed-program encoding: guess an assignment, derive `sat` when some
    clause is falsified, saturate existential assignments. Consistent
    exactly when the formula is false. The instance is only facts."""
    universals, existentials = _prefix_blocks(qbf, "ae", "a forall-exists")
    clauses = _live_clauses(qbf)
    names = {x: Constant(f"x{x}") for x in universals}
    names.update({y: Constant(f"y{y}") for y in existentials})

    facts = [Atom("var", (names[x],)) for x in universals + existentials]
    facts += [Atom("exists", (names[y],)) for y in existentials]
    falsified: list[Atom] = []
    for i, clause in enumerate(clauses, start=1):
        if len(clause.lits) > 3:
            raise ClauseTooWideError(
                f"clause {i} has width {len(clause.lits)}, classic encoding takes up to 3"
            )
        if not clause.lits:
            # An empty clause falsifies every assignment outright.
            falsified.append(_SAT)
            continue
        padded = list(clause.lits) + [clause.lits[-1]] * (3 - len(clause.lits))
        name = Constant(f"c{i}")
        for slot, lit in enumerate(padded, start=1):
            facts.append(Atom(f"pos_{slot}", (name, names[abs(lit)], _ZERO if lit < 0 else _ONE)))
    return Program(_CLASSIC_RULES, facts + falsified)


def _large_rule_parts(clauses, universal_set, max_tuple_width):
    """Shared core of the large-rule QBF encodings: guessing rules for the
    universal variables, per-clause tuple facts and derivations of the
    blocked tuple, the one not a fact, and the single wide constraint
    body. Also returns the blocked tuple atoms."""
    facts: list[Atom] = []
    rules: list[Rule] = []
    for x in sorted(universal_set):
        rules.append(
            Rule(head=(Atom("t", (Constant(f"x{x}"),)), Atom("f", (Constant(f"x{x}"),))))
        )
    big_body: list[Literal] = []
    blocked_atoms: list[Atom] = []
    for i, clause in enumerate(clauses, start=1):
        x_lits = [lit for lit in clause.lits if abs(lit) in universal_set]
        y_lits = [lit for lit in clause.lits if abs(lit) not in universal_set]
        width = len(y_lits)
        if width > max_tuple_width:
            raise TupleWidthError(
                f"clause {i} has {width} existential literals; expanding"
                f" 2^{width} tuples exceeds the cap {max_tuple_width}"
            )
        blocked = tuple(0 if lit > 0 else 1 for lit in y_lits)
        pred = f"c{i}"
        for tup in product((0, 1), repeat=width):
            if tup != blocked:
                facts.append(Atom(pred, tuple(map(Integer, tup))))
        blocked_atom = Atom(pred, tuple(map(Integer, blocked)))
        blocked_atoms.append(blocked_atom)
        for lit in x_lits:
            name = Constant(f"x{abs(lit)}")
            trigger = Atom("t", (name,)) if lit > 0 else Atom("f", (name,))
            rules.append(Rule(head=(blocked_atom,), pos_body=(pos(trigger),)))
        eta = tuple(Variable(f"Y{abs(lit)}") for lit in y_lits)
        big_body.append(pos(Atom(pred, eta)))
    return facts, rules, big_body, blocked_atoms


def qbf2_large_rule(qbf: Qbf, max_tuple_width: int = 12) -> Program:
    """Large-rule encoding: clause predicates hold the still-satisfiable
    existential tuples, one wide constraint asks for a tuple assignment
    satisfying every clause. Consistent exactly when the formula is false."""
    universals, _ = _prefix_blocks(qbf, "ae", "a forall-exists")
    clauses = _live_clauses(qbf)
    facts, rules, big_body, _ = _large_rule_parts(
        clauses, set(universals), max_tuple_width
    )
    rules.append(Rule(head=(), pos_body=tuple(big_body)))
    return Program(rules, facts)


def qbf3_large_rule(qbf: Qbf, max_tuple_width: int = 12) -> Program:
    """Third-level extension: build the large-rule encoding as if the outer
    existential block were universal, then saturate the genuinely universal
    guesses and all clause tuples. Consistent exactly when the formula is
    valid."""
    outer, middle, _ = _prefix_blocks(qbf, "eae", "an exists-forall-exists")
    clauses = _live_clauses(qbf)
    treated_universal = set(outer) | set(middle)
    facts, rules, big_body, blocked_atoms = _large_rule_parts(
        clauses, treated_universal, max_tuple_width
    )
    sat = Atom("sat")
    rules.append(Rule(head=(sat,), pos_body=tuple(big_body)))
    rules.append(Rule(head=(), neg_body=(neg(sat),)))
    saturated: list[Atom] = []
    for x in sorted(middle):
        saturated.append(Atom("t", (Constant(f"x{x}"),)))
        saturated.append(Atom("f", (Constant(f"x{x}"),)))
    saturated.extend(blocked_atoms)  # the other clause tuples are facts
    for target in saturated:
        rules.append(Rule(head=(target,), pos_body=(pos(sat),)))
    return Program(rules, facts)


# ------------------------------------------------ reduct-check construction --

def reduct_rule(gp: GroundProgram, atom_ids, head, hypotheses=frozenset()) -> Rule:
    """The subset-minimality constraint body: B_subset guesses a pointwise
    smaller assignment Y, B_neq forces it properly smaller through an or/3
    chain, B_model checks it models the reduct. Hypothesis atoms are pinned
    equal (they are facts of the extended program)."""
    x = [Variable(f"X_{aid}") for aid in atom_ids]
    y = [Variable(f"Y_{aid}") for aid in atom_ids]
    literals: list[Literal] = []
    equations: list[Comparison] = []
    for i, aid in enumerate(atom_ids):
        literals.append(pos(Atom("assign", (Constant(aid), x[i]))))
        if i in hypotheses:
            # Guessed hypotheses are facts of the extended program, so
            # the reduct candidate must agree; oriented to keep Y safe.
            equations.append(Comparison("=", y[i], x[i]))
        else:
            literals.append(pos(Atom("leq", (y[i], x[i]))))

    def chain(name: str, middles: list) -> None:
        """or/3 links name0 .. nameK over the middles, from 0 to 1."""
        links = [Variable(f"{name}{k}") for k in range(len(middles) + 1)]
        equations.append(Comparison("=", links[0], Integer(0)))
        for k, middle in enumerate(middles):
            literals.append(pos(Atom("or", (links[k], middle, links[k + 1]))))
        equations.append(Comparison("=", links[-1], Integer(1)))

    chain("N", [Arith("-", xi, yi) for xi, yi in zip(x, y)])
    for r_index, rule in enumerate(gp.rules):
        chain(
            f"R{r_index}_",
            [y[i] for i in rule.head]
            + [Arith("-", Integer(1), y[i]) for i in rule.pos]
            + [x[i] for i in rule.neg],
        )
    return Rule(head=tuple(head), pos_body=tuple(literals), arith=tuple(equations))


_TRUTH_TABLE_FACTS = (
    Atom("leq", (Integer(0), Integer(0))),
    Atom("leq", (Integer(0), Integer(1))),
    Atom("leq", (Integer(1), Integer(1))),
    Atom("or", (Integer(0), Integer(0), Integer(0))),
    Atom("or", (Integer(0), Integer(1), Integer(1))),
    Atom("or", (Integer(1), Integer(0), Integer(1))),
    Atom("or", (Integer(1), Integer(1), Integer(1))),
)


def disjunctive_to_normal(gp: GroundProgram) -> Program:
    """Rewrite a ground disjunctive program into a non-ground normal one:
    reified facts, a fixed guess-and-model-check part, and one large
    subset-minimality constraint. Answer sets, projected to the atoms
    assigned 1, coincide with the input's answer sets."""
    atom_ids = reified_atom_ids(gp)
    rule_ids = reified_rule_ids(gp, atom_ids)

    facts: list[Atom] = [Atom("atom", (Constant(aid),)) for aid in atom_ids]
    facts += [Atom("rule", (Constant(rid),)) for rid in rule_ids]
    facts += list(_TRUTH_TABLE_FACTS)
    for rid, rule in zip(rule_ids, gp.rules):
        facts += [Atom("head", (Constant(rid), Constant(atom_ids[i]))) for i in rule.head]
        facts += [Atom("pos", (Constant(rid), Constant(atom_ids[i]))) for i in rule.pos]
        facts += [Atom("neg", (Constant(rid), Constant(atom_ids[i]))) for i in rule.neg]

    var_a, var_r = Variable("A"), Variable("R")
    one, zero = Integer(1), Integer(0)
    rules = [
        Rule(
            head=(Atom("assign", (var_a, one)),),
            pos_body=(pos(Atom("atom", (var_a,))),),
            neg_body=(neg(Atom("assign", (var_a, zero))),),
        ),
        Rule(
            head=(Atom("assign", (var_a, zero)),),
            pos_body=(pos(Atom("atom", (var_a,))),),
            neg_body=(neg(Atom("assign", (var_a, one))),),
        ),
        Rule(
            head=(Atom("sat", (var_r,)),),
            pos_body=(pos(Atom("head", (var_r, var_a))), pos(Atom("assign", (var_a, one)))),
        ),
        Rule(
            head=(Atom("sat", (var_r,)),),
            pos_body=(pos(Atom("pos", (var_r, var_a))), pos(Atom("assign", (var_a, zero)))),
        ),
        Rule(
            head=(Atom("sat", (var_r,)),),
            pos_body=(pos(Atom("neg", (var_r, var_a))), pos(Atom("assign", (var_a, one)))),
        ),
        Rule(
            head=(),
            pos_body=(pos(Atom("rule", (var_r,))),),
            neg_body=(neg(Atom("sat", (var_r,))),),
        ),
    ]
    rules.append(reduct_rule(gp, atom_ids, head=()))
    return Program(rules, facts)


def abduction_encoding(inst: AbductionInstance) -> Program:
    """Saturation encoding of stable cautious abduction: guess a hypothesis
    selection plus a full assignment, saturate whenever the assignment
    contains all manifestations, is no model, or fails subset-minimality.
    Consistent exactly when some selection forces the manifestations into
    every answer set of the extended program.

    The construction equates a hypothesis being selected with its atom
    being true, so hypotheses must be abducible: a hypothesis occurring in
    a rule head could also be derived, which the per-selection saturation
    search cannot see."""
    gp = inst.program
    derivable = {i for rule in gp.rules for i in rule.head}
    clash = sorted(inst.hypotheses & derivable)
    if clash:
        names = ", ".join(str(gp.atoms[i]) for i in clash)
        raise InputSemanticsError(
            f"hypotheses occurring in rule heads are not abducible: {names}"
        )
    atom_ids = reified_atom_ids(gp)

    facts: list[Atom] = [Atom("atom", (Constant(aid),)) for aid in atom_ids]
    facts += [Atom("hyp", (Constant(atom_ids[i]),)) for i in sorted(inst.hypotheses)]
    facts += list(_TRUTH_TABLE_FACTS)

    var_a = Variable("A")
    one, zero = Integer(1), Integer(0)
    sat = Atom("sat")
    rules = [
        Rule(
            head=(Atom("assign", (var_a, one)), Atom("assign", (var_a, zero))),
            pos_body=(pos(Atom("atom", (var_a,))),),
        ),
        Rule(
            head=(Atom("assign", (var_a, one)),),
            pos_body=(pos(sat), pos(Atom("atom", (var_a,)))),
            neg_body=(neg(Atom("hyp", (var_a,))),),
        ),
        Rule(
            head=(Atom("assign", (var_a, zero)),),
            pos_body=(pos(sat), pos(Atom("atom", (var_a,)))),
            neg_body=(neg(Atom("hyp", (var_a,))),),
        ),
        Rule(head=(), neg_body=(neg(sat),)),
        Rule(
            head=(sat,),
            pos_body=tuple(
                pos(Atom("assign", (Constant(atom_ids[i]), one)))
                for i in sorted(inst.manifestations)
            ),
        ),
    ]
    for rule in gp.rules:
        violated = [pos(Atom("assign", (Constant(atom_ids[i]), zero))) for i in rule.head]
        violated += [pos(Atom("assign", (Constant(atom_ids[i]), one))) for i in rule.pos]
        violated += [pos(Atom("assign", (Constant(atom_ids[i]), zero))) for i in rule.neg]
        rules.append(Rule(head=(sat,), pos_body=tuple(violated)))
    rules.append(reduct_rule(gp, atom_ids, (sat,), inst.hypotheses))
    return Program(rules, facts)
