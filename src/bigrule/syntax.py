"""Syntax tree and semantic helpers for ground and non-ground programs.

All types are immutable after construction and safe to share across
threads. Variables start with an uppercase letter, constants with a
lowercase one; this is what guarantees a printable round trip.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Union

from .errors import (
    ArityError,
    DivisionByZeroError,
    IntegerRangeError,
    NonIntegerArithmeticError,
    SafetyError,
)

ARITH_OPS = ("+", "-", "*", "/")
COMPARISON_OPS = ("=", "!=", "<", "<=", ">", ">=")
AGGREGATE_FUNCS = ("count", "sum", "min", "max")
# Integers are 64-bit: a literal or an evaluated value outside is an error.
INT_MIN, INT_MAX = -(2**63), 2**63 - 1


# ------------------------------------------------------------------ terms --

@dataclass(frozen=True, slots=True)
class Variable:
    name: str

    def __post_init__(self):
        if not self.name or not self.name[0].isupper():
            raise ValueError(f"variable name must start uppercase: {self.name!r}")

    def __str__(self):
        return self.name


@dataclass(frozen=True, slots=True)
class Constant:
    name: str

    def __post_init__(self):
        if not self.name or not (self.name[0].islower()):
            raise ValueError(f"constant symbol must start lowercase: {self.name!r}")

    def __str__(self):
        return self.name


@dataclass(frozen=True, slots=True)
class Integer:
    value: int

    def __str__(self):
        return str(self.value)


@dataclass(frozen=True, slots=True)
class Arith:
    op: str
    left: "Term"
    right: "Term"

    def __post_init__(self):
        if self.op not in ARITH_OPS:
            raise ValueError(f"unknown arithmetic operator {self.op!r}")

    def __str__(self):
        left = str(self.left)
        right = str(self.right)
        if isinstance(self.left, Arith) and _prec(self.left.op) < _prec(self.op):
            left = f"({left})"
        if isinstance(self.right, Arith) and _prec(self.right.op) <= _prec(self.op):
            right = f"({right})"
        return f"{left}{self.op}{right}"


Term = Union[Variable, Constant, Integer, Arith]
GroundTerm = Union[Constant, Integer]


def _prec(op: str) -> int:
    return 1 if op in ("+", "-") else 2


def arith(term: Arith, left, right) -> int:
    """The one definition of arithmetic: `term`'s operator applied to its
    operands' raw values. Division truncates toward zero; division by zero
    is an error, never a silent drop, and so is a value outside the 64-bit
    range."""
    if not isinstance(left, int) or not isinstance(right, int):
        raise NonIntegerArithmeticError(f"arithmetic over non-integer value in {term}")
    op = term.op
    if op == "+":
        value = left + right
    elif op == "-":
        value = left - right
    elif op == "*":
        value = left * right
    elif right == 0:
        raise DivisionByZeroError(f"division by zero in {term}")
    else:
        # Truncation toward zero, unlike Python's floor division.
        value = abs(left) // abs(right)
        if (left < 0) != (right < 0):
            value = -value
    if not INT_MIN <= value <= INT_MAX:
        raise IntegerRangeError(f"{term} evaluates to {value}, outside the 64-bit range")
    return value


def eval_term(term: Term, binding: dict[str, "str | int"]) -> "str | int":
    """Evaluate a term to a raw ground value (str for symbols, int for
    numbers) under a complete binding, by dict. The grounder compiles terms
    into closures over its binding tuples instead; both apply `arith`."""
    if isinstance(term, Variable):
        return binding[term.name]
    if isinstance(term, Constant):
        return term.name
    if isinstance(term, Integer):
        return term.value
    return arith(term, eval_term(term.left, binding), eval_term(term.right, binding))


def ground_term(value: "str | int") -> GroundTerm:
    return Integer(value) if isinstance(value, int) else Constant(value)


# ------------------------------------------------------------- atoms etc. --

@dataclass(frozen=True, slots=True)
class Atom:
    pred: str
    args: tuple[Term, ...] = ()

    def __str__(self):
        if not self.args:
            return self.pred
        return f"{self.pred}({','.join(str(a) for a in self.args)})"

    @property
    def arity(self) -> int:
        return len(self.args)

    def is_ground(self) -> bool:
        return next(term_variables(self), None) is None


@dataclass(frozen=True, slots=True)
class Literal:
    atom: Atom
    negated: bool = False

    def __str__(self):
        return f"not {self.atom}" if self.negated else str(self.atom)


def pos(a: Atom) -> Literal:
    return Literal(a, False)


def neg(a: Atom) -> Literal:
    return Literal(a, True)


@dataclass(frozen=True, slots=True)
class Comparison:
    """Arithmetic body atom: an equation `X = phi` or a builtin comparison."""

    op: str
    left: Term
    right: Term

    def __post_init__(self):
        if self.op not in COMPARISON_OPS:
            raise ValueError(f"unknown comparison operator {self.op!r}")

    def __str__(self):
        return f"{self.left} {self.op} {self.right}"

    def is_binding_equation(self) -> bool:
        return self.op == "=" and isinstance(self.left, Variable)


@dataclass(frozen=True, slots=True)
class Aggregate:
    """#agg{ X : condition } guard_op guard, with X the tuple variables."""

    func: str
    tuple_vars: tuple[str, ...]
    condition: tuple[Literal, ...]
    guard_op: str
    guard: Term

    def __post_init__(self):
        if self.func not in AGGREGATE_FUNCS:
            raise ValueError(f"unknown aggregate function {self.func!r}")
        if self.guard_op not in COMPARISON_OPS:
            raise ValueError(f"unknown guard operator {self.guard_op!r}")
        missing = set(self.tuple_vars) - set(term_variables(self.condition))
        if missing:
            raise ValueError(
                f"aggregate tuple variables {sorted(missing)} do not occur in the condition"
            )

    def __str__(self):
        tup = ",".join(self.tuple_vars)
        cond = ", ".join(str(l) for l in self.condition)
        return f"#{self.func}{{{tup} : {cond}}} {self.guard_op} {self.guard}"


@dataclass(frozen=True, slots=True)
class Rule:
    head: tuple[Atom, ...] = ()
    pos_body: tuple[Literal, ...] = ()
    neg_body: tuple[Literal, ...] = ()
    arith: tuple[Comparison, ...] = ()
    aggregates: tuple[Aggregate, ...] = ()

    def __post_init__(self):
        if any(l.negated for l in self.pos_body):
            raise ValueError("negated literal in positive body")
        if any(not l.negated for l in self.neg_body):
            raise ValueError("non-negated literal in negative body")

    def __str__(self):
        return _rule_text(map(str, self.head), map(str, self.body_elements()))

    def body_elements(self):
        """Body units in canonical order: positive, negative, arithmetic,
        aggregates. Each is treated as one unit by the Gaifman graph."""
        return (*self.pos_body, *self.neg_body, *self.arith, *self.aggregates)


# ---------------------------------------------------------------- program --

class Program:
    """A non-ground program: rules plus ground facts.

    A Program is valid by construction: every rule passes `is_safe` (else
    `SafetyError`), and each predicate has one arity (else `ArityError`).
    Ground, body-less, single-atom rules become facts, appended after the
    given facts in rule order, so that printing and re-parsing yields a
    structurally identical program. The stages that take a Program rely on
    this and do not check it again; `components`, the rules' component
    order (`_components`, aggregate conditions first), is computed once
    here for them too.
    """

    __slots__ = ("rules", "facts", "components", "_arities")

    def __init__(self, rules: Iterable[Rule] = (), facts: Iterable[Atom] = ()):
        kept_rules: list[Rule] = []
        all_facts: list[Atom] = list(facts)
        for r in rules:
            if (
                len(r.head) == 1
                and not r.pos_body and not r.neg_body
                and not r.arith and not r.aggregates
                and r.head[0].is_ground()
            ):
                all_facts.append(r.head[0])
                continue
            ok, unsafe = is_safe(r)
            if not ok:
                raise SafetyError(unsafe, str(r))
            kept_rules.append(r)
        self.rules: tuple[Rule, ...] = tuple(kept_rules)
        self.facts: tuple[Atom, ...] = tuple(all_facts)
        self._arities = self._check_arities()
        self.components: list[tuple[list[int], bool]] = _components(self.rules)

    def __eq__(self, other):
        if not isinstance(other, Program):
            return NotImplemented
        return self.rules == other.rules and self.facts == other.facts

    def __repr__(self):
        return f"Program({len(self.rules)} rules, {len(self.facts)} facts)"

    def predicates(self) -> dict[str, int]:
        """Predicate name to arity, over facts and all rule atoms."""
        return dict(self._arities)

    def fact_only(self) -> set[str]:
        """The predicates no rule heads, defined by facts alone or empty in
        every answer set: a rule whose head an aggregate reads may negate
        only these."""
        return self._arities.keys() - {a.pred for r in self.rules for a in r.head}

    def _check_arities(self) -> dict[str, int]:
        """Each predicate's arity, the first it is used with, facts first;
        one walk over the facts also checks that they are ground."""
        arities: dict[str, int] = {}

        def see(a: Atom):
            arity = len(a.args)
            old = arities.setdefault(a.pred, arity)
            if old != arity:
                raise ArityError(f"predicate {a.pred} used with arity {old} and {arity}")

        for f in self.facts:
            if not f.is_ground():
                raise ValueError(f"fact must be ground: {f}")
            see(f)
        for r in self.rules:
            for a in r.head:
                see(a)
            for lit in (*r.pos_body, *r.neg_body):
                see(lit.atom)
            for agg in r.aggregates:
                for lit in agg.condition:
                    see(lit.atom)
        return arities


# --------------------------------------------------------- ground program --

class GroundRule(NamedTuple):
    """Rule over atom indices of the owning GroundProgram."""

    head: tuple[int, ...] = ()
    pos: tuple[int, ...] = ()
    neg: tuple[int, ...] = ()


class GroundProgram:
    """Propositional program: an indexed atom table plus index-based rules."""

    __slots__ = ("atoms", "rules")

    def __init__(self, atoms: Iterable[Atom] = (), rules: Iterable[GroundRule] = ()):
        self.atoms: tuple[Atom, ...] = tuple(atoms)
        self.rules: tuple[GroundRule, ...] = tuple(rules)
        if len(set(self.atoms)) != len(self.atoms):
            raise ValueError("duplicate atom in ground program atom table")
        bound = len(self.atoms)
        for r in self.rules:
            for i in (*r.head, *r.pos, *r.neg):
                if not 0 <= i < bound:
                    raise ValueError(f"rule references unregistered atom index {i}")

    @classmethod
    def _trusted(cls, atoms: tuple[Atom, ...], rules: tuple[GroundRule, ...]) -> GroundProgram:
        """Without `__init__`'s checks, for a builder that guarantees them:
        no atom twice in `atoms`, and every index of `rules` in range."""
        gp = cls.__new__(cls)
        gp.atoms, gp.rules = atoms, rules
        return gp

    def __eq__(self, other):
        if not isinstance(other, GroundProgram):
            return NotImplemented
        return self.atoms == other.atoms and self.rules == other.rules

    def __repr__(self):
        return f"GroundProgram({len(self.atoms)} atoms, {len(self.rules)} rules)"

    def rule_str(self, r: GroundRule) -> str:
        body = [*(str(self.atoms[i]) for i in r.pos), *(f"not {self.atoms[i]}" for i in r.neg)]
        return _rule_text((str(self.atoms[i]) for i in r.head), body)


def _rule_text(head, body) -> str:
    """The one rule layout, of `Rule` and `GroundProgram.rule_str`: `head :-
    body.`, `head.`, `:- body.` or `:- .`, atoms joined by ` | `."""
    head, body = " | ".join(head), ", ".join(body)
    if not body:
        return f"{head}." if head else ":- ."
    return f"{head} :- {body}." if head else f":- {body}."


@dataclass(frozen=True, slots=True)
class Interpretation:
    """A set of true ground-atom indices of some GroundProgram."""

    true_atoms: frozenset[int]

    def atom_strs(self, gp: GroundProgram) -> list[str]:
        return sorted(str(gp.atoms[i]) for i in self.true_atoms)

    def __len__(self):
        return len(self.true_atoms)


# ------------------------------------------------------------- operations --

def term_variables(element) -> Iterator[str]:
    """Every variable occurrence in a term, atom, literal, comparison,
    aggregate (tuple variables, then condition, then guard), rule (head,
    then `body_elements()`), or list or tuple of these, in order."""
    kind = type(element)
    if kind is Variable:
        yield element.name
    elif kind is Literal or kind is Atom:
        # The common case inline: arguments are mostly variables.
        for arg in (element.atom if kind is Literal else element).args:
            if type(arg) is Variable:
                yield arg.name
            elif type(arg) is Arith:
                yield from term_variables(arg)
    elif kind is Arith or kind is Comparison:
        yield from term_variables(element.left)
        yield from term_variables(element.right)
    elif kind is Constant or kind is Integer:
        return
    elif kind is Aggregate:
        yield from element.tuple_vars
        yield from term_variables(element.condition)
        yield from term_variables(element.guard)
    elif kind is Rule:
        for item in (*element.head, *element.body_elements()):
            yield from term_variables(item)
    elif isinstance(element, (list, tuple)):
        for item in element:
            yield from term_variables(item)
    else:
        raise TypeError(f"cannot extract variables from {element!r}")


def variables_of(element) -> set[str]:
    """Every variable occurring anywhere in the element, including inside
    arithmetic terms, comparisons, and aggregates."""
    return set(term_variables(element))


def variables_in_order(element) -> list[str]:
    """Like variables_of but first-occurrence ordered (used for interface
    tuples whose argument order should mirror the source)."""
    return list(dict.fromkeys(term_variables(element)))


def global_vars(r: Rule) -> set[str]:
    """Rule-level variables: everything except variables occurring only
    inside aggregate conditions or tuples (those are aggregate-local)."""
    out: set[str] = set()
    for element in (*r.head, *r.pos_body, *r.neg_body, *r.arith):
        out.update(term_variables(element))
    for agg in r.aggregates:
        out.update(term_variables(agg.guard))
    return out


def is_safe(r: Rule) -> tuple[bool, set[str]]:
    """The one safety check, and the grounder's binding rule. A rule-level
    variable is safe if it is an argument of a positive body atom (not one
    inside an arithmetic argument: `q(X+1)` does not bind X), or the left
    side of an equation `X = phi` whose variables are all safe. Each
    aggregate condition variable must be safe or an argument of a positive
    condition atom. Returns the unsafe set. The equations are closed by
    `binding_order`, the sweep the join plan and the join estimate use."""
    safe = _argument_vars(r.pos_body)
    if r.arith:
        for comp in binding_order(list(r.arith), safe):
            if comp.is_binding_equation():
                safe.add(comp.left.name)
    unsafe = global_vars(r) - safe
    for agg in r.aggregates:
        local = safe | _argument_vars(l for l in agg.condition if not l.negated)
        unsafe |= variables_of(agg.condition) - local
    return (not unsafe, unsafe)


def _argument_vars(literals) -> set[str]:
    """Variables that are whole arguments of the literals' atoms."""
    return {
        arg.name for lit in literals for arg in lit.atom.args if isinstance(arg, Variable)
    }


def binding_order(pending: list, bound) -> Iterator:
    """The one binding sweep, shared by `is_safe`, the grounder's join plan
    (`oracle._Plan`) and the decomposer's join estimate
    (`decompose._join_estimate`). Sweeps `pending` until no item is ready,
    removing and yielding each ready item in turn:
    - a `Comparison` once all its variables are in `bound`;
    - a binding equation `X = phi`, with X not in `bound`, once phi's
      variables are; the caller adds X to `bound` before asking for the
      next item;
    - a deferred `(term, x)` pair once the term's variables are.
    `bound` is anything that supports `in`. Items left in `pending` never
    became ready. An item not ready waits on its first unbound input, and
    once an equation binds that, a heap of (sweep, position) visits it again:
    in the same sweep if it comes later in the list, else in the next."""
    items = pending[:]
    heap = [(0, i) for i in range(len(items))]
    waiting: dict[str, list[int]] = {}
    while heap:
        sweep, i = heapq.heappop(heap)
        item = items[i]
        equation = type(item) is not tuple and item.is_binding_equation()
        # X = phi is ready once phi is bound, whether X is bound or not.
        inputs = item.right if equation else item[0] if type(item) is tuple else item
        name = next((vn for vn in term_variables(inputs) if vn not in bound), None)
        if name is not None:
            waiting.setdefault(name, []).append(i)
            continue
        items[i] = None
        binds = item.left.name if equation and item.left.name not in bound else None
        yield item
        for j in waiting.pop(binds, ()):
            heapq.heappush(heap, (sweep if j > i else sweep + 1, j))
    pending[:] = [item for item in items if item is not None]


def join_order(atoms, bound, fresh: list):
    """The join order of the grounder's plan and the decomposer's estimate:
    indices of `atoms`, next the atom with most bound arguments, ties to the
    earlier one. The caller adds to `bound` (names of bound variables) and
    to `fresh` (names bound since the last step) before asking for the next
    index; only atoms holding a fresh name are rescored. Scores only grow,
    so a heap of (-score, index) with stale entries skipped yields the same
    order as a scan for the maximum. A body of at most one atom has its
    order already."""
    if len(atoms) < 2:
        yield from range(len(atoms))
        return
    score = [_bound_score(a, bound) for a in atoms]
    watch: dict[str, list[int]] = {}
    for i, a in enumerate(atoms):
        for vn in term_variables(a):
            watch.setdefault(vn, []).append(i)
    heap = [(-s, i) for i, s in enumerate(score)]
    heapq.heapify(heap)
    done = [False] * len(atoms)
    for _ in atoms:
        for vn in fresh:
            for i in watch.get(vn, ()):
                if not done[i]:
                    s = _bound_score(atoms[i], bound)
                    if s != score[i]:
                        score[i] = s
                        heapq.heappush(heap, (-s, i))
        fresh.clear()
        s, idx = heapq.heappop(heap)
        while done[idx] or -s != score[idx]:
            s, idx = heapq.heappop(heap)
        done[idx] = True
        yield idx


def _bound_score(a: Atom, slots) -> int:
    score = 0
    for arg in a.args:
        if isinstance(arg, Variable):
            score += arg.name in slots
        elif isinstance(arg, Arith):
            score += all(map(slots.__contains__, term_variables(arg)))
        else:
            score += 1
    return score


def _components(rules) -> list[tuple[list[int], bool]]:
    """Rule indices grouped by the strongly connected components of the
    positive dependency graph (body predicate -> rule -> head predicate),
    in topological order, each flagged if it is recursive (Lifschitz &
    Turner, "Splitting a logic program", ICLP 1994). A condition edge from
    each predicate of an aggregate's condition, positive or negated, to its
    rule puts the rules defining that predicate before the aggregate's rule,
    unless they depend on it."""
    n = len(rules)
    node: dict[str, int] = {}
    succ: dict[int, set[int]] = {}
    # Edges point from a rule to what it depends on, so Tarjan numbers
    # every component after all those it depends on.
    for i, r in enumerate(rules):
        read = [*r.pos_body, *(l for agg in r.aggregates for l in agg.condition)]
        succ[i] = {node.setdefault(l.atom.pred, n + len(node)) for l in read}
        for a in r.head:
            succ.setdefault(node.setdefault(a.pred, n + len(node)), set()).add(i)
    comp = _scc_index(succ, n + len(node))
    sizes = Counter(comp)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(comp[i], []).append(i)
    return [(groups[c], sizes[c] > 1) for c in sorted(groups)]


def _scc_index(succ: dict[int, set[int]], count: int) -> list[int]:
    # Iterative Tarjan; atom universe is small but recursion limits are rude.
    index = [-1] * count
    low = [0] * count
    on_stack = [False] * count
    comp = [-1] * count
    stack: list[int] = []
    counter = 0
    n_comps = 0
    for start in range(count):
        if index[start] != -1:
            continue
        work = [(start, iter(succ.get(start, ())))]
        index[start] = low[start] = counter
        counter += 1
        stack.append(start)
        on_stack[start] = True
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if index[nxt] == -1:
                    index[nxt] = low[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    on_stack[nxt] = True
                    work.append((nxt, iter(succ.get(nxt, ()))))
                    advanced = True
                    break
                if on_stack[nxt]:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = n_comps
                    if w == node:
                        break
                n_comps += 1
    return comp

