"""Desk-scale ground-truth machinery: a join-based grounder, an exact
answer-set enumerator, and brute-force QBF / coloring / abduction solvers.

The grounder compiles each rule once into a static join plan: the order of
its body atoms, with each comparison, binding equation and deferred
arithmetic argument placed where its variables are first bound. Plans probe
hash indexes on the bound argument positions, built at compile time and
kept current as atoms arrive, test an atom whose arguments are all bound
when they reach it for membership instead (a variable-free rule probes
nothing), and run on an explicit stack, so body length is not limited by
recursion depth. The possibly-true closure visits the program's components
(`Program.components`) in topological order, those of the deterministic
fragment (`_outside`) first: a non-recursive component is joined once, a
recursive one until it adds nothing. Facts and the normal, non-recursive
rules over them, the fragment, have one answer set, which is part of every
answer set of the program (Lifschitz & Turner, "Splitting a logic program",
ICLP 1994), so its atoms may stand as facts: a fact, or a possibly-true
atom of a fragment predicate, is certain. Where a match is joined, and only
there, the closure drops it if its instance can never fire (`_fires`). The
rest add their heads and are recorded, and emission reads the records once
the closure is complete. Emission only leaves atoms out: a rule heading a
fragment predicate emits each new head atom of its matches once, as a fact;
every other rule leaves out its certain positive atoms and the negated
atoms that are not possibly true, and emits each distinct simplified rule
once, so a constraint over certain atoms alone becomes one `:- .`. Which
body positions hold certain atoms is decided per rule, before its matches
are read. Atoms are numbered in order of first use: facts, then rule by
rule the instances sorted by binding, each with its head, positive and
negative atoms in turn. One table per predicate maps argument tuples to
numbers, all counting in that one order; as each atom is numbered once, the
output `GroundProgram` skips its checks. Each aggregate is compiled with
its rule into a test on the same plans over the same closure, whose
component order completes its condition before the rule is joined, so the
test decides each reading of the rule variables it reads once.

The enumerator decides truth only for atoms that can actually vary (atoms
in negative bodies or disjunctive heads). Rules, truth assignments and atom
sets are bitmasks. Between decisions it propagates in rounds, each one sweep
over the rules with the Clark-completion steps of clasp (Gebser, Kaufmann &
Schaub, AIJ 2012): forward, a rule whose body holds makes its only head atom
that can still be true true; backward, a rule whose head atoms are all false
makes its last undecided body literal fail; support, an atom made true below
the root with exactly one rule left that can support it forces that rule's
body true and its other head atoms false. Atoms outside the upper bound are
false. Every upper bound is one Horn closure: a single forward sweep when
each rule comes after all rules heading its positive body atoms (the usual
shape of decomposed programs), otherwise sweeps until nothing changes; each
propagation round starts with it. The root, before the first decision, is
two of them in turn, Van Gelder's alternating fixpoint (JCSS 1993), from the
facts (heads of body-less rules with one head atom) as one mask: the bottom
of any split of the program (Lifschitz & Turner), they hold in every answer
set, and clasp too settles them before its search. One closure bounds the
atoms that can be true; the other makes true only what rules with one head
atom and every negated atom outside the bound derive, as the search counts
these atoms supported by the rules it settles. The search covers only the
rules the root leaves open, starting every closure from the atoms the root
made true. Propagation leaves each leaf a supported model (see
`_propagate`), so a leaf is checked only for subset-minimality against the
reduct. There is one decision search (`_search`), depth first on an
explicit stack, so search depth is not limited by recursion depth, and it
runs twice: over the program, true branch first, for the candidates, and
over each candidate's reduct, false branch first, for a model strictly
below it (`_minimal_below`), as in Koch, Leone & Pfeifer (AIJ 2003).
Propagation prunes only branches without answer sets, so answer sets come
out in lexicographic order of the decision atoms, true first. A literal
subset-enumeration variant is kept for cross-checking; both return exactly
the answer sets of the textbook reduct semantics.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import combinations, count
from operator import itemgetter

from .errors import (
    GroundingLimitError,
    IntegerRangeError,
    InternalError,
    TooManyAtomsError,
    TooManyVarsError,
    TooManyVerticesError,
    UnsupportedAggregateError,
)
from .parse import InputGraph, Qbf
from .syntax import (
    Aggregate,
    Arith,
    Atom,
    Comparison,
    Constant,
    GroundProgram,
    GroundRule,
    Integer,
    Interpretation,
    Program,
    Rule,
    Variable,
    arith,
    binding_order,
    eval_term,
    ground_term,
    join_order,
    term_variables,
    variables_of,
)

_INT, _SYM = 0, 1


def _raw_key(value) -> tuple:
    return (_INT, value) if isinstance(value, int) else (_SYM, value)


_COMPARE = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _compare(op: str, left, right) -> bool:
    """The one comparison evaluator: raw ground values, integers ordered
    before symbols."""
    return _COMPARE[op](_raw_key(left), _raw_key(right))


def _atom_raw(a: Atom) -> tuple:
    """The key of a ground atom, its arithmetic arguments evaluated."""
    return (a.pred, tuple([arg.name if type(arg) is Constant else arg.value if type(arg) is Integer
                           else eval_term(arg, {}) for arg in a.args]))


def _no_key(_) -> tuple:
    return ()


def _key_getter(positions):
    """Hash key of a tuple at `positions`: the value itself for one
    position, a tuple for several (operator.itemgetter's convention)."""
    return itemgetter(*positions) if positions else _no_key


def _getter(positions):
    """The tuple of values at `positions`."""
    if len(positions) == 1:
        (only,) = positions
        return itemgetter(slice(only, only + 1))
    return _key_getter(positions)


# ---------------------------------------------------------------- matching --

class _Store:
    """Possibly-true ground atoms by predicate, with hash indexes built when
    a plan that probes them is compiled and kept up to date by `add`. The
    index on (pred, bound positions) maps the values at those positions to
    the tuples of values at the other positions. Programs fix one arity per
    predicate, so the positions alone identify an index."""

    __slots__ = ("by_pred", "keys", "_indexes", "_by_positions")

    def __init__(self):
        self.by_pred: dict[str, list[tuple]] = {}
        self.keys: set[tuple] = set()
        self._indexes: dict[str, list] = {}
        self._by_positions: dict[tuple, dict] = {}

    def add(self, key: tuple) -> bool:
        if key in self.keys:
            return False
        self.keys.add(key)
        pred, args = key
        self.by_pred.setdefault(pred, []).append(args)
        for key_of, rest_of, index in self._indexes.get(pred, ()):
            index.setdefault(key_of(args), []).append(rest_of(args))
        return True

    def index(self, pred: str, positions: tuple, arity: int) -> dict:
        index = self._by_positions.get((pred, positions))
        if index is None:
            key_of = _key_getter(positions)
            rest_of = _getter([i for i in range(arity) if i not in positions])
            index = {}
            for args in self.by_pred.get(pred, ()):
                index.setdefault(key_of(args), []).append(rest_of(args))
            self._indexes.setdefault(pred, []).append((key_of, rest_of, index))
            self._by_positions[(pred, positions)] = index
        return index


class _Plan:
    """A conjunction of positive atoms and comparisons, compiled once.

    A binding is a tuple: the constants of the atoms (and of `also`, atoms
    whose keys are read off bindings later), then the variables bound on
    entry, then one value per slot the steps fill, in step order. `start`
    runs on the entry binding. Each probe then looks up one atom's index on
    its bound positions, taken from `store` at compile time, extends the
    binding by the values at the other positions, and runs its operations:
    checks (a comparison whose variables are bound, a repeated variable, a
    deferred arithmetic argument, an atom whose arguments are all bound,
    looked up in the store's atom set) and assignments (a binding equation,
    or an arithmetic argument the next probe's key needs)."""

    __slots__ = ("entry", "consts", "slots", "start", "probes", "atom_slots")

    def __init__(self, atoms, comparisons, store: _Store, bound=(), also=()):
        self.consts = consts = {}
        for a in (*atoms, *also):
            for arg in a.args:
                kind = type(arg)
                if kind is Constant:
                    consts.setdefault(arg.name, len(consts))
                elif kind is Integer:
                    consts.setdefault(arg.value, len(consts))
        self.entry = tuple(consts)
        self.slots = slots = {name: len(consts) + i for i, name in enumerate(bound)}
        fill = count(len(slots) + len(consts)).__next__  # the next binding position
        pending: list = list(comparisons)  # Comparison, or (term, slot) deferred
        fresh: list[str] = []  # names bound since the atom scores were updated
        self.start = ops = []
        self.probes = []
        self.atom_slots: list = [None] * len(atoms)
        order = join_order(atoms, slots, fresh)
        while True:  # what the bindings so far make ready, then the next atom
            if pending:  # same order as evaluating at match time
                for item in binding_order(pending, slots):
                    if type(item) is tuple:
                        term, slot = item
                        ops.append(_equal_op(_term_fn(term, slots), slot))
                    elif item.is_binding_equation() and item.left.name not in slots:
                        ops.append(_assign_op(_term_fn(item.right, slots)))
                        slots[item.left.name] = fill()
                        fresh.append(item.left.name)
                    else:
                        ops.append(_check_op(item, slots))
            idx = next(order, None)
            if idx is None:
                break
            a = atoms[idx]
            own = [None] * len(a.args)
            positions = []
            for pos, arg in enumerate(a.args):
                kind = type(arg)
                if kind is Variable:
                    if arg.name not in slots:
                        continue
                    own[pos] = slots[arg.name]
                elif kind is Arith:
                    if not all(map(slots.__contains__, term_variables(arg))):
                        continue
                    ops.append(_assign_op(_term_fn(arg, slots)))
                    own[pos] = fill()
                else:
                    own[pos] = consts[arg.name if kind is Constant else arg.value]
                positions.append(pos)
            if len(positions) == len(own):
                ops.append(_member_op(a.pred, _getter(own), store.keys))
                self.atom_slots[idx] = tuple(own)
                continue
            key_slots = [own[pos] for pos in positions]
            ops = []
            for pos, arg in enumerate(a.args):
                if own[pos] is not None:
                    continue
                if type(arg) is Variable:
                    if arg.name in slots:  # repeated within this atom
                        own[pos] = fill()
                        ops.append(_equal_op(itemgetter(slots[arg.name]), own[pos]))
                    else:
                        own[pos] = slots[arg.name] = fill()
                        fresh.append(arg.name)
                else:
                    own[pos] = fill()
                    pending.append((arg, own[pos]))
            index = store.index(a.pred, tuple(positions), len(a.args))
            self.probes.append((index, _key_getter(key_slots), ops))
            self.atom_slots[idx] = tuple(own)
        if pending:  # Program rejects every rule that leaves one
            raise InternalError(f"join plan leaves {pending} unbound")


def _term_fn(term, slots):
    """Evaluate a term over a binding tuple."""
    if isinstance(term, Variable):
        return itemgetter(slots[term.name])
    if isinstance(term, (Constant, Integer)):
        value = term.name if isinstance(term, Constant) else term.value
        return lambda b: value
    left, right = _term_fn(term.left, slots), _term_fn(term.right, slots)
    return lambda b: arith(term, left(b), right(b))


def _atom_key(a: Atom, plan: _Plan) -> tuple:
    """`(pred, args_of)`: the atom's ground key over a binding b is `(pred,
    args_of(b))`. The plan's binding carries the atom's constants."""
    slots, consts = plan.slots, plan.consts
    positions = []
    for arg in a.args:
        kind = type(arg)
        if kind is Variable:
            positions.append(slots[arg.name])
        elif kind is Arith:
            fns = [_term_fn(term, slots) for term in a.args]
            return a.pred, lambda b: tuple([fn(b) for fn in fns])
        else:
            positions.append(consts[arg.name if kind is Constant else arg.value])
    return a.pred, _getter(positions)


# Operations are (is_filter, fn): a filter keeps the bindings fn accepts,
# otherwise fn maps a binding to its extension.

def _check_op(comp: Comparison, slots):
    op, left, right = comp.op, _term_fn(comp.left, slots), _term_fn(comp.right, slots)
    return (True, lambda b: _compare(op, left(b), right(b)))


def _assign_op(value):
    return (False, lambda b: b + (value(b),))


def _equal_op(value, slot: int):
    return (True, lambda b: _compare("=", value(b), b[slot]))


def _member_op(pred: str, args_of, keys: set):
    return (True, lambda b: (pred, args_of(b)) in keys)


def _apply(ops, bindings):
    for is_filter, fn in ops:
        bindings = filter(fn, bindings) if is_filter else map(fn, bindings)
    return bindings


def _matches(plan: _Plan, entry: tuple):
    """Every extension of `entry` that matches the plan against its store,
    depth first. The stack holds one iterator per probe, so bodies of any
    length run without recursion. An index bucket that grows while it is
    read yields the new tuples too."""
    probes = plan.probes
    first = _apply(plan.start, iter((entry,)))
    if not probes:
        yield from first
        return
    last = len(probes)
    stack = [first]
    while stack:
        depth = len(stack)
        for b in stack[-1]:
            index, key_of, ops = probes[depth - 1]
            rest = index.get(key_of(b))
            if rest:
                found = _apply(ops, map(b.__add__, rest))
                if depth == last:
                    yield from found
                else:
                    stack.append(found)
                    break
        else:
            stack.pop()


# --------------------------------------------------------------- grounding --

class _RulePlan:
    """A rule compiled for the closure and for emission: its body plan, and
    the keys (`_atom_key`) of its head, positive and negative atoms. `values`
    reads the variables in name order; `index` is the rule's position in its
    program, which errors name."""

    __slots__ = ("rule", "index", "plan", "heads", "pos", "neg", "values")

    def __init__(self, rule: Rule, index: int, store: _Store):
        self.rule = rule
        self.index = index
        atoms = [l.atom for l in rule.pos_body]
        negated = [l.atom for l in rule.neg_body]
        self.plan = plan = _Plan(atoms, rule.arith, store, also=(*rule.head, *negated))
        self.values = _getter([plan.slots[name] for name in sorted(plan.slots)])
        self.pos = [(a.pred, _getter(slots)) for a, slots in zip(atoms, plan.atom_slots)]
        self.heads = [_atom_key(a, plan) for a in rule.head]
        self.neg = [_atom_key(a, plan) for a in negated]

    def matches(self):
        """The body's matches against the store."""
        return _matches(self.plan, self.plan.entry)


def _closure(units, schedule, store: _Store, keep, limit: int, spent: int) -> list[list]:
    """Join every rule against the store and add the heads of its matches
    that `keep[i]`, unit i's test (None: all pass), lets fire, group by
    group of `schedule`, a topological order of (unit indices, recursive)
    groups such as `Program.components`; a match the test rejects adds no
    head. A non-recursive group is joined once; a recursive one is joined
    until its round adds no atom, and its last round's matches are the
    complete ones. Returns each rule's matches that fire. `spent` plus the
    matches so far, and the atoms, may not exceed `limit`."""
    records: list[list] = [[] for _ in units]
    for members, recursive in schedule:
        before = spent
        while True:
            size = len(store.keys)
            spent = before
            for i in members:
                unit = units[i]
                fires = keep[i]
                kept = records[i] = []
                own = spent
                try:
                    for b in unit.matches():
                        spent += 1
                        if spent > limit:
                            raise GroundingLimitError(
                                f"grounding exceeds {limit} rule instances: facts and join"
                                f" matches reached {spent} at rule {unit.index} `{unit.rule}`"
                                f" ({spent - own} of its matches)"
                            )
                        if fires is None or fires(b):
                            kept.append(b)
                            for pred, args_of in unit.heads:
                                store.add((pred, args_of(b)))
                except IntegerRangeError as exc:
                    raise IntegerRangeError(
                        f"{exc} at rule {unit.index} `{unit.rule}`"
                    ) from None
                if len(store.keys) > limit:
                    raise GroundingLimitError(
                        f"possibly-true closure exceeds {limit} atoms: {len(store.keys)}"
                        f" after rule {unit.index} `{unit.rule}`"
                    )
            if not recursive or len(store.keys) == size:
                break
    return records


@dataclass(frozen=True)
class GroundingResult:
    """`rule_count` and `source_rule_map` (ground rule index -> source rule
    index) count the emitted rules other than the program's facts. A rule
    of the deterministic fragment counts the facts it adds, not its
    matches."""

    ground_program: GroundProgram
    rule_count: int
    atom_count: int
    source_rule_map: dict[int, int]


def ground(program: Program, max_ground_rules: int = 200_000) -> GroundingResult:
    """Instantiate rule variables by joining positive bodies against the
    possibly-true closure. Each rule is compiled once into a join plan that
    probes hash indexes on the bound argument positions. The closure visits
    the components of `Program.components` in topological order, the
    deterministic fragment's first, and records every match that can fire;
    emission then reads those records, sorted by binding within each rule.
    Arithmetic atoms are evaluated away, aggregates are expanded under the
    deterministic-fragment semantics over the same closure, and instances
    whose positive body can never be derived, or that can never fire
    (`_fires`), are omitted. The deterministic fragment is evaluated to
    facts: its rules emit their new head atoms as facts, and every other
    rule leaves out the certain atoms, the facts and the possibly-true
    atoms of fragment predicates, and the negated atoms that are not
    possibly true (`_emit_rules`). Facts plus join matches may not exceed
    `max_ground_rules`, nor may the atoms of the closure. Every rule binds
    all its variables, since `Program` admits only safe rules."""
    store = _Store()
    fact_order: list[tuple] = []
    fact_atoms: list[Atom] = []  # the first fact of each key
    for f in program.facts:
        try:
            key = _atom_raw(f)
        except IntegerRangeError as exc:
            raise IntegerRangeError(f"{exc} in fact `{f}.`") from None
        if store.add(key):
            fact_order.append(key)
            fact_atoms.append(f)

    units = [_RulePlan(r, i, store) for i, r in enumerate(program.rules)]
    outside = _outside(program)
    fact_keys = set(fact_order)
    mixed = outside & {pred for pred, _ in fact_order}  # facts certain, other atoms not
    keep = [_fires(unit, fact_keys, mixed, store, outside) for unit in units]
    # A fragment rule has one head atom, of a predicate inside, and is alone
    # in its group. It reads only fragment and fact-only predicates, so
    # joining these groups first keeps the order topological and completes
    # the fragment before any rule that negates it is joined.
    fragment = [len(r.head) == 1 and r.head[0].pred not in outside for r in program.rules]
    schedule = sorted(program.components, key=lambda group: not fragment[group[0][0]])
    records = _closure(units, schedule, store, keep, max_ground_rules, len(fact_order))

    # Emission, rule by rule in program order, each rule's matches sorted by
    # binding; a rule heading a fragment predicate emits facts.
    order: list[tuple] = []
    tables: dict = {}

    def table(pred: str):  # `__getitem__` of pred's numbering, made once
        num = tables.get(pred)
        if num is None:
            num = tables[pred] = _Numbering(pred, order).__getitem__
        return num

    ground_rules = [GroundRule((table(pred)(args),)) for pred, args in fact_order]
    source_map: dict[int, int] = {}
    for src_index, (unit, matches) in enumerate(zip(units, records)):
        if not matches:
            continue
        _sort_by_binding(matches, unit.values)
        first = len(ground_rules)
        try:
            if fragment[src_index]:
                _emit_facts(unit, matches, table, ground_rules)
            else:
                _emit_rules(unit, matches, table, outside, mixed, len(fact_order), store.keys,
                            ground_rules)
        except IntegerRangeError as exc:  # a negated atom's argument
            raise IntegerRangeError(f"{exc} at rule {src_index} `{unit.rule}`") from None
        source_map.update(dict.fromkeys(range(first, len(ground_rules)), src_index))

    # Facts are numbered first. A fact stands for its own atom unless an
    # argument is arithmetic, which the atom holds evaluated.
    derived = order[len(fact_order):]
    terms = {v: ground_term(v) for v in {v for _, args in derived for v in args}}
    atoms = (
        *[f if Arith not in map(type, f.args) else Atom(pred, tuple(map(ground_term, args)))
          for f, (pred, args) in zip(fact_atoms, fact_order)],
        *[Atom(pred, tuple(map(terms.__getitem__, args))) for pred, args in derived],
    )
    # Each key was numbered once, by a rule that uses it: atoms distinct, indices in range.
    gp = GroundProgram._trusted(atoms, tuple(ground_rules))
    return GroundingResult(gp, len(source_map), len(atoms), source_map)


def _emit_facts(unit: _RulePlan, matches, table, out: list) -> None:
    """A rule of the deterministic fragment: each head atom of its matches
    that is not numbered yet, once, as a fact. Only facts and such rules
    number atoms of a fragment predicate, so a numbered one is already a
    fact."""
    ((pred, head_of),) = unit.heads
    number, append = table(pred), out.append
    numbered = number.__self__
    for b in matches:
        args = head_of(b)
        if args not in numbered:
            append(GroundRule((number(args),)))


def _emit_rules(unit: _RulePlan, matches, table, outside: set, mixed: set, facts: int,
                possible: set, out: list) -> None:
    """A rule outside the deterministic fragment, simplified by the certain
    atoms: the facts, and the possibly-true atoms of fragment predicates.
    `_fires` has dropped each match that negates one or whose head holds
    one, so here they only leave the positive body, and a negated atom
    stays only if it is possibly true (`possible`), which only one of a
    predicate outside can be. A body position of a fragment predicate is
    left out once per rule. At any other position only a fact can be
    certain, and only one of a `mixed` predicate, outside but with facts,
    can be a fact: facts are numbered first, so the number an atom gets
    there, below `facts` or not, tells. Every instance goes through one
    loop, which keeps the first of each repeated atom in its head, positive
    and negative tuples. Instances that lose body atoms can coincide, so
    each distinct rule is then emitted once."""
    heads = [(table(pred), args_of) for pred, args_of in unit.heads]
    pos = [(table(pred), args_of) for pred, args_of in unit.pos if pred in outside]
    neg = [(pred, table(pred), args_of) for pred, args_of in unit.neg if pred in outside]
    checked = bool(mixed) and not mixed.isdisjoint([pred for pred, _ in unit.pos])
    seen = set() if checked or len(pos) < len(unit.pos) else None
    append = out.append
    for b in matches:
        rule = GroundRule(
            tuple(dict.fromkeys([num(args_of(b)) for num, args_of in heads])),
            tuple(dict.fromkeys([n for num, args_of in pos if (n := num(args_of(b))) >= facts])),
            tuple(dict.fromkeys([num(args) for pred, num, args_of in neg
                                 if (pred, (args := args_of(b))) in possible])),
        )
        if seen is not None:
            if rule in seen:
                continue
            seen.add(rule)
        append(rule)


def _fires(unit: _RulePlan, fact_keys: set, mixed: set, store: _Store, outside: set):
    """The test whether a match of `unit` can ever fire, or None if every
    match can; no other code drops a match. A match cannot fire if a
    negated atom is certain or one of its positive atoms, if a head atom of
    a `mixed` predicate (outside, with facts) is a fact, or if an aggregate
    fails (`_aggregate_test`, with `outside` the program's `_outside`). A
    negated atom of a predicate outside can be certain only as a fact; one
    inside is certain if it is in the store, which `ground`, joining the
    fragment first, fills before any rule that negates it."""
    checks = []  # (pred, args_of, certain atoms, positive atoms of pred)
    for pred, args_of in unit.neg:
        same = [pos_of for pos_pred, pos_of in unit.pos if pos_pred == pred]
        if pred not in outside:
            checks.append((pred, args_of, store.keys, same))
        elif pred in mixed or same:
            checks.append((pred, args_of, fact_keys, same))
    checks += [(pred, args_of, fact_keys, ()) for pred, args_of in unit.heads if pred in mixed]
    aggregates = unit.rule.aggregates
    tests = [_aggregate_test(agg, unit.plan.slots, store, outside) for agg in aggregates]
    if not checks and not tests:
        return None

    def fires(b: tuple) -> bool:
        for pred, args_of, certain, same in checks:
            args = args_of(b)
            if (pred, args) in certain or any(args == pos_of(b) for pos_of in same):
                return False
        for test in tests:
            if not test(b):
                return False
        return True

    return fires


class _Numbering(dict):
    """One predicate's atom numbers, by argument tuple. All predicates'
    tables count up in one shared order of first use, `order`, the list of
    `(pred, args)` keys that the atom table is read from."""

    __slots__ = ("pred", "order")

    def __init__(self, pred: str, order: list):
        self.pred, self.order = pred, order

    def __missing__(self, args) -> int:
        self[args] = n = len(self.order)
        self.order.append((self.pred, args))
        return n


def _sort_by_binding(matches: list, values):
    """Sort matches by their variables in name order, integers before
    symbols. Plain tuple order agrees with that as long as it never
    compares an integer with a symbol, and raises TypeError if it does."""
    try:
        matches.sort(key=values)
    except TypeError:
        matches.sort(key=lambda b: tuple(map(_raw_key, values(b))))


def _outside(program: Program) -> set[str]:
    """The predicates outside the deterministic fragment: aggregate
    conditions may not read them, and emission takes the possibly-true
    atoms of every other predicate as certain. Inside are those defined by
    facts or by normal, non-recursive, aggregate-free rules whose bodies
    stay inside and negate only predicates that no rule heads
    (`Program.fact_only`): each has one extension in every answer set. One
    pass in topological order."""
    rules = program.rules
    headed = {a.pred for r in rules for a in r.head}
    outside: set[str] = set()
    for members, recursive in program.components:
        for i in members:
            r = rules[i]
            if (
                recursive or len(r.head) != 1 or r.aggregates
                or not outside.isdisjoint([l.atom.pred for l in r.pos_body])
                or not headed.isdisjoint([l.atom.pred for l in r.neg_body])
            ):
                outside.update([a.pred for a in r.head])
    return outside


def _aggregate_test(agg: Aggregate, slots: dict, store: _Store, outside: set):
    """The test whether `agg` holds over a match of its rule, whose binding
    holds each rule variable at `slots`. A condition predicate in `outside` raises
    here, when the rule is compiled. The condition plan is bound on the rule
    variables `agg` reads, and each reading is decided once: the closure
    joins every rule defining a condition predicate before this rule
    (`Program.components`), so the store then holds the fragment's least
    model on them."""
    for lit in agg.condition:
        if lit.atom.pred in outside:
            raise UnsupportedAggregateError(
                f"aggregate condition over non-deterministic predicate {lit.atom.pred}"
            )
    reads = sorted(variables_of(agg) & slots.keys())
    positive = [l.atom for l in agg.condition if not l.negated]
    negative = [l.atom for l in agg.condition if l.negated]
    plan = _Plan(positive, (), store, reads, also=negative)
    negative = [_atom_key(a, plan) for a in negative]
    tuple_of = _getter([plan.slots[name] for name in agg.tuple_vars])
    guard, reading = _term_fn(agg.guard, plan.slots), _getter([slots[name] for name in reads])
    decided: dict[tuple, bool] = {}

    def holds(b: tuple) -> bool:
        values = reading(b)
        if values not in decided:
            entry = plan.entry + values
            tuples = {
                tuple_of(m) for m in _matches(plan, entry)
                if not any((pred, args_of(m)) in store.keys for pred, args_of in negative)
            }
            value = _aggregate_value(agg.func, tuples)
            decided[values] = value is not None and _compare(agg.guard_op, value, guard(entry))
        return decided[values]

    return holds


def _aggregate_value(func: str, tuples: set[tuple]):
    if func == "count":
        return len(tuples)
    firsts = []
    for tup in tuples:
        if not tup or not isinstance(tup[0], int):
            raise UnsupportedAggregateError(f"#{func} needs integer first components, got {tup!r}")
        firsts.append(tup[0])
    if func == "sum":
        return sum(firsts)
    if not firsts:
        return None  # empty #min/#max never satisfies a guard
    return min(firsts) if func == "min" else max(firsts)


# ------------------------------------------------------------- answer sets --

def _rule_masks(gp: GroundProgram):
    """(facts, masks): the heads of the rules with one head atom and an
    empty body as one bitmask, and the (head, pos, neg) bitmasks of every
    other rule in program order."""
    facts = bytearray(len(gp.atoms) // 8 + 1)
    masks = []
    for head, pos, neg in gp.rules:
        if len(head) == 1 and not pos and not neg:
            facts[head[0] >> 3] |= 1 << (head[0] & 7)
            continue
        h = p = g = 0
        for i in head:
            h |= 1 << i
        for i in pos:
            p |= 1 << i
        for i in neg:
            g |= 1 << i
        masks.append((h, p, g))
    return int.from_bytes(facts, "little"), masks


def _is_model(mask_rules, m: int) -> bool:
    for h, p, g in mask_rules:
        if (p & ~m) == 0 and (g & m) == 0 and (h & m) == 0:
            return False
    return True


def _is_ordered(mask_rules) -> bool:
    """True when, for every positive body atom a of every rule i, the last
    rule heading a comes before rule i. Then one forward sweep reaches the
    least fixpoint, since a rule's body is final by the time it is read."""
    later = 0
    for h, p, _ in reversed(mask_rules):
        later |= h
        if p & later:
            return False
    return True


def _horn_closure(mask_rules, ordered: bool, lo: int = 0, t: int = 0, f: int = 0) -> int:
    """Least superset of lo closed under the rules whose negative body
    misses t, never deriving an atom of f. With t = f = 0 this is the
    possibly-true closure; under an assignment (t, f) it is the upper bound
    of the atoms that can still become true. One sweep when `ordered`,
    otherwise sweeps until nothing changes."""
    hi = lo
    keep = ~f
    while True:
        changed = False
        missing = ~hi
        for h, p, g in mask_rules:
            if not (g & t) and not (p & missing):
                add = h & keep & missing
                if add:
                    hi |= add
                    missing = ~hi
                    changed = True
        if ordered or not changed:
            return hi


def _minimal_below(mask_rules, m: int, ordered: bool, lo: int) -> bool:
    """True iff no proper subset of m models the reduct w.r.t. m, given
    `lo`, a set every model of the reduct below m contains. The reduct's
    rules, heads cut to m, with one constraint appended, "some atom of m
    outside lo is false", go to `_search` over m, deciding the reduct's
    disjunctive heads, false first: m is minimal iff it finds no leaf. Every
    minimal model of a positive program is a supported model, which is what
    a leaf is. Rules are dropped and heads shrunk, and the constraint comes
    last, so an ordered program stays ordered."""
    red = [(h & m, p, 0) for h, p, g in mask_rules if not (g & m or p & ~m)]
    decided = 0
    for h, _, _ in red:
        if h & (h - 1):
            decided |= h
    red.append((0, m & ~lo, 0))
    return next(_search(red, ordered, m, lo, 0, decided, False), None) is None


def _search(mask_rules, ordered: bool, universe: int, lo: int, f: int, decided: int,
            true_first: bool):
    """The decision search: from the assignment (lo, f), decide the atoms of
    `decided` in index order, depth first on an explicit stack, propagating
    (`_propagate`) between decisions. Yields each leaf's true atoms, a
    supported model of `mask_rules` over `universe` that contains `lo`."""
    stack = [(lo, f)]
    while stack:
        t, f = stack.pop()
        state = _propagate(mask_rules, ordered, universe, lo, t, f)
        if state is None:
            continue
        t, f = state
        open_bits = decided & ~(t | f)
        if not open_bits:
            yield t
            continue
        bit = open_bits & -open_bits
        if true_first:
            stack += ((t, f | bit), (t | bit, f))
        else:
            stack += ((t | bit, f), (t, f | bit))


def _propagate(mask_rules, ordered: bool, universe: int, lo: int, t: int, f: int):
    """Extend the assignment (t, f) to its fixpoint, or None on a conflict:
    forward, backward and support steps for the atoms of t outside `lo`,
    which every upper bound contains. An atom no rule can support is a
    conflict. Each round starts with the bound's closure under (t, f).

    A leaf's fixpoint is a supported model, so an answer-set candidate needs
    only the minimality check. `_search` decides the atoms of negative bodies
    and disjunctive heads (of the reduct, in the minimality check); the
    forward step makes true each other atom of the bound, the only head atom
    of a rule whose negative body is false and positive body in the bound;
    the rest is false. The last round finds a true head atom for each rule
    whose body holds (else None), and makes each atom of t outside `lo` the
    only true head atom of one (else `need & ~once` fails). The rules the
    root dropped support `lo`, its t0."""
    while True:
        hi = _horn_closure(mask_rules, ordered, lo, t, f)
        if t & ~hi:
            return None
        f |= universe & ~hi
        t_in, f_in = t, f
        need = t & ~lo
        # Rules that can support each atom of `need`: in `once` for one, also
        # in `twice` for two or more; `sole` holds the last one seen. An atom
        # whose support is settled (body true, other head atoms false) goes
        # into both, as nothing is left to force. Support counts only atoms
        # true at the round's start, whose rules are all swept after them.
        once = twice = 0
        sole = {}
        open_t, open_f = ~t, ~f
        for rule in mask_rules:
            h, p, g = rule
            if p & f or g & t:
                continue
            body = p & open_t | g & open_f  # undecided; none in both (_root_residual)
            live = h & open_f
            if not body:
                if not live:
                    return None
                if not live & t:
                    if not live & (live - 1):
                        t |= live
                        open_t = ~t
                    continue
            elif not live:
                if not body & (body - 1):
                    if body & p:
                        f |= body
                        open_f = ~f
                    else:
                        t |= body
                        open_t = ~t
                continue
            true = h & t
            if true & need and not true & (true - 1):
                if body or live != true:
                    twice |= once & true
                    sole[true] = rule
                else:
                    twice |= true
                once |= true
        if need & ~once:
            return None
        forced = need & ~twice
        while forced:
            bit = forced & -forced
            forced ^= bit
            h, p, g = sole[bit]
            t |= p
            f |= g | h & ~bit
        if t & f:
            return None
        if t == t_in and f == f_in:
            return t, f


def _root_residual(facts: int, mask_rules, ordered: bool, universe: int):
    """The root, before any decision: the alternating fixpoint of two Horn
    closures (Van Gelder, JCSS 47(1), 1993), from the facts as one mask
    (`_rule_masks`). Each round closes the facts under the rules whose
    negative body misses t0, the bound hi, then t0 under the sure rules,
    those with every negated atom outside hi, so false, and at most one head
    atom. None on a conflict (a sure constraint whose positive body is in
    t0), else (t0, f0, rest): f0 the atoms outside hi, and rest, in their
    order, the rules of `mask_rules` left open. A rule is dropped when its
    body can never hold (a positive atom in f0, a negative one in t0, an
    atom in both) or when all its atoms are assigned, so that its body holds
    and a head atom is in t0. Each atom of t0 is a fact or the only head
    atom of a sure rule whose body holds, which is dropped: t0 is supported
    at every leaf. An atom made true because a constraint needs it would not
    be, so the backward and support steps wait for the search."""
    t, t0 = facts, None
    while t != t0:
        t0 = t
        hi = _horn_closure(mask_rules, ordered, facts, t0)
        sure = [(h, p, g) for h, p, g in mask_rules if not (g & hi or h & (h - 1))]
        t = _horn_closure(sure, ordered, t0)
    if any(not h and not p & ~t0 for h, p, _ in sure):
        return None
    f0 = universe & ~hi
    unassigned = universe & ~(t0 | f0)
    rest = [
        (h, p, g)
        for h, p, g in mask_rules
        if (h | p | g) & unassigned and not (p & f0 or g & t0 or p & g)
    ]
    return t0, f0, rest


def _enumerate_answer_sets(gp: GroundProgram, first_only: bool):
    facts, mask_rules = _rule_masks(gp)
    ordered = _is_ordered(mask_rules)
    universe = (1 << len(gp.atoms)) - 1
    root = _root_residual(facts, mask_rules, ordered, universe)
    if root is None:
        return []
    # Every atom of t0 is derived without a decision, so it stays in every
    # upper bound below the root and in every model of a leaf's reduct.
    t0, f0, rest = root
    # Atoms that can never be true are in f0, so they are never open.
    decided_mask = 0
    for h, _, g in mask_rules:
        decided_mask |= g
        if h & (h - 1):
            decided_mask |= h

    # True branch first, so answer sets come out in decision order; the
    # minimal leaves are the answer sets.
    results: list[int] = []
    for t in _search(rest, ordered, universe, t0, f0, decided_mask, True):
        if _minimal_below(rest, t, ordered, t0):
            results.append(t)
            if first_only:
                break
    return results


def _check_atom_cap(gp: GroundProgram, max_atoms: int) -> None:
    if len(gp.atoms) > max_atoms:
        raise TooManyAtomsError(
            f"ground program has {len(gp.atoms)} atoms, over the solver's cap "
            f"max_atoms={max_atoms} (--max-atoms on the command line)"
        )


def answer_sets(gp: GroundProgram, max_atoms: int = 24) -> set[Interpretation]:
    """All answer sets. The cap guards against accidentally huge inputs and
    can be raised explicitly."""
    _check_atom_cap(gp, max_atoms)
    found = _enumerate_answer_sets(gp, first_only=False)
    return {Interpretation(frozenset(_bits(m))) for m in found}


def has_answer_set(gp: GroundProgram, max_atoms: int = 24) -> bool:
    _check_atom_cap(gp, max_atoms)
    return bool(_enumerate_answer_sets(gp, first_only=True))


def answer_sets_naive(gp: GroundProgram, max_atoms: int = 14) -> set[Interpretation]:
    """Literal definition: enumerate candidates by cardinality then
    lexicographic order, test modelhood, then subset-minimality against the
    reduct by subset enumeration. Cross-check oracle for the fast path."""
    n = len(gp.atoms)
    if n > max_atoms:
        raise TooManyAtomsError(f"{n} atoms exceeds cap {max_atoms}")
    # Masks made here, apart from `_rule_masks`, so that they check it too.
    mask_rules = [tuple(sum(1 << i for i in set(part)) for part in r) for r in gp.rules]
    out: set[Interpretation] = set()
    for size in range(n + 1):
        for combo in combinations(range(n), size):
            m = 0
            for i in combo:
                m |= 1 << i
            if not _is_model(mask_rules, m):
                continue
            red = [(h, p, 0) for h, p, g in mask_rules if (g & m) == 0]
            minimal = True
            for sub_size in range(size):
                for sub in combinations(combo, sub_size):
                    nmask = 0
                    for i in sub:
                        nmask |= 1 << i
                    if _is_model(red, nmask):
                        minimal = False
                        break
                if not minimal:
                    break
            if minimal:
                out.add(Interpretation(frozenset(combo)))
    return out


def _bits(mask: int) -> list[int]:
    """The indices of mask's set bits, ascending, in one pass."""
    return [i for i, c in enumerate(bin(mask)[:1:-1]) if c == "1"]


# -------------------------------------------------------------- eval_qbf ---

def eval_qbf(qbf: Qbf, max_vars: int = 24) -> bool:
    """Recursive evaluation over the prefix: universal blocks need both
    branches, existential blocks need one; the empty matrix is true and an
    empty clause is false."""
    if qbf.num_vars > max_vars:
        raise TooManyVarsError(f"{qbf.num_vars} variables exceeds cap {max_vars}")
    flat = [(q, x) for q, block in qbf.prefix for x in block]
    pos_masks = []
    neg_masks = []
    for clause in qbf.clauses:
        pm = nm = 0
        for lit in clause.lits:
            if lit > 0:
                pm |= 1 << (lit - 1)
            else:
                nm |= 1 << (-lit - 1)
        pos_masks.append(pm)
        neg_masks.append(nm)

    def matrix(true_mask: int) -> bool:
        for pm, nm in zip(pos_masks, neg_masks):
            if (pm & true_mask) == 0 and (nm & ~true_mask) == 0:
                return False
        return True

    def rec(idx: int, true_mask: int) -> bool:
        if idx == len(flat):
            return matrix(true_mask)
        q, var = flat[idx]
        bit = 1 << (var - 1)
        first = rec(idx + 1, true_mask)
        if q == "a":
            return first and rec(idx + 1, true_mask | bit)
        return first or rec(idx + 1, true_mask | bit)

    return rec(0, 0)


def eval_qbf_expansion(qbf: Qbf, max_vars: int = 12) -> bool:
    """Independent evaluation style: expand quantifiers into an explicit
    and/or tree over fully substituted matrix copies, then fold the tree."""
    if qbf.num_vars > max_vars:
        raise TooManyVarsError(f"{qbf.num_vars} variables exceeds cap {max_vars}")
    flat = [(q, x) for q, block in qbf.prefix for x in block]

    def build(idx: int, env: dict[int, bool]):
        if idx == len(flat):
            clause_nodes = []
            for clause in qbf.clauses:
                lit_nodes = []
                for lit in clause.lits:
                    value = env.get(abs(lit), False)
                    lit_nodes.append(value if lit > 0 else not value)
                clause_nodes.append(("or", lit_nodes))
            return ("and", clause_nodes)
        q, var = flat[idx]
        lo = build(idx + 1, {**env, var: False})
        hi = build(idx + 1, {**env, var: True})
        return ("and", [lo, hi]) if q == "a" else ("or", [lo, hi])

    def fold(node) -> bool:
        if isinstance(node, bool):
            return node
        op, children = node
        values = [fold(child) for child in children]
        return all(values) if op == "and" else any(values)

    return fold(build(0, {}))


# --------------------------------------------------------------- coloring --

def solve_coloring(g: InputGraph, max_vertices: int = 16):
    """Proper 3-coloring by backtracking, or None. Colors are 0, 1, 2."""
    verts = sorted(g.vertices)
    if len(verts) > max_vertices:
        raise TooManyVerticesError(f"{len(verts)} vertices exceeds cap {max_vertices}")
    adjacency = {vtx: g.neighbors(vtx) for vtx in verts}
    order = sorted(verts, key=lambda vtx: -len(adjacency[vtx]))
    coloring: dict[str, int] = {}

    def assign(idx: int) -> bool:
        if idx == len(order):
            return True
        vtx = order[idx]
        for color in range(3):
            if all(coloring.get(nb) != color for nb in adjacency[vtx]):
                coloring[vtx] = color
                if assign(idx + 1):
                    return True
                del coloring[vtx]
        return False

    return dict(coloring) if assign(0) else None


# -------------------------------------------------------------- abduction --

def abduce_bruteforce(
    inst,
    max_universe: int = 12,
    max_hypotheses: int = 8,
):
    """Smallest witness E <= H (by size, then lexicographic) such that every
    answer set of the program extended with E contains all manifestations.
    An E whose extension has no answer set qualifies vacuously."""
    gp = inst.program
    if len(gp.atoms) > max_universe:
        raise TooManyAtomsError(f"{len(gp.atoms)} atoms exceeds cap {max_universe}")
    hyps = sorted(inst.hypotheses)
    if len(hyps) > max_hypotheses:
        raise TooManyAtomsError(f"{len(hyps)} hypotheses exceeds cap {max_hypotheses}")
    manifestations = frozenset(inst.manifestations)
    for size in range(len(hyps) + 1):
        for combo in combinations(hyps, size):
            extended = GroundProgram(
                gp.atoms,
                tuple(gp.rules) + tuple(GroundRule((h,), (), ()) for h in combo),
            )
            sets = answer_sets(extended, max_atoms=max_universe)
            if all(manifestations <= s.true_atoms for s in sets):
                return frozenset(combo)
    return None
