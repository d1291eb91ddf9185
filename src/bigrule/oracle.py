"""Desk-scale ground-truth machinery: a join-based grounder, an exact
answer-set enumerator, and brute-force QBF / coloring / abduction solvers.

The grounder compiles each rule once into a static join plan: the order of
its body atoms, with each comparison, binding equation and deferred
arithmetic argument placed where its variables are first bound. Plans
probe hash indexes on the bound argument positions, built on first use
and kept current as atoms arrive, and run on an explicit stack, so body
length is not limited by recursion depth. The possibly-true closure visits
the strongly connected components of the positive dependency graph in
topological order: a non-recursive component is joined once, a recursive
one until it adds nothing. Every match is recorded, and emission reads
the records once the closure is complete. It numbers atoms in order of first
use: facts, then rule by rule the instances sorted by binding, each with its
head, positive and negative atoms in turn, once none of its negated atoms is
a fact. One table per predicate maps argument tuples to numbers, all counting
in that one order; as each atom is numbered once, the output `GroundProgram`
skips its checks. Aggregate conditions run on the same plans, over the
deterministic sub-program's least model.

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
shape of decomposed programs), otherwise sweeps until nothing changes; it is
computed again only when a round could shrink it. The root, before the first
decision, propagates forward only: the search counts the atoms it made true
as supported by the rules it settles, which holds only for atoms the forward
step derives. The search covers only the rules the root leaves open,
starting every closure from the atoms the root made true. Each leaf is
checked for modelhood and support in one pass over the rules, then for
subset-minimality against the reduct. Propagation prunes only branches
without answer sets, so answer sets come out in lexicographic order of the
decision atoms, true first. The decision search and the minimality search
run depth first on explicit stacks, so search depth is not limited by
recursion depth. A literal subset-enumeration variant is kept for
cross-checking; both return exactly the answer sets of the textbook reduct
semantics.
"""

from __future__ import annotations

import heapq
import operator
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
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
    _scc_index,
    arith,
    binding_order,
    eval_term,
    ground_term,
    is_variable_free,
    term_variables,
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
    return (a.pred, tuple(eval_term(arg, {}) for arg in a.args))


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
    """Possibly-true ground atoms by predicate, with hash indexes built the
    first time a plan asks for them and kept up to date by `add`. The index
    on (pred, bound positions) maps the values at those positions to the
    tuples of values at the other positions. Programs fix one arity per
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
    its bound positions, extends the binding by the values at the other
    positions, and runs its operations: checks (a comparison whose
    variables are bound, a repeated variable, a deferred arithmetic
    argument) and assignments (a binding equation, or an arithmetic
    argument the next probe's key needs)."""

    __slots__ = ("entry", "consts", "slots", "start", "probes", "atom_slots")

    def __init__(self, atoms, comparisons, bound=(), also=()):
        self.consts = consts = {}
        for a in (*atoms, *also):
            for arg in a.args:
                if isinstance(arg, (Constant, Integer)):
                    consts.setdefault(_ground_value(arg), len(consts))
        self.entry = tuple(consts)
        self.slots = slots = {name: len(consts) + i for i, name in enumerate(bound)}
        width = len(slots) + len(consts)
        pending: list = list(comparisons)  # Comparison, or (term, slot) deferred
        fresh: list[str] = []  # names bound since the atom scores were updated

        def fill(name=None) -> int:
            nonlocal width
            if name is not None:
                slots[name] = width
                fresh.append(name)
            width += 1
            return width - 1

        def propagate(ops):
            # Same order as evaluating at match time.
            for item in binding_order(pending, slots):
                if type(item) is tuple:
                    term, slot = item
                    ops.append(_equal_op(_term_fn(term, slots), slot))
                elif item.is_binding_equation() and item.left.name not in slots:
                    ops.append(_assign_op(_term_fn(item.right, slots)))
                    fill(item.left.name)
                else:
                    ops.append(_check_op(item, slots))

        ops: list = []
        self.start = ops
        if pending:
            propagate(ops)
        self.probes = []
        self.atom_slots: list = [None] * len(atoms)
        for idx in _join_order(atoms, slots, fresh):
            a = atoms[idx]
            own = [None] * len(a.args)
            positions = []
            for pos, arg in enumerate(a.args):
                if isinstance(arg, Variable):
                    if arg.name not in slots:
                        continue
                    own[pos] = slots[arg.name]
                elif isinstance(arg, Arith):
                    if not all(vn in slots for vn in term_variables(arg)):
                        continue
                    ops.append(_assign_op(_term_fn(arg, slots)))
                    own[pos] = fill()
                else:
                    own[pos] = consts[_ground_value(arg)]
                positions.append(pos)
            key_slots = [own[pos] for pos in positions]
            ops = []
            for pos, arg in enumerate(a.args):
                if own[pos] is not None:
                    continue
                if isinstance(arg, Variable):
                    if arg.name in slots:  # repeated within this atom
                        own[pos] = fill()
                        ops.append(_equal_op(itemgetter(slots[arg.name]), own[pos]))
                    else:
                        own[pos] = fill(arg.name)
                else:
                    own[pos] = fill()
                    pending.append((arg, own[pos]))
            if pending:
                propagate(ops)
            self.probes.append(
                (a.pred, tuple(positions), len(a.args), _key_getter(key_slots), ops)
            )
            self.atom_slots[idx] = tuple(own)
        if pending:  # Program rejects every rule that leaves one
            raise InternalError(f"join plan leaves {pending} unbound")


def _ground_value(arg):
    return arg.name if isinstance(arg, Constant) else arg.value


def _join_order(atoms, bound, fresh: list):
    """Indices of `atoms` in join order: next the atom with most bound
    arguments, ties to the earlier one. The caller adds to `bound` (names of
    bound variables) and to `fresh` (names bound since the last step) before
    asking for the next index; only atoms holding a fresh name are
    rescored. Scores only grow, so a heap of (-score, index) with stale
    entries skipped yields the same order as a scan for the maximum."""
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
            score += all(vn in slots for vn in term_variables(arg))
        else:
            score += 1
    return score


def _term_fn(term, slots):
    """Evaluate a term over a binding tuple."""
    if isinstance(term, Variable):
        return itemgetter(slots[term.name])
    if isinstance(term, (Constant, Integer)):
        value = _ground_value(term)
        return lambda b: value
    left, right = _term_fn(term.left, slots), _term_fn(term.right, slots)
    return lambda b: arith(term, left(b), right(b))


def _atom_key(a: Atom, plan: _Plan) -> tuple:
    """`(pred, args_of)`: the atom's ground key over a binding b is `(pred,
    args_of(b))`. The plan's binding carries the atom's constants."""
    if not any(isinstance(arg, Arith) for arg in a.args):
        return a.pred, _getter([
            plan.slots[arg.name] if isinstance(arg, Variable) else plan.consts[_ground_value(arg)]
            for arg in a.args
        ])
    fns = [_term_fn(arg, plan.slots) for arg in a.args]
    return a.pred, lambda b: tuple([fn(b) for fn in fns])


# Operations are (is_filter, fn): a filter keeps the bindings fn accepts,
# otherwise fn maps a binding to its extension.

def _check_op(comp: Comparison, slots):
    op, left, right = comp.op, _term_fn(comp.left, slots), _term_fn(comp.right, slots)
    return (True, lambda b: _compare(op, left(b), right(b)))


def _assign_op(value):
    return (False, lambda b: b + (value(b),))


def _equal_op(value, slot: int):
    return (True, lambda b: _compare("=", value(b), b[slot]))


def _apply(ops, bindings):
    for is_filter, fn in ops:
        bindings = filter(fn, bindings) if is_filter else map(fn, bindings)
    return bindings


def _matches(plan: _Plan, store: _Store, entry: tuple):
    """Every extension of `entry` that matches the plan against the store,
    depth first. The stack holds one iterator per probe, so bodies of any
    length run without recursion. An index bucket that grows while it is
    read yields the new tuples too."""
    probes = [
        (store.index(pred, positions, arity), key_of, ops)
        for pred, positions, arity, key_of, ops in plan.probes
    ]
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
    program, which errors name. A variable-free rule (`is_variable_free`)
    gets no plan: its only binding, `entry`, holds the argument tuple of
    each of its atoms once, and its keys read them back."""

    __slots__ = ("rule", "index", "plan", "entry", "heads", "pos", "neg", "names", "values")

    def __init__(self, rule: Rule, index: int):
        self.rule = rule
        self.index = index
        if is_variable_free(rule):
            args: dict[tuple, int] = {}

            def key(a: Atom) -> tuple:
                own = tuple(map(_ground_value, a.args))
                return a.pred, itemgetter(args.setdefault(own, len(args)))

            self.plan = None
            self.heads = tuple(map(key, rule.head))
            self.pos = tuple(key(l.atom) for l in rule.pos_body)
            self.neg = tuple(key(l.atom) for l in rule.neg_body)
            self.entry = tuple(args)
            self.names = ()
            self.values = _no_key
            return
        atoms = [l.atom for l in rule.pos_body]
        negated = [l.atom for l in rule.neg_body]
        self.plan = plan = _Plan(atoms, rule.arith, also=(*rule.head, *negated))
        self.entry = plan.entry
        self.names = tuple(sorted(plan.slots))
        self.values = _getter([plan.slots[name] for name in self.names])
        self.pos = tuple(
            (a.pred, _getter(slots)) for a, slots in zip(atoms, plan.atom_slots)
        )
        self.heads = tuple(_atom_key(a, plan) for a in rule.head)
        self.neg = tuple(_atom_key(a, plan) for a in negated)

    def matches(self, store: _Store):
        """The body's matches against the store. A variable-free rule's
        only instance matches when each positive body atom is in it."""
        if self.plan is not None:
            return _matches(self.plan, store, self.entry)
        b, keys = self.entry, store.keys
        return (b,) if all((pred, args_of(b)) in keys for pred, args_of in self.pos) else ()


def _components(rules) -> list[tuple[list[int], bool]]:
    """Rule indices grouped by the strongly connected components of the
    positive dependency graph (body predicate -> rule -> head predicate),
    in topological order, each flagged if it is recursive."""
    n = len(rules)
    node: dict[str, int] = {}
    succ: dict[int, set[int]] = {}
    # Edges point from a rule to what it depends on, so Tarjan numbers
    # every component after all those it depends on.
    for i, r in enumerate(rules):
        succ[i] = {node.setdefault(l.atom.pred, n + len(node)) for l in r.pos_body}
        for a in r.head:
            succ.setdefault(node.setdefault(a.pred, n + len(node)), set()).add(i)
    comp = _scc_index(succ, n + len(node))
    sizes = Counter(comp)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(comp[i], []).append(i)
    return [(groups[c], sizes[c] > 1) for c in sorted(groups)]


def _closure(units, store: _Store, keep=None, limit=None, spent=0) -> list[list]:
    """Join every rule against the store and add the heads of its matches,
    component by component in topological order. A non-recursive
    component is joined once; a recursive one is joined until its round
    adds no atom, and its last round's matches are the complete ones.
    Returns each rule's matches that `keep` accepts (all without `keep`).
    With `limit`, `spent` plus the matches so far, and the atoms, may not
    exceed it."""
    records: list[list] = [[] for _ in units]
    for members, recursive in _components([u.rule for u in units]):
        before = spent
        while True:
            size = len(store.keys)
            spent = before
            for i in members:
                unit = units[i]
                kept = records[i] = []
                own = spent
                try:
                    for b in unit.matches(store):
                        spent += 1
                        if limit is not None and spent > limit:
                            raise GroundingLimitError(
                                f"grounding exceeds {limit} rule instances: facts and join"
                                f" matches reached {spent} at rule {unit.index} `{unit.rule}`"
                                f" ({spent - own} of its matches)"
                            )
                        if keep is None or keep(unit, b):
                            kept.append(b)
                            for pred, args_of in unit.heads:
                                store.add((pred, args_of(b)))
                except IntegerRangeError as exc:
                    raise IntegerRangeError(
                        f"{exc} at rule {unit.index} `{unit.rule}`"
                    ) from None
                if limit is not None and len(store.keys) > limit:
                    raise GroundingLimitError(
                        f"possibly-true closure exceeds {limit} atoms: {len(store.keys)}"
                        f" after rule {unit.index} `{unit.rule}`"
                    )
            if not recursive or len(store.keys) == size:
                break
    return records


@dataclass(frozen=True)
class GroundingResult:
    ground_program: GroundProgram
    rule_count: int
    atom_count: int
    source_rule_map: dict[int, int]


def ground(program: Program, max_ground_rules: int = 200_000) -> GroundingResult:
    """Instantiate rule variables by joining positive bodies against the
    possibly-true closure. Each rule is compiled once into a join plan that
    probes hash indexes on the bound argument positions. The closure visits
    the components of the positive dependency graph in topological order
    and records every match; emission then reads those records, sorted by
    binding within each rule. Arithmetic atoms are evaluated away,
    aggregates are expanded under the deterministic-fragment semantics,
    and instances whose positive body can never be derived are omitted.
    Facts plus join matches may not exceed `max_ground_rules`, nor may the
    atoms of the closure. Every rule binds all its variables, since
    `Program` admits only safe rules."""
    store = _Store()
    fact_order: list[tuple] = []
    for f in program.facts:
        try:
            key = _atom_raw(f)
        except IntegerRangeError as exc:
            raise IntegerRangeError(f"{exc} in fact `{f}.`") from None
        if store.add(key):
            fact_order.append(key)
    fact_keys = set(fact_order)

    units = [_RulePlan(r, i) for i, r in enumerate(program.rules)]
    agg_eval = None
    if any(r.aggregates for r in program.rules):
        agg_eval = _AggregateContext(program, units, fact_order, max_ground_rules)

    def keep(unit: _RulePlan, b: tuple) -> bool:
        aggregates = unit.rule.aggregates
        return not aggregates or agg_eval.all_true(aggregates, unit.names, unit.values(b))

    records = _closure(
        units, store, keep if agg_eval else None, max_ground_rules, len(fact_order)
    )

    # Emission, with negative-literal simplification against the closure. A
    # list of atoms can repeat one only if two of them share a predicate.
    order: list[tuple] = []
    tables: dict = {}

    def table(pred: str):  # `__getitem__` of pred's numbering, made once
        num = tables.get(pred)
        if num is None:
            num = tables[pred] = _Numbering(pred, order).__getitem__
        return num

    ground_rules = [GroundRule((table(pred)(args),)) for pred, args in fact_order]
    append = ground_rules.append
    source_map: dict[int, int] = {}
    for src_index, (unit, matches) in enumerate(zip(units, records)):
        _sort_by_binding(matches, unit.values)
        first = len(ground_rules)
        heads = [(table(pred), args_of) for pred, args_of in unit.heads]
        pos = [(table(pred), args_of) for pred, args_of in unit.pos]
        pos_repeats = _may_repeat(unit.pos)
        if not unit.neg and len(heads) <= 1:
            head_num, head_of = heads[0] if heads else (None, None)
            for b in matches:
                head = (head_num(head_of(b)),) if heads else ()
                body = [num(args_of(b)) for num, args_of in pos]
                append(GroundRule(head, tuple(dict.fromkeys(body) if pos_repeats else body), ()))
        else:
            head_repeats, neg_repeats = _may_repeat(unit.heads), _may_repeat(unit.neg)
            neg = [(pred, table(pred), args_of) for pred, args_of in unit.neg]
            try:
                for b in matches:
                    neg_args = []
                    for pred, num, args_of in neg:
                        key = (pred, args_of(b))
                        if key in fact_keys:
                            break  # negated fact: instance can never fire
                        if key in store.keys:
                            neg_args.append((num, key[1]))
                        # else: atom can never be true, the literal is vacuous
                    else:
                        head = [num(args_of(b)) for num, args_of in heads]
                        body = [num(args_of(b)) for num, args_of in pos]
                        negs = [num(args) for num, args in neg_args]
                        append(GroundRule(
                            tuple(dict.fromkeys(head) if head_repeats else head),
                            tuple(dict.fromkeys(body) if pos_repeats else body),
                            tuple(dict.fromkeys(negs) if neg_repeats else negs),
                        ))
            except IntegerRangeError as exc:  # a negated atom's argument
                raise IntegerRangeError(f"{exc} at rule {src_index} `{unit.rule}`") from None
        source_map.update(dict.fromkeys(range(first, len(ground_rules)), src_index))

    terms = {v: ground_term(v) for v in {v for _, args in order for v in args}}
    atoms = tuple([Atom(pred, tuple(map(terms.__getitem__, args))) for pred, args in order])
    # Each key was numbered once, by a rule that uses it: atoms distinct, indices in range.
    gp = GroundProgram._trusted(atoms, tuple(ground_rules))
    return GroundingResult(gp, len(source_map), len(atoms), source_map)


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


def _may_repeat(atoms) -> bool:  # only atoms of one predicate can coincide
    return len({pred for pred, _ in atoms}) < len(atoms)


def _sort_by_binding(matches: list, values):
    """Sort matches by their variables in name order, integers before
    symbols. Plain tuple order agrees with that as long as it never
    compares an integer with a symbol, and raises TypeError if it does."""
    try:
        matches.sort(key=values)
    except TypeError:
        matches.sort(key=lambda b: tuple(map(_raw_key, values(b))))


class _AggregateContext:
    """Aggregate expansion over the deterministic sub-program: condition
    predicates must be defined by facts or by normal, non-recursive,
    aggregate-free rules whose bodies stay inside the fragment (negation
    only over fact-defined predicates). Their extension is then identical
    in every answer set, so aggregates can be decided at grounding time."""

    def __init__(self, program: Program, units, fact_order, limit: int):
        fact_only = {f.pred for f in program.facts}
        fact_only.difference_update(a.pred for r in program.rules for a in r.head)
        # One pass in topological order: every rule using a predicate
        # positively comes after all rules defining it.
        self.outside: set[str] = set()
        fragment = []
        for members, recursive in _components(program.rules):
            for i in members:
                r = program.rules[i]
                if (
                    recursive
                    or len(r.head) != 1
                    or r.aggregates
                    or any(l.atom.pred in self.outside for l in r.pos_body)
                    or any(l.atom.pred not in fact_only for l in r.neg_body)
                ):
                    self.outside.update(a.pred for a in r.head)
                else:
                    fragment.append(units[i])

        # Only the rules whose head reaches a condition predicate through
        # positive bodies matter; in reverse order a rule comes before the
        # rules defining its body predicates.
        read = {
            l.atom.pred for r in program.rules for agg in r.aggregates for l in agg.condition
        }
        needed = []
        for unit in reversed(fragment):
            pred = unit.rule.head[0].pred
            if pred in read and pred not in self.outside:
                needed.append(unit)
                read.update(l.atom.pred for l in unit.rule.pos_body)

        # Least model of those rules: an instance whose negated atom is a
        # fact never fires. Its matches count against the same limit as the
        # main closure's, on their own.
        self.store = _Store()
        for key in fact_order:
            self.store.add(key)
        fact_keys = set(fact_order)
        _closure(
            needed[::-1],
            self.store,
            lambda unit, b: not any((pred, args_of(b)) in fact_keys for pred, args_of in unit.neg),
            limit,
            len(fact_keys),
        )
        self.plans: dict[tuple, tuple] = {}

    def all_true(self, aggregates, names: tuple, values: tuple) -> bool:
        """Whether every aggregate holds with the rule variables `names`
        bound to `values`."""
        return all(self._eval(agg, names, values) for agg in aggregates)

    def _compile(self, agg: Aggregate, names: tuple):
        for lit in agg.condition:
            if lit.atom.pred in self.outside:
                raise UnsupportedAggregateError(
                    f"aggregate condition over non-deterministic predicate {lit.atom.pred}"
                )
        positive = [l.atom for l in agg.condition if not l.negated]
        negative = [l.atom for l in agg.condition if l.negated]
        plan = _Plan(positive, (), names, also=negative)
        negative = [_atom_key(a, plan) for a in negative]
        tuple_of = _getter([plan.slots[vn] for vn in agg.tuple_vars])
        return plan, negative, tuple_of, _term_fn(agg.guard, plan.slots)

    def _eval(self, agg: Aggregate, names: tuple, values: tuple) -> bool:
        compiled = self.plans.get((agg, names))
        if compiled is None:
            compiled = self.plans[(agg, names)] = self._compile(agg, names)
        plan, negative, tuple_of, guard = compiled
        entry = plan.entry + values
        tuples = {
            tuple_of(b)
            for b in _matches(plan, self.store, entry)
            if not any((pred, args_of(b)) in self.store.keys for pred, args_of in negative)
        }
        value = self._aggregate_value(agg.func, tuples)
        if value is None:
            return False
        return _compare(agg.guard_op, value, guard(entry))

    @staticmethod
    def _aggregate_value(func: str, tuples: set[tuple]):
        if func == "count":
            return len(tuples)
        firsts = []
        for tup in tuples:
            if not tup or not isinstance(tup[0], int):
                raise UnsupportedAggregateError(
                    f"#{func} needs integer first components, got {tup!r}"
                )
            firsts.append(tup[0])
        if func == "sum":
            return sum(firsts)
        if not firsts:
            return None  # empty #min/#max never satisfies a guard
        return min(firsts) if func == "min" else max(firsts)


# ------------------------------------------------------------- answer sets --

def _rule_masks(gp: GroundProgram):
    masks = []
    for r in gp.rules:
        h = p = g = 0
        for i in r.head:
            h |= 1 << i
        for i in r.pos:
            p |= 1 << i
        for i in r.neg:
            g |= 1 << i
        masks.append((h, p, g))
    return masks


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


def _supported_model(mask_rules, m: int, supported: int = 0) -> bool:
    """One pass over the rules: m is a model, and each atom of m is the only
    true head atom of some rule whose body m satisfies, or is in
    `supported` already."""
    missing = ~m
    for h, p, g in mask_rules:
        if not (g & m) and not (p & missing):
            live = h & m
            if not live:
                return False
            if not (live & (live - 1)):
                supported |= live
    return not (m & ~supported)


def _minimal_below(mask_rules, m: int, ordered: bool, lo: int = 0) -> bool:
    """True iff no proper subset of m models the reduct w.r.t. m. Branches
    over disjunctive heads restricted below m, depth first on an explicit
    stack, from `lo`, a set every model of the reduct below m contains;
    every minimal model of the restricted positive program appears as a
    leaf."""
    red = []
    for h, p, g in mask_rules:
        if g & m:
            continue
        if p & ~m:
            continue
        red.append((h & m, p))
    # A subsequence of ordered rules with smaller heads is still ordered.
    units = [(h, p, 0) for h, p in red if h and (h & (h - 1)) == 0]
    seen: set[int] = set()
    stack = [lo]
    while stack:
        n = _horn_closure(units, ordered, stack.pop())
        if n in seen:
            continue
        seen.add(n)
        for h, p in red:
            if (p & ~n) == 0 and (h & n) == 0:
                children = []
                rest = h
                while rest:
                    low = rest & -rest
                    rest &= rest - 1
                    children.append(n | low)
                stack.extend(reversed(children))
                break
        else:
            if n != m:
                return False
    return True


def _propagate(mask_rules, ordered: bool, universe: int, lo: int, t: int, f: int,
               negs: int, close: bool = True, *, _search: bool = True):
    """Extend the assignment (t, f) to its fixpoint, or None on a conflict:
    forward steps, and in the search backward and support steps for the
    atoms of t outside `lo`, a set of atoms every upper bound contains. An
    atom no rule can support is a conflict. The bound's closure runs when
    `close` is set and after a round that makes an atom false (it lies
    inside the bound) or makes true an atom of `negs`, the atoms of the
    rules' negative bodies; no other change can shrink the bound."""
    while True:
        if close:
            hi = _horn_closure(mask_rules, ordered, lo, t, f)
            if t & ~hi:
                return None
            f |= universe & ~hi
        t_in, f_in = t, f
        need = t & ~lo if _search else 0
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
            body = p & open_t | g & open_f  # the undecided body literals
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
                if _search and not body & (body - 1):
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
        close = f != f_in or t & ~t_in & negs


def _root_residual(mask_rules, ordered: bool, universe: int):
    """Propagate once at the root, with no decision made and forward only.
    None on a conflict, else (t0, f0, rest): the root assignment and, in
    their order, the rules it leaves open. A rule is dropped when its body
    can never hold (a positive atom in f0 or a negative one in t0) or when
    all its atoms are assigned, so that its body holds and a head atom is in
    t0. Each atom of t0 is the only true head atom, at every leaf, of the
    rule that derived it, which is dropped: t0 is supported. That holds
    only for atoms the forward step derives, which is why the backward and
    support steps wait for the search."""
    negs = 0
    for _, _, g in mask_rules:
        negs |= g
    root = _propagate(mask_rules, ordered, universe, 0, 0, 0, negs, _search=False)
    if root is None:
        return None
    t0, f0 = root
    unassigned = universe & ~(t0 | f0)
    rest = [
        (h, p, g)
        for h, p, g in mask_rules
        if (h | p | g) & unassigned and not (p & f0 or g & t0)
    ]
    return t0, f0, rest


def _enumerate_answer_sets(gp: GroundProgram, first_only: bool):
    mask_rules = _rule_masks(gp)
    ordered = _is_ordered(mask_rules)
    universe = (1 << len(gp.atoms)) - 1
    root = _root_residual(mask_rules, ordered, universe)
    if root is None:
        return []
    # Every atom of t0 is derived without a decision, so it stays in every
    # upper bound below the root and in every model of a leaf's reduct.
    t0, f0, rest = root
    # Atoms that can never be true are in f0, so they are never open.
    decided_mask = negs = 0
    for h, _, g in mask_rules:
        decided_mask |= g
        if h & (h - 1):
            decided_mask |= h
    for _, _, g in rest:
        negs |= g

    # Depth first over the decision atoms in index order, true branch first.
    # An entry's flag says whether its bound needs a new closure: not at the
    # root, whose bound f0 holds, nor after making true an atom of no
    # negative body.
    results: list[int] = []
    stack = [(t0, f0, False)]
    while stack:
        t, f, close = stack.pop()
        state = _propagate(rest, ordered, universe, t0, t, f, negs, close)
        if state is None:
            continue
        t, f = state
        open_bits = decided_mask & ~(t | f)
        if open_bits:
            bit = open_bits & -open_bits
            stack.append((t, f | bit, True))
            stack.append((t | bit, f, bit & negs != 0))
        elif _supported_model(rest, t, t0) and _minimal_below(rest, t, ordered, t0):
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
    mask_rules = _rule_masks(gp)
    out: set[Interpretation] = set()
    for size in range(n + 1):
        for combo in combinations(range(n), size):
            m = 0
            for i in combo:
                m |= 1 << i
            if not _is_model(mask_rules, m):
                continue
            red = [(h, p) for h, p, g in mask_rules if (g & m) == 0]
            minimal = True
            for sub_size in range(size):
                for sub in combinations(combo, sub_size):
                    nmask = 0
                    for i in sub:
                        nmask |= 1 << i
                    if _positive_model(red, nmask):
                        minimal = False
                        break
                if not minimal:
                    break
            if minimal:
                out.add(Interpretation(frozenset(combo)))
    return out


def _positive_model(red, m: int) -> bool:
    for h, p in red:
        if (p & ~m) == 0 and (h & m) == 0:
            return False
    return True


def _bits(mask: int):
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


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

def solve_coloring(g: InputGraph, n_colors: int = 3, max_vertices: int = 16):
    """Proper coloring by backtracking, or None. Colors are 0..n_colors-1."""
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
        for color in range(n_colors):
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
