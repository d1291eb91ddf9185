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
the records once the closure is complete. Aggregate conditions run on the
same plans, over the deterministic sub-program's least model.

The enumerator decides truth only for atoms that can actually vary (atoms
in negative bodies or disjunctive heads), propagates lower/upper bounds
between decisions, and verifies subset-minimality against the reduct. A
literal subset-enumeration variant is kept for cross-checking; both return
exactly the answer sets of the textbook reduct semantics.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from operator import itemgetter

from .errors import (
    GroundingLimitError,
    SafetyError,
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
    _atom_vars,
    _scc_index,
    eval_term,
    ground_term,
    is_safe,
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
    args = []
    for arg in a.args:
        if isinstance(arg, Constant):
            args.append(arg.name)
        elif isinstance(arg, Integer):
            args.append(arg.value)
        else:
            raise ValueError(f"atom {a} is not ground")
    return (a.pred, tuple(args))


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
        return lambda t: (t[only],)
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

    __slots__ = ("entry", "consts", "slots", "start", "probes", "atom_slots", "complete")

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
            # Same order as evaluating at match time: sweep until no
            # comparison becomes decidable and no equation can bind.
            progress = bool(pending)
            while progress:
                progress = False
                for item in pending[:]:
                    if isinstance(item, Comparison):
                        if all(vn in slots for vn in _comparison_vars(item)):
                            ops.append(_check_op(item, slots))
                        elif (
                            item.is_binding_equation()
                            and item.left.name not in slots
                            and all(vn in slots for vn in term_variables(item.right))
                        ):
                            ops.append(_assign_op(_term_fn(item.right, slots)))
                            fill(item.left.name)
                        else:
                            continue
                    else:
                        term, slot = item
                        if not all(vn in slots for vn in term_variables(term)):
                            continue
                        ops.append(_equal_op(_term_fn(term, slots), slot))
                    pending.remove(item)
                    progress = True

        ops: list = []
        self.start = ops
        propagate(ops)
        self.probes = []
        self.atom_slots: list = [None] * len(atoms)
        remaining = list(range(len(atoms)))
        score = [_bound_score(a, slots) for a in atoms]
        watch: dict[str, list[int]] = {}
        for i, a in enumerate(atoms):
            for vn in _atom_vars(a):
                watch.setdefault(vn, []).append(i)
        while remaining:
            for vn in fresh:
                for i in watch.get(vn, ()):
                    score[i] = _bound_score(atoms[i], slots)
            fresh.clear()
            # The atom with most bound arguments, ties to the earlier one.
            idx = max(remaining, key=score.__getitem__)
            remaining.remove(idx)
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
            propagate(ops)
            self.probes.append(
                (a.pred, tuple(positions), len(a.args), _key_getter(key_slots), ops)
            )
            self.atom_slots[idx] = tuple(own)
        self.complete = not pending
        if pending:
            # Left-over comparisons with unbound variables: the rule was not
            # groundable, which safe inputs never produce.
            unbound = {
                vn
                for item in pending
                for vn in (
                    _comparison_vars(item)
                    if isinstance(item, Comparison)
                    else term_variables(item[0])
                )
                if vn not in slots
            }
            ops.append(_unbound_op(unbound))


def _ground_value(arg):
    return arg.name if isinstance(arg, Constant) else arg.value


def _comparison_vars(comp: Comparison):
    yield from term_variables(comp.left)
    yield from term_variables(comp.right)


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
    where = {vn: slots[vn] for vn in term_variables(term)}
    return lambda b: eval_term(term, {vn: b[slot] for vn, slot in where.items()})


def _atom_fn(a: Atom, plan: _Plan):
    """The ground key of an atom over a binding tuple; the plan's binding
    carries the atom's constants."""
    pred = a.pred
    if not any(isinstance(arg, Arith) for arg in a.args):
        args_of = _getter([
            plan.slots[arg.name] if isinstance(arg, Variable) else plan.consts[_ground_value(arg)]
            for arg in a.args
        ])
        return lambda b: (pred, args_of(b))
    fns = [_term_fn(arg, plan.slots) for arg in a.args]
    return lambda b: (pred, tuple(fn(b) for fn in fns))


# Operations are (is_filter, fn): a filter keeps the bindings fn accepts,
# otherwise fn maps a binding to its extension.

def _check_op(comp: Comparison, slots):
    op, left, right = comp.op, _term_fn(comp.left, slots), _term_fn(comp.right, slots)
    return (True, lambda b: _compare(op, left(b), right(b)))


def _assign_op(value):
    return (False, lambda b: b + (value(b),))


def _equal_op(value, slot: int):
    return (True, lambda b: _compare("=", value(b), b[slot]))


def _unbound_op(names: set[str]):
    def fail(_):
        raise SafetyError(names, "ungroundable comparison")

    return (False, fail)


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
    the ground keys of its head, positive and negative atoms over a
    binding. `values` reads the variables in name order."""

    __slots__ = ("rule", "plan", "heads", "pos", "neg", "names", "values")

    def __init__(self, rule: Rule):
        atoms = [l.atom for l in rule.pos_body]
        negated = [l.atom for l in rule.neg_body]
        self.rule = rule
        self.plan = plan = _Plan(atoms, rule.arith, also=(*rule.head, *negated))
        self.names = tuple(sorted(plan.slots))
        self.values = _getter([plan.slots[name] for name in self.names])
        self.pos = tuple(
            (a.pred, _getter(slots)) for a, slots in zip(atoms, plan.atom_slots)
        )
        if plan.complete:
            self.heads = tuple(_atom_fn(a, plan) for a in rule.head)
            self.neg = tuple(_atom_fn(a, plan) for a in negated)
        else:  # no binding ever gets past the plan
            self.heads = self.neg = ()


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
                for b in _matches(unit.plan, store, unit.plan.entry):
                    spent += 1
                    if limit is not None and spent > limit:
                        raise GroundingLimitError(
                            f"grounding exceeds {limit} rule instances: facts and join"
                            f" matches reached {spent} at rule {i} `{unit.rule}`"
                            f" ({spent - own} of its matches)"
                        )
                    if keep is None or keep(unit, b):
                        kept.append(b)
                        for head in unit.heads:
                            store.add(head(b))
                if limit is not None and len(store.keys) > limit:
                    raise GroundingLimitError(
                        f"possibly-true closure exceeds {limit} atoms: {len(store.keys)}"
                        f" after rule {i} `{unit.rule}`"
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
    atoms of the closure."""
    for r in program.rules:
        ok, unsafe = is_safe(r)
        if not ok:
            raise SafetyError(unsafe, str(r))

    agg_eval = _AggregateContext(program) if any(r.aggregates for r in program.rules) else None

    store = _Store()
    fact_order: list[tuple] = []
    for f in program.facts:
        key = _atom_raw(f)
        if store.add(key):
            fact_order.append(key)
    fact_keys = set(fact_order)

    units = [_RulePlan(r) for r in program.rules]

    def keep(unit: _RulePlan, b: tuple) -> bool:
        aggregates = unit.rule.aggregates
        return not aggregates or agg_eval.all_true(aggregates, unit.names, unit.values(b))

    records = _closure(
        units, store, keep if agg_eval else None, max_ground_rules, len(fact_order)
    )

    # Emission, with negative-literal simplification against the closure.
    # Atoms are numbered in order of first use.
    number = _Numbering()
    ground_rules = [GroundRule((number[key],), (), ()) for key in fact_order]
    source_map: dict[int, int] = {}
    for src_index, (unit, matches) in enumerate(zip(units, records)):
        _sort_by_binding(matches, unit.values)
        for b in matches:
            head = [fn(b) for fn in unit.heads]
            pos_keys = [(pred, args_of(b)) for pred, args_of in unit.pos]
            neg_keys = []
            for fn in unit.neg:
                key = fn(b)
                if key in fact_keys:
                    break  # negated fact: instance can never fire
                if key in store.keys:
                    neg_keys.append(key)
                # else: atom can never be true, the literal is vacuous
            else:
                source_map[len(ground_rules)] = src_index
                ground_rules.append(
                    GroundRule(
                        number.distinct(head), number.distinct(pos_keys), number.distinct(neg_keys)
                    )
                )

    terms = {v: ground_term(v) for v in {v for _, args in number for v in args}}
    atoms = [Atom(pred, tuple(map(terms.__getitem__, args))) for pred, args in number]
    gp = GroundProgram(atoms, ground_rules)
    return GroundingResult(gp, len(source_map), len(atoms), source_map)


class _Numbering(dict):
    """Numbers keys in order of first use."""

    __slots__ = ()

    def __missing__(self, key) -> int:
        self[key] = n = len(self)
        return n

    def distinct(self, keys) -> tuple[int, ...]:
        return tuple(dict.fromkeys(map(self.__getitem__, keys)))


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
    predicates must be defined by facts or by normal, aggregate-free rules
    whose bodies stay inside the fragment (negation only over fact-defined
    predicates). Their extension is then identical in every answer set, so
    aggregates can be decided at grounding time."""

    def __init__(self, program: Program):
        defined_by_rules: dict[str, list[Rule]] = {}
        for r in program.rules:
            for a in r.head:
                defined_by_rules.setdefault(a.pred, []).append(r)
        fact_preds = {f.pred for f in program.facts}
        fact_only = {
            p for p in fact_preds if p not in defined_by_rules
        }

        det = set(fact_only) | {
            p for p in program.predicates() if p not in defined_by_rules and p not in fact_preds
        }
        changed = True
        while changed:
            changed = False
            for pred, defs in defined_by_rules.items():
                if pred in det:
                    continue
                ok = True
                for r in defs:
                    if len(r.head) != 1 or r.aggregates:
                        ok = False
                        break
                    if any(l.atom.pred not in det for l in r.pos_body):
                        ok = False
                        break
                    if any(l.atom.pred not in fact_only for l in r.neg_body):
                        ok = False
                        break
                if ok:
                    det.add(pred)
                    changed = True
        self.det = det

        # Least model of the deterministic rules: an instance whose negated
        # atom is a fact never fires.
        self.store = _Store()
        for f in program.facts:
            self.store.add(_atom_raw(f))
        fact_keys = set(self.store.keys)
        det_rules = [
            _RulePlan(r)
            for defs in defined_by_rules.values()
            for r in defs
            if len(r.head) == 1 and r.head[0].pred in det
        ]
        _closure(
            det_rules,
            self.store,
            lambda unit, b: not any(fn(b) in fact_keys for fn in unit.neg),
        )
        self.plans: dict[tuple, tuple] = {}

    def all_true(self, aggregates, names: tuple, values: tuple) -> bool:
        """Whether every aggregate holds with the rule variables `names`
        bound to `values`."""
        return all(self._eval(agg, names, values) for agg in aggregates)

    def _compile(self, agg: Aggregate, names: tuple):
        for lit in agg.condition:
            if lit.atom.pred not in self.det:
                raise UnsupportedAggregateError(
                    f"aggregate condition over non-deterministic predicate {lit.atom.pred}"
                )
        positive = [l.atom for l in agg.condition if not l.negated]
        cond_vars = set()
        for l in agg.condition:
            cond_vars.update(_atom_vars(l.atom))
        bound_from_pos = set(names)
        for a in positive:
            bound_from_pos.update(_atom_vars(a))
        loose = cond_vars - bound_from_pos
        if loose:
            raise UnsupportedAggregateError(
                f"aggregate variables {sorted(loose)} not bound by a positive condition literal"
            )
        negative = [l.atom for l in agg.condition if l.negated]
        plan = _Plan(positive, (), names, also=negative)
        if not plan.complete:  # no binding ever gets past the plan
            return plan, (), None, None
        negative = [_atom_fn(a, plan) for a in negative]
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
            if not any(fn(b) in self.store.keys for fn in negative)
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


# ------------------------------------------------------------------ reduct --

def reduct(gp: GroundProgram, interp: Interpretation) -> GroundProgram:
    """Gelfond-Lifschitz reduct: drop rules whose negative body meets the
    interpretation, strip negative bodies from the rest."""
    rules = [
        GroundRule(r.head, r.pos, ())
        for r in gp.rules
        if not (set(r.neg) & interp.true_atoms)
    ]
    return GroundProgram(gp.atoms, rules)


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


def _possibly_true(mask_rules) -> int:
    pt = 0
    changed = True
    while changed:
        changed = False
        for h, p, _ in mask_rules:
            if (p & ~pt) == 0 and (h & ~pt) != 0:
                pt |= h
                changed = True
    return pt


def _minimal_below(mask_rules, m: int) -> bool:
    """True iff no proper subset of m models the reduct w.r.t. m. Branches
    over disjunctive heads restricted below m; every minimal model of the
    restricted positive program appears as a leaf."""
    red = []
    for h, p, g in mask_rules:
        if g & m:
            continue
        if p & ~m:
            continue
        red.append((h & m, p))
    seen: set[int] = set()

    def dfs(n: int) -> bool:
        changed = True
        while changed:
            changed = False
            for h, p in red:
                if (p & ~n) == 0 and (h & n) == 0 and h and (h & (h - 1)) == 0:
                    n |= h
                    changed = True
        if n in seen:
            return False
        seen.add(n)
        for h, p in red:
            if (p & ~n) == 0 and (h & n) == 0:
                rest = h
                while rest:
                    low = rest & -rest
                    rest &= rest - 1
                    if dfs(n | low):
                        return True
                return False
        return n != m

    return not dfs(0)


def _enumerate_answer_sets(gp: GroundProgram, first_only: bool):
    mask_rules = _rule_masks(gp)
    n = len(gp.atoms)
    universe = (1 << n) - 1
    pt = _possibly_true(mask_rules)
    nb = 0
    dh = 0
    for h, _, g in mask_rules:
        nb |= g
        if h and (h & (h - 1)) != 0:
            dh |= h
    decision_bits = []
    decided_mask = (nb | dh) & pt
    bit = 1
    for i in range(n):
        if decided_mask & bit:
            decision_bits.append(bit)
        bit <<= 1

    def propagate(t: int, f: int):
        while True:
            hi = 0
            changed = True
            while changed:
                changed = False
                for h, p, g in mask_rules:
                    if g & t:
                        continue
                    if (p & ~hi) == 0:
                        add = h & ~f & ~hi
                        if add:
                            hi |= add
                            changed = True
            if t & ~hi:
                return None
            new_f = f | (universe & ~hi)
            new_t = t
            for h, p, g in mask_rules:
                if g & new_t:
                    continue
                if g & hi:
                    continue  # may still be dropped from the reduct
                if p & ~new_t:
                    continue
                live = h & hi
                if live == 0:
                    return None
                if live & new_t:
                    continue
                if (live & (live - 1)) == 0:
                    new_t |= live
            if new_t == t and new_f == f:
                return t, f, hi
            if new_t & new_f:
                return None
            t, f = new_t, new_f

    results: list[int] = []

    def rec(t: int, f: int):
        if first_only and results:
            return
        state = propagate(t, f)
        if state is None:
            return
        t, f, hi = state
        for bit in decision_bits:
            if not (t & bit) and not (f & bit):
                rec(t | bit, f)
                rec(t, f | bit)
                return
        m = t
        if not _is_model(mask_rules, m):
            return
        # Support: every true atom needs a surviving rule it uniquely heads.
        rest = m
        while rest:
            low = rest & -rest
            rest &= rest - 1
            if not any(
                (g & m) == 0 and (p & ~m) == 0 and (h & m) == low
                for h, p, g in mask_rules
            ):
                return
        if _minimal_below(mask_rules, m):
            results.append(m)

    rec(0, universe & ~pt)
    return results


def answer_sets(gp: GroundProgram, max_atoms: int = 24) -> set[Interpretation]:
    """All answer sets. The cap guards against accidentally huge inputs and
    can be raised explicitly."""
    if len(gp.atoms) > max_atoms:
        raise TooManyAtomsError(f"{len(gp.atoms)} atoms exceeds cap {max_atoms}")
    found = _enumerate_answer_sets(gp, first_only=False)
    return {Interpretation(frozenset(_bits(m))) for m in found}


def has_answer_set(gp: GroundProgram, max_atoms: int = 24) -> bool:
    if len(gp.atoms) > max_atoms:
        raise TooManyAtomsError(f"{len(gp.atoms)} atoms exceeds cap {max_atoms}")
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
    require_consistent: bool = False,
    max_universe: int = 12,
    max_hypotheses: int = 8,
):
    """Smallest witness E <= H (by size, then lexicographic) such that every
    answer set of the program extended with E contains all manifestations.
    With require_consistent the original extra condition AS != {} applies."""
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
            if require_consistent and not sets:
                continue
            if all(manifestations <= s.true_atoms for s in sets):
                return frozenset(combo)
    return None
