"""Rule decomposition: split a large rule into small equivalent rules along
a tree decomposition of its Gaifman graph, plus the arithmetic and
aggregate extensions, and a program-level driver that splits a rule only
where the split's join work, estimated from the facts, is the smaller.

Fresh predicates are `temp_<rule>_<node>` and `dom_<rule>_<var>`; input
programs using these prefixes are rejected unless renamed first.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    InternalError,
    ReservedPrefixCollisionError,
    UncoveredAtomError,
    UnsecurableVariableError,
)
from .syntax import (
    Aggregate,
    Arith,
    Atom,
    Comparison,
    Constant,
    Integer,
    Literal,
    Program,
    Rule,
    Variable,
    binding_order,
    is_safe,
    join_order,
    term_variables,
    variables_in_order,
    variables_of,
)
from .treedecomp import (
    TreeDecomposition,
    bag_tree,
    eliminate,
    gaifman,
    root_at_head,
    validate_td,
)

RESERVED_PREFIXES = ("temp_", "dom_")
ESTIMATE_SATURATED = 2**63 - 1


class FreshNamer:
    """Fresh names scoped to one source rule (or one aggregate part)."""

    def __init__(self, tag: str):
        self.tag = tag

    def temp(self, node_position: int) -> str:
        return f"temp_{self.tag}_{node_position}"

    def dom(self, var: str) -> str:
        return f"dom_{self.tag}_{var}"

    def aggregate_part(self, agg_index: int) -> "FreshNamer":
        return FreshNamer(f"{self.tag}_agg{agg_index}")


@dataclass
class RuleStats:
    """One source rule: its variables, the width of its decomposition, the
    rules emitted for it, and the estimated ground instances of the rule
    (`est_before`) and of the emitted rules (`est_after`)."""

    index: int
    vars: int
    width: int
    emitted: int
    est_before: int
    est_after: int
    decomposed: bool


@dataclass
class StatsReport:
    rules: list[RuleStats] = field(default_factory=list)

    def render(self) -> str:
        lines = [
            f"rule {s.index}: vars={s.vars} width={s.width} emitted={s.emitted}"
            f" est_before={s.est_before} est_after={s.est_after}"
            for s in self.rules
        ]
        return "\n".join(lines) + ("\n" if lines else "")


def grounding_estimate(rule: Rule, domain_size: int) -> int:
    """Worst-case ground instances: domain size to the power of the number
    of distinct variables. Values beyond 63 bits saturate."""
    if domain_size < 0:
        raise ValueError("domain size must be non-negative")
    count = len(variables_of(rule))
    value = domain_size**count
    return min(value, ESTIMATE_SATURATED)


# --------------------------------------------------------------- estimates --

_ESTIMATE_CAP = float(ESTIMATE_SATURATED)

# The cost of one more rule, in partial bindings: compiling its join plan,
# building its indexes and grounding and solving over the atoms it adds.
# On the seed-17 shift benchmark programs a least-squares fit of
# ground-plus-solve time put one emitted rule at 60 to 80 bindings.
RULE_COST = 70.0


class _Size:
    """Estimated atoms of one predicate and distinct values per argument.
    An argument's distinct values are its constants plus the largest spread
    a rule gives it, at most the atoms. While only facts define the
    predicate, `rows` holds their argument tuples."""

    __slots__ = ("atoms", "distinct", "constants", "spreads", "rows", "_keys")

    def __init__(self, arity: int, rows=None):
        self.rows = rows
        self._keys: dict[tuple, float] = {}
        self.constants = [set() for _ in range(arity)]
        self.spreads = [0.0] * arity
        if rows is None:
            self.atoms = 0.0
            self.distinct = [0.0] * arity
        else:
            self.atoms = float(len(rows))
            for row in rows:
                for column, value in zip(self.constants, row):
                    column.add(value)
            self.distinct = [float(len(c)) for c in self.constants]

    def key_count(self, positions: tuple) -> float:
        """Distinct value tuples of the facts at `positions`."""
        count = self._keys.get(positions)
        if count is None:
            count = self._keys[positions] = float(
                len({tuple(row[p] for p in positions) for row in self.rows})
            )
        return count

    def add(self, count: float, args, spreads) -> None:
        """Add `count` derived atoms with head arguments `args`, each
        non-constant argument taking `spreads` distinct values."""
        self.rows = None
        self.atoms = min(self.atoms + count, _ESTIMATE_CAP)
        for pos, arg in enumerate(args):
            if isinstance(arg, (Constant, Integer)):
                self.constants[pos].add(arg)
            else:
                self.spreads[pos] = max(self.spreads[pos], spreads[pos])
        self.distinct = [
            min(self.atoms, len(c) + s) for c, s in zip(self.constants, self.spreads)
        ]


def _fact_sizes(facts) -> dict[str, _Size]:
    rows: dict[str, set] = {}
    for f in facts:
        rows.setdefault(f.pred, set()).add(f.args)
    return {pred: _Size(len(next(iter(r))), r) for pred, r in rows.items()}


def _distinct(term, values: dict[str, float], rows: float) -> float:
    """Estimated distinct values of a term over `rows` bindings."""
    if isinstance(term, Variable):
        return min(values[term.name], rows)
    if isinstance(term, Arith):
        product = 1.0
        for name in term_variables(term):
            product *= values[name]
        return min(product, rows)
    return 1.0


def _join_estimate(rule: Rule, sizes) -> tuple[float, float, dict[str, float]]:
    """Estimated join work of grounding `rule`, its matches, and the
    distinct values of each variable. Body atoms are probed in the
    grounder's join order (`syntax.join_order`), each comparison applied
    once its variables are bound. A probe of a predicate defined by facts
    alone multiplies the bindings by its atoms over the distinct values of
    its bound arguments taken together. Otherwise each bound argument
    divides by the larger of its two value counts, System R's
    |R join S| = |R| |S| / max(V(R,a), V(S,a)) (Selinger et al., SIGMOD
    1979). An equality keeps 1/max of its sides' values and an order
    comparison a third. The work is the sum of the bindings left after
    each probe."""
    atoms = [l.atom for l in rule.pos_body]
    values: dict[str, float] = {}
    rows = 1.0
    work = 0.0
    pending: list = list(rule.arith)  # Comparison, or (term, values) deferred
    fresh: list[str] = []

    def settle():
        nonlocal rows
        for item in binding_order(pending, values):
            if type(item) is tuple:
                term, spread = item
                rows /= max(_distinct(term, values, rows), spread, 1.0)
            elif item.is_binding_equation() and item.left.name not in values:
                values[item.left.name] = max(_distinct(item.right, values, rows), 1.0)
                fresh.append(item.left.name)
            elif item.op == "=":
                rows /= max(
                    _distinct(item.left, values, rows),
                    _distinct(item.right, values, rows),
                    1.0,
                )
            elif item.op != "!=":
                rows /= 3

    if pending:
        settle()
    for idx in join_order(atoms, values, fresh):
        a = atoms[idx]
        size = sizes.get(a.pred)
        if size is None or not size.atoms:
            rows = 0.0
            break
        before = rows if rows > 1.0 else 1.0
        keyed: list[int] = []  # positions bound before the probe
        divisor = 1.0  # System R, over the keyed positions
        repeats = 1.0  # variables repeated within the atom
        new: dict[str, float] = {}
        for pos, arg in enumerate(a.args):
            spread = size.distinct[pos]
            kind = type(arg)
            if kind is Variable:
                name = arg.name
                if name in values:
                    known = values[name]
                    if known > before:
                        known = before
                    keyed.append(pos)
                    divisor *= max(known, spread, 1.0)
                    values[name] = known if known < spread else spread
                elif name in new:
                    repeats *= max(new[name], spread, 1.0)
                    new[name] = min(new[name], spread)
                else:
                    new[name] = spread
                    fresh.append(name)
            elif kind is Arith:
                if all(vn in values for vn in term_variables(arg)):
                    keyed.append(pos)
                    divisor *= max(_distinct(arg, values, before), spread, 1.0)
                else:
                    pending.append((arg, spread))
            else:
                keyed.append(pos)
                if spread > 1.0:
                    divisor *= spread
        if size.rows is not None and keyed:
            divisor = size.key_count(tuple(keyed))
        rows *= size.atoms / (divisor * repeats)
        if rows > _ESTIMATE_CAP:
            rows = _ESTIMATE_CAP
        values.update(new)
        if pending:
            settle()
        work += rows
    return min(work, _ESTIMATE_CAP), rows, values


def _add_heads(heads, rows: float, values: dict[str, float], sizes) -> None:
    """Add the head atoms of `rows` estimated matches to `sizes`."""
    if not rows:
        return
    for h in heads:
        spreads = [_distinct(arg, values, rows) for arg in h.args]
        product = 1.0
        for spread in spreads:
            product *= spread
        size = sizes.get(h.pred)
        if size is None:
            size = sizes[h.pred] = _Size(len(h.args))
        size.add(min(rows, product), h.args, spreads)


def _pieces_estimate(pieces: list[Rule], sizes) -> tuple[float, float]:
    """Join work and matches of a decomposition's rules, estimated in their
    emission order. Every piece but the last (the root, which keeps the
    source head) defines a fresh predicate, whose sizes are added."""
    work = rows_total = 0.0
    for piece in pieces:
        w, rows, values = _join_estimate(piece, sizes)
        work += w
        rows_total += rows
        if piece is not pieces[-1]:
            _add_heads(piece.head, rows, values, sizes)
    return work, rows_total


def _count(estimate: float) -> int:
    return min(round(estimate), ESTIMATE_SATURATED)


def synthesize_dom_rules(rule: Rule, needed_vars, namer: FreshNamer) -> dict[str, Rule]:
    """Domain-definition rules for the given variables, read off one
    `binding_order` sweep over the rule: the derivation `is_safe` proves.
    A variable that is a whole argument of a positive atom takes the first
    such atom. Any other takes one of its binding equations `X = phi`:
    among those whose phi is bound when the sweep binds X, the one with the
    fewest variables, ties to the first. A worklist secures what the chosen
    elements read: phi's variables, and the variables that occur only
    inside the chosen atom's arithmetic arguments. Each body keeps the
    rule's order."""
    elements = rule.body_elements()
    # Variable -> index in `elements` of what binds it, and what that reads.
    binder: dict[str, tuple[int, set[str]]] = {}
    for index, lit in enumerate(rule.pos_body):
        whole = {arg.name for arg in lit.atom.args if type(arg) is Variable}
        reads = variables_of(lit) - whole
        for name in whole:
            binder.setdefault(name, (index, reads))
    equations: dict[str, list] = {}  # X -> (count, index, variables) of each phi
    for index, comp in enumerate(elements):
        if type(comp) is Comparison and comp.is_binding_equation():
            reads = variables_of(comp.right)
            equations.setdefault(comp.left.name, []).append((len(reads), index, reads))
    for comp in binding_order(list(rule.arith), binder):
        if comp.is_binding_equation() and comp.left.name not in binder:
            ready = (e for e in equations[comp.left.name] if e[2] <= binder.keys())
            binder[comp.left.name] = min(ready)[1:]

    out: dict[str, Rule] = {}
    for target in sorted(needed_vars):
        chosen: set[int] = set()
        seen = {target}
        todo = [target]
        while todo:
            name = todo.pop()
            if name not in binder:
                raise UnsecurableVariableError(
                    f"no positive atom or arithmetic chain grounds {name}"
                )
            index, reads = binder[name]
            chosen.add(index)
            todo.extend(reads - seen)
            seen |= reads
        body = [elements[index] for index in sorted(chosen)]
        out[target] = Rule(
            head=(Atom(namer.dom(target), (Variable(target),)),),
            pos_body=tuple(e for e in body if type(e) is Literal),
            arith=tuple(e for e in body if type(e) is Comparison),
        )
    return out


def _with_dom_atoms(rule: Rule, namer: FreshNamer) -> tuple[Rule, set[str]]:
    """`rule` with `dom_x(x)` appended to its positive body for each
    variable x that `is_safe` reports unsafe, and those variables."""
    _, unsafe = is_safe(rule)
    if not unsafe:
        return rule, unsafe
    dom_lits = tuple(Literal(Atom(namer.dom(x), (Variable(x),))) for x in sorted(unsafe))
    return (
        Rule(rule.head, rule.pos_body + dom_lits, rule.neg_body, rule.arith, rule.aggregates),
        unsafe,
    )


def decompose_rule(rule: Rule, td: TreeDecomposition, namer: FreshNamer) -> list[Rule]:
    """Bottom-up per decomposition node: one rule deriving the node's
    interface tuple from the body atoms assigned to it, its children's
    interface atoms, and domain atoms for otherwise unsafe variables. The
    root keeps the original head. A single-bag decomposition means the rule
    is returned unchanged."""
    if len(td.bags) == 1:
        return [rule]

    parent, children, pre = td.walk()
    position = {node: i for i, node in enumerate(pre)}
    # The postorder, children in index order: the preorder that visits
    # children in reverse, reversed.
    post: list[int] = []
    stack = [td.root]
    while stack:
        node = stack.pop()
        post.append(node)
        stack.extend(children[node])
    post.reverse()

    assigned: dict[int, list] = {node: [] for node in range(len(td.bags))}
    ordered_vars: dict[int, list[str]] = {}  # by id of the element
    nodes_of: dict[str, list[int]] = {}  # variable -> its nodes, in postorder
    for node in post:
        for name in td.bags[node]:
            nodes_of.setdefault(name, []).append(node)
    for element in rule.body_elements():
        names = ordered_vars[id(element)] = variables_in_order(element)
        element_vars = set(names)
        # The first covering node in postorder holds each of the variables.
        candidates = min((nodes_of.get(x, ()) for x in names), key=len, default=post)
        for node in candidates:
            if element_vars <= td.bags[node]:
                assigned[node].append(element)
                break
        else:
            raise UncoveredAtomError(f"no bag covers {element}")

    interface: dict[int, tuple[str, ...]] = {}
    node_rules: dict[int, Rule] = {}
    dom_vars: set[str] = set()

    for node in post:
        pos_lits = [e for e in assigned[node] if isinstance(e, Literal) and not e.negated]
        neg_lits = [e for e in assigned[node] if isinstance(e, Literal) and e.negated]
        ariths = [e for e in assigned[node] if isinstance(e, Comparison)]
        aggs = [e for e in assigned[node] if isinstance(e, Aggregate)]
        child_atoms = [
            Atom(namer.temp(position[m]), tuple(Variable(x) for x in interface[m]))
            for m in children[node]
        ]

        if parent[node] >= 0:
            shared = td.bags[node] & td.bags[parent[node]]
            # The shared variables in the order the element variables, the
            # children's interfaces and then the sorted rest name them.
            order = interface[node] = tuple(
                name
                for name in dict.fromkeys(
                    [x for element in assigned[node] for x in ordered_vars[id(element)]]
                    + [x for m in children[node] for x in interface[m]]
                    + sorted(shared)
                )
                if name in shared
            )
            head = (Atom(namer.temp(position[node]), tuple(Variable(x) for x in order)),)
        else:
            head = rule.head

        body_pos = tuple(pos_lits) + tuple(Literal(a) for a in child_atoms)
        # Dom atoms for every variable the grounder could not bind here:
        # negative-literal variables, arithmetic inputs, and variables that
        # only occur inside arithmetic arguments of positive atoms.
        draft, loose = _with_dom_atoms(
            Rule(head, body_pos, tuple(neg_lits), tuple(ariths), tuple(aggs)), namer
        )
        dom_vars.update(loose)
        node_rules[node] = draft

    emitted = list(synthesize_dom_rules(rule, dom_vars, namer).values())
    return emitted + [node_rules[node] for node in post]


def split_aggregate(rule: Rule, agg_index: int, namer: FreshNamer) -> tuple[Rule, list[Rule]]:
    """Shrink one aggregate to the condition literals connected to the rest
    of the rule; the disconnected part moves into a fresh helper rule that
    feeds a linking atom back into the aggregate. Returns the modified rule
    and the helper rules (helper first, then its domain definitions)."""
    agg = rule.aggregates[agg_index]
    tuple_vars = set(agg.tuple_vars)

    others = rule.aggregates[:agg_index] + rule.aggregates[agg_index + 1:]
    outside = variables_of(
        (rule.head, rule.pos_body, rule.neg_body, rule.arith, others, agg.guard)
    )

    marked = tuple_vars | outside
    connected = [b for b in agg.condition if variables_of(b) & marked]
    rest = [b for b in agg.condition if not (variables_of(b) & marked)]
    if not rest:
        return rule, []

    part_namer = namer.aggregate_part(agg_index)
    connected_vars = variables_of(connected)
    link_vars = [name for name in variables_in_order(rest) if name in connected_vars]
    link_pred = f"temp_{part_namer.tag}"
    link_atom = Atom(link_pred, tuple(Variable(x) for x in link_vars))

    new_agg = Aggregate(
        agg.func,
        agg.tuple_vars,
        tuple(connected) + (Literal(link_atom),),
        agg.guard_op,
        agg.guard,
    )
    new_aggs = rule.aggregates[:agg_index] + (new_agg,) + rule.aggregates[agg_index + 1:]
    new_rule = Rule(rule.head, rule.pos_body, rule.neg_body, rule.arith, new_aggs)

    helper, unsafe = _with_dom_atoms(
        Rule(
            head=(link_atom,),
            pos_body=tuple(b for b in rest if not b.negated),
            neg_body=tuple(b for b in rest if b.negated),
        ),
        part_namer,
    )
    extras: list[Rule] = []
    if unsafe:
        # Secure from the aggregate's own positive condition first, then the
        # rule's positive body.
        securing = Rule(
            head=(),
            pos_body=tuple(b for b in agg.condition if not b.negated) + rule.pos_body,
            arith=rule.arith,
        )
        extras = list(synthesize_dom_rules(securing, unsafe, part_namer).values())
    return new_rule, [helper] + extras


def rename_reserved(program: Program) -> Program:
    """Injective rename of predicates that collide with reserved prefixes."""
    used = set(program.predicates())
    mapping: dict[str, str] = {}
    for pred in sorted(used):
        if pred.startswith(RESERVED_PREFIXES):
            candidate = "p_" + pred
            while candidate in used or candidate.startswith(RESERVED_PREFIXES):
                candidate = "p_" + candidate
            mapping[pred] = candidate
            used.add(candidate)
    if not mapping:
        return program

    def ratom(a: Atom) -> Atom:
        return Atom(mapping.get(a.pred, a.pred), a.args)

    def rlit(l: Literal) -> Literal:
        return Literal(ratom(l.atom), l.negated)

    def rrule(r: Rule) -> Rule:
        return Rule(
            tuple(ratom(a) for a in r.head),
            tuple(rlit(l) for l in r.pos_body),
            tuple(rlit(l) for l in r.neg_body),
            r.arith,
            tuple(
                Aggregate(g.func, g.tuple_vars, tuple(rlit(l) for l in g.condition), g.guard_op, g.guard)
                for g in r.aggregates
            ),
        )

    return Program(
        [rrule(r) for r in program.rules],
        [ratom(f) for f in program.facts],
    )


def decompose_program(program: Program, threshold: bool = True) -> tuple[Program, StatsReport]:
    """Per rule: normalize aggregates and eliminate each part's Gaifman
    graph along the min-fill order, which gives its width. A bag tree is
    built, and validated, only when the largest bag is smaller than the
    part: a one-bag tree cannot split. One cost test decides a split: it replaces
    the part when its join work plus RULE_COST for each rule it adds is
    below the whole part's join work (see `_join_estimate`), or when both
    join works are zero, as when no body predicate has facts or
    derivations; without the threshold it always does. The same test runs
    first on lower bounds, no work and one added rule before the tree is
    built and a rule per extra bag before the split is, so neither is built
    where it cannot pay. Rules are estimated in `Program.components`, the
    grounder's order, so derived predicates have sizes when they are read;
    the output keeps the input order. Facts pass through. The input's
    rules are safe, since `Program` admits no other; the reserved prefixes
    are checked here. An aggregate is kept whole when the part split off it
    would negate a predicate outside `Program.fact_only`, as the grounder
    reads aggregates only over rules that negate none. When every rule
    comes back as itself, the input is returned."""
    clashing = sorted(
        p for p in program.predicates() if p.startswith(RESERVED_PREFIXES)
    )
    if clashing:
        raise ReservedPrefixCollisionError(
            f"program uses reserved predicate prefixes: {', '.join(clashing)}"
        )

    sizes = _fact_sizes(program.facts)
    fact_only = program.fact_only() if any(r.aggregates for r in program.rules) else None
    decided: list = [None] * len(program.rules)
    for members, recursive in program.components:
        if recursive:
            # One round over the component first, so that its rules see
            # sizes for the predicates they derive for each other.
            for index in members:
                rule = program.rules[index]
                _, rows, values = _join_estimate(rule, sizes)
                _add_heads(rule.head, rows, values, sizes)
        for index in members:
            decided[index] = _decompose_one(
                index, program.rules[index], threshold, sizes, not recursive, fact_only
            )
    out_rules: list[Rule] = []
    report = StatsReport()
    for emitted, stats in decided:
        out_rules.extend(emitted)
        report.rules.append(stats)
    if len(out_rules) == len(program.rules) and all(
        new is old for new, old in zip(out_rules, program.rules)
    ):
        return program, report
    return Program(out_rules, program.facts), report


def _decompose_one(index: int, original: Rule, threshold: bool, sizes, add_heads: bool, fact_only):
    """The rules emitted for one source rule, and its statistics. With
    `add_heads`, adds the estimated sizes of its head predicates to
    `sizes`. An aggregate's helper may negate only `fact_only` predicates."""
    namer = FreshNamer(str(index))
    current = original
    helper_parts: list[tuple[Rule, FreshNamer]] = []
    for agg_index in range(len(original.aggregates)):
        split, helpers = split_aggregate(current, agg_index, namer)
        if helpers and any(l.atom.pred not in fact_only for l in helpers[0].neg_body):
            continue
        current = split
        for pos_h, helper in enumerate(helpers):
            # Every helper, the domain definitions included, becomes a
            # part of its own that is estimated and may be split.
            tag = namer.aggregate_part(agg_index)
            helper_parts.append((helper, FreshNamer(f"{tag.tag}_{pos_h}")))
    parts = [(current, namer), *helper_parts]

    def pays(split_work: float, added_rules: int) -> bool:
        """The one cost test: a split replaces the part when its join work
        plus RULE_COST per added rule is below the part's join work, or
        both works are zero, and always without the threshold."""
        return (
            not threshold
            or split_work == work == 0
            or split_work + RULE_COST * added_rules < work
        )

    emitted: list[Rule] = []
    width = -1
    decomposed = False
    est_before = est_after = 0.0
    for part, part_namer in parts:
        nvars = len(variables_of(part))
        work, rows, values = _join_estimate(part, sizes)
        est_before += rows
        pieces = [part]
        piece_rows = rows
        if nvars > 1:  # one bag holds one variable: never split
            graph = gaifman(part)
            order, bags = eliminate(graph)
            largest = max(map(len, bags))
            width = max(width, largest - 1)
            # A tree splits only if it has two bags, so a bag smaller than
            # the part, and a split adds a rule per extra bag at least: the
            # cost test on these lower bounds skips what cannot pay.
            if largest < nvars and pays(0, 1):
                td = bag_tree(order, bags)
                valid, why = validate_td(graph, td)
                if not valid:
                    raise InternalError(f"invalid decomposition produced: {why}")
                if pays(0, len(td.bags) - 1):
                    split = decompose_rule(
                        part, root_at_head(td, variables_of(part.head)), part_namer
                    )
                    split_work, split_rows = _pieces_estimate(split, sizes)
                    if pays(split_work, len(split) - 1):
                        pieces, piece_rows = split, split_rows
                        decomposed = True
        else:
            width = max(width, nvars - 1)
        if add_heads:
            _add_heads(part.head, rows, values, sizes)
        est_after += piece_rows
        emitted.extend(pieces)

    stats = RuleStats(
        index,
        len(variables_of(original)) if original.aggregates else nvars,
        width,
        len(emitted),
        _count(est_before),
        _count(est_after),
        decomposed,
    )
    return emitted, stats
