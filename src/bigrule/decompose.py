"""Rule decomposition: split a large rule into small equivalent rules along
a tree decomposition of its Gaifman graph, plus the arithmetic and
aggregate extensions and a program-level driver with a grounding-size
estimator.

Fresh predicates are `temp_<rule>_<node>` and `dom_<rule>_<var>`; input
programs using these prefixes are rejected unless renamed first.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    ReservedPrefixCollisionError,
    SafetyError,
    UncoveredAtomError,
    UnsecurableVariableError,
)
from .syntax import (
    Aggregate,
    Atom,
    Comparison,
    Literal,
    Program,
    Rule,
    Variable,
    is_safe,
    term_variables,
    variables_in_order,
    variables_of,
)
from .treedecomp import (
    TreeDecomposition,
    decompose_graph,
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
    index: int
    vars: int
    width: int
    emitted: int
    est_before: int
    est_after: int
    decomposed: bool
    max_temp_arity: int = 0


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


def synthesize_dom_rules(rule: Rule, needed_vars, namer: FreshNamer) -> dict[str, Rule]:
    """Domain-definition rules for the given variables. Prefers the
    syntactically first positive atom holding the variable in a plain
    argument position (so the projection is computable); otherwise follows
    the arithmetic closure, picking the smallest equation `X = phi` (fewest
    right-hand-side variables, then first occurrence) and securing phi's
    variables recursively."""
    rule_vars = variables_of(rule)
    out: dict[str, Rule] = {}
    for target in sorted(needed_vars):
        if target not in rule_vars:
            raise UnsecurableVariableError(f"{target} does not occur in the rule")
        atoms: list[Literal] = []
        equations: list[Comparison] = []
        selected_eq_ids: set[int] = set()
        secured: set[str] = set()

        def secure(name: str):
            if name in secured:
                return
            secured.add(name)
            for lit in rule.pos_body:
                if any(
                    isinstance(arg, Variable) and arg.name == name
                    for arg in lit.atom.args
                ):
                    if lit not in atoms:
                        atoms.append(lit)
                    return
            candidates = [
                (len(set(term_variables(comp.right))), idx, comp)
                for idx, comp in enumerate(rule.arith)
                if comp.is_binding_equation()
                and comp.left.name == name
                and idx not in selected_eq_ids
            ]
            if not candidates:
                raise UnsecurableVariableError(
                    f"no positive atom or arithmetic chain grounds {name}"
                )
            _, idx, comp = min(candidates)
            selected_eq_ids.add(idx)
            equations.append(comp)
            for inner in set(term_variables(comp.right)):
                secure(inner)

        secure(target)
        dom_rule = Rule(
            head=(Atom(namer.dom(target), (Variable(target),)),),
            pos_body=tuple(atoms),
            arith=tuple(equations),
        )
        ok, missing = is_safe(dom_rule)
        if not ok:
            raise UnsecurableVariableError(
                f"domain rule for {target} is unsafe on {sorted(missing)}"
            )
        out[target] = dom_rule
    return out


def decompose_rule(rule: Rule, td: TreeDecomposition, namer: FreshNamer) -> list[Rule]:
    """Bottom-up per decomposition node: one rule deriving the node's
    interface tuple from the body atoms assigned to it, its children's
    interface atoms, and domain atoms for otherwise unsafe variables. The
    root keeps the original head. A single-bag decomposition means the rule
    is returned unchanged."""
    if len(td.bags) == 1:
        return [rule]

    parent = td.parents()
    children = td.children()
    post = td.postorder()
    pre = td.preorder()
    position = {node: i for i, node in enumerate(pre)}

    elements = list(rule.body_elements())
    assigned: dict[int, list] = {node: [] for node in range(len(td.bags))}
    for element in elements:
        element_vars = variables_of(element)
        for node in post:
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
            order: list[str] = []
            for element in assigned[node]:
                for name in variables_in_order(element):
                    if name in shared and name not in order:
                        order.append(name)
            for m in children[node]:
                for name in interface[m]:
                    if name in shared and name not in order:
                        order.append(name)
            for name in sorted(shared):
                if name not in order:
                    order.append(name)
            interface[node] = tuple(order)
            head = (Atom(namer.temp(position[node]), tuple(Variable(x) for x in order)),)
        else:
            head = rule.head

        body_pos = tuple(pos_lits) + tuple(Literal(a) for a in child_atoms)
        draft = Rule(head, body_pos, tuple(neg_lits), tuple(ariths), tuple(aggs))
        # Dom atoms for every variable the grounder could not bind here:
        # negative-literal variables, arithmetic inputs, and variables that
        # only occur inside arithmetic arguments of positive atoms.
        ok, loose = is_safe(draft)
        if not ok:
            dom_lits = tuple(
                Literal(Atom(namer.dom(x), (Variable(x),))) for x in sorted(loose)
            )
            dom_vars.update(loose)
            draft = Rule(head, body_pos + dom_lits, tuple(neg_lits), tuple(ariths), tuple(aggs))
            ok, still = is_safe(draft)
            if not ok:
                raise UnsecurableVariableError(
                    f"node rule stays unsafe on {sorted(still)}"
                )
        node_rules[node] = draft

    dom_defs = synthesize_dom_rules(rule, dom_vars, namer)
    emitted = [dom_defs[x] for x in sorted(dom_defs)]
    emitted += [node_rules[node] for node in post]
    return emitted


def split_aggregate(rule: Rule, agg_index: int, namer: FreshNamer) -> tuple[Rule, list[Rule]]:
    """Shrink one aggregate to the condition literals connected to the rest
    of the rule; the disconnected part moves into a fresh helper rule that
    feeds a linking atom back into the aggregate. Returns the modified rule
    and the helper rules (helper first, then its domain definitions)."""
    agg = rule.aggregates[agg_index]
    tuple_vars = set(agg.tuple_vars)

    outside: set[str] = set()
    for a in rule.head:
        outside |= variables_of(a)
    for lit in (*rule.pos_body, *rule.neg_body):
        outside |= variables_of(lit)
    for comp in rule.arith:
        outside |= variables_of(comp)
    for k, other in enumerate(rule.aggregates):
        if k != agg_index:
            outside |= variables_of(other)
    outside |= set(term_variables(agg.guard))

    marked = tuple_vars | outside
    connected = [b for b in agg.condition if variables_of(b.atom) & marked]
    rest = [b for b in agg.condition if not (variables_of(b.atom) & marked)]
    if not rest:
        return rule, []

    part_namer = namer.aggregate_part(agg_index)
    connected_vars = variables_of([b.atom for b in connected])
    link_vars = [
        name for name in variables_in_order([b.atom for b in rest])
        if name in connected_vars
    ]
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

    helper = Rule(
        head=(link_atom,),
        pos_body=tuple(b for b in rest if not b.negated),
        neg_body=tuple(b for b in rest if b.negated),
    )
    ok, unsafe = is_safe(helper)
    extras: list[Rule] = []
    if not ok:
        # Secure from the aggregate's own positive condition first, then the
        # rule's positive body.
        securing = Rule(
            head=(),
            pos_body=tuple(b for b in agg.condition if not b.negated) + rule.pos_body,
            arith=rule.arith,
        )
        dom_defs = synthesize_dom_rules(securing, unsafe, part_namer)
        dom_lits = tuple(
            Literal(Atom(part_namer.dom(x), (Variable(x),))) for x in sorted(unsafe)
        )
        helper = Rule(
            helper.head,
            helper.pos_body + dom_lits,
            helper.neg_body,
        )
        extras = [dom_defs[x] for x in sorted(dom_defs)]
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


def decompose_program(
    program: Program,
    heuristic: str = "min-fill",
    threshold: bool = True,
    domain_size: int | None = None,
) -> tuple[Program, StatsReport]:
    """Per rule: normalize aggregates, tree-decompose the Gaifman graph,
    and split the rule when that lowers the maximum per-rule variable count
    (always, when the threshold policy is off). Facts pass through."""
    clashing = sorted(
        p for p in program.predicates() if p.startswith(RESERVED_PREFIXES)
    )
    if clashing:
        raise ReservedPrefixCollisionError(
            f"program uses reserved predicate prefixes: {', '.join(clashing)}"
        )
    for r in program.rules:
        ok, unsafe = is_safe(r)
        if not ok:
            raise SafetyError(unsafe, str(r))
    size = len(program.domain) if domain_size is None else domain_size

    out_rules: list[Rule] = []
    report = StatsReport()
    for index, original in enumerate(program.rules):
        namer = FreshNamer(str(index))

        parts: list[tuple[Rule, FreshNamer]] = []
        current = original
        helper_parts: list[tuple[Rule, FreshNamer]] = []
        for agg_index in range(len(original.aggregates)):
            current, helpers = split_aggregate(current, agg_index, namer)
            for pos_h, helper in enumerate(helpers):
                # Only the first helper carries body structure worth
                # decomposing; domain definitions are already minimal.
                tag = namer.aggregate_part(agg_index)
                helper_parts.append((helper, FreshNamer(f"{tag.tag}_{pos_h}")))
        parts.append((current, namer))
        parts.extend(helper_parts)

        emitted: list[Rule] = []
        width = -1
        decomposed = False
        for part, part_namer in parts:
            graph = gaifman(part)
            td = decompose_graph(graph, heuristic=heuristic)
            valid, why = validate_td(graph, td)
            if not valid:
                raise AssertionError(f"invalid decomposition produced: {why}")
            width = max(width, td.width)
            nvars = len(variables_of(part))
            apply_split = max(len(b) for b in td.bags) < nvars if threshold else True
            if apply_split and nvars > 0:
                head_vars = variables_of(list(part.head)) if part.head else set()
                rooted = root_at_head(td, head_vars)
                pieces = decompose_rule(part, rooted, part_namer)
                decomposed = decomposed or len(pieces) > 1 or pieces[0] != part
                emitted.extend(pieces)
            else:
                emitted.append(part)

        est_before = grounding_estimate(original, size)
        est_after = sum(grounding_estimate(r, size) for r in emitted)
        est_after = min(est_after, ESTIMATE_SATURATED)
        max_temp_arity = max(
            (
                a.arity
                for r in emitted
                for a in r.head
                if a.pred.startswith("temp_")
            ),
            default=0,
        )
        report.rules.append(
            RuleStats(
                index=index,
                vars=len(variables_of(original)),
                width=width,
                emitted=len(emitted),
                est_before=est_before,
                est_after=est_after,
                decomposed=decomposed,
                max_temp_arity=max_temp_arity,
            )
        )
        out_rules.extend(emitted)

    return Program(out_rules, program.facts), report
