"""Textual formats: ASP program text, QDIMACS, edge-list graphs, and the
reified ground-program fact format.

The ASP grammar is a token-level subset of common ASP surface syntax
(`:-`, `not`, `|` for disjunction) so printed programs can also be fed to
external grounders. All printers are deterministic and satisfy
parse(print(x)) == x structurally.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass

from .errors import (
    DanglingReferenceError,
    DuplicateIdError,
    ParseError,
    PartitionError,
)
from .syntax import (
    COMPARISON_OPS,
    Aggregate,
    Arith,
    Atom,
    Comparison,
    Constant,
    GroundProgram,
    GroundRule,
    INT_MAX,
    INT_MIN,
    Integer,
    Literal,
    Program,
    Rule,
    Term,
    Variable,
)


_CLIP_CHARS = 32


def clip(text) -> str:
    """The text of an input token or fact for an error message, cut after
    _CLIP_CHARS characters with `…`, so the line stays short however long
    the input."""
    text = str(text)
    return text if len(text) <= _CLIP_CHARS else text[:_CLIP_CHARS] + "…"


def _integer(text: str, sign: int, at) -> Integer:
    """An integer literal, which must lie in the 64-bit range; `at` is the
    token that starts it."""
    digits = text.lstrip("0") or "0"
    value = sign * int(digits) if len(digits) <= len(str(INT_MAX)) else None
    if value is None or not INT_MIN <= value <= INT_MAX:
        raise ParseError("integer outside the 64-bit range", at.line, at.col)
    return Integer(value)


class QdimacsWarning(UserWarning):
    """Recoverable oddity in QDIMACS input (free variables, tautologies)."""


# ------------------------------------------------------------- ASP lexer ---

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>%[^\n]*)
      | (?P<hash>\#[a-z]+)
      | (?P<ident>[a-z][A-Za-z0-9_]*)
      | (?P<var>[A-Z][A-Za-z0-9_]*)
      | (?P<int>\d+)
      | (?P<op>:-|!=|<=|>=|<|>|=|\.|,|\||\(|\)|\{|\}|:|\+|-|\*|/)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True, slots=True)
class _Tok:
    kind: str
    text: str
    line: int
    col: int


def _lex(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    line, line_start = 1, 0
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, pos - line_start + 1)
        kind = m.lastgroup
        tok_text = m.group()
        if kind not in ("ws", "comment"):
            toks.append(_Tok(kind, tok_text, line, pos - line_start + 1))
        nl = tok_text.count("\n")
        if nl:
            line += nl
            line_start = pos + tok_text.rfind("\n") + 1
        pos = m.end()
    toks.append(_Tok("eof", "", line, pos - line_start + 1))
    return toks


MAX_TERM_DEPTH = 100


class _AspParser:
    def __init__(self, text: str):
        self.toks = _lex(text)
        self.pos = 0

    def peek(self, ahead: int = 0) -> _Tok:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> _Tok:
        tok = self.toks[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def accept(self, text: str) -> bool:
        if self.peek().text == text and self.peek().kind != "eof":
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> _Tok:
        tok = self.peek()
        if tok.kind == "eof" or tok.text != text:
            found = clip(tok.text) or "end of input"
            raise ParseError(f"expected {text!r}, found {found!r}", tok.line, tok.col)
        return self.next()

    def fail(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col)

    # terms ------------------------------------------------------------
    #
    # Each term rule returns the term and its arithmetic depth. Parentheses
    # and arithmetic nest at most MAX_TERM_DEPTH deep, so neither parsing
    # nor any later walk over a term runs out of stack.

    def term(self) -> Term:
        return self.term_sum(0)[0]

    def term_sum(self, parens: int) -> tuple[Term, int]:
        t, depth = self.term_mul(parens)
        while self.peek().text in ("+", "-") and self.peek().kind == "op":
            t, depth = self.arith(t, depth, self.term_mul, parens)
        return t, depth

    def term_mul(self, parens: int) -> tuple[Term, int]:
        t, depth = self.term_prim(parens)
        while self.peek().text in ("*", "/") and self.peek().kind == "op":
            t, depth = self.arith(t, depth, self.term_prim, parens)
        return t, depth

    def arith(self, left: Term, depth: int, operand, parens: int) -> tuple[Term, int]:
        op = self.next()
        right, right_depth = operand(parens)
        depth = max(depth, right_depth) + 1
        if depth > MAX_TERM_DEPTH:
            raise ParseError(
                f"arithmetic nested deeper than {MAX_TERM_DEPTH}", op.line, op.col
            )
        return Arith(op.text, left, right), depth

    def term_prim(self, parens: int) -> tuple[Term, int]:
        tok = self.peek()
        if tok.kind == "int":
            self.next()
            return _integer(tok.text, 1, tok), 0
        if tok.text == "-" and self.peek(1).kind == "int":
            self.next()
            return _integer(self.next().text, -1, tok), 0
        if tok.kind == "var":
            self.next()
            return Variable(tok.text), 0
        if tok.kind == "ident":
            self.next()
            return Constant(tok.text), 0
        if tok.text == "(":
            if parens == MAX_TERM_DEPTH:
                self.fail(f"parentheses nested deeper than {MAX_TERM_DEPTH}")
            self.next()
            inner = self.term_sum(parens + 1)
            self.expect(")")
            return inner
        self.fail(f"expected a term, found {clip(tok.text)!r}")

    # atoms and body elements -------------------------------------------

    def atom(self) -> Atom:
        tok = self.peek()
        if tok.kind != "ident":
            self.fail(f"expected a predicate name, found {clip(tok.text)!r}")
        self.next()
        args: list[Term] = []
        if self.accept("("):
            args.append(self.term())
            while self.accept(","):
                args.append(self.term())
            self.expect(")")
        return Atom(tok.text, tuple(args))

    def condition_literal(self) -> Literal:
        if self.peek().text == "not" and self.peek().kind == "ident":
            self.next()
            return Literal(self.atom(), True)
        return Literal(self.atom(), False)

    def aggregate(self) -> Aggregate:
        func_tok = self.next()
        func = func_tok.text[1:]
        self.expect("{")
        tuple_vars: list[str] = []
        if self.peek().kind == "var":
            tuple_vars.append(self.next().text)
            while self.accept(","):
                tok = self.peek()
                if tok.kind != "var":
                    self.fail("expected a variable in the aggregate tuple")
                tuple_vars.append(self.next().text)
        self.expect(":")
        condition = [self.condition_literal()]
        while self.accept(","):
            condition.append(self.condition_literal())
        self.expect("}")
        op_tok = self.peek()
        if op_tok.text not in COMPARISON_OPS:
            self.fail("expected an aggregate guard comparison")
        self.next()
        guard = self.term()
        try:
            return Aggregate(func, tuple(tuple_vars), tuple(condition), op_tok.text, guard)
        except ValueError as exc:
            raise ParseError(str(exc), func_tok.line, func_tok.col) from exc

    def body_element(self):
        tok = self.peek()
        if tok.kind == "hash":
            return self.aggregate()
        if tok.kind == "ident" and tok.text == "not":
            self.next()
            return Literal(self.atom(), True)
        if tok.kind == "ident" and self.peek(1).text == "(":
            return Literal(self.atom(), False)
        # Could still be a bare 0-ary atom or the left side of a comparison.
        term = self.term()
        if self.peek().text in COMPARISON_OPS and self.peek().kind == "op":
            op = self.next().text
            return Comparison(op, term, self.term())
        if isinstance(term, Constant):
            return Literal(Atom(term.name), False)
        self.fail("expected a comparison operator after a non-atom term")

    # statements ---------------------------------------------------------

    def statement(self):
        head: list[Atom] = []
        first = self.peek()
        if first.text != ":-":
            head.append(self.atom())
            while self.accept("|"):
                head.append(self.atom())
        has_body = self.accept(":-")
        pos_body: list[Literal] = []
        neg_body: list[Literal] = []
        arith: list[Comparison] = []
        aggregates: list[Aggregate] = []
        if has_body and self.peek().text != ".":
            while True:
                element = self.body_element()
                if isinstance(element, Literal):
                    (neg_body if element.negated else pos_body).append(element)
                elif isinstance(element, Comparison):
                    arith.append(element)
                else:
                    aggregates.append(element)
                if not self.accept(","):
                    break
        self.expect(".")
        return Rule(tuple(head), tuple(pos_body), tuple(neg_body), tuple(arith), tuple(aggregates))

    def program(self) -> Program:
        rules: list[Rule] = []
        while self.peek().kind != "eof":
            rules.append(self.statement())
        return Program(rules)


def parse_program(text: str) -> Program:
    """Parse ASP program text; comments run from `%` to end of line. Terms
    nest at most MAX_TERM_DEPTH deep. The whole text is parsed first;
    `Program` then turns ground body-less single-atom rules into facts and
    rejects an unsafe rule (by the grounder's binding rule, so `q(X+1)`
    alone does not make X safe) or a clashing arity."""
    return _AspParser(text).program()


def print_program(program: Program) -> str:
    """Deterministic text form: facts in insertion order, then rules in
    insertion order, one statement per line."""
    lines = [f"{fact}." for fact in program.facts]
    lines += [str(rule) for rule in program.rules]
    return "\n".join(lines) + ("\n" if lines else "")


def print_ground_program(gp: GroundProgram) -> str:
    lines = [gp.rule_str(r) for r in gp.rules]
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------- QDIMACS --

@dataclass(frozen=True, slots=True)
class Clause:
    """Disjunction of signed variable ids. Same-sign duplicates are removed
    on construction; a complementary pair marks the clause tautological."""

    lits: tuple[int, ...]
    tautology: bool = False

    @staticmethod
    def of(lits) -> "Clause":
        seen = dict.fromkeys(lits)
        return Clause(tuple(seen), any(-lit in seen for lit in seen))


@dataclass(frozen=True, slots=True)
class Qbf:
    """Prefix-quantified CNF. Prefix blocks alternate quantifiers."""

    prefix: tuple[tuple[str, tuple[int, ...]], ...]
    clauses: tuple[Clause, ...]
    num_vars: int


def parse_qdimacs(text: str) -> Qbf:
    """Parse standard QDIMACS. Unbound variables that occur in a clause are
    implicitly bound existentially innermost and flagged with a warning (one
    in no clause cannot change the value)."""
    tokens: list[tuple[str, int]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("c"):
            continue
        for tok in stripped.split():
            tokens.append((tok, lineno))
    if not tokens:
        raise ParseError("empty QDIMACS input")
    idx = 0

    def take():
        nonlocal idx
        if idx >= len(tokens):
            raise ParseError("unexpected end of QDIMACS input", tokens[-1][1])
        tok = tokens[idx]
        idx += 1
        return tok

    tok, line = take()
    if tok != "p":
        raise ParseError("expected `p cnf` header", line)
    tok, line = take()
    if tok != "cnf":
        raise ParseError("expected `p cnf` header", line)
    try:
        num_vars = int(take()[0])
        num_clauses = int(take()[0])
    except ValueError as exc:
        raise ParseError("malformed header counts", line) from exc
    if num_vars < 0 or num_clauses < 0:
        raise ParseError("negative counts in header", line)

    blocks: list[tuple[str, list[int]]] = []
    bound: set[int] = set()
    while idx < len(tokens) and tokens[idx][0] in ("a", "e"):
        q, line = take()
        block: list[int] = []
        while True:
            tok, line = take()
            if tok == "0":
                break
            try:
                var = int(tok)
            except ValueError as exc:
                raise ParseError(f"bad quantifier token {clip(tok)!r}", line) from exc
            if var <= 0 or var > num_vars:
                raise ParseError(f"quantified variable {clip(var)} out of range", line)
            if var in bound:
                raise ParseError(f"variable {clip(var)} quantified twice", line)
            bound.add(var)
            block.append(var)
        if blocks and blocks[-1][0] == q:
            blocks[-1][1].extend(block)
        else:
            blocks.append((q, block))

    raw_clauses: list[list[int]] = []
    current: list[int] = []
    while idx < len(tokens):
        tok, line = take()
        try:
            lit = int(tok)
        except ValueError as exc:
            raise ParseError(f"bad clause token {clip(tok)!r}", line) from exc
        if lit == 0:
            raw_clauses.append(current)
            current = []
            continue
        if abs(lit) > num_vars:
            raise ParseError(f"literal {clip(lit)} out of range", line)
        current.append(lit)
    if current:
        raise ParseError("clause not terminated by 0", tokens[-1][1])
    if len(raw_clauses) != num_clauses:
        raise ParseError(
            f"header announces {clip(num_clauses)} clauses, found {len(raw_clauses)}"
        )

    free = sorted({abs(lit) for clause in raw_clauses for lit in clause} - bound)
    if free:
        shown = ", ".join(map(clip, free[:5])) + (", …" if len(free) > 5 else "")
        warnings.warn(
            f"{len(free)} unbound variable(s) ({shown}); binding existentially innermost",
            QdimacsWarning,
            stacklevel=2,
        )
        if blocks and blocks[-1][0] == "e":
            blocks[-1][1].extend(free)
        else:
            blocks.append(("e", free))

    clauses = tuple(Clause.of(lits) for lits in raw_clauses)
    for cl in clauses:
        if cl.tautology:
            warnings.warn("tautological clause in input", QdimacsWarning, stacklevel=2)
            break
    prefix = tuple((q, tuple(block)) for q, block in blocks)
    return Qbf(prefix, clauses, num_vars)


def emit_qdimacs(qbf: Qbf) -> str:
    lines = [f"p cnf {qbf.num_vars} {len(qbf.clauses)}"]
    for q, block in qbf.prefix:
        lines.append(f"{q} {' '.join(str(x) for x in block)} 0")
    for clause in qbf.clauses:
        lines.append(f"{' '.join(str(l) for l in clause.lits)} 0".lstrip())
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------ input graph --

_VERTEX_RE = re.compile(r"[a-z][A-Za-z0-9_]*\Z")


@dataclass(frozen=True, slots=True)
class InputGraph:
    vertices: frozenset[str]
    edges: frozenset[tuple[str, str]]
    partition: "tuple[frozenset[str], frozenset[str]] | None" = None

    def neighbors(self, vertex: str) -> set[str]:
        out = set()
        for u, w in self.edges:
            if u == vertex:
                out.add(w)
            elif w == vertex:
                out.add(u)
        return out


def _check_edge(u: str, w: str, line=None) -> None:
    if u == w:
        raise ParseError(f"self-loop on {clip(u)!r}", line)
    for name in (u, w):
        if not _VERTEX_RE.match(name):
            raise ParseError(f"vertex name {clip(name)!r} is not a valid constant", line)


def make_graph(edges, partition_v1=None) -> InputGraph:
    """Build a graph from unordered edge pairs; vertex names must be valid
    ASP constants."""
    vertices: set[str] = set()
    norm: set[tuple[str, str]] = set()
    for u, w in edges:
        _check_edge(u, w)
        vertices.update((u, w))
        norm.add((min(u, w), max(u, w)))
    partition = None
    if partition_v1 is not None:
        v1 = frozenset(partition_v1)
        unknown = v1 - vertices
        if unknown:
            raise PartitionError(f"partition references unknown vertices {clip(sorted(unknown))}")
        partition = (v1, frozenset(vertices) - v1)
    return InputGraph(frozenset(vertices), frozenset(norm), partition)


def parse_graph(text: str) -> InputGraph:
    """One edge per line `u v`; an optional `#V1` line starts a section
    listing the first partition class one vertex per line."""
    edges: list[tuple[str, str]] = []
    v1: list[str] = []
    in_partition = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped == "#V1":
            if in_partition:
                raise ParseError("duplicate #V1 section", lineno)
            in_partition = True
            continue
        fields = stripped.split()
        if in_partition:
            if len(fields) != 1:
                raise ParseError("expected one vertex per line in #V1 section", lineno)
            v1.append(fields[0])
            continue
        if len(fields) != 2:
            raise ParseError("expected `u v` edge line", lineno)
        u, w = fields
        _check_edge(u, w, lineno)
        edges.append((u, w))
    return make_graph(edges, v1 if in_partition else None)


# ---------------------------------------------------------------- reified --

_REIFIED_PREDS = {"atom": 1, "rule": 1, "head": 2, "pos": 2, "neg": 2}


def parse_reified(text: str) -> GroundProgram:
    """Read facts atom/1, rule/1, head/2, pos/2, neg/2 into a ground
    program. Ids are symbols; references to undeclared ids are errors."""
    program = parse_program(text)
    if program.rules:
        raise ParseError("reified input must contain facts only")
    atoms: list[str] = []
    atom_idx: dict[str, int] = {}
    rule_ids: list[str] = []
    rule_idx: dict[str, int] = {}
    parts: dict[str, list[list[int]]] = {}

    def symbol(term, what, fact):
        if not isinstance(term, Constant):
            raise ParseError(f"{what} id in {clip(fact)} must be a symbol")
        return term.name

    for fact in program.facts:
        if fact.pred not in _REIFIED_PREDS:
            raise ParseError(f"unexpected predicate {clip(fact.pred)!r} in reified input")
        if fact.arity != _REIFIED_PREDS[fact.pred]:
            raise ParseError(f"{fact.pred} must have arity {_REIFIED_PREDS[fact.pred]}")
        if fact.pred == "atom":
            name = symbol(fact.args[0], "atom", fact)
            if name in atom_idx:
                raise DuplicateIdError(f"atom id {clip(name)!r} declared twice")
            atom_idx[name] = len(atoms)
            atoms.append(name)
        elif fact.pred == "rule":
            name = symbol(fact.args[0], "rule", fact)
            if name in rule_idx:
                raise DuplicateIdError(f"rule id {clip(name)!r} declared twice")
            rule_idx[name] = len(rule_ids)
            rule_ids.append(name)
            parts[name] = [[], [], []]

    slot = {"head": 0, "pos": 1, "neg": 2}
    for fact in program.facts:
        if fact.pred not in slot:
            continue
        rid = symbol(fact.args[0], "rule", fact)
        aid = symbol(fact.args[1], "atom", fact)
        if rid not in rule_idx:
            raise DanglingReferenceError(
                f"{clip(fact)} references undeclared rule {clip(rid)!r}"
            )
        if aid not in atom_idx:
            raise DanglingReferenceError(
                f"{clip(fact)} references undeclared atom {clip(aid)!r}"
            )
        parts[rid][slot[fact.pred]].append(atom_idx[aid])

    rules = [
        GroundRule(tuple(parts[rid][0]), tuple(parts[rid][1]), tuple(parts[rid][2]))
        for rid in rule_ids
    ]
    return GroundProgram(tuple(Atom(name) for name in atoms), rules)


def reified_atom_ids(gp: GroundProgram) -> list[str]:
    """Deterministic, distinct symbol id per atom: the predicate name for
    0-ary atoms, otherwise predicate and arguments joined by underscores,
    with `-` written as `m`. A collision gets a positional suffix, then
    underscores until the id is unused."""
    ids: list[str] = []
    used: set[str] = set()
    for i, a in enumerate(gp.atoms):
        if a.args:
            base = a.pred + "_" + "_".join(str(arg) for arg in a.args).replace("-", "m")
        else:
            base = a.pred
        candidate = base
        if candidate in used:
            candidate = f"{base}_{i}"
            while candidate in used:
                candidate += "_"
        used.add(candidate)
        ids.append(candidate)
    return ids


def reified_rule_ids(gp: GroundProgram, atom_ids) -> list[str]:
    used = set(atom_ids)
    rule_ids = []
    for i in range(len(gp.rules)):
        rid = f"r{i}"
        while rid in used:
            rid += "_"
        used.add(rid)
        rule_ids.append(rid)
    return rule_ids


def emit_reified(gp: GroundProgram) -> str:
    atom_ids = reified_atom_ids(gp)
    rule_ids = reified_rule_ids(gp, atom_ids)
    lines = [f"atom({aid})." for aid in atom_ids]
    lines += [f"rule({rid})." for rid in rule_ids]
    for rid, rule in zip(rule_ids, gp.rules):
        lines += [f"head({rid},{atom_ids[i]})." for i in rule.head]
        lines += [f"pos({rid},{atom_ids[i]})." for i in rule.pos]
        lines += [f"neg({rid},{atom_ids[i]})." for i in rule.neg]
    return "\n".join(lines) + ("\n" if lines else "")
