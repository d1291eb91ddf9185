"""Command-line front end wiring parsers, rewriters, decomposer and oracle.

Exit codes: 0 success (and `check` equality), 1 parse or safety errors,
2 semantic input errors, 3 `check` found differing answer sets, 4 a limit
was exceeded, 10/20 `solve` found / did not find an answer set.
"""

from __future__ import annotations

import argparse
import sys

from . import decompose as dec
from . import oracle, parse, rewriters
from .errors import BigruleError, InputSemanticsError, InternalError, ParseError
from .syntax import GroundProgram, Program
from .treedecomp import HEURISTICS

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_DIFFERENT = 3
EXIT_SAT = 10
EXIT_UNSAT = 20


def _read(path: str) -> str:
    """The text of a file, or of stdin for "-", as UTF-8 with universal
    newlines. Bytes that are not UTF-8 raise ParseError."""
    if path == "-":
        stream = getattr(sys.stdin, "buffer", None)
        if stream is None:  # an already decoded text stream
            return sys.stdin.read()
        data = stream.read()
    else:
        with open(path, "rb") as handle:
            data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"input is not UTF-8: byte 0x{data[exc.start]:02x} at byte offset {exc.start}"
        ) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def count(text: str) -> int:
    """A non-negative integer option; argparse makes a ValueError a usage error."""
    if int(text) < 0:
        raise ValueError(text)
    return int(text)


def _write_out(args, text: str):
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)


def _load_program(path: str, auto_rename: bool = False) -> Program:
    program = parse.parse_program(_read(path))
    if auto_rename:
        program = dec.rename_reserved(program)
    return program


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bigrule",
        description="Large-rule ASP encodings, rule decomposition, and an exact desk-scale oracle.",
    )
    parser.add_argument("-o", "--output", default="-", help="output path (default stdout)")
    sub = parser.add_subparsers(dest="command", required=True)

    common_decomp = argparse.ArgumentParser(add_help=False)
    common_decomp.add_argument("--heuristic", choices=HEURISTICS, default=HEURISTICS[0])
    common_decomp.add_argument(
        "--no-threshold",
        dest="threshold",
        action="store_false",
        help="split every rule along its tree decomposition, without weighing"
        " the estimated join work of the split against the whole rule",
    )
    common_decomp.add_argument(
        "--auto-rename",
        action="store_true",
        help="rename predicates colliding with the reserved temp_/dom_ prefixes",
    )

    limits = argparse.ArgumentParser(add_help=False)
    limits.add_argument("--max-atoms", type=count, default=24)
    limits.add_argument("--max-ground-rules", type=count, default=200_000)

    p_dec = sub.add_parser("decompose", parents=[common_decomp], help="split large rules")
    p_dec.add_argument("program")

    p_rew = sub.add_parser("rewrite", help="encode an instance as a program")
    p_rew.add_argument(
        "mode",
        choices=("3col", "3col2", "qbf2-classic", "qbf2", "qbf3", "shift", "abduce"),
    )
    p_rew.add_argument("input")
    p_rew.add_argument("--hyp", help="hypothesis ids file (abduce)")
    p_rew.add_argument("--man", help="manifestation ids file (abduce)")
    p_rew.add_argument("--max-tuple-width", type=count, default=12)

    p_ground = sub.add_parser("ground", parents=[limits], help="print the ground program")
    p_ground.add_argument("program")

    p_solve = sub.add_parser("solve", parents=[limits], help="enumerate answer sets")
    p_solve.add_argument("program")

    p_check = sub.add_parser("check", parents=[limits], help="compare answer sets of two programs")
    p_check.add_argument("program_a")
    p_check.add_argument("program_b")
    p_check.add_argument(
        "--project-away",
        default="",
        help="comma-separated predicate prefixes to drop before comparing",
    )

    p_stats = sub.add_parser("stats", parents=[common_decomp], help="per-rule width and size table")
    p_stats.add_argument("program")
    return parser


def _solve_sets(program: Program, args) -> tuple[GroundProgram, set]:
    result = oracle.ground(program, max_ground_rules=args.max_ground_rules)
    gp = result.ground_program
    return gp, oracle.answer_sets(gp, max_atoms=args.max_atoms)


def _render_answer_sets(gp: GroundProgram, sets) -> str:
    lines = sorted(" ".join(i.atom_strs(gp)) for i in sets)
    return "\n".join(lines) + ("\n" if lines else "")


def _projected(gp: GroundProgram, sets, prefixes) -> set[frozenset[str]]:
    out = set()
    for interp in sets:
        out.add(
            frozenset(
                str(gp.atoms[i])
                for i in interp.true_atoms
                if not gp.atoms[i].pred.startswith(prefixes)
            )
        )
    return out


def _run_rewrite(args) -> int:
    if args.mode in ("3col", "3col2"):
        graph = parse.parse_graph(_read(args.input))
        encoder = (
            rewriters.threecol_single_rule if args.mode == "3col" else rewriters.threecol_second_level
        )
        _write_out(args, parse.print_program(encoder(graph)))
        return EXIT_OK
    if args.mode in ("qbf2-classic", "qbf2", "qbf3"):
        qbf = parse.parse_qdimacs(_read(args.input))
        if args.mode == "qbf2-classic":
            program = rewriters.qbf2_classic(qbf)
        elif args.mode == "qbf2":
            program = rewriters.qbf2_large_rule(qbf, max_tuple_width=args.max_tuple_width)
        else:
            program = rewriters.qbf3_large_rule(qbf, max_tuple_width=args.max_tuple_width)
        _write_out(args, parse.print_program(program))
        return EXIT_OK
    if args.mode == "shift":
        gp = parse.parse_reified(_read(args.input))
        _write_out(args, parse.print_program(rewriters.disjunctive_to_normal(gp)))
        return EXIT_OK
    # abduce
    if not args.hyp or not args.man:
        raise InputSemanticsError("abduce needs --hyp and --man id files")
    gp = parse.parse_reified(_read(args.input))
    ids = {str(a): i for i, a in enumerate(gp.atoms)}

    def read_ids(path: str) -> frozenset[int]:
        out = set()
        for token in _read(path).split():
            if token not in ids:
                raise InputSemanticsError(f"unknown atom id {parse.clip(token)!r}")
            out.add(ids[token])
        return frozenset(out)

    inst = rewriters.AbductionInstance(gp, read_ids(args.hyp), read_ids(args.man))
    _write_out(args, parse.print_program(rewriters.abduction_encoding(inst)))
    return EXIT_OK


def _run(args) -> int:
    if args.command == "decompose":
        program = _load_program(args.program, auto_rename=args.auto_rename)
        out, report = dec.decompose_program(
            program, heuristic=args.heuristic, threshold=args.threshold
        )
        _write_out(args, parse.print_program(out))
        sys.stderr.write(report.render())
        return EXIT_OK

    if args.command == "rewrite":
        return _run_rewrite(args)

    if args.command == "ground":
        program = _load_program(args.program)
        result = oracle.ground(program, max_ground_rules=args.max_ground_rules)
        _write_out(args, parse.print_ground_program(result.ground_program))
        return EXIT_OK

    if args.command == "solve":
        program = _load_program(args.program)
        gp, sets = _solve_sets(program, args)
        _write_out(args, _render_answer_sets(gp, sets))
        return EXIT_SAT if sets else EXIT_UNSAT

    if args.command == "check":
        prefixes = tuple(p for p in args.project_away.split(",") if p)
        gp_a, sets_a = _solve_sets(_load_program(args.program_a), args)
        gp_b, sets_b = _solve_sets(_load_program(args.program_b), args)
        proj_a = _projected(gp_a, sets_a, prefixes)
        proj_b = _projected(gp_b, sets_b, prefixes)
        if proj_a == proj_b:
            _write_out(args, f"equal: {len(proj_a)} projected answer sets\n")
            return EXIT_OK
        only_a = sorted(" ".join(sorted(s)) for s in proj_a - proj_b)
        only_b = sorted(" ".join(sorted(s)) for s in proj_b - proj_a)
        witness = (
            f"only in {args.program_a}: {{{only_a[0]}}}" if only_a
            else f"only in {args.program_b}: {{{only_b[0]}}}"
        )
        _write_out(args, f"different: {witness}\n")
        return EXIT_DIFFERENT

    if args.command == "stats":
        program = _load_program(args.program, auto_rename=args.auto_rename)
        _, report = dec.decompose_program(
            program, heuristic=args.heuristic, threshold=args.threshold
        )
        _write_out(args, report.render())
        return EXIT_OK

    raise InternalError(f"unhandled command {args.command}")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except BigruleError as exc:  # the exit code is the error group's (errors.py)
        kind = "internal error" if isinstance(exc, InternalError) else "error"
        sys.stderr.write(f"{kind}: {exc}\n")
        return exc.exit_code
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
