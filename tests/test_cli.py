import argparse
import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import bigrule
from bigrule import cli, errors, rewriters
from bigrule.cli import main
from bigrule.parse import QdimacsWarning, parse_qdimacs, print_program

# Child interpreters import the same bigrule sources as the tests.
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        filter(None, (str(Path(bigrule.__file__).parents[1]), os.environ.get("PYTHONPATH")))
    ),
}

EX1_GRAPH = "a b\nb c\nc d\na d\nb d\n"
K4_GRAPH = "a b\na c\na d\nb c\nb d\nc d\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def ex1(tmp_path):
    path = tmp_path / "ex1.graph"
    path.write_text(EX1_GRAPH)
    return str(path)


def test_rewrite_3col_then_solve_exit_20(capsys, tmp_path, ex1):
    code, out, _ = run_cli(capsys, "rewrite", "3col", ex1)
    assert code == 0
    program = tmp_path / "enc.lp"
    program.write_text(out)
    code, out, _ = run_cli(capsys, "solve", "--max-atoms", "100", str(program))
    assert code == 20
    assert out == ""


def test_rewrite_3col_k4_solve_exit_10(capsys, tmp_path):
    graph = tmp_path / "k4.graph"
    graph.write_text(K4_GRAPH)
    code, out, _ = run_cli(capsys, "rewrite", "3col", str(graph))
    assert code == 0
    program = tmp_path / "enc.lp"
    program.write_text(out)
    code, out, _ = run_cli(capsys, "solve", "--max-atoms", "100", str(program))
    assert code == 10
    assert out.strip() != ""


def test_decompose_worked_rule_prints_stats_to_stderr(capsys, tmp_path):
    src = tmp_path / "rule.lp"
    src.write_text("h(X,W) :- e(X,Y), e(Y,Z), not e(Z,W), e(W,X).\n")
    code, out, err = run_cli(capsys, "decompose", str(src))
    assert code == 0
    assert "temp_0_1" in out
    assert err.startswith("rule 0: vars=4 width=2")


def test_check_decomposition_equivalence_exit_0(capsys, tmp_path):
    src = tmp_path / "orig.lp"
    src.write_text(
        "e(a,b). e(b,c). e(c,d). e(d,a).\n"
        "h(X,W) :- e(X,Y), e(Y,Z), not e(Z,W), e(W,X).\n"
    )
    code, out, _ = run_cli(capsys, "decompose", str(src))
    dec = tmp_path / "dec.lp"
    dec.write_text(out)
    code, out, _ = run_cli(
        capsys,
        "check",
        str(src),
        str(dec),
        "--project-away",
        "temp_,dom_",
        "--max-atoms",
        "500",
    )
    assert code == 0
    assert out.startswith("equal")


def test_check_detects_difference_exit_3(capsys, tmp_path):
    a = tmp_path / "a.lp"
    a.write_text("p(a).\n")
    b = tmp_path / "b.lp"
    b.write_text("p(b).\n")
    code, out, _ = run_cli(capsys, "check", str(a), str(b))
    assert code == 3
    assert out.startswith("different:") and "only in" in out


def test_parse_error_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.lp"
    bad.write_text(":- not p(X).\n")
    code, _, err = run_cli(capsys, "solve", str(bad))
    assert code == 1
    assert "unsafe" in err


def test_prefix_shape_error_exit_2(capsys, tmp_path):
    qdimacs = tmp_path / "bad.qdimacs"
    qdimacs.write_text("p cnf 2 1\ne 1 0\na 2 0\n1 2 0\n")
    code, _, err = run_cli(capsys, "rewrite", "qbf2", str(qdimacs))
    assert code == 2
    assert "prefix" in err


def test_sum_over_a_symbol_exit_2(capsys, tmp_path):
    src = tmp_path / "sum.lp"
    src.write_text("p(a).\nh :- #sum{X : p(X)} >= 1.\n")
    code, out, err = run_cli(capsys, "solve", str(src))
    assert code == 2 and out == ""
    assert err == "error: #sum needs integer first components, got ('a',)\n"


@pytest.mark.parametrize(
    "text",
    ["q(a). p(Y) :- q(X), Y = X+1.\n", "q(a). p :- q(X), r(X+1).\n"],
    ids=["binding-equation", "body-atom"],
)
def test_arithmetic_over_symbol_exit_2(capsys, tmp_path, text):
    src = tmp_path / "arith.lp"
    src.write_text(text)
    code, out, err = run_cli(capsys, "solve", str(src))
    assert code == 2
    assert out == ""
    assert err == "error: arithmetic over non-integer value in X+1\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["ground", "solve", "decompose"])
@pytest.mark.parametrize(
    "text, rule",
    [
        (
            "r(1). p :- r(Y), #count{X : q(X+1)} >= 0.\n",
            "p :- r(Y), #count{X : q(X+1)} >= 0.",
        ),
        ("q(3). p(X) :- q(X+1).\n", "p(X) :- q(X+1)."),
        ("p(X) :- q(X+1).\n", "p(X) :- q(X+1)."),
        (
            "q(3). r(1). p(X) :- q(X+1), r(Y), not s(X,Y), t(Y,Z), u(Z).\n",
            "p(X) :- q(X+1), r(Y), t(Y,Z), u(Z), not s(X,Y).",
        ),
    ],
    ids=["aggregate", "body-atom", "body-atom-no-facts", "mixed-body"],
)
def test_variable_only_inside_arithmetic_is_unsafe_exit_1(capsys, tmp_path, command, text, rule):
    src = tmp_path / "p.lp"
    src.write_text(text)
    assert run_cli(capsys, command, str(src)) == (1, "", f"error: unsafe variables {{X}} in `{rule}`\n")


@pytest.mark.parametrize(
    "command, text, expected",
    [
        ("solve", "p(1+1). q(X) :- p(X).\n", (10, "p(2) q(2)\n", "")),
        ("ground", "p(1+1). q(X) :- p(X).\n", (0, "p(2).\nq(2).\n", "")),
        ("solve", "p(1/0).\n", (2, "", "error: division by zero in 1/0\n")),
        ("ground", "p(1/0).\n", (2, "", "error: division by zero in 1/0\n")),
        ("solve", "p(a+1).\n", (2, "", "error: arithmetic over non-integer value in a+1\n")),
        ("ground", "p(a+1).\n", (2, "", "error: arithmetic over non-integer value in a+1\n")),
        ("ground", "p(1+2). p(3). q(X) :- p(X).\n", (0, "p(3).\nq(3).\n", "")),
    ],
)
def test_arithmetic_in_facts_is_evaluated(capsys, tmp_path, command, text, expected):
    src = tmp_path / "p.lp"
    src.write_text(text)
    assert run_cli(capsys, command, str(src)) == expected


@pytest.mark.parametrize("command", ["ground", "solve", "decompose"])
@pytest.mark.parametrize(
    "text, message",
    [
        ("p(" + "(" * 3000 + "1" + ")" * 3000 + ").\n", "col 103: parentheses nested deeper than 100"),
        ("q(1). p(Y) :- q(X), Y = X" + "+1" * 3000 + ".\n", "col 226: arithmetic nested deeper than 100"),
    ],
    ids=["parentheses", "arithmetic"],
)
def test_deep_terms_exit_1(capsys, tmp_path, command, text, message):
    src = tmp_path / "deep.lp"
    src.write_text(text)
    assert run_cli(capsys, command, str(src)) == (1, "", f"error: line 1, {message}\n")


LONG = "b" * 5000


@pytest.mark.parametrize(
    "mode, text",
    [
        ("qbf2", f"p cnf 2 1\na {'1' * 5000} 0\ne 2 0\n1 2 0\n"),
        ("qbf2", f"p cnf 2 1\na 1 0\ne 2 0\n1 {LONG} 0\n"),
        ("qbf2", f"p cnf 2 1\na 1 0\ne 2 0\n1 {'1' * 4000} 0\n"),
        ("3col", f"a {LONG.upper()}\n"),
        ("shift", f"atom(a). rule(r0). head(r0,{LONG}).\n"),
    ],
    ids=["quantifier-token", "clause-token", "clause-literal", "vertex-name", "reified-fact"],
)
def test_long_input_token_is_quoted_short(capsys, tmp_path, mode, text):
    src = tmp_path / "long.txt"
    src.write_text(text)
    code, out, err = run_cli(capsys, "rewrite", mode, str(src))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "…" in err and len(err) < 120


def test_limit_error_exit_4(capsys, tmp_path):
    src = tmp_path / "big.lp"
    src.write_text("p(1).\np(Y) :- p(X), Y = X+1.\n")
    code, _, err = run_cli(capsys, "ground", "--max-ground-rules", "40", str(src))
    assert code == 4
    assert "exceeds" in err
    assert "rule 0 `p(Y) :- p(X), Y = X+1.`" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("ground", "--max-ground-rules", "-1"),
        ("solve", "--max-atoms", "-1"),
        ("rewrite", "3col", "--max-tuple-width", "-1"),
        ("ground", "--max-ground-rules", "abc"),
    ],
)
def test_negative_or_malformed_limit_is_a_usage_error(capsys, tmp_path, argv):
    src = tmp_path / "in.txt"
    src.write_text("p(1).\n")
    with pytest.raises(SystemExit) as info:
        main([*argv, str(src)])
    err = capsys.readouterr().err
    assert info.value.code == 2
    assert f"argument {argv[-2]}: invalid count value: '{argv[-1]}'" in err


SQUARING = "p(2).\np(Y) :- p(X), Y = X*X.\n"
HUNDRED_FACTORS = "q(10).\nr(Y) :- q(X), Y = {}.\ns(Z) :- r(Y), Z = {}.\n".format(
    "*".join(["X"] * 100), "*".join(["Y"] * 100)
)


@pytest.mark.parametrize(
    "text, rule",
    [
        (SQUARING, "rule 0 `p(Y) :- p(X), Y = X*X.`"),
        (HUNDRED_FACTORS, "rule 0 `r(Y) :- q(X), Y = X*X*"),
        ("q(1). r(Y) :- q(X), not s(X*9223372036854775807*2), Y = X.\n", "rule 0 `r(Y)"),
        ("q(1). s(1). r(Y) :- q(X), not s(X*9223372036854775807*2), Y = X.\n", "rule 0 `r(Y)"),
        (  # a negated atom evaluated only when its rule is emitted
            "d(1). p(X) | q(X) :- d(X). r :- d(X), not p(X+9223372036854775807).\n",
            "rule 1 `r :- d(X)",
        ),
        ("p(9223372036854775807+1).\n", "in fact `p(9223372036854775807+1).`"),
    ],
)
def test_integer_outside_64_bits_exit_4(capsys, tmp_path, text, rule):
    src = tmp_path / "int.lp"
    src.write_text(text)
    for command in ("ground", "solve"):
        code, out, err = run_cli(capsys, command, str(src))
        assert code == 4
        assert out == ""
        assert err.startswith("error: ") and "outside the 64-bit range" in err
        assert rule in err


def test_unreached_aggregate_over_a_guess_exit_2(capsys, tmp_path):
    # No g fact, so no match reaches the aggregate: the rule is rejected
    # when it is compiled, whatever the data.
    src = tmp_path / "agg.lp"
    src.write_text("c(a). p(X) | q(X) :- c(X). ok :- g(X), #count{Y : p(Y)} >= 1.\n")
    assert run_cli(capsys, "ground", str(src)) == (
        2, "", "error: aggregate condition over non-deterministic predicate p\n"
    )


# The exit code of each error group, as the comments in errors.py give it.
GROUP_CODES = {
    errors.ParseError: 1,
    errors.SafetyError: 1,
    errors.ArityError: 1,
    errors.InputSemanticsError: 2,
    errors.LimitError: 4,
    errors.InternalError: 1,
}


def _error_classes(cls=errors.BigruleError):
    for sub in cls.__subclasses__():
        yield sub
        yield from _error_classes(sub)


@pytest.mark.parametrize("cls", sorted(set(_error_classes()), key=lambda c: c.__name__))
def test_each_error_group_has_its_exit_code(capsys, monkeypatch, cls):
    (group,) = [g for g in GROUP_CODES if issubclass(cls, g)]

    def fail(args):
        raise cls("boom")

    monkeypatch.setattr(cli, "_run", fail)
    code, out, err = run_cli(capsys, "ground", "-")
    kind = "internal error" if group is errors.InternalError else "error"
    assert (code, out, err.startswith(f"{kind}: ")) == (GROUP_CODES[group], "", True)


# Every parse error path, with its message and line as printed.
@pytest.mark.parametrize(
    "mode, text, message",
    [
        ("ground", "p.\nq :- $.\n", "line 2, col 6: unexpected character '$'"),
        ("ground", "(a).\n", "line 1, col 1: expected a predicate name, found '('"),
        ("ground", "h :- #count{X, 1 : p(X)} >= 1.\n",
         "line 1, col 16: expected a variable in the aggregate tuple"),
        ("ground", "h :- #count{X : p(X)}.\n", "line 1, col 22: expected an aggregate guard comparison"),
        ("ground", "p :- 1 + 2.\n", "line 1, col 11: expected a comparison operator after a non-atom term"),
        ("qbf2", "c only a comment\n", "empty QDIMACS input"),
        ("qbf2", "p cnf 2\n", "line 1: unexpected end of QDIMACS input"),
        ("qbf2", "q cnf 1 1\n", "line 1: expected `p cnf` header"),
        ("qbf2", "p dnf 1 1\n", "line 1: expected `p cnf` header"),
        ("qbf2", "p cnf x 1\n", "line 1: malformed header counts"),
        ("qbf2", "p cnf -1 1\n", "line 1: negative counts in header"),
        ("qbf2", "p cnf 2 1\na 3 0\n1 0\n", "line 2: quantified variable 3 out of range"),
        ("qbf2", "p cnf 2 1\na 1 z 0\n", "line 2: bad quantifier token 'z'"),
        ("qbf2", "p cnf 2 1\na 1 0\ne 2 0\n1 3 0\n", "line 4: literal 3 out of range"),
        ("qbf2", "p cnf 2 1\na 1 0\ne 2 0\n1 y 0\n", "line 4: bad clause token 'y'"),
        ("qbf2", "p cnf 2 1\na 1 0\ne 2 0\n1 2\n", "line 4: clause not terminated by 0"),
        ("qbf2", "p cnf 2 2\na 1 0\ne 2 0\n1 2 0\n", "header announces 2 clauses, found 1"),
        ("shift", "atom(a).\np :- atom(a).\n", "reified input must contain facts only"),
        ("shift", "atom(1).\n", "atom id in atom(1) must be a symbol"),
        ("shift", "atom(a,b).\n", "atom must have arity 1"),
        ("shift", "rule(r).\nrule(r).\n", "rule id 'r' declared twice"),
        ("shift", "atom(a).\nhead(r,a).\n", "head(r,a) references undeclared rule 'r'"),
        ("shift", "rule(r).\nhead(r,a).\n", "head(r,a) references undeclared atom 'a'"),
        ("3col", "#V1\na\n#V1\n", "line 3: duplicate #V1 section"),
        ("3col", "a b\n#V1\na b\n", "line 3: expected one vertex per line in #V1 section"),
        ("3col", "a b c\n", "line 1: expected `u v` edge line"),
    ],
)
def test_parse_errors_exit_1(capsys, tmp_path, mode, text, message):
    src = tmp_path / "in.txt"
    src.write_text(text)
    argv = ("ground", str(src)) if mode == "ground" else ("rewrite", mode, str(src))
    assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "literal", ["9223372036854775808", "-9223372036854775809", "1" * 5000]
)
def test_integer_literal_outside_64_bits_exit_1(capsys, tmp_path, literal):
    src = tmp_path / "int.lp"
    src.write_text(f"p({literal}).\n")
    code, _, err = run_cli(capsys, "ground", str(src))
    assert code == 1
    assert err == "error: line 1, col 3: integer outside the 64-bit range\n"


def test_integer_range_ends_are_kept(capsys, tmp_path):
    src = tmp_path / "int.lp"
    src.write_text("p(9223372036854775807). p(-9223372036854775808).\n")
    code, out, _ = run_cli(capsys, "ground", str(src))
    assert code == 0
    assert out == "p(9223372036854775807).\np(-9223372036854775808).\n"


def test_ground_large_body_exit_0(capsys, tmp_path):
    from test_oracle import large_body_text

    src = tmp_path / "large.lp"
    src.write_text(large_body_text())
    code, out, err = run_cli(capsys, "ground", str(src))
    assert code == 0
    assert "Traceback" not in err
    assert ":-" not in out and out.endswith("p1499(a).\nh(a).\n")


def test_ground_output(capsys, tmp_path):
    src = tmp_path / "p.lp"
    src.write_text("q(a). q(b).\np(X) :- q(X).\n")
    code, out, _ = run_cli(capsys, "ground", str(src))
    assert code == 0
    assert out == "q(a).\nq(b).\np(a).\np(b).\n"


def test_stats_table(capsys, tmp_path):
    src = tmp_path / "p.lp"
    src.write_text("e(a,b).\n:- e(A,B), e(B,C), e(C,D), e(D,A), e(B,D).\n")
    code, out, _ = run_cli(capsys, "stats", str(src))
    assert code == 0
    assert out.startswith("rule 0: vars=4 width=2")


def test_rewrite_shift_from_reified(capsys, tmp_path):
    reified = tmp_path / "gp.lp"
    reified.write_text("atom(a). atom(b). rule(r0). head(r0,a). head(r0,b).\n")
    code, out, _ = run_cli(capsys, "rewrite", "shift", str(reified))
    assert code == 0
    assert "assign(A,1) :- atom(A), not assign(A,0)." in out
    assert "or(0,0,0)." in out


def test_rewrite_abduce_needs_id_files(capsys, tmp_path):
    reified = tmp_path / "gp.lp"
    reified.write_text("atom(a). rule(r0). head(r0,a).\n")
    code, _, err = run_cli(capsys, "rewrite", "abduce", str(reified))
    assert code == 2 and "--hyp" in err


def test_rewrite_abduce_full_flow(capsys, tmp_path):
    reified = tmp_path / "gp.lp"
    reified.write_text("atom(h). atom(m). rule(r0). head(r0,m). pos(r0,h).\n")
    hyp = tmp_path / "hyp.txt"
    hyp.write_text("h\n")
    man = tmp_path / "man.txt"
    man.write_text("m\n")
    code, out, _ = run_cli(
        capsys, "rewrite", "abduce", str(reified), "--hyp", str(hyp), "--man", str(man)
    )
    assert code == 0
    assert "hyp(h)." in out and "sat :- assign(m,1)." in out


def test_rewrite_abduce_unknown_long_id_is_clipped(capsys, tmp_path):
    reified = tmp_path / "gp.lp"
    reified.write_text("atom(h). atom(m). rule(r0). head(r0,m). pos(r0,h).\n")
    hyp = tmp_path / "hyp.txt"
    hyp.write_text("x" * 5000 + "\n")
    man = tmp_path / "man.txt"
    man.write_text("m\n")
    code, out, err = run_cli(
        capsys, "rewrite", "abduce", str(reified), "--hyp", str(hyp), "--man", str(man)
    )
    assert code == 2 and out == ""
    assert err.startswith("error: unknown atom id 'xxx")
    assert err.count("\n") == 1 and len(err) < 120
    assert "Traceback" not in err


def test_auto_rename_flag(capsys, tmp_path):
    src = tmp_path / "clash.lp"
    src.write_text("temp_0(a).\np(X) :- temp_0(X).\n")
    code, _, err = run_cli(capsys, "decompose", str(src))
    assert code == 2 and "reserved" in err
    code, out, _ = run_cli(capsys, "decompose", "--auto-rename", str(src))
    assert code == 0 and "p_temp_0(a)." in out


def test_auto_rename_without_reserved_names_changes_nothing(capsys, tmp_path):
    src = tmp_path / "rule.lp"
    src.write_text("h(X,W) :- e(X,Y), e(Y,Z), not e(Z,W), e(W,X).\n")
    plain = run_cli(capsys, "decompose", str(src))
    assert plain[0] == 0 and "temp_0_1" in plain[1]
    assert run_cli(capsys, "decompose", "--auto-rename", str(src)) == plain


def test_auto_rename_skips_a_name_already_taken(capsys, tmp_path):
    # p_temp_a is taken, so temp_a becomes p_p_temp_a.
    src = tmp_path / "clash.lp"
    src.write_text("temp_a(1). p_temp_a(2).\nq(X) :- temp_a(X), p_temp_a(Y), X < Y.\n")
    renamed = tmp_path / "renamed.lp"
    renamed.write_text("p_p_temp_a(1). p_temp_a(2).\nq(X) :- p_p_temp_a(X), p_temp_a(Y), X < Y.\n")
    got = run_cli(capsys, "decompose", "--auto-rename", str(src))
    assert got[0] == 0 and "p_p_temp_a(X)" in got[1]
    assert got == run_cli(capsys, "decompose", str(renamed))


@pytest.mark.parametrize(
    "mode, encode, text",
    [
        ("qbf2-classic", rewriters.qbf2_classic, "p cnf 3 2\na 1 0\ne 2 3 0\n1 -2 3 0\n-1 2 0\n"),
        ("qbf3", rewriters.qbf3_large_rule, "p cnf 3 2\ne 1 0\na 2 0\ne 3 0\n1 -2 3 0\n-1 2 -3 0\n"),
    ],
)
def test_rewrite_qbf_prints_the_library_encoding(capsys, tmp_path, mode, encode, text):
    src = tmp_path / "in.qdimacs"
    src.write_text(text)
    expected = print_program(encode(parse_qdimacs(text)))
    assert run_cli(capsys, "rewrite", mode, str(src)) == (0, expected, "")


def test_free_qdimacs_variables_join_a_trailing_exists_block(capsys, tmp_path):
    # Variable 3 is in no block, so it joins the innermost one, an exists.
    free = "p cnf 3 2\na 1 0\ne 2 0\n1 2 3 0\n-1 -3 0\n"
    bound = "p cnf 3 2\na 1 0\ne 2 3 0\n1 2 3 0\n-1 -3 0\n"
    with pytest.warns(QdimacsWarning, match="1 unbound variable"):
        assert parse_qdimacs(free).prefix == (("a", (1,)), ("e", (2, 3)))
    (tmp_path / "free.qdimacs").write_text(free)
    (tmp_path / "bound.qdimacs").write_text(bound)
    with pytest.warns(QdimacsWarning, match="1 unbound variable"):
        got = run_cli(capsys, "rewrite", "qbf2", str(tmp_path / "free.qdimacs"))
    assert got[0] == 0
    assert got == run_cli(capsys, "rewrite", "qbf2", str(tmp_path / "bound.qdimacs"))


def test_blank_lines_in_a_graph_file_are_skipped(capsys, tmp_path):
    plain = tmp_path / "plain.graph"
    plain.write_text(EX1_GRAPH)
    spaced = tmp_path / "spaced.graph"
    spaced.write_text("\n" + EX1_GRAPH.replace("\n", "\n\n  \n"))
    got = run_cli(capsys, "rewrite", "3col", str(spaced))
    assert got[0] == 0
    assert got == run_cli(capsys, "rewrite", "3col", str(plain))


def test_negating_an_undefined_predicate_keeps_an_aggregate_inside_the_fragment(capsys, tmp_path):
    # zz has neither facts nor rules: it is empty in every answer set, so n
    # has one extension in all of them and the aggregate may read it.
    src = tmp_path / "undefined.lp"
    src.write_text("q(c). n(W) :- q(W), not zz(W). ok :- #count{W : n(W)} >= 1.\n")
    assert run_cli(capsys, "solve", str(src)) == (10, "n(c) ok q(c)\n", "")
    code, out, _ = run_cli(capsys, "decompose", str(src))
    assert code == 0
    decomposed = tmp_path / "decomposed.lp"
    decomposed.write_text(out)
    assert run_cli(capsys, "solve", str(decomposed)) == (10, "n(c) ok q(c)\n", "")


def test_invalid_decomposition_is_an_internal_error(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(bigrule.decompose, "validate_td", lambda graph, td: (False, "boom"))
    src = tmp_path / "rule.lp"
    src.write_text("h(X,W) :- e(X,Y), e(Y,Z), not e(Z,W), e(W,X).\n")
    assert run_cli(capsys, "decompose", "--no-threshold", str(src)) == (
        1, "", "internal error: invalid decomposition produced: boom\n"
    )


def test_unhandled_command_is_an_internal_error(capsys, monkeypatch):
    class Parser:
        def parse_args(self, argv):
            return argparse.Namespace(command="nope")

    monkeypatch.setattr(cli, "_build_parser", Parser)
    assert run_cli(capsys) == (1, "", "internal error: unhandled command nope\n")


def test_solve_deterministic_output(capsys, tmp_path):
    src = tmp_path / "d.lp"
    src.write_text("a | b.\nc :- a.\nc :- b.\n")
    runs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "solve", str(src))
        assert code == 10
        runs.append(out)
    assert runs[0] == runs[1]
    assert runs[0].splitlines() == ["a c", "b c"]


def test_solve_keeps_answer_sets_of_a_contradictory_ground_body(capsys, tmp_path):
    # At X = Y = 1 the constraint's body can never hold, so the grounder
    # drops it; it once made p(1) false and lost {d(1), p(1)}. The fact
    # d(1) leaves the body of the disjunctive rule.
    src = tmp_path / "c.lp"
    src.write_text("d(1).\np(X) | q(X) :- d(X).\n:- p(X), d(Y), not p(Y), X = Y.\n")
    code, out, _ = run_cli(capsys, "ground", str(src))
    assert code == 0
    assert out.splitlines() == ["d(1).", "p(1) | q(1)."]
    code, out, _ = run_cli(capsys, "solve", str(src))
    assert code == 10
    assert out.splitlines() == ["d(1) p(1)", "d(1) q(1)"]


def test_decompose_deterministic_and_min_degree(capsys, tmp_path):
    # Min-fill is the one elimination order: repeats agree, and choosing an
    # order is a usage error.
    src = tmp_path / "r.lp"
    src.write_text(
        "e(a,b). e(b,c).\n:- e(A,B), e(B,C), e(C,D), e(D,A), e(B,D).\n"
    )
    outputs = set()
    for _ in range(2):
        code, out, err = run_cli(capsys, "decompose", "--no-threshold", str(src))
        assert code == 0 and "temp_" in out
        outputs.add((out, err))
    assert len(outputs) == 1
    for heuristic in ("min-fill", "min-degree"):
        with pytest.raises(SystemExit) as exc:
            main(["decompose", "--heuristic", heuristic, str(src)])
        assert exc.value.code == 2
        assert "--heuristic" in capsys.readouterr().err


def test_decompose_output_does_not_depend_on_the_hash_seed(tmp_path):
    # The dom rule for X reads U and V; securing them in the iteration
    # order of a set of names put b(V) first under one of these seeds.
    src = tmp_path / "r.lp"
    src.write_text("h :- a(U), b(V), X = U+V, not s(X,W), g(W,A), e(A,B), f(B,C).\n")
    outputs = []
    for seed in ("1", "3"):
        proc = subprocess.run(
            [sys.executable, "-m", "bigrule.cli", "decompose", "--no-threshold", str(src)],
            capture_output=True,
            text=True,
            env={**CHILD_ENV, "PYTHONHASHSEED": seed},
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert "dom_0_X(X) :- a(U), b(V), X = U+V.\n" in outputs[0]


def test_ground_and_solve_output_does_not_depend_on_the_hash_seed(tmp_path):
    # n(a) can never be derived, its negated atom f(b) being a fact, and m
    # reads n; both are inside the deterministic fragment, so they come out
    # as facts; the constraint's body can never hold; the aggregate counts
    # the derived n.
    src = tmp_path / "r.lp"
    src.write_text(
        "e(a,b). e(b,c). e(c,a). f(b).\n"
        "n(X) :- e(X,Y), not f(Y).\nm(X) :- n(X), e(X,Y).\np(X) | q(X) :- n(X).\n"
        ":- p(X), e(Y,Z), not p(Y), X = Y.\nk :- #count{X : n(X)} = 2.\n"
    )
    outputs = {}
    for command, code in (("ground", 0), ("solve", 10)):
        for seed in ("1", "3"):
            proc = subprocess.run(
                [sys.executable, "-m", "bigrule.cli", command, str(src)],
                capture_output=True,
                text=True,
                env={**CHILD_ENV, "PYTHONHASHSEED": seed},
            )
            assert proc.returncode == code, proc.stderr
            outputs.setdefault(command, []).append(proc.stdout)
    assert outputs["ground"][0] == outputs["ground"][1]
    assert outputs["solve"][0] == outputs["solve"][1]
    ground_text = outputs["ground"][0]
    assert "n(a)" not in ground_text and not any(
        line.startswith(":-") for line in ground_text.splitlines()
    )
    assert ground_text.endswith("n(b).\nn(c).\nm(b).\nm(c).\np(b) | q(b).\np(c) | q(c).\nk.\n")
    assert len(outputs["solve"][0].splitlines()) == 4


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO("p(a).\n"))
    code, out, _ = run_cli(capsys, "solve", "-")
    assert code == 10 and out == "p(a)\n"


@pytest.mark.parametrize(
    "argv, text, named",
    [
        (["check", "-", "-"], "a :- not b.\nb :- not a.\n", "program_a and program_b"),
        (
            ["rewrite", "abduce", "-", "--hyp", "-", "--man", "MAN"],
            "atom(h). atom(m). rule(r0). head(r0,m). pos(r0,h).\n",
            "input and --hyp",
        ),
    ],
    ids=["check", "abduce"],
)
def test_a_second_read_of_stdin_exit_2(capsys, monkeypatch, tmp_path, argv, text, named):
    # The first read would take all of stdin and the second see it empty:
    # `check` then compared a program against the empty one, and `abduce`
    # read no hypotheses.
    man = tmp_path / "man.txt"
    man.write_text("m\n")
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, err = run_cli(capsys, *[str(man) if a == "MAN" else a for a in argv])
    assert (code, out) == (2, "")
    assert err == f"error: standard input can be read only once, but {named} are both '-'\n"


def test_syntax_error_reported_before_unsafe_rule(capsys, monkeypatch):
    # The whole text parses before any rule is checked for safety.
    monkeypatch.setattr(sys, "stdin", io.StringIO("a(X) :- not b(X).\nc(.\n"))
    code, out, err = run_cli(capsys, "solve", "-")
    assert (code, out) == (1, "")
    assert err.startswith("error: line 2, col 3: ")


@pytest.mark.parametrize("from_stdin", [False, True])
def test_non_utf8_input_exit_1(tmp_path, from_stdin):
    data = b"p(a).\np(\xff).\n"
    bad = tmp_path / "bad.lp"
    bad.write_bytes(data)
    proc = subprocess.run(
        [sys.executable, "-m", "bigrule.cli", "solve", "-" if from_stdin else str(bad)],
        input=data,
        capture_output=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 1
    assert proc.stderr == b"error: input is not UTF-8: byte 0xff at byte offset 8\n"
    assert b"Traceback" not in proc.stderr


def test_carriage_returns_read_as_newlines(capsys, tmp_path):
    # A comment ends at a lone \r as it does at \n.
    src = tmp_path / "p.lp"
    src.write_bytes(b"% comment\rp(a).\r\nq :- p(a).\r")
    code, out, _ = run_cli(capsys, "solve", str(src))
    assert code == 10 and out == "p(a) q\n"


def test_output_file_option(capsys, tmp_path):
    src = tmp_path / "p.lp"
    src.write_text("p(a).\n")
    target = tmp_path / "out.txt"
    code, out, _ = run_cli(capsys, "-o", str(target), "solve", str(src))
    assert code == 10
    assert out == ""
    assert target.read_text() == "p(a)\n"


@pytest.mark.parametrize(
    "argv, path",
    [
        (["solve", "{missing}/p.lp"], "{missing}/p.lp"),
        (["-o", "{missing}/out.txt", "solve", "{src}"], "{missing}/out.txt"),
    ],
    ids=["missing-input", "missing-output-dir"],
)
def test_missing_file_exit_1(capsys, tmp_path, argv, path):
    src = tmp_path / "p.lp"
    src.write_text("p(a).\n")
    names = {"missing": tmp_path / "missing", "src": src}
    argv = [arg.format(**names) for arg in argv]
    assert run_cli(capsys, *argv) == (
        1, "", f"error: [Errno 2] No such file or directory: '{path.format(**names)}'\n"
    )


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "bigrule.cli", "--help"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert "decompose" in proc.stdout


# ------------------------------------------------------------- totality ----
#
# Program text from a small grammar: atoms with arithmetic arguments,
# equations, comparisons, negation, aggregates and deep terms. Products of
# variables may square a derived integer until it leaves the 64-bit range.

_VARS = ("X", "Y", "Z")
_term = st.recursive(
    st.sampled_from(_VARS + ("a", "b", "0", "1", "2", "-1")),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map("".join),
        st.tuples(inner, inner).map(lambda t: f"({t[0]})*({t[1]})"),
    ),
    max_leaves=4,
)
_deep_rule = st.sampled_from((1, 99, 100, 101, 3000)).flatmap(
    lambda d: st.sampled_from(("(" * d + "X" + ")" * d, "X" + "+1" * d))
).map("p(Y) :- q(X,Z), Y = {}.".format)


def _atoms(terms):
    return st.one_of(
        st.just("r"),
        st.builds("p({})".format, terms),
        st.builds("q({},{})".format, terms, terms),
    )


_atom = _atoms(_term)
_binding_atom = _atoms(st.sampled_from(_VARS + ("a", "1")))
_literal = st.one_of(_atom, _atom.map("not {}".format))
_comparison = st.builds(
    "{} {} {}".format, _term, st.sampled_from(("=", "!=", "<", "<=", ">", ">=")), _term
)
_equation = st.builds("{} = {}".format, st.sampled_from(_VARS), _term)
_aggregate = st.builds(
    "#{}{{{} : {}}} {} {}".format,
    st.sampled_from(("count", "sum", "min", "max")),
    st.sampled_from(_VARS),
    st.lists(_literal, min_size=1, max_size=2).map(", ".join),
    st.sampled_from(("=", "<", ">=")),
    _term,
)
_body = st.lists(
    st.one_of(_binding_atom, _binding_atom, _literal, _comparison, _equation, _aggregate),
    max_size=4,
)
_rule = st.builds(
    lambda head, body: f"{' | '.join(head)} :- {', '.join(body)}.",
    st.lists(_atom, max_size=2),
    _body,
)
_ground_term = st.sampled_from(("a", "1", "2", "-1", "1+1", "1/0", "a+1", "2*3"))
_fact = st.one_of(
    st.builds("p({}).".format, _ground_term),
    st.builds("q({},{}).".format, _ground_term, _ground_term),
)
_program = st.builds(
    lambda facts, rules, deep: "\n".join(facts + rules + deep) + "\n",
    st.lists(_fact, max_size=3),
    st.lists(_rule, min_size=1, max_size=3),
    st.lists(_deep_rule, max_size=1),
)

_COMMANDS = (
    ("ground", "--max-ground-rules", "500"),
    ("solve", "--max-atoms", "12", "--max-ground-rules", "500"),
    ("decompose",),
)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_program)
@example("r(1). p :- r(Y), #count{X : q(X+1)} >= 0.\n")
@example("q(3). p(X) :- q(X+1).\n")
@example("p(X) :- q(X+1).\n")
@example("q(3). r(1). p(X) :- q(X+1), r(Y), not s(X,Y), t(Y,Z), u(Z).\n")
@example("p(1+1). q(X) :- p(X).\n")
@example("p(1/0).\n")
@example("p(a+1).\n")
@example("p(" + "(" * 3000 + "1" + ")" * 3000 + ").\n")
@example("q(1). p(Y) :- q(X), Y = X" + "+1" * 3000 + ".\n")
@example(SQUARING)
@example(HUNDRED_FACTORS)
def test_every_program_gets_an_exit_code(tmp_path_factory, text):
    src = tmp_path_factory.mktemp("fuzz") / "p.lp"
    src.write_text(text)
    for command in _COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*command, str(src)])
        assert code in {0, 1, 2, 3, 4, 10, 20}, (command, code)
        assert "Traceback" not in err.getvalue()
        assert "internal error" not in err.getvalue()
