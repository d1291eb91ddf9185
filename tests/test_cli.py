import subprocess
import sys

import pytest

from bigrule.cli import main

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
    src.write_text("e(a,b). e(b,c).\nh(X,W) :- e(X,Y), e(Y,Z), not e(Z,W), e(W,X).\n")
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


def test_limit_error_exit_4(capsys, tmp_path):
    src = tmp_path / "big.lp"
    src.write_text("p(1).\np(Y) :- p(X), Y = X+1.\n")
    code, _, err = run_cli(capsys, "ground", "--max-ground-rules", "40", str(src))
    assert code == 4
    assert "exceeds" in err
    assert "rule 0 `p(Y) :- p(X), Y = X+1.`" in err


def test_ground_large_body_exit_0(capsys, tmp_path):
    from test_oracle import large_body_text

    src = tmp_path / "large.lp"
    src.write_text(large_body_text())
    code, out, err = run_cli(capsys, "ground", str(src))
    assert code == 0
    assert "Traceback" not in err
    assert out.count(":-") == 1 and "h(a) :- p0(a)," in out


def test_ground_output(capsys, tmp_path):
    src = tmp_path / "p.lp"
    src.write_text("q(a). q(b).\np(X) :- q(X).\n")
    code, out, _ = run_cli(capsys, "ground", str(src))
    assert code == 0
    assert "p(a) :- q(a)." in out and "p(b) :- q(b)." in out


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


def test_rewrite_abduce_require_consistent_not_provided(capsys, tmp_path):
    reified = tmp_path / "gp.lp"
    reified.write_text("atom(a). rule(r0). head(r0,a).\n")
    hyp = tmp_path / "hyp.txt"
    hyp.write_text("a\n")
    man = tmp_path / "man.txt"
    man.write_text("")
    code, _, err = run_cli(
        capsys,
        "rewrite",
        "abduce",
        str(reified),
        "--hyp",
        str(hyp),
        "--man",
        str(man),
        "--require-consistent",
    )
    assert code == 2 and "no encoding" in err


def test_auto_rename_flag(capsys, tmp_path):
    src = tmp_path / "clash.lp"
    src.write_text("temp_0(a).\np(X) :- temp_0(X).\n")
    code, _, err = run_cli(capsys, "decompose", str(src))
    assert code == 2 and "reserved" in err
    code, out, _ = run_cli(capsys, "decompose", "--auto-rename", str(src))
    assert code == 0 and "p_temp_0(a)." in out


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


def test_decompose_deterministic_and_min_degree(capsys, tmp_path):
    src = tmp_path / "r.lp"
    src.write_text(
        "e(a,b). e(b,c).\n:- e(A,B), e(B,C), e(C,D), e(D,A), e(B,D).\n"
    )
    outputs = set()
    for heuristic in ("min-fill", "min-degree", "min-fill"):
        code, out, err = run_cli(
            capsys, "decompose", "--heuristic", heuristic, "--seed", "7", str(src)
        )
        assert code == 0
        outputs.add((heuristic, out, err))
    by_heuristic = {}
    for heuristic, out, err in outputs:
        by_heuristic.setdefault(heuristic, set()).add((out, err))
    assert all(len(v) == 1 for v in by_heuristic.values())


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO("p(a).\n"))
    code, out, _ = run_cli(capsys, "solve", "-")
    assert code == 10 and out == "p(a)\n"


def test_output_file_option(capsys, tmp_path):
    src = tmp_path / "p.lp"
    src.write_text("p(a).\n")
    target = tmp_path / "out.txt"
    code, out, _ = run_cli(capsys, "-o", str(target), "solve", str(src))
    assert code == 10
    assert out == ""
    assert target.read_text() == "p(a)\n"


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "bigrule.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "decompose" in proc.stdout
