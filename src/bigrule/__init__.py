"""Large-rule ASP encodings, tree-decomposition rule splitting, and an
exact desk-scale answer-set oracle."""

from .decompose import (
    FreshNamer,
    RuleStats,
    StatsReport,
    decompose_program,
    decompose_rule,
    grounding_estimate,
    rename_reserved,
    split_aggregate,
    synthesize_dom_rules,
)
from .oracle import (
    GroundingResult,
    abduce_bruteforce,
    answer_sets,
    answer_sets_naive,
    eval_qbf,
    eval_qbf_expansion,
    ground,
    has_answer_set,
    solve_coloring,
)
from .parse import (
    Clause,
    InputGraph,
    Qbf,
    emit_qdimacs,
    emit_reified,
    make_graph,
    parse_graph,
    parse_program,
    parse_qdimacs,
    parse_reified,
    print_ground_program,
    print_program,
)
from .rewriters import (
    AbductionInstance,
    abduction_encoding,
    disjunctive_to_normal,
    qbf2_classic,
    qbf2_large_rule,
    qbf3_large_rule,
    threecol_second_level,
    threecol_single_rule,
)
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
    Literal,
    Program,
    Rule,
    Variable,
    is_safe,
    variables_of,
)
from .treedecomp import (
    GaifmanGraph,
    TreeDecomposition,
    decompose_graph,
    exact_treewidth,
    gaifman,
    root_at_head,
    validate_td,
)

__version__ = "0.1.0"
