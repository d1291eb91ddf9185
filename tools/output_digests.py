"""Digests of every output the pipeline prints, per workload and seed.

    python3 tools/output_digests.py --seed 17 --seed 23
    python3 tools/output_digests.py --workload qbf2 --seed 17 --instances 3

Run from the root of a source checkout; bigrule is imported from `src/`.
The instances are those of the benchmark, drawn by `perfbench/gen.py` with
the settings in `perfbench/config.json`. Each instance goes through the
same stages as a benchmark pass (parse, the workload's rewriters, decompose,
ground, solve), and each line of output is the sha256 of one kind of
output, over all instances of one workload and seed, in instance order:

- `rewriter`: `print_program` of each rewriter output;
- `decompose`: `print_program` of each decomposed program, for both
  heuristics with the threshold on and off;
- `stats`: `StatsReport.render()` of the same four decompositions;
- `ground`: `print_ground_program` of the default decomposition's grounding;
- `atoms`: its atom table, each atom's `repr`, so `Integer(3)` and
  `Constant('c')` arguments stay apart;
- `source_map`: its `source_rule_map`, with the rule and atom counts;
- `answer_sets`: every answer set, as sorted atom indices.

Two checkouts that print the same lines produce byte-identical outputs on
those instances. The exit code is 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import gen  # noqa: E402  (benchmark-local, imports nothing from bigrule)
from bigrule import (  # noqa: E402
    answer_sets,
    decompose_program,
    disjunctive_to_normal,
    ground,
    parse_graph,
    parse_qdimacs,
    parse_reified,
    print_ground_program,
    print_program,
    qbf2_classic,
    qbf2_large_rule,
    threecol_single_rule,
)
from bigrule.parse import QdimacsWarning  # noqa: E402
from bigrule.treedecomp import HEURISTICS  # noqa: E402

# Workload -> (parser, rewriters), as in `perfbench/pipeline.py`.
WORKLOADS = {
    "col-grid": (parse_graph, (threecol_single_rule,)),
    "col-planted": (parse_graph, (threecol_single_rule,)),
    "qbf2": (parse_qdimacs, (qbf2_classic, qbf2_large_rule)),
    "shift": (parse_reified, (disjunctive_to_normal,)),
}
KINDS = ("rewriter", "decompose", "stats", "ground", "atoms", "source_map", "answer_sets")


def instance_outputs(text: str, parse, rewriters, caps: dict):
    """(kind, text) for every output of one instance."""
    parsed = parse(text)
    for rewrite in rewriters:
        program = rewrite(parsed)
        yield "rewriter", print_program(program)
        for heuristic in HEURISTICS:
            for threshold in (True, False):
                small, report = decompose_program(program, heuristic=heuristic,
                                                  threshold=threshold)
                yield "decompose", print_program(small)
                yield "stats", report.render()
        small, _ = decompose_program(program)
        result = ground(small, max_ground_rules=caps["max_ground_rules"])
        gp = result.ground_program
        yield "ground", print_ground_program(gp)
        yield "atoms", "\n".join(map(repr, gp.atoms))
        yield "source_map", repr((result.rule_count, result.atom_count,
                                  sorted(result.source_rule_map.items())))
        found = answer_sets(gp, max_atoms=caps["max_atoms"])
        yield "answer_sets", repr(sorted(sorted(s.true_atoms) for s in found))


def digests(workload: str, seed: int, instances: int | None = None) -> dict[str, str]:
    """Kind -> sha256 hex digest over the first `instances` instances (all
    when None) of `workload` at `seed`."""
    config = json.loads((BENCH_DIR / "config.json").read_text(encoding="utf-8"))
    spec = dict(config["workloads"][workload])
    if instances is not None:
        spec["instances"] = min(instances, spec["instances"])
    parse, rewriters = WORKLOADS[workload]
    hashes = {kind: hashlib.sha256() for kind in KINDS}
    for inst in gen.make_instances(workload, seed, spec):
        for kind, text in instance_outputs(inst.text, parse, rewriters, config["caps"]):
            # Each output is framed by its length, so texts cannot run together.
            data = text.encode("utf-8")
            hashes[kind].update(b"%d:" % len(data) + data)
    return {kind: h.hexdigest() for kind, h in hashes.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                    help="workload to digest (repeatable; default: all)")
    ap.add_argument("--seed", action="append", type=int,
                    help="instance seed (repeatable; default: 17)")
    ap.add_argument("--instances", type=int, default=None,
                    help="digest only the first N instances of each workload")
    args = ap.parse_args(argv)
    warnings.simplefilter("ignore", QdimacsWarning)  # tautologies in random CNFs
    for workload in args.workload or sorted(WORKLOADS):
        for seed in args.seed or [17]:
            for kind, digest in digests(workload, seed, args.instances).items():
                print(f"{workload} seed={seed} {kind} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
