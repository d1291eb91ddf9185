"""Smoke test of `tools/output_digests.py`, the byte-identity check of every
pipeline output: on the first three instances of each benchmark workload
it prints one digest per workload and kind of output, repeatably, in well
under five seconds."""

import importlib.util
import re
import time
from pathlib import Path

TOOL = Path(__file__).parent.parent / "tools" / "output_digests.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("output_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_output_digests_cover_every_workload_quickly(capsys):
    tool = load_tool()
    start = time.perf_counter()
    assert tool.main(["--instances", "3", "--seed", "17"]) == 0
    elapsed = time.perf_counter() - start
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:3] for line in lines] == [
        [workload, "seed=17", kind] for workload in sorted(tool.WORKLOADS) for kind in tool.KINDS
    ]
    assert all(re.fullmatch(r"[0-9a-f]{64}", line.split()[3]) for line in lines)
    assert elapsed < 5, elapsed
    again = tool.digests("qbf2", 17, 3)
    assert [f"qbf2 seed=17 {kind} {digest}" for kind, digest in again.items()] == [
        line for line in lines if line.startswith("qbf2 ")
    ]
