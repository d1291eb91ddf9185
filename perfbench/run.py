"""Pipeline benchmark for bigrule: time from instance text to checked verdict.

    python3 perfbench/run.py --workload col-grid --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`. One run generates a seeded instance set, serialises it to text, and
then, for about `--seconds` seconds, repeats complete passes over the set,
each instance going parse -> rewriters -> decompose -> oracle ground ->
oracle solve. Afterwards every verdict is checked against an independent
brute-force reference (untimed), and the work counts of every pass are
compared with each other and with an earlier run of the same code and seed.

Timings are in reference seconds: each wall time is scaled by how fast a
fixed calibration loop ran just before and after it (see `gauge`), which
cancels most of the speed swings of a shared host. The wall-clock figures
are kept in the details. Per-layer self times are wall seconds: compare
their shares within one run.

With `--trace 0` the last line of standard output carries the end-to-end
metrics of BENCHMARK.json; with `--trace 1` it carries the per-layer metrics:
self times from traced passes (alternating with untraced ones, whose
difference is the tracing overhead), failures per layer, work counts, and
peak allocations from a separate tracemalloc pass. Full results and the
spans go to `perfbench/out/`. The exit code is 1 when a verdict is wrong or
a count does not repeat.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

SETUP_REPEATS = 9  # fresh interpreters timed for setup_s
SETUP_GAUGE_REPEATS = 5  # calibration runs in each gauge around a set-up
REFERENCE_S = 0.001  # seconds per calibration_work that timings are scaled to
MEMORY_INSTANCES = 1  # instances rerun under tracemalloc, largest first

sys.path.insert(0, str(BENCH_DIR))
import gen  # noqa: E402  (benchmark-local, imports nothing from bigrule)


def import_program():
    """Import bigrule from this checkout's sources, never from elsewhere."""
    if not (SRC / "bigrule" / "__init__.py").is_file():
        sys.exit(f"perfbench: no bigrule sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import bigrule

    if Path(bigrule.__file__).resolve().parent != SRC / "bigrule":
        sys.exit(f"perfbench: imported bigrule from {bigrule.__file__}, not {SRC}")


def calibration_work() -> int:
    """A fixed piece of pure-Python work that uses no bigrule code: tuples,
    dict and set building, sorting. About a millisecond."""
    table: dict = {}
    for i in range(1500):
        table.setdefault((i % 61, i % 7), []).append(i)
    return sum(len({x & 15 for x in row}) for _, row in sorted(table.items()))


def gauge(repeats: int) -> float:
    """Seconds per `calibration_work` right now, over `repeats` runs.

    On a shared 2-vCPU VM, other tenants of the host slowed the cores by up
    to 1.8x, in swings lasting from milliseconds to minutes, and moved wall
    times from run to run by 20-35%. Every timing is therefore taken
    between two gauges and scaled by REFERENCE_S over their mean: it is
    reported in seconds at the speed where `calibration_work` takes
    REFERENCE_S. The program under test does not run in the gauge, so a
    change to it moves only the timings."""
    start = time.perf_counter()
    for _ in range(repeats):
        calibration_work()
    return (time.perf_counter() - start) / repeats


def scaled(seconds: float, before: float, after: float) -> float:
    """Wall seconds between gauges `before` and `after`, in reference seconds."""
    return seconds * REFERENCE_S * 2 / (before + after)


def setup_once(workload: str, seed: int, config: dict) -> float:
    """Reference seconds to import the program, generate the instance set
    and serialise it to text."""
    before = gauge(SETUP_GAUGE_REPEATS)
    start = time.perf_counter()
    import_program()
    import pipeline  # noqa: F401  (imports every library module a run uses)

    gen.make_instances(workload, seed, config["workloads"][workload])
    elapsed = time.perf_counter() - start
    return scaled(elapsed, before, gauge(SETUP_GAUGE_REPEATS))


def setup_sampler(workload: str, seed: int, samples: list[float]):
    """A function of the share of the window gone by that times
    `setup_once` in fresh interpreters until `samples` holds that share of
    SETUP_REPEATS. Called between passes, it spreads the samples over the
    run, so that one slow stretch of the host cannot move their median."""

    def catch_up(share: float):
        while len(samples) < min(1.0, share) * SETUP_REPEATS:
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--setup-probe"],
                capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
            )
            samples.append(float(done.stdout.split()[-1]))

    return catch_up


def failed_layer(exc: BaseException, layer_of: dict) -> str:
    """The layer an exception escaped from: the outermost bigrule function
    on its traceback, or treedecomp when that module is on it."""
    layer = "perfbench"
    tb = exc.__traceback__
    while tb is not None:
        module = tb.tb_frame.f_globals.get("__name__", "")
        if module == "bigrule.treedecomp":
            return "treedecomp"
        if module.startswith("bigrule") and layer == "perfbench":
            layer = layer_of.get(tb.tb_frame.f_code.co_name, module.split(".")[-1])
        tb = tb.tb_next
    return layer


def count_qdimacs_warnings(category) -> list[int]:
    """QdimacsWarning flags tautological clauses, which the generator draws
    on purpose: count them instead of printing one per instance."""
    seen = [0]
    show = warnings.showwarning

    def record(message, cat, *args, **kwargs):
        if issubclass(cat, category):
            seen[0] += 1
        else:
            show(message, cat, *args, **kwargs)

    warnings.simplefilter("always", category)
    warnings.showwarning = record
    return seen


def run_window(decide, instances, caps, seconds, pipeline, tracer, warned, between, gauge_repeats):
    """Complete passes over the instances for about `seconds` seconds. A
    traced run alternates untraced and traced passes. After each pass,
    `between` gets the share of the window gone by. Returns one entry per
    pass: (traced, outcomes, QdimacsWarnings seen, gauges), where an outcome
    is (wall seconds, verdict, counts, None) or (wall seconds, None, None,
    (layer, class)), and gauges holds `gauge(gauge_repeats)` before each
    instance and after the last. Also returns the peak RSS in MB after the
    first pass: the program has met every instance by then, and later
    passes only add the benchmark's own records."""
    plain = pipeline.Layers()
    passes = []
    start_window = time.perf_counter()
    while True:
        gc.collect()  # garbage of the previous pass is not this pass's cost
        traced = tracer is not None and len(passes) % 2 == 1
        layers = tracer.layers if traced else plain
        saved = tracer.patch_treedecomp() if traced else None
        warned[0] = 0
        outcomes = []
        speed = []
        try:
            for i, inst in enumerate(instances):
                if traced:
                    tracer.instance = i
                speed.append(gauge(gauge_repeats))
                start = time.perf_counter()
                try:
                    verdict, stages = decide(layers, inst.text, caps)
                except Exception as exc:  # counted per layer; a failure never aborts the run
                    failure = (failed_layer(exc, pipeline.LAYER_OF), type(exc).__name__)
                    outcomes.append((time.perf_counter() - start, None, None, failure))
                    continue
                elapsed = time.perf_counter() - start
                outcomes.append((elapsed, verdict, pipeline.stage_counts(stages), None))
        finally:
            if saved is not None:
                tracer.restore_treedecomp(saved)
        speed.append(gauge(gauge_repeats))
        passes.append((traced, outcomes, warned[0], speed))
        if len(passes) == 1:
            first_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        between((time.perf_counter() - start_window) / seconds)
        # Start another pass if at least half of it fits, so a window lasts
        # `seconds` on average. A traced run needs both kinds of pass.
        elapsed = time.perf_counter() - start_window
        last = sum(o[0] for o in outcomes)
        if (tracer is None or len(passes) >= 2) and elapsed + last / 2 > seconds:
            return passes, first_rss_mb


def run_references(reference, instances, caps, layers, tracer):
    """Expected verdicts from the brute-force references, untimed. Returns
    (expected, problems), problem being None or why no verdict exists."""
    expected, problems = [], []
    for i, inst in enumerate(instances):
        if tracer:
            tracer.instance = i
        try:
            want, problem = reference(layers, inst.data, caps)
        except Exception as exc:  # an instance without reference counts as failed
            want, problem = None, f"{type(exc).__name__}: {exc}"
        expected.append(want)
        problems.append(problem)
    return expected, problems


def verify(workload, passes, expected, problems):
    """Mark every attempt verified or failed. Returns (verified per pass and
    instance, failures per layer, failures per class, mismatches)."""
    by_layer: dict[str, int] = {}
    by_class: dict[str, int] = {}
    mismatches = 0
    verified = []
    for _, outcomes, _, _ in passes:
        verified.append([])
        for i, (_, verdict, _, failure) in enumerate(outcomes):
            if failure is None and problems[i] is not None:
                failure = ("oracle.ref", "ReferenceFailed")
            elif failure is None:
                wrong = verdict != expected[i]
                if workload == "qbf2":  # the two encodings must also agree
                    wrong = wrong or verdict[0] != verdict[1]
                if wrong:
                    failure = ("oracle.solve", "VerdictMismatch")
                    mismatches += 1
            verified[-1].append(failure is None)
            if failure is not None:
                by_layer[failure[0]] = by_layer.get(failure[0], 0) + 1
                by_class[failure[1]] = by_class.get(failure[1], 0) + 1
    return verified, by_layer, by_class, mismatches


def code_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.glob("bigrule/*.py")) + sorted(BENCH_DIR.glob("*.py")) + [BENCH_DIR / "config.json"]:
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_determinism(workload, seed, pipeline, passes) -> tuple[dict, list[str]]:
    """The work counts of the first pass, and the ways they failed to
    repeat: in a later pass, or in an earlier run of this code and seed."""
    per_pass = []
    for _, outcomes, _, _ in passes:
        total: dict[str, int] = {}
        for _, _, counts, _ in outcomes:
            if counts is not None:
                pipeline.merge_counts(total, counts)
        per_pass.append(total)
    counts = per_pass[0]
    errors = [f"pass {k} counts differ from pass 0" for k, c in enumerate(per_pass) if c != counts]
    warned = [w for _, _, w, _ in passes]
    if len(set(warned)) > 1:
        errors.append(f"QdimacsWarning counts differ between passes: {warned}")
    OUT.mkdir(exist_ok=True)
    record = OUT / f"counts-{workload}-seed{seed}-{code_hash()}.json"
    if record.exists():
        earlier = json.loads(record.read_text())
        changed = sorted(k for k in set(earlier) | set(counts) if earlier.get(k) != counts.get(k))
        if changed:
            errors.append(f"counts differ from an earlier run with this seed: {changed}")
    else:
        tmp = record.with_suffix(".tmp")
        tmp.write_text(json.dumps(counts, sort_keys=True))
        os.replace(tmp, record)
    return counts, errors


def end_to_end(instances, passes, verified, counts, setup, rss_mb):
    """The end-to-end metrics (untraced run) and details about them."""
    # An instance's latency is the median over the passes that decided it
    # of its time scaled by the gauges around it.
    latency, wall = {}, {}
    for i in range(len(instances)):
        runs = [(o[i][0], g[i], g[i + 1]) for (_, o, _, g), ok in zip(passes, verified) if ok[i]]
        if runs:
            latency[i] = statistics.median(scaled(*run) for run in runs)
            wall[i] = statistics.median(run[0] for run in runs)
    ranked = sorted(latency.values())
    # The 90th percentile. Higher ones follow the few hardest instances a
    # seed happens to draw: on qbf2 the 95th moved by 30% from seed to seed.
    tail = math.ceil(0.9 * len(ranked)) - 1
    by_shape: dict[str, list[float]] = {}
    for i, seconds in latency.items():
        by_shape.setdefault(instances[i].label, []).append(seconds)
    metrics = {
        "setup_s": statistics.median(setup),
        "latency_p50_s": statistics.median(ranked),
        "latency_tail_s": ranked[tail],
        # One pass over the decided instances at each one's latency.
        "throughput_ips": len(ranked) / sum(ranked),
        "peak_rss_mb": rss_mb,
        "ground_rules": counts.get("ground_rules", 0),
    }
    gauges = [g for _, _, _, speed in passes for g in speed]
    details = {
        "setup_samples_s": setup,
        "latency_tail_pct": 100.0 * (tail + 1) / len(ranked),
        "latency_tail_beyond": len(ranked) - 1 - tail,
        "latency_instances": len(ranked),
        "latency_attempts": sum(sum(ok) for ok in verified),
        "latency_by_shape_s": {k: statistics.median(v) for k, v in sorted(by_shape.items())},
        "gauge_median_s": statistics.median(gauges),
        "wall_latency_p50_s": statistics.median(wall.values()),
        "wall_throughput_ips": len(wall) / sum(wall.values()),
        "samples_wall_s": [[o[i][0] for _, o, _, _ in passes] for i in range(len(instances))],
        "gauges_s": [speed for _, _, _, speed in passes],
    }
    return metrics, details


def memory_pass(decide, instances, counts_of, caps, pipeline):
    """Peak tracemalloc allocation per layer over the instances with the
    most ground rules. tracemalloc slows the program many times over, so
    this pass is never timed."""
    chosen = sorted(
        (i for i in range(len(instances)) if counts_of[i] is not None),
        key=lambda i: (-counts_of[i].get("ground_rules", 0), i),
    )[:MEMORY_INSTANCES]
    probe = pipeline.MemoryProbe()
    tracemalloc.start()
    try:
        for i in chosen:
            try:
                decide(probe.layers, instances[i].text, caps)
            except Exception:  # already counted in the timed passes
                pass
    finally:
        tracemalloc.stop()
    return probe.peak_mb, [instances[i].label for i in chosen]


def per_layer(instances, passes, tracer, ref_first_span, counts, by_layer, failed, attempted, pipeline):
    """The per-layer metrics (traced run), without the memory pass."""
    n_traced = sum(1 for traced, _, _, _ in passes if traced)
    timed_spans = tracer.self_times(0, ref_first_span)
    ref_spans = tracer.self_times(ref_first_span, len(tracer.spans))
    metrics: dict[str, float] = {}
    for layer in pipeline.LAYERS:
        if layer == "oracle.ref":
            metrics["oracle.ref.self_s"] = ref_spans.get(layer, 0.0)
        else:
            metrics[f"{layer}.self_s"] = timed_spans.get(layer, 0.0) / n_traced
        metrics[f"{layer}.failed"] = by_layer.get(layer, 0)
    for layer in ("oracle.ground", "oracle.solve"):
        for tag in ("classic", "large"):
            metrics[f"{layer}.self_s.{tag}"] = timed_spans.get(f"{layer}@{tag}", 0.0) / n_traced
    metrics["failed_share"] = failed / attempted
    metrics["qdimacs_warnings"] = passes[0][2]
    for key in ("rewriters.max_body", "decompose.width_max", "decompose.rules_out",
                "decompose.est_after", "oracle.ground.atoms", "oracle.solve.calls",
                "oracle.solve.atoms_max", "oracle.solve.answer_sets"):
        metrics[key] = counts.get(key, 0)
    est = counts.get("decompose.est_after", 0)
    metrics["oracle.ground.actual_over_est"] = counts.get("ground_rules", 0) / est if est else 0.0
    for key in ("ground_rules", "oracle.ground.atoms", "oracle.solve.atoms_max", "oracle.solve.answer_sets"):
        for tag in ("classic", "large"):
            metrics[f"{key}.{tag}"] = counts.get(f"{key}@{tag}", 0)

    # Overhead: summed per-instance medians of traced minus untraced
    # passes, in reference seconds (see `gauge`).
    def pass_time(kind):
        runs = [(o, g) for traced, o, _, g in passes if traced == kind]
        return sum(statistics.median(scaled(o[i][0], g[i], g[i + 1]) for o, g in runs)
                   for i in range(len(instances)))

    traced_s, plain_s = pass_time(True), pass_time(False)
    metrics["trace.overhead_s"] = traced_s - plain_s
    metrics["trace.overhead_share"] = (traced_s - plain_s) / plain_s
    busy = sum(metrics[f"{layer}.self_s"] for layer in pipeline.LAYERS if layer != "oracle.ref")
    details = {"layer_share": {
        layer: metrics[f"{layer}.self_s"] / busy for layer in pipeline.LAYERS if layer != "oracle.ref"
    }}
    return metrics, details


def main() -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    config = json.loads((BENCH_DIR / "config.json").read_text())
    if args.setup_probe:
        print(f"{setup_once(args.workload, args.seed, config):.9f}")
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_program()
    import pipeline
    from bigrule.parse import QdimacsWarning

    instances = gen.make_instances(args.workload, args.seed, config["workloads"][args.workload])
    own_setup_s = time.perf_counter() - started
    setup: list[float] = []
    between = (lambda share: None) if args.trace else setup_sampler(args.workload, args.seed, setup)
    caps = config["caps"]
    decide, reference = pipeline.WORKLOADS[args.workload]
    warned = count_qdimacs_warnings(QdimacsWarning)
    tracer = pipeline.Tracer() if args.trace else None

    window_start = time.perf_counter()
    passes, rss_mb = run_window(decide, instances, caps, args.seconds, pipeline, tracer, warned,
                                between, config["workloads"][args.workload]["gauge_repeats"])
    between(1.0)
    window_s = time.perf_counter() - window_start
    ref_first_span = len(tracer.spans) if tracer else 0
    ref_start = time.perf_counter()
    expected, problems = run_references(
        reference, instances, caps, tracer.layers if tracer else pipeline.Layers(), tracer
    )
    reference_s = time.perf_counter() - ref_start
    verified, by_layer, by_class, mismatches = verify(args.workload, passes, expected, problems)
    counts, determinism_errors = check_determinism(args.workload, args.seed, pipeline, passes)
    for line in determinism_errors:
        print(f"perfbench: DETERMINISM FAILURE: {line}", file=sys.stderr)
    attempted = sum(len(outcomes) for _, outcomes, _, _ in passes)
    failed = sum(by_layer.values())
    if failed == attempted:
        print(f"perfbench: no instance was decided: {by_class}", file=sys.stderr)
        return 1

    details: dict = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "instances": len(instances), "passes": len(passes), "window_s": window_s,
        "own_setup_s": own_setup_s, "reference_s": reference_s,
        "failure_classes": by_class,
        "reference_problems": sorted({p for p in problems if p}),
        "determinism_errors": determinism_errors,
        "counts": counts,
    }
    if tracer is None:
        metrics, more = end_to_end(instances, passes, verified, counts, setup, rss_mb)
    else:
        metrics, more = per_layer(instances, passes, tracer, ref_first_span, counts,
                                  by_layer, failed, attempted, pipeline)
        memory_start = time.perf_counter()
        peaks, chosen = memory_pass(decide, instances, [o[2] for o in passes[0][1]], caps, pipeline)
        more.update(memory_pass_s=time.perf_counter() - memory_start, memory_instances=chosen)
        for layer in ("decompose", "oracle.ground", "oracle.solve"):
            metrics[f"{layer}.peak_mb"] = peaks.get(layer, 0.0)
        for layer in ("oracle.ground", "oracle.solve"):
            for tag in ("classic", "large"):
                metrics[f"{layer}.peak_mb.{tag}"] = peaks.get(f"{layer}@{tag}", 0.0)
        (OUT / f"{args.workload}-seed{args.seed}-spans.json").write_text(json.dumps({
            "fields": ["layer", "tag", "start", "end", "parent", "instance"],
            "spans": tracer.spans,
        }))
    details.update(more)

    wanted = spec["per_layer"] if tracer else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"perfbench: metrics not produced: {missing}", file=sys.stderr)
        return 1
    result = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = not mismatches and not determinism_errors and not any(problems)
    details["metrics"] = result
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1, sort_keys=True)
    )
    for key in sorted(k for k in details if k != "metrics"):
        print(f"# {key}: {json.dumps(details[key], sort_keys=True)}")
    for name, entry in result.items():
        print(f"# {name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
