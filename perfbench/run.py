"""braidinv benchmark: one workload, one seed, one run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload oracle_sweep --seed 1 --seconds 20 --trace 0

Each workload is a closed loop in this process: one item is computed and
checked before the next starts.  Inputs are drawn from --seed before timing
starts, and a pass is sized to take about --seconds at the baseline.  Times
are CPU times, which on a shared machine vary far less than wall times for
the same work (perfbench/metrics.json says why and defines every metric).
Set-up is timed in fresh processes (perfbench/probe.py).  The last line of
stdout is one JSON object; the lines before it record the input shape, the
machine and each metric by name and unit.

With --trace 0 the end-to-end metrics are reported.  With --trace 1 the pass
is split into two matched halves: one runs plain, the other under the span
tracer (perfbench/spans.py), and the per-layer metrics are reported for the
traced half.  Spans are written to perfbench/out/<workload>.spans.jsonl.
"""

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
SETUP_PROBES = 5
MAX_PASS_S = 120  # no new item starts after this, to bound a much slower build
ROUTES = ("gauss", "burau", "skein", "sequences")
SPAN_METRICS = {
    # metric: (span name, True for self time, False for time less other layers)
    "braids.closure_components_s": ("braids.closure_components", False),
    "gauss.from_braid_closure_s": ("gauss.from_braid_closure", False),
    "gauss.rebase_s": ("gauss.rebase", False),
    "gauss.delete_arrows_s": ("gauss.delete_arrows", False),
    "gauss.isomorphic_unbased_s": ("gauss.isomorphic_unbased", False),
    "gauss.canonical_code_s": ("gauss.canonical_code", False),
    "counting.count_pattern_s": ("counting.count_pattern", False),
    "polynomials.reduced_burau_s": ("polynomials.reduced_burau", False),
    "polynomials.alexander_tail_s": ("polynomials.alexander_of_closure", True),
    "polynomials.conway_from_alexander_s": ("polynomials.conway_from_alexander", False),
    "polynomials.conway_skein_s": ("polynomials.conway_skein", False),
    "sequences.lucas_s": ("sequences.lucas", False),
    "sequences.wheel_spanning_trees_s": ("sequences.wheel_spanning_trees", False),
    "cli.braid_invariants_self_s": ("cli.braid_invariants", True),
}
COUNT_METRICS = (
    "gauss.arrows",
    "gauss.gaps_rebased",
    "polynomials.burau_terms",
    "polynomials.alexander_span",
    "polynomials.coeff_bits_max",
    "polynomials.matrix_dim",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def setup_seconds(workload: str) -> float:
    """Median over fresh processes of importing braidinv plus one warm-up item."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "probe.py"), workload],
            capture_output=True, text=True, timeout=60,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        samples.append(float(done.stdout))
    return statistics.median(samples)


def input_shape(workload: str, seed: int, items) -> dict:
    uses = [w for item in items for w in item.words]
    letters = sorted(len(w) for w in uses)
    return {
        "workload": workload,
        "seed": seed,
        "items": len(items),
        "word_uses": len(uses),
        "strands": {str(k): v for k, v in sorted(Counter(w.strands for w in uses).items())},
        "letters": {"min": letters[0], "p50": statistics.median(letters), "max": letters[-1]},
        "distinct_word_share": len({(w.strands, w.letters) for w in uses}) / len(uses),
    }


def cpu_seconds() -> float:
    """CPU time of this process and of the child processes it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def run_pass(items, traced=frozenset(), tracer=None) -> dict:
    """Compute and check each item in order; CPU durations split by plain/traced."""
    durations = ([], [])
    checked, route_failed = Counter(), Counter()
    failed = 0
    start = time.perf_counter()
    for i, item in enumerate(items):
        if time.perf_counter() - start > MAX_PASS_S:
            print(f"pass cut after {i} of {len(items)} items at {MAX_PASS_S} s", file=sys.stderr)
            break
        t0 = cpu_seconds()
        try:
            checks = tracer.run_item(i, item) if i in traced else item.run()
        except Exception:
            checks = None
            if failed < 3:
                traceback.print_exc()
        durations[i in traced].append(cpu_seconds() - t0)
        if not checks or not all(checks.values()):
            failed += 1
        for route, ok in (checks or {}).items():
            checked[route] += 1
            route_failed[route] += not ok
    return {
        "plain": durations[0],
        "traced": durations[1],
        "attempted": len(durations[0]) + len(durations[1]),
        "failed": failed,
        "checked": checked,
        "route_failed": route_failed,
    }


def end_to_end(result: dict, setup_s: float) -> dict:
    times = result["plain"]
    attempted = result["attempted"]
    return {
        "setup_s": (setup_s, "s"),
        "items_per_s": (len(times) / sum(times), "1/s"),
        "item_p50_ms": (1000 * statistics.median(times), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ratio": ((attempted - result["failed"]) / attempted, "ratio"),
    }


def tail_line(times) -> str:
    """The p90 item time, reported only with at least ten samples beyond it."""
    if len(times) < 100:
        return f"item_p90_ms n/a (needs 100 items, have {len(times)})"
    p90 = statistics.quantiles(times, n=10)[-1]
    return f"item_p90_ms {1000 * p90:.4f} ms (of {len(times)} items)"


def per_layer(result: dict, tracer) -> dict:
    from spans import LAYER_NAMES

    in_layer, own = tracer.times()
    metrics = {
        name: ((own if is_self else in_layer).get(span, 0.0), "s")
        for name, (span, is_self) in SPAN_METRICS.items()
    }
    for layer in LAYER_NAMES:
        total = sum((t for name, t in own.items() if name.startswith(layer + ".")), 0.0)
        metrics[f"{layer}.self_s"] = (total, "s")
    traced, plain = result["traced"], result["plain"]
    metrics["trace.item_s"] = (sum(traced), "s")
    metrics["trace.overhead_ratio"] = (
        (len(plain) / sum(plain)) / (len(traced) / sum(traced)), "ratio")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    for name in COUNT_METRICS:
        metrics[name] = (tracer.counts.get(name, 0), "count")
    for route in ROUTES:
        metrics[f"cli.items_checked.{route}"] = (result["checked"][route], "count")
        metrics[f"cli.items_failed.{route}"] = (result["route_failed"][route], "count")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "braidinv", "__init__.py")):
        print(f"perfbench: braidinv sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    rng = random.Random(args.seed)
    items = workloads.WORKLOADS[args.workload].make(rng, args.seconds)
    print("input", json.dumps(input_shape(args.workload, args.seed, items)))
    print("machine", json.dumps({"nproc": os.cpu_count(), "python": platform.python_version(),
                                 "implementation": platform.python_implementation()}))

    if args.trace:
        from spans import Tracer

        # Pair items of adjacent size and trace one of each pair, so the
        # plain and traced halves carry the same mix.
        order = sorted(range(len(items)), key=lambda i: items[i].size)
        traced = frozenset(rng.choice(pair) for pair in zip(order[0::2], order[1::2]))
        tracer = Tracer()
        result = run_pass(items, traced, tracer)
        metrics = per_layer(result, tracer)
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"{args.workload}.spans.jsonl"))
    else:
        result = run_pass(items)
        metrics = end_to_end(result, setup_seconds(args.workload))
        print(tail_line(result["plain"]))

    with open(BENCHMARK) as spec:
        declared = json.load(spec)["per_layer" if args.trace else "end_to_end"]
    if {m["name"]: m["unit"] for m in declared} != {n: u for n, (_, u) in metrics.items()}:
        print("perfbench: the metrics computed differ from those BENCHMARK.json declares",
              file=sys.stderr)
        return 1
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
