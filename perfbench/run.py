"""Benchmark of the moufang toolkit: time to exact verdicts, and where it goes.

    python3 perfbench/run.py --workload symbolic --seed 1 --seconds 60 --trace 0

runs one workload from the root of a checkout, against the package in src/:
`symbolic` (prove, then octonion) or `evaluator` (suite, then deform), the
two BENCHMARK.json names, or one of the four parts alone.  `--workload all`
runs the two pairs, each in its own process.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 a run
alternates untraced and traced batches and reports per-layer metrics, self
times per layer and the tracing overhead, and writes its spans to
perfbench/out/.
"""

from time import perf_counter

STARTED = perf_counter()  # set-up is timed from here, before any import

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 5  # this process plus four fresh interpreters
CHILD_TIMEOUT_S = 170


def import_package():
    """Import moufang from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import moufang

    if Path(moufang.__file__).resolve().parent != ROOT / "src" / "moufang":
        raise ImportError(f"moufang was imported from {moufang.__file__}, "
                          f"not from {ROOT / 'src'}")
    return moufang


def setup_once(workload, seed: int):
    """Import the package and make the inputs; return (state, seconds)."""
    import_package()
    state = workload.setup(seed)
    return state, perf_counter() - STARTED


def fresh_setup_seconds(name: str, seed: int) -> float:
    """Set-up time of a fresh interpreter, measured inside it."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        check=True)
    return float(out.stdout.split()[-1])


def counts_repeat(batches) -> bool:
    """Deterministic counts must read the same in every batch that has them.

    Counts of basis inputs come from instrumented sweeps, so only traced
    batches carry them; the other counts are made in every batch.
    """
    def plain(b):
        return {k: v for k, v in b.counts.items() if not k.startswith("inputs:")}
    traced = [b.counts for b in batches if b.traced]
    return (all(plain(b) == plain(batches[0]) for b in batches)
            and all(c == traced[0] for c in traced))


def end_to_end(batches, setup_s: float):
    import harness

    times = [t for b in batches for t in b.times]
    level = harness.tail_level(len(batches[0].times))
    return {
        "setup_s": setup_s,
        "wall_s": harness.median([b.wall for b in batches]),
        "verdict_ms_p50": harness.quantile(times, 0.5) * 1e3,
        "verdict_ms_tail": harness.quantile(times, level) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, level, len(times)


def per_layer(workload, batches, state) -> dict:
    import harness

    traced = [b for b in batches if b.traced]
    plain = [b for b in batches if not b.traced]
    values: dict[str, list[float]] = {}
    for b in traced:
        found = workload.layers(b, state)
        for layer, seconds in harness.self_times(b.spans).items():
            found[f"{layer}.self_ms"] = seconds * 1e3
        for name, value in found.items():
            values.setdefault(name, []).append(value)
    out = {name: harness.median(values.get(name, []))
           for name, _unit, _better in harness.PER_LAYER}
    traced_wall = harness.median([b.wall for b in traced])
    plain_wall = harness.median([b.wall for b in plain])
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_s"] = traced_wall - plain_wall
    out["trace.overhead_frac"] = (traced_wall - plain_wall) / plain_wall
    return out


def write_spans(name: str, seed: int, batches) -> Path:
    from workloads import OUT_DIR

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{name}-seed{seed}.jsonl"
    with path.open("w") as fh:
        for i, b in enumerate(batches):
            for sid, parent, span, tag, start, end in b.spans:
                fh.write(json.dumps({"batch": i, "id": sid, "parent": parent,
                                     "name": span, "tag": tag,
                                     "start": start, "end": end}) + "\n")
    return path


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    import harness
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    state, own_setup = setup_once(workload, seed)
    setups = [own_setup] + [fresh_setup_seconds(name, seed)
                            for _ in range(SETUP_REPEATS - 1)]
    run = harness.Run()
    batches = harness.run_batches(run, workload.batch, state, seconds, trace)
    if hasattr(workload, "cleanup"):
        workload.cleanup(state)
    failures = [f for b in batches for f in b.failures]
    attempted = sum(len(b.times) for b in batches)
    if not counts_repeat(batches):
        failures.append("deterministic counts differ between batches")
        attempted += 1

    e2e, level, samples = end_to_end(batches, harness.median(setups))
    print(f"workload {name}: seed {seed}, {len(batches)} batches of "
          f"{len(batches[0].times)} verdicts")
    print(f"  failed_frac = {len(failures) / attempted:.6g} "
          f"({len(failures)} of {attempted} verdicts)")
    for failure in failures[:20]:
        print(f"  FAILED {failure}")
    print(f"  verdict_ms_tail is p{100 * level:.1f} of {samples} samples")
    for key, value in sorted(batches[0].counts.items()):
        print(f"  count {key} = {value}")
    if trace:
        metrics = per_layer(workload, batches, state)
        units = {n: u for n, u, _b in harness.PER_LAYER}
        print(f"  spans written to {write_spans(name, seed, batches)}")
    else:
        metrics = e2e
        units = dict(harness.END_TO_END)
    for key, value in metrics.items():
        print(f"  {key} = {value:.6g} {units[key]}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }


def run_all(seed: int, seconds: int, trace: bool) -> dict:
    """Each benchmarked pair in its own process; metrics prefixed by it."""
    from workloads import PAIRS

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in PAIRS:
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, check=True,
            timeout=CHILD_TIMEOUT_S)
        lines = out.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = value
    return merged


def main(argv=None) -> int:
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time set-up in this fresh interpreter, print it")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.setup_only and args.workload == "all":
        parser.error("--setup-only needs one workload")
    try:
        if args.setup_only:
            _state, seconds = setup_once(WORKLOADS[args.workload], args.seed)
            print(seconds)
            return 0
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, bool(args.trace))
        else:
            result = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    except (ImportError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
