"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks that the harness catches what it exists to catch: a corrupted
octonion algebra and a wrong expected verdict both raise the failure count;
one seed always gives the same inputs and two seeds give different ones;
the last output line of each workload BENCHMARK.json names parses into
name, unit and value for the metrics it names; and without the package
beside it the benchmark exits non-zero and prints no result.  Exits 1 on the first
check that does not hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import oracle  # noqa: E402
from workloads import OUT_DIR, PAIRS, WORKLOADS, Octonion  # noqa: E402


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        sys.exit(1)


def failed_frac(batch: harness.Batch) -> float:
    return len(batch.failures) / len(batch.times)


def corrupted_algebra_is_caught() -> None:
    run = harness.Run()
    Octonion.check_algebra(run, "corrupt", oracle.corrupt_octonions())
    check(failed_frac(run.batch) > 0,
          f"corrupted CayleyAlgebra: failed_frac {failed_frac(run.batch):.3f}")


def wrong_expectation_is_caught() -> None:
    prove = WORKLOADS["prove"]
    state = prove.setup(1)
    # Expect "no proof" for a goal that has a one-step proof.
    state.pairs = [replace(p, capped=True) for p in state.pairs
                   if p.name == "counit-left:lr"]
    run = harness.Run()
    prove.batch(run, state)
    check(failed_frac(run.batch) == 1.0,
          f"wrong expected verdict: failed_frac {failed_frac(run.batch):.3f}")


def inputs_follow_the_seed() -> None:
    def prove_inputs(seed):
        return [(p.lhs, p.rhs) for p in WORKLOADS["prove"].setup(seed).pairs]

    def triple(seed):
        return WORKLOADS["octonion"].setup(seed).param_sets

    check(prove_inputs(7) == prove_inputs(7) and triple(7) == triple(7),
          "one seed gives identical inputs")
    check(prove_inputs(7) != prove_inputs(8) and triple(7) != triple(8),
          "two seeds give different inputs")


def run_bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def outputs_parse() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    check(wanted[0] == dict(harness.END_TO_END)
          and wanted[1] == {n: u for n, u, _b in harness.PER_LAYER},
          "BENCHMARK.json names the metrics the harness prints")
    for workload in PAIRS:
        for trace in (0, 1):
            out = run_bench(ROOT, workload, trace)
            result = json.loads(out.stdout.splitlines()[-1])
            metrics = result["metrics"]
            check(out.returncode == 0 and result["correct"]
                  and result["failed"] == 0 and result["attempted"] >= 1
                  and {k: v["unit"] for k, v in metrics.items()} == wanted[trace]
                  and all(isinstance(v["value"], (int, float))
                          for v in metrics.values()),
                  f"{workload} --trace {trace}: {len(metrics)} metrics parse")


def bare_directory_fails() -> None:
    bare = OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        out = run_bench(bare, "prove", 0)
        check(out.returncode != 0 and not out.stdout.strip(),
              f"without src/ the benchmark exits {out.returncode}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    corrupted_algebra_is_caught()
    wrong_expectation_is_caught()
    inputs_follow_the_seed()
    bare_directory_fails()
    outputs_parse()
    return 0


if __name__ == "__main__":
    sys.exit(main())
