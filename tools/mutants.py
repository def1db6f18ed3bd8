#!/usr/bin/env python3
"""Mutation check: do the tests notice a planted bug?

Each mutant is one exact string replacement in one source file.  For each
mutant the script copies ``src/``, ``tests/`` and ``pyproject.toml`` to a
fresh temporary directory, applies the replacement there, runs the tests
named with the mutant, and prints ``killed`` (a test failed) or
``survived`` (every test passed), with the time taken.  A replacement whose
text does not occur exactly once is an error, never a pass.  The working
tree is not touched.  Hypothesis runs with a fixed seed, so a result can be
reproduced.

Usage, from the repository root::

    python tools/mutants.py            # every mutant
    python tools/mutants.py NAME ...   # the named mutants

Exit status: 0 when every mutant run is killed, 1 when one survives, 2 when
a replacement does not apply, a name is unknown, or pytest cannot run.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/moufang
    old: str
    new: str
    tests: tuple[str, ...]  # test files or test ids, relative to the root


MUTANTS = (
    Mutant("fused-comul-side", "models.py",
           "o = jk[side_c]", "o = jk[1 - side_c]",
           ("tests/test_models.py",)),
    Mutant("fused-mul-side", "models.py",
           "(y, o) if side_m else (o, y)", "(o, y) if side_m else (y, o)",
           ("tests/test_models.py",)),
    Mutant("fused-degree-bound", "models.py",
           "if a1 > b2:", "if a1 >= b2:",
           ("tests/test_models.py",)),
    Mutant("unit-counit-degree-0-only", "models.py",
           "for b in range(order + 1 - a):",
           "for b in range(order + 1 - a if comps[a] else 1):",
           ("tests/test_models.py::test_evaluator_matches_swap_by_swap_reference",
            "tests/test_models.py::test_fused_step_on_series_matches_reference")),
    Mutant("shared-difference-dict", "deformation.py",
           "return {i: dict(diffs[n])", "return {i: diffs[n]",
           ("tests/test_deformation.py",)),
    Mutant("no-width-check-on-splice", "diagram.py",
           "if width + 1 > MAX_WIRES:", "if False:",
           ("tests/test_rewrite.py",)),
    Mutant("no-internal-wire-check", "rewrite.py",
           "rows[node_map[v]][p] != 2 * node_map[u] + j", "False",
           ("tests/test_rewrite.py",)),
    Mutant("swap-drawn-uncrossed", "dsl.py",
           'yield "line", off + 1, y, off, y + 1',
           'yield "line", off + 1, y, off + 1, y + 1',
           ("tests/test_dsl.py",)),
    Mutant("verdict-always-holds", "cli.py",
           "        return report.holds\n", "        return True\n",
           ("tests/test_cli.py",)),
)


def apply(mutant: Mutant, root: Path) -> None:
    """Apply ``mutant`` to the copy at ``root``; its text must occur once."""
    path = root / "src" / "moufang" / mutant.path
    text = path.read_text()
    count = text.count(mutant.old)
    if count != 1:
        raise SystemExit(f"error: mutant {mutant.name}: {mutant.old!r} occurs "
                         f"{count} times in {mutant.path}, expected once")
    path.write_text(text.replace(mutant.old, mutant.new))


def run(mutant: Mutant) -> tuple[str, float, str]:
    """(``killed`` | ``survived``, seconds, pytest's last output line)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        root = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, root / part, ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", root)
        apply(mutant, root)
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPATH=str(root / "src"))
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", "--hypothesis-seed=0", *mutant.tests],
            cwd=root, env=env, capture_output=True, text=True)
        seconds = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    last = lines[-1] if lines else proc.stderr.strip()
    if proc.returncode == 0:
        return "survived", seconds, last
    if proc.returncode in (1, 2):  # a failed test, or a collection error
        return "killed", seconds, last
    raise SystemExit(f"error: mutant {mutant.name}: pytest exited "
                     f"{proc.returncode}: {last}")


def main(names: list[str]) -> int:
    by_name = {m.name: m for m in MUTANTS}
    unknown = [n for n in names if n not in by_name]
    if unknown:
        print(f"error: unknown mutant(s) {' '.join(unknown)}; known: "
              f"{' '.join(by_name)}", file=sys.stderr)
        return 2
    survivors = 0
    for mutant in [by_name[n] for n in names] or MUTANTS:
        verdict, seconds, last = run(mutant)
        survivors += verdict == "survived"
        print(f"{verdict:8} {seconds:6.1f} s  {mutant.name}  ({last})",
              flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
