"""The four workloads: prove, suite, octonion and deform.

Each workload has a `setup(seed)` that imports the package and makes the
seeded inputs, a `batch(run, state)` that asks for a fixed list of verdicts
and checks each one, and a `layers(batch, state)` that turns the spans and
counts of one traced batch into per-layer metrics.
"""

from __future__ import annotations

import os
import random
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import harness
import inputs
import oracle
from harness import calls, raises, total

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"


def _subtree(spans, root: str) -> list:
    """The spans named `root` and everything below them."""
    inside: set[int] = set()
    out = []
    for span in spans:  # a parent is always recorded before its children
        if span[2] == root or span[1] in inside:
            inside.add(span[0])
            out.append(span)
    return out


def _per_call_us(spans, name) -> float:
    n = calls(spans, name)
    return total(spans, name) / n * 1e6 if n else 0.0


# --- prove --------------------------------------------------------------------


@dataclass
class Pair:
    name: str
    theory: str
    lhs: str
    rhs: str
    capped: bool = False
    raw: tuple = ()            # (n_in, slices) per redrawn side
    goal: tuple = ()           # the catalog's canonical sides


@dataclass
class ProveState:
    pairs: list
    rules: dict
    budget: object
    capped_budget: object
    goal_suite_s: float


class Prove:
    """Rewrite search: catalog goals, their redrawings, capped pairs."""

    name = "prove"
    # Searches on underivable pairs stop at this many states, never on time.
    STATES_CAP = 1000

    def setup(self, seed: int) -> ProveState:
        from moufang import rewrite, theories

        start = perf_counter()
        suite = theories.goal_suite()
        goal_suite_s = perf_counter() - start
        rng = random.Random(seed)
        pairs = []
        for goal in suite:
            if goal.kind != "provable":
                continue
            for tag, a, b in (("lr", goal.lhs, goal.rhs),
                              ("rl", goal.rhs, goal.lhs)):
                sides = ((a.n_in, list(a.slices)), (b.n_in, list(b.slices)))
                pairs.append(Pair(f"{goal.name}:{tag}", goal.theory,
                                  *(inputs.to_text(*s) for s in sides)))
                raw = tuple((n, inputs.redraw(n, s, rng)) for n, s in sides)
                pairs.append(Pair(f"{goal.name}:{tag}:redrawn", goal.theory,
                                  *(inputs.to_text(*r) for r in raw),
                                  raw=raw, goal=(a, b)))
        for name, theory, lhs, rhs in oracle.UNDERIVABLE:
            pairs.append(Pair(f"{name}:lr", theory, lhs, rhs, capped=True))
            pairs.append(Pair(f"{name}:rl", theory, rhs, lhs, capped=True))
        rules = {p.theory: theories.named_theory(p.theory).rules for p in pairs}
        forever = 10.0 ** 9
        return ProveState(
            pairs, rules,
            rewrite.SearchBudget(10 ** 6, 12, forever),
            rewrite.SearchBudget(self.STATES_CAP, 10 ** 6, forever),
            goal_suite_s)

    def batch(self, run: harness.Run, st: ProveState) -> None:
        for pair in st.pairs:
            run.verdict(pair.name, lambda p=pair: self._decide(run, st, p),
                        lambda ok: ok)

    def _decide(self, run, st: ProveState, pair: Pair) -> bool:
        from moufang import diagram, dsl, rewrite

        lhs = run.call("dsl.parse", dsl.parse, pair.lhs)
        rhs = run.call("dsl.parse", dsl.parse, pair.rhs)
        for (n_in, slices), side in zip(pair.raw, pair.goal):
            raw = run.call("diagram.raw_diagram", diagram.raw_diagram,
                           n_in, slices)
            canon = run.call("diagram.canonicalize", diagram.canonicalize, raw)
            run.count("diagram.canonicalizations")
            run.count("diagram.redraw_agree", int(canon == side))
        rules = st.rules[pair.theory]
        if pair.capped:
            trace = run.call("rewrite.prove_equal", rewrite.prove_equal, lhs,
                             rhs, rules, st.capped_budget, pair.theory,
                             tag="capped")
            return trace is None
        trace = run.call("rewrite.prove_equal", rewrite.prove_equal, lhs, rhs,
                         rules, st.budget, pair.theory, tag="found")
        if trace is None:
            return False
        run.count("rewrite.trace_steps", len(trace))
        run.call("rewrite.replay", trace.replay, rules)
        text = run.call("rewrite.serialize_trace", rewrite.serialize_trace,
                        trace)
        back = run.call("rewrite.parse_trace", rewrite.parse_trace, text, lhs,
                        rhs, pair.theory)
        printed = run.call("dsl.print_diagram", dsl.print_diagram, lhs)
        reparsed = run.call("dsl.parse", dsl.parse, printed)
        return back.steps == trace.steps and reparsed == lhs

    def layers(self, b: harness.Batch, st: ProveState) -> dict:
        s, c = b.spans, b.counts
        capped = calls(s, "rewrite.prove_equal", "capped")
        capped_s = total(s, "rewrite.prove_equal", "capped")
        trips = calls(s, "rewrite.serialize_trace")
        io_s = total(s, "rewrite.serialize_trace") + total(
            s, "rewrite.parse_trace")
        canon = c["diagram.canonicalizations"]
        return {
            "rewrite.prove_ms": total(s, "rewrite.prove_equal", "found") * 1e3,
            "rewrite.prove_none_ms": capped_s * 1e3,
            "rewrite.states_per_s":
                capped * self.STATES_CAP / capped_s if capped_s else 0.0,
            "rewrite.replay_ms": total(s, "rewrite.replay") * 1e3,
            "rewrite.trace_io_us": io_s / trips * 1e6 if trips else 0.0,
            "rewrite.trace_steps": c["rewrite.trace_steps"],
            "diagram.canonicalize_us": _per_call_us(s, "diagram.canonicalize"),
            "diagram.canonicalizations": canon,
            "diagram.redraw_agree_frac":
                c["diagram.redraw_agree"] / canon if canon else 0.0,
            "dsl.parse_us": _per_call_us(s, "dsl.parse"),
            "dsl.print_us": _per_call_us(s, "dsl.print_diagram"),
            "theories.goal_suite_ms": st.goal_suite_s * 1e3,
        }


# --- suite --------------------------------------------------------------------


@dataclass
class SuiteState:
    seed: int
    out_path: Path
    expected_text: str


class Suite:
    """`moufang --format records suite`, in process."""

    name = "suite"
    EXPECTED = BENCH_DIR / "expected_suite_records.txt"

    def setup(self, seed: int) -> SuiteState:
        import moufang.cli  # noqa: F401  (import time belongs to set-up)

        OUT_DIR.mkdir(exist_ok=True)
        return SuiteState(seed, OUT_DIR / f"suite-records-{os.getpid()}.txt",
                          self.EXPECTED.read_text())

    def batch(self, run: harness.Run, st: SuiteState) -> None:
        import difflib

        from moufang import cli

        emitted = []
        original = cli.Reporter.emit

        def timed_emit(reporter, kind, name, status, detail=""):
            original(reporter, kind, name, status, detail)
            emitted.append((perf_counter(), kind, name, status))

        argv = ["--format", "records", "--out", str(st.out_path), "suite"]
        st.out_path.unlink(missing_ok=True)
        os.environ["MOUFANG_SUITE_SEED"] = str(st.seed)
        cli.Reporter.emit = timed_emit
        start = perf_counter()
        try:
            with self._spans(run):
                code = run.call("cli.main", cli.main, argv)
        except Exception as exc:  # counted below as missing records
            code = f"{type(exc).__name__}: {exc}"
        finally:
            cli.Reporter.emit = original
        end = perf_counter()
        # One verdict per record: its time runs from the previous record.
        previous = start
        got = {(kind, name): (t, status) for t, kind, name, status in emitted}
        for kind, name, status in oracle.SUITE_RECORDS:
            t, seen = got.get((kind, name), (previous, None))
            run.record(f"suite {kind} {name}: {seen}", t - previous,
                       seen == status)
            previous = max(previous, t)
        run.record(f"suite exit code {code}", end - previous,
                   code == oracle.SUITE_EXIT)
        text = st.out_path.read_text() if st.out_path.exists() else ""
        diff = difflib.unified_diff(st.expected_text.splitlines(),
                                    text.splitlines(), lineterm="", n=0)
        run.count("cli.records_diff_lines", sum(
            1 for line in diff
            if line[:1] in "+-" and line[:3] not in ("+++", "---")))

    @contextmanager
    def _spans(self, run: harness.Run):
        """While tracing, put spans around the public calls `cli` makes."""
        if run.tracer is None:
            yield
            return
        from moufang import models, octonion, rewrite, theories

        def wrap(module, attr, name, tag_of=None):
            fn = getattr(module, attr)

            def wrapper(*args, **kwargs):
                with run.tracer.span(name, tag_of(args) if tag_of else ""):
                    return fn(*args, **kwargs)
            patches.append((module, attr, fn))
            setattr(module, attr, wrapper)

        def counting(model, rank):
            n = 0
            try:
                for key in sweep(model, rank):
                    n += 1
                    yield key
            finally:
                run.count("inputs:" + model.name, n)

        patches: list = []
        model_cls = models.FiniteBialgebraModel
        sweep = model_cls.basis_iterator
        patches.append((model_cls, "basis_iterator", sweep))
        model_cls.basis_iterator = counting
        wrap(models, "loop_bialgebra", "models.loop_bialgebra")
        wrap(models, "function_bialgebra", "models.function_bialgebra")
        wrap(models, "truncated_binomial_bialgebra",
             "models.truncated_binomial_bialgebra")
        wrap(models, "holds_identity", "models.holds_identity",
             lambda a: a[2].name)
        wrap(octonion, "o16_loop", "octonion.o16_loop")
        wrap(rewrite, "prove_equal", "rewrite.prove_equal")
        wrap(rewrite.ProofTrace, "replay", "rewrite.replay")
        wrap(theories, "goal_suite", "theories.goal_suite")
        try:
            yield
        finally:
            for target, attr, fn in reversed(patches):
                setattr(target, attr, fn)

    def layers(self, b: harness.Batch, st: SuiteState) -> dict:
        s, c = _subtree(b.spans, "cli.main"), b.counts
        main_ids = {span[0] for span in s if span[2] == "cli.main"}
        sweep_s = sum(end - start for _i, parent, name, _t, start, end in s
                      if name == "models.holds_identity" and parent in main_ids)
        out = {
            "models.register_ms.loop_o16": total(s, "models.loop_bialgebra") * 1e3,
            "models.register_ms.fn_o16":
                total(s, "models.function_bialgebra") * 1e3,
            "models.register_ms.binomial6":
                total(s, "models.truncated_binomial_bialgebra") * 1e3,
            "models.sweep_ms": sweep_s * 1e3,
            "models.inputs_checked": sum(
                v for k, v in c.items() if k.startswith("inputs:")),
            "rewrite.prove_ms": total(s, "rewrite.prove_equal") * 1e3,
            "rewrite.replay_ms": total(s, "rewrite.replay") * 1e3,
            "theories.goal_suite_ms": total(s, "theories.goal_suite") * 1e3,
            "cli.suite_s": total(s, "cli.main"),
            "cli.records_diff_lines": c["cli.records_diff_lines"],
        }
        for key, model in (("loop_o16", "loop[o16]"), ("fn_o16", "fn[o16]"),
                           ("binomial6", "binomial[6]")):
            busy = total(s, "models.holds_identity", model)
            out[f"models.inputs_per_s.{key}"] = (
                c["inputs:" + model] / busy if busy else 0.0)
        return out

    def cleanup(self, st: SuiteState) -> None:
        st.out_path.unlink(missing_ok=True)


# --- octonion -------------------------------------------------------------------


@dataclass
class OctonionState:
    param_sets: tuple
    bad_quaternions: object
    bad_octonions: object


class Octonion:
    """Alternative, Moufang and Malcev sweeps on two parameter triples."""

    name = "octonion"

    def setup(self, seed: int) -> OctonionState:
        triple = inputs.rational_triple(random.Random(seed))
        param_sets = (("split", (-1, -1, -1)), ("seeded", triple))
        return OctonionState(param_sets, oracle.corrupt_quaternions(),
                             oracle.corrupt_octonions())

    def batch(self, run: harness.Run, st: OctonionState) -> None:
        from moufang import octonion

        for label, params in st.param_sets:
            algebra = run.call("octonion.octonion_algebra",
                               octonion.octonion_algebra, *params)
            self.check_algebra(run, label, algebra)
        bad4, bad8 = st.bad_quaternions, st.bad_octonions
        run.verdict("control:nalt", lambda: run.call(
            "octonion.nalt_check", octonion.nalt_check, bad4, bad4.basis(1),
            tag="refute"), lambda ok: ok is False)
        run.verdict("control:moufang-right", lambda: run.call(
            "octonion.check_moufang", octonion.check_moufang, bad8, "right",
            tag="refute"), lambda w: w is not None)

    @staticmethod
    def check_algebra(run: harness.Run, label: str, a) -> None:
        """Every law an octonion algebra satisfies, one verdict each."""
        from moufang import octonion

        def sweep(verdict_label, name, fn, args, passed, tuples, tag=""):
            failed = len(run.batch.failures)
            result = run.verdict(
                f"{label}:{verdict_label}",
                lambda: run.call(name, fn, *args, tag=tag), passed)
            if len(run.batch.failures) == failed:  # a passing sweep is whole
                run.count("octonion.tuples_swept", tuples)
            return result

        d = a.dim
        sweep("alternative", "octonion.check_alternative",
              octonion.check_alternative, (a,), lambda w: w is None, d ** 3)
        for i in range(d):
            sweep(f"nalt-e{i}", "octonion.nalt_check", octonion.nalt_check,
                  (a, a.basis(i)), lambda ok: ok is True, d ** 2)
        for which in ("left", "middle", "right"):
            sweep(f"moufang-{which}", "octonion.check_moufang",
                  octonion.check_moufang, (a, which), lambda w: w is None,
                  d ** 4, tag=which)
        malcev = sweep("malcev", "octonion.traceless_malcev",
                       octonion.traceless_malcev, (a,),
                       lambda m: m is not None and m.dim == 7, (d - 1) ** 4)
        if malcev is None:
            run.record(f"{label}:jacobian: no Malcev algebra", 0.0, False)
            return
        run.verdict(f"{label}:jacobian-uvw", lambda: run.call(
            "octonion.jacobian", octonion.jacobian, malcev, malcev.basis(0),
            malcev.basis(1), malcev.basis(3)),
            lambda j: tuple(j) == oracle.JACOBIAN_UVW)

    def layers(self, b: harness.Batch, st: OctonionState) -> dict:
        s = b.spans
        out = {
            "octonion.alternative_ms": total(s, "octonion.check_alternative") * 1e3,
            "octonion.nalt_ms": total(s, "octonion.nalt_check", "") * 1e3,
            "octonion.malcev_ms": total(s, "octonion.traceless_malcev") * 1e3,
            "octonion.refute_ms": (total(s, "octonion.nalt_check", "refute")
                                   + total(s, "octonion.check_moufang",
                                           "refute")) * 1e3,
            "octonion.tuples_swept": b.counts["octonion.tuples_swept"],
        }
        for which in ("left", "middle", "right"):
            out[f"octonion.moufang_ms.{which}"] = total(
                s, "octonion.check_moufang", which) * 1e3
        return out


# --- deform ---------------------------------------------------------------------


@dataclass
class DeformState:
    null_fn_coassociator: dict


class Deform:
    """Truncated deformations, the kernel map, spectra and the Lie case."""

    name = "deform"

    def setup(self, seed: int) -> DeformState:
        from moufang import deformation, octonion  # noqa: F401

        loop = octonion.o16_loop()
        return DeformState(oracle.loop_coassociator(loop.mul, loop.order))

    def batch(self, run: harness.Run, st: DeformState) -> None:
        from moufang import deformation as dlab
        from moufang import linalg, models, octonion

        def build_null_fn():
            loop = run.call("octonion.o16_loop", octonion.o16_loop)
            fn = run.call("models.function_bialgebra",
                          models.function_bialgebra, loop)
            return run.call("deformation.null_deformation",
                            dlab.null_deformation, fn, 1)

        zero = {}
        fixtures = (
            # label, builder, co-Moufang, coassociator per degree
            ("shift_conj", lambda: run.call(
                "deformation.shift_conjugation_deformation",
                dlab.shift_conjugation_deformation, 12, 3), True,
             lambda n: {x: zero for x in range(13)}),
            ("delta1", lambda: run.call(
                "deformation.simple_comul_perturbation",
                dlab.simple_comul_perturbation, 6, 3), False,
             lambda n: oracle.delta1_coassociator(7, n)),
            ("null_fn", build_null_fn, True,
             lambda n: st.null_fn_coassociator if n == 0
             else {x: zero for x in range(16)}),
        )
        for label, build, comoufang, coassoc in fixtures:
            f = run.verdict(f"{label}:build", build, lambda f: f is not None)
            if f is None:
                run.record(f"{label}: checks skipped, no fixture", 0.0, False)
                continue
            for n in range(f.order + 1):
                run.verdict(f"{label}:coassociator-{n}", lambda n=n: run.call(
                    "deformation.coassociator", dlab.coassociator, f, n,
                    tag=label), lambda c, n=n: c == coassoc(n))
            for side in ("left", "right"):
                run.verdict(f"{label}:comoufang-{side}", lambda s=side: run.call(
                    "deformation.check_comoufang_mod", dlab.check_comoufang_mod,
                    f, s, tag=label), lambda r: r.holds == comoufang)
            if comoufang:
                run.verdict(f"{label}:kernel-map", lambda: run.call(
                    "deformation.kernel_map_RS", dlab.kernel_map_RS, f,
                    tag=label), lambda r: r.holds)
            else:  # the kernel map refuses a fixture that is not co-Moufang
                run.verdict(f"{label}:kernel-map-refused", lambda: run.call(
                    "deformation.kernel_map_RS", raises,
                    dlab.DeformationError, dlab.kernel_map_RS, f, tag=label),
                    lambda refused: refused)

        b10 = run.call("models.truncated_binomial_bialgebra",
                       models.truncated_binomial_bialgebra, 10)
        q = run.verdict("q_operator:binomial10", lambda: run.call(
            "deformation.q_operator", dlab.q_operator, b10),
            oracle.is_diag_powers_of_two)
        if q is not None:
            shifted = [[v - (2 if i == j else 0) for j, v in enumerate(row)]
                       for i, row in enumerate(q)]
            run.verdict("nullspace:q-minus-2", lambda: run.call(
                "linalg.nullspace", linalg.nullspace, shifted),
                lambda ns: oracle.spans_primitive_line(ns, len(q)))
        else:
            run.record("nullspace: no q operator", 0.0, False)
        b4 = run.call("models.truncated_binomial_bialgebra",
                      models.truncated_binomial_bialgebra, 4)
        q4 = run.call("deformation.q_operator", dlab.q_operator, b4)
        run.verdict("eigen_kernel_T:binomial4", lambda: run.call(
            "deformation.eigen_kernel_T", dlab.eigen_kernel_T, q4,
            dlab.GradedSpace(5, tuple(range(5)))),
            lambda k: oracle.is_eigen_kernel(k, 5))
        g = run.call("deformation.sl2", dlab.sl2)
        action = run.call("deformation.adjoint_action", dlab.adjoint_action, g)
        run.verdict("casimir:sl2", lambda: run.call(
            "deformation.casimir", dlab.casimir, g, action), oracle.is_identity)
        run.verdict("h1:sl2", lambda: run.call(
            "deformation.h1_dimension", dlab.h1_dimension, g, action),
            lambda h: h.dimension == 0)

    def layers(self, b: harness.Batch, st: DeformState) -> dict:
        s = b.spans
        ms = {name: total(s, name) * 1e3 for name in (
            "deformation.coassociator", "deformation.check_comoufang_mod",
            "deformation.q_operator", "deformation.eigen_kernel_T",
            "deformation.sl2", "deformation.adjoint_action",
            "deformation.casimir", "deformation.h1_dimension",
            "linalg.nullspace")}
        out = {f"deformation.build_ms.{label}":
               total(s, "bench.verdict", f"{label}:build") * 1e3
               for label in ("shift_conj", "delta1", "null_fn")}
        return out | {
            "deformation.coassociator_ms": ms["deformation.coassociator"],
            "deformation.comoufang_ms": ms["deformation.check_comoufang_mod"],
            "deformation.kernel_map_ms.shift_conj":
                total(s, "deformation.kernel_map_RS", "shift_conj") * 1e3,
            "deformation.kernel_map_ms.null_fn":
                total(s, "deformation.kernel_map_RS", "null_fn") * 1e3,
            "deformation.spectral_ms":
                ms["deformation.q_operator"] + ms["deformation.eigen_kernel_T"],
            "deformation.lie_ms": sum(ms[n] for n in (
                "deformation.sl2", "deformation.adjoint_action",
                "deformation.casimir", "deformation.h1_dimension")),
            "linalg.nullspace_ms": ms["linalg.nullspace"],
        }


class Composite:
    """Several workloads run one after the other as one batch.

    The benchmark's budget allows about a minute per run only for two
    workloads, and on a shared host a minute-long run is what keeps a
    run's median steady; so the four are measured in two pairs, each pair
    in one process.  Each part still reports its own per-layer metrics.
    """

    def __init__(self, name: str, *parts) -> None:
        self.name = name
        self.parts = parts

    def setup(self, seed: int) -> tuple:
        return tuple(part.setup(seed) for part in self.parts)

    def batch(self, run: harness.Run, states: tuple) -> None:
        for part, state in zip(self.parts, states):
            part.batch(run, state)

    def layers(self, b: harness.Batch, states: tuple) -> dict:
        out: dict = {}
        for part, state in zip(self.parts, states):
            out.update(part.layers(b, state))
        return out

    def cleanup(self, states: tuple) -> None:
        for part, state in zip(self.parts, states):
            if hasattr(part, "cleanup"):
                part.cleanup(state)


_PARTS = {w.name: w for w in (Prove(), Suite(), Octonion(), Deform())}
# The workloads BENCHMARK.json names; between them they run all four parts.
# An optimisation of the evaluators (ROADMAP items 2 and 3) moves only
# `evaluator`, one of the canonical form or the octonion sweeps (items 1
# and 4) only `symbolic`.
PAIRS = {
    "symbolic": Composite("symbolic", _PARTS["prove"], _PARTS["octonion"]),
    "evaluator": Composite("evaluator", _PARTS["suite"], _PARTS["deform"]),
}
WORKLOADS = _PARTS | PAIRS
