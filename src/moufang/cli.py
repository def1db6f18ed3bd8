"""Command-line front end.

Subcommands: prove, eval, check-model, octonion, deform, render, suite,
replay.  Exit codes: 0 success, 1 input or verification error, 2 proof not
found within budget.  `--format records` switches reports to a
line-delimited record format with fixed field order for machine diffing.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from . import deformation as dlab
from . import models, octonion, rewrite, theories
from .diagram import DiagramError
from .dsl import RENDERERS, parse, render


class CliError(Exception):
    pass


@contextmanager
def _flag(name: str, value: str):
    """Turn a malformed number in a flag value (or environment variable),
    a size or parameter that the builder refuses, or a label that a plain
    model refuses, into a CliError naming the flag."""
    try:
        yield
    except (ValueError, ZeroDivisionError, models.ModelError,
            dlab.DeformationError, octonion.AlgebraError) as exc:
        why = "zero denominator" if isinstance(exc, ZeroDivisionError) else exc
        raise CliError(f"{name}: bad value {value!r} ({why})") from None


def _read_file(path: str, flag: str) -> str:
    """The text of the file a flag names; anything but a file (a directory,
    an empty path, nothing at all) is a CliError naming the flag."""
    if not Path(path).is_file():
        raise CliError(f"{flag}: {path!r} is not a file")
    return Path(path).read_text()


def _load_theory(spec: str, flag: str) -> theories.Theory:
    """The theory a file, name or ``flags:`` list names; a name that is not
    known is a CliError naming the flag (a file's errors name its line)."""
    if Path(spec).is_file():
        return theories.load_theory_text(Path(spec).read_text())
    try:
        if "+" in spec or spec.startswith("flags:"):
            flags = spec.removeprefix("flags:").split("+")
            return theories.builtin_theory([f for f in flags if f])
        return theories.named_theory(spec)
    except theories.TheoryError as exc:
        raise CliError(f"{flag}: {exc}") from None


def _load_model(spec: str, flag: str = "--model",
                loops: dict | None = None) -> models.FiniteBialgebraModel:
    """The model a flag names.  Calls that pass one ``loops`` dict share
    the o16 loop they build, and so its automorphism search."""
    if Path(spec).is_file():
        return models.load_model_text(Path(spec).read_text())
    head, sized, arg = spec.partition(":")
    build = (models.loop_bialgebra if head.startswith("loop-")
             else models.function_bialgebra)
    if head in ("loop-o16", "fn-o16"):
        if sized:
            raise CliError(f"{flag}: {head} takes no size, got {spec!r}")
        loops = {} if loops is None else loops
        if "o16" not in loops:
            loops["o16"] = octonion.o16_loop()
        return build(loops["o16"])
    if head in ("binomial", "loop-cyclic", "fn-cyclic"):
        if sized and not arg:
            raise CliError(f"{flag}: empty size field in {spec!r}")
        with _flag(flag, spec):
            if head == "binomial":
                return models.truncated_binomial_bialgebra(int(arg or 6))
            return build(models.cyclic_loop(int(arg or 2)))
    raise CliError(
        f"{flag}: unknown model {spec!r}: expected a file or one of "
        "binomial:D, loop-o16, fn-o16, loop-cyclic:N, fn-cyclic:N"
    )


def _budget(text: str) -> rewrite.SearchBudget:
    if not text:
        return rewrite.SearchBudget()
    parts = text.split(",")
    if len(parts) != 3:
        raise CliError("--budget expects STATES,DEPTH,SECONDS")
    with _flag("--budget", text):
        return rewrite.SearchBudget(int(parts[0]), int(parts[1]),
                                    float(parts[2]))


class Reporter:
    def __init__(self, fmt: str, out_path: str | None):
        self.fmt = fmt
        self.lines: list[str] = []
        self.out_path = out_path

    def emit(self, kind: str, name: str, status: str, detail: str = "") -> None:
        if self.fmt == "records":
            line = f"REC kind={kind} name={name} status={status}"
            if detail:
                line += f" detail={detail!r}"
        else:
            line = f"[{status:>4}] {kind} {name}" + (f": {detail}" if detail else "")
        self.lines.append(line)

    def verdict(self, kind: str, name: str, report: models.Report,
                model: models.FiniteBialgebraModel) -> bool:
        """Emit pass, or fail with the witness; return whether it holds."""
        self.emit(kind, name, "pass" if report.holds else "fail",
                  "" if report.holds else report.describe(model))
        return report.holds

    def text(self, line: str) -> None:
        if self.fmt != "records":
            self.lines.append(line)

    def flush(self) -> None:
        body = "\n".join(self.lines) + ("\n" if self.lines else "")
        if self.out_path:
            Path(self.out_path).write_text(body)
        else:
            sys.stdout.write(body)


def cmd_prove(args, reporter: Reporter) -> int:
    if args.goal:
        try:
            goal = theories.goal_suite()[args.goal]
        except theories.TheoryError as exc:
            raise CliError(f"--goal: {exc}") from None
        lhs, rhs = goal.lhs, goal.rhs
        theory = _load_theory(args.theory or goal.theory, "--theory")
    else:
        if not (args.lhs and args.rhs):
            raise CliError("prove needs LHS and RHS expressions or --goal NAME")
        lhs, rhs = parse(args.lhs), parse(args.rhs)
        theory = _load_theory(args.theory or "base", "--theory")
    budget = _budget(args.budget)
    trace = rewrite.prove_equal(lhs, rhs, theory.rules, budget, theory.name)
    if trace is None:
        reporter.emit("prove", args.goal or "goal", "none",
                      "not found within budget")
        return 2
    reporter.emit("prove", args.goal or "goal", "ok", f"{len(trace)} step(s)")
    for line in rewrite.serialize_trace(trace).splitlines():
        reporter.text("  " + line)
    if args.out and reporter.fmt != "records":
        Path(args.out).write_text(rewrite.serialize_trace(trace))
        reporter.text(f"trace written to {args.out}")
        reporter.out_path = None
    return 0


def cmd_eval(args, reporter: Reporter) -> int:
    diagram = parse(args.diagram)
    with _flag("diagram", args.diagram):
        models.refuse_labels(diagram)
    if len(args.model or ()) > 1:
        raise CliError(f"--model: eval takes one model, not {len(args.model)}")
    model = _load_model(args.model[0] if args.model else "binomial:6")
    with _flag("--basis", args.basis):
        indices = (tuple(int(x) for x in args.basis.split(","))
                   if args.basis else ())
    if len(indices) != diagram.n_in:
        raise CliError(
            f"--basis needs {diagram.n_in} indices for this diagram"
        )
    for i in indices:
        if not 0 <= i < model.dim:
            raise CliError(f"--basis: index {i} is outside dimension "
                           f"{model.dim} of model {model.name}")
    out = models.evaluate(diagram, model, models.basis_state(indices))
    if not out:
        reporter.text("0")
    for key in sorted(out):
        labels = ",".join(model.label(i) for i in key)
        reporter.text(f"({labels}): {out[key]}")
        if reporter.fmt == "records":
            reporter.emit("eval", f"({labels})", "value", str(out[key]))
    return 0


def _identity(text: str):
    """Parse an ``LHS = RHS`` flag value into two diagrams of one arity."""
    lhs_text, eq, rhs_text = text.partition("=")
    try:
        if not eq:
            raise DiagramError(f"expected LHS = RHS, got {text!r}")
        lhs, rhs = parse(lhs_text), parse(rhs_text)
        if (lhs.n_in, lhs.n_out) != (rhs.n_in, rhs.n_out):
            raise DiagramError(f"sides have different arities: {lhs.n_in}->"
                               f"{lhs.n_out} vs {rhs.n_in}->{rhs.n_out}")
        for d in (lhs, rhs):
            models.refuse_labels(d)
    except (DiagramError, models.ModelError) as exc:
        raise CliError(f"--identity: {exc}") from None
    return lhs, rhs


def cmd_check_model(args, reporter: Reporter) -> int:
    identity = _identity(args.identity) if args.identity else None
    status, loops = 0, {}
    for spec in args.model or ["binomial:6"]:
        try:
            model = _load_model(spec, loops=loops)
        except models.ModelError as exc:
            reporter.emit("model", spec, "fail", str(exc))
            status = 1
            continue
        reporter.emit("model", model.name, "pass",
                      "registered flags: " + " ".join(sorted(model.satisfied_flags)))
        if identity and not reporter.verdict(
                "identity", args.identity.strip(),
                models.holds_identity(*identity, model), model):
            status = 1
    return status


def cmd_octonion(args, reporter: Reporter) -> int:
    with _flag("--params", args.params):
        params = [Fraction(p) for p in (args.params or "-1,-1,-1").split(",")]
        if len(params) != 3:
            raise CliError("--params expects three rationals")
        algebra = octonion.octonion_algebra(*params)
    checks = [("alternative", octonion.check_alternative(algebra) is None),
              ("nalt-all-basis", all(octonion.nalt_check(algebra, b)
                                     for b in map(algebra.basis,
                                                  range(algebra.dim))))]
    checks += [(f"moufang-{which}", octonion.check_moufang(algebra, which)
                is None) for which in ("left", "middle", "right")]
    malcev = octonion.traceless_malcev(algebra)
    checks.append(("malcev-law", True))  # construction verifies it
    checks.append(("jacobian-uvw-nonzero", any(octonion.jacobian(
        malcev, *map(malcev.basis, (0, 1, 3))))))
    status = 0
    for name, ok in checks:
        reporter.emit("octonion", name, "pass" if ok else "fail")
        status |= 0 if ok else 1
    if args.out:
        Path(args.out).write_text(octonion.algebra_text(algebra))
        reporter.text(f"structure constants written to {args.out}")
        reporter.out_path = None
    return status


def _load_fixture(spec: str) -> dlab.TruncatedDeformation:
    if Path(spec).is_file():
        return dlab.load_deformation_text(
            Path(spec).read_text(), lambda ref: _load_model(ref, "--fixture"))
    head, sep, rest = spec.partition(":")
    if head == "null":
        model_spec, order_sep, order = (rest.rpartition(":") if ":" in rest
                                        else (rest, "", ""))
        if order_sep and not order:
            raise CliError(f"--fixture: empty ORDER field in {spec!r}")
        with _flag("--fixture", spec):
            order = int(order or 1)
        model = _load_model(model_spec, "--fixture")
        with _flag("--fixture", spec):
            return dlab.null_deformation(model, order)
    if head in ("shift-conj", "delta1"):
        build, degree, order = (
            (dlab.shift_conjugation_deformation, 12, 3) if head == "shift-conj"
            else (dlab.simple_comul_perturbation, 6, 1))
        parts = rest.split(":") if sep else []
        if len(parts) > 2:
            raise CliError(f"--fixture: {head} takes at most D:ORDER, got "
                           f"{spec!r}")
        for name, part in zip(("D", "ORDER"), parts):
            if not part:
                raise CliError(f"--fixture: empty {name} field in {spec!r}")
        with _flag("--fixture", spec):
            degree = int(parts[0]) if parts else degree
            order = int(parts[1]) if len(parts) > 1 else order
            return build(degree, order)
    raise CliError(
        f"--fixture: unknown fixture {spec!r}: expected null:MODEL[:ORDER], "
        "shift-conj:D:ORDER or delta1:D:ORDER"
    )


def cmd_deform(args, reporter: Reporter) -> int:
    fixture = _load_fixture(args.fixture)
    model = fixture.base
    reporter.emit("deform", fixture.name, "info",
                  f"base {model.name}, order {fixture.order}")
    for n in range(fixture.order + 1):
        comps = dlab.coassociator(fixture, n)
        nonzero = sum(1 for state in comps.values() if state)
        reporter.emit("coassociator", f"degree-{n}", "info",
                      f"nonzero on {nonzero} of {model.dim} basis inputs")
    comoufang_ok = True
    for side in ("left", "right"):
        comoufang_ok &= reporter.verdict(
            "comoufang", side, dlab.check_comoufang_mod(fixture, side), model)
    return 0 if comoufang_ok and reporter.verdict(
        "kernel-map", "R+S", dlab.kernel_map_RS(fixture), model) else 1


def cmd_render(args, reporter: Reporter) -> int:
    # the drawing in either --format
    reporter.lines.append(render(parse(args.diagram), args.render_as))
    return 0


def cmd_replay(args, reporter: Reporter) -> int:
    theory = _load_theory(args.theory or "base", "--theory")
    lhs, rhs = parse(args.lhs), parse(args.rhs)
    loops: dict = {}
    sound_on = [_load_model(spec, loops=loops) for spec in args.model or []]
    for model in sound_on:
        if missing := _missing_flags(model, theory):
            raise CliError(f"--model: {model.name} is not registered for "
                           f"theory {theory.name} "
                           f"(missing {' '.join(missing)})")
    trace = rewrite.parse_trace(
        _read_file(args.trace, "--trace"), lhs, rhs, theory.name
    )
    try:
        trace.replay(theory.rules)
    except rewrite.RewriteError as exc:
        reporter.emit("replay", args.trace, "fail", str(exc))
        return 1
    reporter.emit("replay", args.trace, "pass", f"{len(trace)} step(s)")
    sound = all(reporter.verdict(
        "soundness", model.name,
        models.holds_identity(trace.lhs, trace.rhs, model), model)
        for model in sound_on)  # stops at the first model that fails
    return 0 if sound else 1


def _multilinearity_probe(model: models.FiniteBialgebraModel,
                          rng: random.Random) -> bool:
    """Random-coefficient linearity probe of the evaluator on one model."""
    diagram = parse("comul ; mul")
    i, j = rng.randrange(model.dim), rng.randrange(model.dim)
    a, b = Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5))
    lhs = models.evaluate(diagram, model,
                          models.add_state({(i,): a}, {(j,): b}))
    rhs: models.State = {}
    for idx, c in ((i, a), (j, b)):
        part = models.evaluate(diagram, model, models.basis_state((idx,)))
        rhs = models.add_state(rhs, {k: c * v for k, v in part.items()})
    return lhs == rhs


def cmd_suite(args, reporter: Reporter) -> int:
    seed = os.environ.get("MOUFANG_SUITE_SEED", "20240915")
    with _flag("MOUFANG_SUITE_SEED", seed):
        rng = random.Random(int(seed))
    budget = _budget(args.budget)
    suite = (theories.load_goals_text(_read_file(args.goals, "--goals"))
             if args.goals else theories.goal_suite())
    status = 0

    reporter.text("== model registration ==")
    registry: dict[str, models.FiniteBialgebraModel] = {}
    loops: dict = {}
    for spec in ["loop-o16", "fn-o16", "binomial:6"] + (args.model or []):
        try:
            model = _load_model(spec, loops=loops)
            registry[model.name] = model
            reporter.emit("register", model.name, "pass")
        except models.ModelError as exc:
            reporter.emit("register", spec, "fail", str(exc))
            status = 1
    for name, model in sorted(registry.items()):
        ok = all(_multilinearity_probe(model, rng) for _ in range(5))
        reporter.emit("linearity", name, "pass" if ok else "fail")
        status |= 0 if ok else 1

    reporter.text("== goal suite ==")
    for goal in suite:
        theory = _load_theory(goal.theory, "--goals")
        if goal.kind == "provable":
            trace = rewrite.prove_equal(
                goal.lhs, goal.rhs, theory.rules, budget, theory.name
            )
            if trace is None:
                reporter.emit("goal", goal.name, "fail",
                              "no trace within budget")
                status = 1
                continue
            sound = True
            for model in registry.values():
                if _missing_flags(model, theory):
                    continue
                rep = models.holds_identity(goal.lhs, goal.rhs, model)
                sound &= rep.holds
            reporter.emit("goal", goal.name, "pass" if sound else "fail",
                          f"{len(trace)} step(s), sound on models")
            status |= 0 if sound else 1
        else:
            witness_model = registry.get(goal.countermodel or "")
            if witness_model is None:
                reporter.emit("goal", goal.name, "fail",
                              f"countermodel {goal.countermodel!r} unavailable")
                status = 1
                continue
            rep = models.holds_identity(goal.lhs, goal.rhs, witness_model)
            if rep.holds:
                reporter.emit("goal", goal.name, "fail",
                              "expected a countermodel witness, none found")
                status = 1
            else:
                labels = ",".join(witness_model.label(i) for i in rep.witness)
                reporter.emit("goal", goal.name, "pass",
                              f"witness basis input ({labels})")
    return status


def _missing_flags(model: models.FiniteBialgebraModel,
                   theory: theories.Theory) -> list[str]:
    """The flags of `theory` that `model` is not registered for, sorted; a
    derivation in the theory is checked only on models missing none."""
    return sorted(set(theory.flags) - set(model.satisfied_flags))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="moufang",
        description="diagram rewriting and exact model checks for "
                    "nonassociative, noncoassociative bialgebras",
    )
    formats = ["text", "records"]

    def add_common(target, suppress: bool) -> None:
        kw = {"default": argparse.SUPPRESS} if suppress else {}
        target.add_argument("--format", choices=formats,
                            **(kw or {"default": "text"}))
        target.add_argument("--out", help="write the report to a file",
                            **(kw or {"default": None}))

    add_common(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prove", help="search for a rewrite proof")
    p.add_argument("lhs", nargs="?")
    p.add_argument("rhs", nargs="?")
    p.add_argument("--goal", help="prove a named catalog goal")
    p.add_argument("--theory", help="theory name, flags:+ list, or file")
    p.add_argument("--budget", default="", help="STATES,DEPTH,SECONDS")
    add_common(p, suppress=True)
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser("eval", help="evaluate a diagram on a model")
    p.add_argument("diagram")
    p.add_argument("--model", action="append")
    p.add_argument("--basis", default="", help="comma-separated basis indices")
    add_common(p, suppress=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("check-model", help="registration and identity checks")
    p.add_argument("--model", action="append")
    p.add_argument("--identity", help='an identity "LHS = RHS" to check')
    add_common(p, suppress=True)
    p.set_defaults(func=cmd_check_model)

    p = sub.add_parser("octonion", help="octonion and Malcev identity sweeps")
    p.add_argument("--params", help="three rationals, e.g. -1,-1,-1")
    add_common(p, suppress=True)
    p.set_defaults(func=cmd_octonion)

    p = sub.add_parser("deform", help="truncated-deformation checks")
    p.add_argument("--fixture", required=True,
                   help="null:MODEL[:ORDER] | shift-conj:D:ORDER | delta1:D:ORDER")
    add_common(p, suppress=True)
    p.set_defaults(func=cmd_deform)

    p = sub.add_parser("render", help="draw a diagram")
    p.add_argument("diagram")
    p.add_argument("--as", dest="render_as", default="ascii",
                   choices=list(RENDERERS))
    add_common(p, suppress=True)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("suite", help="run the goal suite and model checks")
    p.add_argument("--goals", help="goal catalog file (defaults to built-in)")
    p.add_argument("--model", action="append",
                   help="extra models to register")
    p.add_argument("--budget", default="", help="STATES,DEPTH,SECONDS")
    add_common(p, suppress=True)
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("replay", help="verify a stored proof trace")
    p.add_argument("lhs")
    p.add_argument("rhs")
    p.add_argument("--trace", required=True)
    p.add_argument("--theory")
    p.add_argument("--model", action="append",
                   help="models for the soundness sweep")
    add_common(p, suppress=True)
    p.set_defaults(func=cmd_replay)

    args = parser.parse_args(argv)
    for name, value in vars(args).items():
        # some argparse versions store "--flag=--" as [], unchecked for choices
        if isinstance(value, list):
            setattr(args, name, [v if v != [] else "--" for v in value]
                    if value else "--")
    for flag, value, choices in (
            ("--format", args.format, formats),
            ("--as", getattr(args, "render_as", "ascii"), list(RENDERERS))):
        if value not in choices:
            parser.error(f"argument {flag}: invalid choice: {value!r} "
                         f"(choose from {', '.join(map(repr, choices))})")
    reporter = Reporter(args.format, args.out)
    try:
        status = args.func(args, reporter)
        reporter.flush()
        return status
    except (CliError, DiagramError, models.ModelError, theories.TheoryError,
            dlab.DeformationError, octonion.AlgebraError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
