"""Catalog of axiom systems and the built-in goal suite.

The base theory holds the seven plain bialgebra laws: both counit laws,
both unit laws, and the three compatibility laws saying the coproduct and
counit are algebra maps and the unit is group-like.  Optional flags extend
it with (co)associativity, (co)commutativity, the three bialgebra-level
Moufang laws (the repeated variable distributed by the coproduct), and
their upside-down duals, the co-Moufang laws.

Every goal in the built-in suite is a named diagram equality together with
the theory it should be decided in.  Goals marked provable come with the
expectation of a rewrite proof inside the default budget; the one goal
marked countermodeled (coassociativity) is refuted exactly by the function
bialgebra of the order-16 octonion unit loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .diagram import Diagram, flip
from .dsl import parse, print_diagram
from .reader import Many, Record, Rest, read, settings
from .rewrite import RewriteRule


class TheoryError(Exception):
    """Unknown theory, flag, or malformed theory/goal file."""


def _rule(name: str, lhs: str, rhs: str) -> RewriteRule:
    return RewriteRule(name, parse(lhs), parse(rhs))


_BASE_RULES = (
    _rule("counit-l", "comul ; counit * id(1)", "id(1)"),
    _rule("counit-r", "comul ; id(1) * counit", "id(1)"),
    _rule("unit-l", "unit * id(1) ; mul", "id(1)"),
    _rule("unit-r", "id(1) * unit ; mul", "id(1)"),
    _rule("bialg", "mul ; comul",
          "comul * comul ; id(1) * swap * id(1) ; mul * mul"),
    _rule("counit-mul", "mul ; counit", "counit * counit"),
    _rule("unit-comul", "unit ; comul", "unit * unit"),
)

# Bialgebra-level Moufang laws, repeated variable first and distributed by
# the coproduct.  Left:  sum x1.(y.(x2.z)) = sum ((x1.y).x2).z
_MOUFANG_L = _rule(
    "moufang_l",
    "comul * id(2) ; id(1) * swap * id(1) ; id(2) * mul ; id(1) * mul ; mul",
    "comul * id(2) ; id(1) * swap * id(1) ; mul * id(2) ; mul * id(1) ; mul",
)
# Middle:  sum (x1.y).(z.x2) = sum (x1.(y.z)).x2
_MOUFANG_M = _rule(
    "moufang_m",
    "comul * id(2) ; id(1) * swap * id(1) ; id(2) * swap ; mul * mul ; mul",
    "comul * id(2) ; id(1) * swap * id(1) ; id(2) * swap ; "
    "id(1) * mul * id(1) ; mul * id(1) ; mul",
)
# Right: with the repeated variable last:  sum x.(z1.(y.z2)) = sum ((x.z1).y).z2
_MOUFANG_R = _rule(
    "moufang_r",
    "id(2) * comul ; id(1) * swap * id(1) ; id(2) * mul ; id(1) * mul ; mul",
    "id(2) * comul ; id(1) * swap * id(1) ; mul * id(2) ; mul * id(1) ; mul",
)


def _co_rule(name: str, rule: RewriteRule) -> RewriteRule:
    """The upside-down dual of a rule."""
    return RewriteRule(name, flip(rule.lhs), flip(rule.rhs))


_FLAG_RULES: dict[str, tuple[RewriteRule, ...]] = {
    "assoc": (_rule("assoc", "mul * id(1) ; mul", "id(1) * mul ; mul"),),
    "coassoc": (_rule("coassoc", "comul ; comul * id(1)",
                      "comul ; id(1) * comul"),),
    "comm": (_rule("comm", "mul", "swap ; mul"),),
    "cocomm": (_rule("cocomm", "comul", "comul ; swap"),),
    "moufang_l": (_MOUFANG_L,),
    "moufang_m": (_MOUFANG_M,),
    "moufang_r": (_MOUFANG_R,),
    "comoufang_l": (_co_rule("comoufang_l", _MOUFANG_L),),
    "comoufang_r": (_co_rule("comoufang_r", _MOUFANG_R),),
    "comoufang_m": (_co_rule("comoufang_m", _MOUFANG_M),),
}
FLAGS = tuple(_FLAG_RULES)


def base_rules() -> tuple[RewriteRule, ...]:
    return _BASE_RULES


def flag_rules(flag: str) -> tuple[RewriteRule, ...]:
    try:
        return _FLAG_RULES[flag]
    except KeyError:
        raise TheoryError(f"unknown theory flag {flag!r}") from None


def known_flag(word: str) -> str:
    if word not in _FLAG_RULES:
        raise ValueError("unknown theory flag")
    return word


@dataclass(frozen=True)
class Theory:
    """A named rule set: the base bialgebra laws plus flagged extensions."""

    name: str
    flags: frozenset[str]
    extra_rules: tuple[RewriteRule, ...] = ()

    @property
    def rules(self) -> tuple[RewriteRule, ...]:
        out = list(_BASE_RULES)
        for flag in sorted(self.flags):
            out.extend(flag_rules(flag))
        out.extend(self.extra_rules)
        return tuple(out)


def builtin_theory(flags, name: Optional[str] = None) -> Theory:
    flags = frozenset(flags)
    for flag in flags:
        if flag not in _FLAG_RULES:
            raise TheoryError(f"unknown theory flag {flag!r}")
    if name is None:
        name = "base" if not flags else "base+" + "+".join(sorted(flags))
    return Theory(name, flags)


_NAMED_THEORIES = {
    "base": frozenset(),
    "comoufang": frozenset({"comoufang_l", "comoufang_r"}),
    "moufang": frozenset({"moufang_l", "moufang_m", "moufang_r"}),
    "cocommutative": frozenset({"cocomm"}),
}


def named_theory(name: str) -> Theory:
    try:
        return builtin_theory(_NAMED_THEORIES[name], name)
    except KeyError:
        raise TheoryError(f"unknown theory {name!r}") from None


# --- goal suite ----------------------------------------------------------


@dataclass(frozen=True)
class Goal:
    name: str
    lhs: Diagram
    rhs: Diagram
    theory: str
    kind: str = "provable"            # or "countermodeled"
    countermodel: Optional[str] = None
    source: str = ""


@dataclass(frozen=True)
class GoalSuite:
    entries: tuple[Goal, ...]

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, name: str) -> Goal:
        for goal in self.entries:
            if goal.name == name:
                return goal
        raise TheoryError(f"unknown goal {name!r}")

    def names(self) -> list[str]:
        return [g.name for g in self.entries]


def _goal(name, lhs, rhs, theory="comoufang", kind="provable",
          countermodel=None, source=""):
    lhs_d, rhs_d = parse(lhs), parse(rhs)
    if (lhs_d.n_in, lhs_d.n_out) != (rhs_d.n_in, rhs_d.n_out):
        raise TheoryError(f"goal {name}: mismatched arities")
    return Goal(name, lhs_d, rhs_d, theory, kind, countermodel, source)


def goal_suite() -> GoalSuite:
    """The built-in goals: counit laws, the six derived fusion/braiding
    consequences of the co-Moufang laws, the two triple-splitting forms of
    the co-Moufang laws themselves, the two kernel-map identities, and the
    countermodeled coassociativity goal."""
    comoufang_l = flag_rules("comoufang_l")[0]
    comoufang_r = flag_rules("comoufang_r")[0]
    r_map = "comul * id(2) ; id(1) * swap * id(1) ; mul * id(2)"
    s_map = "id(2) * comul ; id(1) * swap * id(1) ; mul * id(2)"
    c_left = "comul ; comul * id(1)"
    c_right = "comul ; id(1) * comul"
    entries = (
        _goal("counit-left", "comul ; counit * id(1)", "id(1)",
              theory="base", source="counit law, left form"),
        _goal("counit-right", "comul ; id(1) * counit", "id(1)",
              theory="base", source="counit law, right form"),
        _goal("comoufang-c1",
              "comul ; id(1) * comul ; mul * id(1)",
              "comul ; comul * id(1) ; mul * id(1)",
              source="product of first legs collapses across the splitting"),
        _goal("comoufang-c2",
              "comul ; comul * id(1) ; id(1) * mul",
              "comul ; id(1) * comul ; id(1) * mul",
              source="mirror of comoufang-c1 on the last legs"),
        _goal("comoufang-c3",
              "comul ; id(1) * comul ; id(1) * swap ; mul * id(1)",
              "comul ; comul * id(1) ; id(1) * swap ; mul * id(1)",
              source="comoufang-c1 with the outer legs braided"),
        _goal("comoufang-c4",
              "comul ; comul * id(1) ; swap * id(1) ; id(1) * mul",
              "comul ; id(1) * comul ; swap * id(1) ; id(1) * mul",
              source="comoufang-c2 with the outer legs braided"),
        _goal("comoufang-c5",
              "comul ; id(1) * comul ; id(2) * comul ; id(1) * swap * id(1) ;"
              " mul * id(2)",
              "comul ; comul * id(1) ; id(1) * comul * id(1) ;"
              " id(1) * swap * id(1) ; mul * id(2)",
              source="left co-Moufang side re-nested through comoufang-c3"),
        _goal("comoufang-c6",
              "comul ; comul * id(1) ; comul * id(2) ; id(1) * swap * id(1) ;"
              " id(2) * mul",
              "comul ; id(1) * comul ; id(1) * comul * id(1) ;"
              " id(1) * swap * id(1) ; id(2) * mul",
              source="right co-Moufang side re-nested through comoufang-c4"),
        Goal("comoufang-left-split",
             comoufang_l.lhs, comoufang_l.rhs, "comoufang",
             source="left co-Moufang law in triple-splitting form"),
        Goal("comoufang-right-split",
             comoufang_r.lhs, comoufang_r.rhs, "comoufang",
             source="right co-Moufang law in triple-splitting form"),
        _goal("kernel-map-left",
              f"{c_left} ; {r_map}", f"{c_right} ; {s_map}",
              source="left kernel-map identity: R after the left "
                     "coassociator half equals S after the right half"),
        _goal("kernel-map-mixed",
              f"{c_left} ; {s_map}", f"{c_right} ; {r_map}",
              source="mixed kernel-map identity: the two composites are "
                     "the same morphism"),
        _goal("coassoc", c_left, c_right,
              kind="countermodeled", countermodel="fn[o16]",
              source="coassociativity; fails in the function bialgebra of "
                     "the octonion unit loop"),
    )
    return GoalSuite(entries)


# --- declarative text files ----------------------------------------------


def save_theory_text(theory: Theory) -> str:
    """Declarative theory file: `theory NAME`, optional `flags ...`, then
    `rule NAME : lhs = rhs` lines in the diagram DSL, closed by `end`.

    Custom rule sides must have every input consumed by some generator;
    rules with spectator wires are rejected by the matcher.
    """
    lines = [f"theory {theory.name}"]
    if theory.flags:
        lines.append("flags " + " ".join(sorted(theory.flags)))
    for rule in theory.extra_rules:
        lines.append(
            f"rule {rule.name} : {print_diagram(rule.lhs)} = "
            f"{print_diagram(rule.rhs)}"
        )
    lines.append("end")
    return "\n".join(lines) + "\n"


def _rule_line(text: str) -> RewriteRule:
    name, colon, body = text.partition(":")
    lhs, equals, rhs = body.partition("=")
    if not (colon and equals):
        raise ValueError("malformed rule")
    return _rule(name.strip(), lhs.strip(), rhs.strip())


def load_theory_text(text: str) -> Theory:
    records = read(text, {"theory": (str,), "flags": (Many(known_flag),),
                          "rule": (Rest(_rule_line),), "end": ()}, TheoryError)
    given = settings(records)
    return Theory(given.get("theory", "theory"),
                  frozenset(given.get("flags", ())),
                  tuple(r.values[0] for r in records if r.head == "rule"))


def save_goals_text(suite: GoalSuite) -> str:
    lines = []
    for g in suite:
        lines.append(f"goal {g.name} theory={g.theory} kind={g.kind}"
                     + (f" countermodel={g.countermodel}"
                        if g.countermodel else ""))
        if g.source:
            lines.append(f"  source {g.source}")
        lines.append(f"  lhs {print_diagram(g.lhs)}")
        lines.append(f"  rhs {print_diagram(g.rhs)}")
        lines.append("end")
    return "\n".join(lines) + "\n"


def load_goals_text(text: str) -> GoalSuite:
    goals: list[Goal] = []
    start: Optional[Record] = None
    for r in read(text, {"goal": (str, Many()), "source": (Rest(),),
                         "lhs": (Rest(parse),), "rhs": (Rest(parse),),
                         "end": ()}, TheoryError):
        if r.head == "goal":
            if start is not None:
                raise start.fail("goal has no end")
            start, fields = r, {"name": r.values[0], "theory": "base"}
            for key, _, value in (w.partition("=") for w in r.values[1]):
                if key not in ("theory", "kind", "countermodel"):
                    raise r.fail(f"unknown key {key!r}")
                fields[key] = value
        elif start is None:
            raise r.fail(f"{r.head} outside a goal")
        elif r.head != "end":
            fields[r.head] = r.values[0]
        else:
            missing = {"lhs", "rhs"} - fields.keys()
            if missing:
                raise r.fail("goal lacks " + " and ".join(sorted(missing)))
            goals.append(Goal(**fields))
            start = None
    if start is not None:
        raise start.fail("goal has no end")
    return GoalSuite(tuple(goals))
