"""Seeded inputs: redrawn diagram text and a rational octonion triple.

The redrawings are made here, on slice lists, with two moves that never
change the morphism a diagram denotes:

* interchange: two adjacent slices that touch disjoint wires trade places;
* swap naturality: a generator with a free wire beside it is redrawn with
  that wire crossed over it, by swaps before and after.

The program only ever sees the text these slice lists print to, so the
benchmark learns whether two drawings of one morphism parse to one
canonical diagram without trusting the program's own canonical form.
"""

from __future__ import annotations

import random
from fractions import Fraction

ARITY = {"mul": (2, 1), "comul": (1, 2), "unit": (0, 1), "counit": (1, 0),
         "swap": (2, 2)}

INTERCHANGES = 3
NATURALITY_MOVES = 1

Slice = tuple  # (kind, label, offset)


def widths(n_in: int, slices: list[Slice]) -> list[int]:
    """Wire count before each slice."""
    out, w = [], n_in
    for kind, _label, _off in slices:
        out.append(w)
        k, m = ARITY[kind]
        w += m - k
    return out


def to_text(n_in: int, slices: list[Slice]) -> str:
    """One generator per slice, padded with identities, joined by ';'."""
    if not slices:
        return f"id({n_in})"
    parts = []
    for (kind, label, off), w in zip(slices, widths(n_in, slices)):
        k, _m = ARITY[kind]
        factors = [f"id({off})"] if off else []
        factors.append(kind if label is None else f"{kind}%{label}")
        if w - off - k:
            factors.append(f"id({w - off - k})")
        parts.append(" * ".join(factors))
    return " ; ".join(parts)


def interchange(slices: list[Slice], i: int) -> list[Slice] | None:
    """Trade slices i and i+1 if they touch disjoint wires, else None."""
    (k1_kind, l1, o1), (k2_kind, l2, o2) = slices[i], slices[i + 1]
    k1, m1 = ARITY[k1_kind]
    k2, m2 = ARITY[k2_kind]
    if o2 >= o1 + m1:          # second slice lies right of the first's outputs
        pair = [(k2_kind, l2, o2 - m1 + k1), (k1_kind, l1, o1)]
    elif o2 + k2 <= o1:        # second slice lies left of them
        pair = [(k2_kind, l2, o2), (k1_kind, l1, o1 - k2 + m2)]
    else:
        return None
    return slices[:i] + pair + slices[i + 2:]


def cross_wire(n_in: int, slices: list[Slice], i: int,
               right: bool) -> list[Slice] | None:
    """Redraw slice i with its neighbouring wire crossed over it."""
    kind, label, o = slices[i]
    k, m = ARITY[kind]
    w = widths(n_in, slices)[i]
    if right:
        if o + k >= w:
            return None
        before = [("swap", None, p) for p in range(o + k - 1, o - 1, -1)]
        moved = (kind, label, o + 1)
        after = [("swap", None, p) for p in range(o, o + m)]
    else:
        if o == 0:
            return None
        before = [("swap", None, p) for p in range(o - 1, o + k - 1)]
        moved = (kind, label, o - 1)
        after = [("swap", None, p) for p in range(o + m - 2, o - 2, -1)]
    return slices[:i] + before + [moved] + after + slices[i + 1:]


def redraw(n_in: int, slices: list[Slice], rng: random.Random) -> list[Slice]:
    """A seeded redrawing: a few interchanges and one wire crossing."""
    moves = ["interchange"] * INTERCHANGES + ["cross"] * NATURALITY_MOVES
    rng.shuffle(moves)
    out = list(slices)
    for move in moves:
        if move == "interchange":
            options = [t for t in (interchange(out, i)
                                   for i in range(len(out) - 1)) if t]
        else:
            options = [t for t in (cross_wire(n_in, out, i, side)
                                   for i in range(len(out))
                                   if out[i][0] != "swap"
                                   for side in (True, False)) if t]
        if options:
            out = rng.choice(options)
    return out


def rational_triple(rng: random.Random) -> tuple[Fraction, Fraction, Fraction]:
    """Three nonzero rationals with one-digit numerators and denominators."""
    def draw() -> Fraction:
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9),
                        rng.randint(1, 9))
    return (draw(), draw(), draw())
