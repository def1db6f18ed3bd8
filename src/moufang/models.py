"""Exact finite-dimensional bialgebra models and the diagram evaluator.

Scalars are `fractions.Fraction` throughout: arbitrary-precision rationals
in canonical reduced form with positive denominator, so every identity
check is an exact zero/nonzero decision.  Tensors are sparse mappings from
index tuples to nonzero Fractions.

Models built here:

* ``loop_bialgebra(L)``      -- basis = loop elements, x group-like; the
  product is the loop product.  Coassociative and cocommutative, satisfies
  the bialgebra-level Moufang laws, generally nonassociative.
* ``function_bialgebra(L)``  -- delta functionals on the loop with the
  pointwise product; the coproduct is dual to the loop product.  It is
  commutative and associative, satisfies the dual (co-)Moufang laws, and
  is coassociative iff the loop is associative.
* ``truncated_binomial_bialgebra(D)`` -- powers of one primitive element
  with the binomial coproduct, products truncated above degree D.  The
  truncation breaks the algebra-map law for the coproduct at the degree
  boundary, so identity sweeps on this model restrict inputs to a
  configurable total degree (D//2 by default); the waiver is recorded on
  the model.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable, Optional, Sequence

from .diagram import ArityMismatch, Diagram

Scalar = Fraction
State = dict[tuple[int, ...], Fraction]


class ModelError(Exception):
    """Invalid model data or a failed registration check."""


# --- Moufang loops ------------------------------------------------------


@dataclass(frozen=True)
class MoufangLoop:
    """A finite Moufang loop given by its Cayley table of element indices."""

    order: int
    table: tuple[tuple[int, ...], ...]
    identity: int
    labels: tuple[str, ...] = ()
    name: str = "loop"

    @classmethod
    def from_table(
        cls,
        table: Iterable[Iterable[int]],
        labels: Optional[Iterable[str]] = None,
        name: str = "loop",
    ) -> "MoufangLoop":
        tbl = tuple(tuple(row) for row in table)
        n = len(tbl)
        if any(len(row) != n for row in tbl):
            raise ModelError("Cayley table is not square")
        rng = range(n)
        if any(x not in rng for row in tbl for x in row):
            raise ModelError("Cayley table entry out of range")
        for i in rng:
            if len(set(tbl[i])) != n or len({tbl[j][i] for j in rng}) != n:
                raise ModelError(f"translations by element {i} are not bijective")
        units = [e for e in rng
                 if all(tbl[e][x] == x and tbl[x][e] == x for x in rng)]
        if not units:
            raise ModelError("no two-sided identity element")
        e = units[0]
        mul = lambda a, b: tbl[a][b]
        for a, x, y in itertools.product(rng, repeat=3):
            if mul(a, mul(x, mul(a, y))) != mul(mul(mul(a, x), a), y):
                raise ModelError(f"left Moufang law fails at {(a, x, y)}")
            if mul(mul(a, x), mul(y, a)) != mul(mul(a, mul(x, y)), a):
                raise ModelError(f"middle Moufang law fails at {(a, x, y)}")
            if mul(mul(mul(x, a), y), a) != mul(x, mul(a, mul(y, a))):
                raise ModelError(f"right Moufang law fails at {(a, x, y)}")
        lbls = tuple(labels) if labels else tuple(str(i) for i in rng)
        if len(lbls) != n:
            raise ModelError("label count does not match loop order")
        return cls(n, tbl, e, lbls, name)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def associativity_witness(self) -> Optional[tuple[int, int, int]]:
        """Some (a, b, c) with (ab)c != a(bc), or None if associative."""
        for a, b, c in itertools.product(range(self.order), repeat=3):
            if self.mul(self.mul(a, b), c) != self.mul(a, self.mul(b, c)):
                return (a, b, c)
        return None

    def cayley_text(self) -> str:
        lines = [f"loop {self.name}", f"order {self.order}",
                 f"identity {self.identity}",
                 "labels " + " ".join(self.labels)]
        for row in self.table:
            lines.append("row " + " ".join(str(x) for x in row))
        lines.append("end")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_cayley_text(cls, text: str) -> "MoufangLoop":
        name, labels, rows = "loop", None, []
        for line in text.splitlines():
            words = line.split()
            if not words:
                continue
            if words[0] == "loop":
                name = words[1]
            elif words[0] == "labels":
                labels = words[1:]
            elif words[0] == "row":
                rows.append([int(x) for x in words[1:]])
            elif words[0] in ("order", "identity", "end"):
                continue
            else:
                raise ModelError(f"unknown line in loop file: {line!r}")
        return cls.from_table(rows, labels, name)


def cyclic_loop(n: int) -> MoufangLoop:
    """The cyclic group of order n viewed as a (Moufang) loop."""
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return MoufangLoop.from_table(table, name=f"cyclic{n}")


# --- models -------------------------------------------------------------

MulRows = dict[tuple[int, int], tuple[tuple[int, Fraction], ...]]
ComulRows = dict[int, tuple[tuple[tuple[int, int], Fraction], ...]]


@dataclass(frozen=True)
class FiniteBialgebraModel:
    """Structure constants of a finite bialgebra plus declared laws.

    ``satisfied_flags`` lists the extra identities this model claims; the
    claim is verified exactly at construction (`verify_registration`).
    ``check_cap`` restricts identity sweeps to basis inputs of bounded
    total degree; only the truncated binomial model uses it, recording the
    truncation-boundary waiver for the coproduct/product compatibility.
    """

    name: str
    dim: int
    mul_rows: MulRows
    comul_rows: ComulRows
    unit_entries: tuple[tuple[int, Fraction], ...]
    counit_entries: dict[int, Fraction]
    satisfied_flags: frozenset[str]
    basis_labels: tuple[str, ...] = ()
    degrees: Optional[tuple[int, ...]] = None
    check_cap: Optional[int] = None

    def label(self, i: int) -> str:
        return self.basis_labels[i] if self.basis_labels else str(i)

    def basis_iterator(self, rank: int):
        """Basis index tuples for identity sweeps, honouring the cap."""
        for key in itertools.product(range(self.dim), repeat=rank):
            if self.check_cap is not None and self.degrees is not None:
                if sum(self.degrees[i] for i in key) > self.check_cap:
                    continue
            yield key


def basis_state(indices: Iterable[int]) -> State:
    return {tuple(indices): Fraction(1)}


def _clean(state: State) -> State:
    return {k: v for k, v in state.items() if v}


def _accumulate(target: State, terms) -> None:
    for key, value in terms:
        acc = target.get(key)
        target[key] = value if acc is None else acc + value


def _slice_terms(state: State, kind: str, off: int, rows,
                 model: FiniteBialgebraModel):
    """The (key, value) terms one slice makes from one sparse tensor."""
    if kind == "mul":
        for key, coeff in state.items():
            for k, c in rows.get((key[off], key[off + 1]), ()):
                yield key[:off] + (k,) + key[off + 2:], coeff * c
    elif kind == "comul":
        for key, coeff in state.items():
            for (j, k), c in rows.get(key[off], ()):
                yield key[:off] + (j, k) + key[off + 1:], coeff * c
    elif kind == "unit":
        for key, coeff in state.items():
            for i, c in model.unit_entries:
                yield key[:off] + (i,) + key[off:], coeff * c
    elif kind == "counit":
        ce = model.counit_entries
        for key, coeff in state.items():
            c = ce.get(key[off])
            if c:
                yield key[:off] + key[off + 1:], coeff * c
    elif kind == "swap":
        for key, coeff in state.items():
            yield key[:off] + (key[off + 1], key[off]) + key[off + 2:], coeff
    else:
        raise ModelError(f"cannot evaluate generator kind {kind!r}")


def evaluate_components(d: Diagram, states: list[State],
                        model: FiniteBialgebraModel,
                        muls: Sequence[MulRows],
                        comuls: Sequence[ComulRows]) -> list[State]:
    """Apply a diagram to sparse tensors indexed by h-degree, slice by slice.

    ``muls`` and ``comuls`` list the degree components of the product and
    coproduct; a plain model is the order-0 case ``(mul_rows,)``,
    ``(comul_rows,)``.  mul/comul convolve degrees modulo
    h^len(states) (label "0" keeps the constant component, "+" the
    positive ones); unit, counit and swap, from ``model``, act degree by
    degree.
    """
    order = len(states) - 1
    for kind, label, off in d.slices:
        out: list[State] = [{} for _ in states]
        if kind in ("mul", "comul"):
            comps = muls if kind == "mul" else comuls
            first = 1 if label == "+" else 0
            last = min(0 if label == "0" else order, len(comps) - 1)
            for a in range(first, last + 1):
                for b in range(order + 1 - a):
                    _accumulate(out[a + b],
                                _slice_terms(states[b], kind, off, comps[a],
                                             model))
        else:
            for target, state in zip(out, states):
                _accumulate(target, _slice_terms(state, kind, off, None, model))
        states = [_clean(state) for state in out]
    return states


def evaluate(d: Diagram, model: FiniteBialgebraModel, state: State) -> State:
    """Interpret a diagram as a multilinear map and apply it to `state`."""
    for key in state:
        if len(key) != d.n_in:
            raise ArityMismatch(
                f"input tensor rank {len(key)} != diagram inputs {d.n_in}"
            )
        if any(i < 0 or i >= model.dim for i in key):
            raise ModelError("input index out of range for model dimension")
    for kind, label, _off in d.slices:
        if label is not None:
            raise ModelError(
                f"labelled generator {kind}%{label} has no meaning in a plain "
                "model; evaluate it against a truncated deformation instead"
            )
    return evaluate_components(d, [state], model, (model.mul_rows,),
                               (model.comul_rows,))[0]


def subtract_state(a: State, b: State) -> State:
    """a - b, keeping a's key order and appending b's new keys."""
    diff = dict(a)
    _accumulate(diff, ((k, -v) for k, v in b.items()))
    return _clean(diff)


def basis_sweep(lhs: Diagram, rhs: Diagram, model: FiniteBialgebraModel,
                run=None, capped: bool = True):
    """Yield ``(input, differences)`` for every basis input, exactly.

    ``run(diagram, state)`` evaluates to a list of tensors indexed by
    h-degree (by default the plain evaluator, one degree); ``differences``
    lists lhs - rhs at each degree.  Inputs come from
    ``model.basis_iterator`` or, with ``capped=False``, from every basis
    tuple regardless of the model's degree cap.
    """
    if (lhs.n_in, lhs.n_out) != (rhs.n_in, rhs.n_out):
        raise ArityMismatch(
            f"identity sides have different arities: "
            f"{lhs.n_in}->{lhs.n_out} vs {rhs.n_in}->{rhs.n_out}"
        )
    if run is None:
        run = lambda d, state: [evaluate(d, model, state)]
    keys = (model.basis_iterator(lhs.n_in) if capped
            else itertools.product(range(model.dim), repeat=lhs.n_in))
    for key in keys:
        state = basis_state(key)
        yield key, [subtract_state(a, b)
                    for a, b in zip(run(lhs, state), run(rhs, state))]


def first_difference(sweep) -> Optional[tuple[int, tuple[int, ...], State]]:
    """``(degree, input, difference)`` of a sweep's first nonzero
    difference, or None when every difference vanishes."""
    for key, diffs in sweep:
        for n, diff in enumerate(diffs):
            if diff:
                return n, key, diff
    return None


@dataclass
class IdentityReport:
    holds: bool
    witness: Optional[tuple[int, ...]] = None
    diff: Optional[State] = None
    model: str = ""

    def describe(self, model: Optional[FiniteBialgebraModel] = None) -> str:
        if self.holds:
            return "holds"
        labels = (
            ", ".join(model.label(i) for i in self.witness)
            if model is not None else str(self.witness)
        )
        return f"fails on basis input ({labels}); difference {self.diff}"


def holds_identity(lhs: Diagram, rhs: Diagram,
                   model: FiniteBialgebraModel) -> IdentityReport:
    """Exhaustive exact check of lhs = rhs on all (capped) basis inputs."""
    found = first_difference(basis_sweep(lhs, rhs, model))
    if found is None:
        return IdentityReport(True, model=model.name)
    _degree, witness, diff = found
    return IdentityReport(False, witness, diff, model.name)


def verify_registration(model: FiniteBialgebraModel) -> None:
    """Check every law the model declares, exactly, on all capped inputs.

    The base bialgebra laws (unit, counit, compatibility of the coproduct
    and counit with the product and unit) are always checked; each entry of
    ``satisfied_flags`` adds its own rule.
    """
    from .theories import base_rules, flag_rules

    for rule in base_rules():
        report = holds_identity(rule.lhs, rule.rhs, model)
        if not report.holds:
            raise ModelError(
                f"model {model.name}: base law {rule.name} "
                + report.describe(model)
            )
    for flag in sorted(model.satisfied_flags):
        for rule in flag_rules(flag):
            report = holds_identity(rule.lhs, rule.rhs, model)
            if not report.holds:
                raise ModelError(
                    f"model {model.name}: declared law {rule.name} "
                    + report.describe(model)
                )


def loop_bialgebra(loop: MoufangLoop, check: bool = True) -> FiniteBialgebraModel:
    """Loop algebra with group-like coproduct on every loop element."""
    one = Fraction(1)
    model = FiniteBialgebraModel(
        name=f"loop[{loop.name}]",
        dim=loop.order,
        mul_rows={(i, j): ((loop.mul(i, j), one),)
                  for i in range(loop.order) for j in range(loop.order)},
        comul_rows={i: (((i, i), one),) for i in range(loop.order)},
        unit_entries=((loop.identity, one),),
        counit_entries={i: one for i in range(loop.order)},
        satisfied_flags=frozenset(
            {"coassoc", "cocomm", "moufang_l", "moufang_m", "moufang_r"}
        ),
        basis_labels=loop.labels,
    )
    if check:
        verify_registration(model)
    return model


def function_bialgebra(loop: MoufangLoop, check: bool = True) -> FiniteBialgebraModel:
    """Functions on the loop: pointwise product, coproduct dual to the loop."""
    one = Fraction(1)
    splits: dict[int, list[tuple[tuple[int, int], Fraction]]] = {
        i: [] for i in range(loop.order)
    }
    for y in range(loop.order):
        for z in range(loop.order):
            splits[loop.mul(y, z)].append(((y, z), one))
    model = FiniteBialgebraModel(
        name=f"fn[{loop.name}]",
        dim=loop.order,
        mul_rows={(i, i): ((i, one),) for i in range(loop.order)},
        comul_rows={i: tuple(pairs) for i, pairs in splits.items()},
        unit_entries=tuple((i, one) for i in range(loop.order)),
        counit_entries={loop.identity: one},
        satisfied_flags=frozenset({"assoc", "comm", "comoufang_l", "comoufang_r"}),
        basis_labels=tuple("d" + l for l in loop.labels),
    )
    if check:
        verify_registration(model)
    return model


def truncated_binomial_bialgebra(max_degree: int,
                                 check: bool = True) -> FiniteBialgebraModel:
    """Powers of one primitive element with the binomial coproduct.

    Products above `max_degree` truncate to zero, which is exactly the
    recorded compatibility waiver; sweeps cap total input degree at
    max_degree // 2 so that every checked identity is truncation-free.
    """
    if max_degree < 1:
        raise ModelError("max degree must be at least 1")
    one = Fraction(1)
    dim = max_degree + 1
    mul_rows = {
        (i, j): ((i + j, one),)
        for i in range(dim) for j in range(dim) if i + j <= max_degree
    }
    comul_rows = {
        n: tuple(((i, n - i), Fraction(comb(n, i))) for i in range(n + 1))
        for n in range(dim)
    }
    model = FiniteBialgebraModel(
        name=f"binomial[{max_degree}]",
        dim=dim,
        mul_rows=mul_rows,
        comul_rows=comul_rows,
        unit_entries=((0, one),),
        counit_entries={0: one},
        satisfied_flags=frozenset(
            {"assoc", "comm", "coassoc", "cocomm", "comoufang_l", "comoufang_r"}
        ),
        basis_labels=tuple(
            "1" if n == 0 else ("a" if n == 1 else f"a^{n}") for n in range(dim)
        ),
        degrees=tuple(range(dim)),
        check_cap=max_degree // 2,
    )
    if check:
        verify_registration(model)
    return model


# --- model file format --------------------------------------------------


def save_model_text(model: FiniteBialgebraModel) -> str:
    lines = [f"model {model.name}", f"dim {model.dim}"]
    if model.satisfied_flags:
        lines.append("flags " + " ".join(sorted(model.satisfied_flags)))
    if model.basis_labels:
        lines.append("basis " + " ".join(model.basis_labels))
    if model.degrees is not None:
        lines.append("degree " + " ".join(str(d) for d in model.degrees))
    if model.check_cap is not None:
        lines.append(f"cap {model.check_cap}")
    for (i, j) in sorted(model.mul_rows):
        for k, c in model.mul_rows[(i, j)]:
            lines.append(f"mul {i} {j} {k} {c}")
    for i in sorted(model.comul_rows):
        for (j, k), c in model.comul_rows[i]:
            lines.append(f"comul {i} {j} {k} {c}")
    for i, c in model.unit_entries:
        lines.append(f"unit {i} {c}")
    for i in sorted(model.counit_entries):
        lines.append(f"counit {i} {model.counit_entries[i]}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def load_model_text(text: str, check: bool = True) -> FiniteBialgebraModel:
    name, dim, flags = "model", None, frozenset()
    basis: tuple[str, ...] = ()
    degrees = None
    cap = None
    mul_rows: dict[tuple[int, int], list] = {}
    comul_rows: dict[int, list] = {}
    unit_entries: list = []
    counit_entries: dict[int, Fraction] = {}
    for line in text.splitlines():
        words = line.split()
        if not words or words[0] == "end":
            continue
        head = words[0]
        if head == "model":
            name = words[1]
        elif head == "dim":
            dim = int(words[1])
        elif head == "flags":
            flags = frozenset(words[1:])
        elif head == "basis":
            basis = tuple(words[1:])
        elif head == "degree":
            degrees = tuple(int(w) for w in words[1:])
        elif head == "cap":
            cap = int(words[1])
        elif head == "mul":
            i, j, k = int(words[1]), int(words[2]), int(words[3])
            mul_rows.setdefault((i, j), []).append((k, Fraction(words[4])))
        elif head == "comul":
            i, j, k = int(words[1]), int(words[2]), int(words[3])
            comul_rows.setdefault(i, []).append(((j, k), Fraction(words[4])))
        elif head == "unit":
            unit_entries.append((int(words[1]), Fraction(words[2])))
        elif head == "counit":
            counit_entries[int(words[1])] = Fraction(words[2])
        elif head == "kind" and words[1] == "algebra":
            raise ModelError(
                "file holds bare algebra structure constants, not a bialgebra"
            )
        else:
            raise ModelError(f"unknown line in model file: {line!r}")
    if dim is None:
        raise ModelError("model file lacks a dim line")
    model = FiniteBialgebraModel(
        name=name,
        dim=dim,
        mul_rows={k: tuple(v) for k, v in mul_rows.items()},
        comul_rows={k: tuple(v) for k, v in comul_rows.items()},
        unit_entries=tuple(unit_entries),
        counit_entries=counit_entries,
        satisfied_flags=flags,
        basis_labels=basis,
        degrees=degrees,
        check_cap=cap,
    )
    if check:
        verify_registration(model)
    return model
