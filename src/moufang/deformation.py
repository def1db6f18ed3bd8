"""Order-truncated deformations of finite bialgebra models, and the exact
linear algebra behind the coassociativity and cocommutativity arguments.

A truncated deformation carries per-degree components of the coproduct and
product, modelling a formal one-parameter family modulo h^(order+1); the
unit and counit stay undeformed.  All congruences "modulo h^n" become
exact statements about degree-windowed convolutions of the components.

The module also provides the spectral pieces those arguments rest on: the
loop operator p∘Δ and its 2^n spectrum on the binomial model, the exact
kernel of Q⊗Q⊗I - Q⊗I⊗I - I⊗Q⊗I, wedge/primitive membership projectors,
the multiplicative-series defect identity, the kernel map R+S annihilating
the coassociator of any two-sided co-Moufang deformation, and the Casimir
and first-cohomology computations for the Lie-algebra case.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from typing import Optional, Sequence

from . import linalg
from .diagram import Diagram
from .dsl import parse
from .linalg import Matrix, Vector
from .models import (
    ComulRows,
    FiniteBialgebraModel,
    MulRows,
    State,
    basis_state,
    basis_sweep,
    evaluate,
    evaluate_components,
    first_difference,
    subtract_state,
)


class DeformationError(Exception):
    """Invalid deformation data or a failed registration/precondition."""


# --- truncated series of linear maps --------------------------------------


@dataclass(frozen=True)
class TruncatedSeriesMap:
    """Components [f_0, ..., f_N] of a map series between fixed spaces."""

    components: tuple[Matrix, ...]

    def __post_init__(self) -> None:
        if not self.components:
            raise DeformationError("a series map needs at least one component")
        shape = (len(self.components[0]), len(self.components[0][0]))
        for c in self.components:
            if (len(c), len(c[0])) != shape:
                raise DeformationError("series components differ in shape")

    @property
    def order(self) -> int:
        return len(self.components) - 1

    def at(self, n: int) -> Matrix:
        return self.components[n]


@dataclass(frozen=True)
class GradedSpace:
    """A basis-aligned grading: degree of each basis vector."""

    dimension: int
    degrees: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.degrees) != self.dimension:
            raise DeformationError("grading does not cover the whole basis")
        if any(d < 0 for d in self.degrees):
            raise DeformationError("degrees must be nonnegative")


# --- truncated deformations ------------------------------------------------


def _add_state(acc: State, extra: State) -> None:
    for key, value in extra.items():
        new = acc.get(key, Fraction(0)) + value
        if new:
            acc[key] = new
        else:
            acc.pop(key, None)


@dataclass(frozen=True)
class TruncatedDeformation:
    """A bialgebra family modulo h^(order+1) over a finite base model.

    Component 0 of each series equals the base structure map; unit and
    counit are those of the base.  Construction verifies the counit/unit
    laws of the full truncated series and bialgebra compatibility modulo
    h^(order+1) unless `strict` was disabled (negative-control fixtures).
    """

    base: FiniteBialgebraModel
    comul_components: tuple[ComulRows, ...]
    mul_components: tuple[MulRows, ...]
    order: int
    name: str = "deformation"

    def __post_init__(self) -> None:
        if len(self.comul_components) != self.order + 1:
            raise DeformationError("coproduct components do not match order")
        if len(self.mul_components) != self.order + 1:
            raise DeformationError("product components do not match order")
        if self.comul_components[0] != self.base.comul_rows:
            raise DeformationError(
                "degree-0 coproduct differs from the base model"
            )
        if self.mul_components[0] != self.base.mul_rows:
            raise DeformationError("degree-0 product differs from the base model")

    def comul_rows_at(self, n: int) -> ComulRows:
        return self.comul_components[n] if n <= self.order else {}

    def mul_rows_at(self, n: int) -> MulRows:
        return self.mul_components[n] if n <= self.order else {}


def evaluate_series(d: Diagram, deformation: TruncatedDeformation,
                    states: list[State] | State,
                    order: Optional[int] = None) -> list[State]:
    """Evaluate a diagram with series structure maps, degree by degree.

    `states` is either a single tensor (placed at degree 0) or a list of
    tensors indexed by h-degree; the result lists the output tensor of each
    degree up to `order` (the deformation's order by default).
    """
    if order is None:
        order = deformation.order
    if isinstance(states, dict):
        states = [states] + [{} for _ in range(order)]
    if len(states) != order + 1:
        raise DeformationError("degree-indexed input has the wrong length")
    dim = deformation.base.dim
    for state in states:
        for key in state:
            if len(key) != d.n_in:
                raise DeformationError(
                    f"input tensor rank {len(key)} != diagram inputs {d.n_in}"
                )
            if any(i < 0 or i >= dim for i in key):
                raise DeformationError("input index out of range for the base")
    return evaluate_components(d, [dict(s) for s in states], deformation.base,
                               deformation.mul_components,
                               deformation.comul_components)


def _series_sweep(deformation: TruncatedDeformation, lhs: Diagram,
                  rhs: Diagram, max_degree: Optional[int] = None,
                  capped: bool = True):
    """`models.basis_sweep` with the series structure maps, per h-degree up
    to `max_degree` (the deformation's order by default)."""
    if max_degree is None:
        max_degree = deformation.order
    if max_degree > deformation.order:
        raise DeformationError("degree window exceeds the deformation order")
    return basis_sweep(
        lhs, rhs, deformation.base,
        lambda d, state: evaluate_series(d, deformation, state, max_degree),
        capped,
    )


_COASSOC_L = parse("comul ; comul * id(1)")
_COASSOC_R = parse("comul ; id(1) * comul")
_BIALG_L = parse("mul ; comul")
_BIALG_R = parse("comul * comul ; id(1) * swap * id(1) ; mul * mul")
_ID = parse("id(1)")


def verify_deformation(deformation: TruncatedDeformation) -> None:
    """Registration: counit/unit laws exactly, compatibility per degree."""
    model = deformation.base
    laws = (
        ("counit law", parse("comul ; counit * id(1)"), _ID, False),
        ("counit law", parse("comul ; id(1) * counit"), _ID, False),
        ("left unit law", parse("unit * id(1) ; mul"), _ID, False),
        ("right unit law", parse("id(1) * unit ; mul"), _ID, False),
        ("compatibility", _BIALG_L, _BIALG_R, True),
    )
    for law, lhs, rhs, capped in laws:
        found = first_difference(
            _series_sweep(deformation, lhs, rhs, capped=capped)
        )
        if found is not None:
            n, key, _diff = found
            where = (f"basis {model.label(key[0])}" if len(key) == 1 else
                     f"basis pair {tuple(model.label(i) for i in key)}")
            raise DeformationError(
                f"{deformation.name}: {law} fails at degree {n} on {where}"
            )


def null_deformation(model: FiniteBialgebraModel, order: int,
                     check: bool = True) -> TruncatedDeformation:
    """The base structure maps extended by zero higher components."""
    deformation = TruncatedDeformation(
        base=model,
        comul_components=(model.comul_rows,) + ({},) * order,
        mul_components=(model.mul_rows,) + ({},) * order,
        order=order,
        name=f"null[{model.name}]",
    )
    if check:
        verify_deformation(deformation)
    return deformation


def deformation_from_maps(model: FiniteBialgebraModel, order: int,
                          comul_maps: Sequence[ComulRows],
                          mul_maps: Sequence[MulRows],
                          name: str, strict: bool = True
                          ) -> TruncatedDeformation:
    deformation = TruncatedDeformation(
        base=model,
        comul_components=(model.comul_rows,) + tuple(comul_maps),
        mul_components=(model.mul_rows,) + tuple(mul_maps),
        order=order,
        name=name,
    )
    if strict:
        verify_deformation(deformation)
    return deformation


# --- the coassociator -------------------------------------------------------


def coassociator(deformation: TruncatedDeformation, n: int
                 ) -> dict[int, State]:
    """Degree-n component of the coassociator, per basis input.

    Computed by convolving the coproduct components of total degree n in
    the two nestings and subtracting.
    """
    if n > deformation.order:
        raise DeformationError(
            f"component {n} exceeds the deformation order {deformation.order}"
        )
    sweep = _series_sweep(deformation, _COASSOC_L, _COASSOC_R, capped=False)
    return {i: diffs[n] for (i,), diffs in sweep}


# --- co-Moufang and Moufang checks modulo h^(N+1) ---------------------------


@dataclass
class SeriesReport:
    holds: bool
    degree: Optional[int] = None
    witness: Optional[tuple[int, ...]] = None
    diff: Optional[State] = None

    def describe(self, model: Optional[FiniteBialgebraModel] = None) -> str:
        if self.holds:
            return "holds"
        where = (
            tuple(model.label(i) for i in self.witness)
            if model is not None else self.witness
        )
        return (f"fails at h-degree {self.degree} on basis input {where}; "
                f"difference {self.diff}")


def _series_report(sweep) -> SeriesReport:
    found = first_difference(sweep)
    return SeriesReport(True) if found is None else SeriesReport(False, *found)


def check_comoufang_mod(deformation: TruncatedDeformation, side: str,
                        max_degree: Optional[int] = None) -> SeriesReport:
    """Does the deformation satisfy a co-Moufang law modulo h^(N+1)?"""
    from .theories import flag_rules

    if side not in ("left", "right"):
        raise DeformationError(f"unknown co-Moufang side {side!r}")
    rule = flag_rules(f"comoufang_{side[0]}")[0]
    return _series_report(
        _series_sweep(deformation, rule.lhs, rule.rhs, max_degree)
    )


def check_moufang_mod(deformation: TruncatedDeformation, side: str,
                      max_degree: Optional[int] = None) -> SeriesReport:
    """Bialgebra-level Moufang law for the deformed product, modulo h^(N+1)."""
    from .theories import flag_rules

    if side not in ("left", "middle", "right"):
        raise DeformationError(f"unknown Moufang side {side!r}")
    rule = flag_rules(f"moufang_{side[0]}")[0]
    return _series_report(
        _series_sweep(deformation, rule.lhs, rule.rhs, max_degree)
    )


# --- Q operator and the kernel of T ----------------------------------------


def q_operator(model: FiniteBialgebraModel) -> Matrix:
    """Exact matrix of p∘Δ (columns indexed by basis elements)."""
    q_diag = parse("comul ; mul")
    cols = []
    for i in range(model.dim):
        out = evaluate(q_diag, model, basis_state((i,)))
        col = [Fraction(0)] * model.dim
        for (k,), c in out.items():
            col[k] = c
        cols.append(col)
    return [[cols[j][i] for j in range(model.dim)] for i in range(model.dim)]


def check_diagonalizable(q: Matrix, graded: GradedSpace) -> dict[int, list[Vector]]:
    """Eigenspace decomposition of Q with eigenvalues 2^degree.

    Returns {degree: eigenspace basis}; raises when the eigenspaces do not
    fill the space (Q not diagonalizable with the graded spectrum).
    """
    dim = graded.dimension
    if len(q) != dim:
        raise DeformationError("operator and grading dimensions differ")
    spaces: dict[int, list[Vector]] = {}
    total = 0
    for degree in sorted(set(graded.degrees)):
        lam = Fraction(2 ** degree)
        shifted = [[q[i][j] - (lam if i == j else 0) for j in range(dim)]
                   for i in range(dim)]
        basis = linalg.nullspace(shifted)
        if basis:
            spaces[degree] = basis
            total += len(basis)
    if total != dim:
        raise DeformationError(
            "operator is not diagonalizable with the graded 2^n spectrum "
            f"(eigenspaces fill {total} of {dim} dimensions)"
        )
    return spaces


def eigen_kernel_T(q: Matrix, graded: GradedSpace) -> list[Vector]:
    """Exact nullspace basis of T = Q⊗Q⊗I - Q⊗I⊗I - I⊗Q⊗I.

    The triple space is ordered lexicographically: index (i, j, k) maps to
    (i*d + j)*d + k.  Diagonalizability of Q (with the 2^degree spectrum of
    the graded space) is checked first and refused on failure.
    """
    check_diagonalizable(q, graded)
    d = len(q)
    n3 = d ** 3
    rows = []
    for i1, i2, i3 in itertools.product(range(d), repeat=3):
        row = [Fraction(0)] * n3
        for j1 in range(d):
            if q[i1][j1]:
                for j2 in range(d):
                    if q[i2][j2]:
                        row[(j1 * d + j2) * d + i3] += q[i1][j1] * q[i2][j2]
        for j1 in range(d):
            if q[i1][j1]:
                row[(j1 * d + i2) * d + i3] -= q[i1][j1]
        for j2 in range(d):
            if q[i2][j2]:
                row[(i1 * d + j2) * d + i3] -= q[i2][j2]
        rows.append(row)
    return linalg.nullspace(rows)


# --- wedge and primitive membership ----------------------------------------


def antisymmetrize(t: State, slots: tuple[int, ...]) -> State:
    """Antisymmetrizer over the given tensor slots (exact, idempotent)."""
    perms = list(itertools.permutations(range(len(slots))))
    out: State = {}
    norm = Fraction(1, len(perms))
    for key, coeff in t.items():
        for perm in perms:
            sign = _perm_sign(perm)
            new = list(key)
            for target_pos, source_pos in enumerate(perm):
                new[slots[target_pos]] = key[slots[source_pos]]
            _add_state(out, {tuple(new): coeff * norm * sign})
    return out


def _perm_sign(perm: Sequence[int]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        v = start
        while not seen[v]:
            seen[v] = True
            v = perm[v]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def primitive_project(t: State, slots: tuple[int, ...],
                      primitive: Sequence[int]) -> State:
    """Zero out tensor entries whose indices at `slots` leave the span of
    the primitive coordinate subspace."""
    allowed = set(primitive)
    return {
        key: coeff for key, coeff in t.items()
        if all(key[s] in allowed for s in slots)
    }


def wedge_membership(t: State, slots: str, primitive: Sequence[int]) -> bool:
    """Membership of a rank-2/3 tensor in m∧m⊗U or m∧m∧m.

    `slots` is "first_two" or "all_three"; `primitive` lists the basis
    indices spanning the primitive subspace m (basis-aligned).
    """
    if not t:
        return True
    rank = len(next(iter(t)))
    if slots == "first_two":
        if rank not in (2, 3):
            raise DeformationError("first_two needs a rank-2 or rank-3 tensor")
        subset = (0, 1)
    elif slots == "all_three":
        if rank != 3:
            raise DeformationError("all_three needs a rank-3 tensor")
        subset = (0, 1, 2)
    else:
        raise DeformationError(f"unknown slot selector {slots!r}")
    if primitive_project(t, subset, primitive) != t:
        return False
    return antisymmetrize(t, subset) == t


# --- multiplicative series and the defect identity ---------------------------


def _series_multiplicative_defect(deformation: TruncatedDeformation,
                                  phi: TruncatedSeriesMap,
                                  degree: int) -> Optional[tuple]:
    """First failure of phi_h(x•y) = phi_h(x)•phi_h(y) at one h-degree."""
    model = deformation.base
    d = model.dim
    for key in model.basis_iterator(2):
        i, j = key
        lhs = [Fraction(0)] * d
        for a in range(degree + 1):
            rows = deformation.mul_rows_at(degree - a)
            for k, c in rows.get((i, j), ()):
                col = [phi.at(a)[r][k] * c for r in range(d)]
                lhs = [x + y for x, y in zip(lhs, col)]
        rhs = [Fraction(0)] * d
        for a in range(degree + 1):
            rows = deformation.mul_rows_at(a)
            if not rows:
                continue
            for b in range(degree + 1 - a):
                c_deg = degree - a - b
                x = [phi.at(b)[r][i] for r in range(d)]
                y = [phi.at(c_deg)[r][j] for r in range(d)]
                for s in range(d):
                    if not x[s]:
                        continue
                    for t in range(d):
                        if not y[t]:
                            continue
                        for k, c in rows.get((s, t), ()):
                            rhs[k] += x[s] * y[t] * c
        if lhs != rhs:
            return key
    return None


def derivation_defect(phi: TruncatedSeriesMap, psi: TruncatedSeriesMap,
                      deformation: TruncatedDeformation, n: int
                      ) -> SeriesReport:
    """The defect identity for two multiplicative series agreeing below n.

    Preconditions (checked, violations raise): both series are
    multiplicative for the deformed product modulo h^(order+1), and their
    components agree at every degree below n.  The verified identity, at
    every basis pair, is

        (phi_n - psi_n)(x y) = (phi_n - psi_n)(x) phi_0(y)
                               + psi_0(x) (phi_n - psi_n)(y)

    with x y the base product.
    """
    order = deformation.order
    if n < 1 or n > min(phi.order, psi.order):
        raise DeformationError(f"degree {n} outside both series")
    for name, series in (("first", phi), ("second", psi)):
        for m in range(min(order, series.order) + 1):
            bad = _series_multiplicative_defect(deformation, series, m)
            if bad is not None:
                raise DeformationError(
                    f"{name} series is not multiplicative at degree {m}, "
                    f"basis pair {bad}"
                )
    for i in range(n):
        if phi.at(i) != psi.at(i):
            raise DeformationError(
                f"series differ already at degree {i} (need agreement "
                f"below {n})"
            )
    model = deformation.base
    d = model.dim
    delta = [[phi.at(n)[r][c] - psi.at(n)[r][c] for c in range(d)]
             for r in range(d)]
    for key in model.basis_iterator(2):
        i, j = key
        lhs = [Fraction(0)] * d
        for k, c in model.mul_rows.get((i, j), ()):
            for r in range(d):
                if delta[r][k]:
                    lhs[r] += c * delta[r][k]
        rhs = [Fraction(0)] * d
        dx = [delta[r][i] for r in range(d)]
        y0 = [phi.at(0)[r][j] for r in range(d)]
        x0 = [psi.at(0)[r][i] for r in range(d)]
        dy = [delta[r][j] for r in range(d)]
        for s in range(d):
            for t in range(d):
                if dx[s] and y0[t]:
                    for k, c in model.mul_rows.get((s, t), ()):
                        rhs[k] += dx[s] * y0[t] * c
                if x0[s] and dy[t]:
                    for k, c in model.mul_rows.get((s, t), ()):
                        rhs[k] += x0[s] * dy[t] * c
        if lhs != rhs:
            diff = {
                (r,): lhs[r] - rhs[r] for r in range(d) if lhs[r] != rhs[r]
            }
            return SeriesReport(False, n, key, diff)
    return SeriesReport(True)


# --- the kernel map R + S ---------------------------------------------------

_R_DIAG = parse("comul * id(2) ; id(1) * swap * id(1) ; mul * id(2)")
_S_DIAG = parse("id(2) * comul ; id(1) * swap * id(1) ; mul * id(2)")


def apply_kernel_map(deformation: TruncatedDeformation,
                     states: list[State]) -> list[State]:
    """(R + S) on a degree-indexed rank-3 tensor family.

    R splits the first slot and multiplies one half into the second wire;
    S splits the third slot and multiplies one half back into the first.
    """
    r_out = evaluate_series(_R_DIAG, deformation, states)
    s_out = evaluate_series(_S_DIAG, deformation, states)
    merged = []
    for r, s in zip(r_out, s_out):
        total = dict(r)
        _add_state(total, s)
        merged.append(total)
    return merged


def kernel_map_RS(deformation: TruncatedDeformation) -> SeriesReport:
    """Verify (R+S)(C_h(x)) = 0 at every h-degree, for every basis x.

    Precondition (checked): the deformation satisfies the left and right
    co-Moufang laws modulo h^(order+1).
    """
    for side in ("left", "right"):
        report = check_comoufang_mod(deformation, side)
        if not report.holds:
            raise DeformationError(
                f"{deformation.name} is not {side} co-Moufang: "
                + report.describe(deformation.base)
            )
    sweep = _series_sweep(deformation, _COASSOC_L, _COASSOC_R, capped=False)
    return _series_report((x, apply_kernel_map(deformation, coassoc))
                          for x, coassoc in sweep)


# --- deformed associator congruences (the Nalt consequence) -----------------

_ASSOC_L = parse("mul * id(1) ; mul")
_ASSOC_R = parse("id(1) * mul ; mul")


def is_primitive(model: FiniteBialgebraModel, v: Vector) -> bool:
    """Is Δ(v) = v⊗1 + 1⊗v in the base model?"""
    state = {(i,): c for i, c in enumerate(v) if c}
    expected = evaluate(parse("id(1) * unit"), model, state)
    _add_state(expected, evaluate(parse("unit * id(1)"), model, state))
    return evaluate(parse("comul"), model, state) == expected


def _associator_series(deformation: TruncatedDeformation,
                       states: list[State]) -> list[State]:
    lhs = evaluate_series(_ASSOC_L, deformation, states)
    rhs = evaluate_series(_ASSOC_R, deformation, states)
    return [subtract_state(a, b) for a, b in zip(lhs, rhs)]


def nalt_mod_h(deformation: TruncatedDeformation, a: Vector) -> SeriesReport:
    """Alternating-associator congruences for a base-layer primitive.

    Preconditions (checked): the deformed product satisfies the left and
    right bialgebra-level Moufang laws modulo h^(order+1), and `a` is
    primitive in the base layer.  The verified congruences, per h-degree
    and all basis y, z, are

        (a, y, z)• = -(y, a, z)• = (y, z, a)•   (mod h^(order+1)).
    """
    model = deformation.base
    order = deformation.order
    for side in ("left", "right"):
        report = check_moufang_mod(deformation, side)
        if not report.holds:
            raise DeformationError(
                f"{deformation.name} does not satisfy the {side} Moufang "
                "law: " + report.describe(model)
            )
    if not is_primitive(model, a):
        raise DeformationError("input vector is not primitive in the base layer")

    def embed(position: int, y: int, z: int) -> list[State]:
        state: State = {}
        for i, c in enumerate(a):
            if c:
                key = [y, z]
                key.insert(position, i)
                _add_state(state, {tuple(key): c})
        return [state] + [{} for _ in range(order)]

    for y in range(model.dim):
        for z in range(model.dim):
            first = _associator_series(deformation, embed(0, y, z))
            second = _associator_series(deformation, embed(1, y, z))
            third = _associator_series(deformation, embed(2, y, z))
            for n in range(order + 1):
                anti = dict(first[n])
                _add_state(anti, second[n])
                if anti:
                    return SeriesReport(False, n, (y, z), anti)
                cyc = subtract_state(first[n], third[n])
                if cyc:
                    return SeriesReport(False, n, (y, z), cyc)
    return SeriesReport(True)


# --- Lie algebra models, Casimir, first cohomology ---------------------------


@dataclass(frozen=True)
class LieAlgebraModel:
    """A Lie algebra by structure constants; Jacobi checked at construction."""

    dim: int
    bracket_rows: dict[tuple[int, int], tuple[tuple[int, Fraction], ...]]
    labels: tuple[str, ...] = ()
    killing: Matrix = field(default_factory=list)

    @classmethod
    def from_brackets(cls, dim: int,
                      brackets: dict[tuple[int, int], dict[int, Fraction]],
                      labels: Optional[Sequence[str]] = None
                      ) -> "LieAlgebraModel":
        rows: dict[tuple[int, int], tuple[tuple[int, Fraction], ...]] = {}
        for i in range(dim):
            for j in range(dim):
                entries = brackets.get((i, j))
                if entries is None:
                    back = brackets.get((j, i), {})
                    entries = {k: -c for k, c in back.items()}
                rows[(i, j)] = tuple(sorted(
                    (k, Fraction(c)) for k, c in entries.items() if c
                ))
        def br(i, j):
            v = [Fraction(0)] * dim
            for k, c in rows[(i, j)]:
                v[k] += c
            return v
        for i in range(dim):
            for j in range(dim):
                anti = [x + y for x, y in zip(br(i, j), br(j, i))]
                if any(anti):
                    raise DeformationError(
                        f"bracket is not antisymmetric at ({i}, {j})"
                    )
        def br_vec(x, y):
            out = [Fraction(0)] * dim
            for i, xi in enumerate(x):
                if not xi:
                    continue
                for j, yj in enumerate(y):
                    if yj:
                        for k, c in rows[(i, j)]:
                            out[k] += xi * yj * c
            return out
        basis = [[Fraction(1 if t == s else 0) for t in range(dim)]
                 for s in range(dim)]
        for i, j, k in itertools.product(range(dim), repeat=3):
            jac = [
                p + q + r for p, q, r in zip(
                    br_vec(br_vec(basis[i], basis[j]), basis[k]),
                    br_vec(br_vec(basis[j], basis[k]), basis[i]),
                    br_vec(br_vec(basis[k], basis[i]), basis[j]),
                )
            ]
            if any(jac):
                raise DeformationError(
                    f"Jacobi identity fails at basis triple {(i, j, k)}"
                )
        ad = [cls._ad_matrix(rows, dim, i) for i in range(dim)]
        killing = [
            [_trace(linalg.mat_mul(ad[i], ad[j])) for j in range(dim)]
            for i in range(dim)
        ]
        return cls(dim, rows,
                   tuple(labels) if labels else tuple(str(i) for i in range(dim)),
                   killing)

    @staticmethod
    def _ad_matrix(rows, dim: int, i: int) -> Matrix:
        m = linalg.zeros(dim, dim)
        for j in range(dim):
            for k, c in rows[(i, j)]:
                m[k][j] += c
        return m

    def ad(self, i: int) -> Matrix:
        return self._ad_matrix(self.bracket_rows, self.dim, i)

    def bracket_vec(self, x: Vector, y: Vector) -> Vector:
        out = [Fraction(0)] * self.dim
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if yj:
                    for k, c in self.bracket_rows[(i, j)]:
                        out[k] += xi * yj * c
        return tuple(out)


def _trace(m: Matrix) -> Fraction:
    return sum((m[i][i] for i in range(len(m))), Fraction(0))


def sl2() -> LieAlgebraModel:
    """The split three-dimensional simple Lie algebra, basis (h, e, f)."""
    two, one = Fraction(2), Fraction(1)
    return LieAlgebraModel.from_brackets(
        3,
        {(0, 1): {1: two}, (0, 2): {2: -two}, (1, 2): {0: one}},
        labels=("h", "e", "f"),
    )


def check_representation(g: LieAlgebraModel, action: Sequence[Matrix]) -> None:
    """rho([a,b]) = rho(a)rho(b) - rho(b)rho(a) on all basis pairs."""
    if len(action) != g.dim:
        raise DeformationError("one action matrix per basis element required")
    for i in range(g.dim):
        for j in range(g.dim):
            lhs = linalg.zeros(len(action[0]), len(action[0]))
            for k, c in g.bracket_rows[(i, j)]:
                lhs = [
                    [x + c * y for x, y in zip(r1, r2)]
                    for r1, r2 in zip(lhs, action[k])
                ]
            rhs = linalg.mat_sub(
                linalg.mat_mul(action[i], action[j]),
                linalg.mat_mul(action[j], action[i]),
            )
            if lhs != rhs:
                raise DeformationError(
                    f"action is not a representation at basis pair ({i}, {j})"
                )


def adjoint_action(g: LieAlgebraModel) -> list[Matrix]:
    return [g.ad(i) for i in range(g.dim)]


def trivial_action(g: LieAlgebraModel, dim: int = 1) -> list[Matrix]:
    return [linalg.zeros(dim, dim) for _ in range(g.dim)]


def exterior_cube_action(action: Sequence[Matrix]) -> list[Matrix]:
    """Induced action on the third exterior power of the module."""
    dim = len(action[0])
    triples = [
        (i, j, k)
        for i in range(dim) for j in range(i + 1, dim)
        for k in range(j + 1, dim)
    ]
    index = {t: n for n, t in enumerate(triples)}
    out = []
    for rho in action:
        m = linalg.zeros(len(triples), len(triples))
        for col, (i, j, k) in enumerate(triples):
            for slot, idx in enumerate((i, j, k)):
                for target in range(dim):
                    c = rho[target][idx]
                    if not c:
                        continue
                    image = [i, j, k]
                    image[slot] = target
                    if len(set(image)) < 3:
                        continue
                    perm_sorted = tuple(sorted(image))
                    sign = _perm_sign(sorted(range(3), key=image.__getitem__))
                    m[index[perm_sorted]][col] += c * sign
        out.append(m)
    return out


def casimir(g: LieAlgebraModel, action: Sequence[Matrix]) -> Matrix:
    """Sum of rho(x_i) rho(x^i) over Killing-dual bases; commutes with rho.

    Requires a nondegenerate Killing form (the central simple case).
    """
    check_representation(g, action)
    try:
        kinv = linalg.invert(g.killing)
    except ValueError:
        raise DeformationError(
            "Killing form is degenerate; no Casimir operator"
        ) from None
    dim_m = len(action[0])
    out = linalg.zeros(dim_m, dim_m)
    for i in range(g.dim):
        for j in range(g.dim):
            c = kinv[i][j]
            if not c:
                continue
            prod = linalg.mat_mul(action[i], action[j])
            out = [
                [x + c * y for x, y in zip(r1, r2)]
                for r1, r2 in zip(out, prod)
            ]
    for i in range(g.dim):
        comm = linalg.mat_sub(
            linalg.mat_mul(out, action[i]), linalg.mat_mul(action[i], out)
        )
        if any(any(row) for row in comm):
            raise DeformationError(
                f"Casimir fails to commute with the action of basis {i}"
            )
    return out


@dataclass
class H1Report:
    dimension: int
    cocycle_basis: list[Vector]      # flattened maps g -> M, column-major by g
    coboundary_basis: list[Vector]


def h1_dimension(g: LieAlgebraModel, action: Sequence[Matrix]) -> H1Report:
    """dim Z^1 - dim B^1 for maps c : g -> M with the cocycle law

        c([a, b]) = a·c(b) - b·c(a).
    """
    check_representation(g, action)
    dim_m = len(action[0])
    n_unknowns = g.dim * dim_m

    def cell(gi: int, mi: int) -> int:
        return gi * dim_m + mi

    rows: list[list[Fraction]] = []
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            for m_row in range(dim_m):
                row = [Fraction(0)] * n_unknowns
                for k, c in g.bracket_rows[(i, j)]:
                    row[cell(k, m_row)] += c
                for m_col in range(dim_m):
                    row[cell(j, m_col)] -= action[i][m_row][m_col]
                    row[cell(i, m_col)] += action[j][m_row][m_col]
                rows.append(row)
    cocycles = linalg.nullspace(rows) if rows else [
        [Fraction(1) if t == s else Fraction(0) for t in range(n_unknowns)]
        for s in range(n_unknowns)
    ]
    cob_cols = []
    for m_col in range(dim_m):
        col = [Fraction(0)] * n_unknowns
        for gi in range(g.dim):
            for m_row in range(dim_m):
                col[cell(gi, m_row)] = action[gi][m_row][m_col]
        cob_cols.append(col)
    cob_matrix = [[cob_cols[c][r] for c in range(dim_m)]
                  for r in range(n_unknowns)]
    red, pivots = linalg.rref(linalg.transpose(cob_matrix))
    coboundaries = [red[r] for r in range(len(pivots))]
    return H1Report(len(cocycles) - len(coboundaries), cocycles, coboundaries)


# --- fixture deformations ----------------------------------------------------


def _exp_series(f: Matrix, order: int, sign: int = 1) -> list[Matrix]:
    """Components of exp(±h f) up to the given order."""
    d = len(f)
    out = [linalg.eye(d)]
    power = linalg.eye(d)
    for k in range(1, order + 1):
        power = linalg.mat_mul(power, f)
        coeff = Fraction(sign ** k, factorial(k))
        out.append(linalg.mat_scale(power, coeff))
    return out


def shift_conjugation_deformation(max_degree: int, order: int,
                                  check: bool = True) -> TruncatedDeformation:
    """Conjugate the binomial model by exp(h·shift), shift: a^n -> a^(n+1).

    The shift fixes 1 and raises every positive degree, so it is invertible
    as a truncated series but is not a derivation; the conjugated product
    picks up genuine higher components while every base identity (unit,
    counit, compatibility, both Moufang families and both co-Moufang
    families) transports exactly, degree by degree.
    """
    from .models import truncated_binomial_bialgebra

    model = truncated_binomial_bialgebra(max_degree)
    d = model.dim
    f = linalg.zeros(d, d)
    for n in range(1, d - 1):
        f[n + 1][n] = Fraction(1)
    fwd = _exp_series(f, order)
    inv = _exp_series(f, order, sign=-1)

    mul_maps: list[MulRows] = []
    for m in range(1, order + 1):
        rows: MulRows = {}
        for i in range(d):
            for j in range(d):
                acc = [Fraction(0)] * d
                for a in range(m + 1):
                    for b in range(m + 1 - a):
                        c_deg = m - a - b
                        x = [inv[b][r][i] for r in range(d)]
                        y = [inv[c_deg][r][j] for r in range(d)]
                        prod = [Fraction(0)] * d
                        for s in range(d):
                            if not x[s]:
                                continue
                            for t in range(d):
                                if not y[t]:
                                    continue
                                for k, c in model.mul_rows.get((s, t), ()):
                                    prod[k] += x[s] * y[t] * c
                        img = linalg.mat_vec(fwd[a], prod)
                        acc = [p + q for p, q in zip(acc, img)]
                entries = tuple(
                    (k, v) for k, v in enumerate(acc) if v
                )
                if entries:
                    rows[(i, j)] = entries
        mul_maps.append(rows)

    comul_maps: list[ComulRows] = []
    for m in range(1, order + 1):
        rows_c: ComulRows = {}
        for i in range(d):
            acc: State = {}
            for a in range(m + 1):
                for b in range(m + 1 - a):
                    c_deg = m - a - b
                    x = [inv[c_deg][r][i] for r in range(d)]
                    split: State = {}
                    for s in range(d):
                        if not x[s]:
                            continue
                        for (j, k), c in model.comul_rows.get(s, ()):
                            _add_state(split, {(j, k): x[s] * c})
                    for (j, k), c in split.items():
                        left = [fwd[a][r][j] for r in range(d)]
                        right = [fwd[b][r][k] for r in range(d)]
                        for r1 in range(d):
                            if not left[r1]:
                                continue
                            for r2 in range(d):
                                if right[r2]:
                                    _add_state(
                                        acc,
                                        {(r1, r2): c * left[r1] * right[r2]},
                                    )
            entries = tuple(sorted(acc.items()))
            if entries:
                rows_c[i] = entries
        comul_maps.append(rows_c)

    return deformation_from_maps(
        model, order, comul_maps, mul_maps,
        name=f"shift-conj[binomial[{max_degree}],order={order}]",
        strict=check,
    )


def simple_comul_perturbation(max_degree: int, order: int = 1
                              ) -> TruncatedDeformation:
    """Negative-control fixture: Δ_1(a) = a⊗a, everything else zero.

    Not compatible with the (undeformed) product, so it is built without
    registration; useful for exercising witness reporting and the pure
    degree bookkeeping of the coassociator.
    """
    from .models import truncated_binomial_bialgebra

    model = truncated_binomial_bialgebra(max_degree)
    comul1: ComulRows = {1: (((1, 1), Fraction(1)),)}
    comul_maps: list[ComulRows] = [comul1] + [{} for _ in range(order - 1)]
    mul_maps: list[MulRows] = [{} for _ in range(order)]
    return deformation_from_maps(
        model, order, comul_maps, mul_maps,
        name=f"delta1[binomial[{max_degree}]]", strict=False,
    )


# --- fixture and structure-constant files -----------------------------------


def save_deformation_text(deformation: TruncatedDeformation,
                          base_ref: str) -> str:
    """Fixture file: a base-model reference plus sparse component triples.

    `comul n i j k c` adds c·(e_j ⊗ e_k) to the degree-n coproduct of e_i;
    `mul n i j k c` adds c·e_k to the degree-n product of e_i ⊗ e_j.
    Degree-0 components live in the referenced base model, not the file.
    """
    lines = [f"deformation {deformation.name}", f"base {base_ref}",
             f"order {deformation.order}"]
    for n in range(1, deformation.order + 1):
        for i in sorted(deformation.comul_components[n]):
            for (j, k), c in deformation.comul_components[n][i]:
                lines.append(f"comul {n} {i} {j} {k} {c}")
        for (i, j) in sorted(deformation.mul_components[n]):
            for k, c in deformation.mul_components[n][(i, j)]:
                lines.append(f"mul {n} {i} {j} {k} {c}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def load_deformation_text(text: str, resolve_base,
                          strict: bool = True) -> TruncatedDeformation:
    """Parse a fixture file; `resolve_base` maps the base reference string
    to a FiniteBialgebraModel."""
    name, base_ref, order = "deformation", None, None
    comul_raw: dict[int, dict[int, list]] = {}
    mul_raw: dict[int, dict[tuple[int, int], list]] = {}
    for line in text.splitlines():
        words = line.split()
        if not words or words[0] in ("end",) or words[0].startswith("#"):
            continue
        if words[0] == "deformation":
            name = words[1]
        elif words[0] == "base":
            base_ref = words[1]
        elif words[0] == "order":
            order = int(words[1])
        elif words[0] == "comul":
            n, i, j, k = (int(w) for w in words[1:5])
            comul_raw.setdefault(n, {}).setdefault(i, []).append(
                ((j, k), Fraction(words[5]))
            )
        elif words[0] == "mul":
            n, i, j, k = (int(w) for w in words[1:5])
            mul_raw.setdefault(n, {}).setdefault((i, j), []).append(
                (k, Fraction(words[5]))
            )
        else:
            raise DeformationError(f"unknown line in fixture file: {line!r}")
    if base_ref is None or order is None:
        raise DeformationError("fixture file needs base and order lines")
    model = resolve_base(base_ref)
    comul_maps = [
        {i: tuple(entries) for i, entries in comul_raw.get(n, {}).items()}
        for n in range(1, order + 1)
    ]
    mul_maps = [
        {ij: tuple(entries) for ij, entries in mul_raw.get(n, {}).items()}
        for n in range(1, order + 1)
    ]
    return deformation_from_maps(model, order, comul_maps, mul_maps,
                                 name=name, strict=strict)


def save_lie_algebra_text(g: LieAlgebraModel, name: str = "lie") -> str:
    """Structure-constant file: `bracket i j k c` adds c·e_k to [e_i, e_j]."""
    lines = [f"lie {name}", f"dim {g.dim}"]
    if g.labels:
        lines.append("labels " + " ".join(g.labels))
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            for k, c in g.bracket_rows[(i, j)]:
                lines.append(f"bracket {i} {j} {k} {c}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def load_lie_algebra_text(text: str) -> LieAlgebraModel:
    dim = None
    labels = None
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for line in text.splitlines():
        words = line.split()
        if not words or words[0] in ("end", "lie") or words[0].startswith("#"):
            continue
        if words[0] == "dim":
            dim = int(words[1])
        elif words[0] == "labels":
            labels = words[1:]
        elif words[0] == "bracket":
            i, j, k = int(words[1]), int(words[2]), int(words[3])
            brackets.setdefault((i, j), {})[k] = Fraction(words[4])
        else:
            raise DeformationError(f"unknown line in Lie file: {line!r}")
    if dim is None:
        raise DeformationError("Lie-algebra file needs a dim line")
    return LieAlgebraModel.from_brackets(dim, brackets, labels)


def exp_derivation_series(model: FiniteBialgebraModel, derivation: Matrix,
                          start_degree: int, order: int) -> TruncatedSeriesMap:
    """exp(h^n · e) as a truncated series map (e a derivation matrix)."""
    d = model.dim
    comps = [linalg.eye(d)] + [linalg.zeros(d, d) for _ in range(order)]
    power = linalg.eye(d)
    k = 1
    while k * start_degree <= order:
        power = linalg.mat_mul(power, derivation)
        comps[k * start_degree] = linalg.mat_scale(
            power, Fraction(1, factorial(k))
        )
        k += 1
    return TruncatedSeriesMap(tuple(comps))


def identity_series(model: FiniteBialgebraModel, order: int
                    ) -> TruncatedSeriesMap:
    d = model.dim
    return TruncatedSeriesMap(
        tuple([linalg.eye(d)] + [linalg.zeros(d, d) for _ in range(order)])
    )


def euler_derivation(model: FiniteBialgebraModel) -> Matrix:
    """The degree operator a^n -> n a^n (an exact derivation of the
    truncated binomial model)."""
    if model.degrees is None:
        raise DeformationError("model carries no grading")
    d = model.dim
    m = linalg.zeros(d, d)
    for n in range(d):
        m[n][n] = Fraction(model.degrees[n])
    return m
