"""Generalized octonion algebras by Cayley-Dickson doubling, their
traceless Malcev algebras, and the one bracket-algebra type that holds
both these Malcev algebras and the Lie algebras of `deformation`.

The doubling convention is fixed as

    (a, b) (c, d) = (a c + mu * conj(d) b,  d a + b conj(c)),
    conj(a, b)    = (conj(a), -b).

Conventions differ across texts; the verified identities are convention
independent but the structure-constant tables and witnesses are not, so
this one is fixed and documented.  Basis order after three doublings with
parameters (alpha, beta, gamma) is (1, u, v, uv, w, uw, vw, (uv)w).
All arithmetic is exact rational.

The law sweeps run on int term lists: each algebra caches its table with
every constant times N, the lcm of their denominators.  Every law swept is
homogeneous, with d products in each term (2 in an associator or Jacobian,
3 in a polarized Moufang or Malcev side), so each difference comes out N^d
times the true one: zero exactly when it is, and the first witness is
unchanged.  `nalt_check` scales its vector the same way; it occurs once
in each associator.  The dense API (`product`, `bracket_vec`, `associator`,
`jacobian`) reads the unscaled table.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from typing import Optional

from .linalg import (BilinearRows, Matrix, Terms, basis_vector, bilinear,
                     collect, zeros)
from .models import MOUFANG_LAWS, MoufangLoop

Vector = tuple[Fraction, ...]


def _dense_call(dim: int, f, *vectors: Vector) -> Vector:
    """f on the term lists of dense vectors, as a dense Fraction tuple."""
    out = collect(f(*([(i, c) for i, c in enumerate(x) if c]
                      for x in vectors)))
    return tuple(Fraction(out.get(i, 0)) for i in range(dim))


def _denominators_lcm(cs) -> int:
    return math.lcm(*(Fraction(c).denominator for c in cs))


def _scaled_product(rows: BilinearRows):
    """The product of `rows` times N, on int term lists."""
    n = _denominators_lcm(c for row in rows.values() for _k, c in row)
    return partial(bilinear, {ij: [(k, int(c * n)) for k, c in row]
                              for ij, row in rows.items()})


class AlgebraError(Exception):
    """Invalid construction or a failed structural verification."""


_BASIS_LABELS_8 = ("1", "u", "v", "uv", "w", "uw", "vw", "(uv)w")


@dataclass(frozen=True)
class CayleyAlgebra:
    """A unital algebra from iterated doubling: dim 1, 2, 4 or 8.

    mul[(i, j)] = (k, c) means e_i e_j = c e_k: basis products are always
    scalar multiples of basis elements under this construction.
    """

    dim: int
    params: tuple[Fraction, ...]
    mul: dict[tuple[int, int], tuple[int, Fraction]]
    conj_signs: tuple[int, ...]
    labels: tuple[str, ...]

    @cached_property
    def mul_rows(self) -> BilinearRows:
        """The table in the `linalg.BilinearRows` format."""
        return {ij: (kc,) for ij, kc in self.mul.items()}

    @cached_property
    def mul_scaled(self):
        """The product times N on int term lists (see the module doc)."""
        return _scaled_product(self.mul_rows)

    def product(self, x: Vector, y: Vector) -> Vector:
        return _dense_call(self.dim, partial(bilinear, self.mul_rows), x, y)

    def conj(self, x: Vector) -> Vector:
        return tuple(s * xi for s, xi in zip(self.conj_signs, x))

    def basis(self, i: int) -> Vector:
        return basis_vector(self.dim, i)

    def norm(self, x: Vector) -> Fraction:
        """n(x) = x conj(x); raises if the product is not scalar."""
        prod = self.product(x, self.conj(x))
        if any(prod[1:]):
            raise AlgebraError("x * conj(x) is not a scalar")
        return prod[0]


def ground_field() -> CayleyAlgebra:
    return CayleyAlgebra(
        1, (), {(0, 0): (0, Fraction(1))}, (1,), ("1",)
    )


def cayley_dickson(base: CayleyAlgebra, mu: Fraction | int) -> CayleyAlgebra:
    """Double `base` with parameter mu: the new imaginary unit squares to mu."""
    mu = Fraction(mu)
    if mu == 0:
        raise AlgebraError("doubling parameter must be nonzero")
    if base.dim not in (1, 2, 4):
        raise AlgebraError(
            "doubling beyond dimension 8 is refused: the result would not "
            "be alternative"
        )
    n = base.dim
    mul: dict[tuple[int, int], tuple[int, Fraction]] = {}

    def half(i: int) -> tuple[int, int]:
        return (i % n, i // n)  # (base index, 0 = first or 1 = second slot)

    for i in range(2 * n):
        bi, si = half(i)
        for j in range(2 * n):
            bj, sj = half(j)
            if si == 0 and sj == 0:        # (a,0)(c,0) = (ac, 0)
                k, c = base.mul[(bi, bj)]
                mul[(i, j)] = (k, c)
            elif si == 0 and sj == 1:      # (a,0)(0,d) = (0, da)
                k, c = base.mul[(bj, bi)]
                mul[(i, j)] = (k + n, c)
            elif si == 1 and sj == 0:      # (0,b)(c,0) = (0, b conj(c))
                k, c = base.mul[(bi, bj)]
                mul[(i, j)] = (k + n, c * base.conj_signs[bj])
            else:                          # (0,b)(0,d) = (mu conj(d) b, 0)
                k, c = base.mul[(bj, bi)]
                mul[(i, j)] = (k, mu * c * base.conj_signs[bj])
    conj_signs = base.conj_signs + tuple(-1 for _ in range(n))
    return CayleyAlgebra(2 * n, base.params + (mu,), mul, conj_signs,
                         _BASIS_LABELS_8[:2 * n])


def octonion_algebra(alpha, beta, gamma) -> CayleyAlgebra:
    """O(alpha, beta, gamma): three doublings of the ground field."""
    return cayley_dickson(
        cayley_dickson(cayley_dickson(ground_field(), alpha), beta), gamma
    )


def _neg(terms: Terms) -> Terms:
    return [(k, -c) for k, c in terms]


def _associator(p, x: Terms, y: Terms, z: Terms) -> Terms:
    return p(p(x, y), z) + _neg(p(x, p(y, z)))


def associator(a: CayleyAlgebra, x: Vector, y: Vector, z: Vector) -> Vector:
    p = partial(bilinear, a.mul_rows)
    return _dense_call(a.dim, partial(_associator, p), x, y, z)


def _witness(laws, keys) -> Optional[tuple]:
    """The first index tuple of ``keys`` at which one of the term lists
    that ``laws`` returns on the basis term lists ``[(i, 1)]`` does not sum
    to zero, or None.  Every law check of this module is swept by this one
    loop."""
    return next((k for k in keys
                 if any(map(collect, laws(*([(i, 1)] for i in k))))), None)


def _polarized(dim: int, lhs, rhs) -> Optional[tuple]:
    """The first witness (s, t, x, y) of a law lhs = rhs that is quadratic
    in one variable, given through its two occurrences s and t, or None.

    It compares lhs(s, t, x, y) + lhs(t, s, x, y) with the same sum for
    rhs: for each side f that is f(s + t) - f(s) - f(t), so in
    characteristic zero the sweep over basis s, t decides the law.  The
    sums are symmetric in s and t, so only s <= t is visited: that keeps
    the first witness, as (i, j, ...) comes before (j, i, ...) if i < j.
    """
    def laws(s, t, x, y):
        return (lhs(s, t, x, y) + lhs(t, s, x, y)
                + _neg(rhs(s, t, x, y) + rhs(t, s, x, y)),)
    return _witness(laws, (k for k in itertools.product(range(dim), repeat=4)
                            if k[0] <= k[1]))


def check_alternative(a: CayleyAlgebra) -> Optional[tuple]:
    """Polarized alternativity sweep; returns a witness triple or None."""
    p = a.mul_scaled
    def laws(x, y, z):
        xyz = _associator(p, x, y, z)
        return xyz + _associator(p, y, x, z), xyz + _associator(p, x, z, y)
    return _witness(laws, itertools.product(range(a.dim), repeat=3))


def nalt_check(a: CayleyAlgebra, v: Vector) -> bool:
    """Does v satisfy (v,x,y) = -(x,v,y) = (x,y,v) for all basis x, y?"""
    p, n = a.mul_scaled, _denominators_lcm(v)
    v = [(i, int(c * n)) for i, c in enumerate(v) if c]
    def laws(x, y):
        first = _associator(p, v, x, y)
        return (first + _associator(p, x, v, y),
                first + _neg(_associator(p, x, y, v)))
    return _witness(laws, itertools.product(range(a.dim), repeat=2)) is None


def check_moufang(a: CayleyAlgebra, which: str) -> Optional[tuple]:
    """Polarized sweep of one law of `models.MOUFANG_LAWS` over the basis
    quadruples (both occurrences of the repeated variable, x, y); returns a
    witness quadruple or None."""
    if which not in MOUFANG_LAWS:
        raise AlgebraError(f"unknown Moufang law {which!r}")
    return _polarized(a.dim, *(partial(side, a.mul_scaled)
                               for side in MOUFANG_LAWS[which]))


# --- traceless Malcev algebra --------------------------------------------


@dataclass(frozen=True)
class BracketAlgebra:
    """An anticommutative algebra by sparse structure constants: the Malcev
    algebra of `traceless_malcev`, or a Lie algebra (`deformation.lie_algebra`).

    bracket_rows[(i, j)] lists [e_i, e_j] for every basis pair, in the
    `linalg.BilinearRows` format.
    """

    dim: int
    bracket_rows: BilinearRows
    labels: tuple[str, ...]

    @cached_property
    def bracket_scaled(self):
        """The bracket times N on int term lists (see the module doc)."""
        return _scaled_product(self.bracket_rows)

    def bracket_vec(self, x: Vector, y: Vector) -> Vector:
        return _dense_call(self.dim, partial(bilinear, self.bracket_rows),
                           x, y)

    def basis(self, i: int) -> Vector:
        return basis_vector(self.dim, i)

    @cached_property
    def ad(self) -> tuple[Matrix, ...]:
        """ad[i][k][j] is the e_k coefficient of [e_i, e_j]."""
        out = []
        for i in range(self.dim):
            m = zeros(self.dim, self.dim)
            for j in range(self.dim):
                for k, c in self.bracket_rows[(i, j)]:
                    m[k][j] += c
            out.append(m)
        return tuple(out)

    @cached_property
    def killing(self) -> Matrix:
        """The Killing form tr(ad_i ad_j)."""
        n, ad = self.dim, self.ad
        return [[sum((ad[i][k][l] * ad[j][l][k]
                      for k in range(n) for l in range(n)), Fraction(0))
                 for j in range(n)] for i in range(n)]


def _jacobian(br, a: Terms, b: Terms, c: Terms) -> Terms:
    return br(br(a, b), c) + br(br(b, c), a) + br(br(c, a), b)


def jacobian(m: BracketAlgebra, a: Vector, b: Vector, c: Vector) -> Vector:
    """[[a,b],c] + [[b,c],a] + [[c,a],b]."""
    br = partial(bilinear, m.bracket_rows)
    return _dense_call(m.dim, partial(_jacobian, br), a, b, c)


def jacobi_witness(m: BracketAlgebra) -> Optional[tuple]:
    """First basis triple at which the Jacobian is nonzero, or None."""
    br = m.bracket_scaled
    return _witness(lambda a, b, c: (_jacobian(br, a, b, c),),
                    itertools.product(range(m.dim), repeat=3))


def malcev_witness(m: BracketAlgebra) -> Optional[tuple]:
    """Polarized Malcev law sweep; returns a witness quadruple or None.

    The law Jac(a,b,[a,c]) = [Jac(a,b,c),a] is quadratic in a; the check
    sweeps its polarization over the basis quadruples.
    """
    br = m.bracket_scaled
    return _polarized(m.dim, lambda s, t, b, c: _jacobian(br, s, b, br(t, c)),
                      lambda s, t, b, c: br(_jacobian(br, s, b, c), t))


def traceless_malcev(a: CayleyAlgebra, check: bool = True) -> BracketAlgebra:
    """Commutator algebra on the trace-zero part of an octonion algebra."""
    if a.dim != 8:
        raise AlgebraError("traceless Malcev algebra needs an 8-dim algebra")
    rows: BilinearRows = {}
    for i, j in itertools.product(range(1, 8), repeat=2):
        x, y = a.basis(i), a.basis(j)
        comm = [p - q for p, q in zip(a.product(x, y), a.product(y, x))]
        if comm[0] != 0:
            raise AlgebraError(
                "commutator of traceless elements has a trace component"
            )
        rows[(i - 1, j - 1)] = tuple((k, c) for k, c in enumerate(comm[1:])
                                     if c)
    m = BracketAlgebra(7, rows, a.labels[1:])
    if check:
        witness = malcev_witness(m)
        if witness is not None:
            raise AlgebraError(f"Malcev law fails at basis quadruple {witness}")
    return m


# --- the order-16 unit loop ----------------------------------------------


def unit_loop(a: CayleyAlgebra) -> MoufangLoop:
    """The loop {+-e_i} of an octonion algebra with parameters (-1,-1,-1).

    Elements are encoded as sign * basis: index i for +e_i, 8 + i for -e_i.
    For other parameters the signed basis is not closed under the product
    and the construction is refused.
    """
    if a.dim != 8 or a.params != (Fraction(-1),) * 3:
        raise AlgebraError(
            "the signed basis closes into a loop only for parameters "
            "(-1, -1, -1)"
        )
    order = 16

    def code(k: int, c: Fraction) -> int:
        if c == 1:
            return k
        if c == -1:
            return 8 + k
        raise AlgebraError("basis product is not +-(basis element)")

    table = [[0] * order for _ in range(order)]
    for i in range(order):
        si, bi = (1, i) if i < 8 else (-1, i - 8)
        for j in range(order):
            sj, bj = (1, j) if j < 8 else (-1, j - 8)
            k, c = a.mul[(bi, bj)]
            table[i][j] = code(k, c * si * sj)
    labels = tuple(
        ("" if i < 8 else "-") + a.labels[i % 8] for i in range(order)
    )
    return MoufangLoop.from_table(table, labels, name="o16")


def o16_loop() -> MoufangLoop:
    return unit_loop(octonion_algebra(-1, -1, -1))


# --- structure-constant export -------------------------------------------


def algebra_text(a: CayleyAlgebra) -> str:
    """Sparse-triple export of the product table (same syntax as models)."""
    lines = [
        "kind algebra",
        f"model cayley{a.dim}" + "".join(f"_{p}" for p in a.params),
        f"dim {a.dim}",
        "basis " + " ".join(a.labels),
    ]
    for (i, j), (k, c) in sorted(a.mul.items()):
        if c:
            lines.append(f"mul {i} {j} {k} {c}")
    lines.append("unit 0 1")
    lines.append("end")
    return "\n".join(lines) + "\n"
