"""Exact linear algebra over the rationals.

Matrices are lists of rows of Fractions.  Everything here is a plain
Gaussian-elimination routine, plus the one bilinear product that applies
a sparse structure-constant table to two term lists; no floating point
is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

Matrix = list[list[Fraction]]
Vector = list[Fraction]
# rows[(i, j)] = ((k, c), ...) means b(e_i, e_j) = sum of c * e_k; a missing
# pair means zero.  Model products (`models.MulRows`) use this format.
BilinearRows = dict[tuple[int, int], tuple[tuple[int, Fraction], ...]]
Sparse = dict[int, int | Fraction]  # {index: coefficient}, no zero values
Terms = list[tuple[int, int | Fraction]]  # [(index, coefficient), ...]


def basis_vector(dim: int, i: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(1 if j == i else 0) for j in range(dim))


def bilinear(rows: BilinearRows, x: Terms, y: Terms) -> Terms:
    """b(x, y) for the bilinear map b : V x V -> V with the table `rows`:
    one term per input term pair and table entry, unsummed (`collect`)."""
    out = []
    for i, a in x:
        for j, b in y:
            for k, c in rows.get((i, j), ()):
                out.append((k, a * b * c))
    return out


def collect(terms: Terms) -> Sparse:
    """The sum of a term list as a sparse vector."""
    out: Sparse = {}
    for k, c in terms:
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def zeros(rows: int, cols: int) -> Matrix:
    return [[Fraction(0)] * cols for _ in range(rows)]


def eye(n: int) -> Matrix:
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = Fraction(1)
    return m


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = zeros(rows, cols)
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for t in range(inner):
            c = ai[t]
            if c:
                bt = b[t]
                for j in range(cols):
                    if bt[j]:
                        oi[j] += c * bt[j]
    return out


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a: Matrix, c: Fraction) -> Matrix:
    return [[c * x for x in row] for row in a]


def mat_combination(terms: Iterable[tuple[Fraction, Matrix]], rows: int,
                    cols: int) -> Matrix:
    """The sum of c * m over the (c, m) pairs, as a rows x cols matrix."""
    out = zeros(rows, cols)
    for c, m in terms:
        for out_row, row in zip(out, m):
            for j, x in enumerate(row):
                if x:
                    out_row[j] += c * x
    return out


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row-echelon form; returns (reduced matrix, pivot columns)."""
    m = [row[:] for row in m]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def nullspace(m: Matrix) -> list[Vector]:
    """Basis of the right kernel {v : m v = 0}, in echelon order."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if rows == 0:
        return [list(basis_vector(cols, i)) for i in range(cols)]
    red, pivots = rref(m)
    pivot_set = set(pivots)
    basis = []
    for free in range(cols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * cols
        v[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][free]
        basis.append(v)
    return basis


def invert(a: Matrix) -> Matrix:
    n = len(a)
    aug = [a[i][:] + eye(n)[i] for i in range(n)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]
