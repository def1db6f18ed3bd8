"""Expected verdicts, set from the paper's claims or from closed forms.

None of these values comes from a run of the package: each is either a
theorem the toolkit exists to confirm, or a small computation written out
here from its definition.  Inputs are plain ints, Fractions and tuples;
only the two corrupted controls are built with the package's constructors.
"""

from __future__ import annotations

from fractions import Fraction

# --- prove ------------------------------------------------------------------

# Pairs no rewrite chain can join: each fails in a registered model of the
# theory, and the rules are sound, so a search must come back empty.
#   mul = swap;mul             loop[o16] is not commutative
#   coassociativity            fn[o16] is not coassociative
#   associativity              loop[o16] is not associative
#   comul = comul;swap         fn[o16] is not cocommutative
UNDERIVABLE = (
    ("mul-vs-swap-mul", "base", "mul", "swap ; mul"),
    ("coassoc", "comoufang", "comul ; comul * id(1)", "comul ; id(1) * comul"),
    ("assoc", "moufang", "mul * id(1) ; mul", "id(1) * mul ; mul"),
    ("comul-vs-comul-swap", "comoufang", "comul", "comul ; swap"),
)

# --- suite ------------------------------------------------------------------

# `moufang --format records suite`: every model registers, every linearity
# probe passes, every catalog goal passes (the twelve derivations and the
# exact countermodel for coassociativity), and the command exits 0.
SUITE_MODELS = ("loop[o16]", "fn[o16]", "binomial[6]")
SUITE_GOALS = (
    "counit-left", "counit-right", "comoufang-c1", "comoufang-c2",
    "comoufang-c3", "comoufang-c4", "comoufang-c5", "comoufang-c6",
    "comoufang-left-split", "comoufang-right-split", "kernel-map-left",
    "kernel-map-mixed", "coassoc",
)
SUITE_RECORDS = (
    tuple(("register", m, "pass") for m in SUITE_MODELS)
    + tuple(("linearity", m, "pass") for m in sorted(SUITE_MODELS))
    + tuple(("goal", g, "pass") for g in SUITE_GOALS)
)
SUITE_EXIT = 0

# --- octonion -----------------------------------------------------------------

# Generalized octonions are alternative, Moufang and have a Malcev
# traceless part for every nonzero parameter triple.  In the doubling
# convention u(vw) = -(uv)w whatever the parameters, so the associator
# (u,v,w) is 2(uv)w and, the algebra being alternative, the Jacobian of the
# commutator is 6(u,v,w) = 12(uv)w: index 6 of the traceless basis.
JACOBIAN_UVW = (Fraction(0),) * 6 + (Fraction(12),)


def corrupt_quaternions():
    """The nalt control of tests/test_octonion.py: u*v scaled to 2uv."""
    from moufang import octonion

    o = octonion.cayley_dickson(
        octonion.cayley_dickson(octonion.ground_field(), -1), -1)
    bad = dict(o.mul)
    bad[(1, 2)] = (3, Fraction(2))
    return octonion.CayleyAlgebra(o.dim, o.params, bad, o.conj_signs, o.labels)


def corrupt_octonions():
    """The Moufang control of tests/test_octonion.py: uv*uw -> 7 vw."""
    from moufang import octonion

    o = octonion.octonion_algebra(-1, -1, -1)
    bad = dict(o.mul)
    bad[(3, 5)] = (6, Fraction(7))
    return octonion.CayleyAlgebra(o.dim, o.params, bad, o.conj_signs, o.labels)


# --- deform -------------------------------------------------------------------


def delta1_coassociator(dim: int, degree: int) -> dict[int, dict]:
    """Coassociator of Delta_h = Delta_0 + h(a -> a(x)a) on binomial[dim-1].

    Degree 1 collects (Delta_1 x id)Delta_0 + (Delta_0 x id)Delta_1 minus
    the mirrored pair.  On a^m the Delta_1-on-a terms give
    m(a(x)a(x)a^(m-1) - a^(m-1)(x)a(x)a); the Delta_1(a) terms cancel.  In
    every other degree the binomial coproduct is coassociative and
    (Delta_1 x id)Delta_1 = a(x)a(x)a = (id x Delta_1)Delta_1.
    """
    out: dict[int, dict] = {x: {} for x in range(dim)}
    if degree != 1:
        return out
    for m in range(2, dim):
        state = {(1, 1, m - 1): Fraction(m)}
        key = (m - 1, 1, 1)
        state[key] = state.get(key, Fraction(0)) - m
        out[m] = {k: v for k, v in state.items() if v}
    return out


def loop_coassociator(mul, order: int) -> dict[int, dict]:
    """Degree-0 coassociator of the function algebra of a loop.

    Delta(d_x) = sum over yz = x of d_y (x) d_z, so the two nestings count
    the triples with (ab)c = x and with a(bc) = x.
    """
    out: dict[int, dict] = {x: {} for x in range(order)}
    for a in range(order):
        for b in range(order):
            ab = mul(a, b)
            for c in range(order):
                left, right = mul(ab, c), mul(a, mul(b, c))
                if left != right:
                    key = (a, b, c)
                    for x, sign in ((left, 1), (right, -1)):
                        state = out[x]
                        state[key] = state.get(key, 0) + sign
    return {x: {k: Fraction(v) for k, v in s.items() if v}
            for x, s in out.items()}


def is_diag_powers_of_two(q) -> bool:
    """q_operator on binomial[D] is diag(2^n): p(Delta(a^n)) = 2^n a^n."""
    return all(q[i][j] == (2 ** i if i == j else 0)
               for i in range(len(q)) for j in range(len(q)))


def spans_primitive_line(vectors, dim: int) -> bool:
    """The 2-eigenspace of diag(2^n) is the line of a = e_1."""
    return (len(vectors) == 1 and vectors[0][1] != 0
            and all(v == 0 for i, v in enumerate(vectors[0]) if i != 1))


def _rank(rows) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def is_eigen_kernel(vectors, d: int) -> bool:
    """ker(Q(x)Q(x)I - Q(x)I(x)I - I(x)Q(x)I) on binomial[d-1] is
    span{a(x)a(x)a^k}: 2^(i+j) = 2^i + 2^j only for i = j = 1."""
    support = [(1 * d + 1) * d + k for k in range(d)]
    if len(vectors) != d:
        return False
    if any(v for vec in vectors for i, v in enumerate(vec) if i not in support):
        return False
    return _rank([[vec[i] for i in support] for vec in vectors]) == d


def is_identity(m) -> bool:
    """The Casimir of sl2 on its adjoint module is 1 * I."""
    return all(m[i][j] == (1 if i == j else 0)
               for i in range(len(m)) for j in range(len(m)))
