import functools
import itertools
from fractions import Fraction

import pytest
from hypothesis import Phase, assume, example, given, settings, strategies as st

from conftest import associativity_witness
from moufang.linalg import invert
from moufang.models import MOUFANG_LAWS
from moufang.octonion import (
    AlgebraError,
    BracketAlgebra,
    CayleyAlgebra,
    algebra_text,
    associator,
    cayley_dickson,
    check_alternative,
    check_moufang,
    ground_field,
    jacobi_witness,
    jacobian,
    malcev_witness,
    nalt_check,
    octonion_algebra,
    traceless_malcev,
    unit_loop,
)

PARAM_SETS = [(-1, -1, -1), (-1, -4, -1), (2, 3, 5)]


def test_complex_case():
    c = cayley_dickson(ground_field(), -1)
    assert c.dim == 2
    u = c.basis(1)
    assert c.product(u, u) == (Fraction(-1), Fraction(0))


def test_doubling_guard_rails():
    with pytest.raises(AlgebraError):
        cayley_dickson(ground_field(), 0)
    with pytest.raises(AlgebraError):
        cayley_dickson(octonion_algebra(-1, -1, -1), -1)


def test_octonion_basis_labels():
    o = octonion_algebra(-1, -1, -1)
    assert o.labels == ("1", "u", "v", "uv", "w", "uw", "vw", "(uv)w")
    assert o.product(o.basis(1), o.basis(2))[3] == 1    # u v = uv
    assert o.product(o.basis(1), o.basis(4))[5] == 1    # u w = uw


def test_octonions_not_associative():
    o = octonion_algebra(-1, -1, -1)
    got = associator(o, o.basis(1), o.basis(2), o.basis(4))
    assert any(got)


def test_associator_vanishes_on_unit():
    o = octonion_algebra(-1, -1, -1)
    one = o.basis(0)
    for j, k in itertools.product(range(8), repeat=2):
        assert not any(associator(o, one, o.basis(j), o.basis(k)))


def test_alternativity_all_parameters():
    for params in PARAM_SETS:
        assert check_alternative(octonion_algebra(*params)) is None


def test_alternative_implies_basis_nalt():
    o = octonion_algebra(-1, -1, -1)
    for i in range(8):
        assert nalt_check(o, o.basis(i))


def test_nalt_on_random_rational_vector():
    o = octonion_algebra(2, 3, 5)
    v = tuple(Fraction(n, d) for n, d in
              [(1, 2), (-3, 1), (0, 1), (5, 7), (2, 3), (-1, 4), (9, 2), (1, 1)])
    assert nalt_check(o, v)


def test_nalt_negative_control():
    o = cayley_dickson(cayley_dickson(ground_field(), -1), -1)
    bad_mul = dict(o.mul)
    bad_mul[(1, 2)] = (3, Fraction(2))  # corrupt u*v
    bad = CayleyAlgebra(o.dim, o.params, bad_mul, o.conj_signs, o.labels)
    assert not nalt_check(bad, bad.basis(1))


def test_moufang_all_parameters():
    for params in PARAM_SETS:
        algebra = octonion_algebra(*params)
        for which in ("left", "middle", "right"):
            assert check_moufang(algebra, which) is None


def test_moufang_on_ground_field():
    assert check_moufang(ground_field(), "middle") is None


# corrupted product entry -> (alternative, Moufang left, middle, right,
# Malcev, basis indices on which nalt_check holds); None: not pinned
NEGATIVE_CONTROLS = [
    (((3, 5), (6, Fraction(7))),
     ((1, 2, 5), (0, 1, 3, 4), (0, 1, 2, 5), (0, 1, 2, 5), (0, 0, 1, 3),
      None)),
    (((1, 2), (3, Fraction(2))),
     ((1, 1, 2), (0, 1, 1, 2), (0, 1, 1, 3), (0, 1, 1, 2), (0, 0, 3, 1),
      [0])),
]


def test_moufang_negative_control():
    o = octonion_algebra(-1, -1, -1)
    for (ij, entry), expected in NEGATIVE_CONTROLS:
        alternative, left, middle, right, malcev, nalt = expected
        bad_mul = dict(o.mul)
        bad_mul[ij] = entry
        bad = CayleyAlgebra(o.dim, o.params, bad_mul, o.conj_signs, o.labels)
        # the exact witnesses pin the sweep order
        assert check_moufang(bad, "right") == right
        assert check_moufang(bad, "left") == left
        assert check_moufang(bad, "middle") == middle
        assert check_alternative(bad) == alternative
        assert malcev_witness(traceless_malcev(bad, check=False)) == malcev
        if nalt is not None:
            assert [i for i in range(8) if nalt_check(bad, bad.basis(i))] == nalt


def test_norm_multiplicative():
    for params in PARAM_SETS:
        o = octonion_algebra(*params)
        for i, j in itertools.product(range(8), repeat=2):
            x, y = o.basis(i), o.basis(j)
            assert o.norm(o.product(x, y)) == o.norm(x) * o.norm(y)
        v = tuple(Fraction(k - 3, 2) for k in range(8))
        w = tuple(Fraction((-1) ** k * (k + 1), 3) for k in range(8))
        assert o.norm(o.product(v, w)) == o.norm(v) * o.norm(w)


def test_conjugation_antiautomorphism():
    o = octonion_algebra(-1, -4, -1)
    for i, j in itertools.product(range(8), repeat=2):
        x, y = o.basis(i), o.basis(j)
        assert o.conj(o.product(x, y)) == o.product(o.conj(y), o.conj(x))
        assert o.conj(o.conj(x)) == x


def test_traceless_malcev_all_parameters():
    for params in PARAM_SETS:
        m = traceless_malcev(octonion_algebra(*params))
        assert m.dim == 7
        # antisymmetry on the nose
        for i in range(7):
            assert not any(m.bracket_vec(m.basis(i), m.basis(i)))


def test_traceless_requires_dim8():
    with pytest.raises(AlgebraError):
        traceless_malcev(cayley_dickson(ground_field(), -1))


def test_jacobian_antisymmetric_arguments():
    m = traceless_malcev(octonion_algebra(-1, -1, -1))
    a, b = m.basis(0), m.basis(4)
    assert not any(jacobian(m, a, a, b))


def test_jacobian_nonzero_uvw():
    for params in PARAM_SETS:
        m = traceless_malcev(octonion_algebra(*params))
        # u, v, w sit at traceless indices 0, 1, 3
        assert any(jacobian(m, m.basis(0), m.basis(1), m.basis(3)))


def test_jacobi_witness_on_malcev():
    # M is Malcev but not Lie: the first failing triple is (u, v, w)
    m = traceless_malcev(octonion_algebra(-1, -1, -1))
    assert jacobi_witness(m) == (0, 1, 3)


def test_jacobian_zero_on_lie_algebra():
    # sl2 as a Malcev algebra: the Jacobian vanishes identically
    two, one = Fraction(2), Fraction(1)
    zero = Fraction(0)
    bracket = {}
    table = {
        (0, 1): (zero, two, zero), (1, 0): (zero, -two, zero),
        (0, 2): (zero, zero, -two), (2, 0): (zero, zero, two),
        (1, 2): (one, zero, zero), (2, 1): (-one, zero, zero),
    }
    for i in range(3):
        for j in range(3):
            bracket[(i, j)] = table.get((i, j), (zero, zero, zero))
    lie = BracketAlgebra(3, {ij: tuple((k, c) for k, c in enumerate(row) if c)
                             for ij, row in bracket.items()}, ("h", "e", "f"))
    assert malcev_witness(lie) is None
    for i, j, k in itertools.product(range(3), repeat=3):
        assert not any(jacobian(lie, lie.basis(i), lie.basis(j), lie.basis(k)))


def test_unit_loop_properties(o16):
    assert o16.order == 16
    assert o16.identity == 0
    assert associativity_witness(o16) is not None
    # -1 is central of order two
    minus_one = 8
    assert o16.mul(minus_one, minus_one) == 0


def test_unit_loop_needs_minus_ones():
    with pytest.raises(AlgebraError):
        unit_loop(octonion_algebra(2, 3, 5))


def test_algebra_export_contains_table():
    o = octonion_algebra(-1, -1, -1)
    text = algebra_text(o)
    assert text.startswith("kind algebra")
    assert "mul 1 2 3 1" in text  # u v = uv


# --- brute-force dense oracle for the sweeps ----------------------------------
#
# Dense rational tuples, a product read straight off the table, every index
# tuple in lexicographic order (both orders of the polarized pair).  Zeros
# are ints: int and Fraction arithmetic mix exactly, and ints are cheaper.
# Each product is memoized per table: a sweep asks for the same few again
# and again, and every answer is still read off the table.


def _dense_product(rows, dim):
    """The bilinear map of ``rows`` ({(i, j): ((k, c), ...)}) on tuples."""
    @functools.lru_cache(maxsize=None)
    def p(x, y):
        out = [0] * dim
        ys = [(j, b) for j, b in enumerate(y) if b]
        for i, a in enumerate(x):
            if a:
                for j, b in ys:
                    for k, c in rows.get((i, j), ()):
                        out[k] += a * b * c
        return tuple(out)
    return p


def _add(x, y):
    return tuple(p + q for p, q in zip(x, y))


def _sub(x, y):
    return tuple(p - q for p, q in zip(x, y))


def _oracle_witness(dim, arity, fails):
    e = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    for key in itertools.product(range(dim), repeat=arity):
        if fails(*(e[i] for i in key)):
            return key
    return None


def _oracle_polarized(dim, lhs, rhs):
    return _oracle_witness(dim, 4, lambda s, t, x, y: (
        _add(lhs(s, t, x, y), lhs(t, s, x, y))
        != _add(rhs(s, t, x, y), rhs(t, s, x, y))))


def _oracle_associator(p, x, y, z):
    return _sub(p(p(x, y), z), p(x, p(y, z)))


def _oracle_alternative(p, dim):
    def fails(x, y, z):
        xyz = _oracle_associator(p, x, y, z)
        return (any(_add(xyz, _oracle_associator(p, y, x, z)))
                or any(_add(xyz, _oracle_associator(p, x, z, y))))
    return _oracle_witness(dim, 3, fails)


def _oracle_moufang(p, dim, which):
    lhs, rhs = MOUFANG_LAWS[which]
    return _oracle_polarized(dim, lambda s, t, x, y: lhs(p, s, t, x, y),
                             lambda s, t, x, y: rhs(p, s, t, x, y))


def _oracle_nalt(p, dim, v):
    def fails(x, y):
        first = _oracle_associator(p, v, x, y)
        return (any(_add(first, _oracle_associator(p, x, v, y)))
                or first != _oracle_associator(p, x, y, v))
    return _oracle_witness(dim, 2, fails) is None


def _oracle_jacobian(br, a, b, c):
    return _add(_add(br(br(a, b), c), br(br(b, c), a)), br(br(c, a), b))


def _oracle_jacobi(br, dim):
    return _oracle_witness(dim, 3,
                           lambda a, b, c: any(_oracle_jacobian(br, a, b, c)))


def _oracle_malcev(br, dim):
    return _oracle_polarized(
        dim,
        lambda s, t, b, c: _oracle_jacobian(br, s, b, br(t, c)),
        lambda s, t, b, c: br(_oracle_jacobian(br, s, b, c), t))


def _oracle_commutator(p):
    """The commutator bracket on the trace-zero part (indices 1..7), or
    None when some basis commutator has a trace component."""
    @functools.lru_cache(maxsize=None)
    def comm(x, y):
        x, y = (Fraction(0),) + x, (Fraction(0),) + y
        return _sub(p(x, y), p(y, x))
    e = [tuple(Fraction(int(i == j)) for j in range(7)) for i in range(7)]
    if any(comm(x, y)[0] for x in e for y in e):
        return None
    return lambda x, y: comm(x, y)[1:]


# Shrinking through the dense oracle takes seconds per octonion example, so
# a failure would report only after many minutes; report the first one.
_NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)

_NONZERO = st.fractions(min_value=-3, max_value=3,
                        max_denominator=3).filter(bool)


@st.composite
def _algebras(draw):
    """A random nonzero rational parameter triple, or the split table with
    one random entry replaced (as in NEGATIVE_CONTROLS)."""
    if draw(st.booleans()):
        return octonion_algebra(*draw(st.tuples(_NONZERO, _NONZERO, _NONZERO)))
    o = octonion_algebra(-1, -1, -1)
    index = st.integers(0, 7)
    bad_mul = dict(o.mul)
    bad_mul[(draw(index), draw(index))] = (draw(index), draw(_NONZERO))
    return CayleyAlgebra(o.dim, o.params, bad_mul, o.conj_signs, o.labels)


def _oracle_table(a):
    return _dense_product({ij: (kc,) for ij, kc in a.mul.items()}, a.dim)


def _assert_sweeps_agree(a):
    """Products and every sweep's witness on ``a`` agree with the oracle."""
    p = _oracle_table(a)
    e = [a.basis(i) for i in range(a.dim)]
    assert all(a.product(x, y) == p(x, y) for x in e for y in e)
    for which in ("left", "middle", "right"):
        assert check_moufang(a, which) == _oracle_moufang(p, a.dim, which)
    assert check_alternative(a) == _oracle_alternative(p, a.dim)
    br = _oracle_commutator(p)
    if br is None:
        with pytest.raises(AlgebraError):
            traceless_malcev(a, check=False)
        return
    m = traceless_malcev(a, check=False)
    assert malcev_witness(m) == _oracle_malcev(br, 7)
    assert jacobi_witness(m) == _oracle_jacobi(br, 7)


@given(_algebras())
@settings(max_examples=10, deadline=None, phases=_NO_SHRINK)
def test_sweeps_agree_with_dense_oracle(a):
    _assert_sweeps_agree(a)


def test_sweeps_agree_with_dense_oracle_at_non_integral_parameters():
    """At (1/3, 2/7, -5/11) the scaled table has N = 3 * 7 * 11 = 231, so
    every law difference is scaled before its zero test."""
    a = octonion_algebra(Fraction(1, 3), Fraction(2, 7), Fraction(-5, 11))
    assert a.mul_scaled([(1, 1)], [(1, 1)]) == [(0, 77)]  # u u = 1/3
    _assert_sweeps_agree(a)
    assert jacobi_witness(traceless_malcev(a)) == (0, 1, 3)
    p = _oracle_table(a)
    v = tuple(Fraction(n, d) for n, d in
              [(1, 2), (-3, 1), (0, 1), (5, 7), (2, 3), (-1, 4), (9, 2), (1, 1)])
    for x in [a.basis(i) for i in range(8)] + [v]:
        assert nalt_check(a, x) == _oracle_nalt(p, 8, x) is True


_FRACTIONAL = st.fractions(min_value=-3, max_value=3,
                           max_denominator=7).filter(lambda q: q.denominator > 1)


@st.composite
def _fractional_algebras(draw):
    """A parameter triple with every denominator above 1, or the split
    table with one entry replaced by a non-integral constant."""
    if draw(st.booleans()):
        return octonion_algebra(*draw(st.tuples(*[_FRACTIONAL] * 3)))
    o = octonion_algebra(-1, -1, -1)
    index = st.integers(0, 7)
    bad_mul = dict(o.mul)
    bad_mul[(draw(index), draw(index))] = (draw(index), draw(_FRACTIONAL))
    return CayleyAlgebra(o.dim, o.params, bad_mul, o.conj_signs, o.labels)


@given(_fractional_algebras(),
       st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=5),
                min_size=8, max_size=8).filter(
                    lambda v: sum(map(bool, v)) > 1))
@settings(max_examples=30, deadline=None, phases=_NO_SHRINK)
def test_nalt_agrees_with_dense_oracle(a, v):
    """nalt_check on a rational vector that is no multiple of a basis
    vector, where the table and the vector are both scaled to ints."""
    v = tuple(v)
    assert nalt_check(a, v) == _oracle_nalt(_oracle_table(a), a.dim, v)


_SL2 = {(0, 1): ((1, Fraction(2)),), (1, 0): ((1, Fraction(-2)),),
        (0, 2): ((2, Fraction(-2)),), (2, 0): ((2, Fraction(2)),),
        (1, 2): ((0, Fraction(1)),), (2, 1): ((0, Fraction(-1)),)}


def _change_basis(rows, dim, new):
    """Structure constants of the same algebra in the basis whose a-th
    element has old coordinates new[a]."""
    to_new = invert([list(col) for col in zip(*new)])
    br = _dense_product(rows, dim)
    out = {}
    for a, b in itertools.product(range(dim), repeat=2):
        old = br(tuple(new[a]), tuple(new[b]))
        coords = [sum(r[i] * old[i] for i in range(dim)) for r in to_new]
        out[(a, b)] = tuple((k, c) for k, c in enumerate(coords) if c)
    return out


@given(new=st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3),
                    min_size=3, max_size=3),
       broken=st.tuples(st.integers(0, 2), st.integers(0, 2),
                        st.integers(0, 2), _NONZERO))
@example(new=[[1, 1, 0], [0, 1, 1], [1, 0, 1]], broken=(0, 1, 0, Fraction(1)))
@settings(max_examples=40, deadline=None, phases=_NO_SHRINK)
def test_sweeps_on_several_term_brackets(new, broken):
    """sl2 in a random basis, where a bracket of two basis elements has
    several terms, and a copy with one antisymmetric pair of brackets
    changed: the sweeps agree with the dense oracle on both."""
    new = [[Fraction(c) for c in row] for row in new]
    try:
        rows = _change_basis(_SL2, 3, new)
    except ValueError:  # singular basis change
        assume(False)
    i, j, k, c = broken
    # [[e_i, e_j], e_l] gains c [e_k, e_l] for the third index l, which is
    # nonzero in sl2 unless k = l: so the changed copy is not Lie
    assume(i != j and k != 3 - i - j)
    bad = dict(rows)
    bad[(i, j)] = rows[(i, j)] + ((k, c),)
    bad[(j, i)] = rows[(j, i)] + ((k, -c),)
    for table in (rows, bad):
        m = BracketAlgebra(3, table, ("x", "y", "z"))
        br = _dense_product(table, 3)
        assert jacobi_witness(m) == _oracle_jacobi(br, 3)
        assert malcev_witness(m) == _oracle_malcev(br, 3)
    assert jacobi_witness(BracketAlgebra(3, rows, ("x", "y", "z"))) is None
    assert jacobi_witness(BracketAlgebra(3, bad, ("x", "y", "z"))) is not None
