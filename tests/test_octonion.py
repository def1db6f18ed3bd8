import itertools
from fractions import Fraction

import pytest

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
    assert o16.associativity_witness() is not None
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
