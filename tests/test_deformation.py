import hashlib
import re
from fractions import Fraction

import pytest

from moufang import linalg
from moufang.deformation import (
    DeformationError,
    GradedSpace,
    LieAlgebraModel,
    TruncatedSeriesMap,
    adjoint_action,
    antisymmetrize,
    casimir,
    check_comoufang_mod,
    check_diagonalizable,
    check_moufang_mod,
    coassociator,
    derivation_defect,
    eigen_kernel_T,
    euler_derivation,
    evaluate_series,
    exp_derivation_series,
    exterior_cube_action,
    h1_dimension,
    identity_series,
    is_primitive,
    kernel_map_RS,
    nalt_mod_h,
    null_deformation,
    primitive_project,
    q_operator,
    shift_conjugation_deformation,
    simple_comul_perturbation,
    sl2,
    trivial_action,
    wedge_membership,
)
from moufang.dsl import parse
from moufang.models import basis_state, truncated_binomial_bialgebra

F = Fraction


# --- independent direct-expansion oracle for the coassociator -------------

def _poly_mul(p, q, order):
    out = [F(0)] * (order + 1)
    for i, a in enumerate(p):
        if not a:
            continue
        for j, b in enumerate(q):
            if b and i + j <= order:
                out[i + j] += a * b
    return out


def _poly_delta(deformation, t, order):
    """Delta_h(e_t) with polynomial coefficients, by direct table lookup."""
    out = {}
    for n in range(order + 1):
        for (j, k), c in deformation.comul_rows_at(n).get(t, ()):
            poly = out.setdefault((j, k), [F(0)] * (order + 1))
            poly[n] += c
    return out


def _oracle_coassociator(deformation, t, order):
    """(Delta_h x Id)Delta_h - (Id x Delta_h)Delta_h on e_t, expanded with
    explicit truncated polynomial arithmetic (independent of the
    degree-convolving evaluator)."""
    left = {}
    for (j, k), p1 in _poly_delta(deformation, t, order).items():
        for (a, b), p2 in _poly_delta(deformation, j, order).items():
            key = (a, b, k)
            prod = _poly_mul(p1, p2, order)
            acc = left.setdefault(key, [F(0)] * (order + 1))
            for n in range(order + 1):
                acc[n] += prod[n]
    right = {}
    for (j, k), p1 in _poly_delta(deformation, t, order).items():
        for (a, b), p2 in _poly_delta(deformation, k, order).items():
            key = (j, a, b)
            prod = _poly_mul(p1, p2, order)
            acc = right.setdefault(key, [F(0)] * (order + 1))
            for n in range(order + 1):
                acc[n] += prod[n]
    per_degree = []
    for n in range(order + 1):
        state = {}
        for key in set(left) | set(right):
            value = (left.get(key, [F(0)] * (order + 1))[n]
                     - right.get(key, [F(0)] * (order + 1))[n])
            if value:
                state[key] = value
        per_degree.append(state)
    return per_degree


@pytest.mark.parametrize("fixture_name", ["delta1", "shift", "null"])
def test_coassociator_matches_direct_expansion(fixture_name):
    if fixture_name == "delta1":
        deformation = simple_comul_perturbation(6, order=3)
    elif fixture_name == "shift":
        deformation = shift_conjugation_deformation(12, 3)
    else:
        deformation = null_deformation(truncated_binomial_bialgebra(6), 3)
    for t in range(deformation.base.dim):
        expected = _oracle_coassociator(deformation, t, deformation.order)
        for n in range(deformation.order + 1):
            assert coassociator(deformation, n)[t] == expected[n], (t, n)


def test_coassociator_zero_for_null_and_conjugation():
    shift = shift_conjugation_deformation(12, 3)
    null = null_deformation(truncated_binomial_bialgebra(6), 2)
    for deformation in (shift, null):
        for n in range(deformation.order + 1):
            assert all(not s for s in coassociator(deformation, n).values())


def test_coassociator_of_delta1_fixture_nonzero_at_a_cubed():
    deformation = simple_comul_perturbation(6, order=1)
    c1 = coassociator(deformation, 1)
    assert c1[1] == {} and c1[2] == {}
    assert c1[3] == {(1, 1, 2): F(3), (2, 1, 1): F(-3)}


def test_coassociator_order_out_of_range():
    deformation = null_deformation(truncated_binomial_bialgebra(4), 1)
    with pytest.raises(DeformationError):
        coassociator(deformation, 2)


def test_series_registration_rejects_broken_counit():
    model = truncated_binomial_bialgebra(4)
    from moufang.deformation import deformation_from_maps

    with pytest.raises(DeformationError):
        deformation_from_maps(
            model, 1, [{0: (((0, 0), F(1)),)}], [{}], name="broken"
        )


def test_eq5_split_labels_in_series_evaluator():
    """plain = %0 + %+ when both sides evaluate against the same family."""
    deformation = shift_conjugation_deformation(10, 2)
    full = parse("comul")
    zero = parse("comul%0")
    plus = parse("comul%+")
    for t in range(deformation.base.dim):
        a = evaluate_series(full, deformation, basis_state((t,)))
        b = evaluate_series(zero, deformation, basis_state((t,)))
        c = evaluate_series(plus, deformation, basis_state((t,)))
        for n in range(deformation.order + 1):
            merged = dict(b[n])
            for key, value in c[n].items():
                merged[key] = merged.get(key, F(0)) + value
            merged = {k: v for k, v in merged.items() if v}
            assert merged == a[n]


def test_check_comoufang_mod_null_over_function_model(fn_o16):
    deformation = null_deformation(fn_o16, 1)
    for side in ("left", "right"):
        assert check_comoufang_mod(deformation, side).holds


def test_check_comoufang_mod_null_over_loop_model(loop_o16):
    # Group-like coproducts collapse every Sweedler leg to the same element,
    # so the loop model satisfies the co-Moufang shapes outright; the
    # witness-reporting path is exercised by the perturbation fixture below.
    deformation = null_deformation(loop_o16, 1)
    report = check_comoufang_mod(deformation, "left")
    assert report.holds


def test_check_comoufang_mod_violation_at_order_one():
    deformation = simple_comul_perturbation(6, order=1)
    report = check_comoufang_mod(deformation, "left")
    assert not report.holds and report.degree == 1


def test_q_operator_diagonal(binomial6):
    q = q_operator(binomial6)
    for i in range(7):
        for j in range(7):
            assert q[i][j] == (F(2 ** i) if i == j else 0)


def test_q_on_loop_model_squares(loop_o16):
    q = q_operator(loop_o16)
    for x in range(16):
        squared = loop_o16.mul_rows[(x, x)][0][0]
        for i in range(16):
            assert q[i][x] == (F(1) if i == squared else 0)


def test_check_diagonalizable_refuses_nilpotent():
    graded = GradedSpace(2, (0, 0))
    q = [[F(1), F(1)], [F(0), F(1)]]
    with pytest.raises(DeformationError):
        check_diagonalizable(q, graded)


def test_eigen_kernel_T_binomial_d4():
    model = truncated_binomial_bialgebra(4)
    q = q_operator(model)
    graded = GradedSpace(5, tuple(range(5)))
    kernel = eigen_kernel_T(q, graded)
    assert len(kernel) == 5
    d = 5
    expected = []
    for i in range(d):
        for j in range(d):
            if 2 ** (i + j) - 2 ** i - 2 ** j == 0:
                assert (i, j) == (1, 1)
                for k in range(d):
                    v = [F(0)] * d ** 3
                    v[(i * d + j) * d + k] = F(1)
                    expected.append(v)
    assert linalg.same_span(kernel, expected)


def test_eigenvalue_formula_examples():
    assert 2 ** (1 + 1) - 2 - 2 == 0
    assert 2 ** (2 + 1) - 4 - 2 == 2


def test_wedge_membership_basics():
    a, b, c = (1,), (2,), (3,)
    sym = {(1, 1): F(1)}
    assert not wedge_membership(sym, "first_two", [1, 2, 3])
    anti = {(1, 2): F(1), (2, 1): F(-1)}
    assert wedge_membership(anti, "first_two", [1, 2, 3])
    assert not wedge_membership(anti, "first_two", [2, 3])
    full = {}
    import itertools

    for perm in itertools.permutations((1, 2, 3)):
        sign = 1
        p = list(perm)
        for i in range(3):
            for j in range(2 - i):
                if p[j] > p[j + 1]:
                    p[j], p[j + 1] = p[j + 1], p[j]
                    sign = -sign
        full[perm] = F(sign)
    assert wedge_membership(full, "all_three", [1, 2, 3])
    assert not wedge_membership({(1, 2, 3): F(1)}, "all_three", [1, 2, 3])


def test_antisymmetrizer_idempotent_and_commutes():
    t = {(1, 2, 0): F(3), (2, 2, 1): F(5), (0, 1, 1): F(-2)}
    once = antisymmetrize(t, (0, 1))
    assert antisymmetrize(once, (0, 1)) == once
    proj_then_anti = antisymmetrize(primitive_project(t, (0, 1), [1, 2]), (0, 1))
    anti_then_proj = primitive_project(antisymmetrize(t, (0, 1)), (0, 1), [1, 2])
    assert proj_then_anti == anti_then_proj


def test_derivation_defect_trivial_and_fixture():
    model = truncated_binomial_bialgebra(6)
    deformation = null_deformation(model, 3)
    psi = identity_series(model, 3)
    assert derivation_defect(psi, psi, deformation, 1).holds
    e = euler_derivation(model)
    phi = exp_derivation_series(model, e, 2, 3)
    assert derivation_defect(phi, psi, deformation, 2).holds


def test_derivation_defect_precondition():
    model = truncated_binomial_bialgebra(6)
    deformation = null_deformation(model, 3)
    e = euler_derivation(model)
    phi = exp_derivation_series(model, e, 1, 3)
    psi = identity_series(model, 3)
    with pytest.raises(DeformationError, match=re.escape(
            "series differ already at degree 1 (need agreement below 2)")):
        derivation_defect(phi, psi, deformation, 2)


def test_derivation_defect_rejects_nonmultiplicative():
    model = truncated_binomial_bialgebra(6)
    deformation = null_deformation(model, 2)
    bad = [linalg.eye(model.dim) for _ in range(3)]
    bad[1] = linalg.zeros(model.dim, model.dim)
    bad[1][0][1] = F(1)  # a -> 1 at degree 1: not multiplicative
    series = TruncatedSeriesMap(tuple(bad))
    good = identity_series(model, 2)
    for name, pair in (("first", (series, good)), ("second", (good, series))):
        with pytest.raises(DeformationError, match=re.escape(
                f"{name} series is not multiplicative at degree 1, "
                "basis pair (1, 1)")):
            derivation_defect(*pair, deformation, 1)


def test_derivation_defect_reports_lowest_degree_first():
    """A degree-2 failure at an earlier pair loses to a degree-1 failure."""
    model = truncated_binomial_bialgebra(6)
    deformation = null_deformation(model, 3)
    comps = [linalg.eye(model.dim)] + [linalg.zeros(model.dim, model.dim)
                                       for _ in range(3)]
    comps[1][3][3] = F(1)  # first seen at degree 1 on the pair (1, 2)
    comps[2][0][0] = F(1)  # already seen at degree 2 on the pair (0, 0)
    with pytest.raises(DeformationError, match=re.escape(
            "first series is not multiplicative at degree 1, "
            "basis pair (1, 2)")):
        derivation_defect(TruncatedSeriesMap(tuple(comps)),
                          identity_series(model, 3), deformation, 1)


def test_orders_and_label_counts_are_checked():
    model = truncated_binomial_bialgebra(4)
    with pytest.raises(DeformationError,
                       match="^order must be nonnegative, got -1$"):
        null_deformation(model, -1)
    with pytest.raises(DeformationError,
                       match="^delta1 needs order at least 1, got 0$"):
        simple_comul_perturbation(4, 0)
    with pytest.raises(DeformationError, match="label count"):
        LieAlgebraModel.from_brackets(2, {}, labels=("a",))


def test_kernel_map_RS_on_function_model(fn_o16):
    deformation = null_deformation(fn_o16, 1)
    report = kernel_map_RS(deformation)
    assert report.holds
    # the coassociator itself is nonzero at degree 0: nontrivial kernel fact
    c0 = coassociator(deformation, 0)
    assert any(c0.values())


def test_kernel_map_RS_on_conjugation_fixture():
    deformation = shift_conjugation_deformation(12, 2)
    assert kernel_map_RS(deformation).holds


def test_kernel_map_RS_precondition():
    deformation = simple_comul_perturbation(6, order=1)
    with pytest.raises(DeformationError):
        kernel_map_RS(deformation)


def test_nalt_mod_h_on_conjugation_fixture():
    deformation = shift_conjugation_deformation(12, 2)
    a = tuple(F(int(i == 1)) for i in range(deformation.base.dim))
    assert is_primitive(deformation.base, a)
    assert nalt_mod_h(deformation, a).holds


def test_nalt_mod_h_rejects_group_like_input(loop_o16):
    deformation = null_deformation(loop_o16, 1)
    group_like = tuple(F(int(i == 1)) for i in range(16))
    with pytest.raises(DeformationError):
        nalt_mod_h(deformation, group_like)


def test_nalt_mod_h_null_group_algebra():
    from moufang.models import cyclic_loop, loop_bialgebra

    model = loop_bialgebra(cyclic_loop(2))
    deformation = null_deformation(model, 1)
    # e - identity is primitive in a group algebra iff ... it is not; use
    # the unit-scaled combination that actually is primitive: none exists
    # in this basis, so the refusal path is the test.
    with pytest.raises(DeformationError):
        nalt_mod_h(deformation, (F(0), F(1)))


def test_moufang_mod_on_conjugation_fixture():
    deformation = shift_conjugation_deformation(12, 2)
    for side in ("left", "right", "middle"):
        assert check_moufang_mod(deformation, side).holds


# --- Lie algebra case -------------------------------------------------------


def test_sl2_killing_form():
    g = sl2()
    assert g.killing == [[F(8), F(0), F(0)],
                         [F(0), F(0), F(4)],
                         [F(0), F(4), F(0)]]


def test_jacobi_enforced():
    with pytest.raises(DeformationError,
                       match=r"^Jacobi identity fails at basis triple "
                             r"\(0, 1, 2\)$"):
        LieAlgebraModel.from_brackets(
            3, {(0, 1): {2: F(1)}, (1, 2): {0: F(1)}, (2, 0): {0: F(1)}}
        )
    with pytest.raises(DeformationError,
                       match=r"^bracket is not antisymmetric at \(0, 1\)$"):
        LieAlgebraModel.from_brackets(
            3, {(0, 1): {1: F(1)}, (1, 0): {1: F(1)}}
        )


@pytest.mark.parametrize("brackets", [
    {(0, 5): {0: F(1)}},
    {(0, -1): {0: F(1)}},
    {(0, 1): {5: F(1)}},
])
def test_lie_brackets_outside_dimension_refused(brackets):
    pair = next(iter(brackets))
    with pytest.raises(DeformationError, match=re.escape(str(pair))):
        LieAlgebraModel.from_brackets(2, brackets)


def test_lie_file_refuses_bracket_outside_dimension():
    from moufang.deformation import load_lie_algebra_text

    with pytest.raises(DeformationError, match=r"\(0, 5\)"):
        load_lie_algebra_text("lie g\ndim 2\nbracket 0 5 0 1\nend\n")


def test_casimir_adjoint_is_identity():
    g = sl2()
    c = casimir(g, adjoint_action(g))
    assert c == linalg.eye(3)


def test_casimir_trivial_module_is_zero():
    g = sl2()
    assert casimir(g, trivial_action(g, 1)) == [[F(0)]]


def test_casimir_commutes_with_action():
    g = sl2()
    action = adjoint_action(g)
    c = casimir(g, action)
    for rho in action:
        assert linalg.mat_mul(c, rho) == linalg.mat_mul(rho, c)


def test_casimir_needs_nondegenerate_killing():
    abelian = LieAlgebraModel.from_brackets(1, {})
    with pytest.raises(DeformationError):
        casimir(abelian, trivial_action(abelian, 1))


def test_h1_sl2_adjoint_vanishes():
    g = sl2()
    report = h1_dimension(g, adjoint_action(g))
    assert report.dimension == 0
    assert len(report.cocycle_basis) == len(report.coboundary_basis) == 3


def test_h1_sl2_exterior_cube_vanishes():
    g = sl2()
    cube = exterior_cube_action(adjoint_action(g))
    assert len(cube[0]) == 1
    assert all(rho == [[F(0)]] for rho in cube)
    report = h1_dimension(g, cube)
    assert report.dimension == 0
    assert report.cocycle_basis == [] or not report.cocycle_basis


def test_h1_abelian_trivial_is_one():
    abelian = LieAlgebraModel.from_brackets(1, {})
    report = h1_dimension(abelian, trivial_action(abelian, 1))
    assert report.dimension == 1


# --- file formats ------------------------------------------------------------


def test_deformation_fixture_file_roundtrip(tmp_path):
    fixture = shift_conjugation_deformation(10, 2)
    text = __import__("moufang.deformation", fromlist=["save_deformation_text"]
                      ).save_deformation_text(fixture, "binomial:10")
    from moufang.deformation import load_deformation_text
    from moufang.models import truncated_binomial_bialgebra as binom

    loaded = load_deformation_text(text, lambda ref: binom(int(ref.split(":")[1])))
    assert loaded.order == fixture.order
    assert loaded.comul_components == fixture.comul_components
    assert loaded.mul_components == fixture.mul_components


SHIFT_CONJ_4_2 = """\
deformation shift-conj[binomial[4],order=2]
base b
order 2
comul 1 1 1 1 -2
comul 1 2 1 2 -1
comul 1 2 2 1 -1
comul 1 3 1 3 -1
comul 1 3 3 1 -1
comul 1 4 1 4 4
comul 1 4 2 3 10
comul 1 4 3 2 10
comul 1 4 4 1 4
mul 1 1 1 3 -1
mul 1 1 2 4 -1
mul 1 2 1 4 -1
comul 2 1 1 2 -1/2
comul 2 1 2 1 -1/2
comul 2 2 2 2 -1
comul 2 3 1 4 -5/2
comul 2 3 2 3 -11/2
comul 2 3 3 2 -11/2
comul 2 3 4 1 -5/2
comul 2 4 2 4 7
comul 2 4 3 3 10
comul 2 4 4 2 7
mul 2 1 1 4 1/2
end
"""


def test_shift_conjugation_components_are_pinned():
    """The conjugated components themselves, not only the verdicts that the
    `deform` records show."""
    from moufang.deformation import save_deformation_text

    text = save_deformation_text(shift_conjugation_deformation(4, 2), "b")
    assert text == SHIFT_CONJ_4_2
    text = save_deformation_text(shift_conjugation_deformation(12, 3),
                                 "binomial:12")
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "b3440d669face6cab87c303de7cbe3c308dc09f74af4cf935c61cd1aeae8423c")


def test_deformation_fixture_file_requires_header():
    from moufang.deformation import load_deformation_text

    with pytest.raises(DeformationError):
        load_deformation_text("comul 1 0 0 0 1\nend\n", lambda ref: None)


@pytest.mark.parametrize("line", [
    "comul 5 0 0 0 1",      # degree beyond the order
    "mul 0 1 1 2 1",        # degree 0 lives in the base model
    "mul 1 0 9 0 1",        # index beyond the base dimension
    "comul 1 0 0",          # short line
    "mul 1 0 0 0 1/0",      # bad coefficient
])
def test_deformation_fixture_file_refuses_bad_components(line):
    from moufang.deformation import load_deformation_text

    text = f"deformation bad\nbase binomial:4\norder 1\n{line}\nend\n"
    with pytest.raises(DeformationError, match="^line 4: "):
        load_deformation_text(
            text, lambda ref: truncated_binomial_bialgebra(4), strict=False
        )


def test_lie_algebra_file_roundtrip():
    from moufang.deformation import load_lie_algebra_text, save_lie_algebra_text

    g = sl2()
    text = save_lie_algebra_text(g, "split3")
    loaded = load_lie_algebra_text(text)
    assert loaded.dim == 3
    assert loaded.bracket_rows == g.bracket_rows
    assert loaded.killing == g.killing
    assert casimir(loaded, adjoint_action(loaded)) == linalg.eye(3)


def test_nalt_mod_h_trivial_on_associative_base():
    model = truncated_binomial_bialgebra(8)
    deformation = null_deformation(model, 2)
    a = tuple(F(int(i == 1)) for i in range(model.dim))
    report = nalt_mod_h(deformation, a)
    assert report.holds  # associative base: every associator vanishes


def test_symbolic_split_agrees_with_series_semantics():
    """Splitting a coproduct node symbolically and evaluating each branch
    against a truncated family reproduces the unsplit evaluation."""
    from moufang.diagram import split_series_node

    deformation = shift_conjugation_deformation(10, 2)
    whole = parse("comul ; counit * id(1)")
    branches = split_series_node(whole, 0)
    for t in range(deformation.base.dim):
        total = [dict() for _ in range(3)]
        for _h, diagram, coeff in branches:
            out = evaluate_series(diagram, deformation, basis_state((t,)))
            for n in range(3):
                for key, value in out[n].items():
                    total[n][key] = total[n].get(key, F(0)) + coeff * value
        expected = evaluate_series(whole, deformation, basis_state((t,)))
        for n in range(3):
            assert {k: v for k, v in total[n].items() if v} == expected[n]


@pytest.mark.parametrize("check", [check_moufang_mod, check_comoufang_mod])
def test_series_checks_refuse_window_beyond_order(check):
    deformation = shift_conjugation_deformation(8, 1)
    with pytest.raises(DeformationError, match="degree window exceeds"):
        check(deformation, "left", 3)
    assert check(deformation, "left", 1).holds
