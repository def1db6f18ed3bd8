import hashlib
import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import dense_kernel_T, same_span
from moufang import linalg
from moufang.deformation import (
    DeformationError,
    _apply_series_slot,
    GradedSpace,
    TruncatedSeriesMap,
    adjoint_action,
    antisymmetrize,
    apply_kernel_map,
    casimir,
    check_comoufang_mod,
    check_diagonalizable,
    check_moufang_mod,
    check_representation,
    coassociator,
    eigen_kernel_T,
    evaluate_series,
    exp_derivation_series,
    exterior_power_action,
    h1_dimension,
    is_primitive,
    kernel_map_RS,
    lie_algebra,
    nalt_mod_h,
    null_deformation,
    primitive_project,
    q_operator,
    shift_conjugation_deformation,
    simple_comul_perturbation,
    sl2,
    wedge_membership,
)
from moufang.dsl import parse
from moufang.models import (
    add_state,
    basis_state,
    evaluate,
    first_failure,
    holds_identity,
    subtract_state,
    truncated_binomial_bialgebra,
)
from moufang.octonion import octonion_algebra, traceless_malcev

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
        for (j, k), c in deformation.comul_components[n].get(t, ()):
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


@pytest.fixture
def coassociator_sweeps(monkeypatch):
    """The names of the deformations whose coassociator is swept, once per
    sweep."""
    from moufang import deformation

    names = []
    sweep = deformation._coassociator_sweep

    def counting(d):
        names.append(d.name)
        return sweep(d)

    monkeypatch.setattr(deformation, "_coassociator_sweep", counting)
    return names


@pytest.mark.parametrize("fixture,status", [
    ("shift-conj:12:3", 0), ("delta1:6:3", 1), ("null:fn-o16:1", 0)])
def test_deform_sweeps_the_coassociator_once(coassociator_sweeps, capsys,
                                             fixture, status):
    """`deform` reads the coassociator at every degree and, on a co-Moufang
    fixture, the kernel map reads it again: all from one sweep."""
    from moufang import cli

    assert cli.main(["deform", "--fixture", fixture]) == status
    assert len(coassociator_sweeps) == 1


def test_coassociator_hands_each_caller_its_own_states(coassociator_sweeps,
                                                       fn_o16):
    deformation = null_deformation(fn_o16, 1)
    first = coassociator(deformation, 0)
    want = {x: dict(state) for x, state in first.items()}
    assert any(want.values())
    for state in first.values():
        state[(0, 0, 0)] = state.get((0, 0, 0), 0) + 1
    assert kernel_map_RS(deformation).holds
    assert coassociator(deformation, 0) == want
    assert coassociator_sweeps == [deformation.name]


def test_series_registration_rejects_broken_counit():
    model = truncated_binomial_bialgebra(4)
    from moufang.deformation import deformation_from_maps

    with pytest.raises(DeformationError):
        deformation_from_maps(
            model, 1, [{0: (((0, 0), F(1)),)}], [{}], name="broken"
        )


def _assert_split_sums(text, deformation):
    """Evaluating ``text`` equals the sum of its %0 and %+ branches, where the
    branches relabel the leading coproduct of ``text``."""
    full = parse(text)
    zero = parse(text.replace("comul", "comul%0", 1))
    plus = parse(text.replace("comul", "comul%+", 1))
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


def test_eq5_split_labels_in_series_evaluator():
    """plain = %0 + %+ when both sides evaluate against the same family."""
    _assert_split_sums("comul", shift_conjugation_deformation(10, 2))


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
    assert same_span(kernel, expected)


@st.composite
def _diagonalizable_q(draw):
    """diag(2^n) conjugated by a random unimodular integer matrix U, a
    product of elementary row additions, with the grading of the n."""
    d = draw(st.integers(1, 4))
    degrees = draw(st.lists(st.integers(0, 3), min_size=d, max_size=d))
    u = linalg.eye(d)
    for _ in range(draw(st.integers(0, 6))):
        i, j = draw(st.tuples(st.integers(0, d - 1), st.integers(0, d - 1)))
        c = draw(st.integers(-2, 2))
        if i != j:
            u[i] = [x + c * y for x, y in zip(u[i], u[j])]
    diag = [[F(2 ** n) if i == j else F(0) for j, _ in enumerate(degrees)]
            for i, n in enumerate(degrees)]
    q = linalg.mat_mul(linalg.mat_mul(u, diag), linalg.invert(u))
    return q, GradedSpace(d, tuple(degrees))


@given(_diagonalizable_q())
@settings(max_examples=25, deadline=None)
def test_eigen_kernel_T_spans_dense_kernel(qg):
    q, graded = qg
    kernel = eigen_kernel_T(q, graded)
    oracle = dense_kernel_T(q)
    assert len(kernel) == len(oracle)
    assert same_span(kernel, oracle)


@pytest.mark.parametrize("max_degree", [2, 4, 6])
def test_eigen_kernel_T_spans_dense_kernel_on_binomial(max_degree):
    q = q_operator(truncated_binomial_bialgebra(max_degree))
    graded = GradedSpace(max_degree + 1, tuple(range(max_degree + 1)))
    kernel = eigen_kernel_T(q, graded)
    assert len(kernel) == max_degree + 1
    assert same_span(kernel, dense_kernel_T(q))


def test_eigen_kernel_T_empty_without_degree_one():
    """2^p·2^r = 2^p + 2^r only for p = r = 1, so no degree 1, no kernel."""
    graded = GradedSpace(3, (0, 2, 3))
    q = [[F(1), F(1), F(0)], [F(0), F(4), F(0)], [F(0), F(0), F(8)]]
    assert eigen_kernel_T(q, graded) == []
    assert dense_kernel_T(q) == []


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


# --- the multiplicative-series defect identity -------------------------------
# Series maps and the defect identity that only these tests use.  Their
# sweeps read `basis_iterator(2)` directly, since the series maps are never
# checked invariant under a model's automorphisms.

_MUL = parse("mul")


def identity_series(model, order):
    d = model.dim
    return TruncatedSeriesMap(
        tuple([linalg.eye(d)] + [linalg.zeros(d, d) for _ in range(order)]))


def euler_derivation(model):
    """The degree operator a^n -> n a^n (an exact derivation of the
    truncated binomial model)."""
    if model.degrees is None:
        raise DeformationError("model carries no grading")
    d = model.dim
    m = linalg.zeros(d, d)
    for n in range(d):
        m[n][n] = Fraction(model.degrees[n])
    return m


def trivial_action(g, dim=1):
    return [linalg.zeros(dim, dim) for _ in range(g.dim)]


def _multiplicative_failures(deformation, phi):
    """Yield (degree, basis pair) wherever phi_h(x•y) != phi_h(x)•phi_h(y)
    modulo h^(min(order, phi.order)+1)."""
    order = min(deformation.order, phi.order)
    for key in deformation.base.basis_iterator(2):
        states = [basis_state(key)] + [{} for _ in range(order)]
        lhs = _apply_series_slot(
            phi, evaluate_series(_MUL, deformation, states, order), 0)
        for slot in (0, 1):
            states = _apply_series_slot(phi, states, slot)
        rhs = evaluate_series(_MUL, deformation, states, order)
        yield from ((n, key) for n in range(order + 1) if lhs[n] != rhs[n])


def derivation_defect(phi, psi, deformation, n):
    """The defect identity for two multiplicative series agreeing below n.

    Preconditions (checked, violations raise): both series are
    multiplicative for the deformed product modulo h^(order+1), and their
    components agree at every degree below n.  The verified identity, at
    every basis pair, is

        (phi_n - psi_n)(x y) = (phi_n - psi_n)(x) phi_0(y)
                               + psi_0(x) (phi_n - psi_n)(y)

    with x y the base product.
    """
    if n < 1 or n > min(phi.order, psi.order):
        raise DeformationError(f"degree {n} outside both series")
    for name, series in (("first", phi), ("second", psi)):
        # lowest degree, then first pair (basis_iterator is lexicographic)
        bad = min(_multiplicative_failures(deformation, series), default=None)
        if bad is not None:
            raise DeformationError(
                f"{name} series is not multiplicative at degree {bad[0]}, "
                f"basis pair {bad[1]}"
            )
    for i in range(n):
        if phi.at(i) != psi.at(i):
            raise DeformationError(
                f"series differ already at degree {i} (need agreement "
                f"below {n})"
            )
    model = deformation.base
    delta = TruncatedSeriesMap((linalg.mat_sub(phi.at(n), psi.at(n)),))

    def on(series, slot, state):
        # a degree-0 input meets only the series' degree-0 component
        return _apply_series_slot(series, [state], slot)[0]

    def sweep():
        for key in model.basis_iterator(2):
            pair = basis_state(key)
            lhs = on(delta, 0, evaluate(_MUL, model, pair))
            rhs = add_state(
                evaluate(_MUL, model, on(phi, 1, on(delta, 0, pair))),
                evaluate(_MUL, model, on(delta, 1, on(psi, 0, pair))))
            # the series agree below degree n, so only degree n can differ
            yield key, 1, [{}] * n + [subtract_state(lhs, rhs)]

    return first_failure(sweep())


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
        lie_algebra(2, {}, labels=("a",))


@pytest.mark.parametrize("dim", [0, -2])
def test_lie_algebra_refuses_dimension_below_one(dim):
    with pytest.raises(DeformationError, match=rf"dimension {dim}\b"):
        lie_algebra(dim, {})


def test_wedge_membership_checks_selector_first():
    with pytest.raises(DeformationError, match="unknown slot selector"):
        wedge_membership({}, "bogus", [])


def test_kernel_map_RS_on_function_model(fn_o16):
    deformation = null_deformation(fn_o16, 1)
    report = kernel_map_RS(deformation)
    assert report.holds
    # the coassociator itself is nonzero at degree 0: nontrivial kernel fact
    c0 = coassociator(deformation, 0)
    assert any(c0.values())


@pytest.mark.parametrize("name", ["binomial6", "fn_o16", "shift-conj",
                                  "delta1"])
def test_api_values_are_fractions(name, request):
    """Integral constants run as ints inside the evaluator, but every value
    the API hands back is a Fraction: ``Fraction(1) == 1`` hides a leak
    from equality tests, and ``describe()`` prints reprs into records."""
    if name == "shift-conj":
        deformation = shift_conjugation_deformation(12, 3)
    elif name == "delta1":
        deformation = simple_comul_perturbation(6, 3)
    else:
        deformation = null_deformation(request.getfixturevalue(name), 1)
    model, order = deformation.base, deformation.order
    q = parse("comul ; mul")
    states = [evaluate(q, model, basis_state((1,)))]
    states += evaluate_series(parse("comul ; id(1) * comul"), deformation,
                              basis_state((1,)))
    for n in range(order + 1):
        states += coassociator(deformation, n).values()
    states += apply_kernel_map(
        deformation, [basis_state((1, 1, 1))] + [{} for _ in range(order)])
    report = holds_identity(q, parse("id(1)"), model)
    assert not report.holds
    states.append(report.diff)
    series_report = check_comoufang_mod(deformation, "left")
    assert series_report.holds == (name != "delta1")
    if not series_report.holds:
        states.append(series_report.diff)
    values = [v for state in states for v in state.values()]
    assert values and all(isinstance(v, Fraction) for v in values)


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


def test_shift_conjugation_refused_sizes():
    # binomial[D]'s truncation waiver (sweeps capped at total degree D // 2)
    # does not survive the degree-raising conjugation at these sizes.
    refused = {}
    for d, order in itertools.product(range(1, 9), range(5)):
        try:
            shift_conjugation_deformation(d, order)
        except DeformationError as exc:
            refused[(d, order)] = str(exc)
    assert sorted(refused) == [(4, 3), (4, 4), (5, 4), (6, 4)]
    assert all("compatibility fails" in m for m in refused.values())


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


def test_malcev_killing_form_and_adjoint():
    # For (-1,-1,-1), [x, y] = 2 x×y on the imaginary octonions, so
    # tr(ad_x ad_x) = 4 tr(x×(x×·)) = 4 (1 - 7) |x|^2 = -24 |x|^2.
    m = traceless_malcev(octonion_algebra(-1, -1, -1))
    assert m.killing == linalg.mat_scale(linalg.eye(7), F(-24))
    # M is not Lie, so its adjoint map is not a representation.
    with pytest.raises(DeformationError,
                       match=r"^action is not a representation at basis "
                             r"pair \(0, 1\)$"):
        check_representation(m, adjoint_action(m))


def test_jacobi_enforced():
    with pytest.raises(DeformationError,
                       match=r"^Jacobi identity fails at basis triple "
                             r"\(0, 1, 2\)$"):
        lie_algebra(
            3, {(0, 1): {2: F(1)}, (1, 2): {0: F(1)}, (2, 0): {0: F(1)}}
        )
    with pytest.raises(DeformationError,
                       match=r"^bracket is not antisymmetric at \(0, 1\)$"):
        lie_algebra(
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
        lie_algebra(2, brackets)


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
    abelian = lie_algebra(1, {})
    with pytest.raises(DeformationError):
        casimir(abelian, trivial_action(abelian, 1))


def test_h1_sl2_adjoint_vanishes():
    g = sl2()
    report = h1_dimension(g, adjoint_action(g))
    assert report.dimension == 0
    assert len(report.cocycle_basis) == len(report.coboundary_basis) == 3


def test_h1_sl2_exterior_cube_vanishes():
    g = sl2()
    cube = exterior_power_action(adjoint_action(g), 3)
    assert len(cube[0]) == 1
    assert all(rho == [[F(0)]] for rho in cube)
    report = h1_dimension(g, cube)
    assert report.dimension == 0
    assert report.cocycle_basis == [] or not report.cocycle_basis


def test_exterior_powers_of_sl2_adjoint():
    g = sl2()
    adjoint = adjoint_action(g)
    assert exterior_power_action(adjoint, 1) == adjoint
    # the wedge square of sl2's adjoint module is the adjoint module again
    square = exterior_power_action(adjoint, 2)
    assert casimir(g, square) == linalg.eye(3)


def test_h1_abelian_trivial_is_one():
    abelian = lie_algebra(1, {})
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


def _bracket_text(g, name):
    """The bracket's structure constants as text, one ``bracket i j k c``
    line for each term c·e_k of [e_i, e_j] with i < j, under a header."""
    lines = [f"lie {name}", f"dim {g.dim}"]
    if g.labels:
        lines.append("labels " + " ".join(g.labels))
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            for k, c in g.bracket_rows[(i, j)]:
                lines.append(f"bracket {i} {j} {k} {c}")
    lines.append("end")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("build,name,digest", [
    (lambda: traceless_malcev(octonion_algebra(-1, -1, -1)), "malcev",
     "8a75655bec1ee1948ad8820beac47b11dffe0c9e90d232e36bd4bfd60b23864a"),
    (lambda: traceless_malcev(octonion_algebra(2, 3, 5)), "malcev",
     "a04e243c8458b1f4d51915f8bddd2a326f5252c1dfdee9911163881773fec7c3"),
    (sl2, "sl2",
     "dd742708edc17b5d83d831f4aaf6d3f00c186cadd61666ebbd69b08cf53ba017"),
])
def test_bracket_structure_constants_are_pinned(build, name, digest):
    text = _bracket_text(build(), name)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_nalt_mod_h_trivial_on_associative_base():
    model = truncated_binomial_bialgebra(8)
    deformation = null_deformation(model, 2)
    a = tuple(F(int(i == 1)) for i in range(model.dim))
    report = nalt_mod_h(deformation, a)
    assert report.holds  # associative base: every associator vanishes


def test_symbolic_split_agrees_with_series_semantics():
    """Splitting a coproduct node inside a larger diagram into its %0 and %+
    branches and evaluating each against a truncated family reproduces the
    unsplit evaluation."""
    _assert_split_sums(
        "comul ; counit * id(1)", shift_conjugation_deformation(10, 2)
    )
