import random
from fractions import Fraction

import pytest

from moufang.diagram import flip
from moufang.dsl import parse
from moufang.models import (
    FiniteBialgebraModel,
    ModelError,
    MoufangLoop,
    basis_state,
    cyclic_loop,
    evaluate,
    function_bialgebra,
    holds_identity,
    load_model_text,
    loop_bialgebra,
    save_model_text,
    truncated_binomial_bialgebra,
)


def test_loop_validation_rejects_bad_tables():
    with pytest.raises(ModelError):
        MoufangLoop.from_table([[0, 1], [0, 1]])  # columns not bijective
    with pytest.raises(ModelError):
        MoufangLoop.from_table([[1, 0], [0, 0]])  # no identity... also latin
    # a latin square without two-sided identity
    with pytest.raises(ModelError):
        MoufangLoop.from_table([[1, 0, 2], [0, 2, 1], [2, 1, 0]])


def test_cyclic_loop_romps():
    c2 = cyclic_loop(2)
    assert c2.identity == 0
    assert c2.associativity_witness() is None
    model = loop_bialgebra(c2)
    assert model.dim == 2
    assert "coassoc" in model.satisfied_flags


def test_loop_cayley_text_roundtrip(o16):
    text = o16.cayley_text()
    again = MoufangLoop.from_cayley_text(text)
    assert again.table == o16.table
    assert again.labels == o16.labels


def test_function_bialgebra_of_group_is_coassociative():
    model = function_bialgebra(cyclic_loop(3))
    report = holds_identity(
        parse("comul ; comul * id(1)"), parse("comul ; id(1) * comul"), model
    )
    assert report.holds


def test_counit_law_on_loop_model(loop_o16):
    report = holds_identity(
        parse("comul ; counit * id(1)"), parse("id(1)"), loop_o16
    )
    assert report.holds


def test_loop_o16_fails_associativity(loop_o16):
    report = holds_identity(
        parse("mul * id(1) ; mul"), parse("id(1) * mul ; mul"), loop_o16
    )
    assert not report.holds
    assert report.witness is not None


def test_loop_o16_commutativity_witness(loop_o16):
    report = holds_identity(parse("mul"), parse("swap ; mul"), loop_o16)
    assert not report.holds
    i, j = report.witness
    assert loop_o16.label(i) == "u" and loop_o16.label(j) == "v"


def test_fn_o16_comoufang_and_coassoc(fn_o16):
    from moufang.theories import flag_rules

    for flag in ("comoufang_l", "comoufang_r"):
        rule = flag_rules(flag)[0]
        assert holds_identity(rule.lhs, rule.rhs, fn_o16).holds
    report = holds_identity(
        parse("comul ; comul * id(1)"), parse("comul ; id(1) * comul"), fn_o16
    )
    assert not report.holds and report.witness is not None


def test_fn_o16_is_dual_of_loop_o16(loop_o16, fn_o16):
    """Evaluating d on the loop model matches evaluating the upside-down
    diagram on the function model with transposed tensors."""
    from moufang.theories import flag_rules

    for flag in ("moufang_l", "moufang_r"):
        d = flag_rules(flag)[0].lhs  # 3 -> 1
        flipped = flip(d)            # 1 -> 3
        forward: dict = {}
        for x in range(16):
            for y in range(16):
                for z in range(16):
                    out = evaluate(d, loop_o16, basis_state((x, y, z)))
                    for (w,), c in out.items():
                        forward[(x, y, z, w)] = c
        backward: dict = {}
        for w in range(16):
            out = evaluate(flipped, fn_o16, basis_state((w,)))
            for (x, y, z), c in out.items():
                backward[(x, y, z, w)] = c
        assert forward == backward


def test_binomial_coproduct_values(binomial6):
    out = evaluate(parse("comul"), binomial6, basis_state((2,)))
    assert out == {(2, 0): Fraction(1), (1, 1): Fraction(2), (0, 2): Fraction(1)}


def test_binomial_q_values(binomial6):
    q = parse("comul ; mul")
    for n in range(7):
        assert evaluate(q, binomial6, basis_state((n,))) == {(n,): Fraction(2 ** n)}


def test_binomial_truncation_waiver():
    """Compatibility holds whenever total degree fits, and genuinely fails
    above the truncation boundary; the default sweep cap avoids it."""
    model = truncated_binomial_bialgebra(4)
    lhs = parse("mul ; comul")
    rhs = parse("comul*comul ; id(1)*swap*id(1) ; mul*mul")
    for i, j in [(1, 2), (2, 2), (0, 4)]:
        a = evaluate(lhs, model, basis_state((i, j)))
        b = evaluate(rhs, model, basis_state((i, j)))
        assert a == b
    a = evaluate(lhs, model, basis_state((2, 3)))
    b = evaluate(rhs, model, basis_state((2, 3)))
    assert a != b
    assert model.check_cap == 2


def test_loop_group_like_q(loop_o16):
    q = parse("comul ; mul")
    for x in range(16):
        out = evaluate(q, loop_o16, basis_state((x,)))
        assert out == {(loop_o16.mul_rows[(x, x)][0][0],): Fraction(1)}


def test_evaluate_rank_mismatch(binomial6):
    with pytest.raises(Exception):
        evaluate(parse("mul"), binomial6, basis_state((1,)))


def test_labelled_generator_refused_on_plain_model(binomial6):
    with pytest.raises(ModelError):
        evaluate(parse("comul%0"), binomial6, basis_state((1,)))


def test_multilinearity_random_combinations(binomial6, fn_o16):
    rng = random.Random(4221)
    d = parse("comul ; id(1) * comul ; mul * id(1)")
    for model in (binomial6, fn_o16):
        for _ in range(10):
            i = rng.randrange(model.dim)
            j = rng.randrange(model.dim)
            a = Fraction(rng.randint(-4, 4))
            b = Fraction(rng.randint(-4, 4))
            combo = {}
            for idx, c in ((i, a), (j, b)):
                combo[(idx,)] = combo.get((idx,), Fraction(0)) + c
            combo = {k: v for k, v in combo.items() if v}
            direct = evaluate(d, model, combo)
            split = {}
            for idx, c in ((i, a), (j, b)):
                for key, value in evaluate(d, model, basis_state((idx,))).items():
                    split[key] = split.get(key, Fraction(0)) + c * value
            split = {k: v for k, v in split.items() if v}
            assert direct == split


def test_model_file_roundtrip(binomial6, fn_o16):
    for model in (binomial6, fn_o16):
        text = save_model_text(model)
        again = load_model_text(text)
        assert again.dim == model.dim
        assert again.mul_rows == model.mul_rows
        assert again.comul_rows == model.comul_rows
        assert again.unit_entries == model.unit_entries
        assert again.counit_entries == model.counit_entries
        assert again.satisfied_flags == model.satisfied_flags
        assert save_model_text(again) == text


def test_registration_rejects_false_claims():
    c2 = cyclic_loop(2)
    base = loop_bialgebra(c2)
    bogus = FiniteBialgebraModel(
        name="bogus", dim=base.dim, mul_rows=base.mul_rows,
        comul_rows=base.comul_rows, unit_entries=base.unit_entries,
        counit_entries={0: Fraction(1)},  # wrong counit
        satisfied_flags=frozenset(), basis_labels=base.basis_labels,
    )
    from moufang.models import verify_registration

    with pytest.raises(ModelError):
        verify_registration(bogus)


def test_algebra_file_rejected_as_model():
    from moufang.octonion import algebra_text, octonion_algebra

    text = algebra_text(octonion_algebra(-1, -1, -1))
    with pytest.raises(ModelError):
        load_model_text(text)


def test_evaluation_invariant_under_canonicalization(binomial6):
    """Raw slicings and their canonical forms denote the same multilinear map."""
    import random as rnd

    from moufang.diagram import ARITY, canonicalize, raw_diagram

    rng = rnd.Random(97)
    for _ in range(150):
        n_in = rng.randint(0, 3)
        w = n_in
        slices = []
        for _ in range(rng.randint(0, 7)):
            options = []
            for kind, (k, m) in ARITY.items():
                if kind == "id":
                    continue
                if k <= w and 0 <= w - k + m <= 6:
                    options.extend((kind, None, off) for off in range(w - k + 1))
            if not options:
                break
            choice = rng.choice(options)
            slices.append(choice)
            k, m = ARITY[choice[0]]
            w += m - k
        raw = raw_diagram(n_in, slices)
        canon = canonicalize(raw)
        for key in binomial6.basis_iterator(n_in):
            assert evaluate(raw, binomial6, basis_state(key)) == evaluate(
                canon, binomial6, basis_state(key)
            )


def _agreement_sides():
    from moufang.theories import FLAGS, base_rules, flag_rules, goal_suite

    for goal in goal_suite():
        yield goal.name, goal.lhs
        yield goal.name, goal.rhs
    for rule in base_rules() + tuple(r for f in FLAGS for r in flag_rules(f)):
        yield rule.name, rule.lhs
        yield rule.name, rule.rhs


@pytest.mark.parametrize("model_name", ["binomial6", "fn_o16"])
def test_plain_evaluator_is_order_zero_series(model_name, request):
    """A plain model evaluates exactly as its null deformation at degree 0."""
    from moufang.deformation import evaluate_series, null_deformation

    model = request.getfixturevalue(model_name)
    null = null_deformation(model, 2)
    rng = random.Random(5077)
    for name, d in _agreement_sides():
        state = {}
        for _ in range(6):
            key = tuple(rng.randrange(model.dim) for _ in range(d.n_in))
            state[key] = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        plain = evaluate(d, model, state)
        series = evaluate_series(d, null, state)
        assert list(plain.items()) == list(series[0].items()), name
        assert series[1:] == [{}, {}], name


def test_plain_model_refuses_positive_label(binomial6):
    with pytest.raises(ModelError):
        evaluate(parse("comul%+"), binomial6, basis_state((1,)))
    with pytest.raises(ModelError):
        holds_identity(parse("comul%+"), parse("comul"), binomial6)
