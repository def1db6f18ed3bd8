import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import associativity_witness
from moufang import models
from moufang.diagram import ArityMismatch, flip
from moufang.dsl import parse
from moufang.linalg import bilinear, collect
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


def test_loop_moufang_failure_is_named():
    # a Latin square with identity 0 that is not a Moufang loop
    table = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
             [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    with pytest.raises(ModelError,
                       match=r"^left Moufang law fails at \(1, 0, 2\)$"):
        MoufangLoop.from_table(table)


def test_cyclic_loop_romps():
    c2 = cyclic_loop(2)
    assert c2.identity == 0
    assert associativity_witness(c2) is None
    model = loop_bialgebra(c2)
    assert model.dim == 2
    assert "coassoc" in model.satisfied_flags


def test_function_bialgebra_of_group_is_coassociative():
    model = function_bialgebra(cyclic_loop(3))
    report = holds_identity(
        parse("comul ; comul * id(1)"), parse("comul ; id(1) * comul"), model
    )
    assert report.holds


# The group algebra of C2 in the basis f = 2g: rational structure constants.
_C2_HALF = """model c2-half
dim 2
flags assoc comm coassoc cocomm
mul 0 0 0 2
mul 0 1 1 2
mul 1 0 1 2
mul 1 1 0 2
comul 0 0 0 1/2
comul 1 1 1 1/2
unit 0 1/2
counit 0 2
counit 1 2
end
"""


def test_registered_model_with_rational_constants():
    model = load_model_text(_C2_HALF)
    assert evaluate(parse("comul"), model, basis_state((1,))) == {
        (1, 1): Fraction(1, 2)}
    assert evaluate(parse("mul"), model, basis_state((1, 1))) == {(0,): 2}
    assert evaluate(parse("unit"), model, basis_state(())) == {
        (0,): Fraction(1, 2)}
    assert evaluate(parse("mul ; counit"), model, basis_state((0, 1))) == {
        (): 4}
    report = holds_identity(parse("comul ; mul"), parse("id(1)"), model)
    assert report.describe(model) == (
        "fails on basis input (1); "
        "difference {(0,): Fraction(1, 1), (1,): Fraction(-1, 1)}")


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


@pytest.mark.parametrize("key,error,message", [
    ((1,), ArityMismatch, "input tensor rank 1 != diagram inputs 2"),
    ((1, 9), ModelError, "input index out of range for model dimension"),
    ((-1, 1), ModelError, "input index out of range for model dimension"),
], ids=["rank", "index-9", "index-minus-1"])
def test_evaluate_refuses_bad_inputs(binomial6, key, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        evaluate(parse("mul"), binomial6, basis_state(key))


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


def _vacuous_cap_text(fn_o16):
    """fn[o16] claiming coassociativity, with a cap below every degree."""
    text = save_model_text(fn_o16).replace("flags ", "flags coassoc ")
    return text.replace("end\n", "degree " + " ".join(["1"] * 16)
                        + "\ncap 0\nend\n")


def test_sweep_that_checks_no_input_is_refused(fn_o16):
    with pytest.raises(ModelError, match=(
            r"^model fn\[o16\]: cap 0 leaves no rank-1 basis input to "
            r"check$")):
        load_model_text(_vacuous_cap_text(fn_o16))


def test_check_model_vacuous_cap_is_a_fail_record(fn_o16, tmp_path, capsys):
    from moufang.cli import main

    path = tmp_path / "model.txt"
    path.write_text(_vacuous_cap_text(fn_o16))
    code = main(["--format", "records", "check-model", "--model", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert out == (f"REC kind=model name={path} status=fail detail="
                   "'model fn[o16]: cap 0 leaves no rank-1 basis input to "
                   "check'\n")


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
        series = evaluate_series(d, null, [state, {}, {}])
        assert plain == series[0], name
        assert series[1:] == [{}, {}], name


def test_plain_model_refuses_positive_label(binomial6):
    with pytest.raises(ModelError):
        evaluate(parse("comul%+"), binomial6, basis_state((1,)))
    with pytest.raises(ModelError):
        holds_identity(parse("comul%+"), parse("comul"), binomial6)


_RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@pytest.mark.parametrize("model_name", ["binomial6", "fn_o16"])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_bilinear_agrees_with_evaluator(request, model_name, data):
    m = request.getfixturevalue(model_name)
    vec = st.lists(_RATIONALS, min_size=m.dim, max_size=m.dim)
    x, y = data.draw(vec), data.draw(vec)
    state = {(i, j): xi * yj for i, xi in enumerate(x)
             for j, yj in enumerate(y) if xi * yj}
    out = evaluate(parse("mul"), m, state)
    got = collect(bilinear(m.mul_rows, list(enumerate(x)),
                           list(enumerate(y))))
    assert got == {k: v for (k,), v in out.items()}


# --- the evaluator against the swap-by-swap reference -------------------------


def _signed_deformation():
    """binomial[4] with signed degree-1 product and coproduct components,
    built without registration, so that terms cancel inside a diagram."""
    from moufang.deformation import deformation_from_maps

    base = truncated_binomial_bialgebra(4)
    comul1 = {1: (((1, 1), 1),), 2: (((1, 1), -2), ((0, 2), 1))}
    mul1 = {(1, 1): ((2, -1),), (1, 2): ((3, 3),), (2, 1): ((3, -3),)}
    return deformation_from_maps(base, 2, (comul1, {}), (mul1, {}),
                                 name="signed", strict=False)


def _injective_deformation():
    """binomial[4] with degree-1 and -2 components whose coproduct pairs
    (j, k), j + k > 4, are no base term, so that its comul-then-mul steps
    convolve degrees 0, 1 and 2 in each fused step.  One coproduct term has
    coefficient 0, as a model file may give it."""
    from moufang.deformation import deformation_from_maps

    base = truncated_binomial_bialgebra(4)
    comul1 = {2: (((3, 2), 1),), 3: (((4, 1), 0),),
              4: (((2, 4), -1), ((4, 3), 2))}
    comul2 = {1: (((4, 4), 1),)}
    mul1 = {(1, 1): ((2, -1),), (3, 2): ((1, 3),)}
    mul2 = {(2, 2): ((0, 1), (4, -2))}
    return deformation_from_maps(base, 2, (comul1, comul2), (mul1, mul2),
                                 name="injective", strict=False)


def _evaluator_fixtures():
    """(name, model, product components, coproduct components, order).

    The evaluator fuses the comul-then-mul steps of all six.  In
    "shared-pairs", the order-0 one, and in "signed" and delta1:4:2 a pair
    (j, k) is a term of two coproduct rows, of one component or of two, so
    a fused step can meet one intermediate key twice: in "shared-pairs"
    (1, 1) is a term of rows 1 and 2.
    """
    from moufang.deformation import simple_comul_perturbation

    for name in ("binomial:4", "fn-cyclic:3"):
        model = (truncated_binomial_bialgebra(4) if name == "binomial:4"
                 else function_bialgebra(cyclic_loop(3)))
        yield name, model, (model.mul_rows,), (model.comul_rows,), 0
    model = truncated_binomial_bialgebra(4)
    yield ("shared-pairs", model, (model.mul_rows,),
           ({1: (((1, 1), 1),), 2: (((1, 1), -2), ((0, 2), 1))},), 0)
    for name, f in (("delta1:4:2", simple_comul_perturbation(4, 2)),
                    ("signed", _signed_deformation()),
                    ("injective", _injective_deformation())):
        yield name, f.base, f.mul_components, f.comul_components, f.order


_EVALUATOR_FIXTURES = list(_evaluator_fixtures())
_WIDTH = 4  # keeps every tensor of these dimension-3 and -5 models small


@st.composite
def _raw_slices(draw):
    """A raw slicing with swap runs anywhere, leading and trailing ones
    included, units, counits and labelled products and coproducts."""
    from moufang.diagram import ARITY

    n_in = draw(st.integers(0, 3))
    w, slices = n_in, []
    for _ in range(draw(st.integers(0, 8))):
        options = [kind for kind in ("mul", "comul", "unit", "counit", "swap")
                   if ARITY[kind][0] <= w
                   and w - ARITY[kind][0] + ARITY[kind][1] <= _WIDTH]
        if not options:
            break
        kind = draw(st.sampled_from(options))
        run = draw(st.integers(1, 3)) if kind == "swap" else 1
        label = (draw(st.sampled_from((None, "0", "+")))
                 if kind in ("mul", "comul") else None)
        for _ in range(run):
            off = draw(st.integers(0, w - ARITY[kind][0]))
            slices.append((kind, label, off))
        w += ARITY[kind][1] - ARITY[kind][0]
    if w >= 2 and draw(st.booleans()):
        for _ in range(draw(st.integers(1, 3))):
            slices.append(("swap", None, draw(st.integers(0, w - 2))))
    return n_in, slices


class _Drawn:
    """Stands in for `st.data()` in an explicit example: `draw` hands out
    the given values in turn, and starts again after the last one, so that
    a rerun of the example draws them again."""

    def __init__(self, *values) -> None:
        self.values, self.at = values, 0

    def draw(self, _strategy):
        value = self.values[self.at]
        self.at = (self.at + 1) % len(self.values)
        return value


_SIGNED = next(f for f in _EVALUATOR_FIXTURES if f[0] == "signed")


def _evaluate(d, states, model, muls, comuls):
    """`models.evaluate_components` on copies of ``states``, through fresh
    tables of the given components and ``model``'s unit and counit."""
    from moufang.models import StepTables, evaluate_components

    return evaluate_components(d, [dict(s) for s in states],
                               StepTables(muls, comuls, model))


@given(data=st.data(), slicing=_raw_slices(),
       fixture=st.sampled_from(_EVALUATOR_FIXTURES))
# "signed"'s degree-1 product has e1·e2 = 3e3 but e2·e1 = -3e3, and the
# base coproduct of e2 has the term e1 ⊗ e1, so a mul that reads one
# comul output and a wire holding e2 gives a wrong value if its fused
# step puts the two in the wrong order: the comul output on the left,
# then on the right.
@example(data=_Drawn({(2, 2): 1}, {}, {}), fixture=_SIGNED,
         slicing=(2, [("comul", None, 0), ("mul", None, 1)]))
@example(data=_Drawn({(2, 2): 1}, {}, {}), fixture=_SIGNED,
         slicing=(2, [("comul", None, 1), ("mul", None, 0)]))
@settings(max_examples=300, deadline=None)
def test_evaluator_matches_swap_by_swap_reference(data, slicing, fixture):
    """Every output equals the staircase that copies the tensor at each
    swap, on raw drawings and their canonical forms, with signed (and some
    zero) input values."""
    from conftest import reference_components
    from moufang.diagram import canonicalize, raw_diagram

    _name, model, muls, comuls, order = fixture
    n_in, slices = slicing
    raw = raw_diagram(n_in, slices)
    key = st.tuples(*[st.integers(0, model.dim - 1)] * n_in)
    value = st.one_of(st.integers(-3, 3), _RATIONALS)
    states = [data.draw(st.dictionaries(key, value, max_size=4))
              for _ in range(order + 1)]
    for d in (raw, canonicalize(raw)):
        got = _evaluate(d, states, model, muls, comuls)
        want = reference_components(d, [dict(s) for s in states], model,
                                    muls, comuls)
        assert got == want, str(d)


def test_signed_deformation_runs_fused_and_matches_reference():
    """On the signed deformation the pair (1, 1) is a term of two coproduct
    rows, so the fused step visits it twice where the staircase makes one
    intermediate key, and terms cancel at degree 2: the values agree."""
    from conftest import reference_components

    _name, model, muls, comuls, _order = next(
        f for f in _EVALUATOR_FIXTURES if f[0] == "signed")
    d = parse("id(1) * comul ; mul * id(1)")
    assert d.program[0][0][0] == "fused"
    states = [{(0, 4): Fraction(1, 2), (0, 1): -1, (2, 3): 2},
              {(4, 0): -1, (1, 1): 2, (2, 4): -1, (1, 2): 1},
              {(4, 2): 1, (0, 1): 2}]
    got = _evaluate(d, states, model, muls, comuls)
    want = reference_components(d, [dict(s) for s in states], model, muls,
                                comuls)
    assert got == want


_FUSED_SHAPES = ("id(1) * comul ; mul * id(1)",
                 "comul * id(1) ; id(1) * mul",
                 "id(1) * comul ; id(1) * swap ; mul * id(1)",
                 "comul * id(1) ; swap * id(1) ; id(1) * mul",
                 "swap ; id(1) * comul%+ ; mul%0 * id(1)",
                 "comul%0 * id(1) ; id(1) * mul%+",
                 "comul%+ * id(1) ; id(1) * mul")


def test_fused_steps_match_reference_on_every_shape():
    """Each of the four fused-step shapes, with labels, on every
    fixture: seeded signed inputs at every degree, zero values included,
    give the reference's values."""
    from conftest import reference_components

    rng = random.Random(16)
    values = (-2, -1, 0, 1, 2, Fraction(1, 2), Fraction(-3, 2))
    for text in _FUSED_SHAPES:
        d = parse(text)
        assert d.program[0][0][0] == "fused", text
        for name, model, muls, comuls, order in _EVALUATOR_FIXTURES:
            for _ in range(30):
                states = [{(rng.randrange(model.dim),
                            rng.randrange(model.dim)): rng.choice(values)
                           for _ in range(5)} for _ in range(order + 1)]
                got = _evaluate(d, states, model, muls, comuls)
                want = reference_components(d, [dict(s) for s in states],
                                            model, muls, comuls)
                assert got == want, (text, name, states)


def _random_slices(draw, w, count):
    """Up to ``count`` random slices on ``w`` wires, never wider than
    _WIDTH, and the width after them."""
    from moufang.diagram import ARITY

    slices = []
    for _ in range(draw(st.integers(0, count))):
        options = [kind for kind in ("mul", "comul", "unit", "counit", "swap")
                   if ARITY[kind][0] <= w
                   and w - ARITY[kind][0] + ARITY[kind][1] <= _WIDTH]
        kind = draw(st.sampled_from(options))
        label = (draw(st.sampled_from((None, "0", "+")))
                 if kind in ("mul", "comul") else None)
        slices.append((kind, label, draw(st.integers(0, w - ARITY[kind][0]))))
        w += ARITY[kind][1] - ARITY[kind][0]
    return slices, w


_SERIES_FIXTURES = {f[0]: f for f in _EVALUATOR_FIXTURES if f[4]}


def _comuls(name):
    return _SERIES_FIXTURES[name][3]


def _edited_comuls(draw, comuls, dim, shared):
    """The coproduct components with each term, on a coin drawn for it,
    given coefficient 0 or, if ``shared``, repeated with the opposite
    coefficient in another drawn row of its component.  A zero makes no
    fused table entry; a pair shared by two rows cancels where the two
    rows' inputs agree."""
    comuls = [dict(rows) for rows in comuls]
    for rows in comuls:
        for x, row in sorted(rows.items()):
            for t, (jk, c) in enumerate(row):
                if draw(st.booleans()):
                    if shared:
                        y = (x + draw(st.integers(1, dim - 1))) % dim
                        rows[y] = rows.get(y, ()) + ((jk, -c),)
                    else:
                        rows[x] = rows[x][:t] + ((jk, 0),) + rows[x][t + 1:]
    return tuple(comuls)


@st.composite
def _fused_cases(draw):
    """A series fixture's name, its coproduct components with drawn zero
    coefficients (on "injective") or shared pairs
    (`_edited_comuls`), an input count, a raw slicing and a tensor per
    degree.  The slicing has a comul, then swaps, then a mul that reads
    exactly one of the comul's outputs, with random slices around them.
    Keys use few indices and values include zero, so that terms meet and
    cancel."""
    shared = draw(st.booleans())
    name = (draw(st.sampled_from(sorted(_SERIES_FIXTURES))) if shared
            else "injective")
    _name, model, _muls, comuls, order = _SERIES_FIXTURES[name]
    comuls = _edited_comuls(draw, comuls, model.dim, shared)
    n_in = draw(st.integers(2, 3))
    before, w = _random_slices(draw, n_in, draw(st.sampled_from((0, 3))))
    assume(2 <= w < _WIDTH)
    label = st.sampled_from((None, "0", "+"))
    c_off = draw(st.integers(0, w - 1))
    slices = before + [("comul", draw(label), c_off)]
    wires = [i in (c_off, c_off + 1) for i in range(w + 1)]  # comul outputs?
    for _ in range(draw(st.integers(0, 2))):
        off = draw(st.integers(0, w - 1))
        wires[off], wires[off + 1] = wires[off + 1], wires[off]
        slices.append(("swap", None, off))
    m_off = draw(st.sampled_from([m for m in range(w)
                                  if wires[m] != wires[m + 1]]))
    slices.append(("mul", draw(label), m_off))
    after, _w = _random_slices(draw, w, draw(st.sampled_from((0, 3))))
    index = st.integers(0, draw(st.sampled_from((1, 2, model.dim - 1))))
    value = st.sampled_from((-2, -1, 0, 0, 1, 2, Fraction(1, 2),
                             Fraction(-3, 2)))
    states = [draw(st.dictionaries(st.tuples(*[index] * n_in), value,
                                   min_size=1, max_size=16))
              for _ in range(order + 1)]
    return name, comuls, n_in, slices + after, states


@given(_fused_cases())
# Three fixed cases, one per fault the random ones look for.  "signed"
# shares the pair (1, 1) between two coproduct rows, so a fused step meets
# one intermediate key twice:
@example(("signed", _comuls("signed"), 2,
          [("comul", None, 0), ("mul", None, 1)],
          [{(2, 2): 1}, {(2, 2): 1, (0, 1): -1}, {(0, 0): 1}]))
# zero input values at degrees 1 and 2:
@example(("injective", _comuls("injective"), 2,
          [("comul", None, 0), ("mul", None, 1)],
          [{(2, 1): 1}, {(3, 0): 0}, {(2, 2): 0}]))
# "injective"'s degree-1 coproduct has the term (4, 1) with coefficient 0
# in row 3, which must make no term of output key (3, 2) at degree 1:
@example(("injective", _comuls("injective"), 2,
          [("comul", None, 0), ("mul", None, 1)],
          [{(3, 2): -1, (4, 0): -1, (3, 1): 2}, {(2, 0): -1}, {(3, 4): -1}]))
@settings(max_examples=300, deadline=None)
def test_fused_step_on_series_matches_reference(case):
    """Every drawing here has a fusable comul-then-mul pair.  On the series
    fixtures, with a nonzero tensor at each degree, the evaluator gives the
    reference's values."""
    from conftest import reference_components
    from moufang.diagram import canonicalize, raw_diagram

    name, comuls, n_in, slices, states = case
    _name, model, muls, _own, _order = _SERIES_FIXTURES[name]
    raw = raw_diagram(n_in, slices)
    assert "fused" in [step[0] for step in raw.program[0]]
    for d in (raw, canonicalize(raw)):
        got = _evaluate(d, states, model, muls, comuls)
        want = reference_components(d, [dict(s) for s in states], model,
                                    muls, comuls)
        assert got == want, str(d)


def test_fn_o16_comoufang_and_compatibility_sides_run_fused(fn_o16):
    """The evaluator's saving on fn[o16]: each co-Moufang side and the
    compatibility law's two-coproduct side contract a comul into the mul
    after it, and the tables are cached on the model, or on a null
    deformation of it, which skips its empty degree-1 components."""
    from moufang.deformation import check_comoufang_mod, null_deformation
    from moufang.theories import base_rules, flag_rules

    co_l, = flag_rules("comoufang_l")
    co_r, = flag_rules("comoufang_r")
    bialg, = (r for r in base_rules() if r.name == "bialg")
    for d in (co_l.lhs, co_l.rhs, co_r.lhs, co_r.rhs, bialg.rhs):
        assert "fused" in [step[0] for step in d.program[0]], str(d)
    null = null_deformation(fn_o16, 1)
    for side in ("left", "right"):
        assert check_comoufang_mod(null, side).holds
    for holder in (fn_o16, null):
        shapes = {key[3] for key in holder.tables if key[0] == "fused"}
        assert len(shapes) == 4, holder  # co-Moufang sides use four shapes
    # a key is ("fused", a1, a2, shape) or (kind, a): components a1, a2, a
    assert {a for key in null.tables for a in key[1:3]} == {0}


def test_deformation_comoufang_sides_run_fused():
    """Δ₁ and the shift conjugation share coproduct pairs between rows or
    components, and their co-Moufang sides run fused all the same: the
    checks fill the fused-step tables at positive degrees (each side's
    fused step is checked above)."""
    from moufang.deformation import (check_comoufang_mod,
                                     shift_conjugation_deformation,
                                     simple_comul_perturbation)

    delta1 = simple_comul_perturbation(6, 3)
    shift = shift_conjugation_deformation(10, 2)
    for deformation, holds in ((delta1, False), (shift, True)):
        for side in ("left", "right"):
            assert check_comoufang_mod(deformation, side).holds == holds
        assert any(key[1] + key[2] for key in deformation.tables
                   if key[0] == "fused"), deformation.name


# --- one verdict per identity per model object --------------------------------


@pytest.fixture
def swept(monkeypatch):
    """The inputs verdict sweeps draw, counted per base model name: one per
    orbit of a model's automorphisms, or each capped basis input."""
    counts = {}
    draw = models.sweep_inputs

    def counting(obj, rank):
        for item in draw(obj, rank):
            counts[obj.base.name] = counts.get(obj.base.name, 0) + 1
            yield item

    monkeypatch.setattr(models, "sweep_inputs", counting)
    return counts


_COASSOC = (parse("comul ; comul * id(1)"), parse("comul ; id(1) * comul"))


def test_second_check_on_one_model_sweeps_nothing(swept):
    import dataclasses

    model = function_bialgebra(cyclic_loop(3))
    swept.clear()
    first = holds_identity(*_COASSOC, model)
    assert first.holds and swept == {"fn[cyclic3]": 2}  # orbits {0}, {1, 2}
    assert holds_identity(*_COASSOC, model) is first
    assert swept == {"fn[cyclic3]": 2}
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.holds = False
    # a new model object, registered or copied, decides the law afresh
    for fresh in (function_bialgebra(cyclic_loop(3)),
                  dataclasses.replace(model)):
        swept.clear()
        assert holds_identity(*_COASSOC, fresh).holds
        assert swept == {"fn[cyclic3]": 2}


def test_swapped_holding_pair_is_reused(swept):
    model = function_bialgebra(cyclic_loop(3))
    lhs, rhs = _COASSOC
    first = holds_identity(lhs, rhs, model)
    swept.clear()
    assert holds_identity(rhs, lhs, model) is first
    assert swept == {}


def test_failing_verdict_repeats_and_its_swap_is_swept_again(swept):
    model = truncated_binomial_bialgebra(4)
    lhs, rhs = parse("comul ; mul"), parse("id(1)")  # a^n -> 2^n a^n
    swept.clear()
    first = holds_identity(lhs, rhs, model)
    assert (first.holds, first.witness, first.diff) == (False, (1,), {(1,): 1})
    again = holds_identity(lhs, rhs, model)
    assert (again.witness, again.diff) == (first.witness, first.diff)
    assert again.describe(model) == first.describe(model)
    assert swept == {"binomial[4]": 2}  # inputs 1 and a, swept once
    swapped = holds_identity(rhs, lhs, model)
    assert (swapped.holds, swapped.witness, swapped.diff) == (
        False, (1,), {(1,): -1})
    assert swept == {"binomial[4]": 4}


def test_identical_sides_hold_after_the_sweep_refusals(swept):
    import dataclasses

    model = function_bialgebra(cyclic_loop(3))
    swept.clear()
    assert holds_identity(_COASSOC[0], _COASSOC[0], model).holds
    assert sum(swept.values()) <= 1  # only looks for one input to check
    with pytest.raises(ModelError, match="labelled generator"):
        holds_identity(parse("comul%0"), parse("comul%0"), model)
    vacuous = dataclasses.replace(model, degrees=(1, 1, 1), check_cap=0)
    with pytest.raises(ModelError, match=(
            r"^model fn\[cyclic3\]: cap 0 leaves no rank-1 basis input to "
            r"check$")):
        holds_identity(parse("comul"), parse("comul"), vacuous)
    assert not vacuous.verdicts


def test_kernel_map_reuses_the_comoufang_verdicts(swept):
    from moufang.deformation import (check_comoufang_mod, kernel_map_RS,
                                     null_deformation)

    base = function_bialgebra(cyclic_loop(3))
    unchecked, checked = (null_deformation(base, 1) for _ in range(2))
    for side in ("left", "right"):
        assert check_comoufang_mod(checked, side).holds
    swept.clear()
    assert kernel_map_RS(checked).holds
    assert swept == {}
    assert kernel_map_RS(unchecked).holds  # sweeps both laws first
    assert swept == {"fn[cyclic3]": 2 * 2}  # two rank-1 orbits, both sides


def test_holds_identity_decides_on_a_deformation(swept, fn_o16):
    """One memo for plain models and truncated deformations: a law check
    modulo h^(N+1) is a `holds_identity` verdict kept on the deformation,
    the swapped pair of a holding law is reused, and labels are read."""
    from moufang.deformation import (check_comoufang_mod, null_deformation,
                                     simple_comul_perturbation)
    from moufang.theories import flag_rules

    co_l, = flag_rules("comoufang_l")
    delta1 = simple_comul_perturbation(6, 3)
    report = holds_identity(co_l.lhs, co_l.rhs, delta1)
    assert check_comoufang_mod(delta1, "left") is report
    assert (report.holds, report.degree, report.witness) == (False, 1, (3,))
    null = null_deformation(fn_o16, 1)
    swept.clear()
    first = holds_identity(co_l.lhs, co_l.rhs, null)
    assert first.holds and swept == {"fn[o16]": 3}  # three rank-1 orbits
    assert holds_identity(co_l.rhs, co_l.lhs, null) is first
    assert swept == {"fn[o16]": 3}
    # a labelled diagram has a meaning on a deformation: the positive
    # coproduct components are empty on the null one, and not on delta1
    assert holds_identity(parse("comul%0"), parse("comul"), null).holds
    shifted = holds_identity(parse("comul%0"), parse("comul"), delta1)
    assert (shifted.holds, shifted.degree, shifted.witness) == (False, 1, (1,))


# --- exhaustive by symmetry: one input per orbit of verified automorphisms ---


def _chein_dihedral3():
    """Chein's loop M(D₃, 2) of order 12, the smallest nonassociative
    Moufang loop: on pairs (g, s) of D₃ ≅ S₃ and s in {0, 1},
    (g,0)(h,0) = (gh,0), (g,0)(h,1) = (hg,1), (g,1)(h,0) = (gh⁻¹,1) and
    (g,1)(h,1) = (h⁻¹g,0).  Element (g, s) has index 6s + (index of g)."""
    import itertools

    group = list(itertools.permutations(range(3)))

    def mul(g, h):
        return tuple(g[h[i]] for i in range(3))

    def inv(g):
        return tuple(sorted(range(3), key=g.__getitem__))

    def product(a, b):
        (s, g), (t, h) = divmod(a, 6), divmod(b, 6)
        g, h = group[g], group[h]
        k, u = {(0, 0): (mul(g, h), 0), (0, 1): (mul(h, g), 1),
                (1, 0): (mul(g, inv(h)), 1),
                (1, 1): (mul(inv(h), g), 0)}[s, t]
        return 6 * u + group.index(k)

    return MoufangLoop.from_table(
        [[product(a, b) for b in range(12)] for a in range(12)],
        name="chein-d3")


_SYMMETRIC_LOOPS = {"o16": None, "cyclic5": lambda: cyclic_loop(5),
                    "cyclic6": lambda: cyclic_loop(6),
                    "chein-d3": _chein_dihedral3}


@pytest.fixture(scope="module")
def symmetric_pairs(o16):
    """(name, object sweeping orbits, the same object sweeping every input)
    for loop and fn models and three deformations of fn[o16]; the second
    object's base is the first's with no automorphisms claimed."""
    import dataclasses

    from moufang.deformation import deformation_from_maps, null_deformation

    pairs = []
    for name, make in _SYMMETRIC_LOOPS.items():
        loop = o16 if make is None else make()
        for build in (loop_bialgebra, function_bialgebra):
            model = build(loop)
            pairs.append((model.name, model,
                          dataclasses.replace(model, automorphisms=())))
    fn, fn_full = pairs[1][1:]
    assert fn.name == "fn[o16]"
    # Δ₁ = Δ is invariant; Δ₁(δ_v) = δ_v ⊗ δ_v is not, and it must fall
    # back: v is in the orbit of u, so an orbit sweep would never visit it
    scaled = ((fn.comul_rows,), ({},))
    skewed = (({2: (((2, 2), 1),)},), ({},))
    for name, maps in (("null", None), ("scaled", scaled),
                       ("skewed", skewed)):
        twins = [null_deformation(base, 1) if maps is None else
                 deformation_from_maps(base, 1, *maps, name=name,
                                       strict=False)
                 for base in (fn, fn_full)]
        pairs.append((f"{name}[fn[o16]]", *twins))
    return pairs


def test_symmetric_pairs_take_orbits_only_where_verified(symmetric_pairs):
    for name, orbit, full in symmetric_pairs:
        assert not full.automorphisms, name
        invariant = not name.startswith("skewed")
        assert bool(orbit.automorphisms) == invariant, name
    null = next(o for n, o, _f in symmetric_pairs if n == "null[fn[o16]]")
    assert null.automorphisms == null.base.automorphisms


def _rank_sides(max_rank=3):
    """Catalog rule and goal sides of at most ``max_rank`` inputs, grouped
    by arity, for identities built from two of them."""
    groups = {}
    for _name, d in _agreement_sides():
        if d.n_in <= max_rank:
            groups.setdefault((d.n_in, d.n_out), []).append(d)
    return [sides for sides in groups.values() if len(sides) > 1]


_RANK_SIDES = _rank_sides()


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_orbit_sweep_matches_full_sweep(symmetric_pairs, data):
    """The orbit sweep gives the full sweep's `Report`: verdict, degree,
    witness and difference, in both orientations; a holding
    law covers every tuple with no more inputs than the full sweep."""
    name, orbit, full = data.draw(st.sampled_from(symmetric_pairs))
    sides = st.sampled_from(data.draw(st.sampled_from(_RANK_SIDES)))
    lhs, rhs = data.draw(sides), data.draw(sides)
    for a, b in ((lhs, rhs), (rhs, lhs)):
        got, want = (holds_identity(a, b, obj) for obj in (orbit, full))
        assert got == want, (name, str(a), str(b))
        assert got.swept <= want.swept, name
        if got.holds and got.covered:
            assert got.covered == want.covered == orbit.base.dim ** a.n_in


def test_describe_prints_a_difference_sorted_by_key(binomial6):
    """A failure's difference prints sorted by key, whatever order its keys
    were inserted in: on a plain model and at an h-degree of a
    deformation."""
    from moufang.deformation import simple_comul_perturbation
    from moufang.models import Report

    diff = {(2, 1): Fraction(3), (0, 3): Fraction(-1), (1, 2): Fraction(1, 2)}
    text = ("difference {(0, 3): Fraction(-1, 1), (1, 2): Fraction(1, 2), "
            "(2, 1): Fraction(3, 1)}")
    plain = Report(False, None, (1, 2), diff)
    assert plain.describe(binomial6) == f"fails on basis input (a, a^2); {text}"
    delta1 = simple_comul_perturbation(4, 2)
    series = Report(False, 1, (3,), diff)
    assert series.describe(delta1.base) == (
        f"fails at h-degree 1 on basis input ('a^3',); {text}")
    assert list(diff) == [(2, 1), (0, 3), (1, 2)]  # the report's own order


def test_o16_automorphism_group_and_orbits(o16, loop_o16, fn_o16):
    """|Aut(o16)| = 1344, the order of the octonion loop's automorphism
    group; its orbits on tuples of ranks 1-3 number 3, 11 and 51 (rank 1:
    {1}, {-1} and the fourteen elements of order 4)."""
    from moufang.models import permutation_closure

    gens = o16.automorphism_generators()
    assert len(gens) == 3
    assert len(permutation_closure(gens)) == 1344
    for model in (loop_o16, fn_o16):
        assert model.automorphisms == gens
        assert [len(model.orbits[r]) for r in (1, 2, 3)] == [3, 11, 51]
        assert model.orbits[1] == {(0,): 1, (1,): 14, (8,): 1}
        for r in (1, 2, 3):
            assert sum(model.orbits[r].values()) == 16 ** r


def test_unverified_automorphism_is_refused(o16, loop_o16, fn_o16,
                                            monkeypatch):
    """A claimed automorphism is checked when the model is built, also when
    `dataclasses.replace` builds it again."""
    import dataclasses

    swap_uv = (0, 2, 1) + tuple(range(3, 16))  # u <-> v: uv = -vu breaks it
    for model, broken in ((loop_o16, "product"), (fn_o16, "coproduct")):
        with pytest.raises(ModelError, match=(
                rf"^model {re.escape(model.name)}: claimed automorphism "
                rf"{re.escape(str(swap_uv))} does not commute with the "
                rf"{broken}$")):
            dataclasses.replace(model, automorphisms=(swap_uv,))
    with pytest.raises(ModelError, match=r"^model loop\[o16\]: claimed "
                       r"automorphism \(0, 0,.*\) does not permute the basis$"):
        dataclasses.replace(loop_o16, automorphisms=((0,) * 16,))
    with pytest.raises(ModelError, match=r"^model loop\[o16\]: .* does not "
                       r"commute with the counit$"):
        dataclasses.replace(loop_o16, counit_entries={1: 1})
    # coefficients count too: x -> -x swaps the rows of (1, 1) and (2, 2),
    # so scaling one of them alone leaves it no automorphism
    c3 = loop_bialgebra(cyclic_loop(3))
    assert c3.automorphisms == ((0, 2, 1),)
    with pytest.raises(ModelError, match=r"^model loop\[cyclic3\]: claimed "
                       r"automorphism \(0, 2, 1\) does not commute with the "
                       r"product$"):
        dataclasses.replace(c3, mul_rows={**c3.mul_rows, (1, 1): ((2, 2),)})
    checked = []
    check = models.breaks_structure
    monkeypatch.setattr(models, "breaks_structure",
                        lambda p, *rows: checked.append(p) or check(p, *rows))
    again = dataclasses.replace(fn_o16)
    assert checked == list(fn_o16.automorphisms)
    assert again.automorphisms == fn_o16.automorphisms


def _registered_models(o16):
    yield from (loop_bialgebra(o16), function_bialgebra(o16),
                truncated_binomial_bialgebra(6),
                loop_bialgebra(_chein_dihedral3()),
                function_bialgebra(_chein_dihedral3()),
                load_model_text(_C2_HALF))
    for n in (2, 3, 6):
        yield from (loop_bialgebra(cyclic_loop(n)),
                    function_bialgebra(cyclic_loop(n)))


def test_every_registered_law_covers_every_capped_tuple(o16):
    """Exhaustiveness, counted: each law a registration decided covers
    every capped basis tuple, and an orbit sweep evaluates one input per
    orbit."""
    from moufang.theories import base_rules, flag_rules

    for model in _registered_models(o16):
        laws = base_rules() + tuple(
            r for flag in sorted(model.satisfied_flags)
            for r in flag_rules(flag))
        for rule in laws:
            report = holds_identity(rule.lhs, rule.rhs, model)
            rank = rule.lhs.n_in
            tuples = len(list(model.basis_iterator(rank)))
            assert report.holds and report.covered == tuples, (
                model.name, rule.name)
            assert report.swept == (len(model.orbits[rank])
                                    if model.automorphisms else tuples)
