"""The shared line-record reader and the five loaders built on it."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from moufang.deformation import (
    DeformationError,
    load_deformation_text,
    save_deformation_text,
    shift_conjugation_deformation,
)
from moufang.dsl import parse
from moufang.models import (
    ModelError,
    cyclic_loop,
    load_model_text,
    loop_bialgebra,
    save_model_text,
    truncated_binomial_bialgebra,
)
from moufang.reader import Many, Rest, read
from moufang.rewrite import RewriteError, parse_trace, prove_equal, serialize_trace
from moufang.theories import (
    TheoryError,
    goal_suite,
    load_goals_text,
    load_theory_text,
    named_theory,
    save_goals_text,
    save_theory_text,
)


def _fixture(text):
    return load_deformation_text(
        text, lambda ref: truncated_binomial_bialgebra(2))


def _trace(text):
    return parse_trace(text, parse("mul"), parse("mul"), "base")


# Each loader with its own error class and the words of its format.
LOADERS = {
    "model": (load_model_text, ModelError,
              "model dim flags basis degree cap kind mul comul unit counit end"),
    "theory": (load_theory_text, TheoryError, "theory flags rule end"),
    "goals": (load_goals_text, TheoryError, "goal source lhs rhs end"),
    "trace": (_trace, RewriteError, "counit-l unit-l -> <- 0"),
    "fixture": (_fixture, DeformationError,
                "deformation base order comul mul end"),
}

# A valid one-dimensional model, so that one extra line is all that is wrong.
_DIM1 = save_model_text(loop_bialgebra(cyclic_loop(1))).replace("end\n", "")


@pytest.mark.parametrize("loader,text,lineno", [
    pytest.param("model", "dim 2\nmul 1 2\n", 2, id="model-short-mul"),
    pytest.param("model", "model\ndim 1\n", 1, id="model-bare-model"),
    pytest.param("model", "kind\ndim 1\n", 1, id="model-bare-kind"),
    pytest.param("model", "dim x\n", 1, id="model-dim-not-int"),
    pytest.param("model", "dim 1\nunit 0 1/0\n", 2, id="model-unit-1/0"),
    pytest.param("model", _DIM1 + "mul 0 5 0 1\n", 9, id="model-mul-index"),
    pytest.param("model", _DIM1 + "comul 0 0 3 1\n", 9, id="model-comul-index"),
    pytest.param("model", _DIM1 + "unit 2 1\n", 9, id="model-unit-index"),
    pytest.param("model", _DIM1 + "counit -1 1\n", 9, id="model-counit-index"),
    pytest.param("model", _DIM1 + "degree 0 1 2\n", 9, id="model-degree-length"),
    pytest.param("model", _DIM1 + "degree -1\n", 9, id="model-degree-negative"),
    pytest.param("model", _DIM1 + "degree 0\ncap -1\n", 10,
                 id="model-cap-negative"),
    pytest.param("model", _DIM1 + "cap 0\n", 9, id="model-cap-without-degree"),
    pytest.param("model", _DIM1 + "basis a b\n", 9, id="model-basis-length"),
    pytest.param("model", _DIM1 + "flags nope\n", 9, id="model-unknown-flag"),
    pytest.param("model", "dim -2\n", 1, id="model-dim-negative"),
    pytest.param("model", "model m\ndim 0\n", 2, id="model-dim-zero"),
    pytest.param("theory", "theory\n", 1, id="theory-bare-theory"),
    pytest.param("theory", "theory t\nrule\n", 2, id="theory-bare-rule"),
    pytest.param("theory", "theory t\nrule r : mul ; = mul\n", 2,
                 id="theory-rule-syntax"),
    pytest.param("goals", "goal a\n  lhs mul ;\n  rhs mul\nend\n", 2,
                 id="goals-lhs-syntax"),
    pytest.param("goals", "goal a\n  lhs mul\n  rhs (mul\nend\n", 3,
                 id="goals-rhs-syntax"),
    pytest.param("trace", "unit-l -> 0 -> mul\nunit-l -> 0 -> mul ;\n", 2,
                 id="trace-step-syntax"),
    pytest.param("fixture", "base b\norder x\n", 2, id="fixture-order-not-int"),
    pytest.param("fixture", "base\norder 1\n", 1, id="fixture-bare-base"),
    pytest.param("fixture", "deformation\nbase b\norder 1\n", 1,
                 id="fixture-bare-deformation"),
    pytest.param("fixture", "base b\norder -1\n", 2,
                 id="fixture-order-negative"),
])
def test_malformed_line_is_named(loader, text, lineno):
    load, error, _words = LOADERS[loader]
    with pytest.raises(error, match=f"^line {lineno}: "):
        load(text)


_NUMBERS = st.sampled_from(["-1", "0", "1", "2", "3", "1/2", "-2/3", "1/0"])
_JUNK = st.sampled_from(["x", "#", "=", ":", "->", "", "theory=base",
                         "kind=provable", "countermodel=", "foo=1",
                         "assoc", "comoufang_l"])
_DSL = st.sampled_from(["mul", "comul", "unit", "counit", "swap", "id(1)",
                        "id(2)", ";", "*", "(", ")", "mul%+", "comul ; mul",
                        "mul * id(1) ; mul"])


@pytest.mark.parametrize("loader", sorted(LOADERS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_random_lines_raise_only_the_loaders_error(loader, data):
    load, error, words = LOADERS[loader]
    word = st.one_of(st.sampled_from(words.split()), _NUMBERS, _JUNK, _DSL)
    head = st.one_of(st.sampled_from(words.split()), word)
    line = st.tuples(head, st.lists(word, max_size=5)).map(
        lambda parts: " ".join([parts[0], *parts[1]]))
    text = "\n".join(data.draw(st.lists(line, max_size=8), label="lines"))
    try:
        load(text)
    except error:
        pass


class _Error(Exception):
    pass


def test_read_checks_arity_and_fields():
    table = {"pair": (int, int), "names": (str, Many()), "text": (Rest(),),
             "ratio": (Fraction,), "end": ()}
    text = "# comment\n\npair 1 2\nnames a b c\ntext  two  words \nend\n"
    got = [(r.line, r.head, r.values) for r in read(text, table, _Error)]
    assert got == [(3, "pair", (1, 2)), (4, "names", ("a", ("b", "c"))),
                   (5, "text", ("two  words ",)), (6, "end", ())]
    for bad, message in [("pair 1", r"pair takes 2 value\(s\), got 1"),
                         ("names", r"names takes 1 value\(s\), got 0"),
                         ("end now", r"end takes 0 value\(s\), got 1"),
                         ("pair 1 x", "pair: bad value 'x'"),
                         ("ratio 1/0",
                          r"ratio: bad value '1/0' \(zero denominator\)$"),
                         ("text", r"text takes 1 value\(s\), got 0"),
                         ("other 1", "unknown directive 'other'")]:
        with pytest.raises(_Error, match=f"^line 2: {message}"):
            read("end\n" + bad, table, _Error)


def test_every_format_round_trips_to_an_equal_object():
    binomial = truncated_binomial_bialgebra(4)
    assert load_model_text(save_model_text(binomial)) == binomial
    theory = named_theory("comoufang")
    assert load_theory_text(save_theory_text(theory)) == theory
    suite = goal_suite()
    assert load_goals_text(save_goals_text(suite)) == suite
    base = named_theory("base")
    lhs, rhs = parse("unit * id(1) ; mul"), parse("id(1)")
    trace = prove_equal(lhs, rhs, base.rules, theory_name=base.name)
    assert parse_trace(serialize_trace(trace), lhs, rhs, base.name) == trace
    fixture = shift_conjugation_deformation(6, 2)
    loaded = load_deformation_text(save_deformation_text(fixture, "b6"),
                                   lambda ref: fixture.base)
    assert loaded == fixture
