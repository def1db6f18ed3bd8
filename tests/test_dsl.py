import hashlib
import random
import re
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings, strategies as st

from conftest import piecewise_parse
from moufang import diagram, models
from moufang.diagram import (
    ARITY,
    MAX_WIRES,
    ArityMismatch,
    DiagramError,
    canonicalize,
    raw_diagram,
)
from moufang.dsl import SyntaxErrorAt, parse, print_diagram, render
from moufang.theories import goal_suite, named_theory


def test_parse_q_diagram():
    q = parse("comul ; mul")
    assert (q.n_in, q.n_out) == (1, 1)
    assert parse("mul ∘ comul") == q


def test_parse_counit_composite():
    d = parse("comul ; (counit * id(1))")
    assert (d.n_in, d.n_out) == (1, 1)
    assert d == parse("comul ; counit ⊗ id(1)")


def test_bialgebra_compatibility_sides_parse():
    lhs = parse("mul ; comul")
    rhs = parse("comul*comul ; id(1)*swap*id(1) ; mul*mul")
    assert (lhs.n_in, lhs.n_out) == (rhs.n_in, rhs.n_out) == (2, 2)
    assert lhs != rhs


def test_labels_roundtrip():
    d = parse("comul%0 ; mul%+")
    assert parse(print_diagram(d)) == d


def test_syntax_error_carries_position():
    with pytest.raises(SyntaxErrorAt) as err:
        parse("comul ; $")
    assert err.value.position == 8


def test_arity_error_mentions_input():
    with pytest.raises(ArityMismatch):
        parse("comul ; comul ; mul")


def test_unknown_generator():
    with pytest.raises(SyntaxErrorAt):
        parse("frobnicate")


def _random_slices(rng, n_in, n_steps):
    w = n_in
    out = []
    for _ in range(n_steps):
        options = []
        for kind, (k, m) in ARITY.items():
            if kind == "id":
                continue
            if k <= w and 0 <= w - k + m <= 8:
                label_choices = (None, "0", "+") if kind in ("mul", "comul") else (None,)
                options.extend(
                    (kind, lab, off)
                    for off in range(w - k + 1) for lab in label_choices
                )
        if not options:
            break
        choice = rng.choice(options)
        out.append(choice)
        k, m = ARITY[choice[0]]
        w += m - k
    return out


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_print_parse_roundtrip(seed):
    rng = random.Random(seed)
    n_in = rng.randint(0, 4)
    d = canonicalize(raw_diagram(n_in, _random_slices(rng, n_in, rng.randint(0, 8))))
    assert parse(print_diagram(d)) == d


def _slice_text(n_in, slices):
    """A drawing as text, one term per slice: ``id(a) * g * id(b) ; …``."""
    terms, w = [], n_in
    for kind, label, off in slices:
        k, m = ARITY[kind]
        name = kind if label is None else f"{kind}%{label}"
        terms.append(f"id({off}) * {name} * id({w - off - k})")
        w += m - k
    return " ; ".join(terms) or f"id({n_in})"


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_parse_of_a_drawing_is_its_canonical_form(seed):
    """A drawing's text numbers its nodes as the drawing does, so parsing
    it gives exactly what canonicalizing the drawing gives."""
    rng = random.Random(seed)
    n_in = rng.randint(0, 4)
    slices = _random_slices(rng, n_in, rng.randint(0, 10))
    got = parse(_slice_text(n_in, slices))
    want = canonicalize(raw_diagram(n_in, slices))
    assert (got.n_in, got.n_out, got.slices) == (
        want.n_in, want.n_out, want.slices)


_FACTORS = {0: ("unit", "id(0)"), 1: ("comul", "counit", "id(1)"),
            2: ("mul", "swap", "id(2)"), 3: ("id(3)",)}


def _random_text(rng, n_in, depth):
    """A random well-formed nested text from `n_in` wires, and its output
    count: terms composed with ';' or '∘', factors that may be bracketed
    texts themselves."""
    text, w = _random_term(rng, n_in, depth)
    for _ in range(rng.randint(0, 3)):
        rhs, w = _random_term(rng, w, depth)
        text = f"{text} ; {rhs}" if rng.random() < 0.8 else f"{rhs} ∘ ({text})"
    return text, w


def _random_term(rng, n_in, depth):
    """A term from `n_in` wires that widens no further past 6."""
    factors, w = [], 0
    while n_in or not factors or (w < 6 and rng.random() < 0.2):
        k = rng.randint(0, min(n_in, 3))
        n_in -= k
        if depth and w + n_in < 6 and rng.random() < 0.3:
            text, m = _random_text(rng, k, depth - 1)
            factors.append(f"({text})")
        else:
            name = rng.choice([name for name in _FACTORS[k] if w + n_in < 6
                               or name.startswith("id") or ARITY[name][1] <= k])
            factors.append(name)
            m = k if name.startswith("id") else ARITY[name][1]
        w += m
    return rng.choice((" * ", " ⊗ ")).join(factors), w


def _check_against_piecewise(text, checked_on):
    """`parse` against the parser that canonicalizes every sub-expression.
    An arity error is the same error.  A sub-expression too wide for a
    canonical form refuses the text piecewise, while the whole may fit.
    Otherwise the diagrams are equal, or the slicer broke a tie between
    closed bubbles by node numbering, so both hold as one identity."""
    try:
        want = piecewise_parse(text)
    except ArityMismatch as exc:
        with pytest.raises(ArityMismatch, match="^" + re.escape(str(exc))):
            parse(text)
        return
    except DiagramError as exc:
        assert str(exc) in (f"diagram exceeds {MAX_WIRES} parallel wires",
                            "boundary arity out of range")
        try:
            parse(text)
        except DiagramError:
            pass
        return
    got = parse(text)
    assert (got.n_in, got.n_out) == (want.n_in, want.n_out)
    if got != want:
        for model in checked_on:
            assert models.holds_identity(got, want, model).holds, text


@pytest.fixture(scope="module")
def binomial4():
    return models.truncated_binomial_bialgebra(4)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_parse_agrees_with_the_piecewise_parser(seed, binomial4, fn_o16):
    rng = random.Random(seed)
    text, _n_out = _random_text(rng, rng.randint(0, 3), 2)
    if rng.random() < 0.1:
        text += " ; mul"  # most often a wrong arity
    _check_against_piecewise(text, (binomial4, fn_o16))


def test_parse_may_break_a_bubble_tie_as_the_text_numbers_it(binomial4,
                                                             fn_o16):
    """Piecewise, the bracket's own canonical form numbers the second
    bubble first, since its legs reach the leftmost outputs; in the whole
    diagram the two bubbles tie and the text's numbering puts the first
    one first."""
    text = ("(unit * id(2) ; comul * id(2) ; id(1) * mul * id(1) ; "
            "unit * id(3) ; comul * id(3) ; id(3) * swap ; "
            "id(2) * swap * id(1) ; id(1) * mul * id(2)) ; "
            "counit * counit * counit * counit")
    assert parse(text) != piecewise_parse(text)
    _check_against_piecewise(text, (binomial4, fn_o16))


def test_parse_refusals_name_what_fails():
    """A bracket whose boundary is too wide is refused at once; a width
    that only the canonical form of the whole exceeds, by the slicer."""
    for text, message in (
            ("id(17)", "id(17) out of range"),
            ("id(10) * id(10)", f"diagram exceeds {MAX_WIRES} parallel wires"),
            ("comul * id(15) ; id(17)", f"diagram exceeds {MAX_WIRES} "
                                        "parallel wires"),
            ("id(14) * counit ; id(7) * comul * id(6) ; "
             "id(6) * comul * id(8)",
             f"diagram exceeds {MAX_WIRES} parallel wires"),
            ("swap%0", "label '0' not allowed on 'swap'"),
            ("comul ; id(3)", "cannot compose: first factor has 2 outputs, "
                              "second expects 3 inputs, composing at "
                              "position 6 of 'comul ; id(3)'")):
        with pytest.raises(DiagramError, match="^" + re.escape(message)):
            parse(text)


def test_parse_slices_once_and_canonical_diagrams_not_again():
    """One slicer run per parse, whatever the nesting, and none to
    canonicalize or print what the parse returned."""
    texts = ["id(0)", "swap", "comul ; (counit * id(1))",
             "(unit * unit ; mul) * (comul ; swap) ; id(1) * mul"]
    texts += [print_diagram(side) for rule in named_theory("comoufang").rules
              for side in (rule.lhs, rule.rhs)]
    texts += [print_diagram(side) for goal in goal_suite()
              for side in (goal.lhs, goal.rhs)]
    runs = []
    slicer = diagram._slices_from_graph

    def counted(*args):
        runs.append(args)
        return slicer(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(diagram, "_slices_from_graph", counted)
        for text in texts:
            del runs[:]
            d = parse(text)
            assert len(runs) == 1, text
            assert canonicalize(d) is d
            print_diagram(d)
            assert len(runs) == 1, text


def test_render_identity_is_bars():
    out = render(parse("id(1)"), "ascii")
    assert set(out.replace("\n", "").replace(" ", "")) == {"|"}


def test_render_q_two_slices():
    out = render(parse("comul ; mul"), "ascii")
    assert out.count("/^\\") == 1 and out.count("\\_/") == 1


def test_render_svg_is_wellformed():
    lhs = parse("comul ; id(1)*comul ; id(2)*comul ; id(1)*swap*id(1) ; mul*id(2)")
    doc = render(lhs, "svg")
    root = ET.fromstring(doc)
    assert root.tag.endswith("svg")
    assert "http" not in doc.replace("http://www.w3.org/2000/svg", "")


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_render_never_fails_on_parsed_diagrams(seed):
    rng = random.Random(seed)
    n_in = rng.randint(0, 3)
    d = canonicalize(raw_diagram(n_in, _random_slices(rng, n_in, rng.randint(0, 6))))
    for fmt in ("ascii", "svg", "tikz"):
        out = render(d, fmt)
        assert out == render(d, fmt)  # deterministic


_RENDER_PINS = {
    "ascii": "4d709ec0250c94142b3226f0e88edc2cb5724771",
    "svg": "9441d68ef92a8fa33276df5435c3420a49e4863b",
    "tikz": "ea7f7ac923ad7942e59184bf1184ca1a58c2aad9",
}


def test_render_outputs_are_pinned():
    """Every byte of every format on 500 seeded canonical diagrams,
    labels ``%0`` and ``%+`` included: a drawing change must move a pin."""
    digests = {fmt: hashlib.sha1() for fmt in _RENDER_PINS}
    for seed in range(500):
        rng = random.Random(seed)
        n_in = rng.randint(0, 4)
        d = canonicalize(raw_diagram(
            n_in, _random_slices(rng, n_in, rng.randint(0, 8))))
        for fmt, digest in digests.items():
            digest.update((render(d, fmt) + "\0").encode())
    assert {fmt: h.hexdigest() for fmt, h in digests.items()} == _RENDER_PINS


def test_tikz_contains_environment():
    out = render(parse("comul ; mul"), "tikz")
    assert out.startswith(r"\begin{tikzpicture}")
    assert out.endswith(r"\end{tikzpicture}")
