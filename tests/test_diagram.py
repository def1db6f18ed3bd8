import hashlib
import random
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from moufang.diagram import (
    ARITY,
    LABELLABLE,
    LABELS,
    MAX_WIRES,
    ArityMismatch,
    Diagram,
    DiagramError,
    _canonical_from_graph,
    _canonical_splice,
    _Graph,
    _slices_from_graph,
    canonicalize,
    compose,
    flip,
    generator,
    identity,
    raw_diagram,
    tensor,
)
from moufang.dsl import parse


def test_generator_arities():
    assert (generator("mul").n_in, generator("mul").n_out) == (2, 1)
    assert (generator("comul").n_in, generator("comul").n_out) == (1, 2)
    assert (generator("unit").n_in, generator("unit").n_out) == (0, 1)
    assert (generator("counit").n_in, generator("counit").n_out) == (1, 0)
    assert (generator("swap").n_in, generator("swap").n_out) == (2, 2)


def test_labels_only_on_mul_comul():
    generator("mul", "0")
    generator("comul", "+")
    with pytest.raises(DiagramError):
        generator("swap", "0")
    with pytest.raises(DiagramError):
        generator("unit", "+")


def test_compose_identity():
    assert compose(identity(1), identity(1)) == identity(1)


def test_compose_arity_error_names_both_counts():
    with pytest.raises(ArityMismatch) as err:
        compose(generator("comul"), generator("comul"))
    assert "2" in str(err.value) and "1" in str(err.value)


def test_q_diagram_shape():
    q = compose(generator("comul"), generator("mul"))
    assert (q.n_in, q.n_out) == (1, 1)
    assert len(q.slices) == 2


def test_double_coproduct_arities():
    d = compose(generator("comul"), tensor(identity(1), generator("comul")))
    assert (d.n_in, d.n_out) == (1, 3)


def test_tensor_adds_arities():
    assert tensor(identity(1), identity(1)) == identity(2)
    d = tensor(generator("mul"), generator("comul"))
    assert (d.n_in, d.n_out) == (3, 3)


def test_interchange_law():
    a = parse("(mul * id(1)) ; (id(1) * comul)")
    b = parse("(id(2) * comul) ; (mul * id(2))")
    assert a == b


def test_swap_involution_is_structural():
    assert parse("swap ; swap") == identity(2)


def test_swap_naturality():
    assert parse("(mul * id(1)) ; swap") == parse(
        "(id(1) * swap) ; (swap * id(1)) ; (id(1) * mul)"
    )


def test_canonicalize_idempotent():
    d = parse("comul ; id(1)*comul ; id(2)*comul ; id(1)*swap*id(1) ; mul*id(2)")
    assert canonicalize(d) == d
    assert (d.n_in, d.n_out) == (1, 3)
    # slice count is stable for this fixed slicing algorithm
    assert len(d.slices) == 5


def test_boundaries_preserved_by_canonicalize():
    d = raw_diagram(2, [("swap", None, 0), ("mul", None, 0), ("comul", None, 0)])
    c = canonicalize(d)
    assert (c.n_in, c.n_out) == (d.n_in, 2)


def test_wire_bound_enforced():
    wide = identity(8)
    with pytest.raises(DiagramError):
        big = wide
        for _ in range(12):
            big = tensor(big, generator("unit"))


def test_wire_bound_counts_just_in_time_units():
    """No step of this drawing is wider than 16 wires, but the canonical
    form would insert both units before the first mul and reach 18."""
    d = raw_diagram(14, [("unit", None, 0), ("unit", None, 1),
                         ("mul", None, 0), ("mul", None, 0),
                         ("comul", None, 1), ("comul", None, 3)])
    assert max(d.widths()) == MAX_WIRES
    with pytest.raises(DiagramError,
                       match=f"^diagram exceeds {MAX_WIRES} parallel wires$"):
        canonicalize(d)


def _random_slices(rng, n_in, n_steps, max_width=8):
    w = n_in
    out = []
    for _ in range(n_steps):
        options = []
        for kind, (k, m) in ARITY.items():
            if kind == "id":
                continue
            if k <= w and 0 <= w - k + m <= max_width:
                options.extend((kind, None, off) for off in range(w - k + 1))
        if not options:
            break
        choice = rng.choice(options)
        out.append(choice)
        k, m = ARITY[choice[0]]
        w += m - k
    return out


def _rebuild_as_term(slices, n_in):
    d = identity(n_in)
    for kind, label, off in slices:
        w = d.n_out
        k, _m = ARITY[kind]
        factors = []
        if off:
            factors.append(identity(off))
        factors.append(generator(kind, label))
        if w - off - k:
            factors.append(identity(w - off - k))
        d = compose(d, reduce(tensor, factors))
    return d


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_reslicing_invariance(seed):
    rng = random.Random(seed)
    n_in = rng.randint(0, 4)
    slices = _random_slices(rng, n_in, rng.randint(0, 8))
    direct = canonicalize(raw_diagram(n_in, slices))
    rebuilt = _rebuild_as_term(slices, n_in)
    assert direct == rebuilt
    assert canonicalize(direct) == direct


# 1 -> 1 sides spliced into a wire: unit and counit sides, which the
# splice shortcut inserts, and one that is sliced anew
_SPLICED = tuple(parse(text) for text in (
    "unit * id(1) ; mul", "id(1) * unit ; mul", "comul ; counit * id(1)",
    "comul ; id(1) * counit", "comul ; mul"))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_canonicalize_is_idempotent_and_returns_what_it_made(seed):
    """Canonicalizing a canonical form's slices gives it back, and a
    diagram the canonicalizer made, by slicing a graph or by the splice
    shortcut, is returned as the very same object.  The marker is left
    out of equality, hashing and repr."""
    rng = random.Random(seed)
    n_in = rng.randint(0, 4)
    raw = raw_diagram(n_in, _random_slices(rng, n_in, rng.randint(0, 8)))
    d = canonicalize(raw)
    assert d.canonical and not raw.canonical
    plain = Diagram(d.n_in, d.n_out, d.slices)
    assert (d, hash(d), repr(d)) == (plain, hash(plain), repr(plain))
    made = [d, _canonical_from_graph(raw.graph)]
    g = d.graph
    wires = [~i for i in range(g.n_in)] + [
        2 * v + j for v, (kind, _label) in enumerate(g.nodes)
        for j in range(ARITY[kind][1])]
    for side in _SPLICED:
        for p0 in wires:
            try:
                made.append(_canonical_splice(g, p0, side.graph))
            except DiagramError:
                pass
    for e in made:
        assert e.canonical and canonicalize(e) is e
        assert canonicalize(raw_diagram(e.n_in, e.slices)) == e


def test_raw_diagram_keeps_the_graph_that_validates_it():
    d = raw_diagram(2, [("mul", None, 0), ("comul", None, 0)])
    assert "graph" in vars(d)
    assert d.graph.nodes == [("mul", None), ("comul", None)]


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_interchange_of_independent_slices(seed):
    rng = random.Random(seed)
    n_in = rng.randint(0, 4)
    slices = _random_slices(rng, n_in, rng.randint(0, 8))
    shuffled = list(slices)
    for _ in range(16):
        if len(shuffled) < 2:
            break
        i = rng.randrange(len(shuffled) - 1)
        (k1, l1, o1), (k2, l2, o2) = shuffled[i], shuffled[i + 1]
        a1, b1 = ARITY[k1]
        a2, b2 = ARITY[k2]
        if o2 + a2 <= o1:
            shuffled[i], shuffled[i + 1] = (k2, l2, o2), (k1, l1, o1 - a2 + b2)
        elif o2 >= o1 + b1:
            shuffled[i], shuffled[i + 1] = (k2, l2, o2 - b1 + a1), (k1, l1, o1)
    assert canonicalize(raw_diagram(n_in, slices)) == canonicalize(
        raw_diagram(n_in, shuffled)
    )


def test_canonical_slicings_of_a_seeded_corpus_are_pinned():
    """Pin the normal form on 3,000 seeded random drawings: units, counits,
    swaps and labels, up to 16 wires, with refused ones as their error."""
    rng = random.Random(13)
    lines = []
    for _ in range(3000):
        n_in = rng.randint(0, MAX_WIRES)
        slices = [
            (kind, rng.choice(LABELS) if kind in LABELLABLE else None, off)
            for kind, _label, off in _random_slices(
                rng, n_in, rng.randint(0, 14), MAX_WIRES)
        ]
        try:
            lines.append(repr(canonicalize(raw_diagram(n_in, slices)).slices))
        except DiagramError as e:
            lines.append(f"error: {e}")
    digest = hashlib.sha1("\n".join(lines).encode()).hexdigest()
    assert digest == "99d4a28eb9d0e1dc467ed9c7f9922f9b7414136e"


def test_flip_exchanges_boundaries():
    d = parse("comul ; mul")
    assert flip(d) == d
    left = parse("comul ; comul * id(1)")
    assert flip(left) == parse("mul * id(1) ; mul")
    assert flip(flip(left)) == left


def test_scalar_bubble_canonicalizes():
    bubble = compose(generator("unit"), generator("counit"))
    assert (bubble.n_in, bubble.n_out) == (0, 0)
    assert canonicalize(bubble) == bubble
    beside = tensor(identity(1), bubble)
    assert (beside.n_in, beside.n_out) == (1, 1)
    assert canonicalize(beside) == beside


def _port(producer):
    """A producer ("b", i) or (node, output) as its port id."""
    kind, index = producer
    return ~index if kind == "b" else 2 * kind + index


def test_cyclic_port_graph_has_no_slicing():
    """A comul eats a mul's output and feeds the mul's second input back."""
    cyclic = _Graph(1, 1, [("mul", None), ("comul", None)],
                    [(_port(("b", 0)), _port((1, 1))), (_port((0, 0)),)],
                    (_port((1, 0)),))
    with pytest.raises(DiagramError, match="^diagram has a cycle$"):
        _slices_from_graph(cyclic)
