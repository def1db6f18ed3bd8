import itertools
from fractions import Fraction

import pytest

from moufang import dsl, linalg, models, octonion
from moufang.diagram import compose, generator, identity, tensor


def same_span(a, b) -> bool:
    """Do the two lists of vectors span one subspace?  They do exactly when
    rank A = rank B = rank of A and B stacked."""
    def rank(vectors):
        return len(linalg.rref([list(v) for v in vectors])[1])

    return rank(a) == rank(b) == rank([*a, *b])


def dense_kernel_T(q):
    """Nullspace of T = Q⊗Q⊗I - Q⊗I⊗I - I⊗Q⊗I, written as a dense d³ × d³
    matrix and row-reduced: the oracle for `deformation.eigen_kernel_T`.
    Index (i, j, k) of the triple space is (i*d + j)*d + k."""
    d = len(q)
    n3 = d ** 3
    rows = []
    for i1, i2, i3 in itertools.product(range(d), repeat=3):
        row = [Fraction(0)] * n3
        for j1 in range(d):
            if q[i1][j1]:
                for j2 in range(d):
                    if q[i2][j2]:
                        row[(j1 * d + j2) * d + i3] += q[i1][j1] * q[i2][j2]
        for j1 in range(d):
            if q[i1][j1]:
                row[(j1 * d + i2) * d + i3] -= q[i1][j1]
        for j2 in range(d):
            if q[i2][j2]:
                row[(i1 * d + j2) * d + i3] -= q[i2][j2]
        rows.append(row)
    return linalg.nullspace(rows)


def associativity_witness(loop):
    """Some (a, b, c) with (ab)c != a(bc) in the loop, or None if it is
    associative."""
    for a, b, c in itertools.product(range(loop.order), repeat=3):
        if loop.mul(loop.mul(a, b), c) != loop.mul(a, loop.mul(b, c)):
            return (a, b, c)
    return None


@pytest.fixture(scope="session")
def o16():
    return octonion.o16_loop()


@pytest.fixture(scope="session")
def loop_o16(o16):
    return models.loop_bialgebra(o16)


@pytest.fixture(scope="session")
def fn_o16(o16):
    return models.function_bialgebra(o16)


@pytest.fixture(scope="session")
def binomial6():
    return models.truncated_binomial_bialgebra(6)


# --- reference evaluator ------------------------------------------------------


def _reference_terms(state, kind, off, rows, model):
    """The terms of one slice, swaps included, as a swap-by-swap staircase
    evaluator makes them."""
    if kind == "mul":
        for key, coeff in state.items():
            for k, c in rows.get((key[off], key[off + 1]), ()):
                yield key[:off] + (k,) + key[off + 2:], coeff * c
    elif kind == "comul":
        for key, coeff in state.items():
            for (j, k), c in rows.get(key[off], ()):
                yield key[:off] + (j, k) + key[off + 1:], coeff * c
    elif kind == "unit":
        for key, coeff in state.items():
            for i, c in model.unit_entries:
                yield key[:off] + (i,) + key[off:], coeff * c
    elif kind == "counit":
        for key, coeff in state.items():
            c = model.counit_entries.get(key[off])
            if c:
                yield key[:off] + key[off + 1:], coeff * c
    elif kind == "swap":
        for key, coeff in state.items():
            yield key[:off] + (key[off + 1], key[off]) + key[off + 2:], coeff
    else:
        raise models.ModelError(f"cannot evaluate generator kind {kind!r}")


def reference_components(d, states, model, muls, comuls):
    """`models.evaluate_components` one slice at a time, each swap a full
    pass over the tensor and no comul contracted into a mul: the reference
    for the values of each output, which the evaluator must reproduce
    exactly."""
    order = len(states) - 1
    for kind, label, off in d.slices:
        out = [{} for _ in states]
        if kind in ("mul", "comul"):
            comps = muls if kind == "mul" else comuls
            first = 1 if label == "+" else 0
            last = min(0 if label == "0" else order, len(comps) - 1)
            pairs = [(a, b) for a in range(first, last + 1)
                     for b in range(order + 1 - a)]
        else:
            pairs = [(None, b) for b in range(order + 1)]
        for a, b in pairs:
            rows = None if a is None else comps[a]
            target = out[b if a is None else a + b]
            for key, value in _reference_terms(states[b], kind, off, rows,
                                               model):
                target[key] = target.get(key, 0) + value
        states = [{k: v for k, v in state.items() if v} for state in out]
    return states


# --- reference parser ---------------------------------------------------------


def piecewise_parse(text):
    """The parser that canonicalizes every sub-expression on its own,
    through `compose`, `tensor`, `generator` and `identity`: the reference
    for `dsl.parse`, which slices the port graph of the whole text once.
    It reads well-formed texts only."""
    tokens = [value for _kind, value, _pos in dsl._tokenize(text)]
    at = 0

    def take():
        nonlocal at
        at += 1
        return tokens[at - 1]

    def expr():
        d = term()
        while tokens[at] in (";", "∘"):
            op, rhs = take(), term()
            d = compose(d, rhs) if op == ";" else compose(rhs, d)
        return d

    def term():
        d = factor()
        while tokens[at] in ("*", "⊗"):
            take()
            d = tensor(d, factor())
        return d

    def factor():
        value = take()
        if value == "(":
            d = expr()
            take()
            return d
        name, _, label = value.partition("%")
        if name != "id":
            return generator(name, label or None)
        take()
        n = int(take())
        take()
        return identity(n)

    return expr()
