"""Exact finite-dimensional bialgebra models and the diagram evaluator.

Scalars are exact rationals, so every identity check is an exact
zero/nonzero decision.  Inside the evaluator every integral constant and
tensor coefficient is an ``int`` and any other a `fractions.Fraction`;
int/Fraction arithmetic is exact, so one kernel serves both.  Models and
deformations turn integral Fractions into ints when they are built, and
`evaluate` and `deformation.evaluate_series` do so for their input; what
the API hands back (their outputs and the differences of `basis_sweep`)
has Fraction values.  Tensors are sparse mappings from index tuples to
nonzero scalars.

A plain model is the order-0 truncated deformation of itself: its
``order`` is 0 and its ``base`` is the model.  So `basis_sweep` and
`holds_identity` take a model or a `deformation.TruncatedDeformation`
alike, evaluate both through `evaluate_components`, and keep each verdict
in the object's ``verdicts``.

Verdict sweeps are exhaustive by symmetry.  A basis permutation σ that
commutes with the product, coproduct, unit and counit commutes with every
diagram, so the difference of a law at σx is σ of its difference at x:
the inputs where a law fails form a union of orbits.  Loop and function
models carry generators of the loop's automorphism group, checked exactly
when the model is built, and `holds_identity` evaluates only each orbit's
least tuple, in `basis_iterator` order; its first failing input, and so
its witness and difference, are the full sweep's.  Orbits are not taken
on a model with a degree cap (the cap need not be invariant), on a
deformation with a positive-degree component that some generator does
not commute with, or where every input's value is wanted (the
coassociator, and any ``capped=False`` sweep).

Models built here:

* ``loop_bialgebra(L)``      -- basis = loop elements, x group-like; the
  product is the loop product.  Coassociative and cocommutative, satisfies
  the bialgebra-level Moufang laws, generally nonassociative.
* ``function_bialgebra(L)``  -- delta functionals on the loop with the
  pointwise product; the coproduct is dual to the loop product.  It is
  commutative and associative, satisfies the dual (co-)Moufang laws, and
  is coassociative iff the loop is associative.  Both take the loop's
  automorphisms as basis permutations.
* ``truncated_binomial_bialgebra(D)`` -- powers of one primitive element
  with the binomial coproduct, products truncated above degree D.  The
  truncation breaks the algebra-map law for the coproduct at the degree
  boundary, so identity sweeps on this model restrict inputs to a
  configurable total degree (D//2 by default); the waiver is recorded on
  the model.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Iterable, Optional, Sequence

from .diagram import ArityMismatch, Diagram
from .linalg import BilinearRows
from .reader import Many, at_least, read, settings
from .theories import base_rules, flag_rules, known_flag

# Integral scalars are ints inside the evaluator; the API returns Fractions.
Scalar = int | Fraction
State = dict[tuple[int, ...], Scalar]


def integral(c):
    """An integral Fraction as an ``int``; anything else unchanged."""
    return c.numerator if isinstance(c, Fraction) and c.denominator == 1 else c


def _integral_row(row):
    return tuple((at, integral(c)) for at, c in row)


def integral_rows(rows: dict) -> dict:
    """Sparse rows ``{key: ((target, c), ...)}`` with integral c as ints."""
    return {key: _integral_row(row) for key, row in rows.items()}


def integral_state(state: dict) -> dict:
    """The same tensor (or counit) with every integral value an int."""
    return {k: integral(v) for k, v in state.items()}


def as_fractions(state: State) -> State:
    """The same tensor with every coefficient a Fraction (the API's type)."""
    return {k: Fraction(v) for k, v in state.items()}


class ModelError(Exception):
    """Invalid model data or a failed registration check."""


# --- Moufang loops ------------------------------------------------------

# The three Moufang laws, each as its two sides in a product p, with the
# repeated variable's two occurrences a and b.  A loop satisfies them with
# a = b; `octonion.check_moufang` sweeps their polarization.
MOUFANG_LAWS = {
    "left": (lambda p, a, b, x, y: p(a, p(x, p(b, y))),     # a(x(ay))
             lambda p, a, b, x, y: p(p(p(a, x), b), y)),    # = ((ax)a)y
    "middle": (lambda p, a, b, x, y: p(p(a, x), p(y, b)),   # (ax)(ya)
               lambda p, a, b, x, y: p(p(a, p(x, y)), b)),  # = (a(xy))a
    "right": (lambda p, a, b, x, y: p(p(p(x, a), y), b),    # ((xa)y)a
              lambda p, a, b, x, y: p(x, p(a, p(y, b)))),   # = x(a(ya))
}


@dataclass(frozen=True)
class MoufangLoop:
    """A finite Moufang loop given by its Cayley table of element indices."""

    order: int
    table: tuple[tuple[int, ...], ...]
    identity: int
    labels: tuple[str, ...] = ()
    name: str = "loop"

    @classmethod
    def from_table(
        cls,
        table: Iterable[Iterable[int]],
        labels: Optional[Iterable[str]] = None,
        name: str = "loop",
    ) -> "MoufangLoop":
        tbl = tuple(tuple(row) for row in table)
        n = len(tbl)
        if any(len(row) != n for row in tbl):
            raise ModelError("Cayley table is not square")
        rng = range(n)
        if any(x not in rng for row in tbl for x in row):
            raise ModelError("Cayley table entry out of range")
        for i in rng:
            if len(set(tbl[i])) != n or len({tbl[j][i] for j in rng}) != n:
                raise ModelError(f"translations by element {i} are not bijective")
        units = [e for e in rng
                 if all(tbl[e][x] == x and tbl[x][e] == x for x in rng)]
        if not units:
            raise ModelError("no two-sided identity element")
        e = units[0]
        mul = lambda a, b: tbl[a][b]
        for a, x, y in itertools.product(rng, repeat=3):
            for law, (lhs, rhs) in MOUFANG_LAWS.items():
                if lhs(mul, a, a, x, y) != rhs(mul, a, a, x, y):
                    raise ModelError(f"{law} Moufang law fails at {(a, x, y)}")
        lbls = tuple(labels) if labels else tuple(str(i) for i in rng)
        if len(lbls) != n:
            raise ModelError("label count does not match loop order")
        return cls(n, tbl, e, lbls, name)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def _closure(self, gens: Sequence[int]) -> dict[int, Optional[tuple]]:
        """The subloop generated by ``gens``, each element with the product
        ``(a, b)`` that first reached it (None for the identity and the
        generators), in order of discovery.  A finite subset closed under
        the product is a subloop, since its translations are injective."""
        words = dict.fromkeys((self.identity, *gens))
        grown = True
        while grown:
            grown = False
            for a, b in itertools.product(list(words), repeat=2):
                c = self.table[a][b]
                if c not in words:
                    words[c], grown = (a, b), True
        return words

    def automorphism_generators(self) -> tuple[tuple[int, ...], ...]:
        """Generators of the loop's automorphism group, each the tuple of
        the elements' images; searched once per loop and cached on it."""
        cached = getattr(self, "_automorphisms", None)
        if cached is None:
            cached = self._search_automorphisms()
            object.__setattr__(self, "_automorphisms", cached)
        return cached

    def _search_automorphisms(self) -> tuple[tuple[int, ...], ...]:
        """`automorphism_generators`, searched.

        A greedy generating set fixes every automorphism through its images
        of the generators, extended by the products that built the loop
        from them; each candidate is checked against the whole Cayley
        table.  For each generator in turn, with the earlier ones fixed,
        one automorphism is kept per image (a transversal of the stabilizer
        chain; together they generate the group), and of these only the
        ones that enlarge the group generated so far.
        """
        n, table = self.order, self.table
        gens, words = [], self._closure(())
        for x in range(n):
            if x not in words:
                gens.append(x)
                words = self._closure(gens)
        steps = [(c, *ab) for c, ab in words.items() if ab is not None]

        def extend(images):
            phi = [self.identity] * n
            for g, image in zip(gens, images):
                phi[g] = image
            for c, a, b in steps:
                phi[c] = table[phi[a]][phi[b]]
            if len(set(phi)) == n and all(
                    phi[table[a][b]] == table[phi[a]][phi[b]]
                    for a, b in itertools.product(range(n), repeat=2)):
                return tuple(phi)
            return None

        transversal = []
        for level in range(len(gens)):
            for image in range(n):
                for rest in itertools.product(range(n),
                                              repeat=len(gens) - level - 1):
                    phi = extend((*gens[:level], image, *rest))
                    if phi is not None:
                        transversal.append(phi)
                        break
        kept, group = [], {tuple(range(n))}
        for phi in transversal:
            if phi not in group:
                kept.append(phi)
                group = permutation_closure(kept)
        return tuple(kept)


def permutation_closure(gens: Sequence[tuple[int, ...]]
                        ) -> set[tuple[int, ...]]:
    """The group that the permutations ``gens`` (at least one) generate: a
    finite closure under composition, from the identity."""
    group = {tuple(range(len(gens[0])))}
    frontier = list(group)
    while frontier:
        p = frontier.pop()
        for g in gens:
            q = tuple(map(g.__getitem__, p))
            if q not in group:
                group.add(q)
                frontier.append(q)
    return group


def cyclic_loop(n: int) -> MoufangLoop:
    """The cyclic group of order n viewed as a (Moufang) loop."""
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return MoufangLoop.from_table(table, name=f"cyclic{n}")


# --- models -------------------------------------------------------------

MulRows = BilinearRows
ComulRows = dict[int, tuple[tuple[tuple[int, int], Scalar], ...]]


@dataclass(frozen=True)
class FiniteBialgebraModel:
    """Structure constants of a finite bialgebra plus declared laws.

    ``satisfied_flags`` lists the extra identities this model claims; the
    claim is verified exactly at construction (`verify_registration`).
    ``check_cap`` restricts identity sweeps to basis inputs of bounded
    total degree; only the truncated binomial model uses it, recording the
    truncation-boundary waiver for the coproduct/product compatibility.
    ``verdicts`` holds the `Report` of each identity `holds_identity` has
    decided on this model object, keyed by its ``(lhs, rhs)``, and
    ``tables`` the evaluator's `FusedTables` for its coproduct and product;
    a new model object (a new registration) starts with none.  A model is
    the order-0 truncated deformation of itself: ``order`` is 0 and
    ``base`` is the model, so sweeps and verdicts treat both alike.
    ``automorphisms`` lists basis permutations (the image of each basis
    index) that commute with every structure map; each is checked exactly
    when the model is built, and ``orbits`` holds the orbits of the group
    they generate on basis tuples, built on first use (`Orbits`).
    """

    order = 0

    name: str
    dim: int
    mul_rows: MulRows
    comul_rows: ComulRows
    unit_entries: tuple[tuple[int, Fraction], ...]
    counit_entries: dict[int, Fraction]
    satisfied_flags: frozenset[str]
    basis_labels: tuple[str, ...] = ()
    degrees: Optional[tuple[int, ...]] = None
    check_cap: Optional[int] = None
    automorphisms: tuple[tuple[int, ...], ...] = field(
        default=(), compare=False, repr=False)
    verdicts: dict = field(default_factory=dict, init=False, compare=False,
                           repr=False)
    tables: "FusedTables" = field(init=False, compare=False, repr=False)
    orbits: "Orbits" = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        # integral constants become ints, the evaluator's cheap scalars
        object.__setattr__(self, "mul_rows", integral_rows(self.mul_rows))
        object.__setattr__(self, "comul_rows", integral_rows(self.comul_rows))
        object.__setattr__(self, "unit_entries",
                           _integral_row(self.unit_entries))
        object.__setattr__(self, "counit_entries",
                           integral_state(self.counit_entries))
        object.__setattr__(self, "tables", FusedTables((self.mul_rows,),
                                                       (self.comul_rows,)))
        for p in self.automorphisms:
            claim = f"model {self.name}: claimed automorphism {tuple(p)}"
            if sorted(p) != list(range(self.dim)):
                raise ModelError(f"{claim} does not permute the basis")
            broken = breaks_structure(p, (self.mul_rows,), (self.comul_rows,),
                                      self.unit_entries, self.counit_entries)
            if broken:
                raise ModelError(f"{claim} does not commute with the {broken}")
        object.__setattr__(self, "orbits",
                           Orbits(self.dim, self.automorphisms))

    @property
    def base(self) -> "FiniteBialgebraModel":
        return self

    def label(self, i: int) -> str:
        return self.basis_labels[i] if self.basis_labels else str(i)

    def basis_iterator(self, rank: int):
        """Basis index tuples for identity sweeps, honouring the cap."""
        for key in itertools.product(range(self.dim), repeat=rank):
            if self.check_cap is not None and self.degrees is not None:
                if sum(self.degrees[i] for i in key) > self.check_cap:
                    continue
            yield key


def breaks_structure(p: Sequence[int], muls: Sequence[MulRows],
                     comuls: Sequence[ComulRows], unit_entries=(),
                     counit_entries=None) -> Optional[str]:
    """The first structure map that the basis permutation ``p`` does not
    commute with ("product", "coproduct", "unit" or "counit"), or None.
    Each row is compared with the row at its permuted key as a multiset
    of terms, since permuting reorders a row's terms.  Checking the rows
    present suffices: ``p`` permutes the keys, so it then maps the nonempty
    rows onto the nonempty rows."""
    for rows in muls:
        for (i, j), row in rows.items():
            if (Counter((p[k], c) for k, c in row)
                    != Counter(rows.get((p[i], p[j]), ()))):
                return "product"
    for rows in comuls:
        for i, row in rows.items():
            if (Counter(((p[j], p[k]), c) for (j, k), c in row)
                    != Counter(rows.get(p[i], ()))):
                return "coproduct"
    if Counter((p[i], c) for i, c in unit_entries) != Counter(unit_entries):
        return "unit"
    if counit_entries and any(counit_entries.get(p[i], 0) != c
                              for i, c in counit_entries.items()):
        return "counit"
    return None


class Orbits(dict):
    """``rank -> {representative: orbit size}`` for the group that the
    basis permutations ``generators`` generate, acting on basis tuples of
    one rank, filled on first lookup.

    Union-find over the tuples' indices in `basis_iterator` order, each
    class rooted at its least index, joins every tuple with its image
    under every generator.  So each representative is its orbit's least
    tuple, and the representatives come in `basis_iterator` order.
    """

    def __init__(self, dim: int, generators) -> None:
        super().__init__()
        self.dim, self.generators = dim, generators

    def __missing__(self, rank: int) -> dict[tuple[int, ...], int]:
        dim = self.dim
        place = [dim ** (rank - 1 - pos) for pos in range(rank)]
        parent = list(range(dim ** rank))

        def root(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for p in self.generators:
            image = [0]  # the index of each tuple's image, in index order
            for _ in range(rank):
                image = [y * dim + p[i] for y in image for i in range(dim)]
            for x, y in enumerate(image):
                a, b = root(x), root(y)
                if a != b:
                    parent[max(a, b)] = min(a, b)
        sizes: dict[int, int] = {}
        for x in range(dim ** rank):
            r = root(x)
            sizes[r] = sizes.get(r, 0) + 1
        self[rank] = orbits = {
            tuple(r // w % dim for w in place): n for r, n in sizes.items()}
        return orbits


def sweep_inputs(obj, rank: int):
    """``(input, basis tuples it stands for)`` pairs that a verdict sweep of
    a rank-``rank`` identity on ``obj`` (a model or truncated deformation)
    visits: one representative per orbit of ``obj.automorphisms`` with its
    orbit's size when there are any and the base model has no cap, and
    otherwise every capped basis input, standing for itself."""
    model = obj.base
    if obj.automorphisms and model.check_cap is None:
        return iter(model.orbits[rank].items())
    return ((key, 1) for key in model.basis_iterator(rank))


def basis_state(indices: Iterable[int]) -> State:
    return {tuple(indices): 1}


def _clean(state: State) -> State:
    return {k: v for k, v in state.items() if v}


def _accumulate(target: State, terms) -> None:
    for key, value in terms:
        acc = target.get(key)
        target[key] = value if acc is None else acc + value


def _slice_terms(state: State, kind: str, off: int, perm, rows,
                 model: FiniteBialgebraModel):
    """The (key, value) terms one slice makes from one sparse tensor whose
    keys are first read through the wire permutation ``perm`` (or not, if
    None)."""
    if kind == "mul":
        for key, coeff in state.items():
            if perm is not None:
                key = perm(key)
            for k, c in rows.get((key[off], key[off + 1]), ()):
                yield key[:off] + (k,) + key[off + 2:], coeff * c
    elif kind == "comul":
        for key, coeff in state.items():
            if perm is not None:
                key = perm(key)
            for (j, k), c in rows.get(key[off], ()):
                yield key[:off] + (j, k) + key[off + 1:], coeff * c
    elif kind == "unit":
        for key, coeff in state.items():
            if perm is not None:
                key = perm(key)
            for i, c in model.unit_entries:
                yield key[:off] + (i,) + key[off:], coeff * c
    elif kind == "counit":
        ce = model.counit_entries
        for key, coeff in state.items():
            if perm is not None:
                key = perm(key)
            c = ce.get(key[off])
            if c:
                yield key[:off] + key[off + 1:], coeff * c
    else:
        raise ModelError(f"cannot evaluate generator kind {kind!r}")


class _FusedTable(dict):
    """``(x, y) -> (((j, k, m), c1·c2), ...)`` for one coproduct and one
    product component and one fused-step shape, filled on first lookup:
    each term (j, k), c1 of coproduct row x, in row order, with each term
    m, c2 of the product of its ``side_c`` output and y (y on the left if
    ``side_m``), in row order.  A zero c1 makes no entry."""

    def __init__(self, comul: ComulRows, mul: MulRows, shape) -> None:
        super().__init__()
        self.comul, self.mul, self.shape = comul, mul, shape

    def __missing__(self, xy):
        x, y = xy
        side_c, side_m = self.shape
        entries = []
        for jk, c1 in self.comul.get(x, ()):
            if c1:
                o = jk[side_c]
                for m, c2 in self.mul.get((y, o) if side_m else (o, y), ()):
                    entries.append((jk + (m,), integral(c1 * c2)))
        self[xy] = entries = tuple(entries)
        return entries


class FusedTables(dict):
    """The fused-step tables of one model's or deformation's product and
    coproduct components, keyed by ``(coproduct component, product
    component, shape)`` and built on first use."""

    def __init__(self, muls: Sequence[MulRows],
                 comuls: Sequence[ComulRows]) -> None:
        super().__init__()
        self.muls, self.comuls = muls, comuls

    def __missing__(self, key):
        a1, a2, shape = key
        self[key] = table = _FusedTable(self.comuls[a1], self.muls[a2], shape)
        return table


def _fused_terms(state: State, x_at: int, y_at: int, out_key, table):
    """The terms of a fused comul-then-mul step on one sparse tensor."""
    for key, coeff in state.items():
        for jkm, c in table[key[x_at], key[y_at]]:
            yield out_key(key + jkm), coeff * c


def _components(comps, label: Optional[str], order: int) -> list[int]:
    """The component indices a slice with this label convolves ("0" keeps
    the constant one, "+" the positive ones), less the empty positive ones,
    which make no term.  Unit and counit have the one component ``(None,)``."""
    first = 1 if label == "+" else 0
    last = min(0 if label == "0" else order, len(comps) - 1)
    return [a for a in range(first, last + 1) if a == 0 or comps[a]]


def evaluate_components(d: Diagram, states: list[State],
                        model: FiniteBialgebraModel,
                        tables: FusedTables) -> list[State]:
    """Apply a diagram to sparse tensors indexed by h-degree, slice by slice.

    For a model or truncated deformation ``obj`` the call is
    ``evaluate_components(d, states, obj.base, obj.tables)``.  ``tables``
    is the one source of the structure maps: ``tables.muls`` and
    ``tables.comuls`` list the degree components of the product and
    coproduct, and the fused steps read the same components through it.  A
    plain model is the order-0 case ``(mul_rows,)``, ``(comul_rows,)``.
    Each step convolves degrees modulo h^len(states) (label "0" keeps the
    constant component, "+" the positive ones); unit and counit, from the
    base ``model``, are the one undeformed component ``(None,)``.
    `Diagram.program` gives the steps.  Swaps never copy a tensor: each
    run of them is folded into a permutation that the next step reads its
    keys through.  A comul step whose next step, a mul, reads exactly one
    of its outputs is contracted into that mul, through one table entry per
    pair of coproduct and product terms, so the intermediate tensor is
    never built.  Both give the values of a slice-by-slice evaluation, by
    linearity; the key order of an output is not part of the result.
    Empty positive-degree components are skipped; they make no term.
    """
    muls, comuls = tables.muls, tables.comuls
    steps, tail = d.program
    if d.slices and d.slices[0][0] == "swap":
        # as a swap slice did; a swap-only diagram has no step to clean
        states = [_clean(state) for state in states]
    order = len(states) - 1
    for kind, label, off, perm in steps:
        out: list[State] = [{} for _ in states]
        if kind == "fused":
            x_at, y_at, shape = off
            mul_comps = _components(muls, label[1], order)
            comul_comps = _components(comuls, label[0], order)
            for a2 in mul_comps:
                for b2 in range(order + 1 - a2):
                    for a1 in comul_comps:
                        if a1 > b2:
                            break
                        _accumulate(out[a2 + b2],
                                    _fused_terms(states[b2 - a1], x_at, y_at,
                                                 perm, tables[a1, a2, shape]))
        else:
            comps = (muls if kind == "mul" else comuls if kind == "comul"
                     else (None,))
            for a in _components(comps, label, order):
                for b in range(order + 1 - a):
                    _accumulate(out[a + b],
                                _slice_terms(states[b], kind, off, perm,
                                             comps[a], model))
        states = [_clean(state) for state in out]
    if tail is not None:
        states = [{tail(key): v for key, v in state.items()}
                  for state in states]
    return states


def refuse_labels(d: Diagram) -> None:
    for kind, label, _off in d.slices:
        if label is not None:
            raise ModelError(
                f"labelled generator {kind}%{label} has no meaning in a plain "
                "model; evaluate it against a truncated deformation instead"
            )


def evaluate(d: Diagram, model: FiniteBialgebraModel, state: State) -> State:
    """Interpret a diagram as a multilinear map and apply it to `state`."""
    for key in state:
        if len(key) != d.n_in:
            raise ArityMismatch(
                f"input tensor rank {len(key)} != diagram inputs {d.n_in}"
            )
        if any(i < 0 or i >= model.dim for i in key):
            raise ModelError("input index out of range for model dimension")
    refuse_labels(d)
    return as_fractions(evaluate_components(
        d, [integral_state(state)], model, model.tables)[0])


def add_state(a: State, b: State) -> State:
    """a + b, keeping a's key order and appending b's new keys."""
    total = dict(a)
    _accumulate(total, b.items())
    return _clean(total)


def subtract_state(a: State, b: State) -> State:
    """a - b, keeping a's key order and appending b's new keys."""
    return add_state(a, {k: -v for k, v in b.items()})


def _sweep_inputs(lhs: Diagram, rhs: Diagram, obj, capped: bool):
    """The ``(input, basis tuples it stands for)`` pairs of a sweep of
    lhs = rhs on ``obj`` (`sweep_inputs`, or with ``capped=False`` every
    basis tuple), once the sides' arities and, on a plain model, their
    labels have been checked."""
    if (lhs.n_in, lhs.n_out) != (rhs.n_in, rhs.n_out):
        raise ArityMismatch(
            f"identity sides have different arities: "
            f"{lhs.n_in}->{lhs.n_out} vs {rhs.n_in}->{rhs.n_out}"
        )
    model = obj.base
    if obj is model:
        refuse_labels(lhs)
        refuse_labels(rhs)
    if capped:
        return sweep_inputs(obj, lhs.n_in)
    return ((key, 1) for key in itertools.product(range(model.dim),
                                                  repeat=lhs.n_in))


def basis_sweep(lhs: Diagram, rhs: Diagram, obj, capped: bool = True):
    """Yield ``(input, covered, differences)`` for each swept basis input,
    exactly.

    ``obj`` is a `FiniteBialgebraModel` (the order-0 case) or a
    `deformation.TruncatedDeformation`; each side is evaluated with its
    structure maps on one basis state shared by both sides, padded to
    ``obj.order + 1`` h-degrees, and ``differences`` lists lhs - rhs at
    each degree, with Fraction values.  Labelled generators are refused on
    a plain model only.  Inputs come from `sweep_inputs`, one per orbit of
    the verified automorphisms where it takes orbits, and ``covered`` is
    the number of basis tuples the input stands for.  With
    ``capped=False`` every basis tuple is swept, regardless of the base
    model's degree cap or symmetry, each covering itself.  A cap that
    leaves no input is refused, since the sweep would check nothing.

    An orbit sweep is exhaustive: an automorphism σ commutes with every
    diagram, so the difference at σx is σ of the difference at x, and the
    inputs where a law fails form a union of orbits.  Since each
    representative is its orbit's least tuple, visited in `basis_iterator`
    order, the first failing representative is the first failing tuple of
    the full sweep.
    """
    model, checked = obj.base, False
    for key, covered in _sweep_inputs(lhs, rhs, obj, capped):
        checked = True
        state = basis_state(key)
        sides = [evaluate_components(d, [state] + [{}] * obj.order, model,
                                     obj.tables) for d in (lhs, rhs)]
        yield key, covered, [as_fractions(subtract_state(a, b))
                             for a, b in zip(*sides)]
    if not checked:
        raise _vacuous_cap(model, lhs.n_in)


def _vacuous_cap(model: FiniteBialgebraModel, rank: int) -> ModelError:
    return ModelError(f"model {model.name}: cap {model.check_cap} leaves "
                      f"no rank-{rank} basis input to check")


@dataclass(frozen=True)
class Report:
    """The verdict of an exhaustive law check.

    A failure names the first basis input (``witness``) whose difference
    ``diff`` is nonzero; ``degree`` is its h-degree for a check on a
    truncated deformation and None for one on a plain model.  ``swept``
    counts the inputs the sweep evaluated and ``covered`` the basis tuples
    they stand for (`basis_sweep`); both are deterministic, and they are
    not part of the verdict, so equality ignores them.
    """

    holds: bool
    degree: Optional[int] = None
    witness: Optional[tuple[int, ...]] = None
    diff: Optional[State] = None
    swept: int = field(default=0, compare=False)
    covered: int = field(default=0, compare=False)

    def describe(self, model: FiniteBialgebraModel) -> str:
        if self.holds:
            return "holds"
        labels = tuple(model.label(i) for i in self.witness)
        diff = dict(sorted(self.diff.items()))
        if self.degree is None:
            return (f"fails on basis input ({', '.join(labels)}); "
                    f"difference {diff}")
        return (f"fails at h-degree {self.degree} on basis input {labels}; "
                f"difference {diff}")


def first_failure(sweep, series: bool = True) -> Report:
    """The `Report` of a sweep of ``(input, covered, differences per
    h-degree)``: its first nonzero difference, lowest degree first within
    an input, with the inputs swept and the tuples covered up to it;
    ``series=False`` reports a plain check, with no degree."""
    swept = covered = 0
    for key, n_covered, diffs in sweep:
        swept, covered = swept + 1, covered + n_covered
        for n, diff in enumerate(diffs):
            if diff:
                return Report(False, n if series else None, key, diff,
                              swept, covered)
    return Report(True, swept=swept, covered=covered)


def holds_identity(lhs: Diagram, rhs: Diagram, obj) -> Report:
    """Exhaustive exact check of lhs = rhs on all (capped) basis inputs of
    a model, or of a truncated deformation modulo h^(order+1).

    Each identity is decided once per model or deformation object: the
    verdict is kept in ``obj.verdicts``.  The pair with its sides swapped
    reuses a holding verdict only; a failure is swept again, so that its
    witness and the sign of its difference are those of this orientation.
    Identical sides hold without a sweep (so with zero counts), once the
    labels, the arities and the cap have been checked as a sweep checks
    them.  A repeated check hands back the same `Report`, so its ``diff``
    is read-only and its counts are those of the first sweep.
    """
    known = obj.verdicts.get((lhs, rhs))
    if known is None:
        swapped = obj.verdicts.get((rhs, lhs))
        if swapped is not None and swapped.holds:
            known = swapped
        elif lhs == rhs:
            if next(_sweep_inputs(lhs, rhs, obj, True), None) is None:
                raise _vacuous_cap(obj.base, lhs.n_in)
            known = Report(True)
        else:
            known = first_failure(basis_sweep(lhs, rhs, obj),
                                  series=obj is not obj.base)
        obj.verdicts[(lhs, rhs)] = known
    return known


def verify_registration(model: FiniteBialgebraModel) -> None:
    """Check every law the model declares, exactly, on all capped inputs.

    The base bialgebra laws (unit, counit, compatibility of the coproduct
    and counit with the product and unit) are always checked; each entry of
    ``satisfied_flags`` adds its own rule.
    """
    laws = itertools.chain(
        (("base", rule) for rule in base_rules()),
        (("declared", rule) for flag in sorted(model.satisfied_flags)
         for rule in flag_rules(flag)))
    for kind, rule in laws:
        report = holds_identity(rule.lhs, rule.rhs, model)
        if not report.holds:
            raise ModelError(f"model {model.name}: {kind} law {rule.name} "
                             + report.describe(model))


def loop_bialgebra(loop: MoufangLoop) -> FiniteBialgebraModel:
    """Loop algebra with group-like coproduct on every loop element; the
    loop's automorphisms permute the basis."""
    model = FiniteBialgebraModel(
        name=f"loop[{loop.name}]",
        dim=loop.order,
        mul_rows={(i, j): ((loop.mul(i, j), 1),)
                  for i in range(loop.order) for j in range(loop.order)},
        comul_rows={i: (((i, i), 1),) for i in range(loop.order)},
        unit_entries=((loop.identity, 1),),
        counit_entries={i: 1 for i in range(loop.order)},
        satisfied_flags=frozenset(
            {"coassoc", "cocomm", "moufang_l", "moufang_m", "moufang_r"}
        ),
        basis_labels=loop.labels,
        automorphisms=loop.automorphism_generators(),
    )
    verify_registration(model)
    return model


def function_bialgebra(loop: MoufangLoop) -> FiniteBialgebraModel:
    """Functions on the loop: pointwise product, coproduct dual to the
    loop.  The loop's automorphisms permute the delta functionals."""
    splits: dict[int, list[tuple[tuple[int, int], int]]] = {
        i: [] for i in range(loop.order)
    }
    for y in range(loop.order):
        for z in range(loop.order):
            splits[loop.mul(y, z)].append(((y, z), 1))
    model = FiniteBialgebraModel(
        name=f"fn[{loop.name}]",
        dim=loop.order,
        mul_rows={(i, i): ((i, 1),) for i in range(loop.order)},
        comul_rows={i: tuple(pairs) for i, pairs in splits.items()},
        unit_entries=tuple((i, 1) for i in range(loop.order)),
        counit_entries={loop.identity: 1},
        satisfied_flags=frozenset({"assoc", "comm", "comoufang_l", "comoufang_r"}),
        basis_labels=tuple("d" + l for l in loop.labels),
        automorphisms=loop.automorphism_generators(),
    )
    verify_registration(model)
    return model


def truncated_binomial_bialgebra(max_degree: int) -> FiniteBialgebraModel:
    """Powers of one primitive element with the binomial coproduct.

    Products above `max_degree` truncate to zero, which is exactly the
    recorded compatibility waiver; sweeps cap total input degree at
    max_degree // 2 so that every checked identity is truncation-free.
    """
    if max_degree < 1:
        raise ModelError("max degree must be at least 1")
    dim = max_degree + 1
    mul_rows = {
        (i, j): ((i + j, 1),)
        for i in range(dim) for j in range(dim) if i + j <= max_degree
    }
    comul_rows = {
        n: tuple(((i, n - i), comb(n, i)) for i in range(n + 1))
        for n in range(dim)
    }
    model = FiniteBialgebraModel(
        name=f"binomial[{max_degree}]",
        dim=dim,
        mul_rows=mul_rows,
        comul_rows=comul_rows,
        unit_entries=((0, 1),),
        counit_entries={0: 1},
        satisfied_flags=frozenset(
            {"assoc", "comm", "coassoc", "cocomm", "comoufang_l", "comoufang_r"}
        ),
        basis_labels=tuple(
            "1" if n == 0 else ("a" if n == 1 else f"a^{n}") for n in range(dim)
        ),
        degrees=tuple(range(dim)),
        check_cap=max_degree // 2,
    )
    verify_registration(model)
    return model


# --- model file format --------------------------------------------------


def save_model_text(model: FiniteBialgebraModel) -> str:
    lines = [f"model {model.name}", f"dim {model.dim}"]
    if model.satisfied_flags:
        lines.append("flags " + " ".join(sorted(model.satisfied_flags)))
    if model.basis_labels:
        lines.append("basis " + " ".join(model.basis_labels))
    if model.degrees is not None:
        lines.append("degree " + " ".join(str(d) for d in model.degrees))
    if model.check_cap is not None:
        lines.append(f"cap {model.check_cap}")
    for (i, j) in sorted(model.mul_rows):
        for k, c in model.mul_rows[(i, j)]:
            lines.append(f"mul {i} {j} {k} {c}")
    for i in sorted(model.comul_rows):
        for (j, k), c in model.comul_rows[i]:
            lines.append(f"comul {i} {j} {k} {c}")
    for i, c in model.unit_entries:
        lines.append(f"unit {i} {c}")
    for i in sorted(model.counit_entries):
        lines.append(f"counit {i} {model.counit_entries[i]}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def load_model_text(text: str) -> FiniteBialgebraModel:
    entry = (int, int, int, Fraction)
    records = read(text, {
        "model": (str,), "dim": (at_least(1),), "flags": (Many(known_flag),),
        "basis": (Many(),), "degree": (Many(at_least(0)),),
        "cap": (at_least(0),),
        "kind": (str,), "mul": entry, "comul": entry, "unit": (int, Fraction),
        "counit": (int, Fraction), "end": ()}, ModelError)
    given = settings(records)
    if "dim" not in given:
        raise ModelError("model file lacks a dim line")
    dim = given["dim"]
    mul_rows, comul_rows, unit_entries, counit_entries = {}, {}, [], {}
    for r in records:
        if r.head == "kind":
            raise r.fail(f"a kind {r.values[0]} file is not a bialgebra")
        if r.head in ("basis", "degree") and len(r.values[0]) != dim:
            raise r.fail(f"{r.head} lists {len(r.values[0])} entries for "
                         f"dimension {dim}")
        if r.head == "cap" and "degree" not in given:
            raise r.fail("cap needs a degree line")
        if r.head not in ("mul", "comul", "unit", "counit"):
            continue
        *at, c = r.values
        if not all(0 <= i < dim for i in at):
            raise r.fail(f"{r.head} index outside dimension {dim}")
        if r.head == "mul":
            mul_rows.setdefault((at[0], at[1]), []).append((at[2], c))
        elif r.head == "comul":
            comul_rows.setdefault(at[0], []).append(((at[1], at[2]), c))
        elif r.head == "unit":
            unit_entries.append((at[0], c))
        else:
            counit_entries[at[0]] = c
    model = FiniteBialgebraModel(
        given.get("model", "model"), dim,
        {k: tuple(v) for k, v in mul_rows.items()},
        {k: tuple(v) for k, v in comul_rows.items()}, tuple(unit_entries),
        counit_entries, frozenset(given.get("flags", ())),
        given.get("basis", ()), given.get("degree"), given.get("cap"))
    verify_registration(model)
    return model
