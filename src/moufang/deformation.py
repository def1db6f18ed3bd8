"""Order-truncated deformations of finite bialgebra models, and the exact
linear algebra behind the coassociativity and cocommutativity arguments.

A truncated deformation carries per-degree components of the coproduct and
product, modelling a formal one-parameter family modulo h^(order+1); the
unit and counit stay undeformed.  All congruences "modulo h^n" become
exact statements about degree-windowed convolutions of the components.

The module also provides the spectral pieces those arguments rest on: the
loop operator p∘Δ and its 2^n spectrum on the binomial model; the exact
kernel of T = Q⊗Q⊗I - Q⊗I⊗I - I⊗Q⊗I, read off Q's eigenspaces (Q must be
diagonalizable with that spectrum, and then T is diagonal on tensor
products of eigenvectors, so nothing is eliminated on the d³ triple
space); wedge/primitive membership projectors; the kernel map R+S
annihilating the coassociator of any two-sided co-Moufang deformation; and
the Casimir and first-cohomology computations for the Lie-algebra case.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import factorial
from typing import Optional, Sequence

from . import linalg
from .diagram import Diagram
from .dsl import parse
from .linalg import BilinearRows, Matrix, Vector, basis_vector
from .models import (
    ComulRows,
    FiniteBialgebraModel,
    FusedTables,
    MulRows,
    Report,
    State,
    _accumulate,
    _clean,
    add_state,
    as_fractions,
    basis_state,
    basis_sweep,
    breaks_structure,
    evaluate,
    evaluate_components,
    first_failure,
    holds_identity,
    integral_rows,
    integral_state,
    subtract_state,
    truncated_binomial_bialgebra,
)
from .octonion import BracketAlgebra, jacobi_witness
from .reader import at_least, read, settings
from .theories import base_rules, flag_rules


class DeformationError(Exception):
    """Invalid deformation data or a failed registration/precondition."""


# --- truncated series of linear maps --------------------------------------


@dataclass(frozen=True)
class TruncatedSeriesMap:
    """Components [f_0, ..., f_N] of a map series between fixed spaces."""

    components: tuple[Matrix, ...]

    def __post_init__(self) -> None:
        if not self.components:
            raise DeformationError("a series map needs at least one component")
        shape = (len(self.components[0]), len(self.components[0][0]))
        for c in self.components:
            if (len(c), len(c[0])) != shape:
                raise DeformationError("series components differ in shape")

    @property
    def order(self) -> int:
        return len(self.components) - 1

    def at(self, n: int) -> Matrix:
        return self.components[n]


def _apply_series_slot(phi: TruncatedSeriesMap, states: list[State],
                       slot: int) -> list[State]:
    """phi_h = sum h^a phi_a on one slot of tensors indexed by h-degree,
    modulo h^len(states)."""
    out: list[State] = [{} for _ in states]
    for a, m in enumerate(phi.components[:len(states)]):
        for b in range(len(states) - a):
            _accumulate(out[a + b], (
                (key[:slot] + (r,) + key[slot + 1:], coeff * row[key[slot]])
                for key, coeff in states[b].items()
                for r, row in enumerate(m) if row[key[slot]]
            ))
    return [_clean(state) for state in out]


@dataclass(frozen=True)
class GradedSpace:
    """A basis-aligned grading: degree of each basis vector."""

    dimension: int
    degrees: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.degrees) != self.dimension:
            raise DeformationError("grading does not cover the whole basis")
        if any(d < 0 for d in self.degrees):
            raise DeformationError("degrees must be nonnegative")


# --- truncated deformations ------------------------------------------------


@dataclass(frozen=True)
class TruncatedDeformation:
    """A bialgebra family modulo h^(order+1) over a finite base model.

    Component 0 of each series equals the base structure map; unit and
    counit are those of the base.  Construction verifies the counit/unit
    laws of the full truncated series and bialgebra compatibility modulo
    h^(order+1) unless `strict` was disabled (negative-control fixtures).
    ``verdicts`` keeps the `Report` of each law `models.holds_identity` has
    decided on this object, keyed by its ``(lhs, rhs)``, ``tables`` the
    evaluator's `FusedTables` for its series maps, and ``coassociators``
    the sweep that `coassociator` and `kernel_map_RS` read, made once.
    ``automorphisms`` are the base model's when every positive-degree
    component is checked to commute with each of them (the null
    deformation's, being empty, always do), and none otherwise; verdict
    sweeps take orbits of them only (`models.sweep_inputs`).
    """

    base: FiniteBialgebraModel
    comul_components: tuple[ComulRows, ...]
    mul_components: tuple[MulRows, ...]
    order: int
    name: str = "deformation"
    verdicts: dict = field(default_factory=dict, init=False, compare=False,
                           repr=False)
    tables: FusedTables = field(init=False, compare=False, repr=False)
    automorphisms: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.order < 0:
            raise DeformationError(
                f"order must be nonnegative, got {self.order}")
        if len(self.comul_components) != self.order + 1:
            raise DeformationError("coproduct components do not match order")
        if len(self.mul_components) != self.order + 1:
            raise DeformationError("product components do not match order")
        if self.comul_components[0] != self.base.comul_rows:
            raise DeformationError(
                "degree-0 coproduct differs from the base model"
            )
        if self.mul_components[0] != self.base.mul_rows:
            raise DeformationError("degree-0 product differs from the base model")
        # integral constants become ints, as in the base model
        object.__setattr__(self, "comul_components", tuple(
            integral_rows(rows) for rows in self.comul_components))
        object.__setattr__(self, "mul_components", tuple(
            integral_rows(rows) for rows in self.mul_components))
        object.__setattr__(self, "tables", FusedTables(
            self.mul_components, self.comul_components))
        autos = self.base.automorphisms
        if any(breaks_structure(p, self.mul_components[1:],
                                self.comul_components[1:]) for p in autos):
            autos = ()
        object.__setattr__(self, "automorphisms", autos)

    @cached_property
    def coassociators(self) -> list:
        return list(_coassociator_sweep(self))


def evaluate_series(d: Diagram, deformation: TruncatedDeformation,
                    states: list[State] | State,
                    order: Optional[int] = None) -> list[State]:
    """Evaluate a diagram with series structure maps, degree by degree.

    `states` is either a single tensor (placed at degree 0) or a list of
    tensors indexed by h-degree; the result lists the output tensor of each
    degree up to `order` (the deformation's order by default).
    """
    if order is None:
        order = deformation.order
    if isinstance(states, dict):
        states = [states] + [{} for _ in range(order)]
    if len(states) != order + 1:
        raise DeformationError("degree-indexed input has the wrong length")
    dim = deformation.base.dim
    for state in states:
        for key in state:
            if len(key) != d.n_in:
                raise DeformationError(
                    f"input tensor rank {len(key)} != diagram inputs {d.n_in}"
                )
            if any(i < 0 or i >= dim for i in key):
                raise DeformationError("input index out of range for the base")
    return [as_fractions(state) for state in evaluate_components(
        d, [integral_state(s) for s in states], deformation.base,
        deformation.tables)]


_MUL = parse("mul")
_COMUL = parse("comul")

# The base rules that registration checks, by rule name, with the name its
# messages give them; only compatibility is swept on capped inputs.
_REGISTRATION_LAWS = {"counit-l": "counit law", "counit-r": "counit law",
                      "unit-l": "left unit law", "unit-r": "right unit law",
                      "bialg": "compatibility"}


def verify_deformation(deformation: TruncatedDeformation) -> None:
    """Registration: counit/unit laws exactly, compatibility per degree."""
    model = deformation.base
    for rule in base_rules():
        law = _REGISTRATION_LAWS.get(rule.name)
        if law is None:
            continue
        report = first_failure(basis_sweep(
            rule.lhs, rule.rhs, deformation, capped=rule.name == "bialg"))
        if not report.holds:
            key = report.witness
            where = (f"basis {model.label(key[0])}" if len(key) == 1 else
                     f"basis pair {tuple(model.label(i) for i in key)}")
            raise DeformationError(f"{deformation.name}: {law} fails at "
                                   f"degree {report.degree} on {where}")


def null_deformation(model: FiniteBialgebraModel, order: int
                     ) -> TruncatedDeformation:
    """The base structure maps extended by zero higher components."""
    return deformation_from_maps(model, order, ({},) * order, ({},) * order,
                                 name=f"null[{model.name}]")


def deformation_from_maps(model: FiniteBialgebraModel, order: int,
                          comul_maps: Sequence[ComulRows],
                          mul_maps: Sequence[MulRows],
                          name: str, strict: bool = True
                          ) -> TruncatedDeformation:
    deformation = TruncatedDeformation(
        base=model,
        comul_components=(model.comul_rows,) + tuple(comul_maps),
        mul_components=(model.mul_rows,) + tuple(mul_maps),
        order=order,
        name=name,
    )
    if strict:
        verify_deformation(deformation)
    return deformation


# --- the coassociator -------------------------------------------------------


def coassociator(deformation: TruncatedDeformation, n: int
                 ) -> dict[int, State]:
    """Degree-n component of the coassociator, per basis input.

    Computed by convolving the coproduct components of total degree n in
    the two nestings and subtracting.  Every degree is read off the one
    sweep kept on the deformation; each call gets its own state dicts.
    """
    if n > deformation.order:
        raise DeformationError(
            f"component {n} exceeds the deformation order {deformation.order}"
        )
    return {i: dict(diffs[n])
            for (i,), _covered, diffs in deformation.coassociators}


def _coassociator_sweep(deformation: TruncatedDeformation):
    """``(input, 1, coassociator per h-degree)`` for every basis element."""
    rule, = flag_rules("coassoc")
    return basis_sweep(rule.lhs, rule.rhs, deformation, capped=False)


# --- co-Moufang and Moufang checks modulo h^(N+1) ---------------------------


def _check_law_mod(deformation: TruncatedDeformation, law: str,
                   sides: tuple[str, ...], side: str) -> Report:
    """One side of a law family ("Moufang" or "co-Moufang") modulo
    h^(N+1), decided by `models.holds_identity` once per deformation."""
    if side not in sides:
        raise DeformationError(f"unknown {law} side {side!r}")
    rule = flag_rules(f"{law.replace('-', '').lower()}_{side[0]}")[0]
    return holds_identity(rule.lhs, rule.rhs, deformation)


def check_comoufang_mod(deformation: TruncatedDeformation, side: str
                        ) -> Report:
    """Does the deformation satisfy a co-Moufang law modulo h^(N+1)?"""
    return _check_law_mod(deformation, "co-Moufang", ("left", "right"), side)


def check_moufang_mod(deformation: TruncatedDeformation, side: str) -> Report:
    """Bialgebra-level Moufang law for the deformed product, modulo h^(N+1)."""
    return _check_law_mod(deformation, "Moufang", ("left", "middle", "right"),
                          side)


def _require_left_and_right(deformation: TruncatedDeformation, check,
                            refusal: str) -> None:
    """Raise unless ``check(deformation, side)`` holds on both sides;
    ``refusal`` is formatted with the deformation's name and the side."""
    for side in ("left", "right"):
        report = check(deformation, side)
        if not report.holds:
            raise DeformationError(refusal.format(deformation.name, side)
                                   + report.describe(deformation.base))


# --- Q operator and the kernel of T ----------------------------------------


def q_operator(model: FiniteBialgebraModel) -> Matrix:
    """Exact matrix of p∘Δ (columns indexed by basis elements)."""
    q_diag, dim = parse("comul ; mul"), model.dim
    cols = [evaluate(q_diag, model, basis_state((j,))) for j in range(dim)]
    return [[col.get((i,), Fraction(0)) for col in cols] for i in range(dim)]


def check_diagonalizable(q: Matrix, graded: GradedSpace) -> dict[int, list[Vector]]:
    """Eigenspace decomposition of Q with eigenvalues 2^degree.

    Returns {degree: eigenspace basis}; raises when the eigenspaces do not
    fill the space (Q not diagonalizable with the graded spectrum).
    """
    dim = graded.dimension
    if len(q) != dim:
        raise DeformationError("operator and grading dimensions differ")
    spaces: dict[int, list[Vector]] = {}
    total = 0
    for degree in sorted(set(graded.degrees)):
        lam = Fraction(2 ** degree)
        shifted = [[q[i][j] - (lam if i == j else 0) for j in range(dim)]
                   for i in range(dim)]
        basis = linalg.nullspace(shifted)
        if basis:
            spaces[degree] = basis
            total += len(basis)
    if total != dim:
        raise DeformationError(
            "operator is not diagonalizable with the graded 2^n spectrum "
            f"(eigenspaces fill {total} of {dim} dimensions)"
        )
    return spaces


def eigen_kernel_T(q: Matrix, graded: GradedSpace) -> list[Vector]:
    """Exact basis of ker T, T = Q⊗Q⊗I - Q⊗I⊗I - I⊗Q⊗I, from Q's eigenspaces.

    Q must be diagonalizable with the 2^degree spectrum of the graded space;
    `check_diagonalizable` refuses it otherwise.  On v⊗w⊗e_k, with Qv = λv
    and Qw = μw, T acts as λμ - λ - μ, and these vectors form a basis of the
    triple space.  So ker T is spanned by the v⊗w⊗e_k whose eigenvalues
    satisfy λμ = λ + μ.  Vectors are dense over the triple space, index
    (i, j, k) at (i*d + j)*d + k.
    """
    spaces = check_diagonalizable(q, graded)
    d = len(q)
    kernel = []
    for p, r in itertools.product(spaces, repeat=2):
        lam, mu = 2 ** p, 2 ** r  # exact: degrees are nonnegative ints
        if lam * mu != lam + mu:
            continue
        for v, w in itertools.product(spaces[p], spaces[r]):
            vw = [(i * d + j, vi * wj) for i, vi in enumerate(v) if vi
                  for j, wj in enumerate(w) if wj]
            for k in range(d):
                vec = [Fraction(0)] * d ** 3
                for ij, c in vw:
                    vec[ij * d + k] = c
                kernel.append(vec)
    return kernel


# --- wedge and primitive membership ----------------------------------------


def antisymmetrize(t: State, slots: tuple[int, ...]) -> State:
    """Antisymmetrizer over the given tensor slots (exact, idempotent)."""
    perms = list(itertools.permutations(range(len(slots))))
    out: State = {}
    norm = Fraction(1, len(perms))
    for key, coeff in t.items():
        for perm in perms:
            new = list(key)
            for target_pos, source_pos in enumerate(perm):
                new[slots[target_pos]] = key[slots[source_pos]]
            _accumulate(out, [(tuple(new), coeff * norm * _perm_sign(perm))])
    return _clean(out)


def _perm_sign(perm: Sequence[int]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        v = start
        while not seen[v]:
            seen[v] = True
            v = perm[v]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def primitive_project(t: State, slots: tuple[int, ...],
                      primitive: Sequence[int]) -> State:
    """Zero out tensor entries whose indices at `slots` leave the span of
    the primitive coordinate subspace."""
    allowed = set(primitive)
    return {
        key: coeff for key, coeff in t.items()
        if all(key[s] in allowed for s in slots)
    }


def wedge_membership(t: State, slots: str, primitive: Sequence[int]) -> bool:
    """Membership of a rank-2/3 tensor in m∧m⊗U or m∧m∧m.

    `slots` is "first_two" or "all_three"; `primitive` lists the basis
    indices spanning the primitive subspace m (basis-aligned).
    """
    selectors = {"first_two": ((0, 1), "a rank-2 or rank-3"),
                 "all_three": ((0, 1, 2), "a rank-3")}
    if slots not in selectors:
        raise DeformationError(f"unknown slot selector {slots!r}")
    subset, needs = selectors[slots]
    if not t:
        return True
    if len(next(iter(t))) not in (len(subset), 3):
        raise DeformationError(f"{slots} needs {needs} tensor")
    if primitive_project(t, subset, primitive) != t:
        return False
    return antisymmetrize(t, subset) == t


# --- the kernel map R + S ---------------------------------------------------

_R_DIAG = parse("comul * id(2) ; id(1) * swap * id(1) ; mul * id(2)")
_S_DIAG = parse("id(2) * comul ; id(1) * swap * id(1) ; mul * id(2)")


def apply_kernel_map(deformation: TruncatedDeformation,
                     states: list[State]) -> list[State]:
    """(R + S) on a degree-indexed rank-3 tensor family.

    R splits the first slot and multiplies one half into the second wire;
    S splits the third slot and multiplies one half back into the first.
    """
    r_out = evaluate_series(_R_DIAG, deformation, states)
    s_out = evaluate_series(_S_DIAG, deformation, states)
    return [add_state(r, s) for r, s in zip(r_out, s_out)]


def kernel_map_RS(deformation: TruncatedDeformation) -> Report:
    """Verify (R+S)(C_h(x)) = 0 at every h-degree, for every basis x.

    Precondition (checked): the deformation satisfies the left and right
    co-Moufang laws modulo h^(order+1).  C_h is read off the deformation's
    one coassociator sweep.
    """
    _require_left_and_right(deformation, check_comoufang_mod,
                            "{} is not {} co-Moufang: ")
    return first_failure((x, covered, apply_kernel_map(deformation, coassoc))
                         for x, covered, coassoc in deformation.coassociators)


# --- deformed associator congruences (the Nalt consequence) -----------------


def is_primitive(model: FiniteBialgebraModel, v: Vector) -> bool:
    """Is Δ(v) = v⊗1 + 1⊗v in the base model?"""
    state = {(i,): c for i, c in enumerate(v) if c}
    expected = add_state(evaluate(parse("id(1) * unit"), model, state),
                         evaluate(parse("unit * id(1)"), model, state))
    return evaluate(_COMUL, model, state) == expected


def _associator_series(deformation: TruncatedDeformation,
                       states: list[State]) -> list[State]:
    rule, = flag_rules("assoc")
    lhs = evaluate_series(rule.lhs, deformation, states)
    rhs = evaluate_series(rule.rhs, deformation, states)
    return [subtract_state(a, b) for a, b in zip(lhs, rhs)]


def nalt_mod_h(deformation: TruncatedDeformation, a: Vector) -> Report:
    """Alternating-associator congruences for a base-layer primitive.

    Preconditions (checked): the deformed product satisfies the left and
    right bialgebra-level Moufang laws modulo h^(order+1), and `a` is
    primitive in the base layer.  The verified congruences, per h-degree
    and all basis y, z, are

        (a, y, z)• = -(y, a, z)• = (y, z, a)•   (mod h^(order+1)).

    A failure reports, at its degree, the antisymmetry failure if there is
    one and the cyclicity failure otherwise.
    """
    model = deformation.base
    order = deformation.order
    _require_left_and_right(deformation, check_moufang_mod,
                            "{} does not satisfy the {} Moufang law: ")
    if not is_primitive(model, a):
        raise DeformationError("input vector is not primitive in the base layer")

    def embed(position: int, y: int, z: int) -> list[State]:
        state: State = {}
        for i, c in enumerate(a):
            if c:
                key = [y, z]
                key.insert(position, i)
                state[tuple(key)] = c
        return [state] + [{} for _ in range(order)]

    def sweep():
        for y, z in itertools.product(range(model.dim), repeat=2):
            first, second, third = (_associator_series(
                deformation, embed(p, y, z)) for p in range(3))
            yield (y, z), 1, [add_state(f, s) or subtract_state(f, t)
                              for f, s, t in zip(first, second, third)]

    return first_failure(sweep())


# --- Lie algebras, Casimir, first cohomology ---------------------------------


def lie_algebra(dim: int, brackets: dict[tuple[int, int], dict[int, Fraction]],
                labels: Optional[Sequence[str]] = None) -> BracketAlgebra:
    """A Lie algebra from the brackets [e_i, e_j] = sum of c·e_k given as
    brackets[(i, j)] = {k: c}; a pair given one way only is completed by
    antisymmetry.  Antisymmetry and Jacobi are checked here."""
    if dim < 1:
        raise DeformationError(f"Lie algebra dimension {dim} is below 1")
    for (i, j), entries in brackets.items():
        if not all(0 <= t < dim for t in (i, j, *entries)):
            raise DeformationError(
                f"bracket entry at ({i}, {j}) has an index outside "
                f"dimension {dim}"
            )
    rows: BilinearRows = {}
    for i, j in itertools.product(range(dim), repeat=2):
        entries = brackets.get((i, j))
        if entries is None:
            entries = {k: -c for k, c in brackets.get((j, i), {}).items()}
        rows[(i, j)] = tuple(sorted(
            (k, Fraction(c)) for k, c in entries.items() if c
        ))
    labels = tuple(labels) if labels else tuple(map(str, range(dim)))
    if len(labels) != dim:
        raise DeformationError("label count does not match dimension")
    for i, j in itertools.product(range(dim), repeat=2):
        if rows[(i, j)] != tuple((k, -c) for k, c in rows[(j, i)]):
            raise DeformationError(
                f"bracket is not antisymmetric at ({i}, {j})"
            )
    g = BracketAlgebra(dim, rows, labels)
    witness = jacobi_witness(g)
    if witness is not None:
        raise DeformationError(
            f"Jacobi identity fails at basis triple {witness}"
        )
    return g


def sl2() -> BracketAlgebra:
    """The split three-dimensional simple Lie algebra, basis (h, e, f)."""
    two, one = Fraction(2), Fraction(1)
    return lie_algebra(
        3,
        {(0, 1): {1: two}, (0, 2): {2: -two}, (1, 2): {0: one}},
        labels=("h", "e", "f"),
    )


def check_representation(g: BracketAlgebra, action: Sequence[Matrix]) -> None:
    """rho([a,b]) = rho(a)rho(b) - rho(b)rho(a) on all basis pairs."""
    if len(action) != g.dim:
        raise DeformationError("one action matrix per basis element required")
    for i in range(g.dim):
        for j in range(g.dim):
            lhs = linalg.mat_combination(
                ((c, action[k]) for k, c in g.bracket_rows[(i, j)]),
                len(action[0]), len(action[0]))
            rhs = linalg.mat_sub(
                linalg.mat_mul(action[i], action[j]),
                linalg.mat_mul(action[j], action[i]),
            )
            if lhs != rhs:
                raise DeformationError(
                    f"action is not a representation at basis pair ({i}, {j})"
                )


def adjoint_action(g: BracketAlgebra) -> list[Matrix]:
    """Copies of the cached adjoint matrices, so callers may write to them."""
    return [[row[:] for row in m] for m in g.ad]


def exterior_power_action(action: Sequence[Matrix], k: int) -> list[Matrix]:
    """Induced action on the k-th exterior power of the module."""
    dim = len(action[0])
    wedges = list(itertools.combinations(range(dim), k))
    index = {t: n for n, t in enumerate(wedges)}
    out = []
    for rho in action:
        m = linalg.zeros(len(wedges), len(wedges))
        for col, wedge in enumerate(wedges):
            for slot, idx in enumerate(wedge):
                for target in range(dim):
                    c = rho[target][idx]
                    image = wedge[:slot] + (target,) + wedge[slot + 1:]
                    if c and len(set(image)) == k:
                        sign = _perm_sign(sorted(range(k),
                                                 key=image.__getitem__))
                        m[index[tuple(sorted(image))]][col] += c * sign
        out.append(m)
    return out


def casimir(g: BracketAlgebra, action: Sequence[Matrix]) -> Matrix:
    """Sum of rho(x_i) rho(x^i) over Killing-dual bases; commutes with rho.

    Requires a nondegenerate Killing form (the central simple case).
    """
    check_representation(g, action)
    try:
        kinv = linalg.invert(g.killing)
    except ValueError:
        raise DeformationError(
            "Killing form is degenerate; no Casimir operator"
        ) from None
    dim_m = len(action[0])
    out = linalg.mat_combination(
        ((kinv[i][j], linalg.mat_mul(action[i], action[j]))
         for i in range(g.dim) for j in range(g.dim) if kinv[i][j]),
        dim_m, dim_m)
    for i in range(g.dim):
        comm = linalg.mat_sub(
            linalg.mat_mul(out, action[i]), linalg.mat_mul(action[i], out)
        )
        if any(any(row) for row in comm):
            raise DeformationError(
                f"Casimir fails to commute with the action of basis {i}"
            )
    return out


@dataclass
class H1Report:
    dimension: int
    cocycle_basis: list[Vector]      # flattened maps g -> M, column-major by g
    coboundary_basis: list[Vector]


def h1_dimension(g: BracketAlgebra, action: Sequence[Matrix]) -> H1Report:
    """dim Z^1 - dim B^1 for maps c : g -> M with the cocycle law

        c([a, b]) = a·c(b) - b·c(a).
    """
    check_representation(g, action)
    dim_m = len(action[0])
    n_unknowns = g.dim * dim_m

    def cell(gi: int, mi: int) -> int:
        return gi * dim_m + mi

    rows: list[list[Fraction]] = []
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            for m_row in range(dim_m):
                row = [Fraction(0)] * n_unknowns
                for k, c in g.bracket_rows[(i, j)]:
                    row[cell(k, m_row)] += c
                for m_col in range(dim_m):
                    row[cell(j, m_col)] -= action[i][m_row][m_col]
                    row[cell(i, m_col)] += action[j][m_row][m_col]
                rows.append(row)
    cocycles = linalg.nullspace(rows) if rows else [
        list(basis_vector(n_unknowns, s)) for s in range(n_unknowns)
    ]
    # the coboundary of the module basis vector m_col, as one row
    cob_rows = [[action[gi][m_row][m_col] for gi in range(g.dim)
                 for m_row in range(dim_m)] for m_col in range(dim_m)]
    red, pivots = linalg.rref(cob_rows)
    coboundaries = [red[r] for r in range(len(pivots))]
    return H1Report(len(cocycles) - len(coboundaries), cocycles, coboundaries)


# --- fixture deformations ----------------------------------------------------


def shift_conjugation_deformation(max_degree: int, order: int
                                  ) -> TruncatedDeformation:
    """Conjugate the binomial model by exp(h·shift), shift: a^n -> a^(n+1).

    The shift fixes 1 and raises every positive degree, so it is invertible
    as a truncated series but is not a derivation; the conjugated product
    picks up genuine higher components.  Every base identity (unit, counit,
    compatibility, both Moufang families and both co-Moufang families)
    transports degree by degree, except where the binomial model's
    truncation waiver does not: binomial[D] is exact only on inputs of
    total degree up to D // 2, and the conjugation raises degree with the
    h-degree.  For D <= 8 and order <= 4, registration therefore refuses
    (D, order) = (4, 3), (4, 4), (5, 4) and (6, 4) with "compatibility
    fails ...".
    """
    model = truncated_binomial_bialgebra(max_degree)
    d = model.dim
    f = linalg.zeros(d, d)
    for n in range(1, d - 1):
        f[n + 1][n] = Fraction(1)
    fwd = exp_derivation_series(model, f, 1, order)
    inv = exp_derivation_series(model, linalg.mat_scale(f, Fraction(-1)), 1,
                                order)

    def conjugated(diagram: Diagram, key: tuple[int, ...]) -> list[State]:
        """fwd ∘ diagram ∘ (inv ⊗ ... ⊗ inv) on one basis input, per
        h-degree; the plain base model is the order-0 series."""
        states = [basis_state(key)] + [{} for _ in range(order)]
        for slot in range(diagram.n_in):
            states = _apply_series_slot(inv, states, slot)
        states = evaluate_components(diagram, states, model, model.tables)
        for slot in range(diagram.n_out):
            states = _apply_series_slot(fwd, states, slot)
        return states

    mul_maps: list[MulRows] = [{} for _ in range(order)]
    for key in itertools.product(range(d), repeat=2):
        for rows, state in zip(mul_maps, conjugated(_MUL, key)[1:]):
            if state:
                rows[key] = tuple((k, v) for (k,), v in sorted(state.items()))
    comul_maps: list[ComulRows] = [{} for _ in range(order)]
    for i in range(d):
        for rows_c, state in zip(comul_maps, conjugated(_COMUL, (i,))[1:]):
            if state:
                rows_c[i] = tuple(sorted(state.items()))

    return deformation_from_maps(
        model, order, comul_maps, mul_maps,
        name=f"shift-conj[binomial[{max_degree}],order={order}]",
    )


def simple_comul_perturbation(max_degree: int, order: int = 1
                              ) -> TruncatedDeformation:
    """Negative-control fixture: Δ_1(a) = a⊗a, everything else zero.

    Not compatible with the (undeformed) product, so it is built without
    registration; useful for exercising witness reporting and the pure
    degree bookkeeping of the coassociator.
    """
    if order < 1:
        raise DeformationError(f"delta1 needs order at least 1, got {order}")
    model = truncated_binomial_bialgebra(max_degree)
    comul1: ComulRows = {1: (((1, 1), 1),)}
    comul_maps: list[ComulRows] = [comul1] + [{} for _ in range(order - 1)]
    mul_maps: list[MulRows] = [{} for _ in range(order)]
    return deformation_from_maps(
        model, order, comul_maps, mul_maps,
        name=f"delta1[binomial[{max_degree}]]", strict=False,
    )


# --- fixture files ------------------------------------------------------------


def save_deformation_text(deformation: TruncatedDeformation,
                          base_ref: str) -> str:
    """Fixture file: a base-model reference plus sparse component triples.

    `comul n i j k c` adds c·(e_j ⊗ e_k) to the degree-n coproduct of e_i;
    `mul n i j k c` adds c·e_k to the degree-n product of e_i ⊗ e_j.
    Degree-0 components live in the referenced base model, not the file.
    """
    lines = [f"deformation {deformation.name}", f"base {base_ref}",
             f"order {deformation.order}"]
    for n in range(1, deformation.order + 1):
        for i in sorted(deformation.comul_components[n]):
            for (j, k), c in deformation.comul_components[n][i]:
                lines.append(f"comul {n} {i} {j} {k} {c}")
        for (i, j) in sorted(deformation.mul_components[n]):
            for k, c in deformation.mul_components[n][(i, j)]:
                lines.append(f"mul {n} {i} {j} {k} {c}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def load_deformation_text(text: str, resolve_base,
                          strict: bool = True) -> TruncatedDeformation:
    """Parse a fixture file; `resolve_base` maps the base reference string
    to a FiniteBialgebraModel."""
    entry = (int,) * 4 + (Fraction,)
    records = read(text, {"deformation": (str,), "base": (str,),
                          "order": (at_least(0),), "comul": entry,
                          "mul": entry, "end": ()}, DeformationError)
    given = settings(records)
    if "base" not in given or "order" not in given:
        raise DeformationError("fixture file needs base and order lines")
    model, order = resolve_base(given["base"]), given["order"]
    comul_raw: list[dict] = [{} for _ in range(order)]
    mul_raw: list[dict] = [{} for _ in range(order)]
    for r in records:
        if r.head not in ("comul", "mul"):
            continue
        n, i, j, k, c = r.values
        if not (1 <= n <= order and all(0 <= t < model.dim for t in (i, j, k))):
            raise r.fail(f"{r.head} entry lies outside order {order} or "
                         f"dimension {model.dim}")
        if r.head == "comul":
            comul_raw[n - 1].setdefault(i, []).append(((j, k), c))
        else:
            mul_raw[n - 1].setdefault((i, j), []).append((k, c))
    return deformation_from_maps(
        model, order, [{i: tuple(v) for i, v in m.items()} for m in comul_raw],
        [{ij: tuple(v) for ij, v in m.items()} for m in mul_raw],
        name=given.get("deformation", "deformation"), strict=strict)


def exp_derivation_series(model: FiniteBialgebraModel, derivation: Matrix,
                          start_degree: int, order: int) -> TruncatedSeriesMap:
    """exp(h^n · e) as a truncated series map (e a derivation matrix)."""
    d = model.dim
    comps = [linalg.eye(d)] + [linalg.zeros(d, d) for _ in range(order)]
    power = linalg.eye(d)
    k = 1
    while k * start_degree <= order:
        power = linalg.mat_mul(power, derivation)
        comps[k * start_degree] = linalg.mat_scale(
            power, Fraction(1, factorial(k))
        )
        k += 1
    return TruncatedSeriesMap(tuple(comps))
