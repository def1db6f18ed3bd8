"""Immutable string diagrams over the bialgebra signature.

A diagram is a morphism built from the generators mul (2->1), comul (1->2),
unit (0->1), counit (1->0), swap (2->2) and identity wires, read top to
bottom.  Two diagrams are considered equal when they denote the same
morphism in a symmetric monoidal category: equality is decided through a
canonical "staircase" form with one generator per slice, computed from the
underlying port graph so that the monoidal interchange law, swap values
(swap;swap = id) and naturality of swap are quotiented out automatically.

mul and comul may carry a label ("0" or "+") marking the constant or the
strictly-positive part of a formal power-series decomposition; labelled
generators are distinct from plain ones for matching and evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

# (arity_in, arity_out) per generator kind
ARITY = {
    "mul": (2, 1),
    "comul": (1, 2),
    "unit": (0, 1),
    "counit": (1, 0),
    "swap": (2, 2),
    "id": (1, 1),
}

LABELLABLE = ("mul", "comul")
LABELS = (None, "0", "+")

# Diagrams wider than this are refused; the calculus never needs more than
# a handful of parallel wires and the bound keeps search states small.
MAX_WIRES = 16


class DiagramError(Exception):
    """Malformed diagram or invalid operation on diagrams."""


class ArityMismatch(DiagramError):
    """Composition or evaluation with inconsistent wire counts."""


def _check_generator(kind: str, label: Optional[str]) -> None:
    if kind not in ARITY:
        raise DiagramError(f"unknown generator kind {kind!r}")
    if label is not None and kind not in LABELLABLE:
        raise DiagramError(f"label {label!r} not allowed on {kind!r}")
    if label not in LABELS:
        raise DiagramError(f"unknown label {label!r}")


@dataclass(frozen=True)
class Generator:
    """A single generator occurrence: kind, optional label, and arities."""

    kind: str
    label: Optional[str] = None

    def __post_init__(self) -> None:
        _check_generator(self.kind, self.label)

    @property
    def arity_in(self) -> int:
        return ARITY[self.kind][0]

    @property
    def arity_out(self) -> int:
        return ARITY[self.kind][1]

    def __str__(self) -> str:
        return self.kind if self.label is None else f"{self.kind}%{self.label}"


# A slice is (kind, label, offset): one generator applied at `offset`, with
# identity wires elsewhere.  A diagram is a sequence of slices plus boundary
# arities; identity slices are never stored.
Slice = tuple[str, Optional[str], int]


def slice_sort_key(slices: tuple[Slice, ...]) -> tuple:
    """Total order on slice tuples (labels may be None)."""
    return tuple((kind, label or "", off) for kind, label, off in slices)

# Producers inside the port graph: either a boundary input ("b", i) or an
# output port of a node (node_index, port).
_Producer = tuple


class _Graph:
    """Port graph of a diagram: nodes are non-swap generator occurrences.

    Swaps and identities leave no node; they only permute the wiring.  Each
    consumer port records its unique producer, which makes wires implicit:
    a wire is a (producer, consumer) pair and every producer feeds exactly
    one consumer.
    """

    __slots__ = ("n_in", "n_out", "nodes", "node_inputs", "outputs")

    def __init__(self, n_in, n_out, nodes, node_inputs, outputs):
        self.n_in = n_in
        self.n_out = n_out
        self.nodes = nodes            # list of (kind, label)
        self.node_inputs = node_inputs  # list of tuple[_Producer, ...]
        self.outputs = outputs        # tuple[_Producer, ...]

    def consumers(self) -> dict:
        """Map each producer to its unique consumer ((node, port) or ("out", j))."""
        cons = {}
        for v, inputs in enumerate(self.node_inputs):
            for p, prod in enumerate(inputs):
                cons[prod] = (v, p)
        for j, prod in enumerate(self.outputs):
            cons[prod] = ("out", j)
        return cons


def _graph_from_slices(n_in: int, slices: Iterable[Slice]) -> _Graph:
    live: list[_Producer] = [("b", i) for i in range(n_in)]
    nodes: list[tuple[str, Optional[str]]] = []
    node_inputs: list[tuple] = []
    for kind, label, off in slices:
        k, m = ARITY[kind]
        if off < 0 or off + k > len(live):
            raise DiagramError(
                f"slice {kind} at offset {off} does not fit on {len(live)} wires"
            )
        if kind == "id":
            continue
        if kind == "swap":
            live[off], live[off + 1] = live[off + 1], live[off]
            continue
        v = len(nodes)
        nodes.append((kind, label))
        node_inputs.append(tuple(live[off:off + k]))
        live[off:off + k] = [(v, p) for p in range(m)]
        if len(live) > MAX_WIRES:
            raise DiagramError(f"diagram exceeds {MAX_WIRES} parallel wires")
    return _Graph(n_in, len(live), nodes, node_inputs, tuple(live))


def _consumer_signature(graph: _Graph, start: int, cons: dict) -> tuple:
    """Iso-invariant fingerprint of the subgraph reachable below a node.

    Used only to break ties between simultaneously-ready nodes that have no
    live inputs (closed scalar bubbles); explored in port order so the
    result does not depend on node numbering.
    """
    order: dict[int, int] = {start: 0}
    sig = []
    queue = [start]
    while queue:
        v = queue.pop(0)
        kind, label = graph.nodes[v]
        row = [kind, label or ""]
        for p in range(ARITY[kind][1]):
            c = cons[(v, p)]
            if c[0] == "out":
                row.append(("out", c[1]))
            else:
                u, q = c
                if u not in order:
                    order[u] = len(order)
                    queue.append(u)
                row.append(("n", order[u], q))
        sig.append(tuple(row))
    return tuple(sig)


def _slices_from_graph(graph: _Graph) -> tuple[Slice, ...]:
    """Extract the canonical staircase slicing of a port graph.

    Nodes are emitted greedily, leftmost first; swap slices are inserted
    only where wires must be brought together, so the output is a normal
    form of the morphism, not of any particular drawing of it.
    """
    cons = graph.consumers()
    n_nodes = len(graph.nodes)
    emitted = [False] * n_nodes
    live: list[_Producer] = [("b", i) for i in range(graph.n_in)]
    slices: list[Slice] = []

    def emit_swaps_to(q: int, target: int) -> None:
        while q > target:
            slices.append(("swap", None, q - 1))
            live[q - 1], live[q] = live[q], live[q - 1]
            q -= 1

    def is_unit(v: int) -> bool:
        return graph.nodes[v][0] == "unit"

    remaining = set(range(n_nodes))
    while remaining:
        pos = {prod: i for i, prod in enumerate(live)}
        best = None
        best_key = None
        for v in remaining:
            if is_unit(v):
                continue
            ready = True
            live_positions = []
            for prod in graph.node_inputs[v]:
                if prod in pos:
                    live_positions.append(pos[prod])
                elif prod[0] != "b" and not emitted[prod[0]] and is_unit(prod[0]):
                    continue  # pending unit: will be emitted just in time
                else:
                    ready = False
                    break
            if not ready:
                continue
            if live_positions:
                key = (0, min(live_positions))
            else:
                kind, label = graph.nodes[v]
                key = (1, kind, label or "", _consumer_signature(graph, v, cons))
            if best_key is None or key < best_key:
                best, best_key = v, key
        if best is None:
            # Only unit nodes remain; they feed boundary outputs directly.
            pending = sorted(remaining, key=lambda v: cons[(v, 0)][1])
            for v in pending:
                slices.append(("unit", graph.nodes[v][1], len(live)))
                live.append((v, 0))
                emitted[v] = True
                remaining.discard(v)
            break

        v = best
        kind, label = graph.nodes[v]
        k, m = ARITY[kind]
        if m > k and len(live) + m - k > MAX_WIRES:
            raise DiagramError(f"diagram exceeds {MAX_WIRES} parallel wires")
        inputs = graph.node_inputs[v]
        live_pos = [pos[prod] for prod in inputs if prod in pos]
        t = min(live_pos) if live_pos else len(live)
        for p, prod in enumerate(inputs):
            target = t + p
            if prod in pos:
                q = live.index(prod)
                emit_swaps_to(q, target)
            else:
                u = prod[0]
                slices.append(("unit", graph.nodes[u][1], target))
                live.insert(target, prod)
                emitted[u] = True
                remaining.discard(u)
            pos = {pr: i for i, pr in enumerate(live)}
        slices.append((kind, label, t))
        live[t:t + k] = [(v, p) for p in range(m)]
        emitted[v] = True
        remaining.discard(v)

    # Sort the live wires into boundary-output order.
    for j in range(graph.n_out):
        q = live.index(graph.outputs[j])
        emit_swaps_to(q, j)
    return tuple(slices)


@dataclass(frozen=True)
class Diagram:
    """A canonical morphism term; use the module functions to build one."""

    n_in: int
    n_out: int
    slices: tuple[Slice, ...]

    def __post_init__(self) -> None:
        if self.n_in < 0 or self.n_in > MAX_WIRES or self.n_out > MAX_WIRES:
            raise DiagramError("boundary arity out of range")

    @property
    def graph(self) -> _Graph:
        cached = getattr(self, "_graph", None)
        if cached is None:
            cached = _graph_from_slices(self.n_in, self.slices)
            object.__setattr__(self, "_graph", cached)
        return cached

    def nodes(self) -> list[tuple[str, Optional[str]]]:
        return self.graph.nodes

    def widths(self) -> list[int]:
        """Wire count before each slice and after the last one."""
        w = self.n_in
        out = [w]
        for kind, _label, _off in self.slices:
            k, m = ARITY[kind]
            w += m - k
            out.append(w)
        return out

    def __str__(self) -> str:
        from .dsl import print_diagram

        return print_diagram(self)


def _canonical_from_graph(graph: _Graph) -> Diagram:
    return Diagram(graph.n_in, graph.n_out, _slices_from_graph(graph))


def raw_diagram(n_in: int, slices: Iterable[Slice]) -> Diagram:
    """Build a diagram from explicit slices without canonicalizing."""
    slices = tuple(slices)
    g = _graph_from_slices(n_in, slices)  # validates
    return Diagram(n_in, g.n_out, slices)


def canonicalize(d: Diagram) -> Diagram:
    """Return the canonical staircase form of `d` (idempotent)."""
    return _canonical_from_graph(d.graph)


def generator(kind: str, label: Optional[str] = None) -> Diagram:
    _check_generator(kind, label)
    if kind == "id":
        return identity(1)
    k, _m = ARITY[kind]
    return canonicalize(raw_diagram(k, [(kind, label, 0)]))


def identity(n: int) -> Diagram:
    if n < 0 or n > MAX_WIRES:
        raise DiagramError(f"id({n}) out of range")
    return Diagram(n, n, ())


def compose(f: Diagram, g: Diagram) -> Diagram:
    """Vertical stacking: first f, then g (top to bottom)."""
    if f.n_out != g.n_in:
        raise ArityMismatch(
            f"cannot compose: first factor has {f.n_out} outputs, "
            f"second expects {g.n_in} inputs"
        )
    return canonicalize(raw_diagram(f.n_in, f.slices + g.slices))


def tensor(f: Diagram, g: Diagram) -> Diagram:
    """Horizontal juxtaposition with f's wires to the left of g's."""
    shifted = tuple((k, l, off + f.n_out) for (k, l, off) in g.slices)
    return canonicalize(raw_diagram(f.n_in + g.n_in, f.slices + shifted))


def tensor_all(*factors: Diagram) -> Diagram:
    out = factors[0]
    for f in factors[1:]:
        out = tensor(out, f)
    return out


def count_plus(d: Diagram) -> int:
    """Number of '+'-labelled generators (each carries series degree >= 1)."""
    return sum(1 for kind, label, _off in d.slices if label == "+")


_DUAL = {"mul": "comul", "comul": "mul", "unit": "counit", "counit": "unit",
         "swap": "swap", "id": "id"}


def flip(d: Diagram) -> Diagram:
    """Turn a diagram upside down: reverse reading order, dualize generators.

    Products become coproducts and vice versa; inputs and outputs trade
    places.  Flipping the bialgebra-level Moufang diagrams yields the
    corresponding co-Moufang diagrams.
    """
    flipped = tuple(
        (_DUAL[kind], label, off) for kind, label, off in reversed(d.slices)
    )
    return canonicalize(raw_diagram(d.n_out, flipped))


class DiagramSum:
    """Formal integer-coefficient combination of diagrams with h-degrees.

    Terms are keyed by (h_degree, canonical diagram); like terms collect
    automatically and zero coefficients vanish.  All boundary arities must
    agree.
    """

    __slots__ = ("n_in", "n_out", "terms")

    def __init__(self, n_in: int, n_out: int, terms: Optional[dict] = None):
        self.n_in = n_in
        self.n_out = n_out
        self.terms: dict[tuple[int, Diagram], int] = {}
        if terms:
            for key, coeff in terms.items():
                self._add(key, coeff)

    @classmethod
    def of(cls, d: Diagram, coeff: int = 1, h_degree: int = 0) -> "DiagramSum":
        return cls(d.n_in, d.n_out, {(h_degree, d): coeff})

    def _add(self, key: tuple[int, Diagram], coeff: int) -> None:
        hdeg, d = key
        if d.n_in != self.n_in or d.n_out != self.n_out:
            raise ArityMismatch("mixed boundary arities in a diagram sum")
        if hdeg < 0:
            raise DiagramError("negative h-degree")
        new = self.terms.get(key, 0) + coeff
        if new:
            self.terms[key] = new
        else:
            self.terms.pop(key, None)

    def __add__(self, other: "DiagramSum") -> "DiagramSum":
        out = DiagramSum(self.n_in, self.n_out, dict(self.terms))
        for key, coeff in other.terms.items():
            out._add(key, coeff)
        return out

    def __sub__(self, other: "DiagramSum") -> "DiagramSum":
        return self + other.scale(-1)

    def scale(self, c: int) -> "DiagramSum":
        if c == 0:
            return DiagramSum(self.n_in, self.n_out)
        return DiagramSum(
            self.n_in, self.n_out, {k: c * v for k, v in self.terms.items()}
        )

    def shift_degree(self, by: int) -> "DiagramSum":
        return DiagramSum(
            self.n_in, self.n_out,
            {(h + by, d): c for (h, d), c in self.terms.items()},
        )

    def truncate(self, max_degree: int) -> "DiagramSum":
        """Drop terms whose minimum h-degree exceeds max_degree.

        A '+'-labelled generator contributes at least one to the degree of
        its term, so the cut uses h_degree + count_plus(diagram).
        """
        kept = {
            (h, d): c
            for (h, d), c in self.terms.items()
            if h + count_plus(d) <= max_degree
        }
        return DiagramSum(self.n_in, self.n_out, kept)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiagramSum):
            return NotImplemented
        return (self.n_in, self.n_out, self.terms) == (
            other.n_in, other.n_out, other.terms
        )

    def __hash__(self) -> int:
        return hash((self.n_in, self.n_out, frozenset(self.terms.items())))

    def __iter__(self) -> Iterator[tuple[int, Diagram, int]]:
        for (h, d), c in sorted(
            self.terms.items(),
            key=lambda kv: (kv[0][0], slice_sort_key(kv[0][1].slices)),
        ):
            yield h, d, c

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for h, d, c in self:
            factor = "" if h == 0 else f"h^{h}·"
            parts.append(f"{c:+d}·{factor}[{d}]")
        return " ".join(parts)


def split_series_node(d: Diagram, node_index: int) -> DiagramSum:
    """Replace one plain mul/comul node by its "0" plus "+" parts.

    Mirrors the power-series decomposition of the structure maps: the plain
    generator equals the sum of its constant part and its higher part.
    """
    g = d.graph
    if node_index < 0 or node_index >= len(g.nodes):
        raise DiagramError(f"no node {node_index}")
    kind, label = g.nodes[node_index]
    if kind not in LABELLABLE or label is not None:
        raise DiagramError(f"node {node_index} ({kind}, {label!r}) is not splittable")
    out = DiagramSum(d.n_in, d.n_out)
    for new_label in ("0", "+"):
        nodes = list(g.nodes)
        nodes[node_index] = (kind, new_label)
        g2 = _Graph(g.n_in, g.n_out, nodes, g.node_inputs, g.outputs)
        out._add((0, _canonical_from_graph(g2)), 1)
    return out
