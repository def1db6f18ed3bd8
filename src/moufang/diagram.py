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

from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Optional

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


# A slice is (kind, label, offset): one generator applied at `offset`, with
# identity wires elsewhere.  A diagram is a sequence of slices plus boundary
# arities; identity slices are never stored.
Slice = tuple[str, Optional[str], int]


class _Graph:
    """Port graph of a diagram: nodes are non-swap generator occurrences.

    Swaps and identities leave no node; they only permute the wiring.  A
    port is an int: output p of node v is ``2*v + p`` and boundary input i
    is ``~i``.  Each consumer records its unique producer port in
    `node_inputs` or `outputs`, which makes wires implicit.  The graph is
    indexed once, when built: `cons[port]` is the consuming node or ``~j``
    for boundary output j (a list: ``~i`` reads Python's negative index;
    unused output slots hold None), and `waits[v]` counts node v's inputs
    from non-unit nodes.  A graph is never mutated (see `splice_wire`).
    Three indexes are built on first use and kept with the graph: the match
    index and plan of `find_matches`, and `_canonical_splice`'s splice record.
    """

    __slots__ = ("n_in", "n_out", "nodes", "node_inputs", "outputs",
                 "cons", "waits", "_match_index", "_match_plan",
                 "_splice_record")

    def __init__(self, n_in, n_out, nodes, node_inputs, outputs,
                 cons=None, waits=None):
        self.n_in = n_in
        self.n_out = n_out
        self.nodes = nodes              # list of (kind, label)
        self.node_inputs = node_inputs  # list of tuple[int, ...]
        self.outputs = outputs          # tuple[int, ...]
        if cons is None:
            cons = [None] * (2 * len(nodes) + n_in)
            waits = []
            for v, row in enumerate(node_inputs):
                for prod in row:
                    cons[prod] = v
                waits.append(sum(prod >= 0 and nodes[prod >> 1][0] != "unit"
                                 for prod in row))
            for j, prod in enumerate(outputs):
                cons[prod] = ~j
        self.cons = cons
        self.waits = waits
        self._match_index = None
        self._match_plan = None
        self._splice_record = None

    def match_index(self) -> tuple[dict, list[list[int]]]:
        """The nodes of each (kind, label), ascending, and the consumer
        nodes of each node; built on first use, once per graph."""
        if self._match_index is None:
            by_label: dict[tuple, list[int]] = {}
            for v, nl in enumerate(self.nodes):
                by_label.setdefault(nl, []).append(v)
            consumers = [[c for c in self.cons[2 * v:2 * v + 2]
                          if c is not None and c >= 0]
                         for v in range(len(self.nodes))]
            self._match_index = (by_label, consumers)
        return self._match_index

    def match_plan(self) -> tuple[tuple, list, list]:
        """How `find_matches` places this graph as a pattern, built once: the
        consumer (v, p) of each boundary input (None if passive); the wires
        (v, p, u, j) from output j of node u into input p of node v; and per
        connected component its least node, with steps (v, u, k, forward)
        reaching each other v from an earlier u along u's output or input k."""
        if self._match_plan is None:
            wires = [(v, p, q >> 1, q & 1) for v, row in enumerate(
                self.node_inputs) for p, q in enumerate(row) if q >= 0]
            components, placed = [], []
            for anchor in range(len(self.nodes)):
                if anchor in placed:
                    continue
                order, steps = [anchor], []
                for x in order:  # breadth first: `order` grows as it is read
                    for v, p, u, j in wires:
                        for step in ((v, u, j, True), (u, v, p, False)):
                            if step[1] == x and step[0] not in order:
                                order.append(step[0])
                                steps.append(step)
                placed += order
                components.append((anchor, steps))
            inputs = tuple((c, self.node_inputs[c].index(~i))
                           if (c := self.cons[~i]) >= 0 else None
                           for i in range(self.n_in))
            self._match_plan = (inputs, wires, components)
        return self._match_plan

    def splice_record(self) -> tuple[tuple[Slice, ...], dict]:
        """This graph's canonical slices, and where a unit or counit side
        spliced into each wire lands in them (see `_slices_from_graph`);
        built on first use, once per graph."""
        if self._splice_record is None:
            landing: dict = {}
            self._splice_record = (_slices_from_graph(self, landing), landing)
        return self._splice_record

    def splice_wire(self, p0: int, rg: "_Graph") -> "_Graph":
        """This graph with the wire from port `p0` run through `rg`, a
        1 -> 1 graph: copies of this graph's lists with what changes
        patched in (the row or output that read `p0`, its consumer-index
        entries and wait counts); this graph is left as it is."""
        n = len(self.nodes)
        shift = 2 * n  # rg's node ports, renumbered after this graph's
        c = self.cons[p0]
        rc = rg.cons[-1]  # rg's consumer of its boundary input
        rp = rg.outputs[0]
        new_out = p0 if rp < 0 else rp + shift
        nodes = self.nodes + rg.nodes
        node_inputs = self.node_inputs + [
            tuple(p0 if p < 0 else p + shift for p in row)
            for row in rg.node_inputs]
        outputs = self.outputs
        waits = self.waits + rg.waits

        def waited(p: int) -> bool:  # does a non-unit node produce p?
            return p >= 0 and nodes[p >> 1][0] != "unit"

        if rc >= 0:
            waits[n + rc] += waited(p0)
        if c >= 0:
            node_inputs[c] = tuple(new_out if p == p0 else p
                                   for p in node_inputs[c])
            waits[c] += waited(new_out) - waited(p0)
        else:
            outputs = outputs[:~c] + (new_out,) + outputs[~c + 1:]
        cons = self.cons[:shift] + [
            None if u is None else u + n if u >= 0 else c
            for u in rg.cons[:2 * len(rg.nodes)]] + self.cons[shift:]
        cons[p0] = rc + n if rc >= 0 else c
        return _Graph(self.n_in, self.n_out, nodes, node_inputs, outputs,
                      cons, waits)


def _graph_from_slices(n_in: int, slices: Iterable[Slice]) -> _Graph:
    live: list[int] = [~i for i in range(n_in)]
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
        live[off:off + k] = range(2 * v, 2 * v + m)
        if len(live) > MAX_WIRES:
            raise DiagramError(f"diagram exceeds {MAX_WIRES} parallel wires")
    return _Graph(n_in, len(live), nodes, node_inputs, tuple(live))


def _consumer_signature(graph: _Graph, start: int) -> tuple:
    """Iso-invariant fingerprint of the subgraph reachable below a node.

    Used only to break ties between simultaneously-ready nodes that have no
    live inputs (closed scalar bubbles); explored in port order so the
    result does not depend on node numbering.
    """
    order: dict[int, int] = {start: 0}
    sig = []
    queue = [start]
    for v in queue:  # grows as new nodes are reached
        kind, label = graph.nodes[v]
        row = [kind, label or ""]
        for port in range(2 * v, 2 * v + ARITY[kind][1]):
            u = graph.cons[port]
            if u < 0:
                row.append(("out", ~u))
            else:
                if u not in order:
                    order[u] = len(order)
                    queue.append(u)
                row.append(("n", order[u], graph.node_inputs[u].index(port)))
        sig.append(tuple(row))
    return tuple(sig)


def _slices_from_graph(graph: _Graph, landing: Optional[dict] = None
                       ) -> tuple[Slice, ...]:
    """Extract the canonical staircase slicing of a port graph.

    Nodes are emitted greedily, leftmost first; swap slices are inserted
    only where wires must be brought together, so the output is a normal
    form of the morphism, not of any particular drawing of it.  A graph
    with a cycle has no slicing and raises DiagramError.  Units are
    emitted just in time, so a node is ready once no input waits on a
    non-unit node; readiness is counted down, one pass per emitted node.

    A `landing` dict is filled with where a unit or counit side spliced
    into a wire would land.  The side's node on the wire is ready once the
    wire is live, so the run emits it at the first step that scans up to
    the wire or takes the wire's consumer, and otherwise runs as before.
    For each wire not fed by a unit the dict holds ``(slice count, live
    position, width, hold)`` at that step.  `hold` is 0 if the consumer is not taken then,
    1 if it is taken from this wire and 2 if from a wire further left, with
    no ready node between; a wire with a ready node between holds None.
    The dict is emptied if a closed bubble was chosen among two or more: a
    splice could change their consumer signatures.
    """
    nodes = graph.nodes
    cons = graph.cons
    waiting = graph.waits[:]
    live: list[int] = [~i for i in range(graph.n_in)]
    slices: list[Slice] = []
    emitted = [False] * len(nodes)
    left = len(nodes)
    tied = False

    def emit_swaps_to(q: int, target: int) -> None:
        while q > target:
            slices.append(("swap", None, q - 1))
            live[q - 1], live[q] = live[q], live[q - 1]
            q -= 1

    def land(t: int, best: Optional[int]) -> None:
        # A unit's output is live only in the step that consumes it, or
        # after the last call, so every wire seen here has a node producer.
        for q, prod in enumerate(live):
            if prod in landing or cons[prod] != best and q > t:
                continue
            if cons[prod] != best:
                hold = 0
            elif q == t:
                hold = 1
            elif any(cons[p] >= 0 and cons[p] != best and not waiting[cons[p]]
                     for p in live[t + 1:q]):
                landing[prod] = None  # the scan would take that node first
                continue
            else:
                hold = 2
            landing[prod] = (len(slices), q, len(live), hold)

    while left:
        # Each wire has one consumer, so the first wire whose consumer is
        # ready gives the ready node with the leftmost live input.
        best = None
        for t, prod in enumerate(live):
            v = cons[prod]
            if v >= 0 and not waiting[v]:
                best = v
                break
        else:
            # Only closed scalar bubbles can be ready: break ties by kind,
            # label and what lies below, visiting nodes in ascending order.
            best_key = None
            for v, (kind, label) in enumerate(nodes):
                if emitted[v] or waiting[v] or kind == "unit":
                    continue
                key = (kind, label or "", _consumer_signature(graph, v))
                tied = tied or best_key is not None
                if best_key is None or key < best_key:
                    best, best_key = v, key
            t = len(live)
        if landing is not None:
            land(t, best)
        if best is None:
            # No node is ready: any non-unit node left waits on a cycle.
            pending = [v for v in range(len(nodes)) if not emitted[v]]
            if any(nodes[v][0] != "unit" for v in pending):
                raise DiagramError("diagram has a cycle")
            # Only unit nodes remain; they feed boundary outputs directly.
            for v in sorted(pending, key=lambda v: ~cons[2 * v]):
                slices.append(("unit", nodes[v][1], len(live)))
                live.append(2 * v)
            break

        v = best
        kind, label = nodes[v]
        k, m = ARITY[kind]
        for p, prod in enumerate(graph.node_inputs[v]):
            if prod >= 0 and nodes[prod >> 1][0] == "unit":
                slices.append(("unit", nodes[prod >> 1][1], t + p))
                live.insert(t + p, prod)
                emitted[prod >> 1] = True
                left -= 1
            else:
                q = live.index(prod, t + p)
                if q > t + p:  # most inputs are in place: skip the call
                    emit_swaps_to(q, t + p)
        # The just-in-time units above count towards the width too.
        if len(live) + (m - k if m > k else 0) > MAX_WIRES:
            raise DiagramError(f"diagram exceeds {MAX_WIRES} parallel wires")
        slices.append((kind, label, t))
        live[t:t + k] = range(2 * v, 2 * v + m)
        emitted[v] = True
        left -= 1
        for port in range(2 * v, 2 * v + m):
            u = cons[port]
            if u >= 0:
                waiting[u] -= 1
    else:
        if landing is not None:
            land(len(live), None)
    if tied and landing:
        landing.clear()

    # Sort the live wires into boundary-output order.
    for j in range(graph.n_out):
        q = live.index(graph.outputs[j])
        emit_swaps_to(q, j)
    return tuple(slices)


@dataclass(frozen=True)
class Diagram:
    """A canonical morphism term; use the module functions to build one.
    `canonical` (not in ==, hash or repr) marks what the canonicalizer made."""

    n_in: int
    n_out: int
    slices: tuple[Slice, ...]
    canonical: bool = field(default=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.n_in < 0 or self.n_in > MAX_WIRES or self.n_out > MAX_WIRES:
            raise DiagramError("boundary arity out of range")

    @cached_property
    def graph(self) -> _Graph:
        return _graph_from_slices(self.n_in, self.slices)

    @cached_property
    def program(self) -> tuple[tuple[Step, ...], Optional[itemgetter]]:
        """The slices with every run of swaps folded into one wire
        permutation, and each comul step that the next step, a mul, reads
        exactly one output of run as one fused step (see `_fused_step`):
        ``(steps, tail)``.  A step ``(kind, label, off, perm)`` applies a
        non-swap generator to keys read through ``perm`` (None for no
        permutation); ``tail`` permutes the keys after the last step."""
        return _program_from_slices(self.slices, self.widths())

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


# A slice program step: a slice whose input keys are first read through a
# wire permutation (an `operator.itemgetter`, or None), or a fused step
# ``("fused", (comul label, mul label), (x_at, y_at, shape), out_key)``.
Step = tuple[str, Optional[str], int, Optional[itemgetter]]


def _permutation(perm: Optional[list[int]]) -> Optional[itemgetter]:
    """``key -> tuple(key[i] for i in perm)``, or None for the identity."""
    if perm is None or perm == sorted(perm):
        return None
    return itemgetter(*perm)  # a swap needs two wires, so a tuple comes out


def _fused_step(comul: tuple, mul: tuple) -> Optional[tuple]:
    """A comul step and the mul step after it, each ``(kind, label, off,
    perm list or None, width)``, as one step if the mul reads exactly one
    comul output; else None.

    The fused step reads the comul's input at key position ``x_at`` and
    the mul's other input at ``y_at``, both positions of the step's input
    key.  ``shape`` says which comul output the mul reads (0 or 1) and at
    which of its inputs (0 or 1).  A table entry ``((j, k, m), c)`` stands
    for comul output pair (j, k) and mul output m; ``out_key`` maps
    ``key + (j, k, m)`` to the mul step's output key.
    """
    _kind, c_label, c_off, perm1, width = comul
    _kind, m_label, m_off, perm2, _width = mul
    perm1 = perm1 or list(range(width))
    perm2 = perm2 or list(range(width + 1))

    def source(i: int) -> int:  # comul output position -> key + (j, k, m)
        if i < c_off:
            return perm1[i]
        if i > c_off + 1:
            return perm1[i - 1]
        return width + i - c_off

    reads = [perm2[m_off] - c_off, perm2[m_off + 1] - c_off]
    hit = [r in (0, 1) for r in reads]
    if hit[0] == hit[1]:
        return None
    side_m = hit.index(True)
    other = perm2[m_off + 1 - side_m]
    out = [source(i) for i in perm2[:m_off]] + [width + 2] + \
        [source(i) for i in perm2[m_off + 2:]]
    return ("fused", (c_label, m_label),
            (perm1[c_off], source(other), (reads[side_m], side_m)),
            itemgetter(*out))  # width >= 2 here, so a tuple comes out


def _program_from_slices(slices: tuple[Slice, ...], widths: list[int]
                         ) -> tuple[tuple[Step, ...], Optional[itemgetter]]:
    steps: list = []  # (kind, label, off, perm list or None, width), fused
    perm: Optional[list[int]] = None  # key position read at each wire
    for (kind, label, off), width in zip(slices, widths):
        if kind == "swap":
            if perm is None:
                perm = list(range(width))
            perm[off], perm[off + 1] = perm[off + 1], perm[off]
            continue
        step = (kind, label, off, perm, width)
        perm = None
        if kind == "mul" and steps and steps[-1][0] == "comul":
            fused = _fused_step(steps[-1], step)
            if fused is not None:
                steps[-1] = fused
                continue
        steps.append(step)
    return tuple(s if s[0] == "fused" else s[:3] + (_permutation(s[3]),)
                 for s in steps), _permutation(perm)


def _canonical_from_graph(graph: _Graph) -> Diagram:
    return Diagram(graph.n_in, graph.n_out, _slices_from_graph(graph), True)


def _canonical_splice(graph: _Graph, p0: int, rg: _Graph) -> Diagram:
    """The canonical form of `graph` with the wire from port `p0` run
    through `rg`, a 1 -> 1 graph; DiagramError if it is too wide.

    A unit side (a unit into input s of a mul) or a counit side (a comul
    whose output s feeds a counit) goes into the graph's canonical slices
    where its splice record says.  A counit side lands only where the
    wire's consumer is not taken before the counit: hold 0, or hold 1 with
    the counit on the left.  Any other side or wire is spliced into a copy
    of the graph and sliced anew.
    """
    if len(rg.nodes) == 2:
        (k0, l0), (k1, l1) = rg.nodes  # numbered producer first
        fed = k0 == "unit" and k1 == "mul"
        if fed or k0 == "comul" and k1 == "counit":
            slices, landing = graph.splice_record()
            spot = landing.get(p0)
            s = rg.node_inputs[1].index(0) if fed else rg.node_inputs[1][0]
            if spot is not None and (fed or spot[3] == 0
                                     or spot[3] == 1 and s == 0):
                k, pos, width, _hold = spot
                if width + 1 > MAX_WIRES:
                    raise DiagramError(
                        f"diagram exceeds {MAX_WIRES} parallel wires")
                pair = (((k0, l0, pos + s), (k1, l1, pos)) if fed
                        else ((k0, l0, pos), (k1, l1, pos + s)))
                return Diagram(graph.n_in, graph.n_out,
                               slices[:k] + pair + slices[k:], True)
    return _canonical_from_graph(graph.splice_wire(p0, rg))


def raw_diagram(n_in: int, slices: Iterable[Slice]) -> Diagram:
    """Build a diagram from explicit slices without canonicalizing; the
    port graph that validates them is kept as its cached `graph`."""
    slices = tuple(slices)
    g = _graph_from_slices(n_in, slices)
    d = Diagram(n_in, g.n_out, slices)
    d.__dict__["graph"] = g  # where the cached property keeps its value
    return d


def canonicalize(d: Diagram) -> Diagram:
    """The canonical staircase form of `d`: `d` if it is marked canonical."""
    return d if d.canonical else _canonical_from_graph(d.graph)


def generator(kind: str, label: Optional[str] = None) -> Diagram:
    _check_generator(kind, label)
    if kind == "id":
        return identity(1)
    k, _m = ARITY[kind]
    return canonicalize(raw_diagram(k, [(kind, label, 0)]))


def identity(n: int) -> Diagram:
    if n < 0 or n > MAX_WIRES:
        raise DiagramError(f"id({n}) out of range")
    return Diagram(n, n, (), True)


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
