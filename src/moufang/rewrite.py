"""Bounded bidirectional rewriting over canonical diagrams.

Rules are bidirectional diagram pairs.  A rule side matches a host diagram
through its port graph: a label-preserving injection of pattern nodes into
host nodes that respects all internal wiring, with the pattern boundary cut
anywhere in the host.  Matching is therefore automatically up to the
interchange law and swap naturality.  Only convex matches count: no host
path may leave the matched nodes and come back to one, since rewriting
modulo symmetric monoidal structure is sound on convex matches.  Nor may
a host wire run from a matched node into a pattern input: splicing there
would feed the replacement its own output.  A rule side that is a single
identity wire matches every wire of the host.

Ports are the int ids of `diagram._Graph`.  Each host is indexed once, in
its cached graph, and every rule and direction reads that index.  A wire
splice goes through `diagram._canonical_splice`: a unit or counit side is
put into the host's canonical slices where the host's splice record says,
and other splices are made on copies of the host's lists and sliced anew.

`prove_equal` runs breadth-first search from both endpoints with a shared
frontier-intersection test.  Absence of a proof within budget is an
ordinary outcome, not an error; it never implies the equality is false.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from .diagram import (
    ARITY,
    ArityMismatch,
    Diagram,
    DiagramError,
    _Graph,
    _canonical_from_graph,
    _canonical_splice,
    canonicalize,
)
from .dsl import parse, print_diagram
from .reader import ANY, Rest, read


class RewriteError(DiagramError):
    """Invalid rule, position, or replay step."""


@dataclass(frozen=True)
class RewriteRule:
    """A named bidirectional rewrite between diagrams of equal arity."""

    name: str
    lhs: Diagram
    rhs: Diagram

    def __post_init__(self) -> None:
        if (self.lhs.n_in, self.lhs.n_out) != (self.rhs.n_in, self.rhs.n_out):
            raise RewriteError(
                f"rule {self.name}: sides have different arities "
                f"{self.lhs.n_in}->{self.lhs.n_out} vs "
                f"{self.rhs.n_in}->{self.rhs.n_out}"
            )

    def sides(self, direction: str) -> tuple[Diagram, Diagram]:
        if direction == "->":
            return self.lhs, self.rhs
        if direction == "<-":
            return self.rhs, self.lhs
        raise RewriteError(f"unknown direction {direction!r}")


# --- matching -----------------------------------------------------------


@dataclass(frozen=True)
class Match:
    """One occurrence of a pattern: node images plus the input interface."""

    node_map: tuple[int, ...]          # pattern node -> host node
    inputs: tuple[int, ...]            # host producer port per pattern input
    position: str                      # printable locator


def _producer_name(p: int) -> str:
    return f"b{~p}" if p < 0 else f"n{p >> 1}.{p & 1}"


def find_matches(host: Diagram, pattern: Diagram) -> list[Match]:
    """All occurrences of `pattern` in `host`, in a fixed canonical order."""
    hg = host.graph
    pg = pattern.graph
    np_ = len(pg.nodes)
    if np_ == 0:
        if pg.n_in != 1 or pg.outputs != (~0,):
            raise RewriteError(
                "only the single identity wire is supported as an empty pattern"
            )
        producers = [~i for i in range(hg.n_in)] + [
            port for v, (kind, _label) in enumerate(hg.nodes)
            for port in range(2 * v, 2 * v + ARITY[kind][1])
        ]
        return [
            Match((), (p,), f"wire={_producer_name(p)}") for p in producers
        ]

    # pattern input -> the (pattern node, port) that consumes it
    consumer = {
        ~prod: (v, p) for v in range(np_)
        for p, prod in enumerate(pg.node_inputs[v]) if prod < 0
    }
    if len(consumer) != pg.n_in:
        raise RewriteError(
            "pattern carries a passive wire (an input no generator consumes); "
            "such rules are ambiguous to locate - rewrite the rule without "
            "the spectator wire"
        )
    interface = [consumer[i] for i in range(pg.n_in)]
    host_by_label, consumers = hg.match_index()
    assignment: list[int] = []
    used: set[int] = set()

    def extend(v: int) -> Iterator[tuple[int, ...]]:
        # Pattern nodes are numbered after their producers, and host nodes
        # are tried in ascending order, so node maps come out sorted.
        if v == np_:
            yield tuple(assignment)
            return
        for hv in host_by_label.get(pg.nodes[v], ()):
            if hv in used:
                continue
            row = hg.node_inputs[hv]
            for p, prod in enumerate(pg.node_inputs[v]):
                if prod >= 0 and row[p] != 2 * assignment[prod >> 1] + (
                        prod & 1):
                    break
            else:
                assignment.append(hv)
                used.add(hv)
                yield from extend(v + 1)
                assignment.pop()
                used.discard(hv)

    def convex(node_map: tuple[int, ...]) -> bool:
        """No path leaves the matched nodes and comes back to one."""
        matched = set(node_map)
        stack = [w for v in node_map for w in consumers[v] if w not in matched]
        seen = set(stack)
        while stack:
            for w in consumers[stack.pop()]:
                if w in matched:
                    return False
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return True

    # Internal pattern wires are internal in the host too: each host
    # producer has a unique consumer, which the wiring checks pin down.
    # A pattern input fed by a matched node would be spliced into the
    # replacement's own output.  A single node, being acyclic, is fed by
    # no matched node and is always convex.
    found = ((node_map, tuple(hg.node_inputs[node_map[v]][p]
                              for v, p in interface))
             for node_map in extend(0))
    return [
        Match(node_map, inputs, "nodes=" + ",".join(map(str, node_map)))
        for node_map, inputs in found
        if np_ == 1 or (not any(q >= 0 and q >> 1 in node_map
                                for q in inputs)
                        and convex(node_map))
    ]


def _replace(host: Diagram, pattern: Diagram, replacement: Diagram,
             match: Match) -> Optional[Diagram]:
    """Glue `replacement` into `host` at the matched occurrence.

    Returns None when the glued graph is too wide for a canonical form.
    It has no cycle: the match is convex and no matched node feeds it.
    """
    hg = host.graph
    pg = pattern.graph
    rg = replacement.graph
    matched = set(match.node_map)

    if not pg.nodes:
        # Wire splice: cut the matched wire and run it through the
        # replacement (which may itself be a bare wire, a no-op).
        try:
            return _canonical_splice(hg, match.inputs[0], rg)
        except DiagramError:
            return None

    keep = [v for v in range(len(hg.nodes)) if v not in matched]
    new_index = {v: i for i, v in enumerate(keep)}
    shift = 2 * len(keep)  # replacement ports follow the kept host nodes'

    # Pattern boundary outputs as host producer ports.
    pat_out_host: dict[int, int] = {}
    for j, prod in enumerate(pg.outputs):
        if prod >= 0:
            pat_out_host[2 * match.node_map[prod >> 1] + (prod & 1)] = j

    def resolve_host(p: int) -> int:
        """Port in the new graph for a host port (recursing at most once,
        as no matched node produces a match input)."""
        if p < 0:
            return p
        v = p >> 1
        if v not in matched:
            return 2 * new_index[v] + (p & 1)
        j = pat_out_host.get(p)
        if j is None:
            raise RewriteError("matched producer is not part of the interface")
        prod = rg.outputs[j]
        if prod >= 0:
            return shift + prod
        return resolve_host(match.inputs[~prod])

    nodes = [hg.nodes[v] for v in keep] + rg.nodes
    node_inputs = [tuple(resolve_host(p) for p in hg.node_inputs[v])
                   for v in keep]
    for row in rg.node_inputs:
        node_inputs.append(tuple(
            resolve_host(match.inputs[~p]) if p < 0 else shift + p
            for p in row))
    outputs = tuple(resolve_host(p) for p in hg.outputs)

    new_graph = _Graph(hg.n_in, hg.n_out, nodes, node_inputs, outputs)
    try:
        return _canonical_from_graph(new_graph)
    except DiagramError:
        return None


def rewrites(host: Diagram, rule: RewriteRule,
             direction: str) -> list[tuple[Match, Diagram]]:
    """All successful applications of one rule side, canonically ordered."""
    pattern, replacement = rule.sides(direction)
    out = []
    for match in find_matches(host, pattern):
        result = _replace(host, pattern, replacement, match)
        if result is not None:
            out.append((match, result))
    return out


def apply_rule(d: Diagram, rule: RewriteRule, position: int | str,
               direction: str = "->") -> Diagram:
    """Apply one rule at the given match position (index or locator)."""
    apps = rewrites(canonicalize(d), rule, direction)
    if isinstance(position, int):
        if position < 0 or position >= len(apps):
            raise RewriteError(
                f"rule {rule.name} {direction} has {len(apps)} match(es); "
                f"position {position} does not exist"
            )
        return apps[position][1]
    for match, result in apps:
        if match.position == position:
            return result
    raise RewriteError(
        f"rule {rule.name} {direction} does not match at {position!r}"
    )


# --- proof traces -------------------------------------------------------


@dataclass(frozen=True)
class TraceStep:
    rule: str
    direction: str
    position: str
    result: Diagram


@dataclass
class ProofTrace:
    """A replayable chain of rule applications between two diagrams."""

    lhs: Diagram
    rhs: Diagram
    theory_name: str
    steps: list[TraceStep] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.steps)

    def replay(self, rules: Sequence[RewriteRule]) -> None:
        """Re-run every step; raises RewriteError at the first bad one."""
        by_name = {r.name: r for r in rules}
        current = canonicalize(self.lhs)
        for i, step in enumerate(self.steps):
            rule = by_name.get(step.rule)
            if rule is None:
                raise RewriteError(f"step {i}: unknown rule {step.rule!r}")
            try:
                current = apply_rule(current, rule, step.position,
                                     step.direction)
            except RewriteError as exc:
                raise RewriteError(f"step {i}: {exc}") from None
            if current != step.result:
                raise RewriteError(
                    f"step {i}: replay produced a different diagram")
        if current != canonicalize(self.rhs):
            raise RewriteError("replay did not reach the second endpoint")


def serialize_trace(trace: ProofTrace) -> str:
    """Line format: `<rule> <dir> <position> -> <canonical-print>`."""
    lines = []
    for step in trace.steps:
        lines.append(
            f"{step.rule} {step.direction} {step.position} -> "
            f"{print_diagram(step.result)}"
        )
    return "\n".join(lines) + ("\n" if lines else "")


def _trace_step(text: str) -> TraceStep:
    head, arrow, result_text = text.rpartition("->")
    words = head.split()
    if not arrow or len(words) != 3:
        raise ValueError("malformed trace step")
    return TraceStep(*words, parse(result_text.strip()))


def parse_trace(text: str, lhs: Diagram, rhs: Diagram,
                theory_name: str) -> ProofTrace:
    records = read(text, {ANY: (Rest(_trace_step),)}, RewriteError)
    return ProofTrace(canonicalize(lhs), canonicalize(rhs), theory_name,
                      [r.values[0] for r in records])


# --- bidirectional search -----------------------------------------------


@dataclass(frozen=True)
class SearchBudget:
    max_states: int = 10**6
    max_depth: int = 12
    time_limit: float = 60.0

    def __post_init__(self) -> None:
        # `not > 0` rather than `<= 0`, so that a NaN time limit is refused
        if not (self.max_states > 0 and self.max_depth > 0
                and self.time_limit > 0):
            raise ValueError("budget components must be positive")


def _expansions(state: Diagram, rules: Sequence[RewriteRule]):
    """Successors of a state in canonical order."""
    for rule in rules:
        for direction in ("->", "<-"):
            for match, result in rewrites(state, rule, direction):
                yield rule.name, direction, match.position, result


def prove_equal(lhs: Diagram, rhs: Diagram, rules: Sequence[RewriteRule],
                budget: SearchBudget = SearchBudget(),
                theory_name: str = "") -> Optional[ProofTrace]:
    """Search for a rewrite proof that lhs equals rhs under the rules.

    Bidirectional breadth-first search over canonical forms; both frontiers
    are expanded alternately (smaller first) and intersected.  Returns None
    when no trace is found within budget.
    """
    lhs = canonicalize(lhs)
    rhs = canonicalize(rhs)
    if (lhs.n_in, lhs.n_out) != (rhs.n_in, rhs.n_out):
        raise ArityMismatch(
            f"goal sides have different arities {lhs.n_in}->{lhs.n_out} "
            f"vs {rhs.n_in}->{rhs.n_out}"
        )
    rules = sorted(rules, key=lambda r: r.name)
    deadline = time.monotonic() + budget.time_limit

    # parents[side][d] = (previous diagram, rule, direction, position)
    parents: list[dict[Diagram, Optional[tuple]]] = [{lhs: None}, {rhs: None}]
    frontier: list[list[Diagram]] = [[lhs], [rhs]]
    depth = [0, 0]

    def build_trace(mid: Diagram) -> ProofTrace:
        steps = []
        cur = mid
        while parents[0][cur] is not None:
            prev, rule, direction, pos = parents[0][cur]
            steps.append(TraceStep(rule, direction, pos, cur))
            cur = prev
        steps.reverse()
        # Invert the right-hand chain: steps from rhs towards mid replay
        # backwards, so each is re-oriented and its position recomputed.
        rule_by_name = {r.name: r for r in rules}
        cur = mid
        while parents[1][cur] is not None:
            prev, rule_name, direction, _pos = parents[1][cur]
            rule = rule_by_name[rule_name]
            flipped = "<-" if direction == "->" else "->"
            found = None
            for match, result in rewrites(cur, rule, flipped):
                if result == prev:
                    found = match
                    break
            if found is None:  # pragma: no cover - inverse always exists
                raise RewriteError("failed to invert a search step")
            steps.append(TraceStep(rule.name, flipped, found.position, prev))
            cur = prev
        trace = ProofTrace(lhs, rhs, theory_name, steps)
        trace.replay(rules)
        return trace

    if lhs == rhs:
        return build_trace(lhs)

    total_states = 2
    while frontier[0] and frontier[1]:
        side = 0 if len(frontier[0]) <= len(frontier[1]) else 1
        if depth[0] + depth[1] + 1 > budget.max_depth:
            return None
        other = 1 - side
        new_frontier: list[Diagram] = []
        for state in frontier[side]:
            if time.monotonic() > deadline:
                return None
            for rule_name, direction, pos, result in _expansions(state, rules):
                if result in parents[side]:
                    continue
                parents[side][result] = (state, rule_name, direction, pos)
                total_states += 1
                if result in parents[other]:
                    return build_trace(result)
                new_frontier.append(result)
                if total_states > budget.max_states:
                    return None
        frontier[side] = new_frontier
        depth[side] += 1
    return None
