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

Ports are the int ids of `diagram._Graph`.  A host's cached graph keeps
its label index, and a rule side's its match plan: per component an anchor
and a walk along wires from placed nodes.  A side that rules share is
matched once per state.  `diagram._canonical_splice` puts a unit or counit
wire splice into the host's canonical slices; other splices re-slice a copy.

`prove_equal` runs breadth-first search from both endpoints with a shared
frontier-intersection test.  Absence of a proof within budget is an
ordinary outcome, not an error; it never implies the equality is false.
"""

from __future__ import annotations

import itertools
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


@dataclass(frozen=True, slots=True)
class Match:
    """One occurrence of a pattern: node images plus the input interface;
    `position` is its printable locator (an identity side's by its wire)."""

    node_map: tuple[int, ...]          # pattern node -> host node
    inputs: tuple[int, ...]            # host producer port per pattern input

    @property
    def position(self) -> str:
        if self.node_map:
            return "nodes=" + ",".join(map(str, self.node_map))
        p = self.inputs[0]
        return f"wire=b{~p}" if p < 0 else f"wire=n{p >> 1}.{p & 1}"


def find_matches(host: Diagram, pattern: Diagram) -> list[Match]:
    """All occurrences of `pattern` in `host`, node maps ascending.

    The pattern's plan (`_Graph.match_plan`) places each of its connected
    components: the anchor on each host node of its label, then each other
    node along one host wire from a placed node, as VF2 grows a partial
    match (Cordella et al., IEEE TPAMI 26(10), 2004).  Injective
    combinations of the placements whose internal wires all check are kept.
    """
    hg, pg = host.graph, pattern.graph
    np_ = len(pg.nodes)
    if np_ == 0:
        if pg.n_in != 1 or pg.outputs != (~0,):
            raise RewriteError(
                "only the single identity wire is supported as an empty pattern"
            )
        ports = [~i for i in range(hg.n_in)] + [2 * v + j for v, (kind, _)
                                                 in enumerate(hg.nodes)
                                                 for j in range(ARITY[kind][1])]
        return [Match((), (p,)) for p in ports]

    interface, wires, components = pg.match_plan()
    if None in interface:
        raise RewriteError(
            "pattern carries a passive wire (an input no generator consumes); "
            "such rules are ambiguous to locate - rewrite the rule without "
            "the spectator wire"
        )
    host_by_label, consumers = hg.match_index()
    labels, rows = pg.nodes, hg.node_inputs

    def placements(anchor: int, steps: list) -> Iterator[list[int]]:
        """The images of one component, -1 on the other components' nodes."""
        for h in host_by_label.get(labels[anchor], ()):
            image = [-1] * np_
            image[anchor] = h
            for v, u, k, forward in steps:  # a boundary wire gives hv < 0
                hv = (hg.cons[2 * image[u] + k] if forward
                      else rows[image[u]][k] >> 1)
                if hv < 0 or hg.nodes[hv] != labels[v] or hv in image:
                    break
                image[v] = hv
            else:
                yield image

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

    # A placement follows from its anchor, so node maps come out ascending.
    matches = []
    for parts in itertools.product(*(placements(*c) for c in components)):
        node_map = tuple(map(max, [-1] * np_, *parts))
        if len(set(node_map)) < np_ or any(
                rows[node_map[v]][p] != 2 * node_map[u] + j
                for v, p, u, j in wires):
            continue
        inputs = tuple(rows[node_map[v]][p] for v, p in interface)
        # A pattern input fed by a matched node would be spliced into the
        # replacement's own output.  A single node, being acyclic, is fed
        # by no matched node and is always convex.
        if np_ == 1 or (not any(q >= 0 and q >> 1 in node_map
                                for q in inputs) and convex(node_map)):
            matches.append(Match(node_map, inputs))
    return matches


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


def rewrites(host: Diagram, rule: RewriteRule, direction: str,
             matches: Optional[list] = None) -> list[tuple[Match, Diagram]]:
    """All successful applications of one rule side, canonically ordered;
    ``matches`` are the side's matches in `host`, if already found."""
    pattern, replacement = rule.sides(direction)
    out = []
    for match in find_matches(host, pattern) if matches is None else matches:
        result = _replace(host, pattern, replacement, match)
        if result is not None:
            out.append((match, result))
    return out


def apply_rule(d: Diagram, rule: RewriteRule, locator: str,
               direction: str = "->") -> Diagram:
    """Apply one rule at the match its locator (`Match.position`) names;
    only that match is replaced."""
    host = canonicalize(d)
    pattern, replacement = rule.sides(direction)
    for match in find_matches(host, pattern):
        if match.position == locator:
            result = _replace(host, pattern, replacement, match)
            if result is not None:
                return result
    raise RewriteError(
        f"rule {rule.name} {direction} does not match at {locator!r}")


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
    return "".join(f"{step.rule} {step.direction} {step.position} -> "
                   f"{print_diagram(step.result)}\n" for step in trace.steps)


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
    """Successors of a state in canonical order.  A side that several
    rules share, such as the identity wire, is matched once."""
    found: dict[Diagram, list[Match]] = {}
    for rule in rules:
        for direction in ("->", "<-"):
            pattern = rule.sides(direction)[0]
            if pattern not in found:
                found[pattern] = find_matches(state, pattern)
            for match, result in rewrites(state, rule, direction,
                                          found[pattern]):
                yield rule.name, direction, match, result


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

    # parents[side][d] = (previous diagram, rule, direction, the Match)
    parents: list[dict[Diagram, Optional[tuple]]] = [{lhs: None}, {rhs: None}]
    frontier: list[list[Diagram]] = [[lhs], [rhs]]
    depth = [0, 0]

    def build_trace(mid: Diagram) -> ProofTrace:
        steps = []
        cur = mid
        while parents[0][cur] is not None:
            prev, rule, direction, match = parents[0][cur]
            steps.append(TraceStep(rule, direction, match.position, cur))
            cur = prev
        steps.reverse()
        # Invert the right-hand chain: steps from rhs towards mid replay
        # backwards, so each is re-oriented and its position recomputed.
        rule_by_name = {r.name: r for r in rules}
        cur = mid
        while parents[1][cur] is not None:
            prev, rule_name, direction, _match = parents[1][cur]
            rule = rule_by_name[rule_name]
            flipped = "<-" if direction == "->" else "->"
            pattern, replacement = rule.sides(flipped)
            found = next((m for m in find_matches(cur, pattern) if _replace(
                cur, pattern, replacement, m) == prev), None)
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
            for rule_name, direction, at, result in _expansions(state, rules):
                if result in parents[side]:
                    continue
                parents[side][result] = (state, rule_name, direction, at)
                total_states += 1
                if result in parents[other]:
                    return build_trace(result)
                new_frontier.append(result)
                if total_states > budget.max_states:
                    return None
        frontier[side] = new_frontier
        depth[side] += 1
    return None
