"""Bounded bidirectional rewriting over canonical diagrams.

Rules are bidirectional diagram pairs.  A rule side matches a host diagram
through its port graph: a label-preserving injection of pattern nodes into
host nodes that respects all internal wiring, with the pattern boundary cut
anywhere in the host.  Matching is therefore automatically up to the
interchange law and swap naturality.  A rule side that is a single identity
wire matches every wire of the host.

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
    canonicalize,
)


class RewriteError(DiagramError):
    """Invalid rule, position, or replay step.

    ``step`` is the index of the failing trace step, or None when the
    error is not about one step.
    """

    def __init__(self, message: str, step: Optional[int] = None) -> None:
        super().__init__(message)
        self.step = step


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
    inputs: tuple[tuple, ...]          # host producer per pattern input
    position: str                      # printable locator

    def sort_key(self) -> tuple:
        # producers are ("b", i) or (node, port); normalize for ordering
        inputs = tuple(
            ("b", p[1]) if p[0] == "b" else ("n", p[0], p[1])
            for p in self.inputs
        )
        return (self.node_map, inputs)


def _producer_name(p: tuple) -> str:
    return f"b{p[1]}" if p[0] == "b" else f"n{p[0]}.{p[1]}"


def find_matches(host: Diagram, pattern: Diagram) -> list[Match]:
    """All occurrences of `pattern` in `host`, in a fixed canonical order."""
    hg = host.graph
    pg = pattern.graph
    np_ = len(pg.nodes)
    if np_ == 0:
        if pg.n_in != 1 or pg.outputs != (("b", 0),):
            raise RewriteError(
                "only the single identity wire is supported as an empty pattern"
            )
        producers = [("b", i) for i in range(hg.n_in)] + [
            (v, q) for v in range(len(hg.nodes))
            for q in range(ARITY[hg.nodes[v][0]][1])
        ]
        return [
            Match((), (p,), f"wire={_producer_name(p)}") for p in producers
        ]

    consumed = {
        prod[1] for v in range(np_) for prod in pg.node_inputs[v]
        if prod[0] == "b"
    }
    if consumed != set(range(pg.n_in)):
        raise RewriteError(
            "pattern carries a passive wire (an input no generator consumes); "
            "such rules are ambiguous to locate - rewrite the rule without "
            "the spectator wire"
        )

    matches: list[Match] = []
    host_by_label: dict[tuple, list[int]] = {}
    for i, nl in enumerate(hg.nodes):
        host_by_label.setdefault(nl, []).append(i)

    assignment: list[int] = []
    used: set[int] = set()

    def inputs_of(partial: Sequence[int]) -> Optional[tuple]:
        interface: dict[int, tuple] = {}
        for v, hv in enumerate(partial):
            for p, prod in enumerate(pg.node_inputs[v]):
                hp = hg.node_inputs[hv][p]
                if prod[0] == "b":
                    interface[prod[1]] = hp
                else:
                    u, q = prod
                    if hp != (partial[u], q):
                        return None
        return tuple(interface[i] for i in range(pg.n_in))

    def extend(v: int) -> Iterator[tuple[int, ...]]:
        if v == np_:
            yield tuple(assignment)
            return
        for hv in host_by_label.get(pg.nodes[v], ()):
            if hv in used:
                continue
            ok = True
            for p, prod in enumerate(pg.node_inputs[v]):
                if prod[0] != "b":
                    u, q = prod
                    if u < v and hg.node_inputs[hv][p] != (assignment[u], q):
                        ok = False
                        break
            if not ok:
                continue
            assignment.append(hv)
            used.add(hv)
            yield from extend(v + 1)
            assignment.pop()
            used.discard(hv)

    for node_map in extend(0):
        inputs = inputs_of(node_map)
        if inputs is None:
            continue
        # internal pattern wires must also be internal in the host: the host
        # consumer of an image port must be the image of the pattern consumer.
        # This holds automatically because each host producer has a unique
        # consumer, which the wiring constraints above pin down.
        pos = "nodes=" + ",".join(str(h) for h in node_map)
        matches.append(Match(node_map, inputs, pos))
    matches.sort(key=Match.sort_key)
    return matches


def _replace(host: Diagram, pattern: Diagram, replacement: Diagram,
             match: Match) -> Optional[Diagram]:
    """Glue `replacement` into `host` at the matched occurrence.

    Returns None when the splice would create a cycle (non-convex match).
    """
    hg = host.graph
    pg = pattern.graph
    rg = replacement.graph
    matched = set(match.node_map)

    if not pg.nodes:
        # Wire splice: cut the matched wire and run it through the
        # replacement (which may itself be a bare wire, a no-op).
        p0 = match.inputs[0]
        offset = len(hg.nodes)
        rp = rg.outputs[0]
        new_out = p0 if rp[0] == "b" else (offset + rp[0], rp[1])

        def tr(p: tuple) -> tuple:
            return new_out if p == p0 else p

        nodes = list(hg.nodes) + list(rg.nodes)
        node_inputs = [
            tuple(tr(p) for p in hg.node_inputs[v])
            for v in range(len(hg.nodes))
        ]
        for w in range(len(rg.nodes)):
            node_inputs.append(tuple(
                p0 if p[0] == "b" else (offset + p[0], p[1])
                for p in rg.node_inputs[w]
            ))
        outputs = tuple(tr(p) for p in hg.outputs)
        new_graph = _Graph(hg.n_in, hg.n_out, nodes, node_inputs, outputs)
        try:
            return _canonical_from_graph(new_graph)
        except DiagramError:
            return None

    keep = [v for v in range(len(hg.nodes)) if v not in matched]
    new_index = {v: i for i, v in enumerate(keep)}
    offset = len(keep)  # replacement nodes appended after kept host nodes

    # Pattern boundary outputs as host producers.
    pat_out_host: dict[tuple, int] = {}
    for j, prod in enumerate(pg.outputs):
        if prod[0] != "b":
            u, q = prod
            pat_out_host[(match.node_map[u], q)] = j

    resolving: set = set()

    def resolve_host(p: tuple) -> tuple:
        """Producer in the new graph for a host producer."""
        if p[0] == "b":
            return p
        v, q = p
        if v not in matched:
            return (new_index[v], q)
        j = pat_out_host.get((v, q))
        if j is None:
            raise RewriteError("matched producer is not part of the interface")
        return resolve_repl_out(j)

    def resolve_repl_out(j: int) -> tuple:
        if j in resolving:
            raise _CycleError()
        prod = rg.outputs[j]
        if prod[0] != "b":
            return (offset + prod[0], prod[1])
        resolving.add(j)
        try:
            return resolve_host(match.inputs[prod[1]])
        finally:
            resolving.discard(j)

    class _CycleError(Exception):
        pass

    try:
        nodes = [hg.nodes[v] for v in keep] + list(rg.nodes)
        node_inputs = []
        for v in keep:
            node_inputs.append(
                tuple(resolve_host(p) for p in hg.node_inputs[v])
            )
        for w in range(len(rg.nodes)):
            row = []
            for p in rg.node_inputs[w]:
                if p[0] == "b":
                    row.append(resolve_host(match.inputs[p[1]]))
                else:
                    row.append((offset + p[0], p[1]))
            node_inputs.append(tuple(row))
        outputs = tuple(resolve_host(p) for p in hg.outputs)
    except _CycleError:
        return None

    new_graph = _Graph(hg.n_in, hg.n_out, nodes, node_inputs, outputs)
    if _has_cycle(new_graph):
        return None
    try:
        return _canonical_from_graph(new_graph)
    except DiagramError:
        return None  # e.g. wire-count bound exceeded


def _has_cycle(graph: _Graph) -> bool:
    n = len(graph.nodes)
    preds = [
        [p[0] for p in graph.node_inputs[v] if p[0] != "b"] for v in range(n)
    ]
    state = [0] * n  # 0 unseen, 1 active, 2 done

    for start in range(n):
        if state[start]:
            continue
        stack = [(start, iter(preds[start]))]
        state[start] = 1
        while stack:
            v, it = stack[-1]
            advanced = False
            for u in it:
                if state[u] == 1:
                    return True
                if state[u] == 0:
                    state[u] = 1
                    stack.append((u, iter(preds[u])))
                    advanced = True
                    break
            if not advanced:
                state[v] = 2
                stack.pop()
    return False


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


def apply_rule_in_sum(s, h_degree: int, term: Diagram, rule: RewriteRule,
                      position: int | str, direction: str = "->"):
    """Rewrite one summand of a formal combination; like terms collect.

    The rewritten term keeps its coefficient and h-degree; the rest of the
    sum is untouched.  Series-labelled generators match only rules that
    carry the same labels, so degree bookkeeping survives rewriting.
    """
    from .diagram import DiagramSum

    key = (h_degree, canonicalize(term))
    coeff = s.terms.get(key)
    if coeff is None:
        raise RewriteError("the sum has no such term")
    replaced = apply_rule(term, rule, position, direction)
    return (s - DiagramSum.of(key[1], coeff, h_degree)
            + DiagramSum.of(replaced, coeff, h_degree))


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
                raise RewriteError(f"step {i}: unknown rule {step.rule!r}",
                                   step=i)
            try:
                current = apply_rule(current, rule, step.position,
                                     step.direction)
            except RewriteError as exc:
                raise RewriteError(f"step {i}: {exc}", step=i) from None
            if current != step.result:
                raise RewriteError(
                    f"step {i}: replay produced a different diagram", step=i
                )
        if current != canonicalize(self.rhs):
            raise RewriteError("replay did not reach the second endpoint")


def serialize_trace(trace: ProofTrace) -> str:
    """Line format: `<rule> <dir> <position> -> <canonical-print>`."""
    from .dsl import print_diagram

    lines = []
    for step in trace.steps:
        lines.append(
            f"{step.rule} {step.direction} {step.position} -> "
            f"{print_diagram(step.result)}"
        )
    return "\n".join(lines) + ("\n" if lines else "")


def parse_trace(text: str, lhs: Diagram, rhs: Diagram,
                theory_name: str) -> ProofTrace:
    from .dsl import parse

    steps = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            head, result_text = line.rsplit("->", 1)
            rule, direction, position = head.split()
        except ValueError:
            raise RewriteError(f"line {lineno}: malformed trace step") from None
        steps.append(
            TraceStep(rule, direction, position, parse(result_text.strip()))
        )
    return ProofTrace(canonicalize(lhs), canonicalize(rhs), theory_name, steps)


# --- soundness of traces against models -----------------------------------


@dataclass
class ModelSoundness:
    model: str
    max_discrepancy: "object"          # a Fraction; exactly 0 when sound
    inputs_checked: int


@dataclass
class SoundnessReport:
    replay_ok: bool
    failed_step: Optional[tuple[int, str]]
    per_model: list[ModelSoundness]

    @property
    def sound(self) -> bool:
        return self.replay_ok and all(
            m.max_discrepancy == 0 for m in self.per_model
        )


def check_soundness(trace: ProofTrace, model_list, theory) -> SoundnessReport:
    """Replay a trace and evaluate its endpoints on every model, exactly.

    Every model must be registered for the trace's theory (its declared
    flags cover the theory's flags); a mismatch is an error, not a report
    entry.  The report lists the largest absolute difference between the
    endpoint evaluations over all (capped) basis inputs per model; in exact
    arithmetic a sound trace yields exactly zero everywhere.
    """
    from fractions import Fraction

    from .models import basis_sweep

    for model in model_list:
        missing = set(theory.flags) - set(model.satisfied_flags)
        if missing:
            raise RewriteError(
                f"model {model.name} is not registered for theory "
                f"{theory.name}: missing flags {sorted(missing)}"
            )
    try:
        trace.replay(theory.rules)
    except RewriteError as exc:
        index = -1 if exc.step is None else exc.step
        return SoundnessReport(False, (index, str(exc)), [])

    per_model = []
    for model in model_list:
        worst = Fraction(0)
        count = 0
        for _key, (diff,) in basis_sweep(trace.lhs, trace.rhs, model):
            for v in diff.values():
                if abs(v) > worst:
                    worst = abs(v)
            count += 1
        per_model.append(ModelSoundness(model.name, worst, count))
    return SoundnessReport(True, None, per_model)


# --- bidirectional search -----------------------------------------------


@dataclass(frozen=True)
class SearchBudget:
    max_states: int = 10**6
    max_depth: int = 12
    time_limit: float = 60.0

    def __post_init__(self) -> None:
        if self.max_states <= 0 or self.max_depth <= 0 or self.time_limit <= 0:
            raise ValueError("budget components must be positive")


class BudgetExceeded(Exception):
    """Internal signal: stop the search and report no trace found."""


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

    meeting = lhs if lhs in parents[1] else None

    def build_trace(mid: Diagram) -> ProofTrace:
        left_chain = []
        cur = mid
        while parents[0][cur] is not None:
            prev, rule, direction, pos = parents[0][cur]
            left_chain.append(TraceStep(rule, direction, pos, cur))
            cur = prev
        left_chain.reverse()
        steps = list(left_chain)
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

    if meeting is not None:
        return build_trace(meeting)

    total_states = 2
    while frontier[0] and frontier[1]:
        side = 0 if len(frontier[0]) <= len(frontier[1]) else 1
        if depth[0] + depth[1] + 1 > budget.max_depth:
            return None
        other = 1 - side
        new_frontier: list[Diagram] = []
        try:
            for state in frontier[side]:
                if time.monotonic() > deadline:
                    raise BudgetExceeded()
                for rule_name, direction, pos, result in _expansions(
                    state, rules
                ):
                    if result in parents[side]:
                        continue
                    parents[side][result] = (state, rule_name, direction, pos)
                    total_states += 1
                    if result in parents[other]:
                        depth[side] += 1
                        return build_trace(result)
                    new_frontier.append(result)
                    if total_states > budget.max_states:
                        raise BudgetExceeded()
        except BudgetExceeded:
            return None
        frontier[side] = new_frontier
        depth[side] += 1
    return None
