import hashlib
import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from moufang import rewrite
from moufang.diagram import (
    ARITY,
    LABELLABLE,
    LABELS,
    DiagramError,
    _Graph,
    _slices_from_graph,
    canonicalize,
    identity,
    raw_diagram,
)
from moufang.dsl import parse
from moufang.rewrite import (
    ProofTrace,
    RewriteError,
    RewriteRule,
    SearchBudget,
    TraceStep,
    apply_rule,
    find_matches,
    parse_trace,
    prove_equal,
    rewrites,
    serialize_trace,
)
from moufang.theories import base_rules, flag_rules, goal_suite, named_theory


def rule_by_name(name):
    for r in base_rules():
        if r.name == name:
            return r
    for flag in ("comoufang_l", "comoufang_r", "cocomm"):
        for r in flag_rules(flag):
            if r.name == name:
                return r
    raise KeyError(name)


def test_rule_sides_must_share_arities():
    with pytest.raises(RewriteError):
        RewriteRule("bad", parse("mul"), parse("comul"))


def test_apply_counit_rule():
    host = parse("comul ; (counit * id(1))")
    out = apply_rule(host, rule_by_name("counit-l"), "nodes=0,1")
    assert out == parse("id(1)")


def test_apply_cocomm_to_q():
    host = parse("comul ; mul")
    out = apply_rule(host, rule_by_name("cocomm"), "nodes=0")
    assert out == parse("comul ; swap ; mul")


def test_apply_comoufang_at_root():
    rule = rule_by_name("comoufang_l")
    assert apply_rule(rule.lhs, rule, "nodes=0,1,2,3") == rule.rhs


def test_apply_no_match_error():
    with pytest.raises(RewriteError):
        apply_rule(parse("mul"), rule_by_name("counit-l"), "nodes=0")


def test_identity_pattern_matches_every_wire():
    host = parse("comul ; mul")
    matches = find_matches(host, parse("id(1)"))
    # wires: 1 boundary input, 2 comul outputs, 1 mul output
    assert len(matches) == 4


def test_reverse_counit_inserts_a_split():
    host = parse("id(1)")
    apps = rewrites(host, rule_by_name("counit-l"), "<-")
    assert len(apps) == 1
    assert apps[0][1] == parse("comul ; counit * id(1)")


def test_prove_reflexivity_is_empty_trace():
    theory = named_theory("base")
    d = parse("comul ; mul")
    trace = prove_equal(d, d, theory.rules)
    assert trace is not None and len(trace) == 0


def test_prove_counit_law_one_step():
    theory = named_theory("base")
    trace = prove_equal(
        parse("comul ; (counit * id(1))"), parse("id(1)"), theory.rules
    )
    assert trace is not None and len(trace) == 1


def test_unprovable_within_budget_returns_none():
    theory = named_theory("base")
    budget = SearchBudget(max_states=3000, max_depth=4, time_limit=10.0)
    assert prove_equal(parse("mul"), parse("swap ; mul"),
                       theory.rules, budget) is None


def test_search_is_deterministic():
    theory = named_theory("comoufang")
    goal = (
        parse("comul ; id(1) * comul ; mul * id(1)"),
        parse("comul ; comul * id(1) ; mul * id(1)"),
    )
    t1 = prove_equal(*goal, theory.rules)
    t2 = prove_equal(*goal, theory.rules)
    assert serialize_trace(t1) == serialize_trace(t2)


def test_search_symmetry_adjacent_depth():
    theory = named_theory("comoufang")
    lhs = parse("comul ; id(1) * comul ; mul * id(1)")
    rhs = parse("comul ; comul * id(1) ; mul * id(1)")
    fwd = prove_equal(lhs, rhs, theory.rules)
    bwd = prove_equal(rhs, lhs, theory.rules)
    assert fwd is not None and bwd is not None
    assert abs(len(fwd) - len(bwd)) <= 1


def test_trace_roundtrip_through_text():
    theory = named_theory("comoufang")
    lhs = parse("comul ; id(1) * comul ; mul * id(1)")
    rhs = parse("comul ; comul * id(1) ; mul * id(1)")
    trace = prove_equal(lhs, rhs, theory.rules, theory_name=theory.name)
    text = serialize_trace(trace)
    reparsed = parse_trace(text, lhs, rhs, theory.name)
    reparsed.replay(theory.rules)


def test_corrupted_trace_reports_step_index():
    theory = named_theory("base")
    lhs = parse("comul ; (counit * id(1))")
    trace = prove_equal(lhs, parse("id(1)"), theory.rules,
                        theory_name="base")
    bad = ProofTrace(trace.lhs, trace.rhs, "base", [
        TraceStep("unit-l", trace.steps[0].direction,
                  trace.steps[0].position, trace.steps[0].result)
    ])
    with pytest.raises(RewriteError) as err:
        bad.replay(theory.rules)
    assert "step 0" in str(err.value)


def test_budget_validation():
    with pytest.raises(ValueError):
        SearchBudget(max_states=0)


def test_plain_rule_does_not_match_series_labels():
    rule = rule_by_name("cocomm")
    zero_branch = parse("comul%0 ; mul")
    # plain-comul rules do not touch a labelled constant part
    assert rewrites(zero_branch, rule, "->") == []
    with pytest.raises(RewriteError):
        apply_rule(zero_branch, rule, "nodes=0")
    # on the unlabelled drawing the same rule goes through
    assert apply_rule(parse("comul ; mul"), rule, "nodes=0") == parse(
        "comul ; swap ; mul")


def test_passive_wire_pattern_rejected():
    from moufang.rewrite import find_matches

    host = parse("comul ; mul")
    with pytest.raises(RewriteError):
        find_matches(host, parse("counit * id(1)"))
    with pytest.raises(RewriteError):
        find_matches(host, parse("swap"))


@pytest.mark.parametrize("pattern", [
    "counit * id(1)", "mul * id(1) * comul", "unit * id(1) * unit"])
def test_passive_wire_pattern_keeps_its_message(pattern):
    """A passive wire is refused with one message, on every call, also when
    the pattern's other nodes form several components."""
    p = parse(pattern)
    for host in (parse("comul ; mul"), parse("mul * unit")):
        with pytest.raises(RewriteError, match=(
                r"^pattern carries a passive wire \(an input no generator "
                r"consumes\); such rules are ambiguous to locate - rewrite "
                r"the rule without the spectator wire$")):
            find_matches(host, p)


def test_rewrite_error_carries_failing_step():
    theory = named_theory("base")
    lhs = parse("comul ; (counit * id(1))")
    trace = prove_equal(lhs, parse("id(1)"), theory.rules, theory_name="base")
    bad = ProofTrace(trace.lhs, trace.rhs, "base",
                     list(trace.steps) + [TraceStep("no-such-rule", "->", "0",
                                                    trace.rhs)])
    with pytest.raises(RewriteError) as info:
        bad.replay(theory.rules)
    assert str(info.value).startswith(f"step {len(trace.steps)}:")


def test_rewrite_error_without_step():
    theory = named_theory("base")
    unfinished = ProofTrace(parse("comul ; (counit * id(1))"), parse("id(1)"),
                            "base", [])
    with pytest.raises(RewriteError) as info:
        unfinished.replay(theory.rules)
    assert not str(info.value).startswith("step")


def test_splice_closing_a_cycle_is_refused():
    """Host mul 0 feeds mul 1 directly, so both muls at nodes 0,1 (or 1,0)
    are convex; but the pattern leaves that wire open, and splicing there
    would plug the replacement's output into its own input.  Neither
    match is offered, and the host has no rewrite."""
    rule = RewriteRule("cross", parse("mul * mul"),
                       parse("id(1) * swap * id(1) ; mul * mul"))
    host = parse("mul * id(1) ; mul")
    assert find_matches(host, rule.lhs) == []
    assert rewrites(host, rule, "->") == []
    assert rewrites(host, rule, "<-") == []


def test_non_convex_match_is_refused():
    """Host mul 0 feeds mul 2 through the unmatched comul, so a match of
    both muls is not convex, in either order."""
    rule = RewriteRule("cross", parse("mul * mul"),
                       parse("id(1) * swap * id(1) ; mul * mul"))
    host = parse("mul * id(1) ; comul * id(1) ; id(1) * mul")
    assert find_matches(host, rule.lhs) == []
    positions = [m.position for m, _ in rewrites(host, rule, "->")]
    assert "nodes=0,2" not in positions and "nodes=2,0" not in positions


def test_match_position_names_the_nodes_or_the_wire():
    host = parse("comul ; mul")
    assert [m.position for m in find_matches(host, parse("mul"))] == [
        "nodes=1"]
    assert [m.position for m in find_matches(host, parse("id(1)"))] == [
        "wire=b0", "wire=n0.0", "wire=n0.1", "wire=n1.0"]


def test_matches_check_every_wire():
    """A match reaches each node along one wire, and every other wire is
    checked too: of two wires between the same nodes, both must agree."""
    straight, crossed = parse("comul ; mul"), parse("comul ; swap ; mul")
    for host, pattern, n in ((straight, straight, 1), (crossed, straight, 0),
                             (straight, crossed, 0), (crossed, crossed, 1)):
        assert [m.node_map for m in find_matches(host, pattern)] == [
            (0, 1)] * n


@st.composite
def _small_host(draw):
    """A random canonical host of at most 9 generators on at most 5 wires."""
    w = n_in = draw(st.integers(1, 4))
    slices = []
    for _ in range(draw(st.integers(1, 9))):
        options = [kind for kind in ("mul", "comul", "swap", "unit", "counit")
                   if ARITY[kind][0] <= w
                   and w - ARITY[kind][0] + ARITY[kind][1] <= 5]
        kind = draw(st.sampled_from(options))
        slices.append((kind, None, draw(st.integers(0, w - ARITY[kind][0]))))
        w += ARITY[kind][1] - ARITY[kind][0]
    return canonicalize(raw_diagram(n_in, slices))


def _producer(port):
    """A port id as ("b", i) for boundary input i or (node, output)."""
    return ("b", ~port) if port < 0 else (port >> 1, port & 1)


def _node_inputs(graph):
    """The graph's producer rows, decoded with `_producer`."""
    return [tuple(map(_producer, row)) for row in graph.node_inputs]


def _brute_force_matches(hg, pg):
    """Every label-preserving injection of pattern nodes into host nodes
    that keeps the pattern's internal wires, less those where some host
    path leaves the image and comes back to it, by enumerating paths, and
    those where a host wire runs from the image into a pattern input."""
    host_inputs, pattern_inputs = _node_inputs(hg), _node_inputs(pg)

    def paths(v):
        """Every directed host path that starts at node v."""
        yield (v,)
        for w, row in enumerate(host_inputs):
            if any(prod[0] == v for prod in row):
                for rest in paths(w):
                    yield (v,) + rest

    out = []
    for node_map in itertools.product(*(
            [h for h, node in enumerate(hg.nodes) if node == label]
            for label in pg.nodes)):
        if len(set(node_map)) < len(node_map):
            continue
        if any(prod[0] != "b"
               and host_inputs[node_map[v]][p] != (node_map[prod[0]],
                                                   prod[1])
               for v, row in enumerate(pattern_inputs)
               for p, prod in enumerate(row)):
            continue
        image = set(node_map)
        if any(prod[0] == "b" and host_inputs[node_map[v]][p][0] in image
               for v, row in enumerate(pattern_inputs)
               for p, prod in enumerate(row)):
            continue
        if any(path[-1] in image and not image.issuperset(path)
               for v in node_map for path in paths(v)):
            continue
        out.append(node_map)
    return out


_PATTERNS = ("mul * mul", "comul * comul", "mul * comul", "comul * mul",
             "comul ; id(1) * comul", "mul * mul * mul", "comul ; mul",
             "comul ; swap ; mul")
# and each side of a comoufang rule that has a node: among them the
# disconnected unit * unit and counit * counit, and the co-Moufang sides,
# whose wires cross
_RULE_SIDES = tuple(side for rule in named_theory("comoufang").rules
                    for side in (rule.lhs, rule.rhs) if side.graph.nodes)


_SPLICE_RULES = ("counit-l", "counit-r", "unit-l", "unit-r")


@st.composite
def _splice_host(draw):
    """A random canonical host like `_small_host`, from 0 inputs, with
    labelled generators, closed unit-counit bubbles and unit-comul pairs
    whose outputs feed the rest of the host.  Two such pairs are closed
    bubbles ready together, which the slicer orders by what lies below
    them, so a splice below one of them can reorder them."""
    w = n_in = draw(st.integers(0, 4))
    slices = []
    for _ in range(draw(st.integers(1, 9))):
        options = [kind for kind in ("mul", "comul", "swap", "unit", "counit")
                   if ARITY[kind][0] <= w
                   and w - ARITY[kind][0] + ARITY[kind][1] <= 5] + ["bubble"]
        if w <= 3:
            options.append("split unit")
        kind = draw(st.sampled_from(options))
        off = draw(st.integers(0, w - ARITY.get(kind, (0,))[0]))
        if kind == "bubble":
            slices += [("unit", None, off), ("counit", None, off)]
            continue
        if kind == "split unit":
            slices += [("unit", None, off),
                       ("comul", draw(st.sampled_from(LABELS)), off)]
            w += 2
            continue
        label = draw(st.sampled_from(LABELS)) if kind in LABELLABLE else None
        slices.append((kind, label, off))
        w += ARITY[kind][1] - ARITY[kind][0]
    return canonicalize(raw_diagram(n_in, slices))


@given(host=st.one_of(_small_host(), _splice_host()),
       pattern=st.sampled_from(tuple(map(parse, _PATTERNS)) + _RULE_SIDES))
@settings(max_examples=300, deadline=None)
def test_matches_are_the_convex_embeddings(host, pattern):
    """`find_matches` returns exactly the embeddings that no host path
    leaves and re-enters and whose inputs no matched node feeds, in
    ascending order of their node maps."""
    got = [m.node_map for m in find_matches(host, pattern)]
    assert got == _brute_force_matches(host.graph, pattern.graph)


def _apply_rule_by_every_application(d, rule, position, direction):
    """`apply_rule` by computing every application of the rule side and
    keeping one: its result, or the text of the RewriteError it raises."""
    for match, result in rewrites(canonicalize(d), rule, direction):
        if match.position == position:
            return result
    return f"rule {rule.name} {direction} does not match at {position!r}"


@given(host=st.one_of(_small_host(), _splice_host()),
       rule=st.sampled_from(named_theory("comoufang").rules),
       direction=st.sampled_from(("->", "<-")))
@example(host=parse("id(14) * comul"), rule=rule_by_name("unit-l"),
         direction="<-")
@example(host=parse("id(14) * comul"), rule=rule_by_name("counit-r"),
         direction="<-")
@settings(max_examples=200, deadline=None)
def test_apply_rule_replaces_only_the_named_match(host, rule, direction):
    """At every match's locator and at two that name no match,
    `apply_rule` gives what keeping one of all the applications gives, or
    the same error text.  In the examples some splices are too wide, so a
    match can have no application."""
    matches = find_matches(host, rule.sides(direction)[0])
    positions = [m.position for m in matches] + ["nodes=99", "wire=b9"]
    for position in positions:
        try:
            got = apply_rule(host, rule, position, direction)
        except RewriteError as exc:
            got = str(exc)
        assert got == _apply_rule_by_every_application(
            host, rule, position, direction)


def _splices_by_slices(host, side):
    """(position, result) for `side` drawn on each wire of the host's
    slices where that wire is live, canonicalized from the slices alone;
    wires whose drawing is too wide are left out."""
    wires = [(f"wire=b{i}", 0, i) for i in range(host.n_in)]
    v = 0
    for at, (kind, _label, off) in enumerate(host.slices):
        if kind != "swap":
            wires += [(f"wire=n{v}.{q}", at + 1, off + q)
                      for q in range(ARITY[kind][1])]
            v += 1
    out = []
    for position, at, wire in wires:
        drawn = [(kind, label, off + wire) for kind, label, off in side.slices]
        try:
            out.append((position, canonicalize(raw_diagram(
                host.n_in, host.slices[:at] + tuple(drawn)
                + host.slices[at:]))))
        except DiagramError:
            pass
    return out


@given(host=_splice_host())
@settings(max_examples=200, deadline=None)
def test_wire_splices_match_splicing_the_slices(host):
    """Each `id(1)`-pattern rule applied `<-` at every wire of the host
    gives what drawing the rule side on that wire of the host's slices
    and canonicalizing gives, in the same order; the host's cached port
    graph is left as it was."""
    graph = host.graph
    before = (list(graph.nodes), list(graph.node_inputs), graph.outputs,
              list(graph.cons), list(graph.waits))
    for name in _SPLICE_RULES:
        rule = rule_by_name(name)
        got = [(m.position, result)
               for m, result in rewrites(host, rule, "<-")]
        assert got == _splices_by_slices(host, rule.lhs), name
    assert host.graph is graph
    assert (list(graph.nodes), list(graph.node_inputs), graph.outputs,
            list(graph.cons), list(graph.waits)) == before


@pytest.mark.parametrize("name", _SPLICE_RULES)
def test_wire_splice_width_limit(name):
    """A splice that widens the host past MAX_WIRES gives no result."""
    rule = rule_by_name(name)
    assert rewrites(identity(16), rule, "<-") == []
    assert len(rewrites(identity(15), rule, "<-")) == 15


@pytest.fixture(scope="module")
def goal_suite_splices():
    """Every wire splice of the goal suite's searches at the default
    budget, as (host graph, port, side graph), and how many of them
    `_Graph.splice_wire` copied the host for."""
    splices, copies = [], []
    splice, splice_wire = rewrite._canonical_splice, _Graph.splice_wire

    def recorded(graph, p0, rg):
        splices.append((graph, p0, rg))
        return splice(graph, p0, rg)

    def counted(graph, p0, rg):
        copies.append(p0)
        return splice_wire(graph, p0, rg)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rewrite, "_canonical_splice", recorded)
        patch.setattr(_Graph, "splice_wire", counted)
        for goal in goal_suite():
            if goal.kind == "provable":
                rules = named_theory(goal.theory).rules
                assert prove_equal(goal.lhs, goal.rhs, rules) is not None
                assert prove_equal(goal.rhs, goal.lhs, rules) is not None
    return splices, len(copies)


def _slices_or_refusal(make):
    """What `make()` returns, or the message of the DiagramError it raises."""
    try:
        return make()
    except DiagramError as exc:
        return str(exc)


def test_goal_suite_wire_splices_match_the_full_path(goal_suite_splices):
    """Each wire splice the searches make gives the slices of canonicalizing
    the spliced copy of the host, or the same refusal."""
    splices, _copies = goal_suite_splices
    for graph, p0, rg in splices:
        assert _slices_or_refusal(
            lambda: rewrite._canonical_splice(graph, p0, rg).slices
        ) == _slices_or_refusal(
            lambda: _slices_from_graph(graph.splice_wire(p0, rg)))


def test_goal_suite_splice_shortcuts_are_counted(goal_suite_splices):
    """How many of the searches' wire splices go into the host's slices
    and how many copy and re-slice the host; a change that sends more of
    them to the copy fails here, not only in a timing.  Replay and the
    inversion of right-hand steps splice only up to the named match."""
    splices, copies = goal_suite_splices
    assert (len(splices) - copies, copies) == (5193, 1515)


def test_goal_suite_traces_are_pinned():
    """Every provable goal, in both orientations, at the default budget."""
    text = ""
    for goal in goal_suite():
        if goal.kind != "provable":
            continue
        rules = named_theory(goal.theory).rules
        for a, b in ((goal.lhs, goal.rhs), (goal.rhs, goal.lhs)):
            trace = prove_equal(a, b, rules)
            assert trace is not None, goal.name
            text += serialize_trace(trace)
    assert hashlib.sha1(text.encode()).hexdigest() == (
        "1b2d03d5f0ee308b72e08ca491b2920f9b4e007c")
