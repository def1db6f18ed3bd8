import pytest

from moufang.dsl import parse
from moufang.rewrite import (
    ProofTrace,
    RewriteError,
    RewriteRule,
    SearchBudget,
    TraceStep,
    apply_rule,
    check_soundness,
    find_matches,
    parse_trace,
    prove_equal,
    rewrites,
    serialize_trace,
)
from moufang.theories import base_rules, flag_rules, named_theory


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
    out = apply_rule(host, rule_by_name("counit-l"), 0)
    assert out == parse("id(1)")


def test_apply_cocomm_to_q():
    host = parse("comul ; mul")
    out = apply_rule(host, rule_by_name("cocomm"), 0)
    assert out == parse("comul ; swap ; mul")


def test_apply_comoufang_at_root():
    rule = rule_by_name("comoufang_l")
    assert apply_rule(rule.lhs, rule, 0) == rule.rhs


def test_apply_no_match_error():
    with pytest.raises(RewriteError):
        apply_rule(parse("mul"), rule_by_name("counit-l"), 0)


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


def test_check_soundness_zero_discrepancy(binomial6):
    theory = named_theory("base")
    lhs = parse("comul ; (counit * id(1))")
    trace = prove_equal(lhs, parse("id(1)"), theory.rules,
                        theory_name="base")
    report = check_soundness(trace, [binomial6], theory)
    assert report.sound
    assert all(m.max_discrepancy == 0 for m in report.per_model)


def test_check_soundness_rejects_unregistered_model(binomial6):
    theory = named_theory("moufang")
    trace = ProofTrace(parse("id(1)"), parse("id(1)"), "moufang", [])
    with pytest.raises(RewriteError):
        check_soundness(trace, [binomial6], theory)


def test_check_soundness_reports_corrupt_step(binomial6):
    theory = named_theory("base")
    lhs = parse("comul ; (counit * id(1))")
    trace = prove_equal(lhs, parse("id(1)"), theory.rules, theory_name="base")
    bad = ProofTrace(trace.lhs, trace.rhs, "base", [
        TraceStep("unit-l", "->", trace.steps[0].position,
                  trace.steps[0].result)
    ])
    report = check_soundness(bad, [binomial6], theory)
    assert not report.replay_ok
    assert report.failed_step[0] == 0


def test_budget_validation():
    with pytest.raises(ValueError):
        SearchBudget(max_states=0)


def test_apply_rule_in_sum_collects_like_terms():
    from moufang.diagram import DiagramSum, split_series_node
    from moufang.rewrite import apply_rule_in_sum

    q = parse("comul ; mul")
    split = split_series_node(q, 0)  # comul%0 branch + comul%+ branch
    zero_branch = parse("comul%0 ; mul")
    rule = rule_by_name("cocomm")
    # plain-comul rules do not touch labelled splits
    with pytest.raises(Exception):
        apply_rule_in_sum(split, 0, zero_branch, rule, 0)
    # on an unlabelled sum the rewrite goes through, per summand
    s = DiagramSum.of(q, 2) + DiagramSum.of(parse("id(1)"), 1).scale(0)
    rewritten = apply_rule_in_sum(s, 0, q, rule, 0)
    assert rewritten.terms == {(0, parse("comul ; swap ; mul")): 2}


def test_apply_rule_in_sum_missing_term():
    from moufang.diagram import DiagramSum
    from moufang.rewrite import apply_rule_in_sum, RewriteError as RE

    s = DiagramSum.of(parse("comul ; mul"))
    with pytest.raises(RE):
        apply_rule_in_sum(s, 1, parse("comul ; mul"), rule_by_name("cocomm"), 0)


def test_passive_wire_pattern_rejected():
    from moufang.rewrite import find_matches

    host = parse("comul ; mul")
    with pytest.raises(RewriteError):
        find_matches(host, parse("counit * id(1)"))
    with pytest.raises(RewriteError):
        find_matches(host, parse("swap"))


def test_rewrite_error_carries_failing_step(binomial6):
    theory = named_theory("base")
    lhs = parse("comul ; (counit * id(1))")
    trace = prove_equal(lhs, parse("id(1)"), theory.rules, theory_name="base")
    bad = ProofTrace(trace.lhs, trace.rhs, "base",
                     list(trace.steps) + [TraceStep("no-such-rule", "->", "0",
                                                    trace.rhs)])
    with pytest.raises(RewriteError) as info:
        bad.replay(theory.rules)
    assert info.value.step == len(trace.steps)
    assert str(info.value).startswith(f"step {len(trace.steps)}:")
    report = check_soundness(bad, [binomial6], theory)
    assert report.failed_step == (len(trace.steps), str(info.value))


def test_rewrite_error_without_step(binomial6):
    theory = named_theory("base")
    unfinished = ProofTrace(parse("comul ; (counit * id(1))"), parse("id(1)"),
                            "base", [])
    with pytest.raises(RewriteError) as info:
        unfinished.replay(theory.rules)
    assert info.value.step is None
    report = check_soundness(unfinished, [binomial6], theory)
    assert report.failed_step[0] == -1
