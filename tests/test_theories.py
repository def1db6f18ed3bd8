import pytest

from moufang.diagram import flip
from moufang.dsl import parse
from moufang.theories import (
    Theory,
    TheoryError,
    builtin_theory,
    flag_rules,
    goal_suite,
    load_goals_text,
    load_theory_text,
    named_theory,
    save_goals_text,
    save_theory_text,
)


def test_base_theory_has_seven_rules():
    theory = builtin_theory(set())
    assert theory.name == "base"
    assert len(theory.rules) == 7
    names = {r.name for r in theory.rules}
    assert names == {"counit-l", "counit-r", "unit-l", "unit-r",
                     "bialg", "counit-mul", "unit-comul"}


def test_comoufang_theory_adds_two_rules():
    theory = builtin_theory({"comoufang_l", "comoufang_r"})
    assert len(theory.rules) == 9


def test_cocomm_flag():
    theory = builtin_theory({"cocomm"})
    rule = theory.rules[-1]
    assert rule.lhs == parse("comul")
    assert rule.rhs == parse("comul ; swap")


def test_unknown_flag_rejected():
    with pytest.raises(TheoryError):
        builtin_theory({"sideways"})


def test_comoufang_rules_are_flipped_moufang():
    for mo, co in (("moufang_l", "comoufang_l"), ("moufang_r", "comoufang_r"),
                   ("moufang_m", "comoufang_m")):
        rule = flag_rules(mo)[0]
        co_rule = flag_rules(co)[0]
        assert co_rule.lhs == flip(rule.lhs)
        assert co_rule.rhs == flip(rule.rhs)


def test_comoufang_pictures():
    """The flipped rules coincide with the directly drawn splitting trees."""
    co_l = flag_rules("comoufang_l")[0]
    assert co_l.lhs == parse(
        "comul ; id(1)*comul ; id(2)*comul ; id(1)*swap*id(1) ; mul*id(2)"
    )
    assert co_l.rhs == parse(
        "comul ; comul*id(1) ; comul*id(2) ; id(1)*swap*id(1) ; mul*id(2)"
    )
    co_r = flag_rules("comoufang_r")[0]
    assert co_r.lhs == parse(
        "comul ; id(1)*comul ; id(2)*comul ; id(1)*swap*id(1) ; id(2)*mul"
    )
    assert co_r.rhs == parse(
        "comul ; comul*id(1) ; comul*id(2) ; id(1)*swap*id(1) ; id(2)*mul"
    )


def test_goal_suite_contents():
    suite = goal_suite()
    assert len(suite.entries) >= 10
    for goal in suite:
        assert (goal.lhs.n_in, goal.lhs.n_out) == (goal.rhs.n_in, goal.rhs.n_out)
    assert suite["coassoc"].kind == "countermodeled"
    assert suite["coassoc"].countermodel == "fn[o16]"
    provable = [g for g in suite if g.kind == "provable"]
    assert len(provable) == len(suite.entries) - 1


def test_goal_lookup_unknown():
    with pytest.raises(TheoryError):
        goal_suite()["no-such-goal"]


def test_theory_file_roundtrip(tmp_path):
    theory = Theory("custom", frozenset({"comoufang_l"}),
                    tuple([__import__("moufang.rewrite", fromlist=["RewriteRule"])
                           .RewriteRule("extra", parse("comul ; mul"),
                                        parse("comul ; swap ; mul"))]))
    text = save_theory_text(theory)
    loaded = load_theory_text(text)
    assert loaded.name == theory.name
    assert loaded.flags == theory.flags
    assert [r.name for r in loaded.extra_rules] == ["extra"]
    assert loaded.extra_rules[0].lhs == parse("comul ; mul")


def test_goals_file_roundtrip():
    suite = goal_suite()
    text = save_goals_text(suite)
    loaded = load_goals_text(text)
    assert loaded.names() == suite.names()
    for a, b in zip(loaded, suite):
        assert (a.lhs, a.rhs, a.theory, a.kind) == (b.lhs, b.rhs, b.theory, b.kind)


@pytest.mark.parametrize("text,lineno", [
    pytest.param("goal a\n  lhs mul\n  rhs mul\n", 1, id="no-end"),
    pytest.param("goal a\n  lhs mul\ngoal b\n  lhs mul\n  rhs mul\nend\n",
                 1, id="no-end-before-next-goal"),
    pytest.param("goal a\n  lhs mul\nend\n", 3, id="no-rhs"),
    pytest.param("goal a\n  rhs mul\nend\n", 3, id="no-lhs"),
    pytest.param("goal\n", 1, id="bare-goal"),
    pytest.param("goal a\n  lhs\n", 2, id="bare-field"),
])
def test_goals_file_malformed_blocks_name_the_line(text, lineno):
    with pytest.raises(TheoryError, match=f"^line {lineno}: "):
        load_goals_text(text)


def test_named_theories():
    assert named_theory("comoufang").flags == {"comoufang_l", "comoufang_r"}
    with pytest.raises(TheoryError):
        named_theory("nope")


def test_middle_comoufang_in_catalog_but_not_goals():
    rule = flag_rules("comoufang_m")[0]
    assert (rule.lhs.n_in, rule.lhs.n_out) == (1, 3)
    assert "comoufang-m" not in " ".join(goal_suite().names())


def test_registration_consistency_with_builtin_theories(loop_o16, fn_o16):
    from moufang.models import holds_identity

    loop_theory = builtin_theory(
        {"moufang_l", "moufang_m", "moufang_r", "coassoc", "cocomm"}
    )
    for rule in loop_theory.rules:
        assert holds_identity(rule.lhs, rule.rhs, loop_o16).holds, rule.name
    fn_theory = builtin_theory({"assoc", "comm", "comoufang_l", "comoufang_r"})
    for rule in fn_theory.rules:
        assert holds_identity(rule.lhs, rule.rhs, fn_o16).holds, rule.name
