import hashlib

import pytest

from moufang.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def sha1(text):
    return hashlib.sha1(text.encode()).hexdigest()


def test_exports_resolve_and_help_exits_0(capsys):
    import moufang

    assert all(hasattr(moufang, name) for name in moufang.__all__)
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_prove_counit_law(capsys):
    code, out, _ = run(capsys, "prove", "comul ; (counit*id(1))", "id(1)",
                       "--theory", "base")
    assert code == 0
    assert "counit-l" in out


def test_prove_goal_by_name(capsys):
    code, out, _ = run(capsys, "prove", "--goal", "comoufang-c1")
    assert code == 0


def test_prove_not_found_is_exit_2(capsys):
    code, out, _ = run(capsys, "prove", "mul", "swap ; mul",
                       "--theory", "base", "--budget", "2000,4,5")
    assert code == 2
    assert "not found" in out


def test_prove_bad_input_is_exit_1(capsys):
    code, _, err = run(capsys, "prove", "mul ; $oops", "id(1)")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("argv,flag", [
    ("eval mul --model binomial:x", "--model"),
    ("check-model --model fn-cyclic:x", "--model"),
    ("prove mul mul --budget 1,2,x", "--budget"),
    ("prove mul mul --budget 0,2,1", "--budget"),
    ("eval mul --basis a,b", "--basis"),
    ("octonion --params=1/0,1,1", "--params"),
    ("octonion --params=1/0,1,1",
     "--params: bad value '1/0,1,1' (zero denominator)"),
    ("octonion --params=0,1,1", "--params"),
    ("deform --fixture shift-conj:x:3", "--fixture"),
    ("deform --fixture null:fn-o16:x", "--fixture"),
    ("deform --fixture null:fn-o16:-1", "--fixture"),
    ("deform --fixture delta1:6:0", "--fixture"),
    ("eval mul --model binomial:0", "--model"),
    ("eval mul --model loop-cyclic:0", "--model"),
    ("check-model --model binomial:0", "--model"),
    ("deform --fixture shift-conj:0:3", "--fixture"),
    ("eval mul --model binomial:4 --basis 0,9", "--basis"),
    ("eval mul --model binomial:4 --basis=-1,0", "--basis"),
    ("check-model --identity comul", "--identity:"),
    ("check-model --identity comul=mul", "--identity:"),
    ("check-model --identity mul=(", "--identity:"),
    ("check-model --identity comul%0=comul%0", "--identity:"),
    ("eval comul%0 --basis 0", "diagram:"),
    ("eval comul --model binomial:2 --model loop-cyclic:2 --basis 1",
     "--model"),
    ("prove --goal nosuch", "--goal:"),
    ("eval mul --model=", "--model:"),
    ("eval mul --model .", "--model:"),
    ("eval mul --model nosuch", "--model:"),
    ("deform --fixture null::1", "--fixture:"),
    ("prove mul mul --budget 1,2,nan", "--budget"),
    ("replay mul mul --trace .", "--trace:"),
    ("replay mul mul --trace=", "--trace:"),
    ("suite --goals .", "--goals:"),
    ("check-model --model fn-o16:junk", "--model:"),
    ("eval mul --model loop-o16:5", "--model:"),
    ("deform --fixture shift-conj:12:3:9", "--fixture:"),
    ("deform --fixture delta1:6:1:x", "--fixture:"),
    ("deform --fixture null:fn-o16:junk:1", "--fixture:"),
    ("deform --fixture null:fn-cyclic:3:", "--fixture: empty ORDER"),
    ("eval mul --model binomial:", "--model: empty size"),
    ("deform --fixture delta1:6:", "--fixture: empty ORDER"),
    ("deform --fixture shift-conj::", "--fixture: empty D"),
])
def test_bad_flag_value_is_exit_1(capsys, argv, flag):
    code, _, err = run(capsys, *argv.split())
    assert code == 1
    assert err.startswith(f"error: {flag}") and err.count("\n") == 1


@pytest.mark.parametrize("argv,text,lineno", [
    ("eval mul --model {}", "model m\ndim 2\nmul 1 2\nend\n", 3),
    ("prove mul mul --theory {}", "theory t\nrule\nend\n", 2),
    ("prove mul mul --theory {}", "# custom\nrule r : mul ; = mul\n", 2),
])
def test_malformed_file_is_exit_1(tmp_path, capsys, argv, text, lineno):
    path = tmp_path / "input.txt"
    path.write_text(text)
    code, _, err = run(capsys, *argv.format(path).split())
    assert code == 1
    assert err.startswith(f"error: line {lineno}: ") and err.count("\n") == 1


def test_check_model_malformed_file_is_a_fail_record(tmp_path, capsys):
    path = tmp_path / "model.txt"
    path.write_text("model m\ndim x\nend\n")
    code, out, err = run(capsys, "--format", "records", "check-model",
                         "--model", str(path))
    assert code == 1 and not err
    assert out.startswith("REC kind=model") and out.count("\n") == 1
    assert "status=fail detail=" in out and "line 2: dim: bad value" in out


def test_prove_arity_mismatch_is_exit_1(capsys):
    code, _, err = run(capsys, "prove", "mul", "id(1)")
    assert code == 1


def test_eval_binomial(capsys):
    code, out, _ = run(capsys, "eval", "comul ; mul",
                       "--model", "binomial:5", "--basis", "3")
    assert code == 0
    assert "(a^3): 8" in out


def test_check_model_with_identity(capsys):
    code, out, _ = run(capsys, "check-model", "--model", "binomial:4",
                       "--identity", "comul ; counit * id(1) = id(1)")
    assert code == 0
    assert "pass" in out


def test_check_model_identity_failure_reports_witness(capsys):
    code, out, _ = run(capsys, "check-model", "--model", "fn-cyclic:2",
                       "--identity", "comul = comul ; swap")
    assert code == 0  # the model registers; the identity result is reported
    assert "identity" in out


def test_render_svg_to_file(tmp_path, capsys):
    target = tmp_path / "out.svg"
    code, _, _ = run(capsys, "render", "comul ; mul", "--as", "svg",
                     "--out", str(target))
    assert code == 0
    assert target.read_text().startswith("<svg")


def test_records_format_is_line_oriented(capsys):
    code, out, _ = run(capsys, "--format", "records", "check-model",
                       "--model", "binomial:4")
    assert code == 0
    for line in out.strip().splitlines():
        assert line.startswith("REC kind=")


def test_octonion_subcommand(capsys):
    code, out, _ = run(capsys, "--format", "records", "octonion",
                       "--params=-1,-1,-1")
    assert code == 0
    assert out.count("pass") >= 6
    assert sha1(out) == "f1fbff4f5de1baa7042d41735ae269a3cb07908b"


def test_deform_subcommand(capsys):
    code, out, _ = run(capsys, "deform", "--fixture", "shift-conj:10:1")
    assert code == 0
    assert "kernel-map" in out


def test_deform_records_are_pinned(capsys):
    # the last row fails on fn[o16], which is not coassociative: it pins
    # a plain model's failure difference, printed sorted by key
    coassoc = "comul ; comul * id(1) = comul ; id(1) * comul"
    for argv, status, digest in (
            ("deform --fixture shift-conj:12:3".split(), 0,
             "2eda9e47d6a77a9b491a4ff925cc36819a81e331"),
            ("deform --fixture null:fn-o16:1".split(), 0,
             "a4187dda667fee9fa47656eeb767b9cfd1f3c5ec"),
            ("check-model --model fn-o16".split(), 0,
             "22975f8f264395b9be7ee4b47f2bc701c9a69b94"),
            ("check-model --model fn-o16 --identity".split() + [coassoc], 1,
             "1904bfb55add5cf8a144937d7a001b336c55de9b")):
        code, out, _ = run(capsys, "--format", "records", *argv)
        assert code == status, argv
        assert sha1(out) == digest, argv


def test_suite_searches_o16_automorphisms_once(capsys, monkeypatch):
    """loop-o16 and fn-o16 share one loop, whose automorphism search runs
    once and is cached on it; so do the `--model` flags of check-model."""
    from moufang.models import MoufangLoop

    searches = []
    search = MoufangLoop._search_automorphisms
    monkeypatch.setattr(MoufangLoop, "_search_automorphisms",
                        lambda loop: searches.append(loop.name)
                        or search(loop))
    code, _out, _ = run(capsys, "--format", "records", "suite")
    assert code == 0
    assert searches == ["o16"]
    code, _out, _ = run(capsys, "check-model", "--model", "loop-o16",
                        "--model", "fn-o16")
    assert code == 0
    assert searches == ["o16", "o16"]


def test_deform_negative_fixture(capsys):
    code, out, _ = run(capsys, "deform", "--fixture", "delta1:6:1")
    assert code == 1  # a failed check is a nonzero exit
    assert "fail" in out


def test_deform_fixture_from_file(tmp_path, capsys):
    from moufang.deformation import save_deformation_text, shift_conjugation_deformation

    fixture = shift_conjugation_deformation(10, 1)
    path = tmp_path / "fixture.txt"
    path.write_text(save_deformation_text(fixture, "binomial:10"))
    code, out, _ = run(capsys, "deform", "--fixture", str(path))
    assert code == 0
    assert "kernel-map" in out


def test_replay_roundtrip(tmp_path, capsys):
    trace_path = tmp_path / "proof.trace"
    code, out, _ = run(capsys, "--out", str(tmp_path / "report.txt"),
                       "prove", "comul ; (counit*id(1))", "id(1)",
                       "--theory", "base")
    assert code == 0
    # write the trace through the prove --out flag
    code, _, _ = run(capsys, "prove", "comul ; (counit*id(1))", "id(1)",
                     "--theory", "base", "--out", str(trace_path))
    assert code == 0
    code, out, _ = run(capsys, "replay", "comul ; (counit*id(1))", "id(1)",
                       "--trace", str(trace_path), "--theory", "base",
                       "--model", "binomial:4")
    assert code == 0
    assert "soundness" in out


def test_replay_rejects_corrupted_trace(tmp_path, capsys):
    trace_path = tmp_path / "proof.trace"
    code, _, _ = run(capsys, "prove", "comul ; (counit*id(1))", "id(1)",
                     "--theory", "base", "--out", str(trace_path))
    assert code == 0
    body = trace_path.read_text().replace("counit-l", "unit-l")
    trace_path.write_text(body)
    code, out, _ = run(capsys, "replay", "comul ; (counit*id(1))", "id(1)",
                       "--trace", str(trace_path), "--theory", "base")
    assert code == 1


def test_replay_refuses_a_model_outside_its_theory(tmp_path, capsys):
    trace_path = tmp_path / "proof.trace"
    code, _, _ = run(capsys, "prove", "comul", "comul ; swap",
                     "--theory", "cocommutative", "--out", str(trace_path))
    assert code == 0
    argv = ("replay", "comul", "comul ; swap", "--trace", str(trace_path),
            "--theory", "cocommutative", "--model", "binomial:6")
    code, out, err = run(capsys, *argv, "--model", "fn-o16")
    assert code == 1 and not out
    assert err == ("error: --model: fn[o16] is not registered for theory "
                   "cocommutative (missing cocomm)\n")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert f"[pass] replay {trace_path}" in out
    assert "[pass] soundness binomial[6]" in out


def test_suite_deterministic_across_worker_counts(capsys, monkeypatch):
    monkeypatch.delenv("MOUFANG_SUITE_SEED", raising=False)
    code1, out1, _ = run(capsys, "--format", "records", "suite")
    code2, out2, _ = run(capsys, "--format", "records", "suite")
    assert code1 == code2 == 0
    assert out1 == out2
    assert sha1(out1) == "f27bec0019ee43ce686fe234221f4eba3fb91395"


def test_check_model_from_file(tmp_path, capsys):
    from moufang.models import save_model_text, truncated_binomial_bialgebra

    path = tmp_path / "model.txt"
    path.write_text(save_model_text(truncated_binomial_bialgebra(4)))
    code, out, _ = run(capsys, "check-model", "--model", str(path),
                       "--identity", "comul ; mul = comul ; swap ; mul")
    assert code == 0
    assert "pass" in out


def test_prove_with_theory_file(tmp_path, capsys):
    from moufang.theories import named_theory, save_theory_text

    path = tmp_path / "theory.txt"
    path.write_text(save_theory_text(named_theory("comoufang")))
    code, out, _ = run(capsys, "prove", "--goal", "comoufang-c1",
                       "--theory", str(path))
    assert code == 0


# Records of failing checks, pinned verbatim: witness, h-degree and each
# difference, printed sorted by key, are part of the output.
GOLDEN_FAILURES = {
    'delta1:6:3': (
        ['deform', '--fixture', 'delta1:6:3'], 1,
        [
            "REC kind=deform name=delta1[binomial[6]] status=info detail='base binomial[6], order 3'",
            "REC kind=coassociator name=degree-0 status=info detail='nonzero on 0 of 7 basis inputs'",
            "REC kind=coassociator name=degree-1 status=info detail='nonzero on 4 of 7 basis inputs'",
            "REC kind=coassociator name=degree-2 status=info detail='nonzero on 0 of 7 basis inputs'",
            "REC kind=coassociator name=degree-3 status=info detail='nonzero on 0 of 7 basis inputs'",
            'REC kind=comoufang name=left status=fail detail="fails at h-degree 1 on basis input (\'a^3\',); difference {(1, 1, 2): Fraction(-6, 1), (1, 2, 1): Fraction(3, 1), (2, 0, 2): Fraction(-3, 1), (2, 1, 1): Fraction(3, 1), (3, 0, 1): Fraction(3, 1)}"',
            'REC kind=comoufang name=right status=fail detail="fails at h-degree 1 on basis input (\'a^3\',); difference {(1, 0, 3): Fraction(-3, 1), (1, 1, 2): Fraction(-3, 1), (1, 2, 1): Fraction(-3, 1), (2, 0, 2): Fraction(3, 1), (2, 1, 1): Fraction(6, 1)}"',
        ],
    ),
    'delta1:4:2': (
        ['deform', '--fixture', 'delta1:4:2'], 1,
        [
            "REC kind=deform name=delta1[binomial[4]] status=info detail='base binomial[4], order 2'",
            "REC kind=coassociator name=degree-0 status=info detail='nonzero on 0 of 5 basis inputs'",
            "REC kind=coassociator name=degree-1 status=info detail='nonzero on 2 of 5 basis inputs'",
            "REC kind=coassociator name=degree-2 status=info detail='nonzero on 0 of 5 basis inputs'",
            'REC kind=comoufang name=left status=pass',
            'REC kind=comoufang name=right status=pass',
            'REC kind=kernel-map name=R+S status=fail detail="fails at h-degree 1 on basis input (\'a^3\',); difference {(1, 1, 2): Fraction(6, 1), (1, 2, 1): Fraction(-3, 1), (2, 0, 2): Fraction(3, 1), (2, 1, 1): Fraction(-3, 1), (3, 0, 1): Fraction(-3, 1)}"',
        ],
    ),
    'check-model:binomial:6': (
        ['check-model', '--model', 'binomial:6', '--identity', 'comul ; mul = id(1)'], 1,
        [
            "REC kind=model name=binomial[6] status=pass detail='registered flags: assoc coassoc cocomm comm comoufang_l comoufang_r'",
            "REC kind=identity name=comul ; mul = id(1) status=fail detail='fails on basis input (a); difference {(1,): Fraction(1, 1)}'",
        ],
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_FAILURES))
def test_records_golden_failure_texts(capsys, case):
    argv, expected_code, expected = GOLDEN_FAILURES[case]
    code, out, _ = run(capsys, "--format", "records", *argv)
    assert code == expected_code
    assert out.splitlines() == expected


def test_python_dash_m_runs_the_cli():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import moufang

    src = str(Path(moufang.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "moufang", "--format", "records", "eval",
         "comul ; mul", "--model", "binomial:5", "--basis", "3"],
        capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "REC kind=eval name=(a^3) status=value detail='8'\n"
