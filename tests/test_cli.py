import pytest

from moufang.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    code, out, _ = run(capsys, "octonion", "--params=-1,-1,-1")
    assert code == 0
    assert out.count("pass") >= 6


def test_deform_subcommand(capsys):
    code, out, _ = run(capsys, "deform", "--fixture", "shift-conj:10:1")
    assert code == 0
    assert "kernel-map" in out


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


def test_jobs_validation(capsys):
    with pytest.raises(SystemExit):
        main(["--jobs", "0", "render", "id(1)"])


def test_suite_deterministic_across_worker_counts(capsys):
    code1, out1, _ = run(capsys, "--format", "records", "--jobs", "1", "suite")
    code2, out2, _ = run(capsys, "--format", "records", "--jobs", "4", "suite")
    assert code1 == code2 == 0
    assert out1 == out2


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


# Records of failing checks, pinned verbatim: witness, h-degree and the
# insertion order of each difference are part of the output.
GOLDEN_FAILURES = {
    'delta1:6:3': (
        ['deform', '--fixture', 'delta1:6:3'], 1,
        [
            "REC kind=deform name=delta1[binomial[6]] status=info detail='base binomial[6], order 3'",
            "REC kind=coassociator name=degree-0 status=info detail='nonzero on 0 of 7 basis inputs'",
            "REC kind=coassociator name=degree-1 status=info detail='nonzero on 4 of 7 basis inputs'",
            "REC kind=coassociator name=degree-2 status=info detail='nonzero on 0 of 7 basis inputs'",
            "REC kind=coassociator name=degree-3 status=info detail='nonzero on 0 of 7 basis inputs'",
            'REC kind=comoufang name=left status=fail detail="fails at h-degree 1 on basis input (\'a^3\',); difference {(2, 1, 1): Fraction(3, 1), (1, 2, 1): Fraction(3, 1), (3, 0, 1): Fraction(3, 1), (1, 1, 2): Fraction(-6, 1), (2, 0, 2): Fraction(-3, 1)}"',
            'REC kind=comoufang name=right status=fail detail="fails at h-degree 1 on basis input (\'a^3\',); difference {(2, 0, 2): Fraction(3, 1), (2, 1, 1): Fraction(6, 1), (1, 1, 2): Fraction(-3, 1), (1, 0, 3): Fraction(-3, 1), (1, 2, 1): Fraction(-3, 1)}"',
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
            'REC kind=kernel-map name=R+S status=fail detail="fails at h-degree 1 on basis input (\'a^3\',); difference {(1, 1, 2): Fraction(6, 1), (2, 0, 2): Fraction(3, 1), (1, 2, 1): Fraction(-3, 1), (2, 1, 1): Fraction(-3, 1), (3, 0, 1): Fraction(-3, 1)}"',
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
