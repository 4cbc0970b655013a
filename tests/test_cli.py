"""Command line: formats, exit codes, determinism."""

import json
import random

import pytest

from grtor.cli import main
from grtor.series import BigradedSeries, CancellationCertificate, verify_certificate

PAIR_JOB = """\
# pair of plane curve germs
[ring]
field = QQ
variables = X Y
setting = local

[module M]
ideal = X^2 - Y^3

[module N]
ideal = X^2 - Y^5

[bounds]
imax = 2
jmax = 12
"""

GRADED_JOB = """\
[ring]
variables = x y
setting = graded

[module M]
ideal = x^2

[module N]
ideal = x^2
"""


@pytest.fixture
def pair_job(tmp_path):
    p = tmp_path / "pair.job"
    p.write_text(PAIR_JOB)
    return str(p)


@pytest.fixture
def graded_job(tmp_path):
    p = tmp_path / "graded.job"
    p.write_text(GRADED_JOB)
    return str(p)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_theorem_worked_example(pair_job, capsys):
    code, out, _ = run_cli(capsys, ["check-theorem", pair_job, "--imax", "2", "--jmax", "12"])
    assert code == 0
    assert "verdict: PASS" in out
    assert "0 2 3" in out
    assert out.count("0 3 4") == 2
    assert "boundary-indeterminate: page 1 cell (1, 12): 2 unit(s)" in out


def test_check_theorem_deterministic(pair_job, capsys):
    _, out1, _ = run_cli(capsys, ["check-theorem", pair_job])
    _, out2, _ = run_cli(capsys, ["check-theorem", pair_job])
    assert out1 == out2


def test_check_theorem_json(pair_job, capsys):
    code, out, _ = run_cli(capsys, ["check-theorem", pair_job, "--format", "json",
                                    "--imax", "2", "--jmax", "12"])
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "PASS"
    assert payload["validity_window"] == 10
    assert payload["certificate"][0] == [0, 2, 3]
    assert payload["page1_matches_tor"] is True
    assert payload["boundary_indeterminate"] == [[1, 1, 12, 2]]


def test_check_theorem_graded_input_empty_certificate(graded_job, capsys):
    code, out, _ = run_cli(capsys, ["check-theorem", graded_job,
                                    "--imax", "2", "--jmax", "8"])
    assert code == 0
    assert "steps 0" in out
    assert "verdict: PASS" in out


def test_check_theorem_synthetic(tmp_path, capsys):
    from grtor.spectral import random_filtered_complex
    fc = tmp_path / "c.fc"
    fc.write_text(random_filtered_complex(11).to_text())
    code, out, _ = run_cli(capsys, ["check-theorem", "--synthetic", str(fc)])
    assert code == 0
    assert "verdict: PASS" in out


def test_gr_command(tmp_path, capsys):
    job = tmp_path / "gr.job"
    job.write_text("[ring]\nvariables = X Y\nsetting = local\n\n"
                   "[module M]\nideal = X^2 - Y^3, X^2 - Y^5\n")
    code, out, _ = run_cli(capsys, ["gr", str(job), "--jmax", "6"])
    assert code == 0
    assert "initial ideal: (X^2, Y^3)" in out
    assert "colength: 6" in out


def test_gr_single_cusp(tmp_path, capsys):
    job = tmp_path / "cusp.job"
    job.write_text("[ring]\nvariables = X Y\nsetting = local\n\n"
                   "[module M]\nideal = X^2 - Y^3\n")
    code, out, _ = run_cli(capsys, ["gr", str(job), "--jmax", "4"])
    assert code == 0
    assert "initial ideal: (X^2)" in out
    assert "colength: infinite" in out


def test_gr_homogeneous_echo(tmp_path, capsys):
    job = tmp_path / "h.job"
    job.write_text("[ring]\nvariables = X Y\nsetting = local\n\n"
                   "[module M]\nideal = X^2 + Y^2\n")
    code, out, _ = run_cli(capsys, ["gr", str(job), "--jmax", "4"])
    assert code == 0
    assert "initial ideal: (X^2 + Y^2)" in out


def test_tor_gr_series_format(graded_job, capsys):
    code, out, _ = run_cli(capsys, ["tor-gr", graded_job, "--imax", "2",
                                    "--jmax", "10", "--format", "series"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "2 10"
    assert "0 0 1" in lines
    assert "1 2 1" in lines
    assert "1 3 2" in lines
    assert not any(ln.startswith("2 ") and len(ln.split()) == 3 and ln.split()[2] != "0"
                   for ln in lines[1:] if ln.split()[0] == "2")


def test_cancel_feasible(tmp_path, capsys):
    src = tmp_path / "s.series"
    tgt = tmp_path / "t.series"
    src.write_text("1 3\n1 1 1\n0 2 1\n")
    tgt.write_text("1 3\n")
    code, out, _ = run_cli(capsys, ["cancel", str(src), str(tgt)])
    assert code == 0
    assert out == "steps 1\n0 1 2\n"


def test_cancel_infeasible_exit_code(tmp_path, capsys):
    src = tmp_path / "s.series"
    tgt = tmp_path / "t.series"
    src.write_text("1 3\n1 3 1\n0 2 1\n")
    tgt.write_text("1 3\n")
    code, out, _ = run_cli(capsys, ["cancel", str(src), str(tgt)])
    assert code == 2
    assert "infeasible" in out


def test_cancel_thousands_of_cancellations(tmp_path, capsys):
    """2,000 random cancellations (4,000 units) against the zero series."""
    rng = random.Random(0)
    units = {}
    for _ in range(2000):
        i, a = rng.randint(0, 5), rng.randint(0, 29)
        b = rng.randint(a + 1, 30)
        for cell in ((i + 1, a), (i, b)):
            units[cell] = units.get(cell, 0) + 1
    src = BigradedSeries(6, 30, units)
    tgt = BigradedSeries(6, 30)
    (tmp_path / "s.series").write_text(src.to_text())
    (tmp_path / "t.series").write_text(tgt.to_text())
    code, out, _ = run_cli(capsys, ["cancel", str(tmp_path / "s.series"),
                                    str(tmp_path / "t.series")])
    assert code == 0
    cert = CancellationCertificate.from_text(out)
    assert len(cert) == 2000
    assert verify_certificate(src, cert, tgt)


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.job"
    bad.write_text("variables = x y\n")  # key/value before any section
    code, _, err = run_cli(capsys, ["gr", str(bad)])
    assert code == 1
    assert "error" in err


def test_unknown_variable_is_usage_error(tmp_path, capsys):
    job = tmp_path / "j.job"
    job.write_text("[ring]\nvariables = X Y\nsetting = local\n\n"
                   "[module M]\nideal = X^2 - Z^3\n")
    code, _, err = run_cli(capsys, ["gr", str(job)])
    assert code == 1


def test_window_exhaustion_exit_code(pair_job, capsys):
    # truncation order below the requested jmax: the pipeline refuses
    code, _, err = run_cli(capsys, ["check-theorem", pair_job, "--cap", "5",
                                    "--jmax", "12"])
    assert code == 3
    assert "window" in err
    # a generator swallowed whole by the cap is also window exhaustion
    code2, _, err2 = run_cli(capsys, ["check-theorem", pair_job, "--cap", "1"])
    assert code2 == 3


def test_missing_file_is_usage_error(capsys):
    code, _, err = run_cli(capsys, ["gr", "/nonexistent/path.job"])
    assert code == 1


def test_tor_gr_over_quotient_ring(tmp_path, capsys):
    # hypersurface coefficient ring: series equals the closed form
    job = tmp_path / "hyp.job"
    job.write_text("[ring]\nvariables = x1 x2\nsetting = graded\nquotient = x1^3\n\n"
                   "[module M]\nideal = x1^2, x1*x2\n\n[module N]\nideal = x1, x2\n")
    code, out, _ = run_cli(capsys, ["tor-gr", str(job), "--imax", "6",
                                    "--jmax", "12", "--format", "series"])
    assert code == 0
    from grtor.series import BigradedSeries
    from grtor.resolution import closed_form_tor_series
    assert BigradedSeries.from_text(out) == closed_form_tor_series(2, 2, 2, 3, 6, 12)


def test_check_theorem_non_principal_pair(tmp_path, capsys):
    job = tmp_path / "np.job"
    job.write_text("[ring]\nvariables = X Y\nsetting = local\n\n"
                   "[module M]\nideal = X^2 + Y^3, X*Y\n\n"
                   "[module N]\nideal = X^2 - Y^5\n")
    code, out, _ = run_cli(capsys, ["check-theorem", str(job), "--imax", "3",
                                    "--jmax", "10", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "PASS"
    assert payload["page1_matches_tor"] is True
    # unresolved Tor_1 units at the truncation are reported, not decided
    assert payload["boundary_indeterminate"]


def test_synthetic_random_batch(capsys):
    # seeded random synthetic complexes all verify
    for seed in ("1", "2", "3", "4", "5"):
        code, out, _ = run_cli(capsys, ["check-theorem", "--synthetic", "random",
                                        "--seed", seed])
        assert code == 0
        assert "verdict: PASS" in out


def assert_one_line_error(code, err):
    assert code == 1
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def test_zero_module_is_usage_error(tmp_path, capsys):
    # 1 + X is a unit of the local ring, so M = R/I = 0
    job = tmp_path / "m0.job"
    job.write_text("[ring]\nvariables = X Y\nsetting = local\n\n"
                   "[module M]\nideal = 1 + X\n\n[module N]\nideal = X^2 - Y^5\n")
    code, _, err = run_cli(capsys, ["check-theorem", str(job)])
    assert_one_line_error(code, err)
    assert "zero" in err


def test_zero_n_module_is_usage_error(tmp_path, capsys):
    # 1 + Y is a unit of the local ring, so N = R/I = 0: the same error as M = 0
    job = tmp_path / "n0.job"
    job.write_text("[ring]\nvariables = X Y\nsetting = local\n\n"
                   "[module M]\nideal = X^2 - Y^3\n\n[module N]\nideal = 1 + Y\n")
    code, _, err = run_cli(capsys, ["check-theorem", str(job)])
    assert_one_line_error(code, err)
    assert "zero" in err and "[module N]" in err


@pytest.mark.parametrize("module", ["M", "N"])
def test_tor_gr_unit_ideal_prints_zero_series(tmp_path, capsys, module):
    ideals = {"M": "x^2, y^3", "N": "x, y"}
    ideals[module] = "1"
    job = tmp_path / "unit.job"
    job.write_text("[ring]\nvariables = x y\nsetting = graded\nquotient = x^3\n\n"
                   "[module M]\nideal = %(M)s\n\n[module N]\nideal = %(N)s\n" % ideals)
    code, out, _ = run_cli(capsys, ["tor-gr", str(job), "--format", "json"])
    assert code == 0
    assert json.loads(out)["series"]["terms"] == []


@pytest.mark.parametrize("damage", ["cut inside a diff block", "diff before its terms",
                                    "non-integer field"])
def test_malformed_synthetic_complex_is_usage_error(tmp_path, capsys, damage):
    from grtor.spectral import random_filtered_complex
    lines = random_filtered_complex(3).to_text().splitlines()
    assert lines[-1].count(" ") == 2  # the file ends inside the last diff block
    if damage == "cut inside a diff block":
        lines = lines[:-2]
    elif damage == "diff before its terms":
        lines = [ln for ln in lines if not ln.startswith("term")]
    else:
        lines = [ln.replace("imax 3", "imax three") for ln in lines]
    fc = tmp_path / "bad.fc"
    fc.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(capsys, ["check-theorem", "--synthetic", str(fc)])
    assert_one_line_error(code, err)


def test_cancel_non_integer_series_line_is_usage_error(tmp_path, capsys):
    src = tmp_path / "s.series"
    tgt = tmp_path / "t.series"
    src.write_text("2 4\n0 0 1\n1 x 2\n")
    tgt.write_text("2 4\n")
    code, _, err = run_cli(capsys, ["cancel", str(src), str(tgt)])
    assert_one_line_error(code, err)
    assert "'1 x 2'" in err
