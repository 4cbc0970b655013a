"""Command line: formats, exit codes, determinism."""

import hashlib
import json
import os
import random
import re
import resource
import subprocess
import sys
from collections import Counter

import pytest

import grtor
import grtor.cli
import grtor.groebner
import grtor.orders
import grtor.resolution
import grtor.series
import grtor.spectral
from grtor.cli import main, make_parser
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


def test_page1_check_reads_row_jmax(pair_job, capsys, monkeypatch):
    # graded Tor changed in row j = jmax alone must fail the page-1 check
    real = grtor.cli.tor_from_resolution

    def bumped(*args):
        tor = real(*args)
        tor.coefficients[(0, tor.j_max)] = tor.get(0, tor.j_max) + 1
        return tor
    monkeypatch.setattr("grtor.cli.tor_from_resolution", bumped)
    code, out, _ = run_cli(capsys, ["check-theorem", pair_job, "--format", "json",
                                    "--imax", "2", "--jmax", "12"])
    payload = json.loads(out)
    assert payload["page1_matches_tor"] is False and payload["verdict"] == "FAIL"
    assert code != 0


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
    # in(I) is certified to the cap 12 only, and X*Y^12 is still standard;
    # one generator in two variables has height 1, so the colength is
    # infinite whatever lies past the cap (Krull)
    assert "initial ideal (generators of degree <= 12): (X^2)" in out
    assert "colength: infinite" in out


def test_gr_homogeneous_echo(tmp_path, capsys):
    job = tmp_path / "h.job"
    job.write_text("[ring]\nvariables = X Y\nsetting = local\n\n"
                   "[module M]\nideal = X^2 + Y^2\n")
    code, out, _ = run_cli(capsys, ["gr", str(job), "--jmax", "4"])
    assert code == 0
    assert "initial ideal (generators of degree <= 12): (X^2 + Y^2)" in out


def test_gr_series_stops_at_the_validity_window(tmp_path, capsys):
    # at cap 3 the leads past degree 3 are unknown (y^5 joins in(I) at
    # cap 12), so the series ends at the window, in JSON and in the header,
    # and the colength is unknown, not infinite; the initial ideal is
    # certified to the cap, which at cap 3 misses y^5
    runs = {}
    colength = {3: "unknown (the standard monomials reach the cap 3)", 12: "7"}
    initial = {3: "initial ideal (generators of degree <= 3): (x*y, x^3)",
               12: "initial ideal: (x*y, x^3, y^5)"}
    for cap in (3, 12):
        job = tmp_path / ("cap%d.job" % cap)
        job.write_text("[ring]\nvariables = x y\nsetting = local\n\n[module M]\n"
                       "ideal = x*y, x^3 + y^4\n\n[bounds]\ncap = %d\n" % cap)
        code, out, _ = run_cli(capsys, ["gr", str(job), "--jmax", "8", "--format", "json"])
        assert code == 0
        runs[cap] = json.loads(out)
        code, out, _ = run_cli(capsys, ["gr", str(job), "--jmax", "8"])
        assert code == 0 and "(j <= %d)" % min(8, cap) in out
        assert out.splitlines()[:2] == [initial[cap], "colength: " + colength[cap]]
    low, high = runs[3], runs[12]
    assert (low["colength"], high["colength"]) == (None, 7)
    assert low["validity_window"] == low["series"]["jmax"] == 3
    assert high["validity_window"] == high["series"]["jmax"] == 8
    assert max(j for _i, j, _c in low["series"]["terms"]) == 3
    assert low["series"]["terms"] == [t for t in high["series"]["terms"] if t[1] <= 3]
    assert "y^5" in high["initial_ideal"]


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


@pytest.mark.parametrize("value", ["abc", "1.5"])
def test_non_integer_cap_is_one_line_usage_error(tmp_path, capsys, value):
    job = tmp_path / "b.job"
    job.write_text(PAIR_JOB + "cap = %s\n" % value)
    code, out, err = run_cli(capsys, ["check-theorem", str(job)])
    assert code == 1 and not out
    assert err.startswith("error:") and err.count("\n") == 1 and "cap" in err


def test_job_file_cap_applies_and_the_flag_overrides_it(tmp_path, capsys):
    # a cap below jmax exhausts the window; --cap wins over the file
    job = tmp_path / "cap.job"
    job.write_text(PAIR_JOB + "cap = 5\n")
    assert run_cli(capsys, ["check-theorem", str(job)])[0] == 3
    assert run_cli(capsys, ["check-theorem", str(job), "--cap", "20"])[0] == 0


def test_missing_file_is_usage_error(capsys):
    code, _, err = run_cli(capsys, ["gr", "/nonexistent/path.job"])
    assert code == 1


@pytest.mark.parametrize("form", [["gr"], ["tor-gr"], ["check-theorem"],
                                  ["check-theorem", "--synthetic"], ["cancel"]], ids=" ".join)
def test_undecodable_input_file_is_one_error_line(tmp_path, capsys, form):
    # the head of an executable: bytes 0x80-0xff start no UTF-8 character
    binary = tmp_path / "bin.dat"
    binary.write_bytes(b"\x7fELF\x02\x01\x01\x00" + bytes(range(0x80, 0x100)))
    target = tmp_path / "t.series"
    target.write_text(BigradedSeries(0, 0).to_text())
    argv = form + [str(binary)] + ([str(target)] if form == ["cancel"] else [])
    code, out, err = run_cli(capsys, argv)
    assert_one_line_error(code, err)
    assert out == ""


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


@pytest.mark.parametrize("extra", [["--bogus"], ["--jmax", "x"], ["--format", "xml"],
                                   ["--field", "QQ"], ["--seed", "3"]])
def test_argument_error_is_one_usage_line(graded_job, capsys, extra):
    # argparse's errors are usage errors: exit 1 and one `error:` line, not a
    # usage dump; only check-theorem reads a seed, and --char sets the field
    code, out, err = run_cli(capsys, ["tor-gr", graded_job] + extra)
    assert out == ""
    assert_one_line_error(code, err)


def test_zero_module_is_usage_error(tmp_path, capsys):
    # 1 + X is a unit of the local ring, so M = R/I = 0
    job = tmp_path / "m0.job"
    job.write_text("[ring]\nvariables = X Y\nsetting = local\n\n"
                   "[module M]\nideal = 1 + X\n\n[module N]\nideal = X^2 - Y^5\n")
    code, out, err = run_cli(capsys, ["check-theorem", str(job)])
    assert (code, out) == (1, "")
    assert err == ("error: M = R/I is zero: the [module M] ideal contains a unit "
                   "of the local ring\n")


def test_zero_n_module_is_usage_error(tmp_path, capsys):
    # 1 + Y is a unit of the local ring, so N = R/I = 0: the same error as M = 0
    job = tmp_path / "n0.job"
    job.write_text("[ring]\nvariables = X Y\nsetting = local\n\n"
                   "[module M]\nideal = X^2 - Y^3\n\n[module N]\nideal = 1 + Y\n")
    code, out, err = run_cli(capsys, ["check-theorem", str(job)])
    assert (code, out) == (1, "")
    assert err == ("error: N = R/I is zero: the [module N] ideal contains a unit "
                   "of the local ring\n")


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


# a damaged line: (the line as written, the line as damaged)
LINE_DAMAGES = {
    "non-integer field": ("imax 3", "imax three"),
    "term keywords": ("term 0 dim 4 levels 5 4 0 4", "term 0 size 4 lv 5 4 0 4"),
    "diff keyword": ("diff 1 nnz 0", "diff 1 count 0"),
    "imax with two values": ("imax 3", "imax 3 9"),
    "truncated neither 0 nor 1": ("truncated 0", "truncated 7"),
}


@pytest.mark.parametrize("damage", ["cut inside a diff block", "diff before its terms"]
                         + list(LINE_DAMAGES))
def test_malformed_synthetic_complex_is_usage_error(tmp_path, capsys, damage):
    from grtor.spectral import random_filtered_complex
    lines = random_filtered_complex(3).to_text().splitlines()
    assert lines[-1].count(" ") == 2  # the file ends inside the last diff block
    if damage == "cut inside a diff block":
        lines = lines[:-2]
    elif damage == "diff before its terms":
        lines = [ln for ln in lines if not ln.startswith("term")]
    else:
        old, new = LINE_DAMAGES[damage]
        assert old in lines
        lines = [new if ln == old else ln for ln in lines]
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


@pytest.mark.parametrize("m_ideal, n_ideal", [("X^3 - Y^4, X*Y^2 - Y^5", "X^2 + Y^3"),
                                              ("X^2*Y + Y^4, X^3", "X*Y - Y^3")])
@pytest.mark.parametrize("field", [[], ["--char", "32003"]])
@pytest.mark.parametrize("jmax", ["8", "12"])
def test_check_theorem_pairs_that_broke_d_squared(tmp_path, capsys, m_ideal, n_ideal,
                                                  field, jmax):
    # a weak (not k-linear) normal form in the tensor made d o d nonzero here
    job = tmp_path / "pair.job"
    job.write_text("[ring]\nvariables = X Y\nsetting = local\n\n[module M]\nideal = %s\n\n"
                   "[module N]\nideal = %s\n" % (m_ideal, n_ideal))
    code, out, err = run_cli(capsys, ["check-theorem", str(job), "--jmax", jmax,
                                      "--format", "json"] + field)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["verdict"] == "PASS"
    assert payload["page1_matches_tor"] is True



def test_check_theorem_n_equal_r(tmp_path, capsys):
    # N = R: Tor is M in homological degree 0, and the tensor reduces
    # against an empty basis
    job = tmp_path / "nr.job"
    job.write_text("[ring]\nvariables = X Y Z\nsetting = local\n\n"
                   "[module M]\nideal = X^2 - Y^3, Y^2 - Z^3\n\n[module N]\nideal = 0\n")
    code, out, err = run_cli(capsys, ["check-theorem", str(job), "--jmax", "8",
                                      "--format", "json"])
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["verdict"] == "PASS" and payload["page1_matches_tor"] is True
    assert payload["page1"]["terms"] == payload["tor_graded"]["terms"]
    assert {i for i, _, _ in payload["page1"]["terms"]} == {0}



@pytest.mark.parametrize("variables, m_gens, n_gens, jmax", [
    ("X Y", "X^2 - Y^3", "X^2 - Y^5", "20"),
    ("X Y Z", "X^2 - Y^3, Y^2 - Z^3", "X + Y^2 + Z^2", "8"),
    ("a b c d", "a^2 + b^3, b^2 - c^3 + d^4, c*d - a^3", "a - b^2, c", "8"),
], ids=["cusps", "three", "l4"])
def test_check_theorem_agrees_over_qq_and_fp(tmp_path, capsys, variables, m_gens, n_gens,
                                             jmax):
    # on these integer ideals the answer does not depend on the characteristic,
    # so a fault in the QQ or the F_p arithmetic alone shows as a mismatch
    job = tmp_path / "pair.job"
    job.write_text("[ring]\nvariables = %s\nsetting = local\n\n[module M]\nideal = %s\n\n"
                   "[module N]\nideal = %s\n" % (variables, m_gens, n_gens))
    keys = ("page1", "page_infinity", "certificate", "verdict")
    results = []
    for field in ([], ["--char", "32003"]):
        code, out, err = run_cli(capsys, ["check-theorem", str(job), "--jmax", jmax,
                                          "--format", "json"] + field)
        assert (code, err) == (0, "")
        payload = json.loads(out)
        results.append({k: payload[k] for k in keys})
    assert results[0] == results[1]
    assert results[0]["verdict"] == "PASS"

def _finite_length_ideal(rng):
    """Generators of a seeded ideal of k[[X, Y]] of finite colength: its
    initial ideal holds X^a and Y^b (or Y^b + c X Y)."""
    a, b = rng.randint(2, 4), rng.randint(2, 5)
    c = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(2)]
    gens = ["X^%d + %d*Y^%d" % (a, c[0], rng.randint(a + 1, 6)),
            "Y^%d + %d*X^%d*Y" % (b, c[1], rng.randint(1, 3))]
    if rng.random() < 0.5:
        gens.append("X*Y^%d" % rng.randint(1, 2))
    return ", ".join(gens)


def test_check_theorem_tor_balance(tmp_path, capsys):
    # Tor^R(M, N) = Tor^R(N, M) and Tor^G(gr M, gr N) = Tor^G(gr N, gr M):
    # a second resolution, tensor complex and pairing must give the same
    # pages 1 and infinity wherever neither run flags a cell
    checked = nonempty = 0
    for seed in range(30):
        rng = random.Random(seed)
        pair = (_finite_length_ideal(rng), _finite_length_ideal(rng))
        runs = []
        for m_gens, n_gens in (pair, pair[::-1]):
            job = tmp_path / "balance.job"
            job.write_text("[ring]\nvariables = X Y\nsetting = local\n\n[module M]\n"
                           "ideal = %s\n\n[module N]\nideal = %s\n" % (m_gens, n_gens))
            code, out, err = run_cli(capsys, ["check-theorem", str(job), "--jmax", "14",
                                              "--char", "32003", "--format", "json"])
            assert code in (0, 2, 3) and (out or err), (seed, code, err)
            runs.append(json.loads(out) if code in (0, 2) else None)
        if None in runs or any(r["page_infinity_indeterminate"] or r["boundary_indeterminate"]
                               for r in runs):
            continue
        checked += 1
        nonempty += bool(runs[0]["certificate"])
        for key in ("page1", "page_infinity"):
            assert runs[0][key] == runs[1][key], (seed, key, pair)
    assert checked >= 20 and nonempty >= 1


def _permuted_outputs(tmp_path, capsys, command, setting, jobs, argv):
    """Outputs of one command on each (variables, M, N) of `jobs`."""
    outs = []
    for k, (variables, m_gens, n_gens) in enumerate(jobs):
        job = tmp_path / ("perm%d.job" % k)
        job.write_text("[ring]\nvariables = %s\nsetting = %s\n\n[module M]\nideal = %s\n\n"
                       "[module N]\nideal = %s\n" % (variables, setting, m_gens, n_gens))
        code, out, err = run_cli(capsys, [command, str(job), "--format", "json"] + argv)
        assert (code, err) == (0, "")
        outs.append(out)
    return outs


def test_check_theorem_invariant_under_variable_and_generator_order(tmp_path, capsys):
    jobs = [("X Y Z", "X^2 - Y^3, Y^2 - Z^3", "X + Y^2 + Z^2"),
            ("Z X Y", "Y^2 - Z^3, X^2 - Y^3", "Z^2 + X + Y^2")]
    first, second = _permuted_outputs(tmp_path, capsys, "check-theorem", "local", jobs,
                                      ["--jmax", "10", "--char", "32003"])
    assert first == second
    assert json.loads(first)["verdict"] == "PASS"


def test_tor_gr_invariant_under_variable_and_generator_order(tmp_path, capsys):
    jobs = [("a b c d", "a^2 + b*c, b^2 - c*d, c^2 + a*d, a*b + c*d", "a, b, c, d"),
            ("d a b c", "a*b + c*d, c^2 + a*d, b^2 - c*d, a^2 + b*c", "d, c, b, a")]
    first, second = _permuted_outputs(tmp_path, capsys, "tor-gr", "graded", jobs,
                                      ["--jmax", "8"])
    assert first == second
    assert json.loads(first)["series"]["terms"][:2] == [[0, 0, 1], [1, 2, 4]]

def test_every_error_class_derives_from_grtor_error():
    # two outcomes, two classes: no module of the package defines another
    import importlib
    import inspect
    import pkgutil
    found = set()
    for info in pkgutil.iter_modules(grtor.__path__):
        module = importlib.import_module("grtor." + info.name)
        found |= {obj for obj in vars(module).values()
                  if inspect.isclass(obj) and issubclass(obj, BaseException)
                  and obj.__module__.startswith("grtor")}
    assert found == {grtor.GrtorError, grtor.CapExceededError}
    assert grtor.CapExceededError.__bases__ == (grtor.GrtorError,)
    assert grtor.GrtorError.__bases__ == (ValueError,)


def _raise(cls):
    def fail():
        raise getattr(grtor, cls)("broken invariant")
    return fail


# each failure is one the package raises; the four named after modules are
# real raise sites there, all of them the exit-1 outcome
_INTERNAL_FAILURES = {
    "GrtorError": (_raise("GrtorError"), 1, "error: broken invariant"),
    "CapExceededError": (_raise("CapExceededError"), 3, "window exhausted: broken invariant"),
    "SpectralError": (lambda: grtor.spectral.page(None, 0), 1,
                      "error: pages are indexed from r = 1"),
    "ResolutionError": (lambda: grtor.resolution.closed_form_tor_series(3, 1, 1, 3, 2, 4), 1,
                        "error: need 2 <= d < e"),
    "OrderError": (lambda: grtor.orders.MonomialOrder("bogus"), 1,
                   "error: unknown order kind 'bogus'"),
    "CancellationError": (lambda: grtor.series.Cancellation(0, 2, 1).validate(), 1,
                          "error: invalid cancellation (i=0, a=2, b=1): needs a < b"),
}


@pytest.mark.parametrize("failure", sorted(_INTERNAL_FAILURES))
def test_internal_errors_end_in_one_line(tmp_path, capsys, monkeypatch, failure):
    # an error raised inside a command ends in one line naming its outcome
    fail, code, line = _INTERNAL_FAILURES[failure]
    monkeypatch.setattr("grtor.cli.decide_cancellation", lambda *args: fail())
    src = tmp_path / "s.series"
    src.write_text("1 2\n1 0 1\n0 1 1\n")
    assert run_cli(capsys, ["cancel", str(src), str(src)]) == (code, "", line + "\n")



# a command whose input could make it hang or exhaust memory runs in a
# child process, bounded in address space and wall time; the child reports
# the seconds spent inside main as its last line of standard error
_TIMED_MAIN = ("import sys, time\n"
               "from grtor.cli import main\n"
               "t = time.perf_counter()\n"
               "code = main(sys.argv[1:])\n"
               "sys.stderr.write('seconds %f\\n' % (time.perf_counter() - t))\n"
               "sys.exit(code)\n")


def bounded_child(script, argv=(), stdin=None, memory=1 << 30, timeout=20):
    """Run a Python script in a child process with `memory` bytes of
    address space and `timeout` seconds of wall time."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (memory, memory))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(grtor.__file__)))
    return subprocess.run([sys.executable, "-c", script] + list(argv), input=stdin,
                          capture_output=True, text=True, timeout=timeout, env=env,
                          preexec_fn=limit)


def run_bounded(argv, memory=1 << 30, timeout=20):
    """(exit code, stdout, stderr without the timing line, seconds inside
    main or None if the child did not get that far)."""
    proc = bounded_child(_TIMED_MAIN, argv, memory=memory, timeout=timeout)
    err, _, last = proc.stderr.rstrip("\n").rpartition("\n")
    if not last.startswith("seconds "):
        return proc.returncode, proc.stdout, proc.stderr, None
    return proc.returncode, proc.stdout, err + "\n" if err else "", float(last.split()[1])


FC_HEADER = "filtered-complex\nfield %s\nimax %d\njmax %d\ntruncated %d\n"


def test_huge_prime_characteristic(tmp_path):
    # a prime near 10^18 is decided at once; trial division to sqrt(p) is not
    fc = tmp_path / "p.fc"
    body = "term 0 dim 1 levels 2\nterm 1 dim 1 levels 0\ndiff 1 nnz 1\n0 0 5\n"
    fc.write_text(FC_HEADER % ("Fp 1000000000000000003", 1, 2, 0) + body)
    code, out, err, seconds = run_bounded(["check-theorem", "--synthetic", str(fc),
                                           "--format", "json"])
    assert (code, err) == (0, "") and seconds < 1
    assert json.loads(out)["certificate"] == [[0, 0, 2]]
    fc.write_text(FC_HEADER % ("Fp 1000000000000000001", 1, 2, 0) + body)  # 101 * ...
    code, _, err, seconds = run_bounded(["check-theorem", "--synthetic", str(fc)])
    assert_one_line_error(code, err)
    assert seconds < 1


def test_fc_header_imax_without_terms(tmp_path):
    # a header's imax without its term lines is an error, not a size
    fc = tmp_path / "imax.fc"
    fc.write_text(FC_HEADER % ("Fp 32003", 200000, 4, 0))
    code, _, err, seconds = run_bounded(["check-theorem", "--synthetic", str(fc)])
    assert_one_line_error(code, err)
    assert "'term 0'" in err and seconds < 1


@pytest.mark.parametrize("truncated", [0, 1])
def test_fc_header_jmax_sizes_no_loop(tmp_path, truncated):
    # a 1x1 differential under jmax 10^9: the spectral run must not visit
    # the whole (i, j) grid, nor every page up to the truncation
    fc = tmp_path / "jmax.fc"
    fc.write_text(FC_HEADER % ("Fp 32003", 1, 10 ** 9, truncated)
                  + "term 0 dim 1 levels 7\nterm 1 dim 1 levels 0\ndiff 1 nnz 1\n0 0 1\n")
    code, out, err, seconds = run_bounded(["check-theorem", "--synthetic", str(fc),
                                           "--format", "json"])
    assert (code, err) == (0, "") and seconds < 1
    payload = json.loads(out)
    assert payload["verdict"] == "PASS" and payload["r_stab"] == 8
    assert payload["certificate"] == [[0, 0, 7]]
    if truncated:
        window = 10 ** 9 - 8
        assert payload["validity_window"] == window
        assert payload["page_infinity_indeterminate"] == [
            [i, j] for i in (0, 1) for j in range(window + 1, 10 ** 9 + 1)]
    else:
        assert payload["page_infinity_indeterminate"] == []


WIDE_BODY = "term 0 dim 1 levels 999999999\nterm 1 dim 1 levels 0\ndiff 1 nnz 1\n0 0 1\n"


def test_wide_pair_in_table_format(tmp_path):
    # the diagram prints the rows of its support, not every row between
    # them, and pads every row label to the widest one
    fc = tmp_path / "wide.fc"
    fc.write_text(FC_HEADER % ("QQ", 1, 10 ** 9, 0) + WIDE_BODY)
    assert len(fc.read_text().splitlines()) == 9
    code, out, err, seconds = run_bounded(["check-theorem", "--synthetic", str(fc)])
    assert (code, err) == (0, "") and seconds < 1
    assert ("page 1 (reliable cells):\n             0   1\n"
            "       -1:   .   1\n999999999:   1   .\n") in out
    assert out.endswith("0 0 999999999\nbookkeeping verified: yes\nverdict: PASS\n")


def test_check_theorem_empty_generator_list_is_one_error_line(tmp_path):
    # 'ideal = ,' lists no generators: M = R, which has no resolution to lift
    job = tmp_path / "empty.job"
    job.write_text("[ring]\nvariables = X Y\nsetting = local\n\n"
                   "[module M]\nideal = ,\n\n[module N]\nideal = X^2 - Y^5\n")
    code, out, err, seconds = run_bounded(["check-theorem", str(job)])
    assert (code, out) == (1, "") and seconds < 1
    assert err == "error: check-theorem needs a nonzero ideal in [module M]\n"


def test_check_theorem_huge_imax_compares_only_the_support(tmp_path):
    # the page-1 check reads the cells where either side is nonzero, not a
    # dense (i, j) grid of 10^8 rows
    job = tmp_path / "xy.job"
    job.write_text("[ring]\nvariables = X Y\nsetting = local\n\n"
                   "[module M]\nideal = X\n\n[module N]\nideal = Y\n")
    code, out, err, seconds = run_bounded(["check-theorem", str(job), "--imax", "100000000",
                                           "--format", "json"])
    assert (code, err) == (0, "") and seconds < 1
    payload = json.loads(out)
    assert payload["verdict"] == "PASS" and payload["page1_matches_tor"] is True
    assert payload["tor_graded"] == {"imax": 100000000, "jmax": 12, "terms": [[0, 0, 1]]}


def test_tor_gr_huge_jmax_is_sized_by_the_module(tmp_path):
    # N = k has finite length: the pieces, the tensor complex and the strand
    # homology end where N does, not at a grid of 10^8 degrees
    job = tmp_path / "g4.job"
    job.write_text("[ring]\nvariables = a b c d\nsetting = graded\n\n"
                   "[module M]\nideal = a^2 + b*c, b^2 - c*d, c^2 + a*d, a*b + c*d\n\n"
                   "[module N]\nideal = a, b, c, d\n")
    code, out, err, seconds = run_bounded(["tor-gr", str(job), "--jmax", "100000000",
                                           "--format", "json"])
    assert (code, err) == (0, "") and seconds < 2
    # the terms that --jmax 14 gives
    assert json.loads(out)["series"] == {"imax": 6, "jmax": 100000000, "terms": [
        [0, 0, 1], [1, 2, 4], [2, 4, 7], [3, 5, 2], [3, 6, 4], [4, 7, 2]]}


def test_check_theorem_is_linear_in_jmax(tmp_path):
    # N = (Y) has infinite length, so the tensor has jmax + 1 basis vectors
    # per term; the run reads its certificate and boundary in one pass over
    # the pairing, not once per page
    job = tmp_path / "xy.job"
    job.write_text("[ring]\nvariables = X Y\nsetting = local\n\n"
                   "[module M]\nideal = X\n\n[module N]\nideal = Y\n")
    code, out, err, seconds = run_bounded(["check-theorem", str(job), "--jmax", "20000",
                                           "--char", "32003", "--format", "json"], timeout=60)
    assert (code, err) == (0, "") and seconds < 5
    payload = json.loads(out)
    assert payload["verdict"] == "PASS" and payload["page1_matches_tor"] is True
    assert payload["tor_graded"]["terms"] == [[0, 0, 1]]


def test_out_of_memory_is_one_error_line(tmp_path):
    # N = (Y) has infinite length and nothing sizes the tensor before it is
    # built, so jmax 10^6 runs out of 150 MB: one line, exit 1, and no line
    # from a generator the interpreter then fails to close
    job = tmp_path / "xy.job"
    job.write_text("[ring]\nvariables = X Y\nsetting = local\n\n"
                   "[module M]\nideal = X\n\n[module N]\nideal = Y\n")
    code, out, err, _ = run_bounded(["check-theorem", str(job), "--jmax", "1000000",
                                     "--char", "32003"], memory=150 << 20, timeout=60)
    assert (code, out, err) == (1, "", "error: out of memory\n")


@pytest.mark.parametrize("ideal", ["b^2 - c*", "a** + c*d", "*a + b", "a*-b", "2*"])
def test_stray_star_is_one_error_line(tmp_path, capsys, ideal):
    # a '*' that does not stand between two factors of one term is refused,
    # not skipped
    job = tmp_path / "star.job"
    job.write_text(PAIR_JOB.replace("variables = X Y", "variables = a b c d")
                   .replace("X^2 - Y^3", ideal).replace("X^2 - Y^5", "a, b"))
    code, out, err = run_cli(capsys, ["check-theorem", str(job)])
    assert_one_line_error(code, err)
    assert out == "" and "'*' must stand between two factors" in err


# job and series texts for the fuzz test: the cusps pair, g4 over F_32003,
# a graded job over a quotient ring, and two series
FUZZ_JOBS = [
    PAIR_JOB,
    "[ring]\nfield = Fp 32003\nvariables = a b c d\nsetting = graded\n\n"
    "[module M]\nideal = a^2 + b*c, b^2 - c*d, c^2 + a*d, a*b + c*d\n\n"
    "[module N]\nideal = a, b, c, d\n",
    "[ring]\nvariables = x1 x2\nsetting = graded\nquotient = x1^3\n\n"
    "[module M]\nideal = x1^2, x1*x2\n\n[module N]\nideal = x1, x2\n",
]
FUZZ_SERIES = ["1 3\n1 1 1\n0 2 1\n", "2 4\n2 0 1\n1 1 2\n0 2 1\n1 3 1\n"]
FUZZ_TOKEN = re.compile(r"[A-Za-z_]\w*|\d+|\s+|.")
FUZZ_ODD = ["", "=", "[", "]", "#", "\n", ",", "^", "*", "-", "/", "(", "0", "1", "-1",
            "32003", "QQ", "x"]

# runs every argv of a JSON list on standard input through main, each under
# a wall-clock alarm, and prints [exit code or "hang" / "traceback", stderr]
_FUZZ_MAIN = """\
import contextlib, io, json, signal, sys, traceback
from grtor.cli import main

class Hang(BaseException):
    pass

def alarm(signum, frame):
    raise Hang()

signal.signal(signal.SIGALRM, alarm)
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    signal.alarm(5)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except Hang:
        code = "hang"
    except BaseException:
        code = "traceback"
        err.write(traceback.format_exc())
    finally:
        signal.alarm(0)
    results.append([code, err.getvalue()])
json.dump(results, sys.stdout)
"""


def fuzz_mutant(text, rng):
    """One to three token edits of text: delete, insert or replace a token,
    drawn from the text itself and from a few stray ones."""
    tokens = FUZZ_TOKEN.findall(text)
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(len(tokens))
        op = rng.randrange(3)
        if op == 0:
            del tokens[k]
        elif op == 1:
            tokens.insert(k, rng.choice(tokens + FUZZ_ODD))
        else:
            tokens[k] = rng.choice(tokens + FUZZ_ODD)
    return "".join(tokens)


def test_fuzzed_job_and_series_text_never_ends_in_a_traceback(tmp_path):
    # g4 mutants skip check-theorem: a non-homogeneous M there spends seconds
    # in the lift's dense solve, which is slow, not a fault of the input path
    rng = random.Random(0)
    runs = []

    def write(name, text):
        (tmp_path / name).write_text(text)
        return str(tmp_path / name)

    def job(name, text, commands):
        path = write(name, text)
        runs.extend((text, [command, path] + flags) for command, flags in commands)

    gr = ("gr", ["--jmax", "8"])
    tor = ("tor-gr", ["--imax", "2", "--jmax", "8"])
    check = ("check-theorem", ["--imax", "2", "--jmax", "8"])
    job("blank-field.job", PAIR_JOB.replace("field = QQ", "field ="), [gr, tor, check])
    for k in range(1000):
        which = rng.randrange(len(FUZZ_JOBS) + len(FUZZ_SERIES))
        if which < len(FUZZ_JOBS):
            job("m%d.job" % k, fuzz_mutant(FUZZ_JOBS[which], rng),
                [gr, tor] if which == 1 else [gr, tor, check])
        else:
            base = FUZZ_SERIES[which - len(FUZZ_JOBS)]
            text = fuzz_mutant(base, rng)
            m, b = write("m%d.series" % k, text), write("b%d.series" % k, base)
            runs.extend([(text, ["cancel", m, b]), (text, ["cancel", b, m])])

    proc = bounded_child(_FUZZ_MAIN, stdin=json.dumps([argv for _text, argv in runs]),
                         timeout=60)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    assert len(results) == len(runs)
    codes = Counter()
    for (text, argv), (code, err) in zip(runs, results):
        one_line = err.count("\n") == 1 and err.endswith("\n")
        assert code in (0, 2) or (code in (1, 3) and one_line), (argv[0], text, code, err)
        codes[code] += 1
    assert results[0][1] == "error: unknown field ''\n"
    # the mutants reach past the parser, not only into its errors
    assert codes[0] > 100 and codes[1] > 100


def test_too_many_flagged_cells_is_one_error_line(tmp_path):
    # truncated, the pair closes on page 10^9, so every cell above j = 0
    # would be flagged: 2 * 10^9 cells are counted, not listed
    fc = tmp_path / "wide.fc"
    fc.write_text(FC_HEADER % ("QQ", 1, 10 ** 9, 1) + WIDE_BODY)
    for fmt in ("table", "json"):
        code, out, err, seconds = run_bounded(["check-theorem", "--synthetic", str(fc),
                                               "--format", fmt])
        assert_one_line_error(code, err)
        assert out == "" and "2000000000 cells" in err and seconds < 1


# argv -> (exit code, SHA-256 of stdout + "\0" + stderr) at 80 columns,
# recorded with Python 3.11's argparse from the parser that gave every
# subcommand the common options; a usage error is one `error:` line, exit 1
PARSER_TEXTS = {
    ("--help",): (0, "5e60d23d0f0a736c948ec567aa58cef90186dd9fc9f3687a2139bc23647bbb04"),
    ("gr", "--help"): (0, "8177d9de6c03a2fa2093c1f138f7b089b414e46156120ec3c3486fb6ce0a8112"),
    ("tor-gr", "--help"): (0, "870dda32e970b6c2170108bf2574389379b07a000eed7d72c57f61f3a342270b"),
    ("check-theorem", "--help"): (
        0, "f7910962979433393504e07b73c28a6646647000f89c31f7887c47d11e0266e9"),
    ("cancel", "--help"): (0, "ff597396469356d080e8d5c50272d2678d3d1720a01a82869f1bc4437bbcd151"),
    (): (1, "dd9d12e69f049b4a9d48fe09798144d18ee21ee9fd53664fc5da95022d02c726"),
    ("nope",): (1, "f4fe09bc7936bbbe824305e4ace787d260cb27e5b3cbe7862d752d5aded156f9"),
    ("--help", "gr"): (0, "5e60d23d0f0a736c948ec567aa58cef90186dd9fc9f3687a2139bc23647bbb04"),
    ("nope", "--help"): (1, "f4fe09bc7936bbbe824305e4ace787d260cb27e5b3cbe7862d752d5aded156f9"),
    ("tor-gr",): (1, "f630dd40a0a5fe20115c69b6e17e67e9e9c26a63c41e7a49119a44ffef84747f"),
    ("--jmax", "3", "cancel", "a", "b"): (
        1, "ffed572990b140c1fc7eef3143978d3e5747e417d82303bbb5354f1fe5338d9e"),
    ("canc", "a", "b"): (1, "d649989def139c1ee6b1acb25fb5d4738b2e8f19117e60ea41703d4b968d9783"),
    ("cancel", "-h"): (0, "ff597396469356d080e8d5c50272d2678d3d1720a01a82869f1bc4437bbcd151"),
    ("cancel", "a"): (1, "f4e77c76ce2baf139bdde99f0709f235b6a290f8b8ebf029cbc0d9a019bad1db"),
    ("tor-gr", "x", "--format", "xml"): (
        1, "21ca4310ac731b589ff8c1358135cd579ef22ef62101d95e0dee96f01ced7bb5"),
}


def _exit_code(parse, argv):
    try:
        return parse(list(argv))
    except SystemExit as exc:
        return exc.code
    except grtor.GrtorError as exc:  # a usage error, as `main` reports it
        print("error: %s" % exc, file=sys.stderr)
        return 1


@pytest.mark.parametrize("argv", sorted(PARSER_TEXTS))
def test_per_command_parser_prints_what_the_full_parser_prints(capsys, monkeypatch, argv):
    # `main` builds only the parser of the command it runs; help and the
    # errors, of a command or of a missing or unknown one, must not change
    monkeypatch.setenv("COLUMNS", "80")
    code = _exit_code(main, argv)
    got = capsys.readouterr()
    full = _exit_code(make_parser().parse_args, argv)
    assert (code, got.out, got.err) == (full,) + tuple(capsys.readouterr())
    if sys.version_info[:2] == (3, 11):  # argparse's wording differs by version
        digest = hashlib.sha256((got.out + "\0" + got.err).encode()).hexdigest()
        assert (code, digest) == PARSER_TEXTS[argv]


@pytest.mark.parametrize("command", ["gr", "tor-gr", "check-theorem", "cancel"])
def test_a_command_line_builds_one_parser(pair_job, graded_job, tmp_path, capsys,
                                          monkeypatch, command):
    # the full tree is five parsers; a valid command line needs its own only
    series = tmp_path / "s.series"
    series.write_text(BigradedSeries(0, 0).to_text())
    argv = {"gr": [pair_job], "tor-gr": [graded_job], "check-theorem": ["--synthetic", "random"],
            "cancel": [str(series), str(series)]}[command]
    built = []
    init = grtor.cli._Parser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(grtor.cli._Parser, "__init__", counted)
    assert main([command] + argv) == 0
    assert len(built) == 1
    with pytest.raises(SystemExit):
        main(["--help"])
    assert len(built) == 6


def count_calls(monkeypatch, targets):
    """Count the calls of each (module, function name) in `targets`, wherever
    a `grtor` module holds the function; returns the Counter."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for owner, name in targets:
        original = getattr(owner, name)
        wrapper = counted(name, original)
        for module in [m for k, m in sys.modules.items() if k.split(".")[0] == "grtor"]:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapper)
    return calls


def test_check_theorem_builds_each_artifact_once(tmp_path, capsys, monkeypatch):
    # one standard basis per ideal and one resolution of gr M, which both
    # graded Tor and the lift read
    calls = count_calls(monkeypatch, ((grtor.groebner, "standard_basis"),
                                      (grtor.resolution, "minimal_resolution")))
    job = tmp_path / "l4.job"
    job.write_text("[ring]\nvariables = a b c d\nsetting = local\n\n"
                   "[module M]\nideal = a^2 + b^3, b^2 - c^3 + d^4, c*d - a^3\n\n"
                   "[module N]\nideal = a - b^2, c\n")
    code, out, _ = run_cli(capsys, ["check-theorem", str(job), "--jmax", "8",
                                    "--format", "json"])
    assert code == 0 and json.loads(out)["verdict"] == "PASS"
    assert calls == {"standard_basis": 2, "minimal_resolution": 1}


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_gr_computes_one_standard_basis(tmp_path, capsys, monkeypatch, fmt):
    # the initial ideal, the series and the colength read one basis
    calls = count_calls(monkeypatch, ((grtor.groebner, "standard_basis"),))
    job = tmp_path / "gr.job"
    job.write_text("[ring]\nvariables = X Y\nsetting = local\n\n"
                   "[module M]\nideal = X^2 - Y^3, X^2 - Y^5\n")
    code, out, _ = run_cli(capsys, ["gr", str(job), "--jmax", "6", "--format", fmt])
    assert code == 0 and "X^2" in out and "Y^3" in out
    assert calls == {"standard_basis": 1}


def _job(tmp_path, setting, m_ideal, n_line):
    job = tmp_path / ("%s.job" % len(list(tmp_path.iterdir())))
    variables = "X Y" if setting == "local" else "x y"
    job.write_text("[ring]\nvariables = %s\nsetting = %s\n\n[module M]\nideal = %s\n\n"
                   "[module N]\n%s\n" % (variables, setting, m_ideal, n_line))
    return str(job)


@pytest.mark.parametrize("command", ["check-theorem", "gr"])
def test_literal_zero_generator_is_dropped_in_a_local_job(tmp_path, capsys, command):
    # '0' among the generators generates nothing; it is not a generator
    # that the cap truncated to zero
    outs = set()
    for m_ideal in ("X^2 - Y^3", "0, X^2 - Y^3", "X^2 - Y^3, 0, 0"):
        job = _job(tmp_path, "local", m_ideal, "ideal = X^2 - Y^5")
        code, out, err = run_cli(capsys, [command, job, "--format", "json"])
        assert (code, err) == (0, "")
        outs.add(out)
    assert len(outs) == 1


def test_literal_zero_generator_is_dropped_in_a_graded_job(tmp_path, capsys):
    outs = set()
    for m_ideal in ("x^2", "0, x^2", "x^2, 0"):
        job = _job(tmp_path, "graded", m_ideal, "ideal = x, y")
        code, out, err = run_cli(capsys, ["tor-gr", job, "--format", "json"])
        assert (code, err) == (0, "")
        outs.add(out)
    assert len(outs) == 1


@pytest.mark.parametrize("setting,command", [("local", "check-theorem"),
                                             ("graded", "tor-gr")])
def test_zero_ideal_is_the_omitted_ideal(tmp_path, capsys, setting, command):
    # N = R/0 = R: 'ideal = 0', 'ideal = 0, 0' and no ideal line agree
    m_ideal = "X^2 - Y^3" if setting == "local" else "x^2"
    outs = set()
    for n_line in ("ideal = 0", "ideal = 0, 0", ""):
        job = _job(tmp_path, setting, m_ideal, n_line)
        code, out, err = run_cli(capsys, [command, job, "--format", "json"])
        assert (code, err) == (0, "")
        outs.add(out)
    assert len(outs) == 1


def test_generator_truncated_at_the_cap_is_named(tmp_path, capsys):
    # Y^3 dies at cap 2, X - Y does not, and the literal 0 is no generator
    job = _job(tmp_path, "local", "0, X - Y, Y^3", "ideal = X")
    code, out, err = run_cli(capsys, ["check-theorem", job, "--cap", "2"])
    assert (code, out) == (3, "")
    assert err == "window exhausted: generator Y^3 of [module M] truncated to zero at cap 2\n"
