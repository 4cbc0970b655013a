"""The benchmark's checks pass real outputs and fail corrupted ones.

    python3 -m pytest benchmark/test_checks.py
"""

import contextlib
import copy
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from workloads import CUSPS, G4, P, Job  # noqa: E402


def run(job):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        from grtor.cli import main
        code = main(job.argv)
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def ideal_job(tmp_path, ideal, setting, char, jmax, swap=False):
    ident, variables, m_gens, n_gens = ideal
    if swap:
        m_gens, n_gens = n_gens, m_gens
    path = tmp_path / ("%s-%d-%d-%d.job" % (ident, char, jmax, swap))
    path.write_text(workloads._job_text(variables, setting, m_gens, n_gens))
    command = "check-theorem" if setting == "local" else "tor-gr"
    expect = dict(variables=variables, M=m_gens, N=n_gens, char=char, jmax=jmax)
    if setting == "local":
        expect.update(kind="ideal", low=True)
    else:
        expect.update(kind="poly", pair=(ident, char, jmax))
    return Job(ident, [command, str(path), "--jmax", str(jmax), "--format", "json"]
               + workloads._field_args(char), expect)


def fails(job, code, payload):
    return bool(checks.check_job(job, code, payload))


def test_theorem_corruptions(tmp_path):
    job = ideal_job(tmp_path, CUSPS, "local", 0, 8)
    code, good = run(job)
    assert checks.check_job(job, code, good) == []
    assert checks.oracle_errors([job], [good]) == []

    bad = copy.deepcopy(good)
    i, a, b = bad["certificate"][0]
    bad["certificate"][0] = [i, a, b + 1]
    assert fails(job, code, bad)

    bad = copy.deepcopy(good)
    bad["certificate"][0] = [i, b, a]
    assert fails(job, code, bad)

    bad = copy.deepcopy(good)
    bad["page_infinity"]["terms"][0][2] += 1
    assert fails(job, code, bad)
    assert checks.oracle_errors([job], [bad])

    bad = copy.deepcopy(good)
    bad["tor_graded"]["terms"][-1][2] += 1
    assert fails(job, code, bad)

    bad = dict(good, verdict="FAIL")
    assert fails(job, 2, bad)


def test_synthetic_corruptions(tmp_path):
    from grtor.spectral import random_filtered_complex
    L, model = random_filtered_complex(10, i_max=3, max_dim=8, max_level=6, with_model=True)
    path = tmp_path / "s.fc"
    path.write_text(L.to_text())
    job = Job("synthetic", ["check-theorem", "--synthetic", str(path), "--format", "json"],
              dict(kind="synthetic", page1=dict(model.expected_page1().coefficients),
                   pinf=dict(model.expected_infinity().coefficients),
                   cert=[list(s) for s in model.expected_certificate()]))
    code, good = run(job)
    assert good["certificate"], "the seed should give a nonempty certificate"
    assert checks.check_job(job, code, good) == []

    bad = copy.deepcopy(good)
    bad["certificate"].pop()
    assert fails(job, code, bad)

    bad = copy.deepcopy(good)
    bad["page1"]["terms"][0][2] += 1
    assert fails(job, code, bad)


def test_tor_graded_corruptions(tmp_path):
    jobs = [ideal_job(tmp_path, G4, "graded", P, 6),
            ideal_job(tmp_path, G4, "graded", P, 6, swap=True)]
    results = [run(job) for job in jobs]
    assert checks.check_sweep(jobs, results) == []
    assert checks.oracle_errors(jobs, [p for _c, p in results]) == []

    bad = copy.deepcopy(results[1][1])
    bad["series"]["terms"][-1][2] += 1
    assert checks.check_sweep(jobs, [results[0], (0, bad)])
    assert checks.oracle_errors(jobs[1:], [bad])

    stable = tmp_path / "stable.job"
    stable.write_text(workloads._job_text(
        ["x1", "x2", "x3"], "graded", ["x1^2", "x1*x2", "x1*x3"], ["x1", "x2", "x3"],
        quotient="x1^4"))
    job = Job("stable", ["tor-gr", str(stable), "--jmax", "10", "--format", "json"],
              dict(kind="stable", family=(3, 3, 2, 4), jmax=10))
    code, good = run(job)
    assert checks.check_job(job, code, good) == []
    bad = copy.deepcopy(good)
    bad["series"]["terms"][1][2] += 1
    assert fails(job, code, bad)


def test_cancel_corruptions(tmp_path):
    feasible = workloads._cancel_job(
        str(tmp_path), "f", 2, 4, {(1, 0): 1, (0, 3): 1, (0, 1): 2}, {(0, 1): 2},
        dict(kind="constructed", feasible=True))
    code, good = run(feasible)
    assert code == 0 and checks.check_job(feasible, code, good) == []
    assert fails(feasible, code, dict(good, feasible=False))
    assert fails(feasible, code, dict(good, certificate=[[0, 0, 2]]))

    infeasible = workloads._cancel_job(
        str(tmp_path), "g", 2, 4, {(1, 0): 1, (0, 3): 1, (0, 0): 1}, {},
        dict(kind="constructed", feasible=False))
    code, bad_pair = run(infeasible)
    assert code == 2 and checks.check_job(infeasible, code, bad_pair) == []
    assert fails(infeasible, code, dict(bad_pair, unmatched_hard=0))

    small = workloads._cancel_job(str(tmp_path), "s", 3, 5, {(1, 2): 1, (0, 2): 1}, {},
                                  dict(kind="small"))
    code, out = run(small)
    assert out["feasible"] is False and checks.check_job(small, code, out) == []
    assert checks.oracle_errors([small], [out]) == []
    assert checks.oracle_errors([small], [dict(out, feasible=True)])


def test_stable_closed_form_matches_library():
    from grtor.resolution import closed_form_tor_series
    for (n, m, d, e) in [(2, 2, 2, 3), (3, 3, 2, 4), (4, 3, 2, 3)]:
        want = closed_form_tor_series(n, m, d, e, 6, 12).coefficients
        assert checks.stable_series(m, d, e, 6, 12) == want
