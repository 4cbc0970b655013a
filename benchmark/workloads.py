"""The three workloads: job lists built from a seed, written to files.

A job is one `grtor` command line plus what the checks need to know
about its input.  The program only ever sees the files written here.

Algebraic jobs (the ROADMAP baseline ideals) are fixed; the seed renames
their variables, which must not change any output.  The seed does not
permute generators: generator order alone moves the cost of `tor-gr` on
g4 by up to 2.5x, which would put the choice of instance into the
run-to-run spread.  Synthetic complexes and cancellation pairs are drawn
from the seed, at fixed sizes.
"""

import os
import random
import re
from dataclasses import dataclass, field

P = 32003  # the prime field of every F_p job

# (id, variables, M generators, N generators): ROADMAP baseline table
CUSPS = ("cusps", ["X", "Y"], ["X^2 - Y^3"], ["X^2 - Y^5"])
THREE = ("three", ["X", "Y", "Z"], ["X^2 - Y^3", "Y^2 - Z^3"], ["X + Y^2 + Z^2"])
L4 = ("l4", ["a", "b", "c", "d"],
      ["a^2 + b^3", "b^2 - c^3 + d^4", "c*d - a^3"], ["a - b^2", "c"])
# N of finite length with everything under jmax: an exact complex,
# dim L_i = 27/135/135/27, not a truncation
EXACT = ("exact", ["X", "Y", "Z"], ["X*Y - Z^3", "X^2 - Y^3", "Y*Z"],
         ["X^3", "Y^3", "Z^3"])
G4 = ("g4", ["a", "b", "c", "d"],
      ["a^2 + b*c", "b^2 - c*d", "c^2 + a*d", "a*b + c*d"], ["a", "b", "c", "d"])

# (ideal, field characteristic, jmax); 0 is QQ
THEOREM_JOBS = [
    (CUSPS, 0, 12), (CUSPS, 0, 20), (CUSPS, P, 30),
    (THREE, 0, 8), (THREE, P, 12),
    (L4, P, 8), (L4, 0, 8),
    (EXACT, P, 16),
]
SYNTHETIC = dict(count=3, i_max=4, max_dim=24, max_level=10)

# (ideal, swap M and N, field, jmax)
GRADED_JOBS = [
    (G4, False, P, 10), (G4, False, P, 12), (G4, False, P, 14),
    (G4, False, 0, 6),
    (G4, True, P, 10), (G4, True, 0, 6),
]
# stable ideals (n, m, d, e) over k[x]/(x1^e), against k: (family, field, jmax)
STABLE_JOBS = [
    ((3, 3, 2, 4), 0, 12), ((3, 3, 2, 4), P, 12),
    ((4, 3, 2, 3), P, 12), ((4, 3, 2, 3), 0, 8),
]

# cancellation pairs on i <= 6, j <= 30: (cancellations added, feasible)
CANCEL_IMAX, CANCEL_JMAX = 6, 30
CANCEL_JOBS = [(k, True) for k in (250, 300, 350, 400) * 2] + \
              [(k, False) for k in (300, 400) * 2]
CANCEL_TARGET_UNITS = 40
# A6-sized pairs: 7..12 random units on i <= 3, j <= 5 against zero
SMALL_IMAX, SMALL_JMAX, SMALL_COUNT = 3, 5, 24


@dataclass
class Job:
    name: str
    argv: list
    expect: dict = field(default_factory=dict)


def series_text(i_max, j_max, coeffs):
    lines = ["%d %d" % (i_max, j_max)]
    lines += ["%d %d %d" % (i, j, c) for (i, j), c in sorted(coeffs.items()) if c]
    return "\n".join(lines) + "\n"


def _names(rng, n):
    """n distinct variable names drawn from the seed."""
    names = []
    while len(names) < n:
        name = rng.choice("abcdefghpqrstuvwxyz") + str(rng.randrange(100))
        if name not in names:
            names.append(name)
    return names


def _rename(gens, old, new):
    table = dict(zip(old, new))
    pattern = re.compile(r"\b(%s)\b" % "|".join(map(re.escape, old)))
    return [pattern.sub(lambda m: table[m.group(0)], g) for g in gens]


def _job_text(variables, setting, m_gens, n_gens, quotient=None):
    lines = ["[ring]", "variables = " + " ".join(variables), "setting = " + setting]
    if quotient:
        lines.append("quotient = " + quotient)
    lines += ["", "[module M]", "ideal = " + ", ".join(m_gens),
              "", "[module N]", "ideal = " + ", ".join(n_gens)]
    return "\n".join(lines) + "\n"


def _write(workdir, name, text):
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _field_args(char):
    return ["--char", str(char)] if char else []


def _field_label(char):
    return "Fp" if char else "QQ"


def theorem_jobs(seed, workdir):
    from grtor.spectral import random_filtered_complex
    rng = random.Random(seed)
    jobs = []
    for (ideal, char, jmax) in THEOREM_JOBS:
        ident, variables, m_gens, n_gens = ideal
        names = _names(rng, len(variables))
        m_new = _rename(m_gens, variables, names)
        n_new = _rename(n_gens, variables, names)
        name = "%s-%s-j%d" % (ident, _field_label(char), jmax)
        path = _write(workdir, name + ".job", _job_text(names, "local", m_new, n_new))
        jobs.append(Job(name, ["check-theorem", path, "--jmax", str(jmax),
                               "--format", "json"] + _field_args(char),
                        dict(kind="ideal", variables=names, M=m_new, N=n_new,
                             char=char, jmax=jmax, low=len(variables) <= 3)))
    for k in range(SYNTHETIC["count"]):
        cseed = rng.randrange(10 ** 9)
        L, model = random_filtered_complex(
            cseed, i_max=SYNTHETIC["i_max"], max_dim=SYNTHETIC["max_dim"],
            max_level=SYNTHETIC["max_level"], with_model=True)
        name = "synthetic-%d" % k
        path = _write(workdir, name + ".fc", L.to_text())
        jobs.append(Job(name, ["check-theorem", "--synthetic", path, "--format", "json"],
                        dict(kind="synthetic", seed=cseed,
                             page1=dict(model.expected_page1().coefficients),
                             pinf=dict(model.expected_infinity().coefficients),
                             cert=[list(s) for s in model.expected_certificate()])))
    return jobs


def graded_jobs(seed, workdir):
    rng = random.Random(seed)
    jobs = []
    for (ideal, swap, char, jmax) in GRADED_JOBS:
        ident, variables, m_gens, n_gens = ideal
        names = _names(rng, len(variables))
        m_new = _rename(m_gens, variables, names)
        n_new = _rename(n_gens, variables, names)
        if swap:
            m_new, n_new = n_new, m_new
        name = "%s%s-%s-j%d" % (ident, "-swap" if swap else "", _field_label(char), jmax)
        path = _write(workdir, name + ".job", _job_text(names, "graded", m_new, n_new))
        jobs.append(Job(name, ["tor-gr", path, "--jmax", str(jmax), "--format", "json"]
                        + _field_args(char),
                        dict(kind="poly", variables=names, M=m_new, N=n_new, char=char,
                             jmax=jmax, pair=(ident, char, jmax))))
    for ((n, m, d, e), char, jmax) in STABLE_JOBS:
        names = _names(rng, n)
        x1 = names[0]
        m_gens = ["%s^%d" % (x1, d)] + ["%s^%d*%s" % (x1, d - 1, names[k]) for k in range(1, m)]
        name = "stable-%d%d%d%d-%s-j%d" % (n, m, d, e, _field_label(char), jmax)
        text = _job_text(names, "graded", m_gens, names, quotient="%s^%d" % (x1, e))
        path = _write(workdir, name + ".job", text)
        jobs.append(Job(name, ["tor-gr", path, "--jmax", str(jmax), "--format", "json"]
                        + _field_args(char),
                        dict(kind="stable", family=(n, m, d, e), jmax=jmax)))
    return jobs


def _bump(coeffs, cell, c=1):
    coeffs[cell] = coeffs.get(cell, 0) + c


def cancel_jobs(seed, workdir):
    rng = random.Random(seed)
    jobs = []
    for k, (count, feasible) in enumerate(CANCEL_JOBS):
        target = {}
        for _ in range(CANCEL_TARGET_UNITS):
            _bump(target, (rng.randint(0, CANCEL_IMAX), rng.randint(0, CANCEL_JMAX)))
        source = dict(target)
        for _ in range(count):
            i = rng.randint(0, CANCEL_IMAX - 1)
            a = rng.randint(0, CANCEL_JMAX - 1)
            b = rng.randint(a + 1, CANCEL_JMAX)
            _bump(source, (i + 1, a))
            _bump(source, (i, b))
        if not feasible:
            # no cancellation removes a unit at (0, 0): its partner would
            # need a < 0
            _bump(source, (0, 0))
        name = "%s-%d-k%d" % ("feasible" if feasible else "infeasible", k, count)
        jobs.append(_cancel_job(workdir, name, CANCEL_IMAX, CANCEL_JMAX, source, target,
                                dict(kind="constructed", feasible=feasible)))
    cells = [(i, j) for i in range(SMALL_IMAX + 1) for j in range(SMALL_JMAX + 1)]
    for k in range(SMALL_COUNT):
        source = {}
        for _ in range(rng.randint(7, 12)):
            _bump(source, rng.choice(cells))
        jobs.append(_cancel_job(workdir, "small-%d" % k, SMALL_IMAX, SMALL_JMAX, source, {},
                                dict(kind="small")))
    return jobs


def _cancel_job(workdir, name, i_max, j_max, source, target, expect):
    src = _write(workdir, name + ".src.series", series_text(i_max, j_max, source))
    tgt = _write(workdir, name + ".tgt.series", series_text(i_max, j_max, target))
    expect.update(imax=i_max, jmax=j_max, source=source, target=target)
    return Job(name, ["cancel", src, tgt, "--format", "json"], expect)


BUILDERS = {"theorem": theorem_jobs, "tor-graded": graded_jobs, "cancel": cancel_jobs}
WORKLOADS = tuple(BUILDERS)


def build(workload, seed, workdir):
    """Write the inputs of one workload and return its ordered job list."""
    os.makedirs(workdir, exist_ok=True)
    return BUILDERS[workload](seed, workdir)
