"""Independent checks of `grtor` outputs.

`check_sweep` runs on every sweep's outputs and uses only the
benchmark's own arithmetic on the JSON the program printed: certificate
replay, the closed form of the stable family, the symmetry of Tor.
`oracle_errors` runs once per run, after the timed sweeps, and compares
the outputs with routes through the library that share no code with the
path under test: `tor_local_low` (ideal intersection and product),
Hilbert series counted from Groebner bases, and exhaustive pairing.

Every function returns a list of error strings; an empty list passes.
"""

from math import comb

EXIT_OK, EXIT_UNVERIFIED = 0, 2


def terms(series):
    """{(i, j): c} from the program's JSON series."""
    return {(i, j): c for i, j, c in series["terms"]}


def replay(coeffs, steps, i_max, j_max):
    """Subtract z^{i+1} t^a + z^i t^b for each step (i, a, b), in order.

    Returns (result, error); error names the first step that has a >= b,
    leaves the grid or drives a coefficient negative."""
    out = dict(coeffs)
    for n, (i, a, b) in enumerate(steps):
        if not a < b:
            return out, "step %d (%d, %d, %d) has a >= b" % (n, i, a, b)
        if i < 0 or a < 0 or i + 1 > i_max or b > j_max:
            return out, "step %d (%d, %d, %d) leaves the grid" % (n, i, a, b)
        for cell in ((i + 1, a), (i, b)):
            if out.get(cell, 0) < 1:
                return out, "step %d (%d, %d, %d) drives %r negative" % (n, i, a, b, cell)
            out[cell] -= 1
    return {k: c for k, c in out.items() if c}, None


def _differ(got, want, cells):
    return [c for c in cells if got.get(c, 0) != want.get(c, 0)]


def _window_cells(payload):
    """Unflagged cells of the limit page's validity window."""
    pinf = payload["page_infinity"]
    flagged = {tuple(c) for c in payload["page_infinity_indeterminate"]}
    return [(i, j) for i in range(pinf["imax"] + 1)
            for j in range(min(pinf["jmax"], payload["validity_window"]) + 1)
            if (i, j) not in flagged]


def _check_theorem(job, code, p):
    e = job.expect
    errors = []
    if code != EXIT_OK or p["verdict"] != "PASS" or p["verified"] is not True:
        errors.append("exit %s, verdict %s, verified %s" % (code, p["verdict"], p["verified"]))
    page1 = terms(p["page1"])
    pinf = terms(p["page_infinity"])
    left, err = replay(page1, p["certificate"], p["page1"]["imax"], p["page1"]["jmax"])
    if err:
        errors.append("certificate: " + err)
    else:
        bad = _differ(left, pinf, _window_cells(p))
        if bad:
            errors.append("page 1 - certificate != page infinity at %r" % bad[:3])
    if e["kind"] == "ideal":
        if p.get("page1_matches_tor") is not True:
            errors.append("page1_matches_tor is %r" % p.get("page1_matches_tor"))
        tor = terms(p["tor_graded"])
        cells = [(i, j) for i in range(max(p["tor_graded"]["imax"], p["page1"]["imax"]) + 1)
                 for j in range(p["page1"]["jmax"] + 1)]
        bad = _differ(page1, tor, cells)
        if bad:
            errors.append("page 1 != graded Tor at %r" % bad[:3])
    else:
        if page1 != e["page1"]:
            errors.append("page 1 differs from the model")
        if pinf != e["pinf"]:
            errors.append("page infinity differs from the model")
        if sorted(map(tuple, p["certificate"])) != sorted(map(tuple, e["cert"])):
            errors.append("certificate differs from the model")
    return errors


def stable_series(m, d, e, i_max, j_max):
    """Tor^G(M, k) for the stable family over G = k[x]/(x1^e), whatever
    the number of variables: (1 + sum_i C(m, i) z^i t^{d+i-1}) *
    sum_k z^{2k} t^{ke}, truncated."""
    left = {(0, 0): 1}
    for i in range(1, m + 1):
        left[(i, d + i - 1)] = comb(m, i)
    out = {}
    for k in range(i_max // 2 + 1):
        for (i, j), c in left.items():
            cell = (i + 2 * k, j + k * e)
            if cell[0] <= i_max and cell[1] <= j_max:
                out[cell] = out.get(cell, 0) + c
    return out


def _check_tor_graded(job, code, p):
    errors = []
    if code != EXIT_OK:
        return ["exit %s" % code]
    series = terms(p["series"])
    if any(c <= 0 for c in series.values()):
        errors.append("nonpositive coefficient")
    if job.expect["kind"] == "stable":
        _n, m, d, e = job.expect["family"]
        want = stable_series(m, d, e, p["series"]["imax"], p["series"]["jmax"])
        if series != want:
            errors.append("differs from the stable-family closed form at %r"
                          % sorted(set(series.items()) ^ set(want.items()))[:3])
    return errors


def _check_cancel(job, code, p):
    e = job.expect
    errors = []
    if e["kind"] == "constructed" and p["feasible"] != e["feasible"]:
        errors.append("feasible is %r, constructed %r" % (p["feasible"], e["feasible"]))
    if code != (EXIT_OK if p["feasible"] else EXIT_UNVERIFIED):
        errors.append("exit %s with feasible %r" % (code, p["feasible"]))
    if p["feasible"]:
        left, err = replay(e["source"], p["certificate"], e["imax"], e["jmax"])
        if err:
            errors.append("certificate: " + err)
        elif left != {k: c for k, c in e["target"].items() if c}:
            errors.append("certificate does not reach the target")
    elif e["kind"] == "constructed":
        if p["negative_cell"] is not None or p["unmatched_hard"] < 1:
            errors.append("infeasible pair without a hard unmatched unit: %r" % p)
    elif p["negative_cell"] is None and p["unmatched_hard"] + p["unmatched_boundary"] < 1:
        errors.append("infeasible without a negative cell or an unmatched unit")
    return errors


CHECKS = {"check-theorem": _check_theorem, "tor-gr": _check_tor_graded,
          "cancel": _check_cancel}


def check_job(job, code, payload):
    if payload is None:
        return ["%s: no output (exit %s)" % (job.name, code)]
    try:
        errors = CHECKS[job.argv[0]](job, code, payload)
    except (KeyError, TypeError, ValueError) as exc:
        errors = ["malformed output: %r" % (exc,)]
    return ["%s: %s" % (job.name, err) for err in errors]


def check_sweep(jobs, results):
    """Checks of one sweep; results[k] = (exit code, parsed JSON or None)."""
    errors = []
    for job, (code, payload) in zip(jobs, results):
        errors += check_job(job, code, payload)
    # balancing of Tor: Tor(M, k) and Tor(k, M) agree
    by_pair = {}
    for job, (_code, payload) in zip(jobs, results):
        if job.expect.get("kind") == "poly" and payload is not None:
            by_pair.setdefault(job.expect["pair"], []).append(terms(payload["series"]))
    for pair, found in by_pair.items():
        if len(found) == 2 and found[0] != found[1]:
            errors.append("Tor(M, k) != Tor(k, M) for %r" % (pair,))
    return errors


# --- oracles, once per run ---------------------------------------------------


def _local_ideals(e, cap):
    from grtor.fields import Field
    from grtor.groebner import IdealPresentation
    from grtor.poly import LOCAL, Ring
    ring = Ring(e["variables"], Field(e["char"]), LOCAL, cap=cap)
    return IdealPresentation(ring, e["M"]), IdealPresentation(ring, e["N"])


def _oracle_theorem(job, p, imax):
    """Rows i <= 1 of the limit page against exact ideal arithmetic."""
    from grtor.filtered import tor_local_low
    e = job.expect
    if e["kind"] != "ideal" or not e["low"]:
        return []
    cap = e["jmax"] + imax + 2  # the CLI's default cap
    I, J = _local_ideals(e, cap)
    low = tor_local_low(I, J, e["jmax"], cap).series.coefficients
    pinf = terms(p["page_infinity"])
    bad = _differ(pinf, low, [c for c in _window_cells(p) if c[0] <= 1])
    return ["limit page != tor_local_low at %r" % bad[:3]] if bad else []


def _count_standard(lms, nvars, degree):
    """Monomials of the given degree divisible by no exponent in lms."""
    def monomials(n, d):
        if n == 1:
            yield (d,)
            return
        for first in range(d + 1):
            for rest in monomials(n - 1, d - first):
                yield (first,) + rest
    return sum(1 for u in monomials(nvars, degree)
               if not any(all(a <= b for a, b in zip(lm, u)) for lm in lms))


def _hilbert(e, gens, jmax):
    from grtor.fields import Field
    from grtor.groebner import IdealPresentation, groebner_basis
    from grtor.poly import GRADED, Ring
    ring = Ring(e["variables"], Field(e["char"]), GRADED)
    lms = [g.leading_monomial() for g in groebner_basis(IdealPresentation(ring, gens))]
    return [_count_standard(lms, len(e["variables"]), j) for j in range(jmax + 1)]


def _oracle_tor_graded(job, p):
    """Over the polynomial ring in n variables, sum_i (-1)^i Tor_i(M, N)_j
    is the t^j coefficient of H_M * H_N * (1 - t)^n."""
    e = job.expect
    if e["kind"] != "poly":
        return []
    jmax, n = e["jmax"], len(e["variables"])
    hm, hn = _hilbert(e, e["M"], jmax), _hilbert(e, e["N"], jmax)
    poly = [sum(hm[a] * hn[j - a] for a in range(j + 1)) for j in range(jmax + 1)]
    for _ in range(n):
        poly = [poly[j] - (poly[j - 1] if j else 0) for j in range(jmax + 1)]
    euler = [0] * (jmax + 1)
    for (i, j), c in terms(p["series"]).items():
        euler[j] += (-1) ** i * c
    bad = [j for j in range(jmax + 1) if euler[j] != poly[j]]
    return ["Euler characteristic != H_M H_N (1-t)^n at t^%r" % bad[:3]] if bad else []


def _oracle_cancel(job, p):
    from grtor.series import BigradedSeries, decide_cancellation_bruteforce
    e = job.expect
    if e["kind"] != "small":
        return []
    src = BigradedSeries(e["imax"], e["jmax"], e["source"])
    tgt = BigradedSeries(e["imax"], e["jmax"], e["target"])
    want = decide_cancellation_bruteforce(src, tgt)
    return [] if p["feasible"] == want else ["feasible is %r, exhaustive pairing %r"
                                             % (p["feasible"], want)]


def oracle_errors(jobs, payloads, imax=6):
    errors = []
    for job, p in zip(jobs, payloads):
        if p is None:
            continue
        kind = job.argv[0]
        if kind == "check-theorem":
            found = _oracle_theorem(job, p, imax)
        elif kind == "tor-gr":
            found = _oracle_tor_graded(job, p)
        else:
            found = _oracle_cancel(job, p)
        errors += ["%s: %s" % (job.name, err) for err in found]
    return errors
