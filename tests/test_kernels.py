"""The exact-arithmetic kernels: bound field operations and row primitives,
pickling, the heap-ordered normal form against the scan-based oracle in
tests/reduce_oracle.py, the table of monomial normal forms against
direct reduction, the quotient memo, and the sparse-input `ColumnEchelon`,
untagged and solving through its combinations, against the dense kernels
of tests/spectral_oracle.py."""

import pickle
import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from grtor import groebner
from grtor.fields import MAX_CHARACTERISTIC, QQ, Field, GrtorError, _is_prime
from grtor.groebner import (IdealPresentation, NormalFormTable, _buchberger,
                            _divides, _leads, _reduce, _Tracked, groebner_basis,
                            module_groebner_basis, module_normal_form, normal_form,
                            quotient_groebner, quotient_table, standard_basis)
from grtor.linalg import ColumnEchelon
from grtor.poly import GRADED, LOCAL, Ring

from poly_oracle import column, entries, monomial_multiple
from reduce_oracle import oracle_leads, reduce_oracle
from spectral_oracle import ColumnEchelon as ColumnEchelonOracle
from spectral_oracle import solve as solve_oracle

P = 32003
BIG_PRIME = 1000000000000000003


# --- bound operations and row primitives --------------------------------------


def _element(rng, p):
    """A random field element; over QQ small, around 2^64 or above it in
    numerator and denominator, of either sign."""
    if p == 0:
        big = 2 ** 64
        num = rng.choice([rng.randint(-50, 50), big + rng.randint(-2, 2),
                          rng.randint(big, big ** 2)])
        den = rng.choice([rng.randint(1, 12), big + rng.randint(-2, 2),
                          rng.randint(big, big ** 2)])
        return Fraction(rng.choice([-1, 1]) * num, den)
    return rng.randrange(p)


def test_fraction_keeps_the_slots_the_rational_kernel_sets():
    # the QQ operations build their results with object.__new__ and set
    # these two slots; a fractions module without them must fail here
    assert {"_numerator", "_denominator"} <= set(Fraction.__slots__)


@pytest.mark.parametrize("p", [0, 2, P, BIG_PRIME])
def test_bound_operations_match_plain_arithmetic(p):
    F = Field(p)
    kind = Fraction if p == 0 else int

    def plain(x):
        return Fraction(x) if p == 0 else x % p

    def same(got, want):
        """got is the field's canonical form of want: over QQ the exact
        reduced (numerator, denominator) pair of ints, with a positive
        denominator, hashing and pickling as the public constructor's
        Fraction of that value."""
        if type(got) is not kind:
            return False
        if p:
            return got == want % p
        want = Fraction(want)
        n, d = got.numerator, got.denominator
        return (type(n) is int and type(d) is int
                and (n, d) == (want.numerator, want.denominator)
                and hash(got) == hash(want) and pickle.loads(pickle.dumps(got)) == got)

    rng = random.Random(p)
    assert (F.zero, F.one) == (0, 1)
    assert type(F.zero) is kind and type(F.one) is kind
    for _ in range(300):
        a, b, f = _element(rng, p), _element(rng, p), _element(rng, p)
        if rng.random() < 0.2:
            a = plain(f * b)  # the multiply-accumulate cancels to zero
        for got, want in ((F.add(a, b), a + b), (F.sub(a, b), a - b),
                          (F.mul(a, b), a * b), (F.neg(a), -a), (F.submul(a, f, b), a - f * b),
                          (F.add(a, F.neg(a)), 0), (F.sub(b, b), 0), (F.mul(F.zero, b), 0),
                          (F.neg(F.zero), 0)):
            assert same(got, want)
            if p:
                assert 0 <= got < p
        if b:
            inv = Fraction(1, b) if p == 0 else pow(b, -1, p)
            assert same(F.inv(b), inv) and same(F.div(a, b), a * inv)
        xs = [_element(rng, p) for _ in range(rng.randint(0, 6))]
        ys = [_element(rng, p) for _ in xs]
        xs = [plain(f * y) if rng.random() < 0.2 else x for x, y in zip(xs, ys)]
        axpy, scale = F.axpy(xs, f, ys), F.scale(f, xs)
        assert len(axpy) == len(scale) == len(xs)
        assert all(same(got, x - f * y) for got, x, y in zip(axpy, xs, ys))
        assert all(same(got, f * x) for got, x in zip(scale, xs))
        assert xs == [plain(x) for x in xs]  # the inputs are left alone
    for op in (F.inv, lambda a: F.div(F.one, a)):
        with pytest.raises(ZeroDivisionError, match="field inverse of zero"):
            op(F.zero)


@pytest.mark.parametrize("p", [0, P])
def test_row_updates_on_rows_with_zeros_match_the_entrywise_formulas(p):
    # axpy keeps x where y is zero and F_p scale keeps zeros: every entry is
    # still the field's submul(x, f, y) and mul(f, x), of the field's type
    F = Field(p)
    rng = random.Random(p + 5)
    for _ in range(300):
        n = rng.randint(0, 12)
        xs = [_element(rng, p) if rng.random() < 0.5 else F.zero for _ in range(n)]
        ys = [_element(rng, p) if rng.random() < 0.5 else F.zero for _ in range(n)]
        f = rng.choice([F.zero, F.one, _element(rng, p)])
        for got, want in ((F.axpy(xs, f, ys), [F.submul(x, f, y) for x, y in zip(xs, ys)]),
                          (F.scale(f, xs), [F.mul(f, x) for x in xs])):
            assert got == want
            assert all(type(x) is type(F.zero) for x in got)
            if p:
                assert all(0 <= x < p for x in got)
            else:
                assert all(x.denominator > 0 and gcd(x.numerator, x.denominator) == 1
                           for x in got)


def test_primality_is_exact_below_the_limit():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))
    assert [n for n in range(3000) if _is_prime(n)] == [n for n in range(3000) if trial(n)]
    # strong pseudoprimes to the first 4, 9 and 12 prime bases
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not _is_prime(n)
    for n in (2 ** 61 - 1, BIG_PRIME, 2 ** 79 - 67, 10 ** 24 + 7):
        assert _is_prime(n)
    assert Field(BIG_PRIME).char == BIG_PRIME
    for n in (MAX_CHARACTERISTIC, 2 ** 89 - 1):  # composite, then a Mersenne prime
        with pytest.raises(GrtorError, match="characteristic %d is too large" % n):
            Field(n)


def test_fields_rings_and_polynomials_pickle():
    for F in (QQ, Field(P)):
        G = pickle.loads(pickle.dumps(F))
        assert G == F and G.mul(G.of(-3), G.of(5)) == F.of(-15)
        assert G.axpy([G.one], G.of(2), [G.one]) == [F.of(-1)]
        for setting, cap in ((GRADED, None), (LOCAL, 9)):
            R = Ring(["X", "Y"], F, setting, cap=cap)
            S = pickle.loads(pickle.dumps(R))
            assert S.compatible(R) and S.order == R.order
            assert S.order.key((1, 2)) == R.order.key((1, 2))
            p = R.parse("X^2 - 3*Y^3 + 2*X*Y")
            q = pickle.loads(pickle.dumps(p))
            assert q == p and str(q * q) == str(p * p)


# --- the normal form against the oracle ------------------------------------------


def _exps(rng, nvars, top):
    """A random exponent vector of total degree <= top."""
    while True:
        e = tuple(rng.randint(0, top) for _ in range(nvars))
        if sum(e) <= top:
            return e


def _coeff(rng, F):
    return F.of(Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.randint(1, 3)))


def _vec(rng, ring, shifts, nterms, top):
    """A random column of internal degree <= top."""
    terms = {}
    for _ in range(nterms):
        row = rng.randrange(len(shifts))
        if top - shifts[row] >= 0:
            terms[(row, _exps(rng, ring.nvars, top - shifts[row]))] = _coeff(rng, ring.field)
    return terms


def _expr(rng, ring, ncols, top):
    """A random cofactor expression: a term dict over ncols input columns."""
    return {(rng.randrange(ncols), _exps(rng, ring.nvars, top)): _coeff(rng, ring.field)
            for _ in range(rng.randint(0, 3 * ncols))}


# (setting, ring cap, reduction cap, shifts): graded with and without a
# cap, local below the ring's cap, a lower one and a higher one
CASES = [(GRADED, None, None, (0,)), (GRADED, None, None, (0, 1)),
         (GRADED, None, 5, (0,)), (GRADED, None, 5, (1, 0)),
         (LOCAL, 6, None, (0,)), (LOCAL, 6, None, (0, 1)),
         (LOCAL, 6, 4, (0, 1)), (LOCAL, 5, 7, (0,))]


def _assert_same(got, want):
    assert got.col == want.col
    assert got.expr == want.expr and all(got.expr.values())


@pytest.mark.parametrize("p", [0, P])
@pytest.mark.parametrize("case", CASES)
def test_reduce_matches_oracle(p, case):
    setting, ring_cap, cap, shifts = case
    ring = Ring(["x", "y", "z"], Field(p), setting, cap=ring_cap)
    top = min(c for c in (ring_cap, cap, 7) if c is not None)
    steps = 0
    for seed in range(20):
        rng = random.Random(seed)
        ncols = rng.randint(1, 3)
        # arbitrary reducers: the first divisor in list order wins, so the
        # order matters, and reducers may share a lead term
        reducers = [_Tracked(_vec(rng, ring, shifts, rng.randint(1, 3), rng.randint(1, 3)),
                             _expr(rng, ring, ncols, top))
                    for _ in range(rng.randint(0, 6))]
        cols = [_vec(rng, ring, shifts, rng.randint(1, 3), rng.randint(1, 3))
                for _ in range(rng.randint(1, 3))]
        basis, _ = _buchberger(ring, cols, shifts, cap, True)  # tracked reducers
        for reds in (reducers, reducers[::-1], basis):
            for _ in range(4):
                f = _Tracked(_vec(rng, ring, shifts, rng.randint(1, 8), top),
                             _expr(rng, ring, ncols if reds is not basis else len(cols), top))
                before = dict(f.expr)
                got = _reduce(ring, shifts, f, _leads(ring, reds), cap)
                want = reduce_oracle(ring, shifts, f, oracle_leads(ring, reds), cap)
                _assert_same(got, want)
                steps += got.expr != f.expr
                assert f.expr == before  # the input is left alone
                heads = oracle_leads(ring, reds)
                for row, e in got.col:
                    assert not any(r == row and _divides(g, e) for (r, g), _ in heads)
    assert steps > 100  # most reductions changed the expression


# --- the table of monomial normal forms ------------------------------------------


def _direct(ring, vec, basis, shifts, cap):
    """The normal form of the whole vector in one reduction."""
    leads = _leads(ring, [_Tracked(column(b)) for b in basis])
    return _reduce(ring, shifts, _Tracked(column(vec)), leads, cap).col


def _table_nf(table, vec, mono):
    """NF(x^mono * vec) from the table, one row at a time, by linearity."""
    fld, zero = table.ring.field, table.ring.field.zero
    mono = mono or (0,) * table.ring.nvars
    out = {}
    for row, p in enumerate(vec):
        for (_, k), c in table(column([p]), (row, mono)).items():
            out[k] = fld.add(out.get(k, zero), c)
    return {k: c for k, c in out.items() if c}


def _table_basis(ring, shifts, kind):
    """Module basis vectors of one table case."""
    if kind == "empty":
        return []
    if kind == "quotient":
        return [[g] for g in quotient_groebner(ring)]
    if len(shifts) == 1:
        ideal = IdealPresentation(ring, ["x^2 - y^3 + x*z", "y^2 - z^3", "x*y*z"])
        if ring.setting == LOCAL:
            return [[g] for g in standard_basis(ideal)]
        return [[g] for g in groebner_basis(ideal)]
    # a rank-2 module with shifts (0, 1), the quotient adjoined in each row
    cols = [[ring.parse("x*y"), ring.parse("z")], [ring.parse("y^2 - x*z"), ring.parse("x")],
            [ring.parse("z^3"), ring.parse("y^2")]]
    cols += [[q if b == a else ring.zero() for b in range(2)]
             for q in ring.quotient for a in range(2)]
    return module_groebner_basis(ring, cols, shifts)


# (setting, ring cap, table cap, shifts, basis): local below and at the
# ring's cap, graded with a quotient, rank 2 with shifts, empty bases
TABLE_CASES = [(LOCAL, 7, 5, (0,), "ideal"), (LOCAL, 7, None, (0,), "ideal"),
               (LOCAL, 7, 7, (0, 1), "module"), (LOCAL, 7, 5, (0, 1), "module"),
               (GRADED, None, None, (0,), "quotient"), (GRADED, None, None, (0, 1), "module"),
               (LOCAL, 6, 4, (0, 1), "empty"), (GRADED, None, None, (0,), "empty")]


@pytest.mark.parametrize("p", [0, P])
@pytest.mark.parametrize("case", TABLE_CASES)
def test_normal_form_table_matches_direct_reduction(p, case):
    setting, ring_cap, cap, shifts, kind = case
    quotient = ("x*z - y^2", "x^3") if setting == GRADED else ()
    ring = Ring(["x", "y", "z"], Field(p), setting, cap=ring_cap, quotient=quotient)
    basis = _table_basis(ring, shifts, kind)
    rank = len(shifts)
    table = NormalFormTable(ring, [column(b) for b in basis], shifts, cap)  # one for every vector
    top = min(c for c in (ring_cap, cap, 6) if c is not None)
    # the public normal forms take the ring's cap: on a ring of the table's
    pub = ring if cap is None else Ring(["x", "y", "z"], Field(p), setting, cap=cap)
    pub_basis = [entries(pub, column(b), rank) for b in basis]
    cancelled = 0
    for seed in range(40):
        rng = random.Random(seed)
        mono = _exps(rng, 3, 2) if seed % 2 else None
        vecs = [entries(ring, _vec(rng, ring, shifts, rng.randint(1, 8), top), rank)]
        if basis:  # module members: every sum cancels
            vecs.append(list(basis[seed % len(basis)]))
        for vec in vecs:
            got = _table_nf(table, vec, mono)
            assert all(got.values())
            moved = [q if mono is None else monomial_multiple(q, mono) for q in vec]
            want = _direct(ring, moved, basis, shifts, cap)
            assert got == want
            cancelled += not want
            moved = entries(pub, column(moved), rank)
            if rank == 1:
                assert got == {(0, e): c for e, c in
                               normal_form(moved[0], [b[0] for b in pub_basis]).terms.items()}
            else:
                assert module_normal_form(moved, pub_basis, shifts) == entries(pub, want, rank)
    if basis:
        assert cancelled >= 20
    assert len(table._nf) > 20  # the table was reused, not rebuilt


def test_normal_form_column_drops_terms_past_top_and_rejects_terms_outside_the_index():
    ring = Ring(["x", "y"], Field(P), GRADED, quotient=("x^2",))
    table = NormalFormTable(ring, [column([g]) for g in quotient_groebner(ring)])
    shifts = (0, 1)
    keys = [(a, (0, e)) for a in range(2) for d in range(4 - shifts[a])
            for e in table.terms(0, d)]
    index = {key: n for n, key in enumerate(keys)}
    col = column([ring.parse("x + 2*y"), ring.parse("y^2")])
    # (x + 2y) x = 2xy mod x^2 at level 2; y^2 x in component 1 sits at level 4
    assert table.column(col, (0, (1, 0)), index, shifts, 3) == {index[(0, (0, (1, 1)))]: 2}
    with pytest.raises(GrtorError, match="outside the basis"):
        table.column(col, (0, (1, 0)), index, shifts, 4)
    with pytest.raises(GrtorError, match="outside the basis"):  # no top: nothing dropped
        table.column(col, (0, (1, 0)), index)


@pytest.mark.parametrize("p", [0, P])
@pytest.mark.parametrize("setting, ring_cap",
                         [(LOCAL, 3), (LOCAL, 6), (LOCAL, 9), (GRADED, None)])
def test_normal_form_against_an_empty_basis_is_the_truncation(p, setting, ring_cap):
    ring = Ring(["x", "y", "z"], Field(p), setting, cap=ring_cap)
    for seed in range(30):
        rng = random.Random(seed)
        # drawn to degree 6, so at ring cap 3 the normal form cuts terms
        f = entries(ring, _vec(rng, ring, (0,), rng.randint(0, 8), 6), 1)[0]
        want = f if ring_cap is None else f.truncate(ring_cap)
        got = normal_form(f, [])
        assert got == want and got.ring is ring


def test_one_groebner_basis_per_quotient_ring(monkeypatch):
    # the quotient's Groebner basis is the ring's one memo: its lead
    # monomials, the graded pieces and the quotient table are read off it
    calls = []
    real = groebner.groebner_basis

    def counting(ideal):
        calls.append(ideal.ring)
        return real(ideal)
    monkeypatch.setattr(groebner, "groebner_basis", counting)
    ring = Ring(["x1", "x2", "x3"], Field(P), GRADED, quotient=("x1^4",))
    gb = quotient_groebner(ring)
    table = quotient_table(ring)
    assert table.terms(0, 5) and table.basis(6)
    assert quotient_groebner(ring) is gb and quotient_table(ring).terms(0, 6)
    assert calls == [ring]


# --- the sparse-input elimination kernels against the dense oracles --------------


def _combine(field, cols, coeffs):
    """sum_c coeffs[c] * cols[c], as a sparse column."""
    out = {}
    for f, col in zip(coeffs, cols):
        for r, x in col.items():
            v = field.add(out.get(r, field.zero), field.mul(f, x))
            if v:
                out[r] = v
            else:
                out.pop(r, None)
    return out


def _sparse_columns(rng, field, nrows, ncols):
    """Random sparse columns {row: nonzero x}, some of them combinations
    of earlier ones, so that the rank often falls short."""
    cols = []
    for _ in range(ncols):
        if cols and rng.random() < 0.3:
            cols.append(_combine(field, cols, [field.of(rng.randint(-3, 3)) for _ in cols]))
        else:
            cols.append({r: field.of(rng.choice([-2, -1, 1, 2, 3])) for r in range(nrows)
                         if rng.random() < 0.35})
    return cols


def _echelon_solve(field, cols, rhs, nrows):
    """x with sum_c x[c] * cols[c] = rhs, as `strand_solve` finds it: the
    columns go into a `ColumnEchelon` tagged by index, rhs follows with the
    combination {}, and x is minus what is left of it; None if rhs takes
    a pivot."""
    ech = ColumnEchelon(field, nrows)
    for c, col in enumerate(cols):
        ech.add(col, {c: field.one})
    combo = {}
    if ech.add(rhs, combo) is not None:
        return None
    return [field.neg(combo[c]) if c in combo else field.zero for c in range(len(cols))]


@pytest.mark.parametrize("p", [0, P])
def test_sparse_solve_matches_the_dense_oracle(p):
    field = Field(p)
    rng = random.Random(p)
    found = Counter()
    for _ in range(300):
        nrows, ncols = rng.randint(0, 7), rng.randint(0, 7)
        cols = _sparse_columns(rng, field, nrows, ncols)
        if rng.random() < 0.5:  # consistent: rhs = A x0
            rhs = _combine(field, cols, [field.of(rng.randint(-2, 2)) for _ in cols])
        else:  # often inconsistent
            rhs = {r: field.of(rng.randint(1, 4)) for r in range(nrows) if rng.random() < 0.5}
        got = _echelon_solve(field, cols, rhs, nrows)
        if nrows:
            rows = [[col.get(r, field.zero) for col in cols] for r in range(nrows)]
            want = solve_oracle(field, rows, [rhs.get(r, field.zero) for r in range(nrows)])
        else:  # no rows: the dense oracle sees no columns either
            want = [field.zero] * ncols
        assert got == want
        if got is not None:
            assert all(type(x) is type(field.zero) for x in got)
            assert _combine(field, cols, got) == rhs
        found["inconsistent" if got is None else "no columns" if not ncols
              else "no rows" if not nrows else "solved"] += 1
    assert len(found) == 4 and min(found.values()) > 10


@pytest.mark.parametrize("p", [0, P])
def test_tagged_echelon_stores_each_column_with_its_combination(p):
    # a stored column is its stored combination of the columns added, and
    # an untagged echelon stores no combinations
    field = Field(p)
    rng = random.Random(p + 2)
    stored = 0
    for _ in range(100):
        nrows = rng.randint(0, 8)
        cols = _sparse_columns(rng, field, nrows, rng.randint(1, 10))
        ech, untagged = ColumnEchelon(field, nrows), ColumnEchelon(field, nrows)
        for c, col in enumerate(cols):
            assert ech.add(col, {c: field.one}) == untagged.add(col)
        assert ech.columns == untagged.columns and untagged.combos == {}
        assert ech.combos.keys() == ech.columns.keys()
        for piv, column in ech.columns.items():
            combo = ech.combos[piv]
            assert all(type(x) is type(field.zero) and x for x in combo.values())
            assert (_combine(field, cols, [combo.get(c, field.zero) for c in range(len(cols))])
                    == {r: x for r, x in enumerate(column) if x})
            stored += 1
    assert stored > 200


@pytest.mark.parametrize("p", [0, P])
def test_column_echelon_matches_the_row_order_oracle(p):
    field = Field(p)
    rng = random.Random(p + 1)
    kept = dropped = 0
    for _ in range(100):
        nrows = rng.randint(0, 8)
        ech, oracle = ColumnEchelon(field, nrows), ColumnEchelonOracle(field, range(nrows))
        for col in _sparse_columns(rng, field, nrows, rng.randint(1, 10)):
            piv = ech.add(col)
            assert piv == oracle.add([col.get(r, field.zero) for r in range(nrows)])
            kept += piv is not None
            dropped += piv is None
        assert ech.columns == oracle.columns
    assert kept > 100 and dropped > 100


def _spanned_columns(rng, field, nrows, ncols):
    """Sparse columns {row: nonzero x} on `nrows` rows, each nonzero only on
    a short run of rows with long zero runs before and after it, and a
    third of them combinations of earlier ones."""
    cols = []
    for _ in range(ncols):
        if cols and rng.random() < 0.3:
            picked = rng.sample(range(len(cols)), min(len(cols), 2))
            cols.append(_combine(field, cols, [field.of(rng.choice([-2, -1, 1, 3]))
                                               if c in picked else field.zero
                                               for c in range(len(cols))]))
        else:
            lo = rng.randrange(nrows)
            hi = min(nrows, lo + rng.randint(1, 5))
            cols.append({r: field.of(rng.choice([-3, -1, 1, 2, 5])) for r in range(lo, hi)
                         if r == lo or rng.random() < 0.6})
    return cols


@pytest.mark.parametrize("p", [0, P])
def test_echelon_on_live_spans_matches_the_dense_oracle(p):
    # a step reduces only on the stored column's rows [pivot, end): with
    # long zero runs above and below each column, the pivots, the stored
    # columns and the combinations are still those of the full-row oracle,
    # whose columns carry the tags as extra rows below the pivot rows
    field = Field(p)
    rng = random.Random(p + 3)
    kept = dropped = 0
    for _ in range(60):
        nrows = rng.randint(12, 30)
        cols = _spanned_columns(rng, field, nrows, rng.randint(5, 24))
        ech, untagged = ColumnEchelon(field, nrows), ColumnEchelon(field, nrows)
        oracle = ColumnEchelonOracle(field, range(nrows))
        for c, col in enumerate(cols):
            dense = [col.get(r, field.zero) for r in range(nrows)]
            tag = [field.one if t == c else field.zero for t in range(len(cols))]
            combo = {c: field.one}
            piv = ech.add(col, combo)
            assert piv == untagged.add(col) == oracle.add(dense + tag)
            if piv is None:  # what is left of the tag is a relation among the columns
                assert combo[c] == field.one
                assert _combine(field, cols, [combo.get(t, field.zero)
                                              for t in range(len(cols))]) == {}
                dropped += 1
            else:
                kept += 1
        assert ech.columns == untagged.columns and untagged.combos == {}
        assert ech.columns == {piv: column[:nrows] for piv, column in oracle.columns.items()}
        assert ech.combos == {piv: {t: x for t, x in enumerate(column[nrows:]) if x}
                              for piv, column in oracle.columns.items()}
        for piv, column in ech.columns.items():
            assert not any(column[:piv]) and not any(column[ech.ends[piv]:])
    assert kept > 300 and dropped > 100
