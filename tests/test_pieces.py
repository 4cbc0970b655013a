"""GradedModulePieces (standard terms of one truncated Groebner basis)
against the dense-echelon oracle: piece dimensions, and the ranks of
multiplication maps read off the tensor builder that Tor uses.  The
sparse strand ranks of `GrComplex.homology_series` against dense ranks
of the same strands."""

import random

import pytest

from grtor.fields import Field
from grtor.filtered import FilteredComplex, GrComplex, tensor_complex
from grtor.groebner import ModulePresentation
from grtor.poly import Ring
from grtor.resolution import GradedModulePieces, minimal_resolution
from grtor.series import BigradedSeries
from grtor.spectral import random_filtered_complex

from layers_oracle import monomials_of_degree
from pieces_oracle import EchelonPieces
from spectral_oracle import dense, rank

FP = Field(32003)
G4_VARS = ["a", "b", "c", "d"]
G4_QUADRICS = ["a^2 + b*c", "b^2 - c*d", "c^2 + a*d", "a*b + c*d"]


def stable(n, m, d, e, as_n):
    names = ["x%d" % k for k in range(1, n + 1)]
    R = Ring(names, FP, quotient=["x1^%d" % e])
    gens = ["x1^%d" % d] + ["x1^%d*%s" % (d - 1, names[k]) for k in range(1, m)]
    return ModulePresentation.cyclic(R, gens if as_n else names)


def g4(gens, field=FP):
    return ModulePresentation.cyclic(Ring(G4_VARS, field), gens)


CASES = {
    "g4": (lambda: g4(G4_VARS), 8),
    "g4-swap": (lambda: g4(G4_QUADRICS), 8),
    "g4-swap-QQ": (lambda: g4(G4_QUADRICS, Field(0)), 6),
    "stable-3324-k": (lambda: stable(3, 3, 2, 4, False), 9),
    "stable-3324-ideal": (lambda: stable(3, 3, 2, 4, True), 9),
    "stable-4323-ideal": (lambda: stable(4, 3, 2, 3, True), 7),
    "rank-2": (lambda: ModulePresentation(
        Ring(["x", "y", "z"], FP, quotient=["x^3 - y*z^2"]), 2, (0, 1),
        [["x^2", "y"], ["y*z", "x"], ["0", "z^2"]]), 7),
    "free": (lambda: ModulePresentation(Ring(["x", "y"], FP, quotient=["x*y"]),
                                        1, (0,), []), 8),
    "unit": (lambda: g4(["1"]), 5),
}


def random_homogeneous(ring, degree, rng):
    p = ring.zero()
    for mono in monomials_of_degree(ring.nvars, degree):
        p = p + ring.monomial(mono, rng.randrange(-3, 4))
    return p


def strand(L, j):
    """Dense matrices of the level-j strand of a filtered complex L:
    mats[i] is the block of d_i between the basis vectors at level j."""
    idx = [[k for k, level in enumerate(lv) if level == j] for lv in L.levels]
    mats = [None]
    for i in range(1, L.i_max + 1):
        d = dense(L, i)
        mats.append([[d[r][c] for c in idx[i]] for r in idx[i - 1]])
    return idx, mats


def dense_homology(L):
    """Strand homology dimensions from dense ranks: the series that
    `GrComplex.homology_series` reads off sparse eliminations."""
    out = BigradedSeries(L.i_max, L.j_max)
    for j in range(L.j_max + 1):
        idx, mats = strand(L, j)
        ranks = [0] + [rank(L.field, m) for m in mats[1:]] + [0]
        for i in range(L.i_max + 1):
            h = len(idx[i]) - ranks[i] - ranks[i + 1]
            if h:
                out._set(i, j, h)
    return out


def multiplication_complex(pieces, p, j_max):
    """F (x) N for F = G(-deg p) --p--> G: the level-(d + deg p) strand is the
    matrix of p: N_d -> N_{d + deg p}."""
    basis = [key for d in range(j_max + 1) for key in pieces._basis[d]]
    levels, diffs = tensor_complex([(0,), (p.degree(),)], [None, [[p]]], pieces._nf,
                                   basis, j_max)
    return FilteredComplex(p.ring.field, levels, diffs, j_max)


@pytest.mark.parametrize("case", sorted(CASES))
def test_pieces_match_echelon_oracle(case):
    build, top = CASES[case]
    module = build()
    ring = module.ring
    rng = random.Random(sum(map(ord, case)))
    multipliers = ring.gens() + [random_homogeneous(ring, 2, rng), ring.zero()]
    # a low window puts Groebner basis elements right at the truncation
    for j_max in (2, top):
        pieces, oracle = GradedModulePieces(module, j_max), EchelonPieces(module, j_max)
        for d in range(-1, j_max + 2):
            assert pieces.dim(d) == oracle.dim(d), (j_max, d)
        for p in multipliers:
            L = multiplication_complex(pieces, p, j_max)
            for d in range(-1, j_max + 2):
                got = strand(L, d + p.degree())[1][1]
                want = oracle.multiply_matrix(p, d)
                assert len(got) == len(want) and all(len(r) == pieces.dim(d) for r in got)
                assert rank(ring.field, got) == rank(ring.field, want), (j_max, d, str(p))
        if case == "unit":
            assert all(pieces.dim(d) == 0 for d in range(j_max + 1))


@pytest.mark.parametrize("case", sorted(CASES))
def test_sparse_strand_ranks_on_tensor_complexes(case):
    build, top = CASES[case]
    module = build()
    ring = module.ring
    rng = random.Random(len(case))
    pieces = GradedModulePieces(module, top)
    for p in ring.gens() + [random_homogeneous(ring, 2, rng)]:
        L = multiplication_complex(pieces, p, top)
        assert GrComplex(L).homology_series() == dense_homology(L), str(p)
    # F (x) N for F the minimal resolution of k, as `tor_series` builds it
    res = minimal_resolution(ModulePresentation.cyclic(ring, ring.gens()), 3)
    basis = [key for d in range(top + 1) for key in pieces._basis[d]]
    levels, diffs = tensor_complex(res.shifts, res.diffs, pieces._nf, basis, top)
    L = FilteredComplex(ring.field, levels, diffs, top)
    assert GrComplex(L).homology_series() == dense_homology(L)


@pytest.mark.parametrize("p", [32003, 0])
def test_sparse_strand_ranks_on_random_filtered_complexes(p):
    # random_filtered_complex draws filtered, not level-preserving,
    # differentials: each strand keeps only the block inside one level
    ranked = 0
    for seed in range(40):
        L = random_filtered_complex(seed, field=Field(p), i_max=4, max_dim=14, max_level=6)
        got = GrComplex(L).homology_series()
        assert got == dense_homology(L), seed
        # some strand block has positive rank
        ranked += sum(got.coefficients.values()) < sum(map(len, L.levels))
    assert ranked > 30
