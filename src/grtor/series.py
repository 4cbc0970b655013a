"""Bigraded Hilbert series and the negative consecutive cancellation calculus.

A BigradedSeries is a truncated double series sum c_{i,j} z^i t^j with
nonnegative integer coefficients (z tracks homological degree, t
internal degree).  A negative consecutive cancellation subtracts
z^{i+1} t^a + z^i t^b with a < b; deciding whether one series reaches
another by such cancellations is a bipartite perfect-matching problem
on the coefficient units of the difference.  Sorted by (layer, t), the
partners of each unit form one contiguous run, so the graph is convex
and a greedy sweep (Glover 1967) finds a maximum matching in O(n log n).
"""

from bisect import bisect_left, bisect_right
from collections import namedtuple
from heapq import heappop, heappush

from .fields import GrtorError


class Cancellation(namedtuple("Cancellation", "i a b")):
    """One step: subtract z^{i+1} t^a + z^i t^b, requiring a < b."""

    @property
    def page(self):
        return self.b - self.a

    def validate(self):
        if self.a >= self.b:
            raise GrtorError("invalid cancellation (i=%d, a=%d, b=%d): needs a < b" % self)
        if self.i < 0 or self.a < 0:
            raise GrtorError("negative index in cancellation %r" % (self,))


class BigradedSeries:
    """Truncated series {(i, j): positive int} with bounds i_max, j_max."""

    def __init__(self, i_max, j_max, coefficients=None):
        if i_max < 0 or j_max < 0:
            raise GrtorError("bounds must be nonnegative")
        self.i_max = i_max
        self.j_max = j_max
        self.coefficients = {}
        if coefficients:
            for (i, j), c in coefficients.items():
                self._set(i, j, c)

    def _set(self, i, j, c):
        if not (0 <= i <= self.i_max and 0 <= j <= self.j_max):
            raise GrtorError("(%d, %d) outside bounds (%d, %d)" % (i, j, self.i_max, self.j_max))
        if c < 0:
            raise GrtorError("negative coefficient %d at (%d, %d)" % (c, i, j))
        if c:
            self.coefficients[(i, j)] = c
        else:
            self.coefficients.pop((i, j), None)

    def get(self, i, j):
        return self.coefficients.get((i, j), 0)

    def copy(self):
        out = BigradedSeries(self.i_max, self.j_max)
        out.coefficients = dict(self.coefficients)  # already validated
        return out

    def same_bounds(self, other):
        return self.i_max == other.i_max and self.j_max == other.j_max

    def __eq__(self, other):
        return (isinstance(other, BigradedSeries) and self.same_bounds(other)
                and self.coefficients == other.coefficients)

    def __repr__(self):
        return "BigradedSeries(%d, %d, %r)" % (self.i_max, self.j_max, self.coefficients)

    def equal_on(self, other, cells):
        return all(self.get(i, j) == other.get(i, j) for (i, j) in cells)

    # arithmetic -------------------------------------------------------------

    def subtract(self, other):
        """Componentwise difference; raises with a witness cell on negativity."""
        if not self.same_bounds(other):
            raise GrtorError("truncation mismatch")
        out = self.copy()
        for (i, j), c in other.coefficients.items():
            d = out.get(i, j) - c
            if d < 0:
                raise GrtorError("negative coefficient %d at (i=%d, j=%d)" % (d, i, j))
            out._set(i, j, d)
        return out

    def total_units(self):
        return sum(self.coefficients.values())

    # cancellation steps ------------------------------------------------------

    def subtract_cancellation(self, canc):
        """Apply one negative consecutive cancellation."""
        canc.validate()
        hi = (canc.i + 1, canc.a)
        lo = (canc.i, canc.b)
        if canc.i + 1 > self.i_max or canc.b > self.j_max:
            raise GrtorError("cancellation %r outside series bounds" % (canc,))
        if self.get(*hi) < 1 or self.get(*lo) < 1:
            raise GrtorError(
                "cancellation %r infeasible: coefficients %d at (i+1,a), %d at (i,b)"
                % (canc, self.get(*hi), self.get(*lo)))
        out = self.copy()
        out._set(hi[0], hi[1], out.get(*hi) - 1)
        out._set(lo[0], lo[1], out.get(*lo) - 1)
        return out

    # text formats -------------------------------------------------------------

    def to_text(self):
        lines = ["%d %d" % (self.i_max, self.j_max)]
        for (i, j) in sorted(self.coefficients):
            lines.append("%d %d %d" % (i, j, self.coefficients[(i, j)]))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        rows = [ln.split("#")[0].strip() for ln in text.splitlines()]
        rows = [ln for ln in rows if ln]
        if not rows:
            raise GrtorError("empty series text")
        i_max, j_max = _int_fields(rows[0], 2, "series header must be 'imax jmax'")
        series = cls(i_max, j_max)
        for ln in rows[1:]:
            i, j, c = _int_fields(ln, 3, "series line must be 'i j c'")
            series._set(i, j, series.get(i, j) + c)
        return series

    def to_diagram(self):
        """Macaulay-style Betti diagram: rows j - i, columns i.  Only the
        rows that hold a nonzero cell are printed, each label padded to the
        widest one (at least 5 characters)."""
        if not self.coefficients:
            return "(zero series)\n"
        cols = range(0, max(i for i, _ in self.coefficients) + 1)
        width = max(4, max(len(str(c)) for c in self.coefficients.values()) + 2)
        rows = sorted({j - i for i, j in self.coefficients})
        pad = max(5, max(len("%d:" % r) for r in rows))
        out = [" " * pad + "".join(str(i).rjust(width) for i in cols)]
        for r in rows:
            cells = []
            for i in cols:
                c = self.get(i, i + r)
                cells.append((str(c) if c else ".").rjust(width))
            out.append(("%d:" % r).rjust(pad) + "".join(cells))
        return "\n".join(out) + "\n"


def _int_fields(line, n, what):
    """The n integers of one line of a text format, or GrtorError naming it."""
    parts = line.split()
    try:
        if len(parts) == n:
            return [int(x) for x in parts]
    except ValueError:
        pass
    raise GrtorError("%s: %r" % (what, line))


class CancellationCertificate:
    """Ordered list of cancellations; canonical order is (page, i, a)."""

    def __init__(self, steps=()):
        self.steps = list(steps)
        for s in self.steps:
            s.validate()

    def sorted(self):
        out = CancellationCertificate()
        out.steps = sorted(self.steps, key=lambda c: (c.page, c.i, c.a))  # already validated
        return out

    def __len__(self):
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

    def __eq__(self, other):
        return isinstance(other, CancellationCertificate) and self.steps == other.steps

    def to_text(self):
        lines = ["steps %d" % len(self.steps)]
        for s in self.steps:
            lines.append("%d %d %d" % (s.i, s.a, s.b))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        rows = [ln.split("#")[0].strip() for ln in text.splitlines()]
        rows = [ln for ln in rows if ln]
        if not rows or not rows[0].startswith("steps"):
            raise GrtorError("certificate text must start with 'steps N'")
        steps = []
        for ln in rows[1:]:
            steps.append(Cancellation(*_int_fields(ln, 3, "certificate line must be 'i a b'")))
        return cls(steps)

    def __repr__(self):
        return "CancellationCertificate(%r)" % (self.steps,)


class VerifyResult:
    def __init__(self, ok, reason=None):
        self.ok = ok
        self.reason = reason

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return "VerifyResult(%r, %r)" % (self.ok, self.reason)


def verify_certificate(source, certificate, target, cells=None):
    """True iff applying the certificate to source succeeds and yields target.

    `cells` optionally restricts the final equality test (used for
    truncation windows); the intermediate feasibility checks are always
    full-grid.
    """
    current = source.copy()
    for step in certificate:
        try:
            current = current.subtract_cancellation(step)
        except GrtorError as exc:
            return VerifyResult(False, "step %r failed: %s" % (step, exc))
    if cells is None:
        if current == target:
            return VerifyResult(True)
        return VerifyResult(False, "result differs from target")
    if current.equal_on(target, cells):
        return VerifyResult(True)
    return VerifyResult(False, "result differs from target on the checked window")


# --- decision by a convex bipartite matching ---------------------------------


def _convex_matching(odd, even):
    """Maximum matching of odd-degree units to even-degree units.

    `even` is sorted by (layer, t).  The partners of an odd unit (h, t)
    are the units (h-1, t') with t' > t and (h+1, t') with t' < t: a
    suffix of layer h-1 followed by a prefix of layer h+1, one run of
    `even`, so the graph is convex.  Sweeping `even` in order and matching
    each position to the open run that ends first is Glover's greedy: the
    matching is maximum and covers as many units of every prefix of
    `even` (layer 0 in particular) as any matching can.  Returns
    match[p] = index into `odd`, or None.
    """
    runs = sorted((bisect_right(even, (h - 1, t)), bisect_left(even, (h + 1, t)), k)
                  for k, (h, t) in enumerate(odd))
    match = [None] * len(even)
    heap = []
    nxt = 0
    for p in range(len(even)):
        while nxt < len(runs) and runs[nxt][0] <= p:
            heappush(heap, runs[nxt][1:])
            nxt += 1
        while heap and heap[0][0] <= p:
            heappop(heap)
        if heap:
            match[p] = heappop(heap)[1]
    return match


class Decision:
    """Outcome of decide_cancellation.

    feasible: bool; certificate on success.  On failure: `negative_cell`
    if the difference had a negative coefficient, otherwise
    `unmatched_hard` / `unmatched_boundary` counts of units that cannot
    pair inside the grid (boundary units could in principle pair past
    j_max and are only reported, never silently matched).
    """

    def __init__(self, feasible, certificate=None, negative_cell=None,
                 unmatched_hard=0, unmatched_boundary=0):
        self.feasible = feasible
        self.certificate = certificate
        self.negative_cell = negative_cell
        self.unmatched_hard = unmatched_hard
        self.unmatched_boundary = unmatched_boundary

    def __bool__(self):
        return self.feasible

    def __repr__(self):
        if self.feasible:
            return "Decision(feasible, %d steps)" % len(self.certificate)
        return ("Decision(infeasible, negative_cell=%r, hard=%d, boundary=%d)"
                % (self.negative_cell, self.unmatched_hard, self.unmatched_boundary))


def decide_cancellation(source, target):
    """Decide whether target is reachable from source by negative
    consecutive cancellations; constructive on success.

    The difference D = source - target must be componentwise nonnegative
    and its coefficient units must admit a perfect pairing of cells
    {(i+1, a), (i, b)} with a < b.  Units live at alternating homological
    parity, so this is maximum bipartite matching on the units, found by
    the convex greedy of `_convex_matching`.  The certificate is canonical:
    it depends only on source - target.  On failure `unmatched_hard` is
    the fewest degree-0 units any pairing leaves unpaired.
    """
    if not source.same_bounds(target):
        raise GrtorError("truncation mismatch between source and target")
    try:
        diff = source.subtract(target)
    except GrtorError:
        witness = None
        for (i, j) in sorted(set(source.coefficients) | set(target.coefficients)):
            if source.get(i, j) - target.get(i, j) < 0:
                witness = (i, j)
                break
        return Decision(False, negative_cell=witness)

    units = []  # (hom degree, internal degree)
    for cell, c in sorted(diff.coefficients.items()):
        units.extend([cell] * c)
    if not units:
        return Decision(True, certificate=CancellationCertificate())

    odd = [u for u in units if u[0] % 2 == 1]
    even = [u for u in units if u[0] % 2 == 0]
    match = _convex_matching(odd, even)
    unpaired = [v for v, k in zip(even, match) if k is None]
    unmatched = len(units) - 2 * (len(even) - len(unpaired))
    if unmatched:
        # a unit at homological degree h >= 1 could pair with a partner
        # beyond the j_max truncation; one at h = 0 could not
        hard = sum(1 for (h, _t) in unpaired if h == 0)
        return Decision(False, unmatched_hard=hard, unmatched_boundary=unmatched - hard)

    steps = []
    for (h2, t2), k in zip(even, match):
        h1, t1 = odd[k]
        if h1 == h2 + 1:
            steps.append(Cancellation(h2, t1, t2))
        else:
            steps.append(Cancellation(h1, t2, t1))
    cert = CancellationCertificate(steps).sorted()
    return Decision(True, certificate=cert)


def decide_cancellation_bruteforce(source, target):
    """Exhaustive pairing enumeration; oracle for decide_cancellation.

    Only sensible for small unit counts (<= 12 or so).
    """
    if not source.same_bounds(target):
        raise GrtorError("truncation mismatch between source and target")
    try:
        diff = source.subtract(target)
    except GrtorError:
        return False
    units = []
    for (i, j) in sorted(diff.coefficients):
        units.extend([(i, j)] * diff.get(i, j))
    if len(units) % 2:
        return False

    def pairable(u, v):
        (h1, t1), (h2, t2) = u, v
        if h1 == h2 + 1:
            return t1 < t2
        if h2 == h1 + 1:
            return t2 < t1
        return False

    def search(remaining):
        if not remaining:
            return True
        first = remaining[0]
        rest = remaining[1:]
        for k, other in enumerate(rest):
            if pairable(first, other):
                if search(rest[:k] + rest[k + 1:]):
                    return True
        return False

    return search(units)
