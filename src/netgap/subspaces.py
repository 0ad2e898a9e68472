"""Canonical subspaces of F_q^n, Gaussian coefficients, and spreads.

A subspace is its reduced-row-echelon basis, one `gf.Matrix` object, so
equality and ordering of subspaces are plain tuple comparisons.  The
canonical total order is (pivot-column set, then flattened basis
entries), which fixes vertex numbering for everything built downstream.

`enumerate_subspaces` lists a universe straight from flat RREF data: per
pivot set, every basis is read off its free entries in one step.

Direct sums over a fixed list of subspaces -- "which pairs are
independent", "which spaces does the span of these members meet", "which
h-subsets are in direct sum" -- are answered by one DirectSumIndex, which
lists every nonzero vector once and turns each question into bit tests;
`sum_dim` is the rank-based check for one-off questions and the
reference the index is tested against.
The index holds vectors packed into ints (`PackedVectors`): one base-p
digit per bit slot, added by XOR when p = 2 and by a guarded slot add
for odd p, the same form for every q.
"""

from __future__ import annotations

import itertools
from operator import itemgetter

from .errors import Budget, SizeLimitExceeded
from .gf import FieldSpec, Matrix, element_tables, poly_mod, rank, rref, smallest_irreducible

ENUMERATION_LIMIT = 10**6


def check_size(count: int, what: str) -> None:
    """Refuse to list `count` items (`what` names them) above
    ENUMERATION_LIMIT, read at each call: the one size limit of every
    listing and construction."""
    if count > ENUMERATION_LIMIT:
        raise SizeLimitExceeded(f"{count} {what} exceed limit {ENUMERATION_LIMIT}")


class Subspace(Matrix):
    """A subspace of F_q^n as its RREF basis: `dim` rows, `ambient` = n
    columns.  The constructors do not reduce (`canonicalize` and
    `subspace_from_rows` do); a Subspace never equals a plain Matrix."""

    @property
    def dim(self) -> int:
        return self.rows

    @property
    def ambient(self) -> int:
        return self.cols

    @property
    def pivots(self) -> tuple[int, ...]:
        """Each row's first nonzero column."""
        return tuple(next(j for j, x in enumerate(self.row(i)) if x) for i in range(self.rows))

    @property
    def sort_key(self) -> tuple:
        return (self.pivots, self.data)


def canonicalize(field: FieldSpec, vectors: Matrix) -> Subspace:
    """Subspace spanned by the rows; zero span yields dim 0."""
    reduced, rk, _ = rref(vectors)
    return Subspace(field, rk, vectors.cols, reduced.data[: rk * vectors.cols])


def subspace_from_rows(field: FieldSpec, rows, ambient: int) -> Subspace:
    rows = list(rows)
    if not rows:
        return Subspace.zeros(field, 0, ambient)
    return canonicalize(field, Matrix.from_rows(field, rows))


def coordinate_subspace(field: FieldSpec, n: int, d: int, offset: int = 0) -> Subspace:
    """The d-subspace of F_q^n spanned by unit vectors offset, ..., offset+d-1."""
    rows = []
    for i in range(offset, offset + d):
        row = [0] * n
        row[i] = 1
        rows.append(row)
    return subspace_from_rows(field, rows, n)


def gaussian_coefficient(n: int, t: int, q: int) -> int:
    """Number of t-dimensional subspaces of F_q^n, exact."""
    if t < 0 or t > n:
        raise ValueError(f"require 0 <= t <= n, got t={t}, n={n}")
    num = 1
    den = 1
    for i in range(t):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def enumerate_subspaces(field: FieldSpec, n: int, t: int) -> list[Subspace]:
    """All t-subspaces of F_q^n in canonical order.

    Iterates RREF profiles (pivot sets x free entries) so the cost is linear
    in the output size: each basis is read straight off its free entries
    into flat row-major data.  Each subspace is one node of a Budget with no
    node limit, so only the wall-clock deadline can stop the enumeration.
    """
    count = gaussian_coefficient(n, t, field.q)
    check_size(count, f"subspaces of F_{field.q}^{n}")
    if t == 0:
        return [Subspace.zeros(field, 0, n)]
    if t == n:  # the whole space; below, `take` reads at least two entries
        return [Subspace.identity(field, n)]
    out: list[Subspace] = []
    bud = Budget()
    for pivots in itertools.combinations(range(n), t):
        # entry (i, j) of the basis is free iff j lies right of pivot i and
        # is no pivot column; `take` reads the flat data off the free values
        # followed by (0, 1): a free entry's value, 1 at a pivot, else 0
        free = [
            i * n + j
            for i, p in enumerate(pivots)
            for j in range(p + 1, n)
            if j not in pivots
        ]
        k = len(free)
        source = [k] * (t * n)
        for i, p in enumerate(pivots):
            source[i * n + p] = k + 1
        for slot, pos in enumerate(free):
            source[pos] = slot
        take = itemgetter(*source)
        # free values in itertools.product order are the bases in canonical order
        values = itertools.product(field.elements(), repeat=k)
        out.extend([Subspace(field, t, n, take(v + (0, 1))) for v in bud.each(values)])
    assert len(out) == count
    return out


def positions(universe: list[Subspace], members) -> list[int]:
    """The index in `universe` of each member, all of one dimension and
    ambient space: an RREF basis of fixed shape names its space, so its
    flat data is key enough."""
    index = {s.data: i for i, s in enumerate(universe)}
    return [index[s.data] for s in members]


def subspaces_up_to_dim(field: FieldSpec, n: int, t: int) -> list[Subspace]:
    """Subspaces of dimension t, t-1, ..., 0, each block in canonical order."""
    out: list[Subspace] = []
    for d in range(t, -1, -1):
        out.extend(enumerate_subspaces(field, n, d))
    return out


def sum_dim(spaces) -> int:
    """Dimension of the sum of the given subspaces of a common ambient space."""
    spaces = list(spaces)
    if not spaces:
        return 0
    first = spaces[0]
    rows = []
    for s in spaces:
        if s.field != first.field or s.ambient != first.ambient:
            raise ValueError("sum_dim: mixed fields or ambient spaces")
        rows.extend(s.row_list())
    if not rows:
        return 0
    return rank(Matrix.from_rows(first.field, rows))


class PackedVectors:
    """Vectors of F_q^n as ints, and their sums, for one field and n.

    gf codes an element of F_{p^m} by its base-p digits, and adds elements
    digit-wise mod p.  A vector packs its n*m digits into slots of `width`
    bits, digit i of coordinate j in slot j*m + i, so adding vectors adds
    every slot at once.  For p = 2 a slot is one bit and the add is XOR.
    For odd p a slot has a guard bit above the p.bit_length() bits of a
    digit: a slot sum d < 2p - 1 plus the offset 2^(width-1) - p sets the
    guard bit iff d >= p, and those slots alone lose p.  The add is chosen
    once, here, as `sums`.
    """

    def __init__(self, field: FieldSpec, n: int):
        p, m = field.p, field.m
        self.field, self.n = field, n
        self.width = width = 1 if p == 2 else p.bit_length() + 1
        # each element code spread over its m digit slots
        spread = [0] * field.q
        for a in range(field.q):
            c = a
            for i in range(m):
                spread[a] |= c % p << i * width
                c //= p
        self.coords = [[x << j * m * width for x in spread] for j in range(n)]
        if p == 2:

            def sums(us: list[int], ws: list[int]) -> list[int]:
                return [u ^ w for u in us for w in ws]

        else:
            top = width - 1
            ones = sum(1 << k * width for k in range(n * m))
            offset, guard = ((1 << top) - p) * ones, ones << top

            def sums(us: list[int], ws: list[int]) -> list[int]:
                return [(s := u + w) - (((s + offset) & guard) >> top) * p for u in us for w in ws]

        self.sums = sums
        self._neg_mul = element_tables(field)[1]

    def pack(self, vec) -> int:
        return sum([coord[a] for coord, a in zip(self.coords, vec)])

    def unpack(self, x: int) -> tuple[int, ...]:
        p, m, w = self.field.p, self.field.m, self.width
        digits = [x >> k * w & (1 << w) - 1 for k in range(self.n * m)]
        return tuple(
            sum(d * p**i for i, d in enumerate(digits[j * m : (j + 1) * m])) for j in range(self.n)
        )

    def multiples(self, vec) -> list[int]:
        """The q - 1 nonzero multiples of a nonzero vector, packed: -c*vec
        over c != 0."""
        return [self.pack([mul[a] for a in vec]) for mul in self._neg_mul[1:]]


class DirectSumIndex:
    """Which members of a list of subspaces are in direct sum, by bit tests.

    Every nonzero vector of every space is listed once, packed
    (`PackedVectors`), and mapped to the bitmask of the spaces holding it
    (`holders`).  A set of spaces meets a space S_j in a nonzero vector iff
    some nonzero vector of their span has bit j among its holders, so
    direct sums become mask tests instead of rank computations.  Answers
    over index subsets are cached for the life of the index; build one per
    search and drop it with the search.
    """

    def __init__(self, spaces):
        spaces = list(spaces)
        field, n = (spaces[0].field, spaces[0].ambient) if spaces else (None, 0)
        for s in spaces:
            # identity first: the members of a universe share one FieldSpec
            if s.ambient != n or (s.field is not field and s.field != field):
                raise ValueError("DirectSumIndex: mixed fields or ambient spaces")
        self.spaces = spaces
        self.full = (1 << len(spaces)) - 1
        self.packed = packed = PackedVectors(field, n) if spaces else None
        # one node per vector listed, the zero vector included, and only the
        # deadline stops the listing
        bud = Budget()
        points = []
        multiples: dict[tuple, list[int]] = {}  # per basis row: universes share rows
        for s in spaces:
            # the span as sums, row by row: old vectors plus each nonzero
            # multiple of the next row, so every vector is listed once
            bud.spend_many(field.q**s.dim)
            data = s.data
            span = [0]
            for k in range(0, len(data), n):
                row = data[k : k + n]
                ms = multiples.get(row)
                if ms is None:
                    ms = multiples[row] = packed.multiples(row)
                span += packed.sums(span, ms)
            points.append(span[1:])
        holders: dict[int, int] = {}
        for i, pts in enumerate(points):
            bit = 1 << i
            for vec in pts:
                holders[vec] = holders.get(vec, 0) | bit
        self.points = points  # packed nonzero vectors of each space
        self.holders = holders
        self._blocked: dict[tuple, int] = {}

    def pair_masks(self) -> list[int]:
        """Bit j of entry i (j != i) is set iff spaces i and j are in direct sum.

        That is, they share no nonzero vector: dim(S_i + S_j) = dim S_i +
        dim S_j.  Space i meets exactly the holders of its own vectors; bit i
        is cleared explicitly, which keeps dim-0 spaces in direct sum with
        every other space but not with themselves.  One node per vector
        ORed, spent a space at a time: only the deadline stops it.
        """
        holders = self.holders
        spend = Budget().spend_many
        masks = []
        for i, pts in enumerate(self.points):
            spend(len(pts))
            meets = 1 << i
            for vec in pts:
                meets |= holders[vec]
            masks.append(self.full & ~meets)
        return masks

    def blocked(self, subset: tuple[int, ...], bud: Budget | None = None) -> int:
        """Spaces that meet the span of the spaces at `subset` nontrivially.

        Bit j is set iff spaces[j] shares a nonzero vector with the span;
        every bit is set when the members of `subset` are not themselves in
        direct sum.  So for j outside `subset`, the subset members and
        spaces[j] are in direct sum iff bit j is clear.  The span is listed
        member by member as sums of the members' own vectors; a member whose
        bit is already set by the span of those before it is a dependence,
        found without a rank call.  `bud`, when given, is spent one node per
        vector listed; the answer is cached per subset.
        """
        mask = self._blocked.get(subset)
        if mask is not None:
            return mask
        holders = self.holders
        span = [0]
        mask = 0
        for i in subset:
            if mask >> i & 1:
                mask = self.full
                break
            new = self.packed.sums(span, self.points[i])
            if bud is not None:
                bud.spend_many(len(new))
            for vec in new:
                mask |= holders.get(vec, 0)
            span += new
        self._blocked[subset] = mask
        return mask

    def direct_sum_subsets(self, h: int, bud: Budget) -> list[tuple[int, ...]]:
        """The h-subsets (h >= 2) of spaces in direct sum, as index tuples in
        lexicographic order.

        Depth first over prefixes in direct sum, on an explicit stack: a
        one-member prefix extends by the set bits above it in its
        `pair_masks` row, a longer one by the bits above its last member
        that its `blocked` mask leaves clear, so no superset of a dependent
        prefix is visited.  Each prefix spends one node per candidate above
        its last member, all at once, and `blocked` one per vector it lists.
        """
        if h < 2:
            raise ValueError("direct-sum subsets need h >= 2")
        masks = self.pair_masks()
        last = len(masks) - 1
        out: list[tuple[int, ...]] = []
        stack = [(a,) for a in range(last, -1, -1)]  # the next prefix on top
        while stack:
            prefix = stack.pop()
            top = prefix[-1]
            bud.spend_many(last - top)
            free = masks[top] if len(prefix) == 1 else self.full & ~self.blocked(prefix, bud)
            free >>= top + 1
            deeper = len(prefix) < h - 1
            extended = [] if deeper else out
            while free:
                low = free & -free
                free ^= low
                extended.append(prefix + (top + low.bit_length(),))
            if deeper:
                stack += reversed(extended)
        return out


def subspace_sum(spaces) -> Subspace:
    spaces = list(spaces)
    first = spaces[0]
    rows = []
    for s in spaces:
        rows.extend(s.row_list())
    return subspace_from_rows(first.field, rows, first.ambient)


def intersection(a: Subspace, b: Subspace) -> Subspace:
    """Zassenhaus: rref of [[A A],[B 0]]; zero-left rows carry the intersection."""
    if a.field != b.field or a.ambient != b.ambient:
        raise ValueError("intersection: mixed fields or ambient spaces")
    f, n = a.field, a.ambient
    rows = [r + r for r in a.row_list()] + [r + (0,) * n for r in b.row_list()]
    reduced, rk, _ = rref(Matrix(f, len(rows), 2 * n, tuple(x for r in rows for x in r)))
    inter_rows = [row[n:] for row in reduced.row_list()[:rk] if not any(row[:n])]
    return subspace_from_rows(f, inter_rows, n)


def spread(field: FieldSpec, t: int) -> list[Subspace]:
    """A t-spread of F_q^{2t}: q^t+1 pairwise trivially intersecting t-subspaces.

    Standard field-extension construction: the lines of F_{q^t}^2 viewed as
    F_q-subspaces, with F_{q^t} realized as F_q[y]/(g) for the smallest monic
    irreducible g of degree t.
    """
    q = field.q
    check_size(2 * t * q**t, f"columns of the spread members of F_{q}^{2 * t}")
    n = 2 * t
    g = smallest_irreducible(field, t)

    def coords(poly) -> list[int]:
        return list(poly) + [0] * (t - len(poly))

    def times_y_power(beta, i):
        shifted = [0] * i + list(beta)
        return poly_mod(field, shifted, g)

    members: list[Subspace] = []
    for code in range(q**t):
        beta = []
        c = code
        for _ in range(t):
            beta.append(c % q)
            c //= q
        while beta and beta[-1] == 0:
            beta.pop()
        rows = []
        for i in range(t):
            left = [0] * t
            left[i] = 1
            rows.append(left + coords(times_y_power(beta, i)))
        members.append(subspace_from_rows(field, rows, n))
    members.append(coordinate_subspace(field, n, t, t))
    assert len(members) == q**t + 1
    return members
