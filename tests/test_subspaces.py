import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netgap import subspaces
from netgap.errors import Budget, SizeLimitExceeded
from netgap.gf import Matrix, element_tables, field_of_order, make_field
from netgap.subspaces import (
    DirectSumIndex,
    PackedVectors,
    Subspace,
    canonicalize,
    enumerate_subspaces,
    gaussian_coefficient,
    intersection,
    positions,
    spread,
    subspace_from_rows,
    subspaces_up_to_dim,
    sum_dim,
)


def test_canonicalize_full_space():
    f = make_field(2, 1)
    s = canonicalize(f, Matrix.from_rows(f, [(1, 0), (0, 1)]))
    assert s.dim == 2 and s.ambient == 2


def test_canonicalize_repeated_rows():
    f = make_field(2, 1)
    s = canonicalize(f, Matrix.from_rows(f, [(1, 1), (1, 1)]))
    assert s.dim == 1 and s.row_list() == [(1, 1)]


def test_canonicalize_generator_order_invariant():
    f = make_field(3, 1)
    rows = [(1, 0, 2, 1), (0, 1, 1, 2)]
    base = canonicalize(f, Matrix.from_rows(f, rows))
    rng = random.Random(13)
    for _ in range(20):
        # random invertible recombination of the generators
        a, b, c, d = [rng.randrange(3) for _ in range(4)]
        if (a * d - b * c) % 3 == 0:
            continue
        g1 = tuple((a * x + b * y) % 3 for x, y in zip(*rows))
        g2 = tuple((c * x + d * y) % 3 for x, y in zip(*rows))
        again = canonicalize(f, Matrix.from_rows(f, [g2, g1]))
        assert again == base


def test_gaussian_examples():
    assert gaussian_coefficient(4, 0, 2) == 1
    assert gaussian_coefficient(4, 2, 2) == 35
    assert gaussian_coefficient(2, 1, 3) == 4
    with pytest.raises(ValueError):
        gaussian_coefficient(2, 3, 2)


def test_gaussian_brute_force_oracle_f3_squared():
    # count distinct spans of nonzero vectors of F_3^2 directly
    f = make_field(3, 1)
    spans = {
        canonicalize(f, Matrix.from_rows(f, [v])).sort_key
        for v in itertools.product(range(3), repeat=2)
        if any(v)
    }
    assert len(spans) == gaussian_coefficient(2, 1, 3)


def test_enumerate_lines_of_f2_squared():
    f = make_field(2, 1)
    subs = enumerate_subspaces(f, 2, 1)
    assert {s.row_list()[0] for s in subs} == {(1, 0), (0, 1), (1, 1)}


def test_enumerate_full_space_single():
    f = make_field(3, 1)
    subs = enumerate_subspaces(f, 3, 3)
    assert len(subs) == 1 and subs[0].dim == 3


def test_enumerate_counts_and_canonical_order():
    f2, f3 = make_field(2, 1), make_field(3, 1)
    for f, n_max in ((f2, 4), (f3, 3)):
        for n in range(n_max + 1):
            for t in range(n + 1):
                subs = enumerate_subspaces(f, n, t)
                assert len(subs) == gaussian_coefficient(n, t, f.q)
                keys = [s.sort_key for s in subs]
                assert keys == sorted(keys)
                assert len(set(keys)) == len(keys)


@pytest.mark.parametrize(
    "q,n,t", [(2, 3, 0), (2, 4, 2), (2, 4, 4), (3, 3, 1), (3, 3, 3), (4, 3, 2), (5, 2, 1)]
)
def test_each_listed_subspace_is_its_own_rref_basis(q, n, t):
    f = field_of_order(q)
    for s in enumerate_subspaces(f, n, t):
        assert isinstance(s, Matrix) and isinstance(s, Subspace)
        assert (s.rows, s.cols) == (s.dim, s.ambient) == (t, n)
        assert s.field is f and len(s.data) == t * n
        assert canonicalize(f, s) == s


def test_subspaces_are_equal_exactly_when_shape_and_data_agree():
    f = make_field(3, 1)
    line = subspace_from_rows(f, [(2, 1, 0)], 3)
    same = Subspace(f, 1, 3, (1, 2, 0))
    assert line == same and hash(line) == hash(same) and len({line, same}) == 1
    assert Subspace.from_rows(f, [(1, 2, 0)]) == line
    # the same data in another shape, or other data in the same shape
    assert Subspace(f, 3, 1, (1, 2, 0)) != line
    assert Subspace(f, 1, 3, (1, 0, 0)) != line
    assert Subspace.zeros(f, 0, 3) != Subspace.zeros(f, 0, 2)
    assert subspace_from_rows(f, [], 3) == Subspace.zeros(f, 0, 3)
    # the same space over another field
    assert subspace_from_rows(make_field(5, 1), [(2, 1, 0)], 3) != line


def test_a_subspace_never_equals_a_plain_matrix():
    f = make_field(2, 1)
    for s in enumerate_subspaces(f, 3, 1) + enumerate_subspaces(f, 2, 2):
        plain = Matrix(f, s.rows, s.cols, s.data)
        assert s != plain and plain != s
        assert len({s, plain}) == 2


def test_enumerate_limit(monkeypatch):
    # 35 subspaces, refused above a limit of 10 read at the call
    f = make_field(2, 1)
    monkeypatch.setattr(subspaces, "ENUMERATION_LIMIT", 10)
    with pytest.raises(SizeLimitExceeded, match="35 subspaces of F_2\\^4 exceed limit 10"):
        enumerate_subspaces(f, 4, 2)


def test_sum_dim_examples():
    f = make_field(2, 1)
    w = subspace_from_rows(f, [(1, 0)], 2)
    assert sum_dim([w, w]) == 1
    lines = enumerate_subspaces(f, 2, 1)
    assert sum_dim([lines[0], lines[1]]) == 2
    with pytest.raises(ValueError):
        sum_dim([w, subspace_from_rows(f, [(1, 0, 0)], 3)])


def test_sum_dim_matches_stacked_rank_oracle():
    from netgap.gf import rank

    f = make_field(2, 1)
    rng = random.Random(19)
    for _ in range(20):
        spaces = [
            canonicalize(f, Matrix.from_rows(f, [[rng.randrange(2) for _ in range(6)] for _ in range(2)]))
            for _ in range(3)
        ]
        rows = [row for s in spaces for row in s.row_list()]
        assert sum_dim(spaces) == rank(Matrix.from_rows(f, rows))


@pytest.mark.parametrize(
    "q,t",
    [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3), (4, 1)],
)
def test_spread_defining_properties(q, t):
    # pairwise trivial intersection and exact cover of the nonzero vectors
    from netgap.gf import field_of_order

    f = field_of_order(q)
    members = spread(f, t)
    assert len(members) == q**t + 1
    for a, b in itertools.combinations(members, 2):
        assert sum_dim([a, b]) == 2 * t
    seen = {}
    for i, s in enumerate(members):
        assert s.dim == t
        for v in s.row_combinations():
            if any(v):
                assert v not in seen
                seen[v] = i
    assert len(seen) == q ** (2 * t) - 1


def test_intersection_zassenhaus():
    f = make_field(2, 1)
    a = subspace_from_rows(f, [(1, 0, 0), (0, 1, 0)], 3)
    b = subspace_from_rows(f, [(0, 1, 0), (0, 0, 1)], 3)
    inter = intersection(a, b)
    assert inter.dim == 1 and inter.row_list() == [(0, 1, 0)]
    assert sum_dim([a, b]) == 3


@given(st.integers(0, 2**24 - 1))
@settings(max_examples=50, deadline=None)
def test_intersection_dimension_formula(bits):
    f = make_field(2, 1)
    rows = [[(bits >> (4 * i + j)) & 1 for j in range(4)] for i in range(6)]
    a = canonicalize(f, Matrix.from_rows(f, rows[:3]))
    b = canonicalize(f, Matrix.from_rows(f, rows[3:]))
    assert intersection(a, b).dim == a.dim + b.dim - sum_dim([a, b])


def _direct_sum_masks_oracle(spaces):
    """The pairwise sum_dim loop that DirectSumIndex.pair_masks replaced."""
    masks = [0] * len(spaces)
    for i in range(len(spaces)):
        for j in range(i + 1, len(spaces)):
            if sum_dim([spaces[i], spaces[j]]) == spaces[i].dim + spaces[j].dim:
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return masks


@pytest.mark.parametrize(
    "q,n,t",
    [(2, 2, 1), (2, 4, 2), (3, 4, 2), (4, 2, 1), (2, 3, 0), (2, 3, 2), (3, 3, 2), (2, 4, 3)],
)
def test_direct_sum_masks_match_sum_dim(q, n, t):
    f = make_field(*{2: (2, 1), 3: (3, 1), 4: (2, 2)}[q])
    same_dim = enumerate_subspaces(f, n, t)
    assert DirectSumIndex(same_dim).pair_masks() == _direct_sum_masks_oracle(same_dim)
    # mixed dimensions down to the zero space, which is in direct sum with
    # every other space
    mixed = subspaces_up_to_dim(f, n, t)
    assert DirectSumIndex(mixed).pair_masks() == _direct_sum_masks_oracle(mixed)


def test_direct_sum_masks_edge_cases():
    f = make_field(2, 1)
    zero = subspace_from_rows(f, [], 3)
    line = subspace_from_rows(f, [(1, 0, 0)], 3)
    assert DirectSumIndex([]).pair_masks() == []
    assert DirectSumIndex([zero, zero, line]).pair_masks() == [0b110, 0b101, 0b011]
    assert DirectSumIndex([line, line]).pair_masks() == [0, 0]
    with pytest.raises(ValueError):
        DirectSumIndex([line, subspace_from_rows(f, [(1, 0)], 2)])


def _blocked_oracle(spaces, subset):
    """blocked(subset) by one sum_dim per space: bit j is set iff the subset
    members and spaces[j] are not in direct sum."""
    members = [spaces[i] for i in subset]
    dims = sum(s.dim for s in members)
    mask = 0
    for j, s in enumerate(spaces):
        if sum_dim(members + [s]) != dims + s.dim:
            mask |= 1 << j
    return mask


@st.composite
def _universe_and_subsets(draw):
    """Up to 7 subspaces of F_q^{4t} and a few subsets of up to 3 of them.

    Basis rows use only the first `width` coordinates, so narrow draws pile
    the spaces into a small subspace and make dependent subsets common.
    """
    q = draw(st.sampled_from([2, 3, 4]))
    t = draw(st.sampled_from([1, 2]))
    f = make_field(*{2: (2, 1), 3: (3, 1), 4: (2, 2)}[q])
    n = 4 * t
    width = draw(st.integers(1, n))
    entry = st.integers(0, q - 1)
    row = st.lists(entry, min_size=width, max_size=width).map(lambda r: r + [0] * (n - width))
    spaces = draw(st.lists(st.lists(row, min_size=t, max_size=t), min_size=1, max_size=7))
    spaces = [subspace_from_rows(f, rows, n) for rows in spaces]
    index_subset = st.lists(st.integers(0, len(spaces) - 1), max_size=3, unique=True)
    subsets = draw(st.lists(index_subset.map(tuple), min_size=1, max_size=4))
    return spaces, subsets


@settings(max_examples=150, deadline=None)
@given(_universe_and_subsets())
def test_blocked_matches_sum_dim(case):
    spaces, subsets = case
    index = DirectSumIndex(spaces)
    for subset in subsets:
        expected = _blocked_oracle(spaces, subset)
        assert index.blocked(subset) == expected
        assert index.blocked(subset) == expected  # the cached answer


@pytest.mark.parametrize("q", [2, 3, 4])
def test_blocked_on_dependent_triples_of_lines(q):
    # h = alpha = 4, t = 1: three lines of F_q^4 are dependent exactly when
    # coplanar, and then they block every line
    f = make_field(*{2: (2, 1), 3: (3, 1), 4: (2, 2)}[q])
    lines = enumerate_subspaces(f, 4, 1)
    position = {s.sort_key: k for k, s in enumerate(lines)}
    index = DirectSumIndex(lines)
    full = (1 << len(lines)) - 1
    rng = random.Random(q)
    for _ in range(10):
        i, j, new = rng.sample(range(len(lines)), 3)
        # a third line inside the plane of the first two, then any third line
        u, v = lines[i].row(0), lines[j].row(0)
        inside = subspace_from_rows(f, [[f.add(x, y) for x, y in zip(u, v)]], 4)
        coplanar = (i, j, position[inside.sort_key])
        assert index.blocked(coplanar) == full == _blocked_oracle(lines, coplanar)
        k = rng.choice([k for k in range(len(lines)) if sum_dim([lines[x] for x in (i, j, k)]) == 3])
        mask = index.blocked((i, j, k))
        assert mask == _blocked_oracle(lines, (i, j, k)) != full
        assert (mask >> new & 1) == (sum_dim([lines[x] for x in (i, j, k, new)]) != 4)


def test_index_pair_masks_and_edge_cases():
    f = make_field(2, 1)
    zero = subspace_from_rows(f, [], 3)
    line = subspace_from_rows(f, [(1, 0, 0)], 3)
    index = DirectSumIndex([zero, line, line])
    assert index.pair_masks() == [0b110, 0b001, 0b001]
    # the empty span meets nothing; a repeated line is a dependent pair
    assert index.blocked(()) == 0
    assert index.blocked((0,)) == 0
    assert index.blocked((1,)) == 0b110
    assert index.blocked((1, 2)) == 0b111
    assert index.blocked((0, 1)) == 0b110
    assert index.direct_sum_subsets(2, Budget(10)) == [(0, 1), (0, 2)]


@st.composite
def _spaces_with_dependences(draw):
    """3 to 10 subspaces of F_q^n, q in {2, 3, 4} and n in 2..4, shuffled:
    spans of 0 to 2 random rows, then maybe the zero space, repeats of
    drawn members, and the line through the sum of two drawn lines, which
    makes a dependent triple with them."""
    q = draw(st.sampled_from([2, 3, 4]))
    f = make_field(*{2: (2, 1), 3: (3, 1), 4: (2, 2)}[q])
    n = draw(st.integers(2, 4))
    row = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    rows = draw(st.lists(st.lists(row, max_size=2), min_size=3, max_size=6))
    spaces = [subspace_from_rows(f, r, n) for r in rows]
    if draw(st.booleans()):
        spaces.append(subspace_from_rows(f, [], n))
    spaces += draw(st.lists(st.sampled_from(spaces), max_size=2))
    lines = list(dict.fromkeys(s.row(0) for s in spaces if s.dim == 1))
    if len(lines) >= 2:
        u, v = draw(st.lists(st.sampled_from(lines), min_size=2, max_size=2, unique=True))
        spaces.append(subspace_from_rows(f, [[f.add(x, y) for x, y in zip(u, v)]], n))
    return draw(st.permutations(spaces))


@settings(max_examples=150, deadline=None)
@given(_spaces_with_dependences(), st.sampled_from([2, 3, 4]))
def test_direct_sum_subsets_match_a_sum_dim_scan(spaces, h):
    expected = [
        subset
        for subset in itertools.combinations(range(len(spaces)), h)
        if sum_dim([spaces[i] for i in subset]) == sum(spaces[i].dim for i in subset)
    ]
    assert DirectSumIndex(spaces).direct_sum_subsets(h, Budget(10**6)) == expected


def test_direct_sum_subsets_edge_cases():
    f = make_field(2, 1)
    zero = subspace_from_rows(f, [], 3)
    line = subspace_from_rows(f, [(1, 0, 0)], 3)
    assert DirectSumIndex([]).direct_sum_subsets(2, Budget(1)) == []
    # zero spaces are in direct sum with everything, themselves included
    index = DirectSumIndex([zero, zero, line, line])
    assert index.direct_sum_subsets(2, Budget(100)) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]
    assert index.direct_sum_subsets(3, Budget(100)) == [(0, 1, 2), (0, 1, 3)]
    with pytest.raises(ValueError):
        index.direct_sum_subsets(1, Budget(100))


class _TupleSpanOracle:
    """The listing and the index as they were before vectors were packed:
    bases built row by row with Matrix.from_rows, and spans listed as
    tuples through the element tables, one space at a time.  The oracle
    for the packed kernel."""

    def __init__(self, spaces, listing=None):
        self.spaces = list(spaces)
        self.full = (1 << len(self.spaces)) - 1
        self.points = [self._span(s)[1:] for s in self.spaces] if listing is None else listing
        self.holders = {}
        for i, pts in enumerate(self.points):
            for v in pts:
                self.holders[v] = self.holders.get(v, 0) | 1 << i

    @staticmethod
    def enumerate_by_rows(field, n, t):
        if t == 0:
            return [Subspace.zeros(field, 0, n)]
        out = []
        for pivots in itertools.combinations(range(n), t):
            free = [(i, j) for i in range(t) for j in range(pivots[i] + 1, n) if j not in pivots]
            template = [[0] * n for _ in range(t)]
            for i, p in enumerate(pivots):
                template[i][p] = 1
            for values in itertools.product(field.elements(), repeat=len(free)):
                rows = [list(r) for r in template]
                for (i, j), v in zip(free, values):
                    rows[i][j] = v
                out.append(Subspace.from_rows(field, rows))
        return out

    @staticmethod
    def _span(s):
        add, neg_mul, _ = element_tables(s.field)
        span = [(0,) * s.ambient]
        for row in s.row_list():
            multiples = [[mul[y] for y in row] for mul in neg_mul[1:]]
            span += [tuple([add[x][y] for x, y in zip(u, m)]) for u in span for m in multiples]
        return span

    def pair_masks(self):
        masks = []
        for i, pts in enumerate(self.points):
            meets = 1 << i
            for vec in pts:
                meets |= self.holders[vec]
            masks.append(self.full & ~meets)
        return masks

    def blocked(self, subset):
        add = element_tables(self.spaces[0].field)[0]
        span = [(0,) * self.spaces[0].ambient]
        mask = 0
        for i in subset:
            if mask >> i & 1:
                return self.full
            new = [tuple([add[x][y] for x, y in zip(u, w)]) for u in span for w in self.points[i]]
            for vec in new:
                mask |= self.holders.get(vec, 0)
            span += new
        return mask


def _kernel_cases(max_members=1400, max_vectors=25_000):
    """Every (q, n, t) with q in {2, 3, 4, 5, 7, 8, 9}, q^n <= 9^4 and at
    most `max_members` t-subspaces of F_q^n, t = 0 and t = n included, whose
    spans the tuple oracle lists in well under a second."""
    for q in (2, 3, 4, 5, 7, 8, 9):
        for n in itertools.takewhile(lambda n: q**n <= 9**4, itertools.count(1)):
            for t in range(n + 1):
                count = gaussian_coefficient(n, t, q)
                if count <= max_members and count * q**t <= max_vectors:
                    yield q, n, t


KERNEL_CASES = list(_kernel_cases())


@pytest.mark.parametrize("q,n,t", KERNEL_CASES, ids=[f"{q}-{n}-{t}" for q, n, t in KERNEL_CASES])
def test_packed_kernel_matches_the_tuple_span_oracle(q, n, t):
    f = field_of_order(q)
    universe = enumerate_subspaces(f, n, t)
    # the same bases in the same order, and with them the same positions
    by_rows = _TupleSpanOracle.enumerate_by_rows(f, n, t)
    assert universe == by_rows
    rng = random.Random(q * 100 + n * 10 + t)
    members = rng.sample(universe, min(len(universe), 20))
    assert positions(universe, members) == [universe.index(s) for s in members]
    # a zero space and a lower dimension make direct sums of mixed spaces
    lower = enumerate_subspaces(f, n, max(t - 1, 0))
    spaces = universe + [subspace_from_rows(f, [], n)] + rng.sample(lower, min(len(lower), 5))
    index, oracle = DirectSumIndex(spaces), _TupleSpanOracle(spaces)
    assert [sorted(map(index.packed.unpack, pts)) for pts in index.points] == [
        sorted(pts) for pts in oracle.points
    ]
    assert index.pair_masks() == oracle.pair_masks()
    sizes = [min(k, len(spaces)) for k in (1, 2, 2, 3, 3, 3, 4) * 4]
    subsets = [()] + [tuple(rng.sample(range(len(spaces)), k)) for k in sizes]
    # a member inside the span of two others: a dependent subset
    if n >= 2 and t == 1:
        i, j = rng.sample(range(len(universe)), 2)
        u, v = universe[i].row(0), universe[j].row(0)
        inside = subspace_from_rows(f, [[f.add(x, y) for x, y in zip(u, v)]], n)
        subsets.append((i, j, positions(universe, [inside])[0]))
    for subset in subsets:
        assert index.blocked(subset) == oracle.blocked(subset), subset


@pytest.mark.parametrize("q", [3, 5, 7, 9, 25, 27, 49])
def test_packed_sums_add_digit_wise_mod_p(q):
    # the guarded slot add against the field's own add, on random vectors
    f = field_of_order(q)
    packed = PackedVectors(f, 5)
    rng = random.Random(q)
    us = [tuple(rng.randrange(q) for _ in range(5)) for _ in range(20)]
    ws = [tuple(rng.randrange(q) for _ in range(5)) for _ in range(20)] + [(q - 1,) * 5]
    for u in us:
        assert packed.unpack(packed.pack(u)) == u
        got = packed.sums([packed.pack(u)], [packed.pack(w) for w in ws])
        assert [packed.unpack(x) for x in got] == [tuple(map(f.add, u, w)) for w in ws]


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (5, 1)], ids=["F2", "F3", "F4", "F5"])
@pytest.mark.parametrize("n", [2, 3])
def test_index_listing_matches_row_combinations(p, m, n):
    # the packed points, decoded, are the vectors Matrix.row_combinations
    # lists with one FieldSpec.add/mul per coordinate
    f = make_field(p, m)
    spaces = [s for d in (0, 1, n) for s in enumerate_subspaces(f, n, d)]
    listing = [[v for v in s.row_combinations() if any(v)] for s in spaces]
    fast, slow = DirectSumIndex(spaces), _TupleSpanOracle(spaces, listing)
    for s, pts, expected in zip(spaces, fast.points, slow.points):
        assert len(pts) == len(set(pts)) == f.q**s.dim - 1
        assert {fast.packed.unpack(x) for x in pts} == set(expected)
    assert fast.pair_masks() == slow.pair_masks()
    for subset in itertools.chain(
        [()], itertools.combinations(range(len(spaces)), 1), itertools.combinations(range(len(spaces)), 2)
    ):
        assert fast.blocked(subset) == slow.blocked(subset)
