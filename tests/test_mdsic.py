import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netgap import mdsic
from netgap.certs import Verdict
from netgap.errors import DEFAULT_BUDGET, InternalError
from netgap.gf import Matrix, field_of_order, make_field, matrix_from_json, rank
from netgap.lincode import forwarding_code, search_solution, solution_from_classical_code, verify_solution
from netgap.mdsic import (
    IndependentConfiguration,
    LinearCode,
    ic_exists_of_size,
    ic_is_valid,
    ic_max_size,
    ic_size_bound,
    ic_to_json,
    ic_to_solution,
    linear_code_to_json,
    min_distance,
    rs_code,
    solution_to_ic,
    standard_frame,
    subcombination_solution,
)
from netgap.networks import Edge, Network, build_butterfly, build_combination
from netgap.subspaces import (
    DirectSumIndex,
    canonicalize,
    coordinate_subspace,
    enumerate_subspaces,
    spread,
    subspace_from_rows,
    sum_dim,
)

import reference_searches


def test_rs_code_examples():
    code = rs_code(2, 3, 2)
    assert min_distance(code) == 2
    assert min_distance(rs_code(4, 5, 2)) == 4
    with pytest.raises(ValueError):
        rs_code(2, 4, 2)


@pytest.mark.parametrize("q,r,h", [(2, 3, 2), (3, 4, 2), (4, 5, 2), (5, 6, 3), (4, 5, 3)])
def test_rs_codes_are_mds(q, r, h):
    assert min_distance(rs_code(q, r, h)) == r - h + 1


def test_min_distance_repetition_and_codebook():
    f2 = make_field(2, 1)
    rep = LinearCode(f2, 3, 1, Matrix.from_rows(f2, [(1, 1, 1)]))
    assert min_distance(rep) == 3
    # the least nonzero weight is the least distance between two codewords
    f3 = field_of_order(3)
    code = LinearCode(f3, 4, 2, Matrix.from_rows(f3, [(1, 0, 2, 1), (0, 1, 1, 0)]))
    book = list(code.generator.row_combinations())
    distances = (sum(x != y for x, y in zip(a, b)) for a, b in itertools.combinations(book, 2))
    assert min_distance(code) == 2 == min(distances)


def _classical_verdict(net, code):
    return verify_solution(net, solution_from_classical_code(net, code.generator))


def test_solvability_positive_emits_verified_code():
    assert _classical_verdict(build_combination(2, 3, 2), rs_code(2, 3, 2)).ok


def test_solvability_emits_verified_code_when_s_exceeds_h():
    for q, r, s in ((2, 3, 3), (3, 4, 3)):
        assert _classical_verdict(build_combination(2, r, s), rs_code(q, r, 2)).ok


def test_solvability_identity_on_h_h_h():
    f2 = make_field(2, 1)
    code = LinearCode(f2, 3, 3, Matrix.identity(f2, 3))
    assert min_distance(code) == 1 and _classical_verdict(build_combination(3, 3, 3), code).ok


def test_solvability_all_f2_codebooks_of_length_4_fail():
    # exhaustive: no binary codebook with 4 words of length 4 reaches distance
    # 3, and the checker rejects every linear one as a code for N_{2,4,2}
    f2 = field_of_order(2)
    net = build_combination(2, 4, 2)
    words = list(itertools.product(range(2), repeat=4))
    linear = 0
    for subset in itertools.combinations(words, 4):
        assert min(sum(x != y for x, y in zip(a, b)) for a, b in itertools.combinations(subset, 2)) < 3
        gen = Matrix.from_rows(f2, subset[1:3])
        if subset[0] == (0, 0, 0, 0) and rank(gen) == 2 and set(gen.row_combinations()) == set(subset):
            linear += 1
            assert not _classical_verdict(net, LinearCode(f2, 4, 2, gen)).ok
    assert linear == 35  # the 2-dimensional subspaces of F_2^4


def _rank_two_generators(q, r):
    f = field_of_order(q)
    for entries in itertools.product(range(q), repeat=2 * r):
        gen = Matrix(f, 2, r, entries)
        if rank(gen) == 2:
            yield LinearCode(f, r, 2, gen)


def test_classical_code_solves_iff_its_distance_reaches_r_minus_s_plus_1():
    # every 2 x r generator of rank 2 over F_2 and F_3 for r = 3, 4 (a seeded
    # sample of the 6,240 over F_3 at r = 4): the checker accepts the
    # forwarding code on N_{2,r,s} exactly when d >= r - s + 1
    verdicts = set()
    for q, r in ((2, 3), (2, 4), (3, 3), (3, 4)):
        codes = list(_rank_two_generators(q, r))
        if (q, r) == (3, 4):
            codes = random.Random(7).sample(codes, 400)
        for s in (2, 3):
            net = build_combination(2, r, s)
            for code in codes:
                solvable = min_distance(code) >= r - s + 1
                assert _classical_verdict(net, code).ok == solvable, (code.generator, s)
                verdicts.add(solvable)
    assert verdicts == {True, False}


def test_ic_validity_examples():
    f2 = field_of_order(2)
    lines = enumerate_subspaces(f2, 2, 1)
    assert ic_is_valid(IndependentConfiguration(f2, 1, 2, tuple(lines)), 2)
    coplanar = tuple(
        subspace_from_rows(f2, [v], 3) for v in [(1, 0, 0), (0, 1, 0), (1, 1, 0)]
    )
    assert not ic_is_valid(IndependentConfiguration(f2, 1, 3, coplanar), 3)
    assert ic_is_valid(IndependentConfiguration(f2, 2, 2, tuple(spread(f2, 2))), 2)


def test_ic_size_bound_values():
    assert ic_size_bound(2, 1, 2, 2) == 3
    assert ic_size_bound(2, 1, 3, 3) == 4
    assert ic_size_bound(2, 2, 2, 2) == 5
    with pytest.raises(ValueError):
        ic_size_bound(2, 1, 3, 1)
    # no configuration space: t = 0 divided by q^0 - 1, q = 6 has no field
    with pytest.raises(ValueError, match="t >= 1"):
        ic_size_bound(5, 0, 4, 4)
    for q in (0, 1, 6):
        with pytest.raises(ValueError, match="not a prime power"):
            ic_size_bound(q, 1, 3, 3)


@pytest.mark.parametrize(
    "q,t,h,alpha,expected",
    [(2, 1, 2, 2, 3), (2, 1, 3, 3, 4), (2, 2, 2, 2, 5), (3, 1, 2, 2, 4)],
)
def test_ic_max_size_exact_meets_bound(q, t, h, alpha, expected):
    res = ic_max_size(q, t, h, alpha)
    assert res.exact and res.size == expected
    assert res.size <= res.bound
    assert ic_is_valid(res.witness, alpha)


def test_ic_max_size_can_fall_below_the_ceiling():
    # over F_3 the largest point set with every 3 members spanning F_3^3
    # is a 4-arc, strictly under the proven ceiling of 5: the report keeps
    # (exact max, bound) separate instead of asserting tightness
    res = ic_max_size(3, 1, 3, 3)
    assert res.exact and res.size == 4 and res.bound == 5
    assert ic_is_valid(res.witness, 3)
    # matching solvability: 4 middle nodes work, 5 do not
    assert search_solution(build_combination(3, 4, 3), 3, 1) is not None
    assert search_solution(build_combination(3, 5, 3), 3, 1) is None


def test_ic_exists_of_size():
    assert ic_exists_of_size(2, 1, 2, 2, 3) is not None
    assert ic_exists_of_size(2, 1, 2, 2, 4) is None
    assert ic_exists_of_size(2, 2, 2, 2, 5) is not None
    assert ic_exists_of_size(2, 2, 2, 2, 6) is None


@pytest.mark.parametrize("q,t,h", [(2, 1, 2), (3, 2, 2), (4, 1, 3), (2, 2, 3)])
def test_size_one_ic_is_the_canonical_first_subspace(q, t, h):
    config = ic_exists_of_size(q, t, h, h, 1)
    first = enumerate_subspaces(field_of_order(q), h * t, t)[0]
    assert config.members == (first,) and ic_is_valid(config, h)


def test_size_one_ic_lists_no_universe(monkeypatch):
    # 13,910,980,083 subspaces of F_2^12 of dimension 4: far past any
    # enumeration limit, yet any single one of them is an IC
    def no_enumeration(*args, **kwargs):
        raise AssertionError("a size-1 IC needs no universe")

    monkeypatch.setattr(mdsic, "enumerate_subspaces", no_enumeration)
    config = ic_exists_of_size(2, 4, 3, 3, 1)
    assert len(config.members) == 1
    (member,) = config.members
    assert member.dim == 4 and member.ambient == 12 and member.pivots == (0, 1, 2, 3)
    assert ic_is_valid(config, 3)


@pytest.mark.parametrize("size", [2, 3, 4])
def test_sizes_up_to_the_frame_list_no_universe(monkeypatch, size):
    # the standard frame of (4;3,3)_2 has four members, and each prefix is
    # an IC; size 1 is the test above
    def no_enumeration(*args, **kwargs):
        raise AssertionError("a prefix of the frame needs no universe")

    monkeypatch.setattr(mdsic, "enumerate_subspaces", no_enumeration)
    config = ic_exists_of_size(2, 4, 3, 3, size)
    frame = standard_frame(field_of_order(2), 4, 3, 3)
    assert config.members == tuple(frame[:size]) and ic_is_valid(config, 3)
    # alpha < h pins only the coordinate blocks
    if size == 2:
        config = ic_exists_of_size(2, 4, 3, 2, size)
        assert config.members == tuple(frame[:size]) and ic_is_valid(config, 2)


@pytest.mark.parametrize(
    "q,t,h", [(2, 1, 2), (3, 1, 3), (4, 1, 4), (2, 2, 2), (3, 2, 3), (2, 3, 2), (5, 1, 3)]
)
def test_standard_frame_is_a_reduced_ic(q, t, h):
    fld = field_of_order(q)
    for alpha in range(2, h + 1):
        frame = standard_frame(fld, t, h, alpha)
        assert len(frame) == alpha + (alpha == h)
        assert all(canonicalize(fld, s) == s for s in frame)
        assert ic_is_valid(IndependentConfiguration(fld, t, h, tuple(frame)), alpha)
        # the blocks are the coordinate subspaces, in block order
        for b in range(alpha):
            assert frame[b] == coordinate_subspace(fld, h * t, t, b * t)
    if h * t == 2:
        # (1;2,2): the frame is the three points 0:1, 1:0 and 1:1
        rows = [s.row(0) for s in standard_frame(fld, t, h, h)]
        assert rows == [(1, 0), (0, 1), (1, 1)]


def _two_pin_search(q, t, h, alpha):
    """The IC search before the frame pin, kept as an oracle: it pins the
    canonical first subspace and one coordinate complement and searches the
    rest in the same order with the same masks.  Returns (size, exact,
    witness)."""
    fld = field_of_order(q)
    n = h * t
    bound = ic_size_bound(q, t, h, alpha)
    universe = enumerate_subspaces(fld, n, t)
    index = DirectSumIndex(universe)
    pair_ok = index.pair_masks()
    position = {s.sort_key: i for i, s in enumerate(universe)}
    chosen = [0, position[coordinate_subspace(fld, n, t, t).sort_key]]
    best = list(chosen)

    def extend(start, cand_mask):
        nonlocal best
        if len(chosen) > len(best):
            best = list(chosen)
            if len(best) == bound:
                return True
        if len(chosen) + bin(cand_mask >> start).count("1") <= len(best):
            return False
        for j in range(start, len(universe)):
            if not cand_mask >> j & 1:
                continue
            if len(chosen) + bin(cand_mask >> j).count("1") <= len(best):
                return False
            if not reference_searches.alpha_ok(index, chosen, j, alpha):
                continue
            chosen.append(j)
            if extend(j + 1, cand_mask & pair_ok[j]):
                return True
            chosen.pop()
        return False

    extend(0, pair_ok[chosen[0]] & pair_ok[chosen[1]])
    witness = IndependentConfiguration(fld, t, h, tuple(universe[i] for i in best))
    return len(best), True, witness


@pytest.mark.parametrize(
    "q,t,h,alpha",
    [
        (2, 2, 3, 3),
        (5, 1, 3, 3),
        (3, 2, 2, 2),
        (3, 1, 3, 3),
        (4, 1, 3, 3),
        (3, 1, 4, 4),
        (4, 1, 4, 4),
        (2, 2, 2, 2),
        (4, 2, 2, 2),
        (2, 1, 3, 2),
        (3, 1, 4, 3),
    ],
)
def test_frame_pinned_search_agrees_with_the_two_pin_search(q, t, h, alpha):
    # the frame pin changes the tree and the witness, never the maximum
    size, exact, witness = _two_pin_search(q, t, h, alpha)
    res = ic_max_size(q, t, h, alpha)
    assert (res.size, res.exact) == (size, exact)
    assert ic_is_valid(witness, alpha) and ic_is_valid(res.witness, alpha)
    frame = standard_frame(field_of_order(q), t, h, alpha)
    assert res.witness.members[: len(frame)] == tuple(frame)


def _brute_force_max(q, t, h, alpha):
    """Largest IC by trying every subset of the universe, largest first."""
    fld = field_of_order(q)
    universe = enumerate_subspaces(fld, h * t, t)
    for size in range(len(universe), 0, -1):
        for members in itertools.combinations(universe, size):
            if ic_is_valid(IndependentConfiguration(fld, t, h, members), alpha):
                return size
    raise AssertionError("a single subspace is always an IC")


@pytest.mark.parametrize(
    "q,t,h,alpha",
    [(2, 1, 2, 2), (3, 1, 2, 2), (4, 1, 2, 2), (2, 1, 3, 2), (2, 1, 3, 3), (3, 1, 3, 3)],
)
def test_frame_pinned_search_agrees_with_brute_force(q, t, h, alpha):
    expected = _brute_force_max(q, t, h, alpha)
    res = ic_max_size(q, t, h, alpha)
    assert res.exact and res.size == expected == _two_pin_search(q, t, h, alpha)[0]
    assert ic_is_valid(res.witness, alpha)
    witness = ic_exists_of_size(q, t, h, alpha, expected)
    assert len(witness.members) == expected and ic_is_valid(witness, alpha)
    assert ic_exists_of_size(q, t, h, alpha, expected + 1) is None


def test_frame_pin_settles_the_7_arc_in_pg_3_5():
    # a (1;4,4)_5 configuration is an arc of PG(3,5): at most q + 1 = 6
    # points (Casse 1979), and the normal rational curve attains 6 (Segre
    # 1955); over F_7 the curve gives 8 points
    res = ic_max_size(5, 1, 4, 4)
    assert (res.size, res.bound, res.exact) == (6, 8, True)
    assert ic_is_valid(res.witness, 4)
    assert ic_exists_of_size(5, 1, 4, 4, 7) is None
    found = ic_exists_of_size(7, 1, 4, 4, 8)
    assert len(found.members) == 8 and ic_is_valid(found, 4)


class _SumDimBlocked:
    """A `blocked(subset)` mask as the IC search read it before the
    direct-sum index: bit j is one sum_dim of the subset's spaces and
    space j, taken when the search shifts the mask by j."""

    def __init__(self, index, subset):
        self.spaces = [index.spaces[i] for i in subset]
        self.universe = index.spaces

    def __rshift__(self, j):
        spaces = self.spaces + [self.universe[j]]
        return int(sum_dim(spaces) != len(spaces) * self.universe[j].dim)


@pytest.mark.parametrize(
    "q,t,h,alpha", [(2, 2, 3, 3), (3, 1, 3, 3), (4, 1, 3, 3), (2, 1, 4, 4), (3, 2, 2, 2)]
)
def test_ic_search_walks_the_sum_dim_oracle_tree(monkeypatch, q, t, h, alpha):
    fast = ic_max_size(q, t, h, alpha)
    monkeypatch.setattr(
        DirectSumIndex, "blocked", lambda index, subset, bud=None: _SumDimBlocked(index, subset)
    )
    slow = ic_max_size(q, t, h, alpha)
    assert (fast.size, fast.exact, fast.nodes_used) == (slow.size, slow.exact, slow.nodes_used)
    assert ic_to_json(fast.witness) == ic_to_json(slow.witness)


def test_ic_to_solution_and_back():
    res = ic_max_size(2, 2, 2, 2)
    code = ic_to_solution(res.witness)
    net = build_combination(2, res.size, 2)
    assert verify_solution(net, code).ok
    back = solution_to_ic(net, code)
    assert sorted(s.sort_key for s in back.members) == sorted(
        s.sort_key for s in res.witness.members
    )


def test_solution_to_ic_raises_internal_error_when_the_ic_check_fails(monkeypatch):
    res = ic_max_size(2, 2, 2, 2)
    net = build_combination(2, res.size, 2)
    code = ic_to_solution(res.witness)
    monkeypatch.setattr(mdsic, "ic_is_valid", lambda config, alpha: False)
    with pytest.raises(InternalError, match="do not form an IC"):
        solution_to_ic(net, code)


def test_three_lines_solve_n_2_3_2():
    f2 = field_of_order(2)
    lines = enumerate_subspaces(f2, 2, 1)
    code = ic_to_solution(IndependentConfiguration(f2, 1, 2, tuple(lines)))
    assert verify_solution(build_combination(2, 3, 2), code).ok


def test_spread_solves_n_2_5_2_over_f2_t2():
    f2 = field_of_order(2)
    config = IndependentConfiguration(f2, 2, 2, tuple(spread(f2, 2)))
    code = ic_to_solution(config)
    net = build_combination(2, 5, 2)
    verdict = verify_solution(net, code)
    assert verdict.ok and len(verdict.terminal_ranks) == 10


def test_reverse_of_rs_solution_reads_off_the_lines():
    net = build_combination(2, 3, 2)
    config = solution_to_ic(net, solution_from_classical_code(net, rs_code(2, 3, 2).generator))
    f2 = field_of_order(2)
    expected = {s.sort_key for s in enumerate_subspaces(f2, 2, 1)}
    assert {s.sort_key for s in config.members} == expected


@pytest.mark.parametrize("q,t,h", [(2, 1, 2), (3, 1, 2), (2, 2, 2), (2, 1, 3)])
def test_ic_solution_equivalence_at_maximal_r(q, t, h):
    # both routes at the maximum size, both certified negative just above it
    res = ic_max_size(q, t, h, h)
    assert res.exact
    r = res.size
    net = build_combination(h, r, h)
    code = search_solution(net, q, t)
    assert code is not None
    assert ic_is_valid(solution_to_ic(net, code), h)
    bigger = build_combination(h, r + 1, h)
    assert search_solution(bigger, q, t) is None
    assert ic_exists_of_size(q, t, h, h, r + 1) is None


def test_ic_json_roundtrip():
    # the members come back from the file through the one matrix reader
    res = ic_max_size(2, 1, 3, 3)
    obj = json.loads(json.dumps(ic_to_json(res.witness)))
    fld = make_field(obj["p"], obj["m"])
    back = [matrix_from_json(fld, rows, obj["t"], obj["h"] * obj["t"]) for rows in obj["members"]]
    assert [canonicalize(fld, m).sort_key for m in back] == [s.sort_key for s in res.witness.members]


def test_linear_code_json_roundtrip():
    # what `mds` writes, read back through JSON, is the generator itself
    code = rs_code(4, 5, 2)
    obj = json.loads(json.dumps(linear_code_to_json(code)))
    rows = [list(row) for row in code.generator.row_list()]
    assert obj == {"q": 4, "p": 2, "m": 2, "length": 5, "dim": 2, "generator": rows}


# ---------------------------------------------------------------------------
# the assignment search over a listed hypergraph
# ---------------------------------------------------------------------------

def test_search_order_adds_the_diagonal_vertex_when_its_frame_allows_it():
    # every 3 of the middles 0..3 feed a terminal: the frame is the
    # coordinate blocks on 0, 1, 2 and the diagonal on 3
    assert mdsic._search_order([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3), (3, 4, 5)], 6) == (
        [0, 1, 2, 3, 4, 5], 4
    )
    # no four middles have that: the first terminal's three take the blocks
    # and 5 completes a terminal before 3 and 4, which share one each
    assert mdsic._search_order([(0, 1, 2), (1, 2, 5), (2, 3, 4)], 6) == ([0, 1, 2, 5, 3, 4], 3)


@pytest.mark.parametrize(
    "q,t,r", [(3, 1, 4), (3, 1, 5), (4, 1, 6), (4, 1, 7), (5, 1, 7), (2, 2, 6), (2, 2, 7)]
)
def test_a_listed_complete_hypergraph_gets_the_ic_verdict(q, t, r):
    # the same question as ic_exists_of_size, asked without the interchange
    # of the middles or the size bound: a different tree, the same verdict
    edges = list(itertools.combinations(range(r), 3))
    _, best, exact, _ = mdsic._assignment_search(
        field_of_order(q), t, 3, 3, 10**6, r, edges, target=r
    )
    config = IndependentConfiguration(field_of_order(q), t, 3, tuple(best))
    assert (len(best) == r) == (ic_exists_of_size(q, t, 3, 3, r) is not None)
    assert exact == (len(best) < r) and ic_is_valid(config, 3)


@st.composite
def _assignment_questions(draw):
    """(fld, t, h, alpha, budget, size, edges, target) for `_assignment_search`
    as its callers ask: h = 2 and 3, the complete hypergraph up to its size
    bound or a listed one, and sometimes a node budget small enough to
    stop the walk."""
    q, t, h = draw(st.sampled_from([(2, 1, 2), (3, 1, 2), (2, 2, 2), (2, 1, 3), (3, 1, 3), (4, 1, 3)]))
    budget = draw(st.one_of(st.just(10**6), st.integers(0, 60)))
    if draw(st.booleans()):
        alpha = draw(st.integers(2, h))
        size, edges = ic_size_bound(q, t, h, alpha), None
        pinned = alpha + (alpha == h)
    else:
        alpha, size = h, draw(st.integers(h, 7))
        subsets = list(itertools.combinations(range(size), h))
        edges = draw(st.lists(st.sampled_from(subsets), min_size=1, max_size=12))
        pinned = mdsic._search_order(edges, size)[1]
    target = draw(st.one_of(st.none(), st.integers(pinned, size)))
    return field_of_order(q), t, h, alpha, budget, size, edges, target


@given(_assignment_questions())
@settings(max_examples=150, deadline=None)
def test_assignment_search_walks_the_reference_tree(question):
    fld, t, h, alpha, budget, size, edges, target = question
    args = (fld, t, h, alpha, budget, size, edges, target)
    order, spaces, exact, nodes = mdsic._assignment_search(*args)
    ref_order, ref_spaces, ref_exact, ref_nodes = reference_searches.assignment_search(*args)
    assert (order, exact, nodes) == (ref_order, ref_exact, ref_nodes)
    assert [s.sort_key for s in spaces] == [s.sort_key for s in ref_spaces]


def test_subcombination_solution_needs_a_sub_combination_network_with_two_messages():
    for net in (build_butterfly(), build_combination(1, 3, 1), build_combination(3, 5, 2)):
        with pytest.raises(ValueError, match="sub-combination network with h >= 2"):
            subcombination_solution(net, 2, 1)


def test_the_middle_layer_readers_reject_a_network_without_one():
    # the butterfly has no middle layer; N_{2,3,2} with an edge from a
    # middle back to the source keeps the combination shape but not three
    # layers.  Each is a ValueError, never an unpacked None
    fld = field_of_order(2)
    bf = build_butterfly()
    with pytest.raises(ValueError, match="three layers"):
        forwarding_code(bf, fld, 1, [Matrix(fld, 1, 2, (1, 0)), Matrix(fld, 1, 2, (0, 1))])
    with pytest.raises(ValueError, match="sub-combination network with h >= 2"):
        subcombination_solution(bf, 2, 1)
    base = build_combination(2, 3, 2)
    looped = Network.from_edges(
        2, "s", base.terminals, base.nodes, base.edges + (Edge("back", "m0", "s"),)
    )
    code = ic_to_solution(ic_max_size(2, 1, 2, 2).witness)
    for net in (bf, looped):
        with pytest.raises(ValueError, match="not a full minimal combination network"):
            solution_to_ic(net, code)


def test_subcombination_solution_raises_internal_error_on_a_rejected_code(monkeypatch):
    monkeypatch.setattr(mdsic, "verify_solution", lambda net, code: Verdict(False, {}, "forced"))
    with pytest.raises(InternalError, match="rejected code"):
        subcombination_solution(build_combination(3, 4, 3), 3, 1)
