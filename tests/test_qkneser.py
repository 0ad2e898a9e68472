import itertools
import operator
import random
import signal
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netgap.graphs import (
    UGraph,
    complete_graph,
    degree_order,
    ugraph_from_json,
    ugraph_to_dimacs,
    ugraph_to_json,
)
from netgap.errors import DEFAULT_BUDGET, Budget, BudgetExhausted
from netgap.qkneser import (
    _dsatur,
    build_qkneser,
    canonical_coloring,
    chromatic_number,
    find_homomorphism,
    greedy_clique,
    greedy_coloring,
    max_clique,
    spread_clique,
)
from netgap.networks import build_kneser
from netgap.skeleton import skeleton
from netgap.gf import field_of_order
from netgap.subspaces import DirectSumIndex, enumerate_subspaces, sum_dim

import reference_searches
from certified import coloring_ok, homomorphism_ok


def test_qkneser_2_2_1_is_triangle():
    g = build_qkneser(2, 2, 1)
    assert g.num_vertices == 3 and g.is_complete()


def test_qkneser_3_2_1_is_k4():
    g = build_qkneser(3, 2, 1)
    assert g.num_vertices == 4 and g.is_complete()


def test_qkneser_2_4_2_regular_degree_16():
    g = build_qkneser(2, 4, 2)
    assert g.num_vertices == 35
    assert set(g.degree_sequence()) == {16}


def test_qkneser_edges_certified_by_labels():
    g = build_qkneser(2, 4, 2)
    for a, b in list(g.edges)[:50]:
        assert sum_dim([g.labels[a], g.labels[b]]) == 4


def _direct_sum_sets(q, t, h):
    """The hyperedges of qK^h_{ht:t}: the h-sets of t-subspaces of F_q^{ht}
    in direct sum, over the vertices of qK_{ht:t}."""
    verts = enumerate_subspaces(field_of_order(q), h * t, t)
    return verts, DirectSumIndex(verts).direct_sum_subsets(h, Budget())


def test_hypergraph_h2_matches_graph_edges():
    assert tuple(_direct_sum_sets(2, 1, 2)[1]) == build_qkneser(2, 2, 1).edges


def test_hypergraph_2_1_3_counts():
    verts, hyperedges = _direct_sum_sets(2, 1, 3)
    assert len(verts) == 7 and len(hyperedges) == 28


def test_hypergraph_h1_rejected():
    with pytest.raises(ValueError, match="need h >= 2"):
        _direct_sum_sets(2, 1, 1)


def test_chi_triangle():
    res = chromatic_number(complete_graph(3))
    assert res.exact and res.chi == 3


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_chi_qk21_is_q_plus_1(q):
    res = chromatic_number(build_qkneser(q, 2, 1))
    assert res.exact and res.chi == q + 1


def test_chi_hypergraph_2_1_3_is_7():
    # qK^3_{3:1} over F_2 has the proper colorings of qK_{3:1}
    g = build_qkneser(2, 3, 1)
    res = chromatic_number(g)
    assert res.exact and res.chi == 7
    assert coloring_ok(g, res.coloring)


def test_hypergraph_graph_chromatic_equality():
    # two t-subspaces share a direct-sum h-set iff they meet trivially, so
    # the hypergraph's co-occurrence graph, whose colorings are its own, is
    # qK_{ht:t}: the same masks over the same labels
    for q, t, h in ((2, 1, 2), (2, 2, 2), (2, 1, 3), (3, 1, 3), (4, 1, 3), (2, 1, 4), (2, 1, 5)):
        verts, hyperedges = _direct_sum_sets(q, t, h)
        masks = [0] * len(verts)
        for he in hyperedges:
            members = sum(1 << v for v in he)
            for v in he:
                masks[v] |= members ^ (1 << v)
        graph = UGraph(len(verts), tuple(masks), labels=tuple(verts))
        assert graph == build_qkneser(q, h * t, t), (q, t, h)


def test_chi_bracket_on_budget_exhaustion():
    g = build_qkneser(2, 4, 2)
    res = chromatic_number(g, budget=5)
    assert not res.exact and res.lo <= 6 <= res.hi
    assert coloring_ok(g, res.coloring)


def test_spread_clique_examples():
    assert len(spread_clique(2, 1)) == 3
    assert len(spread_clique(3, 1)) == 4
    clique = spread_clique(2, 2)
    assert len(clique) == 5
    g = build_qkneser(2, 4, 2)
    edge_set = set(g.edges)
    for a, b in itertools.combinations(clique, 2):
        assert (a, b) in edge_set


# spread_clique at the commit before the polynomial arithmetic moved into
# netgap.gf: the extension-field modulus fixes which spread is built
@pytest.mark.parametrize(
    "q,t,clique",
    [
        (2, 1, (0, 1, 2)),
        (3, 1, (0, 1, 2, 3)),
        (2, 2, (0, 7, 9, 14, 34)),
        (3, 2, (0, 15, 21, 28, 43, 49, 56, 71, 77, 129)),
        (4, 2, (0, 25, 46, 55, 65, 88, 111, 118, 130, 155, 172, 181, 195, 218, 237, 244, 356)),
    ],
)
def test_spread_clique_is_pinned(q, t, clique):
    assert spread_clique(q, t) == clique


def test_max_clique_on_kneser():
    clique, complete = max_clique(build_qkneser(2, 4, 2))
    assert complete and len(clique) == 5


@pytest.mark.parametrize("q,t", [(2, 1), (3, 1), (4, 1), (5, 1), (2, 2), (3, 2)])
def test_qkneser_clique_number_matches_exact_search(q, t):
    from netgap.qkneser import qkneser_clique_number

    clique, complete = max_clique(build_qkneser(q, 2 * t, t))
    assert complete and len(clique) == qkneser_clique_number(q, t) == q**t + 1


def test_clique_lower_bound_le_chi():
    g = build_qkneser(2, 4, 2)
    clique, _ = max_clique(g)
    res = chromatic_number(g)
    assert len(clique) <= res.chi
    assert (len(clique), res.chi) == (5, 6)


def test_chi_strictly_above_clique_number_at_t2():
    # the t >= 2 strict inequality chi > q^t + 1, checked exactly at (2,2)
    res = chromatic_number(build_qkneser(2, 4, 2))
    assert res.exact and res.chi > 2**2 + 1


def test_hom_identity():
    g = complete_graph(3)
    phi = find_homomorphism(g, g)
    assert phi == {0: 0, 1: 1, 2: 2}


def test_hom_k4_to_k3_nonexistent():
    assert find_homomorphism(complete_graph(4), complete_graph(3)) is None


def test_hom_c5_to_k3_found_and_valid():
    c5 = UGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    phi = find_homomorphism(c5, complete_graph(3))
    assert phi is not None and homomorphism_ok(c5, complete_graph(3), phi)


def test_hom_generic_backtracking_target_not_complete():
    # map a path into a star: generic search path, post-hoc validation
    path = UGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    star = UGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    phi = find_homomorphism(path, star)
    assert phi is not None and homomorphism_ok(path, star, phi)
    triangle_to_star = find_homomorphism(complete_graph(3), star)
    assert triangle_to_star is None


def test_hom_refuted_by_a_source_clique_not_proven_maximum():
    # the 1,000-node clique search finds a 10-clique of 3K_{4:2} without
    # proving it maximum (that takes 8,442 nodes); 2K_{4:2}'s cliques are
    # proven to have 5 vertices, and cliques map injectively
    g1, g2 = build_qkneser(3, 4, 2), build_qkneser(2, 4, 2)
    assert max_clique(g1, budget=1000) == ((0, 12, 24, 29, 41, 53, 55, 67, 79, 129), False)
    assert find_homomorphism(g1, g2, budget=10000) is None


def test_canonical_coloring_values_and_properness():
    cases = [((2, 5, 2), 15), ((3, 3, 1), 13), ((2, 4, 2), None)]
    for (q, n, m), expected in cases:
        colors = canonical_coloring(q, n, m)
        g = build_qkneser(q, n, m)
        assert coloring_ok(g, colors)
        used = len(set(colors.values()))
        if expected is not None:
            assert used == expected
        else:
            assert used <= 7  # n = 2m case: construction bound, optimality not claimed


@pytest.mark.parametrize("q, n, m", [(2, 4, 2), (3, 4, 2), (4, 4, 2), (3, 5, 2), (2, 6, 3)])
def test_canonical_coloring_reads_the_least_line_off_the_rref(q, n, m):
    # the first RREF row of V ∩ S is the least line that a search over
    # every vector of V ∩ S finds, over prime and extension fields and
    # for n = 2m and n > 2m alike
    assert canonical_coloring(q, n, m) == reference_searches.canonical_coloring(q, n, m)


def test_canonical_coloring_precondition():
    with pytest.raises(ValueError):
        canonical_coloring(2, 3, 2)


def test_graph_json_and_dimacs():
    g = build_qkneser(2, 2, 1)
    back = ugraph_from_json(ugraph_to_json(g))
    assert back.num_vertices == g.num_vertices and set(back.edges) == set(g.edges)
    dimacs = ugraph_to_dimacs(g)
    assert dimacs.startswith("p edge 3 3")


def _brute_chi(g):
    if g.num_vertices == 0:
        return 0
    for k in range(1, g.num_vertices + 1):
        for assign in itertools.product(range(k), repeat=g.num_vertices):
            if all(assign[a] != assign[b] for a, b in g.edges):
                return k
    raise AssertionError


def _brute_hom_exists(g1, g2):
    target = set(g2.edges)
    for assign in itertools.product(range(g2.num_vertices), repeat=g1.num_vertices):
        if all(
            assign[a] != assign[b] and (min(assign[a], assign[b]), max(assign[a], assign[b])) in target
            for a, b in g1.edges
        ):
            return True
    return False


@pytest.mark.parametrize("seed", range(30))
def test_chromatic_number_matches_brute_force(seed):
    import random

    rng = random.Random(seed)
    n = rng.randint(1, 7)
    edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.5]
    g = UGraph.from_edges(n, edges)
    res = chromatic_number(g)
    assert res.exact and coloring_ok(g, res.coloring)
    assert res.chi == _brute_chi(g)


@given(st.integers(1, 8), st.integers(0, 2**28 - 1), st.integers(0, 2**9 - 1))
@settings(max_examples=150, deadline=None)
def test_chromatic_number_tests_only_the_needed_counts(n, bits, needed_bits):
    # lo rises only past a refuted count and hi is the coloring's own count,
    # so the bracket holds chi and no needed count lies inside [lo, hi)
    g = _random_graph(n, bits)
    res = chromatic_number(g, needed=lambda k: needed_bits >> k & 1)
    chi = _brute_chi(g)
    assert res.lo <= chi <= res.hi
    assert coloring_ok(g, res.coloring)
    assert len(set(res.coloring.values())) == res.hi
    assert not any(needed_bits >> k & 1 for k in range(res.lo, res.hi))
    # needing every count is the default: the same search, node for node
    assert chromatic_number(g, needed=lambda k: True) == chromatic_number(g)


def _random_pair(seed, sizes1, sizes2, p1, p2):
    rng = random.Random(seed)
    n1, n2 = rng.randint(*sizes1), rng.randint(*sizes2)
    g1 = UGraph.from_edges(n1, [(a, b) for a in range(n1) for b in range(a + 1, n1) if rng.random() < p1])
    g2 = UGraph.from_edges(n2, [(a, b) for a in range(n2) for b in range(a + 1, n2) if rng.random() < p2])
    return g1, g2


@pytest.mark.parametrize("seed", range(30))
def test_homomorphism_matches_brute_force(seed):
    g1, g2 = _random_pair(seed, (1, 5), (1, 4), 0.5, 0.6)
    phi = find_homomorphism(g1, g2)
    assert (phi is not None) == _brute_hom_exists(g1, g2)
    if phi is not None:
        assert homomorphism_ok(g1, g2, phi)


# The maps find_homomorphism returned when its vertex order was computed on
# sets of neighbours, image of vertex 0 first; None where there is none.
# The order is now computed on the adjacency masks, with the same key, so
# the search tree and the first map it reaches are the same.
SMALL_PAIR_MAPS = [
    (0, 1, 0, 1), None, (0,), None, (0, 1), (0, 0, 0, 1, 1), None, (0, 1, 1), (0, 0), None,
    None, (0, 1, 0, 2), None, (0, 0, 0), (0,), (0, 0), (0, 1, 3), (0, 0, 0, 1, 1), (0, 0), (0,),
    (0, 0), (0, 0), None, None, None, None, (0, 1), None, (0,), None,
]
LARGER_PAIR_MAPS = [
    (4, 3, 3, 2, 3, 4, 5, 5, 2, 4, 3, 2), None, (1, 4, 0, 0, 1, 4, 1, 0, 1, 0),
    (0, 2, 0, 1, 0, 2, 2, 0, 1), (1, 0, 1, 1, 2, 2, 2, 0, 3), (0, 2, 3, 2, 2, 2, 2, 6, 3), None,
    (0, 3, 0, 2, 0, 1, 1, 1, 0, 3, 0, 2), (2, 0, 2, 4, 0, 3, 2, 4, 3, 4), (1, 0, 0, 0, 1, 3, 1),
    (2, 5, 7, 7, 2, 4, 1, 7, 5, 2, 7), (0, 3, 3, 0, 3, 3, 0, 5), None, (0, 0, 3, 4, 0, 2, 2, 2, 3),
    None, (0, 0, 2, 0, 0, 0), (0, 1, 0, 1, 1, 3, 0, 5), None, (2, 2, 4, 0, 0, 2, 4, 2, 0),
    (1, 0, 1, 0, 4, 0),
]


def _as_images(phi):
    return None if phi is None else tuple(phi[v] for v in range(len(phi)))


def test_homomorphisms_are_the_pinned_maps():
    for seed, expected in enumerate(SMALL_PAIR_MAPS):
        g1, g2 = _random_pair(seed, (1, 5), (1, 4), 0.5, 0.6)
        assert _as_images(find_homomorphism(g1, g2)) == expected, seed
    # 6 to 12 vertices into 4 to 8, mostly into graphs that are not complete,
    # so the vertex order decides which map is found first
    for seed, expected in enumerate(LARGER_PAIR_MAPS):
        g1, g2 = _random_pair(1000 + seed, (6, 12), (4, 8), 0.35, 0.6)
        phi = find_homomorphism(g1, g2, budget=10**5)
        assert _as_images(phi) == expected, seed
        if phi is not None:
            assert homomorphism_ok(g1, g2, phi)


def _outcome(search, g1, g2, budget):
    """(the map as (vertex, image) pairs in its order, or None) or the stop."""
    try:
        phi = search(g1, g2, budget)
    except BudgetExhausted as exc:
        return str(exc), exc.nodes_used
    return None if phi is None else list(phi.items())


@given(
    st.integers(1, 9), st.integers(0, 2**36 - 1), st.integers(3, 7), st.integers(0, 2**21 - 1),
    st.sampled_from([DEFAULT_BUDGET, 10**4, 40, 7]),
)
@settings(max_examples=300, deadline=None)
def test_homomorphism_walks_the_reference_tree(n1, bits1, n2, bits2, budget):
    # drawn targets are mostly neither complete nor the source itself, so
    # the general search runs: the walker reaches the reference loop's
    # map, in its order, or stops where it stops
    g1, g2 = _random_graph(n1, bits1), _random_graph(n2, bits2)
    expected = _outcome(reference_searches.find_homomorphism, g1, g2, budget)
    assert _outcome(find_homomorphism, g1, g2, budget) == expected


def _is_clique(g, vertices):
    return all(g.masks[a] >> b & 1 for a, b in itertools.combinations(vertices, 2))


@given(st.integers(0, 24), st.integers(0, 2**276 - 1), st.data())
@settings(max_examples=150, deadline=None)
def test_max_clique_walks_the_reference_tree(n, bits, data):
    # the walker spends one node per vertex tried and one on the root, the
    # reference loop one per node: the same count, so every budget stops
    # both or neither.  A stopped walk keeps the longest clique it
    # reached, never shorter than the reference's best leaf
    g = _random_graph(n, bits)
    _, completed, nodes = reference_searches.max_clique(g)
    assert completed
    drawn = data.draw(st.integers(1, nodes))
    for budget in sorted({b for b in (1, drawn, nodes - 1, nodes) if b >= 1}):
        clique, completed = max_clique(g, budget=budget)
        expected, expected_completed, used = reference_searches.max_clique(g, budget=budget)
        assert completed == expected_completed == (budget == nodes)
        assert used == budget
        if completed:
            assert clique == expected
        else:
            assert _is_clique(g, clique) and len(clique) >= len(expected)


# ---------------------------------------------------------------------------
# the bit-parallel kernels against the scan-based code they replaced
# ---------------------------------------------------------------------------

def _build_qkneser_oracle(q, n, m):
    from netgap.gf import field_of_order
    from netgap.subspaces import enumerate_subspaces

    verts = enumerate_subspaces(field_of_order(q), n, m)
    edges = [
        (i, j)
        for i in range(len(verts))
        for j in range(i + 1, len(verts))
        if sum_dim([verts[i], verts[j]]) == 2 * m
    ]
    return UGraph.from_edges(len(verts), edges, labels=tuple(verts))


def _bits(mask):
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def _neighbour_sets(g):
    """Each vertex's neighbours as a set, read off the edge list: the
    set-based adjacency the oracles below run on."""
    adj = [set() for _ in range(g.num_vertices)]
    for a, b in g.edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def _max_clique_oracle(g, budget=DEFAULT_BUDGET):
    """Scan-based branch and bound: picks the earliest candidate by min()."""
    n = g.num_vertices
    adj = [0] * n
    for a, b in g.edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    order = sorted(range(n), key=lambda v: (-bin(adj[v]).count("1"), v))
    pos = {v: i for i, v in enumerate(order)}
    best = []
    bud = Budget(budget)

    def expand(current, candidates):
        nonlocal best
        bud.spend("clique")
        if not candidates:
            if len(current) > len(best):
                best = list(current)
            return
        while candidates:
            if len(current) + bin(candidates).count("1") <= len(best):
                return
            v = min(_bits(candidates), key=lambda v: pos[v])
            candidates &= ~(1 << v)
            expand(current + [v], candidates & adj[v])

    try:
        expand([], (1 << n) - 1)
        return tuple(sorted(best)), True
    except BudgetExhausted:
        return tuple(sorted(best)), False


def _k_colorable_oracle(adj, k, pinned, bud):
    """Scan-based DSATUR: an O(n) pick per node and per-neighbour color counts."""
    n = len(adj)
    if len(pinned) > k:
        return None
    color = [-1] * n
    forbid = [0] * n
    counts = [[0] * k for _ in range(n)]
    degree = [len(a) for a in adj]
    kmask = (1 << k) - 1

    def assign(v, c):
        color[v] = c
        for u in adj[v]:
            counts[u][c] += 1
            if counts[u][c] == 1:
                forbid[u] |= 1 << c

    def unassign(v, c):
        color[v] = -1
        for u in adj[v]:
            counts[u][c] -= 1
            if counts[u][c] == 0:
                forbid[u] &= ~(1 << c)

    for i, v in enumerate(pinned):
        if forbid[v] & (1 << i):
            return None
        assign(v, i)

    def search(remaining, max_used):
        if remaining == 0:
            return True
        best_v, best_key = -1, None
        for v in range(n):
            if color[v] == -1:
                sat = bin(forbid[v] & kmask).count("1")
                key = (-sat, -degree[v], v)
                if best_key is None or key < best_key:
                    best_v, best_key = v, key
        v = best_v
        cap = min(k - 1, max_used + 1)
        allowed = ~forbid[v] & ((1 << (cap + 1)) - 1)
        for c in _bits(allowed):
            bud.spend("coloring")
            assign(v, c)
            if search(remaining - 1, max(max_used, c)):
                return True
            unassign(v, c)
        return False

    if search(n - len(pinned), len(pinned) - 1):
        return {v: color[v] for v in range(n)}
    return None


def _random_graph(n, density_bits):
    pairs = list(itertools.combinations(range(n), 2))
    return UGraph.from_edges(n, [p for i, p in enumerate(pairs) if density_bits >> i & 1])


@pytest.mark.parametrize("q,n,m", [(2, 2, 1), (2, 3, 1), (2, 4, 2), (3, 4, 2), (2, 5, 2), (4, 2, 1)])
def test_build_qkneser_matches_sum_dim_oracle(q, n, m):
    assert build_qkneser(q, n, m) == _build_qkneser_oracle(q, n, m)


@pytest.mark.parametrize("q,t,h", [(2, 1, 2), (2, 2, 2), (2, 1, 3), (3, 1, 3), (4, 1, 3), (2, 1, 4)])
def test_direct_sum_sets_of_qkneser_vertices_match_sum_dim_oracle(q, t, h):
    verts, hyperedges = _direct_sum_sets(q, t, h)
    expected = [
        subset
        for subset in itertools.combinations(range(len(verts)), h)
        if sum_dim([verts[i] for i in subset]) == h * t
    ]
    assert hyperedges == expected


def _brute_clique_number(g):
    edge_set = set(g.edges)
    for size in range(g.num_vertices, 0, -1):
        for subset in itertools.combinations(range(g.num_vertices), size):
            if all(pair in edge_set for pair in itertools.combinations(subset, 2)):
                return size
    return 0


def _colour_bound_clique_oracle(g, budget=DEFAULT_BUDGET):
    """Colour-bounded branch and bound on sorted lists of positions in the
    static order (-degree, v), branching on the lowest position first."""
    n = g.num_vertices
    nbrs = _neighbour_sets(g)
    order = sorted(range(n), key=lambda v: (-len(nbrs[v]), v))
    pos = {v: i for i, v in enumerate(order)}
    adj = [{pos[u] for u in nbrs[v]} for v in order]
    best = []
    bud = Budget(budget)

    def colour_tops(candidates):
        # greedy classes from the highest position down; the top of each
        tops = []
        uncoloured = sorted(candidates, reverse=True)
        while uncoloured:
            cls, rest = [], []
            for u in uncoloured:
                if all(u not in adj[w] for w in cls):
                    cls.append(u)
                else:
                    rest.append(u)
            tops.append(cls[0])
            uncoloured = rest
        return tops

    def expand(current, candidates):
        nonlocal best
        bud.spend("clique")
        if not candidates:
            if len(current) > len(best):
                best = list(current)
            return
        tops = colour_tops(candidates)
        for i, v in enumerate(candidates):
            # at most one clique vertex per class with a top at or above v
            bound = sum(1 for top in tops if top >= v)
            if len(current) + bound <= len(best):
                return
            expand(current + [v], [u for u in candidates[i + 1 :] if u in adj[v]])

    try:
        expand([], list(range(n)))
        completed = True
    except BudgetExhausted:
        completed = False
    return tuple(sorted(order[v] for v in best)), completed


@given(st.integers(0, 12), st.integers(0, 2**66 - 1), st.integers(1, 40))
@settings(max_examples=150, deadline=None)
def test_max_clique_matches_brute_force_and_scan_oracle(n, bits, budget):
    g = _random_graph(n, bits)
    clique, complete = max_clique(g)
    assert complete and len(clique) == _brute_clique_number(g)
    assert all(pair in set(g.edges) for pair in itertools.combinations(clique, 2))
    # the colour bound only cuts branches that cannot beat the best clique,
    # so a complete run returns the popcount-bounded search's clique
    assert (clique, complete) == _max_clique_oracle(g)
    # the same search tree as the colour-bound oracle: a node budget stops
    # both or neither.  A stopped walk keeps the longest clique it reached,
    # a prefix of its branch, never shorter than the oracle's best leaf
    stopped, completed = max_clique(g, budget=budget)
    oracle, oracle_completed = _colour_bound_clique_oracle(g, budget=budget)
    assert completed == oracle_completed
    if completed:
        assert stopped == oracle
    else:
        assert _is_clique(g, stopped) and len(stopped) >= len(oracle)
    # and a subtree of the popcount-bounded one: it ends within its budget
    if _max_clique_oracle(g, budget=budget)[1]:
        assert max_clique(g, budget=budget)[1]


@given(st.integers(0, 24), st.integers(0, 2**276 - 1))
@settings(max_examples=100, deadline=None)
def test_colour_bound_oracle_matches_brute_force(n, bits):
    g = _random_graph(n, bits)
    clique, complete = _colour_bound_clique_oracle(g)
    assert complete and (clique, complete) == max_clique(g)
    if n <= 12:
        assert len(clique) == _brute_clique_number(g)


def _greedy_coloring_oracle(g):
    """Set-based DSATUR greedy: an O(n) pick by min() per vertex."""
    n = g.num_vertices
    adj = _neighbour_sets(g)
    color = {}
    forbid = [set() for _ in range(n)]
    degree = [len(adj[v]) for v in range(n)]
    for _ in range(n):
        v = min(
            (u for u in range(n) if u not in color),
            key=lambda u: (-len(forbid[u]), -degree[u], u),
        )
        c = 0
        while c in forbid[v]:
            c += 1
        color[v] = c
        for u in adj[v]:
            forbid[u].add(c)
    return color


@given(st.integers(0, 24), st.integers(0, 2**276 - 1))
@settings(max_examples=150, deadline=None)
def test_greedy_coloring_matches_set_oracle(n, bits):
    g = _random_graph(n, bits)
    coloring = greedy_coloring(g)
    # the same picks in the same order, hence the same certificate listing
    assert list(coloring.items()) == list(_greedy_coloring_oracle(g).items())
    assert coloring_ok(g, coloring)


def test_greedy_coloring_matches_set_oracle_on_qkneser():
    for args in [(2, 4, 2), (3, 4, 2), (2, 5, 2)]:
        g = build_qkneser(*args)
        assert list(greedy_coloring(g).items()) == list(_greedy_coloring_oracle(g).items())


def _compare_colorable(g, k, pinned, budget=DEFAULT_BUDGET):
    new_bud, old_bud = Budget(budget), Budget(budget)
    outcomes = []
    for fn, adj, bud in (
        (_dsatur, degree_order(g.masks), new_bud),
        (_k_colorable_oracle, [sorted(s) for s in _neighbour_sets(g)], old_bud),
    ):
        try:
            outcomes.append(fn(adj, k, pinned, bud))
        except BudgetExhausted:
            outcomes.append("exhausted")
    assert outcomes[0] == outcomes[1]
    assert new_bud.used == old_bud.used
    return outcomes[0], new_bud.used


@given(st.integers(1, 14), st.integers(0, 2**91 - 1), st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_k_colorable_matches_scan_dsatur(n, bits, extra):
    g = _random_graph(n, bits)
    clique, _ = max_clique(g)
    for k in range(max(len(clique) - 1, 0), len(clique) + extra + 1):
        found, used = _compare_colorable(g, k, clique)
        if found is not None:
            assert coloring_ok(g, found)
        if used > 1:
            _compare_colorable(g, k, clique, budget=used // 2)


def test_k_colorable_matches_scan_dsatur_on_qkneser():
    g = build_qkneser(2, 4, 2)
    clique, _ = max_clique(g)
    assert _compare_colorable(g, 5, clique) == (None, 100)
    found, _ = _compare_colorable(g, 6, clique)
    assert coloring_ok(g, found)
    assert _compare_colorable(g, 5, clique[:1])[0] is None
    assert _compare_colorable(g, 5, clique, budget=40)[0] == "exhausted"


@given(st.integers(0, 16), st.integers(0, 2**120 - 1))
@settings(max_examples=100, deadline=None)
def test_greedy_coloring_is_the_first_dive_of_the_search(n, bits):
    # with as many colors as vertices a free color always exists, so the
    # search never backtracks: one node per vertex, the greedy picks in order
    g = _random_graph(n, bits)
    bud = Budget(DEFAULT_BUDGET)
    found = _dsatur(degree_order(g.masks), n, (), bud)
    assert list(found.items()) == list(greedy_coloring(g).items())
    assert bud.used == n


def test_search_lists_the_pinned_clique_first():
    g = build_qkneser(2, 4, 2)
    clique, _ = max_clique(g)
    found = _dsatur(degree_order(g.masks), 6, clique, Budget(DEFAULT_BUDGET))
    assert list(found.items())[: len(clique)] == [(v, c) for c, v in enumerate(clique)]
    assert coloring_ok(g, found)


def test_static_order_is_built_once_and_left_out_of_equality():
    g = build_qkneser(2, 4, 2)
    assert g.static_order is g.static_order
    assert g.static_order == degree_order(g.masks)
    assert g == UGraph.from_edges(g.num_vertices, g.edges, g.labels)


def _degree_order_by_strings(adj):
    """`degree_order` as it was: every mask's n-character binary string
    permuted, O(n) per mask however sparse the graph."""
    n = len(adj)
    order = sorted(range(n), key=lambda v: (-adj[v].bit_count(), v))
    if not n:
        return order, []
    width = f"0{n}b"
    pick = operator.itemgetter(*[n - 1 - v for v in reversed(order)])
    return order, [int("".join(pick(format(adj[v], width))), 2) for v in order]


@pytest.mark.parametrize("seed", range(12))
def test_degree_order_matches_the_string_permutation_on_random_graphs(seed):
    # densities from empty to complete, sizes from 0 to a q-Kneser graph's
    rng = random.Random(seed)
    n = rng.choice([0, 1, 2, 7, 40, 130])
    p = rng.choice([0.0, 0.02, 0.1, 0.3, 0.7, 1.0])
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
    adj = UGraph.from_edges(n, pairs).masks
    assert degree_order(adj) == _degree_order_by_strings(adj)


@pytest.mark.parametrize("params", [(2, 4, 2), (3, 4, 2), (2, 5, 2), (2, 6, 3)])
def test_degree_order_matches_the_string_permutation_on_qkneser_graphs(params):
    adj = build_qkneser(*params).masks
    assert degree_order(adj) == _degree_order_by_strings(adj)


def test_degree_order_of_a_long_path_sets_bits_one_by_one():
    # the string permutation takes O(n^2) characters here (0.3-0.6 s at
    # n = 3000); the relabelling must follow the edges instead
    n = 3000
    adj = _path(n).masks
    start = time.perf_counter()
    order, masks = degree_order(adj)
    assert time.perf_counter() - start < 0.2
    position = {v: i for i, v in enumerate(order)}
    assert [m.bit_count() for m in masks] == [len(_path_neighbours(v, n)) for v in order]
    assert all(
        masks[i] >> position[u] & 1 for i, v in enumerate(order) for u in _path_neighbours(v, n)
    )


def _path(n):
    return UGraph.from_edges(n, [(v, v + 1) for v in range(n - 1)])


def _path_neighbours(v, n):
    return [u for u in (v - 1, v + 1) if 0 <= u < n]


def _cycle(n):
    return UGraph.from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def test_chromatic_number_of_a_long_odd_cycle():
    # refuting 2 colors colors every vertex on one branch: deeper than the
    # interpreter's recursion limit, so only a search without recursion ends
    cycle = _cycle(1201)
    res = chromatic_number(cycle)
    assert res.exact and res.chi == 3
    assert coloring_ok(cycle, res.coloring)


def test_homomorphism_of_a_long_odd_cycle_into_complete_graphs():
    cycle = _cycle(1201)
    phi = find_homomorphism(cycle, complete_graph(3))
    assert phi is not None and homomorphism_ok(cycle, complete_graph(3), phi)
    assert find_homomorphism(cycle, complete_graph(2)) is None


def test_max_clique_larger_than_the_recursion_limit():
    # K_1100 minus the edge 01: the search goes one level per clique vertex
    n = 1100
    full = (1 << n) - 1
    masks = [full ^ (1 << v) for v in range(n)]
    masks[0] ^= 1 << 1
    masks[1] ^= 1 << 0
    g = UGraph(n, tuple(masks))
    clique, completed = max_clique(g)
    assert completed and len(clique) == n - 1 and not {0, 1} <= set(clique)


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
def test_max_clique_propagates_an_outside_budget_exhausted():
    # qK_{6:3} over F_2: 1395 vertices; a 10^6-node clique search takes
    # seconds.  A BudgetExhausted from a wall-clock alarm is not the search's
    # own budget running out and must end the search at once.
    g = build_qkneser(2, 6, 3)

    def on_alarm(signum, frame):
        raise BudgetExhausted("wall-clock timeout")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    start = time.monotonic()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.2)
        with pytest.raises(BudgetExhausted, match="wall-clock"):
            max_clique(g, budget=10**6)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < 1.0


@given(st.integers(0, 16), st.integers(0, 2**120 - 1))
@settings(max_examples=150, deadline=None)
def test_greedy_clique_is_the_first_dive_of_the_clique_search(n, bits):
    # a maximal clique: every pair adjacent, no vertex outside adjacent to
    # all of it; and the first leaf of max_clique, which the root and one
    # node per member reach before any other node is spent
    g = _random_graph(n, bits)
    clique = greedy_clique(g)
    edges = set(g.edges)
    assert list(clique) == sorted(set(clique))
    assert all(pair in edges for pair in itertools.combinations(clique, 2))
    adj = _neighbour_sets(g)
    assert not any(
        v not in clique and all(u in adj[v] for u in clique) for v in range(n)
    )
    assert max_clique(g, budget=len(clique) + 1)[0] == clique


@pytest.mark.parametrize(
    "graph",
    [
        lambda: build_qkneser(2, 4, 2),
        lambda: build_qkneser(3, 4, 2),
        lambda: skeleton(build_kneser(2, 2, 2)).graph,
        lambda: skeleton(build_kneser(3, 2, 2)).graph,
    ],
    ids=["2K42", "3K42", "skeleton-K222", "skeleton-K322"],
)
def test_greedy_clique_is_the_maximum_clique_on_the_kneser_ladder(graph):
    # the colour-bounded search finds its maximum on the first dive here and
    # spends the rest of its nodes proving it; the dive alone gives it
    g = graph()
    clique, complete = max_clique(g)
    assert complete and greedy_clique(g) == clique


@pytest.mark.parametrize(("q", "n", "m", "bound"), [(4, 4, 2, 17), (2, 6, 2, 21)])
def test_greedy_clique_meets_the_partial_spread_bound(q, n, m, bound):
    # pairwise trivially intersecting m-subspaces have disjoint nonzero
    # vectors, so a clique of qK_{n:m} has at most (q^n - 1) / (q^m - 1)
    # members; the dive reaches that ceiling, so the clique is maximum
    assert (q**n - 1) // (q**m - 1) == bound
    g = build_qkneser(q, n, m)
    clique = greedy_clique(g)
    assert len(clique) == bound
    assert all(sum_dim([g.labels[a], g.labels[b]]) == 2 * m for a, b in itertools.combinations(clique, 2))


@given(st.integers(1, 8), st.integers(0, 2**28 - 1), st.integers(0, 2**9 - 1))
@settings(max_examples=150, deadline=None)
def test_chromatic_number_from_a_greedy_clique_matches_brute_force(n, bits, needed_bits):
    # lo starts at the greedy clique, which may be smaller than the maximum;
    # with every count needed chi is exact, with some the bracket holds it
    g = _random_graph(n, bits)
    chi = _brute_chi(g)
    res = chromatic_number(g)
    assert res.exact and res.chi == chi and coloring_ok(g, res.coloring)
    edges = set(g.edges)
    assert all(pair in edges for pair in itertools.combinations(res.clique, 2))
    assert len(res.clique) <= chi
    some = chromatic_number(g, needed=lambda k: needed_bits >> k & 1)
    assert some.lo <= chi <= some.hi and coloring_ok(g, some.coloring)
