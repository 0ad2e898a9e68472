"""The one search budget: node limits and the cooperative wall-clock deadline."""

import itertools
import types

import pytest

from netgap import errors, gf, qkneser
from netgap.errors import Budget, BudgetExhausted, deadline
from netgap.gf import field_of_order
from netgap.graphs import UGraph, complete_graph, ugraph_from_json
from netgap.lincode import search_solution
from netgap.mdsic import ic_exists_of_size, ic_is_valid, ic_max_size
from netgap.networks import (
    Edge,
    Network,
    build_combination,
    build_kneser,
    essential_nodes,
    is_minimal,
    is_solvable,
    is_subcombination,
    min_cut,
    network_from_json,
    network_to_json,
    topological_order,
)
from netgap.qkneser import (
    build_qkneser,
    chromatic_number,
    find_homomorphism,
    greedy_coloring,
    max_clique,
)
from netgap.skeleton import skeleton
from netgap.subspaces import DirectSumIndex, enumerate_subspaces

from certified import coloring_ok

# a deadline already in the past when the block is entered
EXPIRED = -1.0

# the deadline is read before every 1024th node, so an expired one stops a
# search after exactly this many nodes
FIRST_CHECKPOINT = 1023


def test_node_limit_counts_every_node():
    bud = Budget(3)
    for _ in range(3):
        bud.spend()
    with pytest.raises(BudgetExhausted, match="coloring budget exhausted") as exc:
        bud.spend("coloring")
    assert exc.value.nodes_used == 3 and bud.used == 3 and bud.out_of_nodes


def test_expired_deadline_stops_at_the_first_checkpoint():
    bud = Budget(10**9)
    with deadline(EXPIRED):
        with pytest.raises(BudgetExhausted, match="wall-clock") as exc:
            for _ in range(2048):
                bud.spend()
    assert exc.value.nodes_used == FIRST_CHECKPOINT and not bud.out_of_nodes


def test_no_deadline_outside_the_block():
    with deadline(EXPIRED):
        assert errors._deadline is not None
    assert errors._deadline is None
    with pytest.raises(RuntimeError):
        with deadline(EXPIRED):
            raise RuntimeError("leaves the block")
    assert errors._deadline is None
    bud = Budget(4096)
    for _ in range(4096):
        bud.spend()


def test_zero_or_none_sets_no_deadline():
    for seconds in (None, 0):
        with deadline(seconds):
            assert errors._deadline is None


def test_max_clique_stops_at_an_expired_deadline():
    # 3K_{4:2}: a complete clique search takes 8,442 nodes
    g = build_qkneser(3, 4, 2)
    with deadline(EXPIRED), pytest.raises(BudgetExhausted, match="wall-clock") as exc:
        max_clique(g)
    assert exc.value.nodes_used == FIRST_CHECKPOINT


def test_search_solution_stops_at_an_expired_deadline():
    # the (2,2) search on N_{2,6,2} is negative and takes far more nodes
    with deadline(EXPIRED), pytest.raises(BudgetExhausted, match="wall-clock") as exc:
        search_solution(build_combination(2, 6, 2), 2, 2)
    assert exc.value.nodes_used == FIRST_CHECKPOINT


def test_ic_searches_stop_at_an_expired_deadline():
    # the exhaustive (1;4,3)_3 search takes 50,129 nodes (maximum 10, bound
    # 14; 58,130 while a value the bound cuts was charged), so both searches
    # pass the first checkpoint
    with deadline(EXPIRED):
        result = ic_max_size(3, 1, 4, 3)
    assert not result.exact and result.nodes_used == FIRST_CHECKPOINT
    assert result.size < result.bound
    with deadline(EXPIRED), pytest.raises(BudgetExhausted):
        ic_exists_of_size(3, 1, 4, 3, 11)


def _cycle(n):
    return UGraph.from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def test_find_homomorphism_stops_with_its_own_label():
    # C5 has no homomorphism into a longer odd cycle, and the general
    # search needs more than 3 nodes to say so
    with pytest.raises(BudgetExhausted, match="^homomorphism budget exhausted$") as exc:
        find_homomorphism(_cycle(5), _cycle(7), budget=3)
    assert exc.value.nodes_used == 3
    assert find_homomorphism(_cycle(5), _cycle(7)) is None
    # into C101 the search outlasts the first checkpoint; the clique search
    # of the target ends before it
    assert find_homomorphism(_cycle(5), _cycle(101)) is None
    with deadline(EXPIRED), pytest.raises(BudgetExhausted, match="^wall-clock timeout$") as exc:
        find_homomorphism(_cycle(5), _cycle(101))
    assert exc.value.nodes_used == FIRST_CHECKPOINT


def test_ic_search_stopped_by_its_budget_keeps_the_longest_prefix():
    # (1;4,3)_3 has maximum 10 in 50,129 nodes; 100 nodes reach a 10-member
    # configuration without the proof that no larger one exists
    result = ic_max_size(3, 1, 4, 3, budget=100)
    assert (result.size, result.exact, result.nodes_used) == (10, False, 100)
    assert ic_is_valid(result.witness, 3)


def _mycielski(g):
    n = g.num_vertices
    edges = list(g.edges)
    for a, b in g.edges:
        edges += [(a, n + b), (b, n + a)]
    edges += [(n + v, 2 * n) for v in range(n)]
    return UGraph.from_edges(2 * n + 1, edges)


def _mycielski_6():
    # triangle-free with chi = 6: the clique search is short, the coloring
    # search long (about 450k nodes)
    g = UGraph.from_edges(2, [(0, 1)])
    for _ in range(4):
        g = _mycielski(g)
    return g


@pytest.mark.parametrize(
    "target", [lambda: complete_graph(5), lambda: build_qkneser(2, 4, 2)], ids=["K5", "2K42"]
)
def test_find_homomorphism_stops_at_an_expired_deadline(target):
    # both the coloring route (complete target) and the general search
    # outlast the first checkpoint; their clique searches end before it
    with deadline(EXPIRED), pytest.raises(BudgetExhausted, match="wall-clock") as exc:
        find_homomorphism(_mycielski_6(), target())
    assert exc.value.nodes_used == FIRST_CHECKPOINT


def test_chromatic_number_past_the_deadline_raises_or_brackets():
    # a 2000-vertex path: the deadline ends the greedy coloring, so there is
    # no upper bound and it raises
    path = UGraph.from_edges(2000, [(v, v + 1) for v in range(1999)])
    with deadline(EXPIRED), pytest.raises(BudgetExhausted, match="wall-clock"):
        chromatic_number(path)
    # 3K_{4:2}: the clique dive (10 nodes) and the greedy coloring (130)
    # pass no checkpoint, so the deadline ends the coloring search on 10
    # colors (1,207 nodes) and leaves the bracket they give
    g = build_qkneser(3, 4, 2)
    with deadline(EXPIRED):
        res = chromatic_number(g)
    assert (res.lo, res.hi, res.nodes_used) == (10, 12, FIRST_CHECKPOINT)
    assert len(res.clique) == 10 and coloring_ok(g, res.coloring)
    # M6: the deadline ends the coloring search after 2 and 3 colors are refuted
    with deadline(EXPIRED):
        res = chromatic_number(_mycielski_6())
    assert not res.exact and (res.lo, res.hi) == (4, 6)
    assert res.nodes_used == FIRST_CHECKPOINT


def test_qkneser_edge_listing_spends_nothing_past_the_deadline(monkeypatch):
    # qK_{6:3} over F_2: 1395 vertices of degree 512.  Its subspaces and
    # their masks are made before the deadline, and the graph is its masks,
    # so neither building it nor listing its edges for a writer can stop
    fld = field_of_order(2)
    verts = enumerate_subspaces(fld, 6, 3)
    masks = DirectSumIndex(verts).pair_masks()
    monkeypatch.setattr(qkneser, "enumerate_subspaces", lambda *args, **kw: verts)
    monkeypatch.setattr(
        qkneser, "DirectSumIndex", lambda spaces: types.SimpleNamespace(pair_masks=lambda: masks)
    )
    with deadline(EXPIRED):
        g = build_qkneser(2, 6, 3)
        assert g.masks == tuple(masks) and len(g.edges) == 1395 * 512 // 2


def test_complete_graph_spends_nothing_past_the_deadline():
    # K_50 has 1225 edges, past the first checkpoint, and K_45 990
    for n, edges in ((50, 1225), (45, 990)):
        full = (1 << n) - 1
        masks = tuple(full ^ (1 << v) for v in range(n))
        with deadline(EXPIRED):
            g = UGraph(n, masks)
            assert g == complete_graph(n) and len(g.edges) == edges


@pytest.mark.parametrize("limit", [5, 1023, 1024, 1500, 3000])
@pytest.mark.parametrize("expired", [False, True])
def test_a_bulk_spend_is_the_same_as_single_spends(limit, expired):
    # the same limit and node count, and the deadline read at the first
    # checkpoint a bulk crosses
    def outcome(spend_rows):
        bud = Budget(limit)
        with deadline(EXPIRED if expired else None):
            try:
                spend_rows(bud)
            except BudgetExhausted as exc:
                return bud.used, exc.nodes_used, bud.out_of_nodes
        return bud.used, None, bud.out_of_nodes

    for rows in ([0, 3, 1020, 1, 500], [1023, 1, 1], [1024], [700, 700, 700, 700], [2999, 2]):

        def single(bud):
            for count in rows:
                for _ in range(count):
                    bud.spend()

        def bulk(bud):
            for count in rows:
                bud.spend_many(count)

        def each(bud):
            for count in rows:
                for _ in bud.each(range(count)):
                    pass

        assert outcome(bulk) == outcome(single) == outcome(each), rows


def test_each_reads_the_deadline_where_single_spends_would(monkeypatch):
    # the items before a checkpoint are yielded before the deadline is read
    # there, and a walk reads the clock as often as a spend per item would
    seen = []
    with deadline(EXPIRED), pytest.raises(BudgetExhausted, match="wall-clock") as exc:
        for item in Budget().each(range(5000)):
            seen.append(item)
    assert exc.value.nodes_used == FIRST_CHECKPOINT and seen == list(range(FIRST_CHECKPOINT))
    reads = []
    monkeypatch.setattr(errors, "time", types.SimpleNamespace(monotonic=lambda: reads.append(1) or 0))
    single = lambda bud: [bud.spend() for _ in range(5000)]  # noqa: E731
    for walk in (single, lambda bud: list(bud.each(range(5000)))):
        reads.clear()
        with deadline(10**9):
            walk(Budget())
        assert len(reads) == 1 + 4  # the deadline's start, then 1023, 2047, 3071 and 4095


def test_flow_solver_set_up_stops_at_an_expired_deadline():
    # a single path of 1100 edges: building the edge index the flow solver
    # reads passes the first checkpoint before any flow is pushed
    nodes = ("s", *(f"v{i}" for i in range(1, 1100)), "t")
    edges = tuple(Edge(f"e{i}", a, b) for i, (a, b) in enumerate(zip(nodes, nodes[1:])))
    net = Network.from_edges(h=1, source="s", terminals=("t",), nodes=nodes, edges=edges)
    with deadline(EXPIRED), pytest.raises(BudgetExhausted, match="wall-clock") as exc:
        min_cut(net, "t")
    assert exc.value.nodes_used == FIRST_CHECKPOINT
    assert min_cut(net, "t") == 1
    # N_{2,12,3}: 672 edges, no checkpoint is reached
    with deadline(EXPIRED):
        assert min_cut(build_combination(2, 12, 3), "t0_1_2") == 3


def test_enumeration_stops_at_an_expired_deadline():
    fld = field_of_order(2)
    # 1395 subspaces: the checkpoint before the 1024th one fires
    with deadline(EXPIRED), pytest.raises(BudgetExhausted, match="wall-clock"):
        enumerate_subspaces(fld, 6, 3)
    # 155 subspaces: no checkpoint is reached
    with deadline(EXPIRED):
        assert len(enumerate_subspaces(fld, 5, 2)) == 155


def test_element_tables_stop_at_an_expired_deadline_and_cache_nothing(monkeypatch):
    # 3 * 1031 entries per row: the first row crosses a checkpoint
    monkeypatch.setattr(gf, "_ELEMENT_TABLE_CACHE", {})
    fld = field_of_order(1031)
    with deadline(EXPIRED), pytest.raises(BudgetExhausted, match="wall-clock"):
        gf.element_tables(fld)
    assert gf._ELEMENT_TABLE_CACHE == {}
    # F_7's 147 entries reach no checkpoint
    with deadline(EXPIRED):
        add, neg_mul, scale = gf.element_tables(field_of_order(7))
    assert add[3][5] == 1 and neg_mul[2][3] == 1 and scale[3][6] == 2
    assert list(gf._ELEMENT_TABLE_CACHE) == [field_of_order(7)]


def test_kneser_network_construction_stops_at_an_expired_deadline():
    # K_{2,2;2}: 35 middles (no checkpoint while listing them or their 140
    # vectors), then 595 candidate terminals, spent row by row off the pair
    # masks, and 560 terminal edges
    with deadline(EXPIRED), pytest.raises(BudgetExhausted, match="wall-clock"):
        build_kneser(2, 2, 2)
    assert len(build_kneser(2, 2, 2).terminals) == 280


def test_direct_sum_masks_stop_at_an_expired_deadline():
    # 130 planes of F_3^4 with 8 nonzero vectors each: the index is built
    # first, and the masks alone OR 1040 vectors, past the first checkpoint
    index = DirectSumIndex(enumerate_subspaces(field_of_order(3), 4, 2))
    with deadline(EXPIRED), pytest.raises(BudgetExhausted, match="wall-clock") as exc:
        index.pair_masks()
    assert exc.value.nodes_used == FIRST_CHECKPOINT
    assert len(index.pair_masks()) == 130
    # 40 lines of F_3^4 with 2 nonzero vectors each: no checkpoint is reached
    lines = DirectSumIndex(enumerate_subspaces(field_of_order(3), 4, 1))
    with deadline(EXPIRED):
        assert len(lines.pair_masks()) == 40


def test_direct_sum_index_stops_at_an_expired_deadline():
    fld = field_of_order(3)
    # 130 planes of F_3^4 with 9 vectors each: the listing passes the checkpoint
    with deadline(EXPIRED), pytest.raises(BudgetExhausted, match="wall-clock") as exc:
        DirectSumIndex(enumerate_subspaces(fld, 4, 2))
    assert exc.value.nodes_used == FIRST_CHECKPOINT
    # 40 lines of F_3^4 with 3 vectors each: no checkpoint is reached
    with deadline(EXPIRED):
        assert len(DirectSumIndex(enumerate_subspaces(fld, 4, 1)).pair_masks()) == 40


def test_kneser_span_listings_spend_on_the_construction_budget():
    # K_{3,1;3}: the lister spends 78 candidate pairs, 286 candidate
    # terminals and the 78 listed spans of two lines (8 vectors each), 988
    # nodes; the 702 terminal edges carry the construction past the first
    # checkpoint
    with deadline(EXPIRED), pytest.raises(BudgetExhausted, match="wall-clock"):
        build_kneser(3, 1, 3)
    assert len(build_kneser(3, 1, 3).terminals) == 234


def test_direct_sum_subsets_spend_per_candidate_and_listed_vector():
    # the 13 lines of F_3^3: 78 candidate pairs off the pair masks, then 286
    # candidate triples and 8 listed vectors for each of the 78 pairs
    index = DirectSumIndex(enumerate_subspaces(field_of_order(3), 3, 1))
    bud = Budget(10**6)
    assert len(index.direct_sum_subsets(3, bud)) == 234
    assert bud.used == 78 + 286 + 78 * 8


def test_qkneser_hypergraph_listing_stops_at_an_expired_deadline():
    # the hyperedges of qK^4_{4:1} over F_3, the direct-sum 4-subsets of
    # its 40 lines (listed, with their 120 vectors, before the deadline
    # starts), from 91,390 candidates
    lines = enumerate_subspaces(field_of_order(3), 4, 1)
    with deadline(EXPIRED), pytest.raises(BudgetExhausted, match="wall-clock") as exc:
        DirectSumIndex(lines).direct_sum_subsets(4, Budget())
    assert exc.value.nodes_used == FIRST_CHECKPOINT
    # qK^3_{3:1} over F_2: 119 nodes, no checkpoint is reached
    lines = enumerate_subspaces(field_of_order(2), 3, 1)
    with deadline(EXPIRED):
        assert len(DirectSumIndex(lines).direct_sum_subsets(3, Budget())) == 28


def test_skeleton_stops_at_an_expired_deadline():
    net = build_kneser(3, 2, 2)  # 130 middles, thousands of terminal edges
    with deadline(EXPIRED), pytest.raises(BudgetExhausted, match="wall-clock"):
        skeleton(net)
    assert skeleton(net).graph.num_vertices == 130


def test_network_validation_stops_at_an_expired_deadline():
    # reading a network builds its edge index and validates it (topological
    # order, essential nodes), each a pass over thousands of nodes or edges
    net = build_kneser(3, 2, 2)  # its edge index is built by the first walk
    for check in (topological_order, essential_nodes):
        with deadline(EXPIRED), pytest.raises(BudgetExhausted, match="wall-clock"):
            check(net)
    obj = network_to_json(net)
    with deadline(EXPIRED), pytest.raises(BudgetExhausted, match="wall-clock"):
        network_from_json(obj)
    assert network_from_json(obj) == net


def test_greedy_coloring_stops_at_an_expired_deadline():
    # one node per vertex: a 2000-vertex path passes the first checkpoint
    path = UGraph.from_edges(2000, [(v, v + 1) for v in range(1999)])
    with deadline(EXPIRED), pytest.raises(BudgetExhausted, match="wall-clock") as exc:
        greedy_coloring(path)
    assert exc.value.nodes_used == FIRST_CHECKPOINT
    # 130 vertices: no checkpoint is reached
    g = build_qkneser(3, 4, 2)
    with deadline(EXPIRED):
        assert max(greedy_coloring(g).values()) + 1 == 12


def test_graph_from_edges_stops_at_an_expired_deadline():
    # one node per listed edge, from a list or any other iterable
    pairs = [(a, b) for a in range(50) for b in range(a + 1, 50)]  # 1225 edges
    for edges in (pairs, iter(pairs)):
        with deadline(EXPIRED), pytest.raises(BudgetExhausted, match="wall-clock"):
            UGraph.from_edges(50, edges)
    obj = {"vertices": list(range(50)), "edges": pairs}
    with deadline(EXPIRED), pytest.raises(BudgetExhausted, match="wall-clock"):
        ugraph_from_json(obj)
    with deadline(EXPIRED):
        assert complete_graph(45).is_complete()  # 990 edges


def test_subcombination_check_stops_at_an_expired_deadline():
    # K_{3,2;2}: 5265 terminals, each checked for h distinct middle feeders
    net = build_kneser(3, 2, 2)
    with deadline(EXPIRED), pytest.raises(BudgetExhausted, match="wall-clock"):
        is_subcombination(net)
    with deadline(EXPIRED), pytest.raises(BudgetExhausted, match="wall-clock"):
        is_solvable(net)
    assert is_subcombination(net) and is_solvable(net)


def test_cut_check_stops_at_an_expired_deadline():
    # N_{2,20,3}: 1140 terminals of in-degree 3, so not a sub-combination
    # network; is_solvable runs one max-flow per terminal
    net = build_combination(2, 20, 3)
    assert not is_subcombination(net)
    with deadline(EXPIRED), pytest.raises(BudgetExhausted, match="wall-clock"):
        is_solvable(net)
    assert is_solvable(net)
    # N_{2,12,3}: 220 terminals, no checkpoint is reached
    with deadline(EXPIRED):
        assert is_solvable(build_combination(2, 12, 3))


def test_minimality_check_reads_the_deadline_on_each_reduced_network(monkeypatch):
    # a single path of 1100 edges: the checks of the reduced networks pass
    # a deadline checkpoint.  The clock below ticks once per read, and the
    # deadline falls between the second and the third read after the
    # up-front cut check (the first two are the topological order and the
    # walk that finds the terminals each node reaches), so only the reduced
    # networks' checks can reach it.
    nodes = ("s", *(f"v{i}" for i in range(1, 1100)), "t")
    edges = tuple(Edge(f"e{i}", a, b) for i, (a, b) in enumerate(zip(nodes, nodes[1:])))
    net = Network.from_edges(h=1, source="s", terminals=("t",), nodes=nodes, edges=edges)
    assert is_solvable(net)
    ticks = itertools.count()
    monkeypatch.setattr(errors, "time", types.SimpleNamespace(monotonic=lambda: next(ticks)))
    with deadline(10**9):
        start = next(ticks)
        is_solvable(net)
        upfront = next(ticks) - start - 1
    with deadline(upfront + 2.5), pytest.raises(BudgetExhausted, match="wall-clock"):
        is_minimal(net)
