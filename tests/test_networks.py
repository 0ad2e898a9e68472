import collections
import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netgap.errors import SizeLimitExceeded, UnsolvableNetwork
from netgap.graphs import UGraph, ugraph_from_json
from netgap.networks import (
    Edge,
    Network,
    build_butterfly,
    build_combination,
    build_kneser,
    combination_parameters,
    essential_nodes,
    extend_messages,
    is_minimal,
    is_solvable,
    is_subcombination,
    min_cut,
    network_from_json,
    network_to_dot,
    network_to_json,
    parallelize,
    prune,
    topological_order,
    validate_network,
)
from netgap.skeleton import _class_walk, reverse_skeleton, skeleton
from netgap.subspaces import sum_dim


def test_combination_shape_232():
    net = build_combination(2, 3, 2)
    assert len(net.nodes) == 7 and len(net.edges) == 9
    assert len(net.terminals) == 3


def test_combination_shape_242():
    assert len(build_combination(2, 4, 2).terminals) == 6


def test_combination_shape_353():
    net = build_combination(3, 5, 3)
    assert len(net.terminals) == 10
    assert all(net.in_degree(t) == 3 for t in net.terminals)


def test_combination_rejects_bad_params():
    with pytest.raises(ValueError):
        build_combination(2, 2, 3)
    with pytest.raises(SizeLimitExceeded):
        build_combination(2, 40, 20)


def test_combination_parameters_detection():
    net = build_combination(3, 5, 3)
    assert combination_parameters(net) == (3, 5, 3)
    assert combination_parameters(build_butterfly()) is None


def test_builders_are_acyclic_and_essential():
    for net in (build_butterfly(), build_combination(2, 4, 2), build_kneser(2, 1, 2)):
        topological_order(net)
        assert essential_nodes(net) == set(net.nodes)


def test_min_cut_butterfly():
    net = build_butterfly()
    assert [min_cut(net, t) for t in net.terminals] == [2, 2]
    with pytest.raises(ValueError):
        min_cut(net, "v3")


def test_min_cut_combination_and_edge_removal():
    net = build_combination(2, 3, 2)
    assert all(min_cut(net, t) == 2 for t in net.terminals)
    removed = net.without_edge(net.out_edges("s")[0].id)
    assert min(min_cut(removed, t) for t in net.terminals) == 1


def test_min_cut_scales_under_parallelization():
    net = build_butterfly()
    for m in (2, 3):
        par = parallelize(net, m)
        for t in net.terminals:
            assert min_cut(par, t) == m * min_cut(net, t)


def test_is_minimal_butterfly():
    assert is_minimal(build_butterfly())


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_combination_minimal_iff_s_equals_h(r):
    for s in range(1, min(3, r) + 1):
        for h in range(1, s + 1):
            assert is_minimal(build_combination(h, r, s)) == (s == h)
        if s < r:  # a strictly larger h makes the network unsolvable
            with pytest.raises(UnsolvableNetwork):
                is_minimal(build_combination(s + 1, r, s))


def _with_edge(net, tail, head):
    return Network.from_edges(
        h=net.h,
        source=net.source,
        terminals=net.terminals,
        nodes=net.nodes,
        edges=net.edges + (Edge("extra", tail, head),),
    )


@pytest.mark.parametrize(
    "net",
    [
        build_butterfly(),
        build_combination(2, 5, 2),
        build_combination(3, 5, 3),
        build_combination(2, 4, 3),
        build_kneser(2, 1, 2),
        parallelize(build_butterfly(), 2),
        extend_messages(build_butterfly(), 3),
        _with_edge(build_butterfly(), "s", "t1"),
        _with_edge(build_butterfly(), "v3", "v4"),
        _with_edge(build_combination(2, 4, 2), "s", "t0_1"),
    ],
)
def test_is_minimal_matches_the_per_edge_definition(net):
    # oracle: drop each edge in turn and rerun the whole cut criterion
    expected = not any(is_solvable(net.without_edge(e.id)) for e in net.edges)
    assert is_minimal(net) == expected


def test_minimal_in_degree_bound():
    # minimal networks with solutions cannot have nodes of in-degree above h
    for net in (build_butterfly(), build_combination(2, 5, 2), build_combination(3, 4, 3)):
        if is_minimal(net):
            assert all(net.in_degree(v) <= net.h for v in net.nodes)


def test_parallelize_identity_and_counts():
    net = build_butterfly()
    one = parallelize(net, 1)
    assert len(one.edges) == 9 and one.h == 2
    two = parallelize(net, 2)
    assert len(two.edges) == 18 and two.h == 4
    assert is_minimal(two)
    with pytest.raises(ValueError):
        parallelize(net, 0)


def test_extend_messages_counts():
    net = build_butterfly()
    ext = extend_messages(net, 3)
    assert len(ext.nodes) == len(net.nodes) + 1
    assert len(ext.edges) == len(net.edges) + 2 + 1 * len(net.terminals)
    assert ext.terminals == net.terminals and ext.h == 3
    with pytest.raises(ValueError):
        extend_messages(net, 2)
    ext4 = extend_messages(build_combination(2, 3, 2), 4)
    direct = [e for e in ext4.edges if e.tail == ext4.source and e.head in ext4.terminals]
    assert len(direct) == 2 * 3


def test_kneser_212():
    net = build_kneser(2, 1, 2)
    middles = [v for v in net.nodes if v.startswith("m")]
    assert len(middles) == 3 and len(net.terminals) == 3


def test_kneser_222_counts():
    net = build_kneser(2, 2, 2)
    middles = [v for v in net.nodes if v.startswith("m")]
    assert len(middles) == 35 and len(net.terminals) == 280
    # terminal rule certified against sum_dim on the labels
    rng = random.Random(2)
    for term in rng.sample(net.terminals, 12):
        feeders = [e.tail for e in net.in_edges(term)]
        assert sum_dim([net.labels[m] for m in feeders]) == 4


def test_kneser_213():
    net = build_kneser(2, 1, 3)
    middles = [v for v in net.nodes if v.startswith("m")]
    assert len(middles) == 7 and len(net.terminals) == 28
    # K_{2,2;3} has C(651, 3) candidate terminals: refused, never truncated
    with pytest.raises(SizeLimitExceeded):
        build_kneser(2, 2, 3)
    with pytest.raises(ValueError):
        build_kneser(2, 1, 1)


@pytest.mark.parametrize("q,t", [(2, 1), (3, 1), (2, 2)])
def test_kneser_terminals_are_qkneser_edges(q, t):
    from netgap.qkneser import build_qkneser

    net = build_kneser(q, t, 2)
    graph = build_qkneser(q, 2 * t, t)
    terminal_pairs = set()
    for term in net.terminals:
        feeders = sorted(int(e.tail[1:]) for e in net.in_edges(term))
        terminal_pairs.add(tuple(feeders))
    assert terminal_pairs == set(graph.edges)


def test_is_subcombination():
    assert is_subcombination(build_kneser(2, 1, 2))
    assert is_subcombination(build_combination(2, 4, 2))
    assert not is_subcombination(build_butterfly())
    assert not is_subcombination(build_combination(2, 4, 3))


def test_solvability_check():
    assert is_solvable(build_butterfly())
    assert not is_solvable(build_combination(3, 4, 2))


def test_prune_removes_non_essential():
    net = build_butterfly()
    with_extra = Network.from_edges(
        h=net.h,
        source=net.source,
        terminals=net.terminals,
        nodes=net.nodes + ("dead",),
        edges=net.edges + (Edge("edead", "s", "dead"),),
    )
    pruned = prune(with_extra)
    assert set(pruned.nodes) == set(net.nodes)
    with pytest.raises(ValueError):
        validate_network(with_extra)


def test_json_roundtrip_with_labels(tmp_path):
    net = build_kneser(2, 1, 2)
    obj = network_to_json(net)
    text = json.dumps(obj)
    back = network_from_json(json.loads(text))
    assert back.edges == net.edges and back.terminals == net.terminals
    assert back.labels == net.labels
    # parallel edges keep their ids, their order and their count
    net = parallelize(build_combination(2, 3, 2), 2)
    back = network_from_json(json.loads(json.dumps(network_to_json(net))))
    assert back == net and network_to_json(back) == network_to_json(net)
    assert [e.id for e in back.in_edges("t0_1")] == ["e3.1", "e3.2", "e4.1", "e4.2"]


def test_dot_export_mentions_roles():
    dot = network_to_dot(build_butterfly())
    assert "shape=box" in dot and "doublecircle" in dot and '"s" -> "v1"' in dot


def _sum_dim_terminals(middles, h):
    """The h-subsets of middles spanning their ambient space, in
    lexicographic order, each tested by sum_dim."""
    n = middles[0].ambient
    for subset in itertools.combinations(range(len(middles)), h):
        if sum_dim([middles[i] for i in subset]) == n:
            yield subset


@pytest.mark.parametrize("count", [0, 1, 2, 10, 11, 101, 10660])
def test_edge_ids_are_zero_padded_to_the_widest(count):
    from netgap.networks import _edge_ids

    width = len(str(max(count - 1, 0)))
    assert _edge_ids(count) == ["e" + str(i).zfill(width) for i in range(count)]


def _build_kneser_oracle(q, t, h):
    """K_{q,t;h} with every h-subset of middles tested by sum_dim, as the
    builder did before it read direct sums off a DirectSumIndex."""
    from netgap.gf import field_of_order
    from netgap.networks import _edge_ids
    from netgap.subspaces import enumerate_subspaces

    middles = enumerate_subspaces(field_of_order(q), h * t, t)
    r = len(middles)
    middle_ids = [f"m{i}" for i in range(r)]
    terminals, pairs = [], []
    for subset in _sum_dim_terminals(middles, h):
        tname = "t" + "_".join(str(i) for i in subset)
        terminals.append(tname)
        pairs.extend((tname, middle_ids[i]) for i in subset)
    ids = _edge_ids(r + len(pairs))
    edges = [Edge(ids[i], "s", middle_ids[i]) for i in range(r)]
    edges.extend(Edge(ids[r + k], m, tname) for k, (tname, m) in enumerate(pairs))
    return Network.from_edges(
        h=h,
        source="s",
        terminals=tuple(terminals),
        nodes=("s", *middle_ids, *terminals),
        edges=tuple(edges),
        labels=dict(zip(middle_ids, middles)),
    )


@pytest.mark.parametrize("q,t", [(2, 1), (3, 1), (4, 1), (2, 2), (3, 2)])
def test_build_kneser_h2_matches_sum_dim_oracle(q, t):
    assert network_to_json(build_kneser(q, t, 2)) == network_to_json(_build_kneser_oracle(q, t, 2))


@pytest.mark.parametrize("q,t,h", [(2, 1, 3), (3, 1, 3), (4, 1, 3), (2, 1, 4)])
def test_build_kneser_h3_h4_matches_sum_dim_oracle(q, t, h):
    assert network_to_json(build_kneser(q, t, h)) == network_to_json(_build_kneser_oracle(q, t, h))


def _named_five_cycle():
    names = "abcde"
    edges = [[names[i], names[(i + 1) % 5]] for i in range(5)]
    return ugraph_from_json({"vertices": list(names), "edges": edges})


def _petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return UGraph.from_edges(10, outer + spokes + inner)


# the networks of the form source -> middles -> terminals that the
# benchmark reads or the tests lean on
PINNED_BUILDS = {
    "N_{2,6,2}": lambda: build_combination(2, 6, 2),
    "N_{3,6,3}": lambda: build_combination(3, 6, 3),
    "N_{3,5,3}": lambda: build_combination(3, 5, 3),
    "N_{4,8,4}": lambda: build_combination(4, 8, 4),
    "K_{2,2;2}": lambda: build_kneser(2, 2, 2),
    "K_{3,2;2}": lambda: build_kneser(3, 2, 2),
    "K_{2,1;3}": lambda: build_kneser(2, 1, 3),
    "K_{3,1;3}": lambda: build_kneser(3, 1, 3),
    "K_{2,1;4}": lambda: build_kneser(2, 1, 4),
    "C_5": lambda: reverse_skeleton(_named_five_cycle()),
    "Petersen": lambda: reverse_skeleton(_petersen()),
}

# SHA-256 of json.dumps(network_to_json(net), sort_keys=True) for each, as
# three separate builders made them before one builder made them all
BUILDER_DIGESTS = {
    "N_{2,6,2}": "b00e177163a2b5be3d10f6ba68e7ae585eb26f32be8d5ffad7efaf85776cb5fc",
    "N_{3,6,3}": "3bf2cb072a953247c9b3f70df1f01d0cc94e6db0e1adfab2bd6c5562a1178cf5",
    "N_{3,5,3}": "e7a4aa02e947d70094ec555b836f0ac6a2ae263aee55f7990bfa489f03751c9d",
    "N_{4,8,4}": "7cf32733a4db517af62910d2da80423184dafb7caebbb42839d60fe40f16b799",
    "K_{2,2;2}": "e5132dbf2dfaad27c2e88236ca85d3306a700b93ac8df3434df2877afe611dcc",
    "K_{3,2;2}": "70d7a200ff314f9fb0a9ec82a9aee7bea44d7c164cf921a544d5eab3897fecc5",
    "K_{2,1;3}": "ef995e6e78dda752fcf9b33b0632424116845f3417bbc19bf6e1d080d7783300",
    "K_{3,1;3}": "018e9d8a7b318e2d10123db3a5b3599c47b225659cb14ce191333df13918066d",
    "K_{2,1;4}": "83c3db8e42e0097726ec13ca6499f562dabc14d6155251c6b55fcea8dd406543",
    "C_5": "65031165e2f3e181ed224369644c7d415b980689e5b1b9797bb77f0e072735fd",
    "Petersen": "350b99e535b8338a0121a6f5d402e7c05750925ac094de0835541297852cc65e",
}


@pytest.mark.parametrize("name", sorted(PINNED_BUILDS))
def test_builders_output_is_pinned(name):
    text = json.dumps(network_to_json(PINNED_BUILDS[name]()), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == BUILDER_DIGESTS[name]


def _index_test_networks():
    bf = build_butterfly()
    isolated = Network.from_edges(
        h=bf.h,
        source=bf.source,
        terminals=bf.terminals,
        nodes=bf.nodes + ("lonely",),
        edges=bf.edges,
    )
    yield bf
    yield isolated
    yield build_combination(2, 4, 2)
    yield build_kneser(2, 1, 2)
    yield parallelize(bf, 3)  # parallel edges
    yield extend_messages(build_combination(2, 3, 2), 4)  # parallel edges to terminals
    for e in bf.edges:
        yield bf.without_edge(e.id)


def test_adjacency_index_matches_edge_scan():
    for net in _index_test_networks():
        for node in net.nodes + ("absent",):
            ins = [e for e in net.edges if e.head == node]
            outs = [e for e in net.edges if e.tail == node]
            assert net.in_edges(node) == ins
            assert net.out_edges(node) == outs
            assert net.in_degree(node) == len(ins)


def test_adjacency_index_survives_caller_mutation():
    net = build_butterfly()
    ins, outs = net.in_edges("v3"), net.out_edges("s")
    ins.append(Edge("bogus", "s", "v3"))
    outs.clear()
    assert [e.id for e in net.in_edges("v3")] == ["e3", "e4"]
    assert [e.id for e in net.out_edges("s")] == ["e1", "e2"]
    assert net.in_degree("v3") == 2


def test_adjacency_index_stays_out_of_equality_and_json():
    import dataclasses

    fresh, used = build_butterfly(), build_butterfly()
    used.in_edges("t1")
    assert fresh == used and hash(fresh) == hash(used)
    assert network_to_json(fresh) == network_to_json(used)
    assert [f.name for f in dataclasses.fields(used)] == [
        "h", "source", "terminals", "nodes", "edge_ids", "tail", "head", "strays", "labels"
    ]
    reduced = used.without_edge("e5")
    assert [e.id for e in reduced.in_edges("t1")] == ["e8"]
    assert [e.id for e in used.in_edges("t1")] == ["e5", "e8"]


# ---------------------------------------------------------------------------
# the one-walk shape and the one-sweep validation against the code they replaced
# ---------------------------------------------------------------------------


def _lists(net):
    """(outgoing, incoming) edge lists per node, built from the edge list."""
    outs, ins = {}, {}
    for e in net.edges:
        outs.setdefault(e.tail, []).append(e)
        ins.setdefault(e.head, []).append(e)
    return outs, ins


def _combination_parameters_oracle(net):
    """The separate terminal walk that the cached shape replaced."""
    outs, ins = _lists(net)
    middles = [e.head for e in outs.get(net.source, ())]
    if len(set(middles)) != len(middles):
        return None
    middle_set = set(middles)
    if net.source in middle_set or middle_set & set(net.terminals):
        return None
    if set(net.nodes) != {net.source} | middle_set | set(net.terminals):
        return None
    r = len(middles)
    s = None
    seen_subsets = set()
    for term in net.terminals:
        feeders = [e.tail for e in ins.get(term, ())]
        if outs.get(term):
            return None
        if len(set(feeders)) != len(feeders) or not set(feeders) <= middle_set:
            return None
        if s is None:
            s = len(feeders)
        elif len(feeders) != s:
            return None
        seen_subsets.add(frozenset(feeders))
    if s is None:
        return None
    for mid in middles:
        if len(ins.get(mid, ())) != 1:
            return None
    expected = 1
    for i in range(s):
        expected = expected * (r - i) // (i + 1)
    if len(seen_subsets) != len(net.terminals) or len(net.terminals) != expected:
        return None
    return (net.h, r, s)


def _is_subcombination_oracle(net):
    """The separate terminal walk that the cached shape replaced."""
    outs, ins = _lists(net)
    middles = [e.head for e in outs.get(net.source, ())]
    if len(set(middles)) != len(middles):
        return False
    middle_set = set(middles)
    term_set = set(net.terminals)
    if net.source in term_set or middle_set & term_set:
        return False
    if set(net.nodes) != {net.source} | middle_set | term_set:
        return False
    for mid in middles:
        if len(ins.get(mid, ())) != 1 or not outs.get(mid):
            return False
        if any(e.head not in term_set for e in outs.get(mid, ())):
            return False
    for term in net.terminals:
        in_list = ins.get(term, ())
        feeders = {e.tail for e in in_list}
        if len(in_list) != net.h or len(feeders) != net.h:
            return False
        if not feeders <= middle_set or term in outs:
            return False
    return True


def _topological_order_oracle(net):
    """Kahn's algorithm on a deque, as validation ran it."""
    outs, ins = _lists(net)
    indeg = {v: len(ins.get(v, ())) for v in net.nodes}
    order = []
    ready = collections.deque(v for v in net.nodes if indeg[v] == 0)
    while ready:
        v = ready.popleft()
        order.append(v)
        for e in outs.get(v, ()):
            indeg[e.head] -= 1
            if indeg[e.head] == 0:
                ready.append(e.head)
    if len(order) != len(net.nodes):
        raise ValueError("network graph contains a cycle")
    return order


def _essential_nodes_oracle(net):
    """Forward search from the source meets backward search from the terminals."""
    outs, ins = _lists(net)
    fwd, frontier = {net.source}, [net.source]
    while frontier:
        for e in outs.get(frontier.pop(), ()):
            if e.head not in fwd:
                fwd.add(e.head)
                frontier.append(e.head)
    back, frontier = set(net.terminals), list(net.terminals)
    while frontier:
        for e in ins.get(frontier.pop(), ()):
            if e.tail not in back:
                back.add(e.tail)
                frontier.append(e.tail)
    return fwd & back


def _validate_oracle(net):
    """validate_network as a topological order plus two searches."""
    if net.h < 1:
        raise ValueError("message count h must be >= 1")
    if not net.terminals:
        raise ValueError("network needs at least one terminal")
    node_set = set(net.nodes)
    if len(node_set) != len(net.nodes):
        raise ValueError("duplicate node ids")
    if net.source not in node_set:
        raise ValueError("source not among nodes")
    ids = [e.id for e in net.edges]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate edge ids")
    for e in net.edges:
        if e.tail not in node_set or e.head not in node_set:
            raise ValueError(f"edge {e.id} references unknown node")
    for i, t in enumerate(net.terminals):
        if t not in node_set:
            raise ValueError(f"terminal {t} not among nodes")
        if t in net.terminals[:i]:
            raise ValueError(f"terminal {t} listed twice")
    _topological_order_oracle(net)
    if any(e.head == net.source for e in net.edges):
        raise ValueError("source must have in-degree 0")
    if _essential_nodes_oracle(net) != node_set:
        raise ValueError("network contains non-essential nodes")


def _outcome(fn, net):
    """fn's answer, or the message of the ValueError it raised."""
    try:
        return "ok", fn(net)
    except ValueError as exc:
        return "error", str(exc)


_SHAPE_BASES = [
    lambda: build_butterfly(),
    lambda: build_combination(2, 3, 2),
    lambda: build_combination(2, 4, 2),
    lambda: build_combination(3, 4, 3),
    lambda: build_combination(2, 4, 3),
    lambda: build_combination(1, 3, 1),
    lambda: build_kneser(2, 1, 2),
    lambda: build_kneser(3, 1, 2),
]


@st.composite
def _mutated_networks(draw):
    """A small builder network with a few random edits, never validated.

    Edits drop edges, add parallel edges, middle -> middle edges, terminal
    out-edges, edges into the source (a self-loop among them), edges to
    unknown nodes or with a repeated id, extra or repeated nodes, repeated,
    unknown or no terminals, make the source a terminal, strip everything
    but the source, and change h.
    """
    net = draw(st.sampled_from(_SHAPE_BASES))()
    nodes, edges, terminals, h = list(net.nodes), list(net.edges), list(net.terminals), net.h
    middles = [e.head for e in net.out_edges(net.source)]
    fresh = itertools.count()
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(
            st.sampled_from(
                ["drop", "parallel", "middle", "terminal-out", "fed-source", "extra-node",
                 "unknown-node", "repeat-id", "repeat-node", "repeat-terminal",
                 "unknown-terminal", "no-terminals", "source-terminal", "source-loop",
                 "strip", "h"]
            )
        )
        pick = st.sampled_from
        if kind == "drop" and edges:
            edges.remove(draw(pick(edges)))
        elif kind == "parallel" and edges:
            e = draw(pick(edges))
            edges.append(Edge(f"p{next(fresh)}", e.tail, e.head))
        elif kind == "middle" and middles:
            edges.append(Edge(f"m{next(fresh)}", draw(pick(middles)), draw(pick(middles))))
        elif kind == "terminal-out" and terminals:
            edges.append(Edge(f"o{next(fresh)}", draw(pick(terminals)), draw(pick(nodes))))
        elif kind == "fed-source":
            # from a new node, the source is fed without closing a cycle
            if draw(st.booleans()):
                nodes.append(f"n{next(fresh)}")
            edges.append(Edge(f"f{next(fresh)}", draw(pick(nodes)), net.source))
        elif kind == "extra-node":
            extra = f"x{next(fresh)}"
            nodes.append(extra)
            if draw(st.booleans()):
                edges.append(Edge(f"x{next(fresh)}", draw(pick(nodes)), extra))
        elif kind == "unknown-node":
            edges.append(Edge(f"u{next(fresh)}", draw(pick(nodes)), "nowhere"))
        elif kind == "repeat-id" and edges:
            e = draw(pick(edges))
            edges.append(Edge(e.id, net.source, draw(pick(nodes))))
        elif kind == "repeat-node":
            nodes.append(draw(pick(nodes)))
        elif kind == "unknown-terminal":
            terminals.append("nobody")
        elif kind == "no-terminals":
            terminals = []
        elif kind == "source-terminal":
            terminals.append(net.source)
        elif kind == "source-loop":
            edges.append(Edge(f"l{next(fresh)}", net.source, net.source))
        elif kind == "strip":
            nodes, edges, middles = [net.source], [], []
        elif kind == "repeat-terminal" and terminals:
            terminals.append(draw(pick(terminals)))
        elif kind == "h":
            h = draw(st.integers(0, 4))
    if draw(st.booleans()):
        edges = draw(st.permutations(edges))
    return Network.from_edges(
        h=h, source=net.source, terminals=tuple(terminals), nodes=tuple(nodes), edges=tuple(edges)
    )


@settings(max_examples=600, deadline=None)
@given(_mutated_networks())
def test_shape_and_validation_match_the_separate_walks(net):
    assert combination_parameters(net) == _combination_parameters_oracle(net)
    assert is_subcombination(net) == _is_subcombination_oracle(net)
    # a fresh copy, so validation runs before the shape is cached
    copy = Network.from_edges(net.h, net.source, net.terminals, net.nodes, net.edges)
    assert _outcome(validate_network, copy) == _outcome(_validate_oracle, net)
    if set(net.nodes) >= {v for e in net.edges for v in (e.tail, e.head)}:
        assert _outcome(topological_order, net) == _outcome(_topological_order_oracle, net)


@st.composite
def _reindexed_networks(draw):
    """A mutated network with every edge copied 1 to 3 times, as
    `parallelize` copies them but unvalidated, and its edge list shuffled
    or kept."""
    net = draw(_mutated_networks())
    m = draw(st.integers(1, 3))
    edges = [Edge(f"{e.id}.{j}", e.tail, e.head) for e in net.edges for j in range(m)]
    if draw(st.booleans()):
        edges = draw(st.permutations(edges))
    return Network.from_edges(net.h * m, net.source, net.terminals, net.nodes, edges)


@settings(max_examples=400, deadline=None)
@given(_reindexed_networks())
def test_edge_index_matches_a_scan_of_the_edge_list(net):
    # every node's in- and out-edges in edge-list order, and its in-degree,
    # as a plain scan of the edges finds them, strays and absent names too
    edges = net.edges
    assert [e.id for e in edges] == list(net.edge_ids)
    named = {v for e in edges for v in (e.tail, e.head)}
    for node in (*net.nodes, *sorted(named), "absent"):
        ins = [e for e in edges if e.head == node]
        assert net.in_edges(node) == ins and net.in_degree(node) == len(ins)
        assert net.out_edges(node) == [e for e in edges if e.tail == node]
    if set(net.nodes) >= named:
        assert _outcome(topological_order, net) == _outcome(_topological_order_oracle, net)
    # the JSON form round-trips, parallel edges, strays and repeats included
    obj = network_to_json(net)
    back = network_from_json(json.loads(json.dumps(obj)), validate=False)
    assert network_to_json(back) == obj and back == net


def test_shape_on_degenerate_networks():
    # a source feeding itself as its one "middle" next to a terminal of
    # in-degree 0 (one 0-subset of one middle), and a source that is its own
    # only terminal: answers the random edits rarely reach
    loop = (Edge("l", "s", "s"),)
    looped = Network.from_edges(h=1, source="s", terminals=("t",), nodes=("s", "t"), edges=loop)
    lone = [Network.from_edges(h, "s", ("s",), ("s",), ()) for h in (0, 1)]
    for net in [looped, *lone]:
        assert combination_parameters(net) == _combination_parameters_oracle(net)
        assert is_subcombination(net) == _is_subcombination_oracle(net)
    assert combination_parameters(looped) is None and not is_subcombination(looped)
    assert [combination_parameters(net) for net in lone] == [(0, 0, 0), (1, 0, 0)]
    assert not any(is_subcombination(net) for net in lone)


def test_shape_oracles_agree_on_the_builders():
    # the oracles themselves see the shapes the builders promise
    for make in _SHAPE_BASES:
        net = make()
        _validate_oracle(net)
        assert _essential_nodes_oracle(net) == set(essential_nodes(net)) == set(net.nodes)
    assert _combination_parameters_oracle(build_combination(2, 4, 3)) == (2, 4, 3)
    assert _is_subcombination_oracle(build_kneser(3, 1, 2))
    assert not _is_subcombination_oracle(build_butterfly())
    k322 = build_kneser(3, 2, 2)
    assert is_subcombination(k322) and combination_parameters(k322) is None
    assert _is_subcombination_oracle(k322) and _combination_parameters_oracle(k322) is None


def test_shape_is_computed_once_and_stays_out_of_equality():
    import dataclasses

    net, other = build_combination(2, 4, 2), build_combination(2, 4, 2)
    assert combination_parameters(net) == (2, 4, 2) and is_subcombination(net)
    assert "_shape" in vars(net) and "_shape" not in vars(other)
    assert net == other and hash(net) == hash(other)
    assert network_to_json(net) == network_to_json(other)
    assert "_shape" not in [f.name for f in dataclasses.fields(net)]


@pytest.mark.parametrize("feeder", ["m0", "s"], ids=["middle-twice", "not-a-middle"])
def test_shape_counts_each_middle_feeder_once(feeder):
    # N_{2,4,2} with t0_1 fed by m0 and by `feeder` instead of m1: each
    # terminal's feeder mask sets one bit per distinct middle, so m0 twice
    # sets one and the source none, and the popcount falls below the
    # in-degree though every degree is still h
    base = build_combination(2, 4, 2)
    edges = tuple(
        Edge(e.id, feeder, e.head) if (e.tail, e.head) == ("m1", "t0_1") else e for e in base.edges
    )
    net = Network.from_edges(base.h, base.source, base.terminals, base.nodes, edges)
    assert net.in_degree("t0_1") == net.h
    assert not is_subcombination(net) and not _is_subcombination_oracle(net)
    assert combination_parameters(net) is None is _combination_parameters_oracle(net)


def test_the_layers_are_sized_by_place_when_a_node_name_repeats():
    # m0 named again at the end: its edges use its last place, past the
    # count of distinct names, so the layer pass sizes its masks by place
    base = build_combination(2, 3, 2)
    net = Network.from_edges(base.h, base.source, base.terminals, base.nodes + ("m0",), base.edges)
    assert is_subcombination(net) and _is_subcombination_oracle(net)
    assert combination_parameters(net) == (2, 3, 2) == _combination_parameters_oracle(net)
    assert skeleton(net) == _class_walk(net)
    with pytest.raises(ValueError, match="duplicate node ids"):
        validate_network(net)


def test_a_terminal_listed_twice_is_rejected():
    # a repeated terminal would make the shape read a full N_{3,4,3} as not
    # full, so q_v would leave the IC route for the assignment search
    obj = network_to_json(build_combination(3, 4, 3))
    obj["terminals"].append(obj["terminals"][0])
    with pytest.raises(ValueError, match=f"terminal {obj['terminals'][0]} listed twice"):
        network_from_json(obj)
    net = network_from_json(obj, validate=False)
    with pytest.raises(ValueError, match="listed twice"):
        validate_network(net)


def test_a_middle_feeding_nothing_is_no_middle_layer():
    # N_{2,3,2} with a fourth middle fed by the source alone: the middle is
    # a sink that is no terminal, so the network has neither the
    # sub-combination shape nor a middle layer
    base = build_combination(2, 3, 2)
    edges = base.edges + (Edge("idle", base.source, "m3"),)
    net = Network.from_edges(base.h, base.source, base.terminals, base.nodes + ("m3",), edges)
    assert not is_subcombination(net) and not _is_subcombination_oracle(net)
    assert net.middle_layer() is None
    with pytest.raises(ValueError, match="non-essential nodes"):
        validate_network(net)
    assert skeleton(net) == _class_walk(net) and len(skeleton(net).class_ids) == 4


def test_a_repeated_feeder_set_over_many_middles_is_not_full():
    # N_{2,64,2} with terminal t62_63 rewired onto m0 and m1: still C(64, 2)
    # terminals of two feeders each, but two share a feeder set.  Over more
    # than 61 middles such sparse masks collide in hashing, so the shape
    # tells them apart by sorting
    obj = network_to_json(build_combination(2, 64, 2))
    into = [e for e in obj["edges"] if e["to"] == "t62_63"]
    for edge, middle in zip(into, ("m0", "m1")):
        edge["from"] = middle
    net = network_from_json(obj)
    assert len(net.terminals) == 2016 and is_subcombination(net)
    assert combination_parameters(net) is None and _combination_parameters_oracle(net) is None
    assert combination_parameters(build_combination(2, 64, 2)) == (2, 64, 2)
