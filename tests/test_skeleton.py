import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netgap.graphs import UGraph, complete_graph
from netgap.lincode import search_solution
from netgap.networks import (
    Edge,
    Network,
    build_butterfly,
    build_combination,
    build_kneser,
    network_from_json,
    network_to_json,
    prune,
)
from netgap.qkneser import build_qkneser, find_homomorphism
from netgap.skeleton import _class_walk, _layered, reverse_skeleton, skeleton


def test_butterfly_skeleton_exact_classes():
    skel = skeleton(build_butterfly())
    assert skel.classes == {
        "e1": frozenset({"e1", "e3", "e5"}),
        "e2": frozenset({"e2", "e4", "e7"}),
        "e6": frozenset({"e6", "e8", "e9"}),
    }
    assert skel.graph.num_vertices == 3 and len(skel.graph.edges) == 3


def test_combination_skeleton_is_complete():
    for r in (3, 4, 5):
        skel = skeleton(build_combination(2, r, 2))
        assert skel.graph.num_vertices == r
        assert len(skel.graph.edges) == r * (r - 1) // 2


def test_single_path_single_class():
    net = Network.from_edges(
        h=1,
        source="s",
        terminals=("t",),
        nodes=("s", "a", "b", "t"),
        edges=(Edge("e1", "s", "a"), Edge("e2", "a", "b"), Edge("e3", "b", "t")),
    )
    skel = skeleton(net)
    assert skel.classes == {"e1": frozenset({"e1", "e2", "e3"})}
    assert len(skel.graph.edges) == 0


def test_partition_property_on_builders():
    for net in (build_butterfly(), build_combination(2, 4, 2), build_combination(3, 4, 3)):
        skel = skeleton(net)
        union = set().union(*skel.classes.values()) if skel.classes else set()
        assert union == {e.id for e in net.edges}
        assert sum(len(c) for c in skel.classes.values()) == len(net.edges)


def test_source_edges_start_classes():
    for net in (build_butterfly(), build_combination(2, 5, 2)):
        skel = skeleton(net)
        roots = {min(c) for c in skel.classes.values()}
        for e in net.out_edges(net.source):
            assert any(e.id in members for members in skel.classes.values())
            cls = next(c for c in skel.classes.values() if e.id in c)
            assert min(cls) == e.id or net.in_degree(net.source) != 0
        assert len(roots) == len(skel.classes)


def _random_network(rng: random.Random) -> Network | None:
    from netgap.networks import validate_network

    n_mid = rng.randint(1, 5)
    nodes = ["s"] + [f"n{i}" for i in range(n_mid)] + ["t0", "t1"]
    edges = []
    k = 0
    for i, u in enumerate(nodes[:-1]):
        for v in nodes[i + 1 :]:
            for _ in range(rng.randint(0, 2)):  # parallel edges allowed
                if rng.random() < 0.45:
                    edges.append(Edge(f"e{k:03d}", u, v))
                    k += 1
    if len(edges) > 50:
        return None
    net = Network.from_edges(h=1, source="s", terminals=("t0", "t1"), nodes=tuple(nodes), edges=tuple(edges))
    net = prune(net)
    if not net.edges or "t0" not in net.nodes or "t1" not in net.nodes:
        return None
    try:
        validate_network(net)
    except ValueError:
        return None
    return net


@given(st.integers(0, 10**9))
@settings(max_examples=80, deadline=None)
def test_partition_property_random_dags(seed):
    net = _random_network(random.Random(seed))
    if net is None:
        return
    skel = skeleton(net)
    all_edges = {e.id for e in net.edges}
    union = set()
    total = 0
    for members in skel.classes.values():
        union |= members
        total += len(members)
    assert union == all_edges and total == len(all_edges)


def _skeleton_oracle(net):
    """Classes by traversal from each root, joins by every pair of in-edges."""
    ins = {v: [e for e in net.edges if e.head == v] for v in net.nodes}
    roots = [e for e in net.edges if len(ins[e.tail]) != 1]
    edge_class, members = {}, []
    for idx, root in enumerate(roots):
        frontier, cls = [root], set()
        while frontier:
            e = frontier.pop()
            cls.add(e.id)
            edge_class[e.id] = idx
            if len(ins[e.head]) == 1:
                frontier.extend(f for f in net.edges if f.tail == e.head)
        members.append(cls)
    pairs = set()
    for v in net.nodes:
        for a, b in itertools.combinations([edge_class[e.id] for e in ins[v]], 2):
            if a != b:
                pairs.add((min(a, b), max(a, b)))
    return [min(cls) for cls in members], members, sorted(pairs)


@given(st.integers(0, 10**9))
@settings(max_examples=80, deadline=None)
def test_skeleton_matches_the_pairwise_join_oracle(seed):
    net = _random_network(random.Random(seed))
    if net is None:
        return
    skel = skeleton(net)
    ids, members, pairs = _skeleton_oracle(net)
    assert list(skel.class_ids) == ids
    assert [skel.classes[cid] for cid in ids] == members
    assert list(skel.graph.edges) == pairs


def _joined_network(rng: random.Random) -> Network:
    """A random DAG, never validated, whose node j has in-degree >= 3 and is
    fed twice by one class: two parallel edges from p, a node of in-degree 1,
    and one edge each from two other nodes.  j feeds k, so j's out-edge
    roots a class too.  The edge list is shuffled."""
    nodes = ["s"] + [f"n{i}" for i in range(rng.randint(3, 7))]
    pairs = []
    for i, v in enumerate(nodes[1:], 1):
        for u in rng.sample(nodes[:i], rng.randint(1, min(i, 3))):
            pairs.extend([(u, v)] * rng.randint(1, 2))
    pairs += [(rng.choice(nodes), "p"), ("p", "j"), ("p", "j"), ("j", "k")]
    pairs += [(u, "j") for u in rng.sample(nodes, 2)]
    rng.shuffle(pairs)
    edges = tuple(Edge(f"e{k:02d}", u, v) for k, (u, v) in enumerate(pairs))
    return Network.from_edges(h=2, source="s", terminals=("k",), nodes=(*nodes, "p", "j", "k"), edges=edges)


@given(st.integers(0, 10**9))
@settings(max_examples=150, deadline=None)
def test_skeleton_matches_the_pairwise_join_oracle_on_wide_joins(seed):
    net = _joined_network(random.Random(seed))
    assert net.in_degree("j") == 4 and net.in_degree("p") == 1
    skel = skeleton(net)
    ids, members, pairs = _skeleton_oracle(net)
    assert list(skel.class_ids) == ids
    assert [skel.classes[cid] for cid in ids] == members
    assert list(skel.graph.edges) == pairs
    assert skel.graph.masks == UGraph.from_edges(len(ids), pairs).masks


_LAYERED_BASES = [
    lambda: build_combination(2, 3, 2),
    lambda: build_combination(2, 5, 2),
    lambda: build_combination(3, 5, 3),
    lambda: build_combination(1, 3, 1),
    lambda: build_kneser(2, 1, 2),
    lambda: build_kneser(2, 1, 3),
    lambda: reverse_skeleton(UGraph.from_edges(5, [(v, (v + 1) % 5) for v in range(5)])),
]


@st.composite
def _sub_combination_networks(draw):
    """A builder's three-layer network with terminals dropped and a few
    edits, renamed, its edge list shuffled, read back from its JSON form.

    Dropping terminals leaves middles that feed nothing, kept or dropped.
    The edits add a parallel edge, a middle -> middle edge, a middle ->
    terminal edge or a middle fed by the source alone, or change h.  The
    new edge ids put a class's least id anywhere in it.
    """
    obj = network_to_json(draw(st.sampled_from(_LAYERED_BASES))())
    for key in ("labels", "field", "ambient"):
        obj.pop(key, None)
    src = obj["source"]
    keep = draw(st.sets(st.sampled_from(obj["terminals"]), min_size=1))
    obj["terminals"] = [v for v in obj["terminals"] if v in keep]
    edges = [e for e in obj["edges"] if e["from"] == src or e["to"] in keep]
    if draw(st.integers(0, 3)):  # mostly, drop the middles that feed nothing
        fed = {e["from"] for e in edges if e["to"] in keep}
        edges = [e for e in edges if e["from"] != src or e["to"] in fed]
    middles = [e["to"] for e in edges if e["from"] == src]
    fresh = itertools.count()
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        kind = draw(st.sampled_from(["parallel", "cross", "terminal", "idle", "h"]))
        if kind == "parallel":
            edges.append(dict(draw(st.sampled_from(edges)), id=f"p{next(fresh)}"))
        elif kind == "cross":
            ends = draw(st.sampled_from(middles)), draw(st.sampled_from(middles))
            edges.append({"id": f"c{next(fresh)}", "from": ends[0], "to": ends[1]})
        elif kind == "terminal":
            ends = draw(st.sampled_from(middles)), draw(st.sampled_from(obj["terminals"]))
            edges.append({"id": f"t{next(fresh)}", "from": ends[0], "to": ends[1]})
        elif kind == "idle":
            middles.append(f"idle{next(fresh)}")
            edges.append({"id": f"i{next(fresh)}", "from": src, "to": middles[-1]})
        else:
            obj["h"] = draw(st.integers(1, 4))
    names = [src, *dict.fromkeys(middles), *obj["terminals"]]
    new = dict(zip(names, (f"n{k}" for k in draw(st.permutations(range(len(names)))))))
    ids = (f"e{k}" for k in draw(st.permutations(range(len(edges)))))
    obj["source"], obj["terminals"] = new[src], [new[v] for v in obj["terminals"]]
    obj["nodes"] = [{"id": new[v]} for v in draw(st.permutations(names))]
    obj["edges"] = [
        {"id": eid, "from": new[e["from"]], "to": new[e["to"]]}
        for eid, e in zip(ids, draw(st.permutations(edges)))
    ]
    return network_from_json(json.loads(json.dumps(obj)), validate=False)


@settings(max_examples=400, deadline=None)
@given(_sub_combination_networks())
def test_the_layered_skeleton_matches_the_class_walk(net):
    walk, layer = _class_walk(net), net.middle_layer()
    if layer is not None:
        fast = _layered(net, *layer)
        assert fast.graph.masks == walk.graph.masks
        assert fast.class_ids == walk.class_ids and fast.members == walk.members
    assert skeleton(net) == walk


def test_reverse_skeleton_triangle():
    net = reverse_skeleton(complete_graph(3))
    middles = [v for v in net.nodes if v.startswith("v")]
    assert len(middles) == 3 and len(net.terminals) == 3
    assert net.h == 2


def test_reverse_skeleton_single_edge():
    g = UGraph.from_edges(2, [(0, 1)])
    net = reverse_skeleton(g)
    assert len(net.terminals) == 1 and len(net.edges) == 4


def test_reverse_skeleton_complete_graph_is_full_combination():
    from netgap.networks import combination_parameters

    net = reverse_skeleton(complete_graph(4))
    assert combination_parameters(net) == (2, 4, 2)


def test_reverse_skeleton_rejects_isolated():
    g = UGraph.from_edges(3, [(0, 1)])
    with pytest.raises(ValueError):
        reverse_skeleton(g)


def skeleton_roundtrip_check(g: UGraph) -> bool:
    """skeleton(reverse_skeleton(g)) matches g under the natural labels."""
    net = reverse_skeleton(g)
    skel = skeleton(net)
    names = g.vertex_names
    middle_of_vertex = {f"v{name}": i for i, name in enumerate(names)}

    # each class must contain exactly one source edge; its head names the vertex
    edge_of = {e.id: e for e in net.edges}
    class_vertex: dict[int, int] = {}
    for idx, cid in enumerate(skel.class_ids):
        src_edges = [edge_of[eid] for eid in skel.classes[cid] if edge_of[eid].tail == net.source]
        if len(src_edges) != 1:
            return False
        class_vertex[idx] = middle_of_vertex[src_edges[0].head]
    if sorted(class_vertex.values()) != list(range(g.num_vertices)):
        return False
    mapped = {
        (min(class_vertex[a], class_vertex[b]), max(class_vertex[a], class_vertex[b]))
        for a, b in skel.graph.edges
    }
    return mapped == set(g.edges)


def test_roundtrip_examples():
    assert skeleton_roundtrip_check(complete_graph(3))
    path4 = UGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert skeleton_roundtrip_check(path4)
    # named vertices holding the terminal-name separator "_"
    named = UGraph.from_edges(4, [(0, 1), (2, 3)], names=["a_b", "c", "a", "b_c"])
    assert skeleton_roundtrip_check(named)
    assert reverse_skeleton(named).terminals == ("t0_1", "t2_3")


@given(st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_roundtrip_random_graphs(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 8)
    edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.5]
    g = UGraph.from_edges(n, edges)
    degs = g.degree_sequence()
    if 0 in degs:
        return
    assert skeleton_roundtrip_check(g)


@pytest.mark.parametrize("q,t", [(2, 1), (3, 1), (2, 2)])
def test_solution_iff_skeleton_homomorphism(q, t):
    # two independent routes must agree on both test networks
    for net in (build_butterfly(), reverse_skeleton(complete_graph(3))):
        skel = skeleton(net)
        target = build_qkneser(q, 2 * t, t)
        hom = find_homomorphism(skel.graph, target)
        code = search_solution(net, q, t)
        assert (hom is not None) == (code is not None)


@given(st.integers(0, 10**9))
@settings(max_examples=25, deadline=None)
def test_solution_iff_homomorphism_random_graphs(seed):
    # for any reverse-skeleton network, scalar solvability over F_q must
    # match the existence of a homomorphism into the complete graph K_{q+1}
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.6]
    g = UGraph.from_edges(n, edges)
    if 0 in g.degree_sequence():
        return
    net = reverse_skeleton(g)
    for q in (2, 3):
        hom = find_homomorphism(skeleton(net).graph, build_qkneser(q, 2, 1))
        code = search_solution(net, q, 1)
        assert (hom is not None) == (code is not None)
