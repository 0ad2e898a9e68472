"""UGraph construction: a graph is its neighbour bitmasks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netgap.graphs import UGraph, complete_graph, ugraph_from_json
from netgap.networks import build_butterfly, build_combination, build_kneser
from netgap.qkneser import build_qkneser
from netgap.skeleton import skeleton


@st.composite
def _listed_pairs(draw):
    """A vertex count and pairs on it, in either order, with repeats."""
    n = draw(st.integers(0, 12))
    if n < 2:
        return n, []
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1]), max_size=40))
    return n, pairs


@settings(max_examples=300, deadline=None)
@given(_listed_pairs())
def test_from_masks_and_from_edges_give_equal_graphs(case):
    n, pairs = case
    masks = [0] * n
    for a, b in pairs:
        masks[a] |= 1 << b
        masks[b] |= 1 << a
    listed = UGraph.from_edges(n, pairs, names=tuple(f"v{i}" for i in range(n)))
    masked = UGraph(n, tuple(masks), names=tuple(f"v{i}" for i in range(n)))
    assert listed == masked and hash(listed) == hash(masked)
    assert list(listed.edges) == sorted({(min(p), max(p)) for p in pairs})
    assert listed.masks == masked.masks == tuple(masks)
    # a graph made from its listed edges has the same masks
    assert UGraph.from_edges(n, listed.edges).masks == tuple(masks)
    assert listed.static_order == UGraph.from_edges(n, listed.edges).static_order
    assert listed.degree_sequence() == [m.bit_count() for m in masks]


def test_masks_labels_and_names_are_the_graph():
    g = UGraph(3, (0b110, 0b001, 0b001))
    assert g.edges == ((0, 1), (0, 2))
    assert g == UGraph.from_edges(3, [(0, 2), (1, 0)]) and hash(g) == hash(UGraph(3, g.masks))
    assert g != UGraph(3, (0b010, 0b001, 0b000))
    assert g != UGraph(3, g.masks, names=("a", "b", "c"))
    assert g.degree_sequence() == [2, 1, 1] and not g.is_complete()


@pytest.mark.parametrize(
    ("n", "masks", "message"),
    [
        (3, ((0, 1), (0, 2), (1, 2)), "out of range"),  # edges where the masks go
        (2, (0b01, 0b00), "self-loop"),
        (2, (0b110, 0b000), "out of range"),
        (2, (-1, 0), "out of range"),
        (3, (0b110, 0b001), "2 masks for 3 vertices"),
        (2, [0b10, 0b01], "must be a tuple"),
    ],
)
def test_from_masks_rejects_what_is_no_simple_graph(n, masks, message):
    with pytest.raises(ValueError, match=message):
        UGraph(n, masks)


@pytest.mark.parametrize(
    ("pairs", "message"), [([(1, 1)], "self-loop"), ([(0, 3)], "out of range"), ([(-1, 0)], "out of range")]
)
def test_from_edges_rejects_loops_and_unknown_vertices(pairs, message):
    with pytest.raises(ValueError, match=message):
        UGraph.from_edges(3, pairs)


@pytest.mark.parametrize(
    "obj",
    [
        {"vertices": "abc", "edges": [["a", "b"], ["b", "c"]]},
        {"vertices": ["a", "b"], "edges": "ab"},
        {"vertices": {"a": 0, "b": 1}, "edges": [["a", "b"]]},
        {"vertices": ["a", "b"], "edges": ["ab"]},
        {"vertices": ["a", "b"], "edges": [["a", "b"], ["a"]]},
        {"vertices": ["a", "b"], "edges": [["a", "b", "a"]]},
        {"vertices": ["a", "b"], "edges": [{"a": "b"}]},
    ],
    ids=["string-vertices", "string-edges", "object-vertices", "string-edge", "one-name-edge",
         "three-name-edge", "object-edge"],
)
def test_graph_json_takes_only_lists(obj):
    # a string would be read one vertex or one edge end per character
    with pytest.raises(ValueError, match="must be lists"):
        ugraph_from_json(obj)


def test_complete_graph_from_masks():
    for n in range(6):
        g = complete_graph(n)
        assert g.is_complete() and len(g.edges) == n * (n - 1) // 2
        assert g == UGraph.from_edges(n, [(a, b) for a in range(n) for b in range(a + 1, n)])


def test_complete_graph_rejects_a_negative_order():
    with pytest.raises(ValueError, match="n=-1"):
        complete_graph(-1)


_BUILDERS = {
    "skeleton-K222": lambda: skeleton(build_kneser(2, 2, 2)).graph,
    "skeleton-N353": lambda: skeleton(build_combination(3, 5, 3)).graph,
    "skeleton-butterfly": lambda: skeleton(build_butterfly()).graph,
    "qkneser-2-4-2": lambda: build_qkneser(2, 4, 2),
    "qkneser-3-4-2": lambda: build_qkneser(3, 4, 2),
    "complete-0": lambda: complete_graph(0),
    "complete-7": lambda: complete_graph(7),
    "from-edges": lambda: UGraph.from_edges(6, [(0, 1), (1, 0), (5, 2), (3, 4), (2, 5)]),
    "from-json": lambda: ugraph_from_json({"vertices": ["a", "b", "c", "d"], "edges": [["a", "c"], ["d", "a"]]}),
}


@pytest.mark.parametrize("name", sorted(_BUILDERS))
def test_every_builder_makes_symmetric_loop_free_masks(name):
    # the constructor does not check symmetry: each builder makes it
    g = _BUILDERS[name]()
    n, masks = g.num_vertices, g.masks
    assert not any(masks[v] >> v & 1 for v in range(n))
    assert all(masks[a] >> b & 1 == masks[b] >> a & 1 for a in range(n) for b in range(n))
    assert g.edges == tuple((a, b) for a in range(n) for b in range(a + 1, n) if masks[a] >> b & 1)
