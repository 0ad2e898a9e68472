"""UGraph construction: every graph is made from adjacency masks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netgap.graphs import UGraph, complete_graph


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
    masked = UGraph.from_masks(n, masks, names=tuple(f"v{i}" for i in range(n)))
    assert listed == masked and hash(listed) == hash(masked)
    assert list(listed.edges) == sorted({(min(p), max(p)) for p in pairs})
    assert listed.adjacency_masks() == masked.adjacency_masks() == masks
    # a graph made from its edge tuple alone rebuilds the same masks
    assert UGraph(n, listed.edges).adjacency_masks() == masks
    assert listed.static_order == UGraph(n, listed.edges).static_order
    assert listed.degree_sequence() == [m.bit_count() for m in masks]


def test_from_masks_keeps_its_masks_out_of_equality():
    g = UGraph.from_masks(3, [0b110, 0b001, 0b001])
    assert g.edges == ((0, 1), (0, 2))
    assert g == UGraph(3, ((0, 1), (0, 2))) and "_masks" in vars(g)
    # callers get a copy
    g.adjacency_masks()[0] = 0
    assert g.adjacency_masks() == [0b110, 0b001, 0b001]


@pytest.mark.parametrize(
    ("n", "masks", "message"),
    [
        (2, [0b10, 0b00], "not symmetric"),
        (2, [0b01, 0b00], "self-loop"),
        (2, [0b110, 0b000], "out of range"),
        (2, [-1, 0], "out of range"),
        (3, [0b110, 0b001], "2 masks for 3 vertices"),
    ],
)
def test_from_masks_rejects_what_is_no_simple_graph(n, masks, message):
    with pytest.raises(ValueError, match=message):
        UGraph.from_masks(n, masks)


@pytest.mark.parametrize(
    ("pairs", "message"), [([(1, 1)], "self-loop"), ([(0, 3)], "out of range"), ([(-1, 0)], "out of range")]
)
def test_from_edges_rejects_loops_and_unknown_vertices(pairs, message):
    with pytest.raises(ValueError, match=message):
        UGraph.from_edges(3, pairs)


def test_complete_graph_from_masks():
    for n in range(6):
        g = complete_graph(n)
        assert g.is_complete() and len(g.edges) == n * (n - 1) // 2
        assert g == UGraph.from_edges(n, [(a, b) for a in range(n) for b in range(a + 1, n)])
