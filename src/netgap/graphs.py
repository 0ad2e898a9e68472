"""Undirected graphs, colorings, their file formats and certificates.

A graph is its neighbour bitmasks; edge pairs are listed from them only
when a graph is written (JSON, DIMACS, DOT and the certificates).
`backtrack` is the one backtracking walk over bitmask domains, behind
homomorphisms (`qkneser.find_homomorphism`), the maximum clique
(`qkneser.max_clique`) and the assignment of one middle space per middle
node (`mdsic._assignment_search`).  Its ascending walks, the
clique and the independent configuration, share one colour-class cut.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

from .errors import Budget
from .subspaces import Subspace


@dataclass(frozen=True)
class UGraph:
    """Simple undirected graph on vertices 0..num_vertices-1, held as its
    neighbour bitmasks: bit u of masks[v] is set iff uv is an edge.

    Vertices may carry subspace labels (q-Kneser graphs) or string names
    (skeleton graphs); both are optional and ignored by the solvers.  The
    constructor checks the masks in O(V), but not their symmetry: every
    builder makes symmetric masks, and `from_edges` is the way in from
    outside.
    """

    num_vertices: int
    masks: tuple[int, ...]
    labels: tuple[Subspace, ...] | None = None
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        n, masks = self.num_vertices, self.masks
        if type(masks) is not tuple:
            raise ValueError(f"masks must be a tuple, not {type(masks).__name__}")
        if len(masks) != n:
            raise ValueError(f"{len(masks)} masks for {n} vertices")
        for v, mask in enumerate(masks):
            if type(mask) is not int or mask < 0 or mask >> n:
                raise ValueError(f"mask {mask!r} of vertex {v} out of range")
            if mask >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")

    @classmethod
    def from_edges(cls, num_vertices, edge_iter, labels=None, names=None) -> "UGraph":
        """The graph of the listed pairs, in either order and with repeats."""
        # one node per listed edge, and only the deadline stops it
        masks = [0] * num_vertices
        for a, b in Budget().each(edge_iter):
            if a == b:
                raise ValueError(f"self-loop at vertex {a}")
            if not (0 <= a < num_vertices and 0 <= b < num_vertices):
                raise ValueError(f"edge ({a},{b}) out of range")
            masks[a] |= 1 << b
            masks[b] |= 1 << a
        return cls(num_vertices, tuple(masks), labels, names)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The sorted pairs a < b, listed from the masks on each read.

        Only the writers read it, after the answer, so it spends nothing.
        """
        pairs = []
        for a, mask in enumerate(self.masks):
            above = mask >> (a + 1)
            while above:
                low = above & -above
                pairs.append((a, a + low.bit_length()))
                above ^= low
        return tuple(pairs)

    @cached_property
    def vertex_names(self) -> tuple[str, ...]:
        """The names, or each vertex's index as a string when there are none."""
        return self.names or tuple(str(v) for v in range(self.num_vertices))

    @cached_property
    def static_order(self) -> tuple[list[int], list[int]]:
        """`degree_order` of the adjacency masks, built once per graph.

        Not a field, so it stays out of equality and hashing.
        """
        return degree_order(self.masks)

    def degree_sequence(self) -> list[int]:
        return [mask.bit_count() for mask in self.masks]

    def is_complete(self) -> bool:
        n = self.num_vertices
        return sum(self.degree_sequence()) == n * (n - 1)


def degree_order(adj: list[int]) -> tuple[list[int], list[int]]:
    """The static order (-degree, v) and the neighbour masks relabelled into it.

    Position i holds vertex order[i]; in the relabelled masks the vertex
    earliest in the order is the lowest set bit.
    """
    n = len(adj)
    order = sorted(range(n), key=lambda v: (-adj[v].bit_count(), v))
    bit = [0] * n
    for i, v in enumerate(order):
        bit[v] = 1 << i
    masks = []
    for v in order:
        # set the relabelled bits one by one: O(degree) steps per mask
        mask, relabelled = adj[v], 0
        while mask:
            low = mask & -mask
            relabelled |= bit[low.bit_length() - 1]
            mask ^= low
        masks.append(relabelled)
    return order, masks


def backtrack(
    earlier: list,
    allowed: list[int],
    bud: Budget,
    what: str = "search",
    *,
    fits: Callable[[list[int], int], bool] | None = None,
    pinned: tuple[int, ...] = (),
    ascending: bool = False,
    best: list[int] | None = None,
) -> list[int] | None:
    """The first assignment of values 0..len(allowed)-1 to positions
    0..len(earlier)-1, or None after a complete search.

    Position k may take value j when j is set in `allowed[v]` for the
    value v of every position in `earlier[k]` and, if given, `fits(values
    of positions 0..k-1, j)` holds.  The `pinned` values take the first
    positions.  Values are tried lowest first, spending one node of `bud`
    (labelled `what`) each.  An explicit stack replaces recursion.

    With `ascending` the values rise along the positions after the pins,
    and `best` holds, in place, the longest prefix reached, also when
    `bud` stops the walk.  Each open position bounds its values by a
    greedy colouring of its candidates (Tomita & Seki, DMTCS 2003): from
    the highest candidate down, each class takes the highest uncoloured
    value, then every lower one not allowed beside the class so far.
    Values from v on take at most one per class whose top is at or above
    v, so once v passes the top of class `need` = len(best) - k the
    values of position k from v on are cut, and a value cut spends no
    node.  The bound needs every position constrained against all
    earlier ones (`earlier[k]` is range(k)), as in every ascending caller.
    """
    best = [] if best is None else best
    chosen: list[int] = []
    full = (1 << len(allowed)) - 1

    def candidates() -> int:
        mask = full
        for p in earlier[len(chosen)]:
            mask &= allowed[chosen[p]]
        return mask

    for j in pinned:
        if not (candidates() >> j & 1 and (fits is None or fits(chosen, j))):
            raise AssertionError(f"pinned value {j} is not allowed at position {len(chosen)}")
        chosen.append(j)
    base, start = len(chosen), 0
    stack: list[int] = []  # per open position past the pins: its untried values
    tops_of: list[list[int]] = []  # with `ascending`, per open position: its class tops
    while len(chosen) < len(earlier):
        if len(chosen) > len(best):
            best[:] = chosen
        mask = candidates() & -(1 << start)
        stack.append(mask)
        if ascending:
            # tops[i]: the highest value of colour class i, decreasing in i
            tops, rest = [], mask
            while rest:
                top = rest.bit_length() - 1
                tops.append(top)
                rest ^= 1 << top
                free = rest & ~allowed[top]
                while free:
                    w = free.bit_length() - 1
                    rest ^= 1 << w
                    free &= ~allowed[w]
                    free ^= 1 << w
            tops_of[len(stack) - 1 :] = [tops]
        # take the next value of the innermost open position
        while stack:
            k = base + len(stack) - 1
            del chosen[k:]  # leave the branch taken last
            untried = stack[-1]
            if ascending and len(best) >= k:
                need, tops = len(best) - k, tops_of[len(stack) - 1]
                untried &= (2 << tops[need]) - 1 if need < len(tops) else 0
            while untried:
                low = untried & -untried
                untried ^= low
                bud.spend(what)
                if fits is None or fits(chosen, low.bit_length() - 1):
                    break
            else:
                stack.pop()
                continue
            stack[-1] = untried
            chosen.append(low.bit_length() - 1)
            start = low.bit_length() if ascending else 0
            break
        else:
            return None
    best[:] = chosen
    return chosen


def complete_graph(n: int) -> UGraph:
    if n < 0:
        raise ValueError(f"K_n needs n >= 0, got n={n}")
    full = (1 << n) - 1
    return UGraph(n, tuple(full ^ (1 << v) for v in range(n)))


Coloring = dict[int, int]


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def ugraph_to_json(g: UGraph) -> dict:
    names = g.vertex_names
    return {
        "vertices": list(names),
        "edges": [[names[a], names[b]] for a, b in g.edges],
    }


def ugraph_from_json(obj: dict) -> UGraph:
    if type(obj["vertices"]) is not list or type(obj["edges"]) is not list:
        raise ValueError("graph vertices and edges must be lists")
    if any(type(e) not in (list, tuple) or len(e) != 2 for e in obj["edges"]):
        raise ValueError("graph edges must be lists of two vertex names")
    names = [str(v) for v in obj["vertices"]]
    index = {name: i for i, name in enumerate(names)}
    if len(index) != len(names):
        raise ValueError("duplicate vertex ids")
    edges = ((index[str(a)], index[str(b)]) for a, b in obj["edges"])
    return UGraph.from_edges(len(names), edges, names=tuple(names))


def ugraph_to_dimacs(g: UGraph) -> str:
    edges = g.edges
    lines = [f"p edge {g.num_vertices} {len(edges)}"]
    lines.extend(f"e {a + 1} {b + 1}" for a, b in edges)
    return "\n".join(lines) + "\n"


def ugraph_to_dot(g: UGraph) -> str:
    names = g.vertex_names
    lines = ["graph G {"]
    for name in names:
        lines.append(f'  "{name}";')
    for a, b in g.edges:
        lines.append(f'  "{names[a]}" -- "{names[b]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# certificates, replayed by `certs.check_certificate`
# ---------------------------------------------------------------------------

def coloring_certificate(g: UGraph, coloring: Coloring, context: str = "") -> dict:
    """The graph (with its subspace labels, if any) and each vertex's color by name."""
    graph = ugraph_to_json(g)
    if g.labels is not None:
        graph["labels"] = {
            str(i): [list(row) for row in s.row_list()] for i, s in enumerate(g.labels)
        }
    names = g.vertex_names
    return {
        "kind": "coloring",
        "context": context,
        "graph": graph,
        "colors": {names[v]: c for v, c in coloring.items()},
        "num_colors": len(set(coloring.values())),
    }


def homomorphism_certificate(g1: UGraph, g2: UGraph, phi: dict, context: str = "") -> dict:
    names1, names2 = g1.vertex_names, g2.vertex_names
    return {
        "kind": "homomorphism",
        "context": context,
        "from": ugraph_to_json(g1),
        "to": ugraph_to_json(g2),
        "map": {names1[v]: names2[w] for v, w in phi.items()},
    }
