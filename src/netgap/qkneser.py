"""q-Kneser graphs and hypergraphs, exact chromatic number, homomorphisms.

The chromatic-number solver is a DSATUR branch and bound over iterated
k-colorability tests, with a maximum clique pinned to distinct colors to
break color symmetry.  The maximum clique comes from a branch and bound
whose branches are cut by a greedy coloring of their candidates.
Hypergraph coloring reduces to coloring the co-occurrence graph, since
properness here is a pairwise condition.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

from .errors import Budget, BudgetExhausted, SizeLimitExceeded
from .gf import field_of_order
from .graphs import Coloring, Hypergraph, UGraph
from .subspaces import (
    ENUMERATION_LIMIT,
    DirectSumIndex,
    Subspace,
    coordinate_subspace,
    direct_sum_masks,
    enumerate_subspaces,
    intersection,
    spread,
    subspace_from_rows,
)

DEFAULT_BUDGET = 10**8


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def build_qkneser(q: int, n: int, m: int, *, limit: int = ENUMERATION_LIMIT) -> UGraph:
    """qK_{n:m}: m-subspaces of F_q^n, adjacent iff trivially intersecting."""
    fld = field_of_order(q)
    verts = enumerate_subspaces(fld, n, m, limit=limit)
    masks = direct_sum_masks(verts)
    edges = [(i, j) for i, mask in enumerate(masks) for j in _bits(mask >> (i + 1) << (i + 1))]
    return UGraph.from_edges(len(verts), edges, labels=tuple(verts))


def build_qkneser_hyper(q: int, t: int, h: int, *, limit: int = ENUMERATION_LIMIT) -> Hypergraph:
    """qK^h_{ht:t}: hyperedges are the h-subsets of t-subspaces summing to F_q^{ht}."""
    if h < 2:
        raise ValueError("hypergraph generalization needs h >= 2")
    fld = field_of_order(q)
    verts = enumerate_subspaces(fld, h * t, t, limit=limit)
    n_subsets = 1
    for i in range(h):
        n_subsets = n_subsets * (len(verts) - i) // (i + 1)
    if n_subsets > limit:
        raise SizeLimitExceeded(f"{n_subsets} candidate hyperedges exceed limit {limit}")
    # h t-subspaces sum to F_q^{ht} iff they are in direct sum
    index = DirectSumIndex(verts)
    hyperedges = [
        subset
        for subset in itertools.combinations(range(len(verts)), h)
        if index.in_direct_sum(subset)
    ]
    return Hypergraph.from_hyperedges(len(verts), h, hyperedges, labels=tuple(verts))


def spread_clique(q: int, t: int) -> tuple[int, ...]:
    """Vertex indices of a (q^t+1)-clique of qK_{2t:t} coming from a t-spread."""
    fld = field_of_order(q)
    members = spread(fld, t)
    index = {s.sort_key: i for i, s in enumerate(enumerate_subspaces(fld, 2 * t, t))}
    return tuple(sorted(index[s.sort_key] for s in members))


def qkneser_clique_number(q: int, t: int) -> int:
    """Exact maximum clique size of qK_{2t:t}, which is q^t + 1.

    Upper bound by counting: clique members intersect pairwise trivially,
    so their q^t - 1 nonzero vectors are disjoint inside the q^{2t} - 1
    nonzero vectors of the ambient space.  A t-spread attains it.
    """
    return q**t + 1


# ---------------------------------------------------------------------------
# cliques
# ---------------------------------------------------------------------------

def _degree_order(adj: list[int]) -> tuple[list[int], list[int]]:
    """The static order (-degree, v) and the neighbour masks relabelled into it.

    Position i holds vertex order[i]; in the relabelled masks the vertex
    earliest in the order is the lowest set bit.
    """
    n = len(adj)
    order = sorted(range(n), key=lambda v: (-adj[v].bit_count(), v))
    if not n:  # itemgetter needs an index
        return order, []
    # permute each mask's binary string (most significant bit first) at C
    # speed rather than setting its bits one by one
    width = f"0{n}b"
    pick = operator.itemgetter(*[n - 1 - v for v in reversed(order)])
    return order, [int("".join(pick(format(adj[v], width))), 2) for v in order]


def max_clique(g: UGraph, budget: int = DEFAULT_BUDGET) -> tuple[tuple[int, ...], bool]:
    """Exact maximum clique by branch and bound; (clique, completed).

    Branches on candidates in the static order (-degree, v), lowest first.
    Each node bounds its branches by a greedy colouring of its candidates
    (Tomita & Seki, DMTCS 2003): classes are built from the highest
    candidate down, each taking the highest uncoloured vertex and then
    every lower one not adjacent to the class so far.  A clique among the
    candidates at or above v has at most one vertex per class whose top
    is at or above v, so once v passes the top of class `need` (the
    clique still needs more than `need` vertices to beat the best) every
    later branch is cut.  The bound never cuts a branch holding a larger
    clique and the branching order is kept, so the result is the first
    maximum clique in that order, as without the bound.

    Running out of `budget` nodes returns the best clique with
    completed=False; any other BudgetExhausted (the wall-clock deadline)
    propagates.
    """
    order, adj = _degree_order(g.adjacency_masks())
    best: list[int] = []
    current: list[int] = []
    bud = Budget(budget)

    def expand(candidates: int) -> None:
        nonlocal best
        bud.spend("clique")
        if not candidates:
            if len(current) > len(best):
                best = list(current)
            return
        # tops[i]: the highest vertex of colour class i, decreasing in i
        tops = []
        rest = candidates
        while rest:
            top = rest.bit_length() - 1
            tops.append(top)
            rest ^= 1 << top
            free = rest & ~adj[top]
            while free:
                w = free.bit_length() - 1
                rest ^= 1 << w
                free &= ~adj[w]
                free ^= 1 << w
        while candidates:
            low = candidates & -candidates
            v = low.bit_length() - 1
            need = len(best) - len(current)
            if need >= 0 and (need >= len(tops) or v > tops[need]):
                return
            candidates ^= low
            current.append(v)
            expand(candidates & adj[v])
            current.pop()

    try:
        expand((1 << len(adj)) - 1)
        completed = True
    except BudgetExhausted:
        if not bud.out_of_nodes:
            raise
        completed = False
    return tuple(sorted(order[v] for v in best)), completed


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ---------------------------------------------------------------------------
# k-colorability (DSATUR branch and bound)
# ---------------------------------------------------------------------------

def _k_colorable(adj: list[int], k: int, pinned: tuple[int, ...], bud: Budget) -> Coloring | None:
    """Complete search for a proper k-coloring with a clique pinned to colors 0..;
    returns None only after exhausting the (symmetry-reduced) space.

    `adj` holds neighbour bitmasks.  DSATUR picks the most saturated vertex,
    then the highest degree, then the lowest index: with vertices relabelled
    into the static order (-degree, v) and uncolored vertices bucketed by
    saturation, that is the lowest bit of the highest non-empty bucket.
    """
    n = len(adj)
    # the symmetry reduction is only sound when the pinned set is a clique
    for i, v in enumerate(pinned):
        assert all(adj[v] >> u & 1 for u in pinned[i + 1 :]), "pinned set is not a clique"
    if len(pinned) > k:
        return None
    order, radj = _degree_order(adj)
    pos = {v: i for i, v in enumerate(order)}
    color = [-1] * n
    # seen[c]: vertices with a neighbour colored c (c is forbidden for them)
    seen = [0] * k
    # level[s]: uncolored vertices whose neighbours use exactly s colors
    level = [0] * (k + 1)
    level[0] = (1 << n) - 1

    def assign(v: int, c: int, s: int) -> None:
        """Color v, which sits at saturation level s, with c."""
        color[v] = c
        level[s] ^= 1 << v
        gained = radj[v] & ~seen[c]
        if not gained:
            return
        seen[c] |= gained
        # descending, so that a vertex rises by one level only
        for i in range(k - 1, -1, -1):
            rising = level[i] & gained
            if rising:
                level[i] ^= rising
                level[i + 1] |= rising

    for i, v in enumerate(pinned):
        v = pos[v]
        if seen[i] >> v & 1:
            return None
        assign(v, i, next(s for s in range(k + 1) if level[s] >> v & 1))

    def search(remaining: int, max_used: int) -> bool:
        if remaining == 0:
            return True
        s = k
        while not level[s]:
            s -= 1
        v = (level[s] & -level[s]).bit_length() - 1
        for c in range(min(k - 1, max_used + 1) + 1):
            if seen[c] >> v & 1:
                continue
            bud.spend("coloring")
            saved_level, saved_seen = level[:], seen[c]
            assign(v, c, s)
            if search(remaining - 1, max(max_used, c)):
                return True
            color[v] = -1
            level[:] = saved_level
            seen[c] = saved_seen
        return False

    if search(n - len(pinned), len(pinned) - 1):
        return {v: color[pos[v]] for v in range(n)}
    return None


def greedy_coloring(g: UGraph) -> Coloring:
    """DSATUR greedy; proper but not necessarily optimal.

    Colors the uncolored vertex with the most distinct neighbour colors,
    then the highest degree, then the lowest index, with the least color
    its neighbours leave free: on bitmasks in the static order (-degree,
    v), as in `_k_colorable`.  Spends one node per vertex, so only the
    wall-clock deadline can stop it.
    """
    n = g.num_vertices
    order, radj = _degree_order(g.adjacency_masks())
    bud = Budget(n)
    color: Coloring = {}
    # seen[c]: vertices with a neighbour colored c; level[s]: uncolored
    # vertices whose neighbours use exactly s colors
    seen: list[int] = []
    level = [(1 << n) - 1]
    s = 0
    for _ in range(n):
        bud.spend("coloring")
        while not level[s]:
            s -= 1
        low = level[s] & -level[s]
        level[s] ^= low
        v = low.bit_length() - 1
        c = 0
        while c < len(seen) and seen[c] & low:
            c += 1
        if c == len(seen):
            seen.append(0)
            level.append(0)
        color[order[v]] = c  # in the order picked, as the certificates list it
        gained = radj[v] & ~seen[c]
        seen[c] |= gained
        for i in range(len(level) - 2, -1, -1):
            rising = level[i] & gained
            if rising:
                level[i] ^= rising
                level[i + 1] |= rising
        s = len(level) - 1
    return color


@dataclass
class ChiResult:
    lo: int
    hi: int
    coloring: Coloring  # proper coloring with hi colors
    clique: tuple[int, ...]
    nodes_used: int

    @property
    def exact(self) -> bool:
        return self.lo == self.hi

    @property
    def chi(self) -> int:
        if not self.exact:
            raise ValueError(f"chromatic number not resolved: bracket [{self.lo},{self.hi}]")
        return self.hi


def chromatic_number(target, budget: int = DEFAULT_BUDGET) -> ChiResult:
    """Exact chromatic number of a UGraph or Hypergraph.

    When the coloring search runs out of budget or time, returns the
    best-known bracket (lo < hi) instead of raising; the witness coloring
    always uses hi colors.  A deadline passed during the clique search or
    the greedy coloring raises BudgetExhausted.
    """
    if isinstance(target, Hypergraph):
        return chromatic_number(target.co_occurrence(), budget)
    g: UGraph = target
    n = g.num_vertices
    if n == 0:
        return ChiResult(0, 0, {}, (), 0)
    if not g.edges:
        return ChiResult(1, 1, {v: 0 for v in range(n)}, (0,), 0)
    bud = Budget(budget)
    clique, clique_complete = max_clique(g, budget=max(budget // 10, 1000))
    lo = len(clique) if clique_complete else max(len(clique), 2)
    witness = greedy_coloring(g)
    hi = max(witness.values()) + 1
    if lo >= hi:
        return ChiResult(hi, hi, witness, clique, bud.used)
    adj = g.adjacency_masks()
    k = lo
    while k < hi:
        try:
            found = _k_colorable(adj, k, clique, bud)
        except BudgetExhausted:
            return ChiResult(k, hi, witness, clique, bud.used)
        if found is not None:
            return ChiResult(k, k, found, clique, bud.used)
        k += 1
    return ChiResult(hi, hi, witness, clique, bud.used)


# ---------------------------------------------------------------------------
# homomorphisms
# ---------------------------------------------------------------------------

def find_homomorphism(g1: UGraph, g2: UGraph, budget: int = DEFAULT_BUDGET) -> dict[int, int] | None:
    """A graph homomorphism g1 -> g2, or None after a complete search.

    Complete-graph targets delegate to the k-coloring search (a map into
    K_k is exactly a proper k-coloring); identical graphs short-circuit to
    the identity.  Raises BudgetExhausted when undecided.
    """
    if g1.num_vertices == 0:
        return {}
    if not g1.edges:
        if g2.num_vertices == 0:
            return None
        return {v: 0 for v in range(g1.num_vertices)}
    if g1.num_vertices == g2.num_vertices and set(g1.edges) == set(g2.edges):
        return {v: v for v in range(g1.num_vertices)}
    if g2.is_complete():
        bud = Budget(budget)
        clique, complete = max_clique(g1, budget=max(budget // 10, 1000))
        if not complete:
            clique = clique[:1]
        coloring = _k_colorable(g1.adjacency_masks(), g2.num_vertices, clique, bud)
        return dict(coloring) if coloring is not None else None

    # adjacent vertices get distinct adjacent images, so a clique maps
    # injectively onto a clique; compare maximum cliques when both resolve
    clique, complete1 = max_clique(g1, budget=max(budget // 10, 1000))
    if complete1:
        clique2, complete2 = max_clique(g2, budget=max(budget // 10, 1000))
        if complete2 and len(clique) > len(clique2):
            return None

    n1, n2 = g1.num_vertices, g2.num_vertices
    adj1 = g1.adjacency()
    adj2_mask = g2.adjacency_masks()
    full2 = (1 << n2) - 1

    # order: seed with the clique, then most-placed-neighbors first
    order = list(clique)
    placed = set(order)
    while len(order) < n1:
        v = max(
            (u for u in range(n1) if u not in placed),
            key=lambda u: (len(adj1[u] & placed), len(adj1[u]), -u),
        )
        order.append(v)
        placed.add(v)
    pos_of = {v: i for i, v in enumerate(order)}
    mapped_neighbors = [[u for u in adj1[v] if pos_of[u] < pos_of[v]] for v in order]

    bud = Budget(budget)
    phi: dict[int, int] = {}

    def search(i: int) -> bool:
        if i == n1:
            return True
        v = order[i]
        cand = full2
        for u in mapped_neighbors[i]:
            cand &= adj2_mask[phi[u]]
            if not cand:
                return False
        for w in _bits(cand):
            bud.spend("homomorphism")
            phi[v] = w
            if search(i + 1):
                return True
            del phi[v]
        return False

    if search(0):
        return dict(phi)
    return None


# ---------------------------------------------------------------------------
# canonical coloring of qK_{n:m}
# ---------------------------------------------------------------------------

def canonical_coloring(q: int, n: int, m: int, *, limit: int = ENUMERATION_LIMIT) -> Coloring:
    """Proper coloring of qK_{n:m} through a fixed (n-m+1)-subspace.

    Every m-subspace meets S = <e_1,...,e_{n-m+1}> nontrivially; the color
    is the canonically least 1-subspace of the intersection.  Uses at most
    (q^{n-m+1}-1)/(q-1) colors.
    """
    if n < 2 * m:
        raise ValueError(f"construction needs n >= 2m, got n={n}, m={m}")
    fld = field_of_order(q)
    verts = enumerate_subspaces(fld, n, m, limit=limit)
    s_space = coordinate_subspace(fld, n, n - m + 1)

    def least_line(space: Subspace) -> tuple:
        best = None
        for vec in space.basis.row_combinations():
            if not any(vec):
                continue
            line = subspace_from_rows(fld, [vec], n)
            if best is None or line.sort_key < best:
                best = line.sort_key
        assert best is not None
        return best

    line_of_vertex = []
    for v in verts:
        inter = intersection(v, s_space)
        assert inter.dim >= 1
        line_of_vertex.append(least_line(inter))
    palette = {key: i for i, key in enumerate(sorted(set(line_of_vertex)))}
    return {i: palette[key] for i, key in enumerate(line_of_vertex)}
