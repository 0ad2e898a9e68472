"""q-Kneser graphs, exact chromatic number, homomorphisms.

Every coloring here comes from one DSATUR search (`_dsatur`) on the
graph's cached static order.  The greedy coloring is its first dive with
as many colors as vertices, which never backtracks; the chromatic-number
solver runs it for iterated k-colorability tests (every k, or only the
counts its caller needs decided), with a clique pinned to distinct
colors to break color symmetry; homomorphisms into a complete graph are
k-colorings, and into any other graph a walk of `graphs.backtrack` over
its neighbour masks, clique first.  The maximum clique is an ascending
walk of the same walker, whose branches are cut by a greedy coloring of
their candidates.  Where any clique serves (a lower bound, a pin), the
first dive of that walk, `greedy_clique`, gives one without the proof of
maximality.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from .errors import DEFAULT_BUDGET, Budget, BudgetExhausted
from .gf import field_of_order
from .graphs import Coloring, UGraph, backtrack
from .subspaces import (
    DirectSumIndex,
    coordinate_subspace,
    enumerate_subspaces,
    intersection,
    positions,
    spread,
)

# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def build_qkneser(q: int, n: int, m: int) -> UGraph:
    """qK_{n:m}: m-subspaces of F_q^n, adjacent iff trivially intersecting.

    For h >= 2, qK_{ht:t} is also the co-occurrence graph of the direct-sum
    h-sets of t-subspaces (two spaces meeting trivially extend to one by
    h - 2 spaces of a complement), so its chromatic number is that of the
    hypergraph qK^h_{ht:t}.
    """
    if not 1 <= m <= n:
        raise ValueError(f"qK_{{n:m}} needs 1 <= m <= n, got n={n}, m={m}")
    fld = field_of_order(q)
    verts = enumerate_subspaces(fld, n, m)
    masks = DirectSumIndex(verts).pair_masks()
    return UGraph(len(verts), tuple(masks), labels=tuple(verts))


def spread_clique(q: int, t: int) -> tuple[int, ...]:
    """Vertex indices of a (q^t+1)-clique of qK_{2t:t} coming from a t-spread."""
    fld = field_of_order(q)
    members = spread(fld, t)
    return tuple(sorted(positions(enumerate_subspaces(fld, 2 * t, t), members)))


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

def max_clique(g: UGraph, budget: int = DEFAULT_BUDGET) -> tuple[tuple[int, ...], bool]:
    """Exact maximum clique; (clique, completed).

    An ascending `backtrack` walk over the positions in the static order
    (-degree, v), each constrained against all earlier ones: lowest
    candidate first, with every branch cut by the colour classes of its
    candidates.  The bound never cuts a branch holding a larger clique and
    the branching order is kept, so the result is the first maximum clique
    in that order.  One node for the root and one per vertex tried.

    Running out of `budget` nodes returns the longest clique the walk
    reached, a prefix of its current branch, with completed=False; any
    other BudgetExhausted (the wall-clock deadline) propagates.
    """
    order, adj = g.static_order
    best: list[int] = []
    bud = Budget(budget)
    try:
        bud.spend("clique")
        backtrack([range(k) for k in range(len(adj))], adj, bud, "clique", ascending=True, best=best)
        completed = True
    except BudgetExhausted:
        if not bud.out_of_nodes:
            raise
        completed = False
    return tuple(sorted(order[v] for v in best)), completed


def greedy_clique(g: UGraph) -> tuple[int, ...]:
    """A clique: the first dive of `max_clique`'s branching order.

    Takes the lowest candidate in the static order (-degree, v) until none
    is left, which is the first leaf `max_clique` reaches, so it stands to
    `max_clique` as `greedy_coloring` stands to `_dsatur`.  Spends one node
    per clique vertex, so only the wall-clock deadline can stop it.
    """
    order, adj = g.static_order
    bud = Budget()
    clique = []
    candidates = (1 << len(adj)) - 1
    while candidates:
        bud.spend("clique")
        v = (candidates & -candidates).bit_length() - 1
        clique.append(order[v])
        candidates &= adj[v]
    return tuple(sorted(clique))


# ---------------------------------------------------------------------------
# k-colorability (DSATUR branch and bound)
# ---------------------------------------------------------------------------

def _dsatur(
    static: tuple[list[int], list[int]], k: int, pinned: tuple[int, ...], bud: Budget
) -> Coloring | None:
    """Complete search for a proper k-coloring with a clique pinned to colors 0..;
    returns None only after exhausting the (symmetry-reduced) space.

    `static` is a graph's `UGraph.static_order`: its vertices in the order
    (-degree, v) and their neighbour bitmasks relabelled into it.  DSATUR
    picks the most saturated vertex, then the highest degree, then the
    lowest index (with uncolored vertices bucketed by saturation, the lowest
    bit of the highest non-empty bucket), and tries its free colors from 0.
    An explicit stack of frames replaces recursion, so the depth is not
    bounded by the interpreter.  The coloring is listed in the order the
    vertices were colored, pinned vertices first.
    """
    order, adj = static
    n = len(order)
    if len(pinned) > k:
        return None
    at = [order.index(v) for v in pinned]
    # the symmetry reduction is only sound when the pinned set is a clique
    for i, v in enumerate(at):
        assert all(adj[v] >> u & 1 for u in at[i + 1 :]), "pinned set is not a clique"
    # seen[c]: vertices with a neighbour colored c (c is forbidden for them)
    seen = [0] * k
    # level[s]: uncolored vertices whose neighbours use exactly s colors
    level = [0] * (k + 1)
    level[0] = (1 << n) - 1

    def assign(v: int, c: int, s: int, top: int) -> None:
        """Color v, which sits at saturation level s, with c; colors 0..top are then in use."""
        level[s] ^= 1 << v
        gained = adj[v] & ~seen[c]
        if not gained:
            return
        seen[c] |= gained
        # a vertex gaining c saw at most the other top colors; descending,
        # so that it rises by one level only
        for i in range(top, -1, -1):
            rising = level[i] & gained
            if rising:
                level[i] ^= rising
                level[i + 1] |= rising

    for i, v in enumerate(at):
        if seen[i] >> v & 1:
            return None
        assign(v, i, next(s for s in range(k + 1) if level[s] >> v & 1), i)

    # one frame per colored vertex: [vertex, level, color, highest color
    # allowed, highest color in use before it, saved levels, saved seen[color]]
    stack: list[list] = []
    used = len(pinned) - 1  # colors in use are always 0..used
    todo = n - len(pinned)
    while len(stack) < todo:
        s = used + 1 if used < k else k
        while not level[s]:
            s -= 1
        v = (level[s] & -level[s]).bit_length() - 1
        frame = [v, s, -1, used + 1 if used + 1 < k else k - 1, used, None, 0]
        stack.append(frame)
        while True:
            v, s, c, cap, used, saved_level, saved_seen = frame
            if saved_level is not None:  # undo the color tried last
                level[: len(saved_level)] = saved_level
                seen[c] = saved_seen
            c += 1
            while c <= cap and seen[c] >> v & 1:
                c += 1
            if c <= cap:
                break
            stack.pop()
            if not stack:
                return None
            frame = stack[-1]
        bud.spend("coloring")
        top = c if c > used else used
        frame[2], frame[5], frame[6] = c, level[: top + 2], seen[c]
        assign(v, c, s, top)
        used = top
    coloring = {order[v]: c for c, v in enumerate(at)}
    coloring.update((order[f[0]], f[2]) for f in stack)
    return coloring


def greedy_coloring(g: UGraph) -> Coloring:
    """DSATUR greedy: the first dive of `_dsatur` with k = n colors.

    With n colors a free color always exists, so the dive never backtracks:
    it colors the uncolored vertex with the most distinct neighbour colors,
    then the highest degree, then the lowest index, with the least color
    its neighbours leave free.  Spends one node per vertex, so only the
    wall-clock deadline can stop it.
    """
    n = g.num_vertices
    return _dsatur(g.static_order, n, (), Budget())


@dataclass
class ChiResult:
    lo: int
    hi: int
    coloring: Coloring  # proper coloring with hi colors
    clique: tuple[int, ...]  # a clique, pinned to colors 0..; lo >= its size
    nodes_used: int

    @property
    def exact(self) -> bool:
        return self.lo == self.hi

    @property
    def chi(self) -> int:
        if not self.exact:
            raise ValueError(f"chromatic number not resolved: bracket [{self.lo},{self.hi}]")
        return self.hi


def chromatic_number(
    g: UGraph, budget: int = DEFAULT_BUDGET, needed: Callable[[int], bool] | None = None
) -> ChiResult:
    """Exact chromatic number of a graph.

    lo starts at the size of a clique (`greedy_clique`, not a proven
    maximum: any clique bounds chi and may be pinned), hi at the greedy
    coloring's color count.  When the coloring search runs out of budget
    or time, returns the best-known bracket (lo < hi) instead of raising;
    the witness coloring always uses hi colors.  A deadline passed during
    the clique dive or the greedy coloring raises BudgetExhausted.

    `needed(k)`, when given, names the color counts k the caller needs
    decided, and only those are tested: lo rises only past a refuted k and
    hi is the color count of the returned coloring, so no needed k lies in
    [lo, hi) but the bracket may stay open.  By default every k is needed.
    """
    n = g.num_vertices
    if n == 0:
        return ChiResult(0, 0, {}, (), 0)
    if not any(g.masks):
        return ChiResult(1, 1, {v: 0 for v in range(n)}, (0,), 0)
    bud = Budget(budget)
    clique = greedy_clique(g)
    lo = len(clique)
    witness = greedy_coloring(g)
    hi = max(witness.values()) + 1
    if lo >= hi:
        return ChiResult(hi, hi, witness, clique, bud.used)
    for k in range(lo, hi):
        if needed is not None and not needed(k):
            continue
        try:
            found = _dsatur(g.static_order, k, clique, bud)
        except BudgetExhausted:
            return ChiResult(lo, hi, witness, clique, bud.used)
        if found is not None:
            return ChiResult(lo, max(found.values()) + 1, found, clique, bud.used)
        lo = k + 1
    return ChiResult(lo, hi, witness, clique, bud.used)


# ---------------------------------------------------------------------------
# homomorphisms
# ---------------------------------------------------------------------------

def find_homomorphism(g1: UGraph, g2: UGraph, budget: int = DEFAULT_BUDGET) -> dict[int, int] | None:
    """A graph homomorphism g1 -> g2, or None after a complete search.

    Complete-graph targets delegate to the k-coloring search (a map into
    K_k is exactly a proper k-coloring); identical graphs short-circuit to
    the identity.  Any other target is a `backtrack` walk over g2's masks,
    one node per image tried.  Raises BudgetExhausted when undecided.
    """
    if g1.num_vertices == 0:
        return {}
    if not any(g1.masks):
        if g2.num_vertices == 0:
            return None
        return {v: 0 for v in range(g1.num_vertices)}
    if g1.masks == g2.masks:
        return {v: v for v in range(g1.num_vertices)}
    # adjacent vertices get distinct adjacent images, so a clique maps
    # injectively onto a clique: any clique of g1 may be pinned to distinct
    # colors, and any one larger than g2's proven maximum rules a
    # homomorphism out
    clique = greedy_clique(g1)
    if g2.is_complete():
        return _dsatur(g1.static_order, g2.num_vertices, clique, Budget(budget))

    clique2, complete2 = max_clique(g2, budget=max(budget // 10, 1000))
    if complete2 and len(clique) > len(clique2):
        return None

    n1 = g1.num_vertices
    adj1 = g1.masks
    # order: seed with the clique, then most-placed-neighbors first; each
    # image must be adjacent to those of the neighbours placed before it
    order, earlier, placed = [], [], 0
    for i in range(n1):
        v = clique[i] if i < len(clique) else max(
            (u for u in range(n1) if not placed >> u & 1),
            key=lambda u: ((placed & adj1[u]).bit_count(), adj1[u].bit_count(), -u),
        )
        before = adj1[v] & placed
        earlier.append([k for k, u in enumerate(order) if before >> u & 1])
        order.append(v)
        placed |= 1 << v
    images = backtrack(earlier, g2.masks, Budget(budget), "homomorphism")
    return None if images is None else dict(zip(order, images))


# ---------------------------------------------------------------------------
# canonical coloring of qK_{n:m}
# ---------------------------------------------------------------------------

def canonical_coloring(q: int, n: int, m: int) -> Coloring:
    """Proper coloring of qK_{n:m} through a fixed (n-m+1)-subspace.

    Every m-subspace meets S = <e_1,...,e_{n-m+1}> nontrivially; the color
    is the canonically least 1-subspace of the intersection, which is the
    first row r_0 of its RREF: every vector of the intersection starts at
    r_0's pivot p_0 or later, and at each later pivot only its own row is
    nonzero.  Lines are ordered by (p_0, r_0), their canonical order.
    Uses at most (q^{n-m+1}-1)/(q-1) colors.
    """
    if m < 1:
        raise ValueError(f"construction needs m >= 1, got m={m}")
    if n < 2 * m:
        raise ValueError(f"construction needs n >= 2m, got n={n}, m={m}")
    fld = field_of_order(q)
    verts = enumerate_subspaces(fld, n, m)
    s_space = coordinate_subspace(fld, n, n - m + 1)

    line_of_vertex = []
    for v in verts:
        inter = intersection(v, s_space)
        assert inter.dim >= 1
        line_of_vertex.append((inter.pivots[0], inter.row(0)))
    palette = {key: i for i, key in enumerate(sorted(set(line_of_vertex)))}
    return {i: palette[key] for i, key in enumerate(line_of_vertex)}
