"""Reference searches for the tests: the homomorphism search, the
middle-space assignment search and the maximum clique search as each ran
its own backtracking loop, before all three became callers of
`graphs.backtrack`.  The walker must reproduce their trees: the same
maps, spaces and cliques, node for node.  Also the canonical q-Kneser
coloring as it searched every vector of each intersection for the least
line, before it read that line off the intersection's RREF."""

import itertools

from netgap.errors import DEFAULT_BUDGET, Budget, BudgetExhausted
from netgap.gf import field_of_order
from netgap.mdsic import _search_order, standard_frame
from netgap.qkneser import _dsatur, greedy_clique
from netgap.subspaces import (
    DirectSumIndex,
    coordinate_subspace,
    enumerate_subspaces,
    intersection,
    positions,
    subspace_from_rows,
)


def find_homomorphism(g1, g2, budget=DEFAULT_BUDGET):
    """`qkneser.find_homomorphism` with its own loop: the same shortcuts,
    then a clique-first, most-placed-neighbours order searched lowest
    image first, one node per image tried."""
    if g1.num_vertices == 0:
        return {}
    if not any(g1.masks):
        if g2.num_vertices == 0:
            return None
        return {v: 0 for v in range(g1.num_vertices)}
    if g1.masks == g2.masks:
        return {v: v for v in range(g1.num_vertices)}
    clique = greedy_clique(g1)
    if g2.is_complete():
        return _dsatur(g1.static_order, g2.num_vertices, clique, Budget(budget))

    clique2, complete2, _ = max_clique(g2, budget=max(budget // 10, 1000))
    if complete2 and len(clique) > len(clique2):
        return None

    n1 = g1.num_vertices
    adj1, adj2 = g1.masks, g2.masks
    full2 = (1 << g2.num_vertices) - 1

    order, mapped_neighbors, placed = [], [], 0
    for i in range(n1):
        v = clique[i] if i < len(clique) else max(
            (u for u in range(n1) if not placed >> u & 1),
            key=lambda u: ((placed & adj1[u]).bit_count(), adj1[u].bit_count(), -u),
        )
        before = adj1[v] & placed
        mapped_neighbors.append([u for u in range(before.bit_length()) if before >> u & 1])
        order.append(v)
        placed |= 1 << v

    bud = Budget(budget)
    phi = {}
    # one entry per position on the search path: the untried images of its
    # vertex, lowest first
    untried = []
    while len(untried) < n1:
        cand = full2
        for u in mapped_neighbors[len(untried)]:
            cand &= adj2[phi[u]]
            if not cand:
                break
        untried.append(cand)
        while not untried[-1]:
            untried.pop()
            if not untried:
                return None
        cand = untried[-1]
        low = cand & -cand
        untried[-1] = cand ^ low
        bud.spend("homomorphism")
        phi[order[len(untried) - 1]] = low.bit_length() - 1
    return phi


def max_clique(g, budget=DEFAULT_BUDGET):
    """`qkneser.max_clique` with its own loop: (clique, completed, nodes
    used).  One node per node of the tree, the root and the leaves too,
    and a branch the colour bound cuts is never entered.  A stopped search
    returns the longest clique at a leaf reached."""
    order, adj = g.static_order
    best, current = [], []
    bud = Budget(budget)
    # one frame per open node, the k-th extending current[:k]:
    # [its untried candidates, the tops of its colour classes]
    stack = []
    candidates = (1 << len(adj)) - 1
    try:
        while True:
            bud.spend("clique")
            if candidates:
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
                stack.append([candidates, tops])
            elif len(current) > len(best):
                best = list(current)
            # branch on the next candidate of the innermost open node
            while stack:
                frame = stack[-1]
                del current[len(stack) - 1 :]  # leave the branch taken last
                candidates, tops = frame
                if candidates:
                    low = candidates & -candidates
                    v = low.bit_length() - 1
                    need = len(best) - len(current)
                    if need < 0 or (need < len(tops) and v <= tops[need]):
                        frame[0] = candidates ^ low
                        current.append(v)
                        candidates = frame[0] & adj[v]
                        break
                stack.pop()
            else:
                break
        completed = True
    except BudgetExhausted:
        completed = False
    return tuple(sorted(order[v] for v in best)), completed, bud.used


def alpha_ok(index, chosen, new, alpha):
    """Every alpha of chosen + [new] are in direct sum, given chosen is an IC,
    read off the `blocked` masks; for alpha = 2 the pair masks decide."""
    if alpha == 2 or len(chosen) + 1 < alpha:
        return True
    for subset in itertools.combinations(chosen, alpha - 1):
        if index.blocked(subset) >> new & 1:
            return False
    return True


def assignment_search(fld, t, h, alpha, budget, size, edges=None, target=None):
    """`mdsic._assignment_search` with its own loop: (search order, spaces
    of the best prefix, exact, nodes used).  The complete hypergraph's
    ascending walk cuts a value once the candidates from it on cannot
    beat the best prefix, by count; a value cut is never tried, so it
    spends no node, as in the walker.  The walker cuts by colour classes
    instead; on the pair masks of these universes both cut the same
    values, which the node-for-node comparison checks.  A frame that
    meets the size bound ends the search, as it ends the walk; the old
    loop still tried one more member there, refuted by the bound."""
    complete = edges is None
    universe = enumerate_subspaces(fld, h * t, t)
    index = DirectSumIndex(universe)
    pair_ok = index.pair_masks()
    if complete:
        order, pinned = list(range(size)), alpha + (alpha == h)
        earlier = [range(k) for k in range(size + 1)]
        members = [[p] for p in earlier]
    else:
        order, pinned = _search_order(edges, size)
        position = {v: k for k, v in enumerate(order)}
        members = [[] for _ in range(size + 1)]
        for e in dict.fromkeys(frozenset(e) for e in edges):
            last = max(e, key=position.get)
            members[position[last]].append(tuple(sorted(position[u] for u in e if u != last)))
        earlier = [sorted({p for c in cs for p in c}) for cs in members]

    chosen = []

    def candidates():
        mask = index.full
        for p in earlier[len(chosen)]:
            mask &= pair_ok[chosen[p]]
        return mask

    def fits(j):
        return all(alpha_ok(index, [chosen[p] for p in c], j, alpha) for c in members[len(chosen)])

    def reach(mask, j):
        return len(chosen) + bin(mask >> j).count("1") if complete else size

    for i in positions(universe, standard_frame(fld, t, h, alpha)[:pinned]):
        if not (candidates() >> i & 1 and fits(i)):
            raise AssertionError("the standard frame is not an independent configuration")
        chosen.append(i)
    best = list(chosen)
    base = len(chosen)
    bud = Budget(budget)
    # one frame per open node: [its candidate mask, the next universe index to try]
    stack = []
    cand_mask, start = candidates(), 0
    stopped = len(best) == size or (target is not None and len(best) >= target)
    try:
        while not stopped:
            if len(chosen) > len(best):
                best = list(chosen)
                if (target is not None and len(best) >= target) or len(best) == size:
                    stopped = True
                    break
            if reach(cand_mask, start) > len(best):
                stack.append([cand_mask, start])
            while stack:
                frame = stack[-1]
                del chosen[base + len(stack) - 1 :]
                cand_mask, j = frame
                rest = cand_mask >> j
                while rest:
                    j += (rest & -rest).bit_length() - 1
                    if reach(cand_mask, j) <= len(best):
                        rest = 0
                        break
                    bud.spend()
                    if fits(j):
                        break
                    j += 1
                    rest = cand_mask >> j
                if rest:
                    frame[1] = j + 1
                    chosen.append(j)
                    cand_mask, start = candidates(), (j + 1 if complete else 0)
                    break
                stack.pop()
            else:
                break
        exact = not (stopped and target is not None)
    except BudgetExhausted:
        exact = False
    return order, [universe[i] for i in best], exact, bud.used


def canonical_coloring(q, n, m):
    """`qkneser.canonical_coloring` by search: each m-subspace's color is
    the least line, in the canonical order of 1-subspaces, among the spans
    of the nonzero vectors it shares with S = <e_1,...,e_{n-m+1}>."""
    fld = field_of_order(q)
    s_space = coordinate_subspace(fld, n, n - m + 1)

    def least_line(space):
        lines = (
            subspace_from_rows(fld, [vec], n).sort_key
            for vec in space.row_combinations()
            if any(vec)
        )
        return min(lines)

    line_of_vertex = [
        least_line(intersection(v, s_space)) for v in enumerate_subspaces(fld, n, m)
    ]
    palette = {key: i for i, key in enumerate(sorted(set(line_of_vertex)))}
    return {i: palette[key] for i, key in enumerate(line_of_vertex)}
