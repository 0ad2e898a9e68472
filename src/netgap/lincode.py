"""Linear network codes as per-edge global coding matrices.

A (q,t)-code stores one t x ht matrix per edge.  Verification replays the
code as a certificate through `certs`, which checks the shapes, local
consistency (each outgoing row space inside the stacked incoming one) and
full rank ht at every terminal.  The solution search works over row spaces
directly: a code exists iff edge spaces of dimension <= t can be chosen
with containment at every node and full sum at every terminal, so the
search assigns canonical subspaces edge by edge with pruning, quotienting
out global basis changes by pinning the first source edge.

Two reductions keep the search tree small without losing a solution.  A
node whose accumulated space has dimension <= t forwards that whole space
on each out-edge, since a larger edge space never breaks a downstream
containment or lowers a terminal's rank.  In a full combination network
the middle nodes are interchangeable, so the source spaces after the
pinned first one are taken in non-decreasing candidate order (orderly
generation: one representative per orbit of the middle-node permutations
that fix the first).
"""

from __future__ import annotations

from dataclasses import dataclass

from .certs import Verdict, network_code_verdict
from .errors import DEFAULT_BUDGET, Budget, InternalError
from .gf import (
    FieldSpec,
    Matrix,
    checked_int,
    element_tables,
    field_of_order,
    make_field,
    rank,
    solve_left,
    stack,
)
from .networks import Network, combination_parameters, is_solvable, network_to_json, parallelize
from .subspaces import (
    Subspace,
    coordinate_subspace,
    enumerate_subspaces,
    subspace_from_rows,
    subspace_sum,
    subspaces_up_to_dim,
)


@dataclass(frozen=True)
class NetworkCode:
    field: FieldSpec
    t: int
    h: int
    assignment: dict  # edge id -> Matrix, shape t x (h*t)

    def matrix(self, edge_id: str) -> Matrix:
        return self.assignment[edge_id]


def verify_solution(net: Network, code: NetworkCode) -> Verdict:
    """Replay the code through `certs.network_code_verdict`, the one
    network-code predicate; a malformed network or code raises ValueError."""
    verdict = network_code_verdict(code_certificate(net, code))
    if verdict.failure_kind == "shape":
        raise ValueError(verdict.failure)
    return verdict


def forwarding_code(net: Network, fld: FieldSpec, t: int, matrices) -> NetworkCode:
    """The i-th t x ht matrix on the i-th source edge, forwarded by its middle
    (that edge's head) on each of its out-edges as a plain coding Matrix, so
    a subspace's basis may be passed as it is; ValueError unless every edge
    leaves the source or a middle."""
    middle = {net.head[e]: Matrix(fld, m.rows, m.cols, m.data) for e, m in zip(net.source_edges(), matrices)}
    src = net.index_of(net.source)  # a source edge carries its head's space, any other its tail's
    if not middle.keys() | {src} >= set(net.tail):
        raise ValueError("forwarding needs three layers: every edge leaves the source or a middle")
    ends = zip(net.edge_ids, net.tail, net.head)
    return NetworkCode(fld, t, net.h, {eid: middle[w if v == src else v] for eid, v, w in ends})


def solution_from_classical_code(net: Network, generator: Matrix) -> NetworkCode:
    """Scalar code for a combination network from an h x r generator matrix.

    Column i is the global coding vector of the i-th source edge; middle
    nodes forward.
    """
    params = combination_parameters(net)
    if params is None:
        raise ValueError("network is not a full combination network")
    h, r, _s = params
    if generator.rows != h or generator.cols != r:
        raise ValueError(f"generator must be {h}x{r}, got {generator.rows}x{generator.cols}")
    fld = generator.field
    columns = [Matrix(fld, 1, h, tuple(generator.entry(k, i) for k in range(h))) for i in range(r)]
    return forwarding_code(net, fld, 1, columns)


# ---------------------------------------------------------------------------
# exhaustive solution search
# ---------------------------------------------------------------------------

def _completion_dfs_order(net: Network) -> list[int]:
    """Edge indices in search order: a linear extension that completes merge
    nodes and terminals as early as possible, so rank checks prune early.

    A depth-first walk on an explicit stack of out-edge iterators: a node is
    entered as soon as its last in-edge is scheduled, before the rest of
    its tail's out-edges.
    """
    head = net.head
    remaining_in = net.in_degrees()
    scheduled = []
    seen = bytearray(len(head))
    walk = [iter(net.out_slice(net.index_of(net.source)))]
    while walk:
        for e in walk[-1]:
            if seen[e]:
                continue
            seen[e] = 1
            scheduled.append(e)
            remaining_in[head[e]] -= 1
            if remaining_in[head[e]] == 0:
                walk.append(iter(net.out_slice(head[e])))
                break
        else:
            walk.pop()
    if len(scheduled) != len(head):
        raise ValueError("network has edges unreachable from the source")
    return scheduled


class RunningEchelon:
    """Echelon basis of a growing sum of subspaces, for push/pop use.

    `rows` holds (pivot, row) pairs in insertion order: each row is 1 at its
    pivot and 0 at the pivots of the rows before it, so reducing a vector
    against the rows in order clears every pivot.  `push` appends the
    reduced vectors that stay nonzero and returns how many it appended;
    `pop` drops that many again.  len(rows) is the dimension of the sum.
    """

    __slots__ = ("rows", "_add", "_neg_mul", "_scale")

    def __init__(self, fld: FieldSpec):
        # _neg_mul[c][y] = -c*y, _scale[a][y] = a^{-1}*y; shared, read-only
        self._add, self._neg_mul, self._scale = element_tables(fld)
        self.rows: list[tuple[int, list[int]]] = []

    def push(self, vectors) -> int:
        rows, add = self.rows, self._add
        before = len(rows)
        for vec in vectors:
            for piv, b in rows:
                c = vec[piv]
                if c:
                    m = self._neg_mul[c]
                    vec = [add[x][m[y]] for x, y in zip(vec, b)]
            for j, x in enumerate(vec):
                if x:
                    if x != 1:
                        s = self._scale[x]
                        vec = [s[y] for y in vec]
                    rows.append((j, vec))
                    break
        return len(rows) - before

    def pop(self, count: int) -> None:
        if count:
            del self.rows[-count:]


def search_solution(
    net: Network,
    q: int,
    t: int,
    budget: int = DEFAULT_BUDGET,
) -> NetworkCode | None:
    """Smallest-footprint complete search for a (q,t)-linear solution.

    Returns a verified code, or None when the exhaustive (symmetry-reduced)
    search proves none exists.  Raises BudgetExhausted when undecided:
    running out of budget is never reported as nonexistence.
    """
    if t < 1:
        raise ValueError(f"a (q,t)-linear solution needs t >= 1, got t={t}")
    fld = field_of_order(q)
    nt = net.h * t
    if not is_solvable(net):
        return None  # cut bound: rank at some terminal cannot reach ht

    order = _completion_dfs_order(net)

    def with_rows(spaces) -> list[tuple[Subspace, list]]:
        return [(w, w.row_list()) for w in spaces]

    global_candidates = with_rows(subspaces_up_to_dim(fld, nt, t))
    # <e_1..e_d> for d = t down to 0: canonical representatives per dimension
    first_candidates = with_rows(coordinate_subspace(fld, nt, d) for d in range(t, -1, -1))

    # candidates inside a node's accumulated space, cached per space (an
    # RREF basis determines its space)
    sub_cache: dict = {}

    def candidates_within(space: Subspace) -> list[tuple[Subspace, list]]:
        key = space.data
        cached = sub_cache.get(key)
        if cached is not None:
            return cached
        d = space.dim
        if d <= t:
            # a space that fits in one edge is forwarded whole: enlarging an
            # edge's space keeps every downstream containment and never
            # lowers a terminal's rank, so its proper subspaces add nothing
            out = [space]
        else:
            out = []
            for dim in range(t, -1, -1):
                for abstract in enumerate_subspaces(fld, d, dim):
                    if dim == 0:
                        out.append(subspace_from_rows(fld, [], nt))
                    else:
                        rows = abstract.mul(space).row_list()
                        out.append(subspace_from_rows(fld, rows, nt))
        out = sub_cache[key] = with_rows(out)
        return out

    # edge id -> its space on the current search path; an entry left behind
    # by backtracking is rewritten before it is read again
    assignment: dict = {}
    # the space a node forwards, kept only for nodes with out-edges; a node
    # with one in-edge forwards that edge's (already canonical) subspace
    node_space: dict = {}
    # terminal -> echelon basis of the sum of its assigned in-edge spaces
    echelon = {term: RunningEchelon(fld) for term in net.terminals}
    # In a full combination network every permutation of the middle nodes,
    # with the terminals permuted along, is an automorphism; those fixing the
    # pinned first source edge map any solution to one whose later source
    # spaces sit at non-decreasing positions of global_candidates.  So each
    # later source edge starts at the position the previous one chose.  Any
    # other network is searched unsorted.
    sorted_sources = combination_parameters(net) is not None

    # One plan entry per position of `order`: the edge; its candidates
    # (None: those within its tail's space, known once the tail is
    # complete); the position whose choice starts its candidates (None:
    # start at 0); its head's echelon (None off the terminals); how many of
    # the head's in-edges come later; and the head's in-edge ids when the
    # head then forwards (None otherwise).
    edges, ids = net.edges, net.edge_ids
    remaining = net.in_degrees()
    plan = []
    last_sorted = None
    for i, k in enumerate(order):
        e, head = edges[k], net.head[k]
        remaining[head] -= 1
        after = remaining[head]
        ins = None if after or not net.out_slice(head) else [ids[f] for f in net.in_slice(head)]
        cands, start_from = None, None
        if e.tail == net.source:
            cands = first_candidates if i == 0 else global_candidates
            if sorted_sources and i > 0:
                start_from, last_sorted = last_sorted, i
        plan.append((e, cands, start_from, echelon.get(e.head), after, ins))

    bud = Budget(budget)
    # An explicit stack replaces recursion, so the depth is not bounded by
    # the interpreter: one frame per position on the search path,
    # [candidates, next position, rows the chosen candidate added].
    frames: list[list] = []
    while len(frames) < len(plan):
        e, cands, start_from, ech, after, ins = plan[len(frames)]
        if cands is None:
            cands = candidates_within(node_space[e.tail])
        frame = [cands, 0 if start_from is None else frames[start_from][1] - 1, 0]
        frames.append(frame)
        while True:
            cands, pos, added = frame
            if added:  # undo the candidate tried last
                ech.pop(added)
            for pos in range(pos, len(cands)):
                w, rows = cands[pos]
                bud.spend("solution search")
                assignment[e.id] = w
                added = 0
                if ech is None:
                    break
                # the terminal can still reach rank ht only if every later
                # in-edge adds t more dimensions
                added = ech.push(rows)
                if len(ech.rows) + t * after >= nt:
                    break
                ech.pop(added)
            else:
                frames.pop()
                if not frames:
                    return None
                frame = frames[-1]
                e, _, _, ech, after, ins = plan[len(frames) - 1]
                continue
            frame[1], frame[2] = pos + 1, added
            if ins is not None:
                node_space[e.head] = w if len(ins) == 1 else subspace_sum(
                    [assignment[f] for f in ins]
                )
            break

    mats = {}
    for e in net.edges:
        sub = assignment[e.id]
        rows = sub.row_list() + [(0,) * nt] * (t - sub.dim)
        mats[e.id] = Matrix.from_rows(fld, rows)
    code = NetworkCode(field=fld, t=t, h=net.h, assignment=mats)
    verdict = verify_solution(net, code)
    if not verdict.ok:
        raise InternalError(f"solution search produced a rejected code: {verdict.failure}")
    return code


# ---------------------------------------------------------------------------
# solution transformations
# ---------------------------------------------------------------------------

def split_to_scalar(net: Network, code: NetworkCode) -> tuple[Network, NetworkCode]:
    """Row-split a (q,t)-solution into a (q,1)-solution of the t-parallelized
    network with h*t messages."""
    t = code.t
    par = parallelize(net, t)
    assignment = {}
    for e in net.edges:
        mat = code.assignment[e.id]
        for j in range(1, t + 1):
            assignment[f"{e.id}.{j}"] = Matrix.from_rows(code.field, [mat.row(j - 1)])
    scalar = NetworkCode(field=code.field, t=1, h=net.h * t, assignment=assignment)
    return par, scalar


def _extension_edges(base: Network, ext: Network):
    to_source = [e for e in ext.edges if e.tail == ext.source and e.head == base.source]
    direct = {
        term: [e for e in ext.edges if e.tail == ext.source and e.head == term]
        for term in ext.terminals
    }
    if len(to_source) != base.h:
        raise ValueError("extended network does not match the message-extension construction")
    return to_source, direct


def extend_solution(base: Network, ext: Network, code: NetworkCode) -> NetworkCode:
    """Carry a (q,t)-solution of the base network to its message extension:
    old edges keep their matrices (zero-padded), the new source sends the
    original messages to the old source and the extra ones to terminals."""
    fld, t = code.field, code.t
    h, h_new = base.h, ext.h
    to_source, direct = _extension_edges(base, ext)
    width_new = h_new * t
    assignment = {}
    for e in base.edges:
        mat = code.assignment[e.id]
        rows = [tuple(row) + (0,) * (width_new - mat.cols) for row in mat.row_list()]
        assignment[e.id] = Matrix.from_rows(fld, rows)

    def block_matrix(block: int) -> Matrix:
        return Matrix(fld, t, width_new, coordinate_subspace(fld, width_new, t, block * t).data)

    for i, e in enumerate(to_source):
        assignment[e.id] = block_matrix(i)
    for term in ext.terminals:
        for j, e in enumerate(direct[term]):
            assignment[e.id] = block_matrix(h + j)
    return NetworkCode(field=fld, t=t, h=h_new, assignment=assignment)


def restrict_solution(base: Network, ext: Network, code: NetworkCode) -> NetworkCode:
    """Recover a base-network solution from one on its message extension by
    rewriting every original edge in coordinates of the space entering the
    old source."""
    fld, t = code.field, code.t
    to_source, _ = _extension_edges(base, ext)
    basis = stack(*[code.assignment[e.id] for e in to_source])
    if rank(basis) != base.h * t:
        raise ValueError("old source does not receive the full message space")
    assignment = {}
    for e in base.edges:
        coords = solve_left(basis, code.assignment[e.id])
        if coords is None:
            raise ValueError(f"edge {e.id} carries data outside the old source's space")
        assignment[e.id] = coords
    restricted = NetworkCode(field=fld, t=t, h=base.h, assignment=assignment)
    verdict = verify_solution(base, restricted)
    if not verdict.ok:
        raise ValueError(f"restriction is not a valid base solution: {verdict.failure}")
    return restricted


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def code_to_json(code: NetworkCode) -> dict:
    return {
        "q": code.field.q,
        "p": code.field.p,
        "m": code.field.m,
        "t": code.t,
        "h": code.h,
        "edges": {eid: [list(row) for row in mat.row_list()] for eid, mat in code.assignment.items()},
    }


def code_from_json(obj: dict) -> NetworkCode:
    fld = make_field(obj["p"], obj["m"])
    if fld.q != checked_int(obj["q"], "q"):
        raise ValueError("inconsistent field parameters")
    t, h = checked_int(obj["t"], "t"), checked_int(obj["h"], "h")
    assignment = {}
    for eid, rows in obj["edges"].items():
        assignment[eid] = Matrix.from_rows(fld, rows)
        if assignment[eid].rows != t or assignment[eid].cols != h * t:
            raise ValueError(f"edge {eid}: expected {t}x{h * t} matrix")
    return NetworkCode(field=fld, t=t, h=h, assignment=assignment)


def code_certificate(net: Network, code: NetworkCode, context: str = "") -> dict:
    """The network and the code, replayed by `certs.network_code_verdict`."""
    return {
        "kind": "network-code",
        "context": context,
        "network": network_to_json(net),
        "code": code_to_json(code),
    }
