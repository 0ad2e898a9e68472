"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Expected values are either fixed small constants,
recomputed by an independent in-test oracle, or both.
"""

import itertools
import time
from contextlib import contextmanager

import pytest

from netgap.certs import check_certificate
from netgap.errors import Budget
from netgap.gf import make_field, rank, stack
from netgap.graphs import complete_graph
from netgap.lincode import (
    extend_solution,
    restrict_solution,
    search_solution,
    solution_from_classical_code,
    split_to_scalar,
    verify_solution,
)
from netgap.mdsic import (
    ic_max_size,
    ic_to_solution,
    min_distance,
    rs_code,
    solution_to_ic,
)
from netgap.networks import (
    build_butterfly,
    build_combination,
    build_kneser,
    is_minimal,
    parallelize,
    extend_messages,
)
from netgap.gaplab import gap_exact, psi, qs_exact
from netgap.qkneser import (
    build_qkneser,
    canonical_coloring,
    chromatic_number,
    find_homomorphism,
    max_clique,
    spread_clique,
)
from netgap.skeleton import skeleton
from netgap.subspaces import DirectSumIndex, enumerate_subspaces, gaussian_coefficient

from certified import coloring_ok, homomorphism_ok


@contextmanager
def criterion(number: int, description: str, seconds_allowed: float):
    start = time.time()
    yield
    elapsed = time.time() - start
    assert elapsed < seconds_allowed, f"criterion {number} took {elapsed:.1f}s > {seconds_allowed}s"
    print(f"criterion {number:2d} PASS ({elapsed:6.2f}s): {description}")


def test_c01_subspace_counts():
    with criterion(1, "subspace enumeration counts match Gaussian coefficients", 10):
        for q in (2, 3):
            fld = make_field(q, 1)
            for n in range(7):
                for t in range(n + 1):
                    subs = enumerate_subspaces(fld, n, t)
                    assert len(subs) == gaussian_coefficient(n, t, q)
                    assert len({s.sort_key for s in subs}) == len(subs)


def test_c02_butterfly_pipeline():
    with criterion(2, "butterfly: exact skeleton classes, q_s = q_v = 2, methods agree", 1):
        net = build_butterfly()
        skel = skeleton(net)
        assert skel.classes == {
            "e1": frozenset({"e1", "e3", "e5"}),
            "e2": frozenset({"e2", "e4", "e7"}),
            "e6": frozenset({"e6", "e8", "e9"}),
        }
        assert skel.graph.num_vertices == 3 and len(skel.graph.edges) == 3
        report = gap_exact(net)
        assert report.exact and report.qs.value == 2 and report.qv.value == 2
        assert report.gap == 0
        qs = qs_exact(net)
        assert qs.method == "skeleton-chi" and qs.value == 2
        assert search_solution(net, 2, 1) is not None  # the search route agrees


def _all_independent_sets_of_size(g, size):
    """Backtracking enumeration over the complement; independent of the solvers."""
    n = g.num_vertices
    non_adj = [(1 << n) - 1 & ~(1 << v) for v in range(n)]
    for a, b in g.edges:
        non_adj[a] &= ~(1 << b)
        non_adj[b] &= ~(1 << a)
    out = []

    def extend(chosen, start, allowed):
        if len(chosen) == size:
            out.append(sum(1 << v for v in chosen))
            return
        for v in range(start, n):
            if (allowed >> v) & 1:
                extend(chosen + [v], v + 1, allowed & non_adj[v])

    extend([], 0, (1 << n) - 1)
    return out


def test_c03_chromatic_number_of_2K42():
    with criterion(3, "chi(2K_{4:2}) = 6, 5-coloring infeasibility certified twice", 300):
        g = build_qkneser(2, 4, 2)
        res = chromatic_number(g)
        assert res.exact and res.chi == 6
        assert coloring_ok(g, res.coloring)
        assert len(set(res.coloring.values())) == 6

        # independent 5-infeasibility oracle: a 5-coloring of 35 vertices
        # needs five independent sets of size 7 = alpha(G) tiling the
        # vertex set; enumerate all of them, show no 5 are disjoint
        complement = complete_graph(35)
        comp_edges = set(complement.edges) - set(g.edges)
        from netgap.graphs import UGraph

        comp = UGraph.from_edges(35, comp_edges)
        alpha_clique, complete = max_clique(comp)
        assert complete and len(alpha_clique) == 7
        families = _all_independent_sets_of_size(g, 7)
        assert families, "no maximum independent sets found"
        full = (1 << 35) - 1
        for combo in itertools.combinations(families, 5):
            union = 0
            ok = True
            for mask in combo:
                if union & mask:
                    ok = False
                    break
                union |= mask
            if ok and union == full:
                pytest.fail("found a tiling by independent sets: 5-coloring would exist")


def test_c04_kneser_network_gap_at_2_2():
    with criterion(4, "gap(K_{2,2;2}) = psi(5) - 4 = 1 with certificates", 300):
        net = build_kneser(2, 2, 2)
        report = gap_exact(net)
        assert report.exact
        assert report.qv.value == 4 and report.qv.method == "homomorphism"
        hom = report.qv.certificate
        names = net._skeleton.graph.vertex_names
        assert hom["map"] == {names[v]: str(v) for v in range(35)}  # identity witness
        assert check_certificate(hom) == (True, "valid homomorphism")
        assert report.qs.value == 5 and report.qs.method == "skeleton-chi"
        assert check_certificate(report.qs.certificate) == (True, "proper coloring with 6 colors")
        assert chromatic_number(net._skeleton.graph).chi == 6 and psi(6 - 1) == 5
        assert report.gap == 1 == psi(5) - 4


def test_c05_clique_and_homomorphism_consistency():
    with criterion(5, "2K_{4:2} -> K4 nonexistent, -> K6 found, spread clique of size 5", 60):
        g = build_qkneser(2, 4, 2)
        assert find_homomorphism(g, complete_graph(4)) is None
        phi = find_homomorphism(g, complete_graph(6))
        assert phi is not None and homomorphism_ok(g, complete_graph(6), phi)
        clique = spread_clique(2, 2)
        assert len(clique) == 5
        edge_set = set(g.edges)
        for a, b in itertools.combinations(clique, 2):
            assert (min(a, b), max(a, b)) in edge_set


def test_c06_canonical_coloring_color_counts():
    with criterion(6, "canonical colorings: 15 colors on qK_{5:2}, 13 on qK_{3:1} over F_3", 30):
        for (q, n, m), expected in (((2, 5, 2), 15), ((3, 3, 1), 13)):
            colors = canonical_coloring(q, n, m)
            g = build_qkneser(q, n, m)
            assert coloring_ok(g, colors)
            assert len(set(colors.values())) == expected
            assert expected == (q ** (n - m + 1) - 1) // (q - 1)


def test_c07_hypergraph_chromatic_number():
    with criterion(7, "chi(2K^3_{3:1}) = 7 by solver and by direct brute force", 10):
        # the solver colors qK_{3:1}, the co-occurrence graph of the hypergraph
        res = chromatic_number(build_qkneser(2, 3, 1))
        assert res.exact and res.chi == 7

        # direct hypergraph oracle on the direct-sum 3-subsets of the 7
        # lines of F_2^3: no 6-coloring exists, a 7-coloring does
        lines = enumerate_subspaces(make_field(2, 1), 3, 1)
        hyperedges = DirectSumIndex(lines).direct_sum_subsets(3, Budget())

        def proper(assignment):
            return all(len({assignment[v] for v in he}) == len(he) for he in hyperedges)

        assert not any(
            proper(assignment) for assignment in itertools.product(range(6), repeat=len(lines))
        )
        assert proper(tuple(range(7)))


def test_c08_code_solvability_bridge_both_directions():
    with criterion(8, "N_{2,r,2} solvable over F_q iff r <= q+1, for q in {2,3,4}", 120):
        for q in (2, 3, 4):
            for r in range(2, q + 2):
                code = rs_code(q, r, 2)
                assert min_distance(code) == r - 1
                net = build_combination(2, r, 2)
                verdict = verify_solution(net, solution_from_classical_code(net, code.generator))
                assert verdict.ok and len(verdict.terminal_ranks) == len(net.terminals)
            with pytest.raises(ValueError):
                rs_code(q, q + 2, 2)
        # negative side at r = q+2: no 4 binary words of length 4 at distance 3
        words = list(itertools.product(range(2), repeat=4))
        assert all(
            min(sum(x != y for x, y in zip(a, b)) for a, b in itertools.combinations(subset, 2)) < 3
            for subset in itertools.combinations(words, 4)
        )
        assert search_solution(build_combination(2, 4, 2), 2, 1) is None
        assert search_solution(build_combination(2, 5, 2), 3, 1) is None


def test_c09_independent_configurations():
    with criterion(9, "IC maxima match the size bound; witnesses solve and round-trip", 120):
        for (q, t, h, alpha), expected in (
            ((2, 1, 2, 2), 3),
            ((2, 1, 3, 3), 4),
            ((2, 2, 2, 2), 5),
        ):
            res = ic_max_size(q, t, h, alpha)
            assert res.exact and res.size == expected == res.bound
            code = ic_to_solution(res.witness)
            net = build_combination(h, res.size, h)
            assert verify_solution(net, code).ok
            back = solution_to_ic(net, code)
            assert sorted(s.sort_key for s in back.members) == sorted(
                s.sort_key for s in res.witness.members
            )


def test_c10_zero_gap_for_full_combination_h2():
    with criterion(10, "gap(N_{2,r,2}) = 0 with q_s = q_v = psi(r-1) for r in 3..6", 120):
        for r in range(3, 7):
            net = build_combination(2, r, 2)
            report = gap_exact(net)
            assert report.exact and report.gap == 0
            assert report.qs.value == report.qv.value == psi(r - 1)


def test_c11_minimality_suite():
    with criterion(11, "minimality: builders, parallelization, node dimensions", 60):
        assert is_minimal(build_butterfly())
        for r in range(2, 6):
            assert is_minimal(build_combination(2, r, 2))
        assert is_minimal(build_combination(3, 4, 3))
        assert not is_minimal(build_combination(2, 4, 3))
        assert is_minimal(parallelize(build_butterfly(), 2))
        cases = [
            (build_butterfly(), 2, 1),
            (build_butterfly(), 2, 2),
            (build_combination(2, 4, 2), 3, 1),
            (build_kneser(2, 1, 2), 2, 1),
        ]
        for net, q, t in cases:
            code = search_solution(net, q, t)
            assert code is not None
            ranks = verify_solution(net, code).terminal_ranks
            for node in net.nodes:
                if node in ranks:
                    assert ranks[node] == net.in_degree(node) * t
                elif node != net.source:
                    dim = rank(stack(*(code.matrix(e.id) for e in net.in_edges(node))))
                    assert dim == net.in_degree(node) * t
        # row-splitting maps the (2,2)-solution to a scalar one on 2G
        net = build_butterfly()
        code = search_solution(net, 2, 2)
        par, scalar = split_to_scalar(net, code)
        assert is_minimal(par) and verify_solution(par, scalar).ok


def test_c12_message_extension_equivalence():
    with criterion(12, "message extension preserves (q,t)-solvability both ways", 120):
        base = build_butterfly()
        for h_new in (3, 4):
            ext = extend_messages(base, h_new)
            for q in (2, 3):
                base_code = search_solution(base, q, 1)
                ext_code = search_solution(ext, q, 1)
                assert (base_code is None) == (ext_code is None)
                assert base_code is not None
                carried = extend_solution(base, ext, base_code)
                assert verify_solution(ext, carried).ok
                recovered = restrict_solution(base, ext, ext_code)
                assert verify_solution(base, recovered).ok


def test_c13_psi_suite():
    with criterion(13, "psi spot values, Bertrand range to 1e6, field-size table", 10):
        # psi(n) <= 2n for every n <= 10^6: worst just above each prime power v
        v = psi(1)
        while v < 10**6:
            nxt = psi(v + 1)
            assert nxt <= 2 * (v + 1), v
            v = nxt
        assert psi(5) == 5 and psi(6) == 7 and psi(10) == 11
        expected = {
            (2, 1): 2, (2, 2): 5, (2, 3): 11,
            (3, 1): 3, (3, 2): 11, (3, 3): 37,
            (5, 1): 5, (5, 2): 29, (5, 3): 149,
        }
        for (q, t), value in expected.items():
            arg = q**t + q ** (t - 1) - 1
            assert psi(arg) == value
            # inline oracle: next integer that is a prime power by trial division
            n = arg
            while True:
                m, p = n, 2
                while p * p <= m:
                    if m % p == 0:
                        while m % p == 0:
                            m //= p
                        break
                    p += 1
                if (m == n and n > 1) or (m == 1 and n > 1):
                    break
                n += 1
            assert n == value
