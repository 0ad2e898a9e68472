"""The certificate checkers: one solver-made certificate of each kind is
accepted, and a tampered copy is rejected by each `return False` branch."""

import json

import pytest

from netgap.certs import check_certificate, network_code_verdict
from netgap.gf import Matrix, make_field, rank, stack
from netgap.graphs import (
    UGraph,
    coloring_certificate,
    complete_graph,
    homomorphism_certificate,
)
from netgap.lincode import code_certificate, search_solution
from netgap.mdsic import ic_certificate, ic_max_size
from netgap.networks import build_butterfly
from netgap.qkneser import build_qkneser, chromatic_number, find_homomorphism


def tampered(cert: dict, edit) -> dict:
    copy = json.loads(json.dumps(cert))
    edit(copy)
    return copy


def assert_rejected(cert: dict, message: str) -> None:
    ok, got = check_certificate(cert)
    assert not ok and message in got, got


# --- coloring ----------------------------------------------------------------

@pytest.fixture(scope="module")
def coloring_cert():
    g = build_qkneser(2, 4, 2)
    res = chromatic_number(g)
    return coloring_certificate(g, res.coloring)


def test_coloring_accepted(coloring_cert):
    assert check_certificate(coloring_cert) == (True, "proper coloring with 6 colors")


def _recolor_an_edge(cert):
    a, b = cert["graph"]["edges"][0]
    cert["colors"][str(b)] = cert["colors"][str(a)]


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda c: c["colors"].pop("0"), "does not cover the vertex set"),
        (_recolor_an_edge, "is monochromatic"),
        (lambda c: c.update(num_colors=5), "claims 5 colors but uses 6"),
    ],
)
def test_coloring_rejected(coloring_cert, edit, message):
    assert_rejected(tampered(coloring_cert, edit), message)


# --- homomorphism ------------------------------------------------------------

@pytest.fixture(scope="module")
def hom_cert():
    c5 = UGraph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    k3 = complete_graph(3)
    phi = find_homomorphism(c5, k3)
    return homomorphism_certificate(c5, k3, phi)


def test_homomorphism_accepted(hom_cert):
    assert check_certificate(hom_cert) == (True, "valid homomorphism")


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda c: c["map"].pop("0"), "not a total function"),
        (lambda c: c["map"].update({"0": "3"}), "not a total function"),
        (lambda c: c["map"].update({"1": c["map"]["0"]}), "maps to non-edge"),
    ],
)
def test_homomorphism_rejected(hom_cert, edit, message):
    assert_rejected(tampered(hom_cert, edit), message)


# --- network code ------------------------------------------------------------

@pytest.fixture(scope="module")
def code_cert():
    net = build_butterfly()
    return code_certificate(net, search_solution(net, 2, 1))


def test_network_code_accepted(code_cert):
    assert check_certificate(code_cert) == (True, "accepted linear solution")


def _one_message_cert(edges, nodes=("s", "a", "t"), source="s", terminals=("t",)) -> dict:
    """A one-message code over F_2 that puts [1] on every edge."""
    network = {
        "h": 1,
        "source": source,
        "terminals": list(terminals),
        "nodes": [{"id": v} for v in nodes],
        "edges": [{"id": eid, "from": a, "to": b} for eid, a, b in edges],
    }
    code = {"q": 2, "p": 2, "m": 1, "t": 1, "h": 1, "edges": {e[0]: [[1]] for e in edges}}
    return {"kind": "network-code", "network": network, "code": code}


def test_forwarding_along_a_path_is_accepted():
    cert = _one_message_cert([("e1", "s", "a"), ("e2", "a", "t")])
    assert network_code_verdict(cert).ok


def _edge_out_of_field(cert):
    cert["code"]["edges"]["e1"] = [[2, 0]]


def _terminal_starved(cert):
    for eid in ("e6", "e8", "e9"):  # v4 forwards x1, so t1 sees x1 twice
        cert["code"]["edges"][eid] = [[1, 0]]


def _local_inconsistency(cert):
    cert["code"]["edges"]["e6"] = [[1, 0]]
    cert["code"]["edges"]["e8"] = [[0, 1]]  # v4 only holds x1


def _t_zero(cert):
    # a (2,0) "code": every matrix is 0 x 0, so every rank check would pass
    cert["code"]["t"] = 0
    cert["code"]["edges"] = {eid: [] for eid in cert["code"]["edges"]}


@pytest.mark.parametrize(
    "edit,kind,message",
    [
        (lambda c: c["code"].update(q=4), "shape", "declares q=4, but p^m = 2"),
        (lambda c: c["code"]["edges"].pop("e9"), "shape", "missing assignment for edge e9"),
        (lambda c: c["code"]["edges"].update(e1=[[1, 0, 0]]), "shape", "matrix must be 1x2"),
        (lambda c: c["code"]["edges"].update(e1=[[1, 0], [0, 1]]), "shape", "matrix must be 1x2"),
        (_edge_out_of_field, "shape", "matrix must be 1x2 over the code's field"),
        (lambda c: c["code"].update(h=3), "shape", "code declares h=3, network has h=2"),
        (lambda c: c["network"]["nodes"].remove({"id": "s"}), "shape", "not among the nodes"),
        (lambda c: c["network"]["nodes"].remove({"id": "t1"}), "shape", "not among the nodes"),
        (lambda c: c["network"]["edges"][0].update(to="x"), "shape", "references unknown node"),
        (_local_inconsistency, "local", "edge e8 leaving node v4 is not computable"),
        (_terminal_starved, "terminal", "terminal t1 has rank 1 < 2"),
        (_t_zero, "shape", "code declares t=0, but t >= 1"),
    ],
)
def test_network_code_rejected(code_cert, edit, kind, message):
    cert = tampered(code_cert, edit)
    verdict = network_code_verdict(cert)
    assert (verdict.ok, verdict.failure_kind) == (False, kind) and message in verdict.failure
    assert_rejected(cert, message)


@pytest.mark.parametrize(
    "edges,nodes,message",
    [
        # the terminal's data circles between a and b and never leaves s
        ([("e1", "a", "b"), ("e2", "b", "a"), ("e3", "b", "t")], "sabt", "contains a cycle"),
        ([("e1", "s", "t"), ("e2", "a", "t")], "sat", "node a has outputs but no inputs"),
        ([("e1", "x", "t")], "st", "edge e1 references unknown node"),
    ],
)
def test_network_structure_rejected(edges, nodes, message):
    assert_rejected(_one_message_cert(edges, nodes=nodes), message)


def test_terminal_ranks_match_the_stacked_inputs(code_cert):
    for edit in (lambda c: None, _terminal_starved):
        cert = tampered(code_cert, edit)
        fld = make_field(2, 1)
        expected = {}
        for term in cert["network"]["terminals"]:
            rows = [
                Matrix.from_rows(fld, cert["code"]["edges"][e["id"]])
                for e in cert["network"]["edges"]
                if e["to"] == term
            ]
            expected[term] = rank(stack(*rows))
        assert network_code_verdict(cert).terminal_ranks == expected
    assert expected == {"t1": 1, "t2": 2}


# --- independent configuration -----------------------------------------------

@pytest.fixture(scope="module")
def ic_cert():
    res = ic_max_size(2, 2, 2, 2)
    return ic_certificate(res.witness, 2)


def test_ic_accepted(ic_cert):
    assert check_certificate(ic_cert) == (
        True, "valid (2;2,2)_2 independent configuration of size 5"
    )


def _t_zero_ic(cert):
    # a (0;2,2)_2 configuration: empty members, each 0-dimensional
    cert["ic"]["t"] = 0
    cert["ic"]["members"] = [[] for _ in cert["ic"]["members"]]


def _duplicate_member(cert):
    cert["ic"]["members"].append(cert["ic"]["members"][0])


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda c: c.update(alpha=0), "alpha=0 is outside 1..2"),
        (lambda c: c.update(alpha=3), "alpha=3 is outside 1..2"),
        (lambda c: c["ic"]["members"][0].pop(), "member is not a t-dimensional subspace"),
        (lambda c: c["ic"]["members"].append([[1, 0, 0, 0], [1, 0, 0, 0]]), "member is not"),
        (lambda c: c["ic"]["members"].append([[1, 0, 0], [0, 1, 0]]), "member is not"),
        (lambda c: c["ic"]["members"].append([[2, 0, 0, 0], [0, 1, 0, 0]]), "member is not"),
        (_duplicate_member, "an alpha-subset fails the direct-sum condition"),
        (_t_zero_ic, "t=0, but a configuration needs t >= 1"),
    ],
)
def test_ic_rejected(ic_cert, edit, message):
    assert_rejected(tampered(ic_cert, edit), message)


def test_unknown_kind_rejected():
    assert check_certificate({"kind": "proof-by-assertion"}) == (
        False, "unknown certificate kind 'proof-by-assertion'"
    )
    # a hypergraph's coloring is certified as its co-occurrence graph's
    stored = {"kind": "hypergraph-coloring", "num_vertices": 2, "hyperedges": [[0, 1]],
              "colors": {"0": 0, "1": 1}, "num_colors": 2}
    assert check_certificate(stored) == (False, "unknown certificate kind 'hypergraph-coloring'")


# --- malformed certificates --------------------------------------------------

@pytest.mark.parametrize(
    ("fixture", "edit"),
    [
        ("coloring_cert", lambda c: c["graph"]["edges"].append(["0", "unlisted"])),
        ("hom_cert", lambda c: c["to"].pop("edges")),
        ("code_cert", lambda c: c["code"].pop("p")),
        ("ic_cert", lambda c: c.update(alpha="2")),
        ("ic_cert", lambda c: c["ic"].pop("t")),
    ],
    ids=["coloring", "homomorphism", "network-code", "ic-alpha", "ic-t"],
)
def test_malformed_certificate_is_rejected_not_raised(request, fixture, edit):
    assert_rejected(tampered(request.getfixturevalue(fixture), edit), "malformed certificate: ")


def test_a_certificate_that_is_no_object_is_rejected():
    assert_rejected([], "malformed certificate: ")
