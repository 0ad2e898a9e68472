"""Graph predicates for the tests, decided by `netgap.certs` on the
certificates the CLI would write for them."""

from netgap.certs import (
    check_certificate,
    coloring_certificate,
    homomorphism_certificate,
    hypergraph_coloring_certificate,
)
from netgap.cli import _named_colors
from netgap.graphs import ugraph_to_json


def _names(g):
    return g.names or tuple(str(v) for v in range(g.num_vertices))


def coloring_ok(g, coloring) -> bool:
    cert = coloring_certificate(ugraph_to_json(g), _named_colors(g, coloring))
    return check_certificate(cert)[0]


def hypergraph_coloring_ok(hyper, coloring) -> bool:
    cert = hypergraph_coloring_certificate(hyper.num_vertices, hyper.hyperedges, coloring)
    return check_certificate(cert)[0]


def homomorphism_ok(g1, g2, phi) -> bool:
    names1, names2 = _names(g1), _names(g2)
    cert = homomorphism_certificate(
        ugraph_to_json(g1), ugraph_to_json(g2), {names1[v]: names2[w] for v, w in phi.items()}
    )
    return check_certificate(cert)[0]
