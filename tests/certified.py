"""Graph predicates for the tests, decided by `netgap.certs` on the
certificates the CLI would write for them."""

from netgap.certs import check_certificate
from netgap.graphs import coloring_certificate, homomorphism_certificate


def coloring_ok(g, coloring) -> bool:
    return check_certificate(coloring_certificate(g, coloring))[0]


def homomorphism_ok(g1, g2, phi) -> bool:
    return check_certificate(homomorphism_certificate(g1, g2, phi))[0]
