import dataclasses
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netgap.gaplab import is_prime_power
from netgap.gf import (
    Matrix,
    element_tables,
    PRIME_TEST_LIMIT,
    field_of_order,
    is_prime,
    make_field,
    matrix_from_json,
    poly_mod,
    poly_mul,
    prime_power,
    rank,
    rref,
    solve_left,
    smallest_irreducible,
    strong_probable_prime,
)
from netgap.lincode import NetworkCode, RunningEchelon, code_certificate, code_to_json
from netgap.mdsic import IndependentConfiguration, ic_certificate, ic_to_json
from netgap.networks import build_combination, network_from_json, network_to_json
from netgap.subspaces import canonicalize, enumerate_subspaces

EXHAUSTIVE_QS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]


def test_make_field_prime_field_modulus_is_x():
    f = make_field(2, 1)
    assert f.modulus == (0, 1)
    assert f.q == 2


def test_make_field_f4_modulus():
    # unique monic irreducible quadratic over F_2
    assert make_field(2, 2).modulus == (1, 1, 1)


def test_make_field_f9_modulus_matches_lex_scan_oracle():
    # oracle: scan monic quadratics over F_3 in low-degree-first lex order,
    # keep the first with no root (degree 2: no root <=> irreducible)
    def first_irreducible():
        for c0 in range(3):
            for c1 in range(3):
                if all((x * x + c1 * x + c0) % 3 != 0 for x in range(3)):
                    return (c0, c1, 1)
        raise AssertionError

    assert make_field(3, 2).modulus == first_irreducible() == (1, 0, 1)


def _first_irreducible_oracle(p, m):
    """First monic degree-m polynomial over F_p, in low-degree-first code
    order, that is not a product of two monic polynomials of lower degree."""

    def monic(d):
        for code in range(p**d):
            yield tuple(code // p**i % p for i in range(d)) + (1,)

    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
        return tuple(out)

    reducible = {mul(a, b) for d in range(1, m // 2 + 1) for a in monic(d) for b in monic(m - d)}
    return next(f for f in monic(m) if f not in reducible)


def test_make_field_modulus_matches_factor_oracle():
    checked = 0
    for q in range(4, 2**10 + 1):
        p, m = prime_power(q) or (0, 0)
        if m >= 2:
            assert make_field(p, m).modulus == _first_irreducible_oracle(p, m), q
            checked += 1
    assert checked == 26


def test_polynomial_arithmetic_over_an_extension_field():
    # over F_4 = F_2[x]/(x^2+x+1) with codes 0, 1, x=2, x+1=3
    f4 = make_field(2, 2)
    g = smallest_irreducible(f4, 2)
    assert g == [2, 1, 1]  # y^2 + y + x: first monic quadratic over F_4 without a root
    assert all(f4.add(f4.add(f4.mul(y, y), y), 2) != 0 for y in range(4))
    rng = random.Random(11)
    for _ in range(100):
        a = [rng.randrange(4) for _ in range(rng.randrange(6))]
        b = [rng.randrange(4) for _ in range(rng.randrange(1, 4))] + [rng.randrange(1, 4)]
        r = poly_mod(f4, a, b)
        assert len(r) < len(b) and (not r or r[-1])
        # a - r is a multiple of b
        diff = [f4.sub(x, y) for x, y in itertools.zip_longest(a, r, fillvalue=0)]
        assert poly_mod(f4, diff, b) == []
        assert poly_mod(f4, poly_mul(f4, a, b), b) == []


def test_prime_power_matches_brute_force():
    primes = [n for n in range(2, 2000) if all(n % d for d in range(2, n))]
    powers = {p**m: (p, m) for p in primes for m in range(1, 12) if p**m < 2000}
    for n in range(-2, 2000):
        assert prime_power(n) == powers.get(n), n
        assert is_prime(n) == (n in primes)
        assert is_prime_power(n) == (n in powers)
        if n in powers:
            assert (field_of_order(n).p, field_of_order(n).m) == powers[n]
        else:
            with pytest.raises(ValueError, match=f"q={n} is not a prime power"):
                field_of_order(n)


# Miller-Rabin bases proven deterministic for every n < 2^64 (J. Sinclair,
# 2011): a second set, independent of the first 13 primes that netgap uses
SINCLAIR_BASES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)


def test_prime_power_matches_a_second_set_of_bases():
    rng = random.Random(64)
    # above every Sinclair base, so each is a valid witness
    odd = [rng.randrange(2**31, 2**64) | 1 for _ in range(3000)]
    primes = [n for n in odd if strong_probable_prime(n, SINCLAIR_BASES)]
    assert len(primes) > 50
    for n in odd:
        assert is_prime(n) == strong_probable_prime(n, SINCLAIR_BASES), n
    # squares and products of two primes, below the proven limit
    small = [n for n in (rng.randrange(2**31, 2**40) | 1 for _ in range(1000)) if is_prime(n)]
    for p, r in zip(small, small[1:]):
        assert prime_power(p**2) == (p, 2) and prime_power(p * r) is None


def test_prime_power_on_large_arguments():
    # strong pseudoprimes to the first 9 and the first 12 prime bases: the
    # 13th base, 41, is what exposes the second
    spsp_9 = 149491 * 747451 * 34233211
    spsp_12 = 399165290221 * 798330580441
    assert strong_probable_prime(spsp_12, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37))
    assert prime_power(spsp_9) is None and prime_power(spsp_12) is None
    assert prime_power(399165290221) == (399165290221, 1)
    assert prime_power(2**61 - 1) == (2**61 - 1, 1)
    assert prime_power((2**31 - 1) ** 2) == (2**31 - 1, 2)
    assert prime_power(43**14) == (43, 14) and prime_power(3**50) == (3, 50)
    assert prime_power(47**2 * 53**2) is None and prime_power(2**81) == (2, 81)
    # the limit is the smallest strong pseudoprime to all 13 bases: no
    # answer there or above, rather than an unproven one
    assert PRIME_TEST_LIMIT == 1287836182261 * 2575672364521
    assert prime_power(PRIME_TEST_LIMIT - 1) is None  # even
    for n in (PRIME_TEST_LIMIT, 10**30):
        with pytest.raises(ValueError, match="no primality test is proven"):
            prime_power(n)


def test_make_field_rejects_bad_parameters():
    with pytest.raises(ValueError):
        make_field(4, 1)
    with pytest.raises(ValueError):
        make_field(2, 0)
    from netgap.errors import SizeLimitExceeded

    with pytest.raises(SizeLimitExceeded):
        make_field(2, 25)


def test_make_field_deterministic():
    assert make_field(2, 3).modulus == make_field(2, 3).modulus
    assert field_of_order(8) is make_field(2, 3)


def test_felt_examples():
    f2, f3, f4 = make_field(2, 1), make_field(3, 1), make_field(2, 2)
    assert f2.mul(1, 1) == 1
    assert f3.mul(2, 2) == 1
    # x * x = x + 1 modulo x^2+x+1, i.e. code 2 * code 2 = code 3
    assert f4.mul(2, 2) == 3


@pytest.mark.parametrize("q", EXHAUSTIVE_QS)
def test_field_axioms_exhaustive(q):
    f = field_of_order(q)
    elems = list(f.elements())
    for a, b, c in itertools.product(elems, repeat=3):
        assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    for a in elems[1:]:
        assert f.mul(a, f.inv(a)) == 1
    for a in elems:
        assert f.add(a, f.neg(a)) == 0


@pytest.mark.parametrize("q", EXHAUSTIVE_QS)
def test_element_tables_match_field_operations(q):
    f = field_of_order(q)
    add, neg_mul, scale = element_tables(f)
    assert scale[0] is None
    for a, b in itertools.product(f.elements(), repeat=2):
        assert add[a][b] == f.add(a, b)
        assert neg_mul[a][b] == f.neg(f.mul(a, b))
        if a:
            assert scale[a][b] == f.mul(f.inv(a), b)
    # one set of tables per field, read by every running echelon
    ech = RunningEchelon(f)
    assert element_tables(f) is element_tables(make_field(f.p, f.m))
    assert (ech._add, ech._neg_mul, ech._scale) == element_tables(f)
    assert ech._add is add


def test_inv_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        make_field(5, 1).inv(0)


def test_table_mul_matches_schoolbook():
    f = make_field(2, 4)
    rng = random.Random(7)
    for _ in range(200):
        a, b = rng.randrange(16), rng.randrange(16)
        assert f.mul(a, b) == f._mul_schoolbook(a, b)


def test_rref_identity():
    f = make_field(3, 1)
    m = Matrix.identity(f, 4)
    r, rk, piv = rref(m)
    assert r == m and rk == 4 and piv == (0, 1, 2, 3)


def test_rref_rank_one():
    f = make_field(2, 1)
    r, rk, piv = rref(Matrix.from_rows(f, [(1, 1), (1, 1)]))
    assert r.row_list() == [(1, 1), (0, 0)]
    assert rk == 1 and piv == (0,)


def _rank_fraction_free(rows, p):
    """Independent oracle: cross-multiplication elimination, no inverses."""
    rows = [list(r) for r in rows]
    rank_count = 0
    cols = len(rows[0]) if rows else 0
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] % p), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][c] % p:
                a, b = rows[r][c], rows[i][c]
                rows[i] = [(a * y - b * x) % p for x, y in zip(rows[r], rows[i])]
        r += 1
        rank_count += 1
    return rank_count


def test_rref_rank_matches_fraction_free_oracle():
    f = make_field(3, 1)
    rng = random.Random(11)
    for _ in range(50):
        rows = [[rng.randrange(3) for _ in range(6)] for _ in range(4)]
        assert rank(Matrix.from_rows(f, rows)) == _rank_fraction_free(rows, 3)


def test_rref_idempotent_random():
    f = make_field(2, 2)
    rng = random.Random(3)
    for _ in range(30):
        m = Matrix.from_rows(f, [[rng.randrange(4) for _ in range(5)] for _ in range(3)])
        r1, _, _ = rref(m)
        r2, _, _ = rref(r1)
        assert r1 == r2


def test_rowspace_contains_examples():
    # row space containment as the network-code checker tests it:
    # rows(b) lie in rows(a) iff rank(a.stack(b)) == rank(a)
    f = make_field(2, 1)
    a = Matrix.from_rows(f, [(1, 0, 1), (0, 1, 1)])
    assert rank(a.stack(a)) == rank(a)
    zero = Matrix.zeros(f, 2, 3)
    assert rank(zero.stack(Matrix.from_rows(f, [(1, 0, 0)]))) != rank(zero)
    with pytest.raises(ValueError):
        a.stack(Matrix.zeros(f, 1, 2))


def test_rowspace_membership_against_enumeration_oracle():
    f = make_field(2, 1)
    basis = Matrix.from_rows(f, [(1, 0, 1, 1), (0, 1, 1, 0)])
    # oracle: the row space is the set of all F_2-combinations of the rows
    span = set()
    for c0 in range(2):
        for c1 in range(2):
            vec = tuple((c0 * x + c1 * y) % 2 for x, y in zip(basis.row(0), basis.row(1)))
            span.add(vec)
    for vec in itertools.product(range(2), repeat=4):
        expected = vec in span
        assert (rank(basis.stack(Matrix.from_rows(f, [vec]))) == rank(basis)) == expected


@given(st.integers(0, 3 ** 12 - 1))
@settings(max_examples=60, deadline=None)
def test_stack_rank_inequality(seed):
    f = make_field(3, 1)
    digits = [(seed // 3**i) % 3 for i in range(12)]
    a = Matrix.from_rows(f, [digits[0:3], digits[3:6]])
    b = Matrix.from_rows(f, [digits[6:9], digits[9:12]])
    ra, rb, rs = rank(a), rank(b), rank(a.stack(b))
    assert rs >= max(ra, rb)
    # the stack grows the rank iff some single row of b lies outside rows(a)
    assert (rs > ra) == any(rank(a.stack(Matrix.from_rows(f, [row]))) > ra for row in b.row_list())


def test_solve_left_roundtrip():
    f = make_field(2, 2)
    rng = random.Random(5)
    basis = Matrix.from_rows(f, [(1, 0, 2, 3), (0, 1, 1, 1)])
    for _ in range(20):
        coeffs = Matrix.from_rows(f, [[rng.randrange(4) for _ in range(2)] for _ in range(2)])
        target = coeffs.mul(basis)
        x = solve_left(basis, target)
        assert x is not None and x.mul(basis) == target
    outside = Matrix.from_rows(f, [(0, 0, 1, 0)])
    assert solve_left(basis, outside) is None


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
    for n in range(25):
        assert is_prime(n) == (n in primes)


# --- the one reader of a matrix in a file ------------------------------------

def _shape(mat):
    """A matrix by value: a Subspace and the Matrix of its rows compare equal."""
    return mat.field, mat.rows, mat.cols, mat.data


def _read(fld, rows, nrows, ncols):
    # through JSON text, as a file holds it
    return _shape(matrix_from_json(fld, json.loads(json.dumps(rows)), nrows, ncols))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1)]), st.integers(1, 2), st.randoms())
def test_every_matrix_a_writer_writes_reads_back_unchanged(pm, t, rng):
    # code edges, IC members and network labels, bare and in the
    # certificates, each read at the shape its reader asks for
    fld, n = make_field(*pm), 2 * t

    def matrix(rows):
        return Matrix(fld, rows, n, tuple(rng.randrange(fld.q) for _ in range(rows * n)))

    net = build_combination(2, 3, 2)
    labels = {v: canonicalize(fld, matrix(rng.randrange(4))) for v in net.nodes[1:4]}
    net = dataclasses.replace(net, labels=labels)
    code = NetworkCode(fld, t, 2, {eid: matrix(t) for eid in net.edge_ids})
    members = tuple(rng.sample(enumerate_subspaces(fld, n, t), 3))
    config = IndependentConfiguration(fld, t, 2, members)
    cert, ic_cert = code_certificate(net, code), ic_certificate(config, 2)
    for obj in (code_to_json(code), cert["code"]):
        assert {eid: _read(fld, rows, t, n) for eid, rows in obj["edges"].items()} == {
            eid: _shape(mat) for eid, mat in code.assignment.items()
        }
    for obj in (ic_to_json(config), ic_cert["ic"]):
        assert [_read(fld, rows, t, n) for rows in obj["members"]] == list(map(_shape, members))
    for obj in (network_to_json(net), cert["network"]):
        assert obj["ambient"] == n
        assert {v: _read(fld, rows, None, n) for v, rows in obj["labels"].items()} == {
            v: _shape(label) for v, label in labels.items()
        }
        assert network_from_json(json.loads(json.dumps(obj))).labels == labels


def _bad_value(kind, q):
    """A strategy for one value of the given kind that no matrix over F_q holds."""
    return {
        "float": st.floats(),
        "bool": st.booleans(),
        "string": st.text(),
        "null": st.none(),
        "negative": st.integers(max_value=-1),
        "at-least-q": st.integers(min_value=q),
    }[kind]


@pytest.mark.parametrize(
    "kind", ["float", "bool", "string", "null", "negative", "at-least-q", "ragged", "wrong-width"]
)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_the_matrix_reader_refuses_each_bad_value_naming_it(kind, data):
    q = data.draw(st.sampled_from([2, 3, 4, 5]), "q")
    fld = field_of_order(q)
    nrows, ncols = data.draw(st.integers(1, 3), "nrows"), data.draw(st.integers(1, 4), "ncols")
    rows = [[data.draw(st.integers(0, q - 1)) for _ in range(ncols)] for _ in range(nrows)]
    i = data.draw(st.integers(0, nrows - 1), "row")
    if kind == "ragged":  # one row of another length
        length = data.draw(st.integers(0, 5).filter(lambda k: k != ncols), "length")
        bad = rows[i] = [0] * length
    elif kind == "wrong-width":  # every row of another, common length
        width = data.draw(st.integers(0, 5).filter(lambda k: k != ncols), "width")
        rows = [[0] * width for _ in rows]
        bad = rows[0]
    else:
        bad = rows[i][data.draw(st.integers(0, ncols - 1), "column")] = data.draw(_bad_value(kind, q))
    # labels take any row count, but a label's width is fixed as well
    for expected_rows in (nrows, None):
        with pytest.raises(ValueError) as exc:
            matrix_from_json(fld, rows, expected_rows, ncols)
        assert f"got {bad!r}" in str(exc.value)


@pytest.mark.parametrize(
    "rows, nrows, message",
    [
        (5, 1, "a matrix must be a list of rows, got 5"),
        ({"0": [1, 0]}, None, "a matrix must be a list of rows, got {'0': [1, 0]}"),
        ([[1, 0]], 2, "a matrix must have 2 rows, got 1"),
        (["10"], 1, "a matrix row must be a list of 2 entries, got '10'"),
    ],
    ids=["number", "object", "one-row-short", "string-row"],
)
def test_the_matrix_reader_refuses_what_is_no_list_of_rows(rows, nrows, message):
    with pytest.raises(ValueError) as exc:
        matrix_from_json(make_field(2, 1), rows, nrows, 2)
    assert str(exc.value) == message


def test_a_label_takes_any_row_count():
    fld = make_field(3, 1)
    for rows in ([], [[1, 2, 0]], [[1, 2, 0], [0, 0, 1], [2, 1, 0]]):
        assert _shape(matrix_from_json(fld, rows, None, 3)) == (fld, len(rows), 3, tuple(sum(rows, [])))
