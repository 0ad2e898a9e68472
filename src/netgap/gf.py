"""Finite fields F_{p^m} and exact dense linear algebra over them.

Field elements are plain ints in [0, q): the base-p digits of the code are
the coefficients of the element written in the polynomial basis, lowest
degree first.  All matrices are row-major tuples of such codes.

This module is the one home of field arithmetic: prime-power
factorisation, polynomials over any F_q (which also give F_{p^m} its
modulus and the spreads their extension field), and the per-field
log/antilog and element tables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import Budget, SizeLimitExceeded

MAX_FIELD_SIZE = 2**20
# Above this order, multiplication falls back to schoolbook reduction
# instead of log/antilog tables.
TABLE_LIMIT = 2**16

Felt = int


# Miller-Rabin with the first 13 primes as bases decides primality for
# every n below PRIME_TEST_LIMIT (Sorenson and Webster, "Strong pseudoprimes
# to twelve prime bases", 2017).  Above it netgap gives no answer rather
# than an unproven one.
PRIME_TEST_LIMIT = 3_317_044_064_679_887_385_961_981
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def strong_probable_prime(n: int, bases: Sequence[int]) -> bool:
    """Miller-Rabin: does odd n, larger than every base, pass the strong
    test to each base?"""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _iroot(n: int, m: int) -> int:
    """floor(n^(1/m)), exact: a float estimate, then corrected."""
    r = int(round(n ** (1 / m)))
    while r**m > n:
        r -= 1
    while (r + 1) ** m <= n:
        r += 1
    return r


def prime_power(n: int) -> tuple[int, int] | None:
    """(p, m) with n = p^m for a prime p and m >= 1, or None.

    Trial division by the primes up to 41, then a deterministic Miller-Rabin
    test, then exact m-th roots.  Raises ValueError for n >= PRIME_TEST_LIMIT,
    where no test is proven.
    """
    if n < 2:
        return None
    if n >= PRIME_TEST_LIMIT:
        raise ValueError(f"{n} is beyond {PRIME_TEST_LIMIT}, where no primality test is proven")
    for p in _PRIME_BASES:
        if n % p == 0:
            m = 0
            while n % p == 0:
                n //= p
                m += 1
            return (p, m) if n == 1 else None
    # no prime factor up to 41: n < 43^2 is prime, and a larger prime
    # power p^m has p >= 43, so m <= log_43 n
    if n < 43 * 43 or strong_probable_prime(n, _PRIME_BASES):
        return n, 1
    top = 2
    while 43 ** (top + 1) <= n:
        top += 1
    # the largest m with an exact root: n = p^m iff that root is prime
    for m in range(top, 1, -1):
        r = _iroot(n, m)
        if r**m == n:
            return (r, m) if strong_probable_prime(r, _PRIME_BASES) else None
    return None


def is_prime(n: int) -> bool:
    pp = prime_power(n)
    return pp is not None and pp[1] == 1


# ---------------------------------------------------------------------------
# field descriptor
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FieldSpec:
    """Descriptor of F_{p^m} with a fixed monic irreducible modulus.

    modulus holds the coefficients low degree first, length m+1, top
    coefficient 1.  For m = 1 the modulus is x (arithmetic is just mod p).
    """

    p: int
    m: int
    modulus: tuple[int, ...]
    q: int

    # -- element codecs ---------------------------------------------------
    def _decode(self, a: Felt) -> list[int]:
        digits = []
        for _ in range(self.m):
            digits.append(a % self.p)
            a //= self.p
        return digits

    def _encode(self, digits: Sequence[int]) -> Felt:
        code = 0
        for d in reversed(digits):
            code = code * self.p + d
        return code

    # -- arithmetic --------------------------------------------------------
    def add(self, a: Felt, b: Felt) -> Felt:
        if self.p == 2:
            return a ^ b
        if self.m == 1:
            return (a + b) % self.p
        da, db = self._decode(a), self._decode(b)
        return self._encode([(x + y) % self.p for x, y in zip(da, db)])

    def neg(self, a: Felt) -> Felt:
        if self.p == 2:
            return a
        if self.m == 1:
            return (-a) % self.p
        return self._encode([(-x) % self.p for x in self._decode(a)])

    def sub(self, a: Felt, b: Felt) -> Felt:
        return self.add(a, self.neg(b))

    def mul(self, a: Felt, b: Felt) -> Felt:
        if self.m == 1:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        if self.q <= TABLE_LIMIT:
            exp, log = _tables(self)
            return exp[log[a] + log[b]]
        return self._mul_schoolbook(a, b)

    def _mul_schoolbook(self, a: Felt, b: Felt) -> Felt:
        fp = make_field(self.p, 1)
        prod = poly_mul(fp, self._decode(a), self._decode(b))
        return self._encode(poly_mod(fp, prod, self.modulus))

    def inv(self, a: Felt) -> Felt:
        if a == 0:
            raise ZeroDivisionError("inversion of zero field element")
        if self.m == 1:
            return pow(a, self.p - 2, self.p)
        if self.q <= TABLE_LIMIT:
            exp, log = _tables(self)
            return exp[(self.q - 1) - log[a]]
        return self.pow(a, self.q - 2)

    def pow(self, a: Felt, k: int) -> Felt:
        out = 1
        base = a
        while k:
            if k & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            k >>= 1
        return out

    def elements(self) -> range:
        return range(self.q)


# ---------------------------------------------------------------------------
# polynomials over a field (coefficient lists, low degree first)
# ---------------------------------------------------------------------------

def _trim(a: list[Felt]) -> list[Felt]:
    while a and a[-1] == 0:
        a.pop()
    return a


def poly_mul(f: FieldSpec, a: Sequence[Felt], b: Sequence[Felt]) -> list[Felt]:
    """Product of two polynomials over f, without trailing zeros."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] = f.add(out[i + j], f.mul(x, y))
    return _trim(out)


def poly_mod(f: FieldSpec, a: Sequence[Felt], b: Sequence[Felt]) -> list[Felt]:
    """Remainder of a modulo b (nonzero top coefficient) over f, without trailing zeros."""
    a = list(a)
    inv_lead = f.inv(b[-1])
    while True:
        _trim(a)
        if len(a) < len(b):
            return a
        factor = f.mul(a[-1], inv_lead)
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            if c:
                a[i + shift] = f.sub(a[i + shift], f.mul(factor, c))


def _monic(f: FieldSpec, deg: int):
    """Every monic polynomial of degree deg over f, by the base-q code of its
    lower coefficients read low degree first."""
    for code in range(f.q**deg):
        poly = [0] * (deg + 1)
        poly[deg] = 1
        for i in range(deg):
            poly[i] = code % f.q
            code //= f.q
        yield poly


def _irreducible(f: FieldSpec, poly: Sequence[Felt]) -> bool:
    """Exhaustive test: no monic divisor of degree 1..deg(poly)//2."""
    deg = len(poly) - 1
    divisors = (g for d in range(1, deg // 2 + 1) for g in _monic(f, d))
    return deg >= 1 and all(poly_mod(f, poly, g) for g in divisors)


def smallest_irreducible(f: FieldSpec, deg: int) -> list[Felt]:
    """The first monic irreducible polynomial of degree deg over f in _monic order."""
    for poly in _monic(f, deg):
        if _irreducible(f, poly):
            return poly
    raise AssertionError(f"no irreducible polynomial of degree {deg} over F_{f.q}")


# ---------------------------------------------------------------------------
# field construction and per-field tables
# ---------------------------------------------------------------------------

_FIELD_CACHE: dict[tuple[int, int], FieldSpec] = {}
_TABLE_CACHE: dict[FieldSpec, tuple[list[int], list[int]]] = {}
_ELEMENT_TABLE_CACHE: dict[FieldSpec, tuple[list, list, list]] = {}


def _tables(f: FieldSpec) -> tuple[list[int], list[int]]:
    """exp/log tables w.r.t. a fixed primitive element (lazily built)."""
    cached = _TABLE_CACHE.get(f)
    if cached is not None:
        return cached
    order = f.q - 1
    factors = [d for d in range(2, order + 1) if order % d == 0 and is_prime(d)]
    gen = None
    for cand in range(2, f.q):
        if all(_pow_schoolbook(f, cand, order // ell) != 1 for ell in factors):
            gen = cand
            break
    assert gen is not None, "multiplicative group without generator"
    exp = [0] * (2 * order)
    log = [0] * f.q
    val = 1
    for i in range(order):
        exp[i] = val
        exp[i + order] = val
        log[val] = i
        val = f._mul_schoolbook(val, gen)
    _TABLE_CACHE[f] = (exp, log)
    return exp, log


def _pow_schoolbook(f: FieldSpec, a: Felt, k: int) -> Felt:
    out = 1
    while k:
        if k & 1:
            out = f._mul_schoolbook(out, a)
        a = f._mul_schoolbook(a, a)
        k >>= 1
    return out


def element_tables(f: FieldSpec) -> tuple[list[list[Felt]], list[list[Felt]], list]:
    """Shared q x q element tables (add, neg_mul, scale), built once per field.

    add[a][b] = a+b, neg_mul[c][y] = -c*y and scale[a][y] = a^{-1}*y, with
    scale[0] None.  Every caller gets the same lists: index, never modify.
    The 3q^2 entries are built row by row, one node each on a Budget with
    no node limit; tables cut short by the deadline are not cached.
    """
    cached = _ELEMENT_TABLE_CACHE.get(f)
    if cached is None:
        q = f.q
        add, neg_mul, scale = [], [], [None]
        bud = Budget()
        for a in range(q):
            bud.spend_many(3 * q)
            add.append([f.add(a, b) for b in range(q)])
            neg_mul.append([f.neg(f.mul(a, y)) for y in range(q)])
            if a:
                inv = f.inv(a)
                scale.append([f.mul(inv, y) for y in range(q)])
        cached = _ELEMENT_TABLE_CACHE[f] = (add, neg_mul, scale)
    return cached


def checked_int(value, name: str) -> int:
    """`value` if its type is exactly int, so not a bool: the one check on
    every count that a file parser reads, refusing 2.0 or true by name."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def make_field(p: int, m: int) -> FieldSpec:
    """F_{p^m} with modulus smallest_irreducible(F_p, m); F_p itself has modulus x.

    The modulus is the first monic irreducible polynomial in a fixed
    order, so the result is bit-identical across runs.
    """
    checked_int(p, "p")
    checked_int(m, "extension degree m")
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if m < 1:
        raise ValueError(f"extension degree m={m} must be >= 1")
    q = p**m
    if q > MAX_FIELD_SIZE:
        raise SizeLimitExceeded(f"field size {q} exceeds limit {MAX_FIELD_SIZE}")
    cached = _FIELD_CACHE.get((p, m))
    if cached is not None:
        return cached
    field = FieldSpec(p=p, m=1, modulus=(0, 1), q=p)
    if m > 1:
        field = FieldSpec(p=p, m=m, modulus=tuple(smallest_irreducible(field, m)), q=q)
    _FIELD_CACHE[(p, m)] = field
    return field


def field_of_order(q: int) -> FieldSpec:
    """The field of size q, for q any prime power."""
    pp = prime_power(q)
    if pp is None:
        raise ValueError(f"q={q} is not a prime power")
    return make_field(*pp)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix over a FieldSpec, row-major element codes."""

    field: FieldSpec
    rows: int
    cols: int
    data: tuple[Felt, ...]

    def __post_init__(self):
        if len(self.data) != self.rows * self.cols:
            raise ValueError("data length does not match shape")

    @classmethod
    def from_rows(cls, field: FieldSpec, rows: Iterable[Sequence[Felt]]) -> "Matrix":
        rows = [tuple(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
        data = tuple(x for r in rows for x in r)
        return cls(field=field, rows=len(rows), cols=ncols, data=data)

    @classmethod
    def zeros(cls, field: FieldSpec, rows: int, cols: int) -> "Matrix":
        return cls(field=field, rows=rows, cols=cols, data=(0,) * (rows * cols))

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "Matrix":
        data = [0] * (n * n)
        for i in range(n):
            data[i * n + i] = 1
        return cls(field=field, rows=n, cols=n, data=tuple(data))

    def entry(self, i: int, j: int) -> Felt:
        return self.data[i * self.cols + j]

    def row(self, i: int) -> tuple[Felt, ...]:
        return self.data[i * self.cols : (i + 1) * self.cols]

    def row_list(self) -> list[tuple[Felt, ...]]:
        return [self.row(i) for i in range(self.rows)]

    def row_combinations(self):
        """Every combination of the rows, coefficient tuples in itertools.product
        order over the field elements: q^rows vectors, so only small row counts."""
        f = self.field
        rows = self.row_list()
        for coeffs in itertools.product(f.elements(), repeat=self.rows):
            vec = [0] * self.cols
            for c, row in zip(coeffs, rows):
                if c:
                    vec = [f.add(x, f.mul(c, y)) for x, y in zip(vec, row)]
            yield tuple(vec)

    def stack(self, other: "Matrix") -> "Matrix":
        if other.cols != self.cols or other.field != self.field:
            raise ValueError("stack: incompatible shapes or fields")
        return Matrix(self.field, self.rows + other.rows, self.cols, self.data + other.data)

    def mul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows or self.field != other.field:
            raise ValueError("mul: incompatible shapes or fields")
        f = self.field
        out = [0] * (self.rows * other.cols)
        for i in range(self.rows):
            rowbase = i * self.cols
            for k in range(self.cols):
                a = self.data[rowbase + k]
                if a == 0:
                    continue
                obase = k * other.cols
                for j in range(other.cols):
                    b = other.data[obase + j]
                    if b:
                        idx = i * other.cols + j
                        out[idx] = f.add(out[idx], f.mul(a, b))
        return Matrix(f, self.rows, other.cols, tuple(out))


def stack(*matrices: Matrix) -> Matrix:
    out = matrices[0]
    for m in matrices[1:]:
        out = out.stack(m)
    return out


def _rref_rows(field: FieldSpec, rows: list[list[Felt]], ncols: int) -> tuple[list[list[Felt]], list[int]]:
    """In-place reduced row echelon form; returns (rows, pivot columns)."""
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = field.inv(rows[r][col])
        if inv != 1:
            rows[r] = [field.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [field.sub(x, field.mul(factor, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rref(mat: Matrix) -> tuple[Matrix, int, tuple[int, ...]]:
    """Unique reduced row echelon form; returns (R, rank, pivot columns)."""
    rows = [list(mat.row(i)) for i in range(mat.rows)]
    rows, pivots = _rref_rows(mat.field, rows, mat.cols)
    data = tuple(x for r in rows for x in r)
    return Matrix(mat.field, mat.rows, mat.cols, data), len(pivots), tuple(pivots)


def rank(mat: Matrix) -> int:
    return rref(mat)[1]


def solve_left(basis: Matrix, target: Matrix) -> Matrix | None:
    """X with X @ basis == target, or None if some row is outside the span."""
    if basis.cols != target.cols or basis.field != target.field:
        raise ValueError("solve_left: incompatible matrices")
    f = basis.field
    k, n = basis.rows, basis.cols
    # reduce [basis | I_k]; left part becomes R = T @ basis with T on the right
    aug = [list(basis.row(i)) + [1 if j == i else 0 for j in range(k)] for i in range(k)]
    aug, _ = _rref_rows(f, aug, n + k)
    red = [row[:n] for row in aug]
    trans = [row[n:] for row in aug]
    pivots = []
    for row in red:
        for j, x in enumerate(row):
            if x != 0:
                pivots.append(j)
                break
    out_rows = []
    for i in range(target.rows):
        residual = list(target.row(i))
        coeffs = [0] * k
        for rr, col in enumerate(pivots):
            c = residual[col]
            if c:
                residual = [f.sub(x, f.mul(c, y)) for x, y in zip(residual, red[rr])]
                coeffs[rr] = c
        if any(residual):
            return None
        xrow = [0] * k
        for rr, c in enumerate(coeffs):
            if c:
                xrow = [f.add(x, f.mul(c, t)) for x, t in zip(xrow, trans[rr])]
        out_rows.append(xrow)
    return Matrix.from_rows(f, out_rows) if out_rows else Matrix.zeros(f, 0, k)
