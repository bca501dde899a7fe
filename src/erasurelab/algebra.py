"""Exact arithmetic over small finite fields, with the matrix and polynomial
routines the code constructions and verifiers are built on.

Elements of GF(p^m) are canonical integers in [0, q): the base-p digits of the
integer are the coefficients of the residue polynomial, lowest degree first.
For prime fields this is plain arithmetic mod p. The extension-field modulus
is chosen deterministically (see :func:`field_make`), so matrices serialized
by one run are bit-identical when reloaded by another.

Everything here is pure Python on ints; fields are capped at q <= 2**16,
which is far beyond what any construction in this package needs.
"""

from __future__ import annotations

import math
from functools import lru_cache
from dataclasses import dataclass

from .errors import (
    BadFieldOverride,
    BadParameters,
    DependentColumns,
    DimensionMismatch,
    DivisionByZero,
    FieldMismatch,
    InconsistentSyndrome,
    InvalidPolynomial,
    NotPrimePower,
    SingularBlock,
    TooLarge,
    ZeroElement,
)

_Q_CAP = 1 << 16


def _factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, m) with q = p**m, or raise NotPrimePower."""
    if q < 2:
        raise NotPrimePower(f"field size must be >= 2, got {q}")
    if q > _Q_CAP:
        raise TooLarge(f"field size {q} exceeds the cap {_Q_CAP}")
    factors = _prime_factors(q)
    if len(factors) != 1:
        raise NotPrimePower(f"{q} is not a prime power")
    p = factors[0]
    m = round(math.log(q, p))
    assert p**m == q
    return p, m


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _digits(v: int, p: int, m: int) -> tuple[int, ...]:
    out = []
    for _ in range(m):
        out.append(v % p)
        v //= p
    return tuple(out)


def _monic_irreducible(p: int, m: int) -> tuple[int, ...]:
    """Deterministic modulus: the first monic irreducible of degree m over
    GF(p) when non-leading coefficient vectors are scanned in ascending
    integer encoding sum(c_i * p^i)."""
    fp = field_make(p)
    divisors = []
    for d in range(1, m // 2 + 1):
        for low in range(p**d):
            divisors.append(Poly(fp, _digits(low, p, d) + (1,)))
    for low in range(p**m):
        cand = Poly(fp, _digits(low, p, m) + (1,))
        if not any(poly_divides(g, cand) for g in divisors):
            return cand.coeffs
    raise AssertionError("no irreducible polynomial found")  # unreachable


def _json_int(value, what: str) -> int:
    """An integer read from a JSON document; floats, strings and bools are
    rejected rather than converted."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise BadParameters(f"{what} must be an integer, got {value!r}")
    return value


class Field:
    """GF(p^m) with elements encoded as canonical integers in [0, q).

    Do not instantiate directly; go through :func:`field_make` so that equal
    sizes share one (immutable, table-backed) instance.
    """

    __slots__ = ("q", "p", "m", "modulus", "_exp", "_log", "_gen", "_zech")

    def __init__(self, q: int):
        p, m = _factor_prime_power(q)
        self.q = q
        self.p = p
        self.m = m
        self.modulus: tuple[int, ...] = _monic_irreducible(p, m) if m > 1 else ()
        self._build_tables()

    # -- construction of exp/log tables ---------------------------------

    def _raw_mul(self, a: int, b: int) -> int:
        """Table-free product, used only while bootstrapping the tables."""
        p, m = self.p, self.m
        if m == 1:
            return (a * b) % p
        da, db = _digits(a, p, m), _digits(b, p, m)
        prod = [0] * (2 * m - 1)
        for i, ai in enumerate(da):
            if ai:
                for j, bj in enumerate(db):
                    prod[i + j] = (prod[i + j] + ai * bj) % p
        mod = self.modulus
        for i in range(len(prod) - 1, m - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(m):
                    prod[i - m + j] = (prod[i - m + j] - c * mod[j]) % p
        v = 0
        for d in reversed(prod[:m]):
            v = v * self.p + d
        return v

    def _raw_pow(self, x: int, n: int) -> int:
        r = 1
        while n:
            if n & 1:
                r = self._raw_mul(r, x)
            x = self._raw_mul(x, x)
            n >>= 1
        return r

    def _build_tables(self) -> None:
        q = self.q
        order_factors = _prime_factors(q - 1)
        gen = None
        for g in range(1, q):
            if all(self._raw_pow(g, (q - 1) // r) != 1 for r in order_factors):
                gen = g
                break
        assert gen is not None
        exp = [0] * (2 * (q - 1))
        log = [0] * q
        x = 1
        for i in range(q - 1):
            exp[i] = x
            exp[i + q - 1] = x
            log[x] = i
            x = self._raw_mul(x, gen)
        self._gen = gen
        self._exp = exp
        self._log = log
        # Zech logarithms for odd-characteristic extension fields:
        # 1 + alpha^n = alpha^zech[n], with -1 marking 1 + alpha^n = 0.
        self._zech = None
        if self.m > 1 and self.p != 2:
            p = self.p
            # adding 1 only changes the lowest base-p digit
            plus_one = [x + 1 if x % p != p - 1 else x + 1 - p for x in exp[: q - 1]]
            self._zech = [log[y] if y else -1 for y in plus_one]

    # -- element arithmetic ----------------------------------------------

    def check(self, x: int) -> int:
        """Validate that x is a canonical element encoding."""
        if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < self.q:
            raise BadParameters(f"{x!r} is not an element of GF({self.q})")
        return x

    def add(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        if not a:
            return b
        if not b:
            return a
        # a + b = alpha^i (1 + alpha^(j-i))
        i = self._log[a]
        z = self._zech[(self._log[b] - i) % (self.q - 1)]
        return 0 if z < 0 else self._exp[i + z]

    def neg(self, a: int) -> int:
        if self.m == 1:
            return (-a) % self.p
        if self.p == 2:
            return a
        if not a:
            return 0
        # -1 = alpha^((q-1)/2) in odd characteristic
        return self._exp[self._log[a] + (self.q - 1) // 2]

    def sub(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a - b) % self.p
        if self.p == 2:
            return a ^ b
        if not b:
            return a
        # a - b = a + alpha^j with alpha^j = -b
        j = self._log[b] + (self.q - 1) // 2
        if not a:
            return self._exp[j]
        i = self._log[a]
        z = self._zech[(j - i) % (self.q - 1)]
        return 0 if z < 0 else self._exp[i + z]

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self.m == 1:
            return (a * b) % self.p
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of 0")
        return self._exp[self.q - 1 - self._log[a]]

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise DivisionByZero("division by 0")
        if a == 0:
            return 0
        return self._exp[self._log[a] - self._log[b] + self.q - 1]

    def pow(self, x: int, n: int) -> int:
        if x == 0:
            if n == 0:
                return 1
            if n < 0:
                raise DivisionByZero("negative power of 0")
            return 0
        return self._exp[(self._log[x] * n) % (self.q - 1)]

    def primitive_element(self) -> int:
        """The smallest-encoding generator of the multiplicative group."""
        return self._gen

    def element_order(self, x: int) -> int:
        if x == 0:
            raise ZeroElement("0 has no multiplicative order")
        return (self.q - 1) // math.gcd(self._log[x], self.q - 1)

    # -- misc --------------------------------------------------------------

    def to_json(self) -> dict:
        return {"q": self.q, "modulus": list(self.modulus)}

    @staticmethod
    def from_json(obj: dict) -> "Field":
        fld = field_make(_json_int(obj["q"], "q"))
        mod = tuple(_json_int(c, "modulus entry") for c in obj.get("modulus", []))
        if mod != fld.modulus:
            raise BadFieldOverride(
                f"modulus {list(mod)} is not the canonical one for GF({fld.q})"
            )
        return fld

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Field) and other.q == self.q

    def __hash__(self) -> int:
        return hash(("Field", self.q))

    def __repr__(self) -> str:
        return f"GF({self.q})"


@lru_cache(maxsize=None)
def field_make(q: int) -> Field:
    """Build (or fetch the cached) GF(q).

    q must be a prime power <= 2**16. For extension fields the modulus is the
    lexicographically smallest monic irreducible of degree m over GF(p),
    scanning non-leading coefficient vectors in ascending integer encoding;
    GF(4) gets x^2+x+1, GF(8) gets x^3+x+1, and so on.
    """
    return Field(q)


def smallest_prime_power_at_least(n: int) -> int:
    """The least prime power q with q >= max(n, 2)."""
    q = max(n, 2)
    while True:
        try:
            _factor_prime_power(q)
            return q
        except NotPrimePower:
            q += 1


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Poly:
    """Polynomial over a field; coeffs lowest degree first, no trailing zeros.

    The zero polynomial has coeffs == () and degree -1.
    """

    field: Field
    coeffs: tuple[int, ...]

    def __post_init__(self):
        c = tuple(self.field.check(x) for x in self.coeffs)
        while c and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __repr__(self) -> str:
        return f"Poly(GF({self.field.q}), {list(self.coeffs)})"


def _require_same_field(a: Field, b: Field) -> None:
    if a != b:
        raise FieldMismatch(f"mixed fields GF({a.q}) and GF({b.q})")


def poly_mul(a: Poly, b: Poly) -> Poly:
    _require_same_field(a.field, b.field)
    if a.is_zero() or b.is_zero():
        return Poly(a.field, ())
    f = a.field
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, ai in enumerate(a.coeffs):
        if ai:
            for j, bj in enumerate(b.coeffs):
                out[i + j] = f.add(out[i + j], f.mul(ai, bj))
    return Poly(f, tuple(out))


def poly_divmod(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """Long division: num = q*den + r with deg r < deg den."""
    _require_same_field(num.field, den.field)
    if den.is_zero():
        raise DivisionByZero("polynomial division by zero")
    f = num.field
    rem = list(num.coeffs)
    dd = den.degree
    lead_inv = f.inv(den.coeffs[-1])
    quo = [0] * max(len(rem) - dd, 0)
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i]
        if c:
            qc = f.mul(c, lead_inv)
            quo[i - dd] = qc
            for j, dj in enumerate(den.coeffs):
                rem[i - dd + j] = f.sub(rem[i - dd + j], f.mul(qc, dj))
    return Poly(f, tuple(quo)), Poly(f, tuple(rem[:dd]))


def poly_divides(a: Poly, b: Poly) -> bool:
    """True iff a divides b (a must be nonzero)."""
    if a.is_zero():
        raise DivisionByZero("zero polynomial divides nothing")
    _require_same_field(a.field, b.field)
    if b.is_zero():
        return True
    return poly_divmod(b, a)[1].is_zero()


def x_pow_n_minus_1(field: Field, n: int) -> Poly:
    if n < 1:
        raise BadParameters(f"need n >= 1, got {n}")
    return Poly(field, (field.neg(1),) + (0,) * (n - 1) + (1,))


def zrun(p: Poly) -> int:
    """Length of the longest run of zero coefficients strictly inside p.

    Formally the largest (i2 - i1) - 1 over index pairs i1 < i2 whose strictly
    interior coefficients all vanish; 0 when no interior coefficient is zero.
    Requires degree >= 1 and nonzero constant term, so the runs counted are
    exactly the maximal blocks of consecutive zeros between two nonzero
    coefficients.
    """
    if p.degree < 1:
        raise InvalidPolynomial("need degree >= 1")
    if p.coeffs[0] == 0:
        raise InvalidPolynomial("constant term must be nonzero")
    best = 0
    run = 0
    for c in p.coeffs[1:]:
        if c == 0:
            run += 1
        else:
            best = max(best, run)
            run = 0
    return best  # leading coefficient nonzero => final run already closed


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


class Matrix:
    """Immutable dense matrix over a field; entries are canonical ints."""

    __slots__ = ("field", "data")

    def __init__(self, field: Field, rows):
        data = tuple(tuple(field.check(x) for x in r) for r in rows)
        if not data or not data[0]:
            raise DimensionMismatch("matrix must have at least one row and column")
        width = len(data[0])
        if any(len(r) != width for r in data):
            raise DimensionMismatch("ragged rows")
        self.field = field
        self.data = data

    @property
    def nrows(self) -> int:
        return len(self.data)

    @property
    def ncols(self) -> int:
        return len(self.data[0])

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        return cls(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, field: Field, r: int, c: int) -> "Matrix":
        return cls(field, [[0] * c for _ in range(r)])

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.data)

    def transpose(self) -> "Matrix":
        return Matrix(self.field, list(zip(*self.data)))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        _require_same_field(self.field, other.field)
        if self.ncols != other.nrows:
            raise DimensionMismatch(f"{self.ncols} cols vs {other.nrows} rows")
        f = self.field
        cols = other.ncols
        out = []
        for r in self.data:
            row = []
            for j in range(cols):
                acc = 0
                for x, orow in zip(r, other.data):
                    if x:
                        acc = f.add(acc, f.mul(x, orow[j]))
                row.append(acc)
            out.append(row)
        return Matrix(f, out)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Matrix)
            and other.field == self.field
            and other.data == self.data
        )

    def __hash__(self) -> int:
        return hash((self.field, self.data))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in r) for r in self.data)
        return f"Matrix(GF({self.field.q}), [{body}])"

    def to_json(self) -> dict:
        return {
            "q": self.field.q,
            "modulus": list(self.field.modulus),
            "rows": self.nrows,
            "cols": self.ncols,
            "data": [list(r) for r in self.data],
        }

    @staticmethod
    def from_json(obj: dict) -> "Matrix":
        fld = Field.from_json(obj)
        m = Matrix(fld, obj["data"])
        rows, cols = _json_int(obj["rows"], "rows"), _json_int(obj["cols"], "cols")
        if (m.nrows, m.ncols) != (rows, cols):
            raise DimensionMismatch("declared shape does not match data")
        return m


def _eliminate(field: Field, rows: list[list[int]], cols) -> list[tuple[int, int]]:
    """Gauss-Jordan elimination of ``rows`` in place over ``cols``, in order.

    Pivot rule: for each column in turn, the pivot is the first row with a
    nonzero entry in that column, scanning down from the row after the last
    pivot. That row is swapped up into place, scaled so the pivot is 1, and
    the column is cleared in every other row. A column with no such row is
    skipped, and the loop stops once every row holds a pivot.

    Returns the (row, col) pivots in the order found; pivot i sits in row i.
    Callers read their results off this rule, so every systematic form,
    solution and null-space basis depends on it exactly.
    """
    mul, sub = field.mul, field.sub
    nr = len(rows)
    pivots: list[tuple[int, int]] = []
    for c in cols:
        top = len(pivots)
        for piv in range(top, nr):
            if rows[piv][c]:
                break
        else:
            continue
        rows[top], rows[piv] = rows[piv], rows[top]
        inv = field.inv(rows[top][c])
        if inv != 1:
            rows[top] = [mul(inv, x) for x in rows[top]]
        prow = rows[top]
        for r in range(nr):
            if r != top and rows[r][c]:
                coef = rows[r][c]
                rows[r] = [sub(x, mul(coef, px)) for x, px in zip(rows[r], prow)]
        pivots.append((top, c))
        if top + 1 == nr:
            break
    return pivots


def mat_rank(m: Matrix) -> int:
    """Rank by Gaussian elimination; pivot = first nonzero scanning down."""
    return len(_eliminate(m.field, [list(r) for r in m.data], range(m.ncols)))


def vectors_independent(field: Field, vectors) -> bool:
    """True iff the given coordinate tuples are linearly independent.

    Incremental elimination against an accumulated pivot basis; this is the
    hot path behind every pattern-recoverability check.
    """
    pivots: list[tuple[int, list[int]]] = []
    for vec in vectors:
        v = list(vec)
        for prow, pvec in pivots:
            c = v[prow]
            if c:
                mul = field.mul
                sub = field.sub
                for i, px in enumerate(pvec):
                    if px:
                        v[i] = sub(v[i], mul(c, px))
        lead = None
        for i, x in enumerate(v):
            if x:
                lead = i
                break
        if lead is None:
            return False
        inv = field.inv(v[lead])
        v = [field.mul(inv, x) for x in v]
        pivots.append((lead, v))
    return True


def columns_independent(m: Matrix, cols) -> bool:
    """True iff the selected columns of m are linearly independent."""
    cols = list(cols)
    if len(cols) > m.nrows:
        return False
    return vectors_independent(m.field, [m.col(j) for j in cols])


def systematic_form(m: Matrix, side: str = "left") -> Matrix:
    """Row-reduce so the designated square block becomes the identity.

    side="left" targets the first nrows columns, side="right" the last nrows.
    Raises SingularBlock when the block is not invertible. Only row operations
    are used, so the row space (and hence the code) is unchanged.
    """
    if side not in ("left", "right"):
        raise BadParameters(f"side must be 'left' or 'right', got {side!r}")
    f = m.field
    nr, nc = m.nrows, m.ncols
    if nr > nc:
        raise DimensionMismatch("more rows than columns")
    block = range(nr) if side == "left" else range(nc - nr, nc)
    rows = [list(r) for r in m.data]
    pivot_cols = [c for _, c in _eliminate(f, rows, block)]
    if len(pivot_cols) < nr:
        pc = next(c for c in block if c not in pivot_cols)
        raise SingularBlock(f"designated block is singular at column {pc}")
    return Matrix(f, rows)


def solve_for_columns(h: Matrix, cols, syndrome) -> list[int]:
    """Solve h[:, cols] @ x = syndrome for the unique x.

    Raises DependentColumns when the selected columns are dependent,
    DimensionMismatch on shape errors, and InconsistentSyndrome when the
    (possibly overdetermined) system has no solution.
    """
    cols = list(cols)
    if len(set(cols)) != len(cols) or any(not 0 <= c < h.ncols for c in cols):
        raise DimensionMismatch("column indices must be distinct and in range")
    syndrome = list(syndrome)
    if len(syndrome) != h.nrows:
        raise DimensionMismatch("syndrome length must equal the row count")
    f = h.field
    k = len(cols)
    aug = [[h.data[r][c] for c in cols] + [f.check(syndrome[r])] for r in range(h.nrows)]
    if len(_eliminate(f, aug, range(k))) < k:
        raise DependentColumns("selected columns are linearly dependent")
    for r in range(k, h.nrows):
        if aug[r][k]:
            raise InconsistentSyndrome("known symbols contradict the code")
    return [aug[i][k] for i in range(k)]
