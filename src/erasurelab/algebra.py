"""Exact arithmetic over small finite fields, with the matrix and polynomial
routines the code constructions and verifiers are built on.

Elements of GF(p^m) are canonical integers in [0, q): the base-p digits of the
integer are the coefficients of the residue polynomial, lowest degree first.
For prime fields this is plain arithmetic mod p. The extension-field modulus
is chosen deterministically (see :func:`field_make`), so matrices serialized
by one run are bit-identical when reloaded by another.

Everything here is pure Python: elements are ints, and the rows of fields
up to q = 16 are bytes (see :func:`_nibble_rows`). Fields are capped at
q <= 2**16, which is far beyond what any construction in this package needs.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce
from dataclasses import dataclass
from itertools import chain

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
)

_Q_CAP = 1 << 16
# fields up to this size keep flat q x q arithmetic tables
_TABLE_CAP = 256
# fields up to this size keep their rows as bytes, one element per 4-bit lane
_NIBBLE_CAP = 16


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


def _spread(x: int, p: int, m: int) -> int:
    """x's base-p digits read in radix 2p-1, where adding two spread
    elements carries from no digit into the next."""
    v = 0
    for d in reversed(_digits(x, p, m)):
        v = v * (2 * p - 1) + d
    return v


def _lanes_mod_p(p: int, d: int) -> list[int]:
    """t[v] for v < (2p-1)**d: the radix-(2p-1) digits of v, each taken mod
    p, read in base p. It maps the sum of two spread elements of d digits
    to their field sum."""
    lane = [c % p for c in range(2 * p - 1)]
    t = [0]
    for _ in range(d):
        t = [c + p * x for x in t for c in lane]
    return t


def _monic_irreducible(p: int, m: int) -> tuple[int, ...]:
    """Deterministic modulus: the first monic irreducible of degree m over
    GF(p) when non-leading coefficient vectors are scanned in ascending
    integer encoding sum(c_i * p^i)."""
    fp = field_make(p)
    divisors = []
    for d in range(1, m // 2 + 1):
        for low in range(p**d):
            divisors.append(_poly(fp, _digits(low, p, d) + (1,)))
    for low in range(p**m):
        cand = _poly(fp, _digits(low, p, m) + (1,))
        if not any(poly_divides(g, cand) for g in divisors):
            return cand.coeffs
    raise AssertionError("no irreducible polynomial found")  # unreachable


def _json_int(value, what: str) -> int:
    """An integer argument or JSON value; floats, strings and bools are
    rejected rather than converted."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise BadParameters(f"{what} must be an integer, got {value!r}")
    return value


def _instance(value, cls, what: str):
    """An argument of type cls; anything else is rejected."""
    if not isinstance(value, cls):
        raise BadParameters(f"{what} must be {cls.__name__}, got {value!r}")
    return value


def _tuple(value, what: str) -> tuple:
    """tuple(value); a value that is not a list is rejected as "what: value"."""
    try:
        return tuple(value)
    except TypeError:
        raise BadParameters(f"{what}: {value!r}") from None


def _built(cls, **values):
    """An instance of the dataclass cls with the given field values, made
    without its __post_init__ checks: for values the package built itself."""
    obj = object.__new__(cls)
    obj.__dict__.update(values)
    return obj


class Field:
    """GF(p^m) with elements encoded as canonical integers in [0, q).

    Do not instantiate directly; go through :func:`field_make` so that equal
    sizes share one (immutable, table-backed) instance.

    Besides the element methods, a field carries two row primitives, the
    only vector arithmetic the kernels use: ``submul(v, c, u)`` is v - c*u
    and ``scale(c, u)`` is c*u. They take any sequences of elements and
    return rows of the type ``row``, which also makes a row from a sequence.
    Which family serves them is decided once, when the field is built: up to
    q = 16 rows are ``bytes`` and each operation is one shift-or and one
    ``bytes.translate`` (_nibble_rows), up to q = 256 rows are lists indexed
    through flat q x q tables (_table_rows), and above that lists built
    through exp/log (_log_rows).
    """

    __slots__ = (
        "q", "p", "m", "modulus", "_exp", "_log", "_zech", "_mt", "_at",
        "row", "submul", "scale",
    )

    def __init__(self, q: int):
        p, m = _factor_prime_power(_json_int(q, "field size"))
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

    def _times(self, g: int):
        """x -> x*g without a digit multiply, for filling the exp table."""
        p, m = self.p, self.m
        if m == 1:
            return lambda x: x * g % p
        # x*g is GF(p)-linear in the digits of x: the sum of its images on
        # the low h and the high m-h digits. The images are spread (see
        # _spread), so that sum is one integer addition, and the
        # _lanes_mod_p tables read it back as an element.
        h = m // 2
        low = p**h
        lo = [_spread(self._raw_mul(x, g), p, m) for x in range(low)]
        hi = [_spread(self._raw_mul(x * low, g), p, m) for x in range(self.q // low)]
        back_lo, back_hi = _lanes_mod_p(p, h), _lanes_mod_p(p, m - h)
        split = (2 * p - 1) ** h

        def times(x: int) -> int:
            s_hi, s_lo = divmod(lo[x % low] + hi[x // low], split)
            return back_lo[s_lo] + low * back_hi[s_hi]

        return times

    def _build_tables(self) -> None:
        q, p, m = self.q, self.p, self.m
        order_factors = _prime_factors(q - 1)
        gen = None
        for g in range(1, q):
            if all(self._raw_pow(g, (q - 1) // r) != 1 for r in order_factors):
                gen = g
                break
        assert gen is not None
        times_gen = self._times(gen)
        exp = [0] * (2 * (q - 1))
        log = [0] * q
        x = 1
        for i in range(q - 1):
            exp[i] = x
            log[x] = i
            x = times_gen(x)
        exp[q - 1 :] = exp[: q - 1]
        self._exp = exp
        self._log = log
        # Zech logarithms for odd-characteristic extension fields:
        # 1 + alpha^n = alpha^zech[n], with -1 marking 1 + alpha^n = 0.
        self._zech = None
        if m > 1 and p != 2:
            # adding 1 only changes the lowest base-p digit
            plus_one = [x + 1 if x % p != p - 1 else x + 1 - p for x in exp[: q - 1]]
            self._zech = [log[y] if y else -1 for y in plus_one]
        # Flat q x q product and sum tables behind the row primitives;
        # above _TABLE_CAP they would not fit.
        self._mt = self._at = None
        if q <= _TABLE_CAP:
            logs = log[1:]
            self._mt = [[0] * q] + [[0] + [exp[i + j] for j in logs] for i in logs]
            spread = [_spread(x, p, m) for x in range(q)]
            back = _lanes_mod_p(p, m)
            self._at = [[back[a + b] for b in spread] for a in spread]
        if q <= _NIBBLE_CAP:
            self.row, rows = bytes, _nibble_rows
        else:
            self.row, rows = list, _table_rows if q <= _TABLE_CAP else _log_rows
        self.submul, self.scale = rows(self)

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
        return self._exp[1]

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


def _check_elements(field: Field, rows) -> None:
    """Raise what field.check raises on the first bad entry of the sequences
    in rows, read row by row. One pass over the entries' types and one min
    and max, all at C speed, clear a batch whose entries are all ints in
    [0, q); only a batch they do not clear is checked entry by entry."""
    flat = list(chain.from_iterable(rows))
    if flat and not (set(map(type, flat)) == {int} and 0 <= min(flat) and max(flat) < field.q):
        for x in flat:
            field.check(x)


def _nibble_rows(f: Field):
    """The row primitives for q <= 16, on rows of bytes. No element reaches
    16, so (int(v) << 4) | int(u), where int(x) = int.from_bytes(x,
    "little"), holds the pair (v[i], u[i]) in byte i with no carry between
    bytes. One translate through a 256-byte table per c then maps every pair
    to v[i] - c*u[i], and scale is one translate, both at C speed."""
    q, from_bytes = f.q, int.from_bytes

    def pairs(v, u) -> bytes:
        return ((from_bytes(v, "little") << 4) | from_bytes(u, "little")).to_bytes(
            len(v), "little")

    def table(rows) -> bytes:
        # t[a << 4 | b] = rows[a][b] for a, b < q
        return b"".join(bytes(r).ljust(16, b"\0") for r in rows).ljust(256, b"\0")

    sums, products = table(f._at), table(f._mt)
    times = [products[16 * c : 16 * c + 16] for c in range(q)]  # c*u at u
    highs = b"".join(bytes([v]) * 16 for v in range(16))  # v at v << 4 | u
    # v - c*u = v + (-c)*u: the pair (v, (-c)*u) at v << 4 | u, then its sum
    subs = [pairs(highs, times[f.neg(c)] * 16).translate(sums) for c in range(q)]
    scales = [t.ljust(256, b"\0") for t in times]

    def submul(v, c: int, u) -> bytes:
        # pairs(v, u) written out, one call less on the kernels' hot path
        return ((from_bytes(v, "little") << 4) | from_bytes(u, "little")).to_bytes(
            len(v), "little").translate(subs[c])

    def scale(c: int, u) -> bytes:
        return bytes(u).translate(scales[c])

    return submul, scale


def _table_rows(f: Field):
    """The row primitives on the flat q x q tables."""
    mt, at = f._mt, f._at
    # the product row of -c, so that v - c*u is v + (-c)*u
    neg_rows = [mt[f.neg(c)] for c in range(f.q)]

    def submul(v, c: int, u) -> list[int]:
        mc = neg_rows[c]
        return [at[a][mc[x]] for a, x in zip(v, u)]

    def scale(c: int, u) -> list[int]:
        mc = mt[c]
        return [mc[x] for x in u]

    return submul, scale


def _log_rows(f: Field):
    """The row primitives for fields too large for flat tables: products
    through the exp/log tables, differences through the element method sub."""
    sub, exp, log = f.sub, f._exp, f._log

    def submul(v, c: int, u) -> list[int]:
        if not c:
            return list(v)
        lc = log[c]
        return [sub(a, exp[lc + log[x]]) if x else a for a, x in zip(v, u)]

    def scale(c: int, u) -> list[int]:
        if not c:
            return [0] * len(u)
        lc = log[c]
        return [exp[lc + log[x]] if x else 0 for x in u]

    return submul, scale


# cached per q: each code built, file read, stream checked and search run over GF(q) repeats it
@lru_cache(maxsize=None, typed=True)
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
    q = max(_json_int(n, "n"), 2)
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
        _instance(self.field, Field, "field")
        c = _tuple(self.coeffs, "coefficients are not a list")
        _check_elements(self.field, (c,))
        object.__setattr__(self, "coeffs", _stripped(c))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __repr__(self) -> str:
        return f"Poly(GF({self.field.q}), {list(self.coeffs)})"


def _stripped(coeffs) -> tuple[int, ...]:
    """coeffs as a tuple without its trailing zeros."""
    end = len(coeffs)
    while end and not coeffs[end - 1]:
        end -= 1
    return tuple(coeffs[:end])


def _poly(field: Field, coeffs) -> Poly:
    """Poly(field, coeffs) for coefficients the package computed itself:
    trailing zeros stripped, the entries not checked."""
    return _built(Poly, field=field, coeffs=_stripped(coeffs))


def _require_same_field(a: Field, b: Field) -> None:
    if a != b:
        raise FieldMismatch(f"mixed fields GF({a.q}) and GF({b.q})")


def poly_mul(a: Poly, b: Poly) -> Poly:
    f = _instance(a, Poly, "a").field
    _require_same_field(f, _instance(b, Poly, "b").field)
    nb = len(b.coeffs)
    out = [0] * (len(a.coeffs) + nb - 1)
    for i, ai in enumerate(a.coeffs):
        if ai:  # out += ai*b, shifted by i
            out[i : i + nb] = f.submul(out[i : i + nb], f.neg(ai), b.coeffs)
    return _poly(f, out)


def poly_divmod(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """Long division: num = q*den + r with deg r < deg den."""
    f = _instance(num, Poly, "num").field
    _require_same_field(f, _instance(den, Poly, "den").field)
    if den.is_zero():
        raise DivisionByZero("polynomial division by zero")
    rem = list(num.coeffs)
    dd = den.degree
    lead_inv = f.inv(den.coeffs[-1])
    quo = [0] * max(len(rem) - dd, 0)
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i]
        if c:
            qc = f.mul(c, lead_inv)
            quo[i - dd] = qc
            rem[i - dd : i + 1] = f.submul(rem[i - dd : i + 1], qc, den.coeffs)
    return _poly(f, quo), _poly(f, rem[:dd])


def poly_divides(a: Poly, b: Poly) -> bool:
    """True iff a divides b (a must be nonzero)."""
    if _instance(a, Poly, "a").is_zero():
        raise DivisionByZero("zero polynomial divides nothing")
    _require_same_field(a.field, _instance(b, Poly, "b").field)
    return poly_divmod(b, a)[1].is_zero()


def x_pow_n_minus_1(field: Field, n: int) -> Poly:
    _instance(field, Field, "field")
    if _json_int(n, "n") < 1:
        raise BadParameters(f"need n >= 1, got {n}")
    return _poly(field, (field.neg(1),) + (0,) * (n - 1) + (1,))


def zrun(p: Poly) -> int:
    """Length of the longest run of zero coefficients strictly inside p.

    Formally the largest (i2 - i1) - 1 over index pairs i1 < i2 whose strictly
    interior coefficients all vanish; 0 when no interior coefficient is zero.
    Requires degree >= 1 and nonzero constant term, so the runs counted are
    exactly the maximal blocks of consecutive zeros between two nonzero
    coefficients.
    """
    if _instance(p, Poly, "p").degree < 1:
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
        _instance(field, Field, "field")
        data = []
        for r in _tuple(rows, "matrix rows are not a list"):
            try:
                data.append(_tuple(r, "matrix row is not a list"))
            except BadParameters:
                _check_elements(field, data)  # a bad entry in an earlier row comes first
                raise
        _check_elements(field, data)
        self.field = field
        self.data = _rectangle(data)

    @property
    def nrows(self) -> int:
        return len(self.data)

    @property
    def ncols(self) -> int:
        return len(self.data[0])

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.data)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        _require_same_field(self.field, _instance(other, Matrix, "other").field)
        if self.ncols != other.nrows:
            raise DimensionMismatch(f"{self.ncols} cols vs {other.nrows} rows")
        f = self.field
        cols = list(zip(*other.data))
        return _matrix(f, [[reduce(f.add, map(f.mul, r, c), 0) for c in cols] for r in self.data])

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


def _rectangle(rows) -> tuple[tuple[int, ...], ...]:
    """rows as a tuple of tuples, which must be a non-empty rectangle."""
    data = tuple(map(tuple, rows))
    if not data or not data[0]:
        raise DimensionMismatch("matrix must have at least one row and column")
    if len(set(map(len, data))) > 1:
        raise DimensionMismatch("ragged rows")
    return data


def _matrix(field: Field, rows) -> Matrix:
    """Matrix(field, rows) for rows of field elements the package computed
    itself: the shape is checked, the entries are not."""
    m = object.__new__(Matrix)
    m.field = field
    m.data = _rectangle(rows)
    return m


def _reduce(field: Field, basis, vec):
    """vec reduced against a pivot basis of (lead, row) pairs, each row 1 at
    its own lead and 0 at the leads before it. The result is 0 at every lead,
    and all zero iff vec lies in the span of the basis: a field row, or vec
    itself when no row operation applied.
    """
    submul = field.submul
    for lead, row in basis:
        c = vec[lead]
        if c:
            vec = submul(vec, c, row)
    return vec


def _push(field: Field, basis: list, vec) -> bool:
    """Append vec, reduced and scaled to 1 at its lead, to the basis; False
    (basis unchanged) when vec depends on it."""
    v = _reduce(field, basis, vec)
    for lead, x in enumerate(v):
        if x:
            basis.append((lead, field.scale(field.inv(x), v)))
            return True
    return False


def _rref(field: Field, rows) -> list[tuple[int, list[int] | bytes]]:
    """The reduced row echelon form of rows as (lead, row) pairs sorted by
    lead; zero rows drop out. Each basis row is reduced against the rows
    pushed after it, which are already 0 at its lead."""
    basis: list = []
    for row in rows:
        _push(field, basis, row)
    return sorted(
        (lead, _reduce(field, basis[i + 1 :], row)) for i, (lead, row) in enumerate(basis)
    )


def _recovery(field: Field, rows, wanted):
    """(M, C) from the RREF [I M; 0 C] of rows with the wanted columns moved
    first and the rest kept in order: rows·v = 0 iff v[wanted] = -M·v[rest]
    and C·v[rest] = 0; None when the wanted columns are dependent."""
    wanted = list(wanted)
    k = len(wanted)
    order = wanted + [j for j in range(len(rows[0])) if j not in wanted]
    rref = _rref(field, [[row[j] for j in order] for row in rows])
    if [lead for lead, _ in rref[:k]] != list(range(k)):
        return None
    return [row[k:] for _, row in rref[:k]], [row[k:] for _, row in rref[k:]]


def mat_rank(m: Matrix) -> int:
    """Rank: the number of rows a pivot basis accepts, pushed in order."""
    basis: list = []
    return sum(_push(m.field, basis, row) for row in _instance(m, Matrix, "m").data)


def vectors_independent(field: Field, vectors) -> bool:
    """True iff the given coordinate tuples are linearly independent."""
    basis: list = []
    return all(_push(field, basis, v) for v in vectors)


def _first_dependent(h: Matrix, supports):
    """(supports walked, the first whose columns of h are dependent, or None).

    A support is a tuple of indices into the columns of h. One pivot basis
    is carried along: it is cut back to the prefix each support shares with
    the one before, and only the rest is pushed. That is right in any order.

    Next to the basis, levels[d][j] holds column j reduced against basis[:d]
    (None until a push needs it); a cut drops the levels past the prefix.
    A push at depth d starts from the deepest level that holds its column
    and applies only the basis rows after it, storing each level on the
    way: the same row operations as _reduce, so the same basis rows, but in
    lexicographic order about one row operation per pushed column.
    """
    field = h.field
    submul, scale, inv, n = field.submul, field.scale, field.inv, h.ncols
    basis: list = []
    levels: list = [list(map(field.row, zip(*h.data)))]
    prev: tuple = ()
    checked = 0
    for sup in supports:
        keep = 0
        for a, b in zip(prev, sup):
            if a != b:
                break
            keep += 1
        checked += 1
        del basis[keep:]
        del levels[keep + 1 :]
        for j in sup[keep:]:
            depth = t = len(basis)
            while levels[t][j] is None:
                t -= 1
            v = levels[t][j]
            while t < depth:
                lead, row = basis[t]
                c = v[lead]
                if c:
                    v = submul(v, c, row)
                t += 1
                levels[t][j] = v
            for lead, x in enumerate(v):
                if x:
                    break
            else:
                return checked, sup
            basis.append((lead, scale(inv(x), v)))
            levels.append([None] * n)
        prev = sup
    return checked, None


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
    f = _instance(m, Matrix, "m").field
    nr, nc = m.nrows, m.ncols
    if nr > nc:
        raise DimensionMismatch("more rows than columns")
    s = 0 if side == "left" else nc - nr  # rotate the block to the front
    rref = _rref(f, [r[s:] + r[:s] for r in m.data])
    leads = [lead for lead, _ in rref]
    if leads != list(range(nr)):
        pc = next(i for i in range(nr) if i not in leads)
        raise SingularBlock(f"designated block is singular at column {s + pc}")
    return _matrix(f, [r[nc - s :] + r[: nc - s] for _, r in rref])


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
    _check_elements(f, (syndrome,))
    aug = [[row[c] for c in cols] + [v] for row, v in zip(h.data, syndrome)]
    # [H_E | s]·(x, -1) = 0: x = M's one column, and any row of C is [c != 0]
    recovery = _recovery(f, aug, range(len(cols)))
    if recovery is None:
        raise DependentColumns("selected columns are linearly dependent")
    m, c = recovery
    if c:
        raise InconsistentSyndrome("known symbols contradict the code")
    return [row[0] for row in m]
