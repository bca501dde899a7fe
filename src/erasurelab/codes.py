"""Linear block codes and the constructions used throughout the package.

A code is represented by a full-row-rank parity-check matrix H over GF(q);
the codewords are exactly the right null space of H. Column index j of H
corresponds to code coordinate j, and a set of erased coordinates is
recoverable precisely when the matching columns are linearly independent,
which is what every verifier in :mod:`erasurelab.channel` checks.
"""

from __future__ import annotations

import itertools
import math

from .algebra import (
    Field,
    Matrix,
    Poly,
    _eliminate,
    _json_int,
    field_make,
    mat_rank,
    poly_divides,
    smallest_prime_power_at_least,
    systematic_form,
    vectors_independent,
    x_pow_n_minus_1,
)
from .errors import (
    BadFieldOverride,
    BadParameters,
    BadReciprocal,
    DivisibilityViolation,
    LengthTooSmall,
    NotCyclic,
    NotSystematic,
    SingularBlock,
    StructureViolation,
    TooLarge,
)


class LinearCode:
    """An [n, k] linear code given by a parity-check matrix.

    provenance records how the code was built (construction name plus its
    parameters) as plain JSON-able values; a few analysis passes key off it.
    """

    __slots__ = ("field", "h", "n", "k", "provenance")

    def __init__(self, h: Matrix, provenance: dict | None = None):
        self.field = h.field
        self.h = h
        self.n = h.ncols
        self.k = h.ncols - h.nrows
        if self.k < 1:
            raise BadParameters(f"need k >= 1, got n={self.n}, {h.nrows} parity rows")
        if mat_rank(h) != h.nrows:
            raise StructureViolation("parity-check rows are linearly dependent")
        self.provenance = dict(provenance or {})

    def __repr__(self) -> str:
        return f"LinearCode[n={self.n}, k={self.k}, q={self.field.q}]"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LinearCode)
            and self.h == other.h
            and self.provenance == other.provenance
        )

    def __hash__(self) -> int:
        return hash(self.h)

    def to_json(self) -> dict:
        return {
            "provenance": self.provenance,
            "field": self.field.to_json(),
            "n": self.n,
            "k": self.k,
            "H": self.h.to_json(),
        }

    @staticmethod
    def from_json(obj: dict) -> "LinearCode":
        h = Matrix.from_json(obj["H"])
        prov = obj.get("provenance", {})
        if not isinstance(prov, dict):
            raise BadParameters("provenance must be a JSON object")
        n, k = _json_int(obj["n"], "n"), _json_int(obj["k"], "k")
        # checked before a cyclic rebuild, whose cost grows with the declared n
        if (n, k) != (h.ncols, h.ncols - h.nrows):
            raise BadParameters("declared n/k do not match the parity-check matrix")
        if prov.get("construction") == "cyclic":
            code = cyclic_from_h(n, h.field.q, prov["h"])
        else:
            code = LinearCode(h, dict(prov))
        if code.h != h:
            raise BadParameters("stored matrix is not the one this provenance rebuilds")
        return code


class CyclicCode(LinearCode):
    """A cyclic [n, k] code carrying the polynomial its banded H is built from."""

    __slots__ = ("poly",)

    def __init__(self, h: Matrix, poly: Poly, provenance: dict):
        super().__init__(h, provenance)
        self.poly = poly


def generator_matrix(code: LinearCode) -> Matrix:
    """A k x n generator matrix with H @ G^T = 0.

    Prefers the systematic orientation [I_k | P] (available whenever the last
    n-k columns of H are invertible); otherwise falls back to a reduced
    null-space basis ordered by free column.
    """
    try:
        return _systematic_generator(code)
    except NotSystematic:
        return _nullspace_generator(code)


def _systematic_generator(code: LinearCode) -> Matrix:
    f = code.field
    k = code.k
    try:
        hs = systematic_form(code.h, side="right")
    except SingularBlock as exc:
        raise NotSystematic("last n-k columns of H are singular") from exc
    # H row-reduces to [P' | I]; message m extends to the codeword (m, -P'm).
    rows = []
    for i in range(k):
        row = [1 if j == i else 0 for j in range(k)]
        row += [f.neg(hs.data[r][i]) for r in range(code.n - k)]
        rows.append(row)
    return Matrix(f, rows)


def _nullspace_generator(code: LinearCode) -> Matrix:
    f = code.field
    h = code.h
    rows = [list(r) for r in h.data]
    nc = h.ncols
    pivots = _eliminate(f, rows, range(nc))
    pivot_cols = {c for _, c in pivots}
    basis = []
    for free in range(nc):
        if free in pivot_cols:
            continue
        vec = [0] * nc
        vec[free] = 1
        for pr, pc in pivots:
            vec[pc] = f.neg(rows[pr][free])
        basis.append(vec)
    return Matrix(f, basis)


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def mds_code(n: int, r: int, q: int | None = None) -> LinearCode:
    """Systematic-capable [n, n-r] MDS code from an r x n Vandermonde H.

    Evaluation points are the first n field elements in canonical encoding
    order, over the smallest prime power >= n unless q overrides it.
    """
    if not 1 <= r < n:
        raise BadParameters(f"need 1 <= r < n, got r={r}, n={n}")
    q_min = smallest_prime_power_at_least(n)
    if q is None:
        q = q_min
    else:
        try:
            field_make(q)
        except Exception as exc:
            raise BadFieldOverride(f"q={q} is not a usable field size") from exc
        if q < n:
            raise BadFieldOverride(f"q={q} < n={n}: evaluation points collide")
    f = field_make(q)
    h = Matrix(f, [[f.pow(j, i) for j in range(n)] for i in range(r)])
    return LinearCode(h, {"construction": "mds", "n": n, "r": r, "q": q})


def _construction_one_params(n: int, b1: int, b2: int, q: int | None):
    if b1 < 1 or b2 < 1 or b2 > b1:
        raise BadParameters(f"need b1 >= b2 >= 1, got b1={b1}, b2={b2}")
    if b1 % b2 != 0:
        raise DivisibilityViolation(f"b2={b2} must divide b1={b1}")
    if n < b1 + b2 + 1:
        raise LengthTooSmall(f"need n >= b1+b2+1 = {b1 + b2 + 1}, got {n}")
    ell = -(-n // b1)  # ceil(n / b1)
    q_min = smallest_prime_power_at_least(ell)
    if q is None:
        q = q_min
    else:
        try:
            field_make(q)
        except Exception as exc:
            raise BadFieldOverride(f"q={q} is not a usable field size") from exc
        if q < ell:
            raise BadFieldOverride(f"q={q} too small: need an element of order > {ell - 2}")
    return ell, q


def construction_one(n: int, b1: int, b2: int, q: int | None = None) -> LinearCode:
    """Two-burst-correcting [n, n-(b1+b2)] code built from identity blocks.

    The parity-check matrix is assembled in column blocks of width b1: the top
    b1 rows repeat I_b1 in every block; the bottom b2 rows are zero in block 0
    and alpha^(j-1) times stacked copies of I_b2 in block j, with alpha the
    field's primitive element; the matrix is then truncated to n columns.
    Requires b2 | b1 and n >= b1 + b2 + 1.
    """
    ell, q_use = _construction_one_params(n, b1, b2, q)
    f = field_make(q_use)
    alpha = f.primitive_element()
    width = b1 * ell
    rows = [[0] * width for _ in range(b1 + b2)]
    for j in range(ell):
        for i in range(b1):
            rows[i][j * b1 + i] = 1
    for j in range(1, ell):
        coef = f.pow(alpha, j - 1)
        for i in range(b2):
            for t in range(b1 // b2):
                rows[b1 + i][j * b1 + i + t * b2] = coef
    h = Matrix(f, [r[:n] for r in rows])
    prov = {"construction": "construction_one", "n": n, "b1": b1, "b2": b2, "q": q_use}
    return LinearCode(h, prov)


def construction_one_binary(n: int, b1: int, b2: int) -> LinearCode:
    """Binary expansion of :func:`construction_one`.

    Each entry of the last b2 rows is replaced by the column of its base-2
    digits (ceil(log2 l) of them, least significant first), mapping distinct
    field elements to distinct binary tuples and 0 to the zero tuple. The
    result is a binary [n, n - (b1 + b2*ceil(log2 l))] code.
    """
    base = construction_one(n, b1, b2)
    ell = -(-n // b1)
    t = max((ell - 1).bit_length(), 1)  # ceil(log2 ell), ell >= 2
    if n - (b1 + b2 * t) < 1:
        raise LengthTooSmall(
            f"binary expansion needs n > b1 + b2*{t}, got n={n}"
        )
    gf2 = field_make(2)
    rows = [list(base.h.data[i]) for i in range(b1)]
    for i in range(b2):
        src = base.h.data[b1 + i]
        for bit in range(t):
            rows.append([(v >> bit) & 1 for v in src])
    prov = {
        "construction": "construction_one_binary",
        "n": n,
        "b1": b1,
        "b2": b2,
        "expanded_from_q": base.provenance["q"],
        "tuple_bits": t,
    }
    return LinearCode(Matrix(gf2, rows), prov)


def cyclic_from_h(n: int, q: int, h_coeffs) -> CyclicCode:
    """Cyclic [n, deg h] code from its banded parity-check polynomial.

    Row i of H is h's coefficient vector (lowest degree first) shifted right
    by i, for i in [0, n - deg h). Requires h(0) != 0, 0 < deg h < n, and
    h | X^n - 1 over GF(q); the last condition is what makes the row span a
    cyclic code, and violating it raises NotCyclic.
    """
    f = field_make(q)
    h = Poly(f, tuple(h_coeffs))
    k = h.degree
    if k < 1 or k >= n:
        raise BadReciprocal(f"need 0 < deg h < n, got deg {k}, n={n}")
    if h.coeffs[0] == 0:
        raise BadReciprocal("constant coefficient must be nonzero")
    if not poly_divides(h, x_pow_n_minus_1(f, n)):
        raise NotCyclic(f"polynomial does not divide X^{n} - 1 over GF({q})")
    rows = []
    for i in range(n - k):
        rows.append((0,) * i + h.coeffs + (0,) * (n - k - 1 - i))
    prov = {"construction": "cyclic", "n": n, "q": q, "h": list(h.coeffs)}
    return CyclicCode(Matrix(f, rows), h, prov)


# ---------------------------------------------------------------------------
# distance
# ---------------------------------------------------------------------------

_ENUM_CAP = 1 << 16


def min_distance(code: LinearCode) -> int:
    """Exact minimum distance.

    Enumerates the q^k codewords when that is small, otherwise searches for
    the smallest dependent column subset of H (the minimum distance equals the
    smallest s such that some s columns are dependent).
    """
    q, k, n = code.field.q, code.k, code.n
    if q**k <= _ENUM_CAP:
        return _min_weight_enum(code)
    if n > 24:
        raise TooLarge(f"q^k = {q**k} and n = {n}: both exact strategies exceed caps")
    return _min_dist_subsets(code)


def _min_weight_enum(code: LinearCode) -> int:
    f = code.field
    g = generator_matrix(code)
    n, k, q = code.n, code.k, code.field.q
    best = n + 1
    add, mul = f.add, f.mul
    rows = list(g.data)

    # Scalar multiples share a weight, so the leading nonzero message digit
    # can be pinned to 1.
    def rec(i: int, cur: tuple[int, ...], started: bool) -> None:
        nonlocal best
        if i == k:
            if started:
                w = sum(1 for x in cur if x)
                if w < best:
                    best = w
            return
        row = rows[i]
        rec(i + 1, cur, started)
        if not started:
            rec(i + 1, row, True)
        else:
            for c in range(1, q):
                rec(i + 1, tuple(add(x, mul(c, y)) for x, y in zip(cur, row)), True)

    rec(0, (0,) * n, False)
    return best


def _min_dist_subsets(code: LinearCode) -> int:
    h = code.h
    f = code.field
    cols = [h.col(j) for j in range(code.n)]
    for s in range(1, h.nrows + 2):
        for combo in itertools.combinations(range(code.n), s):
            if not vectors_independent(f, [cols[j] for j in combo]):
                return s
    raise AssertionError("unreachable: n-k+1 columns are always dependent")
