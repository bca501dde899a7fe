"""Reference implementations kept for exact comparison with the library.

These are the hand-written elimination loops and the digit-by-digit
GF(p^m) addition that the library used before it moved to one shared
elimination routine and Zech-logarithm addition. They are deliberately
left as they were: tests run both sides on the same inputs and require
identical matrices, solutions, verdicts, exception types and messages.
"""

from __future__ import annotations

import itertools

from erasurelab.algebra import Matrix, _digits, vectors_independent
from erasurelab.errors import (
    BadParameters,
    DependentColumns,
    DimensionMismatch,
    InconsistentSyndrome,
    SingularBlock,
    StructureViolation,
    TooLarge,
)

_SUBSET_CAP = 1 << 20


class DigitField:
    """A Field whose add/sub/neg walk base-p digit tuples; mul and inv are
    delegated to the wrapped Field's exp/log tables."""

    def __init__(self, field):
        self.field = field
        self.q, self.p, self.m = field.q, field.p, field.m
        self._dig = [_digits(v, field.p, field.m) for v in range(field.q)]
        self.mul = field.mul
        self.inv = field.inv

    def add(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        da, db, p = self._dig[a], self._dig[b], self.p
        v = 0
        for x, y in zip(reversed(da), reversed(db)):
            v = v * p + (x + y) % p
        return v

    def neg(self, a: int) -> int:
        if self.m == 1:
            return (-a) % self.p
        if self.p == 2:
            return a
        p = self.p
        v = 0
        for x in reversed(self._dig[a]):
            v = v * p + (-x) % p
        return v

    def sub(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a - b) % self.p
        if self.p == 2:
            return a ^ b
        da, db, p = self._dig[a], self._dig[b], self.p
        v = 0
        for x, y in zip(reversed(da), reversed(db)):
            v = v * p + (x - y) % p
        return v


def mat_rank(m: Matrix) -> int:
    """Rank by Gaussian elimination; pivot = first nonzero scanning down."""
    f = DigitField(m.field)
    rows = [list(r) for r in m.data]
    nr, nc = m.nrows, m.ncols
    rank = 0
    for c in range(nc):
        piv = None
        for r in range(rank, nr):
            if rows[r][c]:
                piv = r
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = f.inv(rows[rank][c])
        rows[rank] = [f.mul(inv, x) for x in rows[rank]]
        prow = rows[rank]
        for r in range(nr):
            if r != rank and rows[r][c]:
                coef = rows[r][c]
                rows[r] = [f.sub(x, f.mul(coef, px)) for x, px in zip(rows[r], prow)]
        rank += 1
        if rank == nr:
            break
    return rank


def systematic_form(m: Matrix, side: str = "left") -> Matrix:
    if side not in ("left", "right"):
        raise BadParameters(f"side must be 'left' or 'right', got {side!r}")
    f = DigitField(m.field)
    nr, nc = m.nrows, m.ncols
    if nr > nc:
        raise DimensionMismatch("more rows than columns")
    block = range(nr) if side == "left" else range(nc - nr, nc)
    rows = [list(r) for r in m.data]
    for i, pc in enumerate(block):
        piv = None
        for r in range(i, nr):
            if rows[r][pc]:
                piv = r
                break
        if piv is None:
            raise SingularBlock(f"designated block is singular at column {pc}")
        rows[i], rows[piv] = rows[piv], rows[i]
        inv = f.inv(rows[i][pc])
        if inv != 1:
            rows[i] = [f.mul(inv, x) for x in rows[i]]
        prow = rows[i]
        for r in range(nr):
            if r != i and rows[r][pc]:
                coef = rows[r][pc]
                rows[r] = [f.sub(x, f.mul(coef, px)) for x, px in zip(rows[r], prow)]
    return Matrix(m.field, rows)


def solve_for_columns(h: Matrix, cols, syndrome) -> list[int]:
    cols = list(cols)
    if len(set(cols)) != len(cols) or any(not 0 <= c < h.ncols for c in cols):
        raise DimensionMismatch("column indices must be distinct and in range")
    syndrome = list(syndrome)
    if len(syndrome) != h.nrows:
        raise DimensionMismatch("syndrome length must equal the row count")
    f = DigitField(h.field)
    k = len(cols)
    aug = [[h.data[r][c] for c in cols] + [h.field.check(syndrome[r])] for r in range(h.nrows)]
    filled = 0
    for c in range(k):
        piv = None
        for r in range(filled, h.nrows):
            if aug[r][c]:
                piv = r
                break
        if piv is None:
            raise DependentColumns("selected columns are linearly dependent")
        aug[filled], aug[piv] = aug[piv], aug[filled]
        inv = f.inv(aug[filled][c])
        if inv != 1:
            aug[filled] = [f.mul(inv, x) for x in aug[filled]]
        prow = aug[filled]
        for r in range(h.nrows):
            if r != filled and aug[r][c]:
                coef = aug[r][c]
                aug[r] = [f.sub(x, f.mul(coef, px)) for x, px in zip(aug[r], prow)]
        filled += 1
    for r in range(filled, h.nrows):
        if aug[r][k]:
            raise InconsistentSyndrome("known symbols contradict the code")
    return [aug[i][k] for i in range(k)]


def nullspace_generator(code) -> Matrix:
    f = DigitField(code.field)
    h = code.h
    rows = [list(r) for r in h.data]
    nr, nc = h.nrows, h.ncols
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = f.inv(rows[r][c])
        rows[r] = [f.mul(inv, x) for x in rows[r]]
        prow = rows[r]
        for i in range(nr):
            if i != r and rows[i][c]:
                coef = rows[i][c]
                rows[i] = [f.sub(x, f.mul(coef, px)) for x, px in zip(rows[i], prow)]
        pivots.append((r, c))
        r += 1
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
    return Matrix(code.field, basis)


def _n_choose(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    r = 1
    for i in range(k):
        r = r * (n - i) // (i + 1)
    return r


def mds_subblock_check(code, b: int, e: int) -> bool:
    if b < 1 or e < 1:
        raise BadParameters(f"need b, e >= 1, got b={b}, e={e}")
    h = code.h
    if h.nrows != b + e:
        raise BadParameters(f"need n-k = b+e = {b + e}, got {h.nrows} parity rows")
    f = DigitField(code.field)
    rows = [list(r) for r in h.data]
    for i in range(b):
        piv = next((r for r in range(i, b + e) if rows[r][i]), None)
        if piv is None:
            raise StructureViolation("first b columns are linearly dependent")
        rows[i], rows[piv] = rows[piv], rows[i]
        inv = f.inv(rows[i][i])
        if inv != 1:
            rows[i] = [f.mul(inv, x) for x in rows[i]]
        prow = rows[i]
        for r in range(b + e):
            if r != i and rows[r][i]:
                coef = rows[r][i]
                rows[r] = [f.sub(x, f.mul(coef, px)) for x, px in zip(rows[r], prow)]
    block = [row[b:] for row in rows[b:]]
    n_sub = code.n - b
    if _n_choose(n_sub, e) > _SUBSET_CAP:
        raise TooLarge(f"C({n_sub},{e}) column subsets exceed the cap")
    cols = [tuple(row[j] for row in block) for j in range(n_sub)]
    return all(
        vectors_independent(f, [cols[j] for j in combo])
        for combo in itertools.combinations(range(n_sub), e)
    )
