"""Reference implementations kept for exact comparison with the library.

These are the hand-written elimination loops and the digit-by-digit
GF(p^m) addition that the library used before it moved to one shared
elimination routine and Zech-logarithm addition, and the eager pattern-family
enumerators it used before one burst/union builder and a lazy window walk
replaced them, and the exhaustive [P | I] search as it was when each chunk
rebuilt its pattern family from a tag, and the minimum-distance subset search
and per-pattern independence loop that one prefix-sharing walk
replaced, and the syndrome-then-solve erasure decoder and
right-systematic-form generator that one erased-coordinate map
replaced, and the stream encoder and decoder that worked one diagonal at a
time before both moved to whole-stream row operations, and the simulator as
it was when every payload symbol was its own randrange(q) call, and the
per-entry element checks of the Matrix and Poly constructors from before
one batch check cleared the common case.
They are deliberately left as they were: tests run both sides
on the same inputs and require identical matrices, solutions, verdicts,
pattern orders, exception types and messages.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import random

from erasurelab.algebra import (
    Field,
    Matrix,
    _digits,
    _instance,
    _json_int,
    _tuple,
    field_make,
    vectors_independent,
)
from erasurelab.channel import (
    ChannelParams,
    ErasurePattern,
    VerificationReport,
    _mask_admissible,
)
from erasurelab.errors import (
    BadParameters,
    DependentColumns,
    DimensionMismatch,
    DivisibilityViolation,
    InconsistentSyndrome,
    LengthMismatch,
    NotSystematic,
    SingularBlock,
    StructureViolation,
    TooLarge,
    Unrecoverable,
)
from erasurelab.codes import LinearCode
from erasurelab.streaming import (
    _MESSAGE_SEED_SALT,
    DecodeTrace,
    GilbertElliottSource,
    PacketStream,
    PeriodicSource,
    StreamingParams,
    ge_source,
    periodic_pattern,
)

_SUBSET_CAP = 1 << 20
_SEARCH_CAP = 1 << 24
_ENUM_N_CAP = 20


class DigitField:
    """A Field whose add/sub/neg walk base-p digit tuples; mul and inv are
    delegated to the wrapped Field's exp/log tables, and the row primitives
    the library's elimination calls go element by element through these."""

    def __init__(self, field):
        self.field = field
        self.q, self.p, self.m = field.q, field.p, field.m
        # only the add/sub/neg of extension fields of odd characteristic read digits
        digits = field.m > 1 and field.p != 2
        self._dig = [_digits(v, field.p, field.m) for v in range(field.q)] if digits else None
        self.mul = field.mul
        self.inv = field.inv
        # the rows its primitives return are lists, as for large fields
        self.row = list

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

    def submul(self, v, c: int, u) -> list[int]:
        return [self.sub(a, self.mul(c, x)) for a, x in zip(v, u)]

    def scale(self, c: int, u) -> list[int]:
        return [self.mul(c, x) for x in u]


@functools.lru_cache(maxsize=None)
def digit_field(field) -> DigitField:
    """The DigitField of a field, built once per field."""
    return DigitField(field)


def check_elements(field, rows) -> None:
    """Every entry of every row through Field.check, in order."""
    for row in rows:
        for x in row:
            field.check(x)


def matrix_data(field, rows) -> tuple:
    """The entries Matrix(field, rows) stores, checked as its constructor
    did: each row made a tuple and its entries checked before the next row,
    then the shape."""
    check = _instance(field, Field, "field").check
    rows = _tuple(rows, "matrix rows are not a list")
    data = tuple(tuple(map(check, _tuple(r, "matrix row is not a list"))) for r in rows)
    if not data or not data[0]:
        raise DimensionMismatch("matrix must have at least one row and column")
    width = len(data[0])
    if any(len(r) != width for r in data):
        raise DimensionMismatch("ragged rows")
    return data


def poly_coeffs(field, coeffs) -> tuple:
    """The coefficients Poly(field, coeffs) stores, checked one by one and
    stripped of trailing zeros one at a time, as its constructor did."""
    c = tuple(map(field.check, _tuple(coeffs, "coefficients are not a list")))
    while c and c[-1] == 0:
        c = c[:-1]
    return c


def mat_rank(m: Matrix) -> int:
    """Rank by Gaussian elimination; pivot = first nonzero scanning down."""
    f = digit_field(m.field)
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
    f = digit_field(m.field)
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
    f = digit_field(h.field)
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
    f = digit_field(code.field)
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


def decode_erasures(code, received) -> list[int]:
    """Syndrome of the known symbols, then one solve for the erased ones."""
    received = list(received)
    if len(received) != code.n:
        raise LengthMismatch(f"received word has length {len(received)}, n={code.n}")
    f = code.field
    erased = [i for i, v in enumerate(received) if v is None]
    known = [(i, f.check(v)) for i, v in enumerate(received) if v is not None]
    h = code.h
    syndrome = [0] * h.nrows
    for i, v in known:
        if v:
            for r in range(h.nrows):
                hv = h.data[r][i]
                if hv:
                    syndrome[r] = f.add(syndrome[r], f.mul(hv, v))
    if not erased:
        if any(syndrome):
            raise InconsistentSyndrome("received word is not a codeword")
        return received
    rhs = [f.neg(s) for s in syndrome]
    try:
        values = solve_for_columns(h, erased, rhs)
    except DependentColumns as exc:
        raise Unrecoverable(f"erasures at {erased} are not recoverable") from exc
    out = list(received)
    for i, v in zip(erased, values):
        out[i] = v
    return out


def systematic_generator(code) -> Matrix:
    """[I_k | -P'^T] from the right systematic form [P' | I] of H."""
    f = code.field
    k = code.k
    try:
        hs = systematic_form(code.h, side="right")
    except SingularBlock as exc:
        raise NotSystematic("last n-k columns of H are singular") from exc
    rows = []
    for i in range(k):
        row = [1 if j == i else 0 for j in range(k)]
        row += [f.neg(hs.data[r][i]) for r in range(code.n - k)]
        rows.append(row)
    return Matrix(f, rows)


def de_encode(code, messages):
    """One dot product per diagonal and parity position, over the [I_k | P]
    generator; the stream is built through the checking constructor."""
    g = systematic_generator(code).data
    f = code.field
    n, k = code.n, code.k
    msgs = []
    for vec in messages:
        vec = [f.check(x) for x in vec]
        if len(vec) != k:
            raise LengthMismatch(f"message must have k={k} symbols, got {len(vec)}")
        msgs.append(tuple(vec))
    if not msgs:
        raise BadParameters("need at least one message packet")
    t_count = len(msgs)
    # message t sits at u[t + n - 1]; the zero messages around it stand for
    # the ones before time 0 and after the last
    pad = [(0,) * k] * (n - 1)
    u = pad + msgs + pad
    # diagonal d carries u[d][0], u[d + 1][1], ..., u[d + k - 1][k - 1] and
    # puts its position j in slot d + j - (n - 1)
    slots = t_count + n - 1
    diagonals = [[u[d + i][i] for i in range(k)] for d in range(slots + n - 1 - k)]

    def dot(x, col):
        acc = 0
        for a, b in zip(x, col):
            acc = f.add(acc, f.mul(a, b))
        return acc

    parity = [
        [dot(x, col) for x in diagonals[n - 1 - j : n - 1 - j + slots]]
        for j, col in enumerate(list(zip(*g))[k:], k)
    ]
    packets = tuple(m + p for m, p in zip(u[n - 1 :], zip(*parity)))
    return PacketStream(f.q, n, k, t_count, packets, frozenset())


def diagonal_word(stream, d: int):
    """Received view (None = erased) of the diagonal started at time d."""
    return [
        0 if d + j < 0  # pre-stream symbols come from all-zero messages
        else None if d + j in stream.erased
        else stream.packets[d + j][j]
        for j in range(stream.n)
    ]


def de_decode(stream, code, params):
    """Each lost message rebuilt from its k diagonals in turn, each diagonal
    decoded alone (once) by decode_erasures, stopping at the first that is
    not recoverable."""
    if code.n != stream.n or code.k != stream.k or code.field.q != stream.q:
        raise DimensionMismatch("stream was not produced by this code")
    n, k = stream.n, stream.k
    t_count = stream.message_count
    diag_cache: dict = {}

    def decode_diag(d: int):
        if d not in diag_cache:
            try:
                diag_cache[d] = decode_erasures(code, diagonal_word(stream, d))
            except Unrecoverable:
                diag_cache[d] = None
        return diag_cache[d]

    times = []
    messages = []
    for t in range(t_count):
        if t not in stream.erased:
            times.append(t)
            messages.append(tuple(stream.packets[t][:k]))
            continue
        parts = []
        for j in range(k):
            cw = decode_diag(t - j)
            if cw is None:
                break
            parts.append(cw[j])
        done = len(parts) == k
        times.append(t + n - 1 if done else None)
        messages.append(tuple(parts) if done else None)
    deadlines = tuple(t + params.tau for t in range(t_count))
    misses = tuple(tm is not None and tm > dl for tm, dl in zip(times, deadlines))
    return DecodeTrace(tuple(times), deadlines, misses, tuple(messages))


def simulate(code, params, source, seed) -> dict:
    """One randrange(q) call per payload symbol, message by message, the
    stream through the per-diagonal de_encode and de_decode above, every
    decoded message checked against the one sent, and each length-w window
    of the loss judged on its own."""
    _instance(code, LinearCode, "code")
    ch = _instance(params, StreamingParams, "params").channel
    n, k = code.n, code.k
    if isinstance(source, PeriodicSource):
        slots = source.periods * ch.w
        loss = periodic_pattern(ch, source.periods)
    elif isinstance(source, GilbertElliottSource):
        slots = _json_int(source.slots, "slots")
        loss = ge_source(source.good_to_bad, source.bad_to_good, source.loss_good,
                         source.loss_bad, slots, seed)
    else:
        raise BadParameters(f"unknown source {source!r}")
    t_count = slots - (n - 1)
    if t_count < 1:
        raise BadParameters(f"{slots} slots leave no room for messages (n={n})")
    rng = random.Random(_json_int(seed, "seed") ^ _MESSAGE_SEED_SALT)
    msgs = [[rng.randrange(code.field.q) for _ in range(k)] for _ in range(t_count)]
    stream = dataclasses.replace(de_encode(code, msgs), erased=frozenset(loss))
    trace = de_decode(stream, code, params)
    for sent, got in zip(msgs, trace.messages):
        if got is not None and tuple(sent) != got:
            raise RuntimeError("decoder returned a wrong message")
    lost = set(loss)
    bad_windows = 0
    for s in range(max(slots - ch.w, 0) + 1):
        window = sum(1 << i for i in range(ch.w) if s + i in lost)
        bad_windows += window != 0 and not _mask_admissible(window, ch)
    return {
        "slots": slots,
        "admissible": bad_windows == 0,
        "windows_inadmissible": bad_windows,
        "messages_failed": trace.messages_failed,
        "deadline_misses": trace.deadline_misses,
        "seed": seed,
    }


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
    f = digit_field(code.field)
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


def min_dist_subsets(code) -> int:
    h = code.h
    f = code.field
    cols = [h.col(j) for j in range(code.n)]
    for s in range(1, h.nrows + 2):
        for combo in itertools.combinations(range(code.n), s):
            if not vectors_independent(f, [cols[j] for j in combo]):
                return s
    raise AssertionError("unreachable: n-k+1 columns are always dependent")


def first_dependent(field, cols, supports):
    """(supports checked, the first with dependent cols or None), one fresh
    independence test per support."""
    checked = 0
    for sup in supports:
        checked += 1
        if not vectors_independent(field, [cols[j] for j in sup]):
            return checked, sup
    return checked, None


# ---------------------------------------------------------------------------
# pattern families and their verifiers, as eager set-then-sort enumerators
# ---------------------------------------------------------------------------


# cached per channel, sized for the 990 channels with w <= 11: several tests
# repeat the full scan of the same channels
@functools.lru_cache(maxsize=1024)
def enumerate_admissible_windows(params: ChannelParams) -> tuple[ErasurePattern, ...]:
    """All admissible window patterns, lexicographic by support (empty first)."""
    w = params.w
    if w > _ENUM_N_CAP:
        raise TooLarge(f"2^{w} window patterns exceed the enumeration cap")
    out = []
    for mask in range(1 << w):
        if _mask_admissible(mask, params):
            out.append(_pattern_from_mask(w, mask))
    out.sort(key=lambda p: p.support)
    return tuple(out)


def _pattern_from_mask(n: int, mask: int) -> ErasurePattern:
    return ErasurePattern(n, tuple(i for i in range(n) if (mask >> i) & 1))


def _intervals(n: int, max_len: int) -> list[int]:
    out = []
    for length in range(1, max_len + 1):
        for s in range(n - length + 1):
            out.append(((1 << length) - 1) << s)
    return out


def enumerate_b1b2_patterns(n: int, b1: int, b2: int) -> list[ErasurePattern]:
    """All unions of two bursts of lengths in [1, b1] and [1, b2].

    Overlapping and abutting bursts are allowed, so every single burst of
    length <= max(b1, b2) appears too. Deduplicated, lexicographic order.
    """
    if n < 1 or b1 < 1 or b2 < 1 or b1 > n or b2 > n:
        raise BadParameters(f"bad burst enumeration parameters n={n}, b1={b1}, b2={b2}")
    if n > _ENUM_N_CAP:
        raise TooLarge(f"n={n} exceeds the enumeration cap {_ENUM_N_CAP}")
    masks = set()
    for i in _intervals(n, b1):
        for j in _intervals(n, b2):
            masks.add(i | j)
    out = [_pattern_from_mask(n, m) for m in masks]
    out.sort(key=lambda p: p.support)
    return out


def enumerate_burst_plus_random(n: int, b: int, e: int) -> list[ErasurePattern]:
    """All unions of one burst of length in [1, b] with up to e arbitrary
    extra indices. Deduplicated, lexicographic order."""
    if n < 1 or b < 1 or b > n or e < 0:
        raise BadParameters(f"bad parameters n={n}, b={b}, e={e}")
    if n > _ENUM_N_CAP:
        raise TooLarge(f"n={n} exceeds the enumeration cap {_ENUM_N_CAP}")
    ivals = _intervals(n, b)
    approx = len(ivals) * sum(
        math.comb(n, j) for j in range(min(e, n) + 1)
    )
    if approx > 1 << 22:
        raise TooLarge(f"~{approx} raw patterns exceed the enumeration cap")
    masks = set()
    for imask in ivals:
        rest = [i for i in range(n) if not (imask >> i) & 1]
        for j in range(min(e, len(rest)) + 1):
            for extra in itertools.combinations(rest, j):
                m = imask
                for i in extra:
                    m |= 1 << i
                masks.add(m)
    out = [_pattern_from_mask(n, m) for m in masks]
    out.sort(key=lambda p: p.support)
    return out


def _cyclic_intervals(n: int, max_len: int) -> list[int]:
    out = []
    full = (1 << n) - 1
    for length in range(1, max_len + 1):
        for s in range(n):
            m = 0
            for i in range(length):
                m |= 1 << ((s + i) % n)
            out.append(m & full)
    return out


def can_recover(code, pattern: ErasurePattern) -> bool:
    """True iff every symbol erased by the pattern is determined by the rest,
    i.e. the erased parity-check columns are linearly independent."""
    if pattern.n != code.n:
        raise LengthMismatch(f"pattern over n={pattern.n}, code has n={code.n}")
    sup = pattern.support
    h = code.h
    if len(sup) > h.nrows:
        return False
    data = h.data
    return vectors_independent(
        code.field, [tuple(row[j] for row in data) for j in sup]
    )


def verify_family(code, patterns) -> VerificationReport:
    checked = 0
    for pat in patterns:
        checked += 1
        if not can_recover(code, pat):
            return VerificationReport(False, pat, checked)
    return VerificationReport(True, None, checked)


def check_wraparound(code, b1: int, b2: int) -> VerificationReport:
    """Two-burst verification where either burst may wrap around cyclically.

    Only meaningful (and only allowed) when b1 divides n.
    """
    n = code.n
    if n % b1 != 0:
        raise DivisibilityViolation(f"b1={b1} must divide n={n} for wrap-around bursts")
    if n < 1 or b1 < 1 or b2 < 1 or b2 > b1:
        raise BadParameters(f"bad parameters n={n}, b1={b1}, b2={b2}")
    if n > _ENUM_N_CAP:
        raise TooLarge(f"n={n} exceeds the enumeration cap {_ENUM_N_CAP}")
    masks = set()
    for i in _cyclic_intervals(n, b1):
        for j in _cyclic_intervals(n, b2):
            masks.add(i | j)
    pats = [_pattern_from_mask(n, m) for m in masks]
    pats.sort(key=lambda p: p.support)
    return verify_family(code, pats)


def _burst_plus_one_patterns(n: int, burst_len: int) -> list[ErasurePattern]:
    masks = set()
    for s in range(n - burst_len + 1):
        imask = ((1 << burst_len) - 1) << s
        for j in range(n):
            if not (imask >> j) & 1:
                masks.add(imask | (1 << j))
    pats = [ErasurePattern(n, tuple(i for i in range(n) if (m >> i) & 1)) for m in masks]
    pats.sort(key=lambda p: p.support)
    return pats


def cyclic_witness(code, d: int) -> ErasurePattern | None:
    """The tightness witness of cyclic_report for a code of distance d."""
    witness = None
    for pat in _burst_plus_one_patterns(code.n, d - 1):
        if not can_recover(code, pat):
            witness = pat
            break
    return witness


def cyclic_burst_capability(code) -> bool:
    """Every cyclic burst of length n-k (all n rotations) is recoverable."""
    n, r = code.n, code.n - code.k
    for s in range(n):
        sup = tuple(sorted((s + i) % n for i in range(r)))
        if not can_recover(code, ErasurePattern(n, sup)):
            return False
    return True


# ---------------------------------------------------------------------------
# exhaustive [P | I] search, serial, with the family rebuilt from a tag
# ---------------------------------------------------------------------------


def _family_patterns(n: int, family: tuple) -> list[ErasurePattern]:
    kind = family[0]
    if kind == "two-burst":
        return enumerate_b1b2_patterns(n, family[1], family[2])
    if kind == "burst-random":
        return enumerate_burst_plus_random(n, family[1], family[2])
    raise BadParameters(f"unknown pattern family {family!r}")


def _prep_groups(n: int, r: int, patterns):
    """Bucket patterns by their largest information-column index.

    Returns None when some pattern is unsatisfiable by any [P | I] matrix
    (more erased columns than rows survive the identity part), which decides
    the whole search. Patterns entirely inside the identity block are always
    recoverable and dropped.
    """
    k = n - r
    groups: list[list[tuple]] = [[] for _ in range(k)]
    for pat in patterns:
        sup = pat.support
        if len(sup) > r:
            return None
        p_cols = tuple(j for j in sup if j < k)
        if not p_cols:
            continue
        id_rows = {j - k for j in sup if j >= k}
        kept = tuple(i for i in range(r) if i not in id_rows)
        if len(p_cols) > len(kept):
            return None
        groups[max(p_cols)].append((p_cols, kept))
    for grp in groups:
        grp.sort(key=lambda item: (len(item[0]), item))
    return groups


def _dfs(field, q: int, r: int, k: int, groups, depth: int, cols, lo: int, hi: int):
    for v in range(lo, hi):
        cols.append(_digits(v, q, r))
        ok = True
        for p_cols, kept in groups[depth]:
            vecs = [tuple(cols[c][i] for i in kept) for c in p_cols]
            if not vectors_independent(field, vecs):
                ok = False
                break
        if ok:
            if depth + 1 == k:
                return list(cols)
            found = _dfs(field, q, r, k, groups, depth + 1, cols, 0, q**r)
            if found is not None:
                return found
        cols.pop()
    return None


def _search_chunk(args):
    n, r, q, family, lo, hi = args
    field = field_make(q)
    groups = _prep_groups(n, r, _family_patterns(n, family))
    if groups is None:
        return None
    return _dfs(field, q, r, n - r, groups, 0, [], lo, hi)


def _run_search(n: int, r: int, q: int, family: tuple):
    k = n - r
    if k < 1:
        raise BadParameters(f"need n > {r} so that k >= 1, got n={n}")
    if q ** (r * k) > _SEARCH_CAP:
        raise TooLarge(f"q^(r*k) = {q ** (r * k)} candidates exceed the search cap")
    field = field_make(q)  # validates q, including NotPrimePower
    space = q**r
    cols = _search_chunk((n, r, q, family, 0, space))
    if cols is None:
        return None
    rows = [
        [cols[j][i] for j in range(k)] + [1 if t == i else 0 for t in range(r)]
        for i in range(r)
    ]
    return Matrix(field, rows)


def exhaustive_code_search(n: int, b1: int, b2: int, q: int) -> Matrix | None:
    """The found parity-check matrix of the two-burst search, or None."""
    if b1 < 1 or b2 < 1:
        raise BadParameters(f"need b1, b2 >= 1, got b1={b1}, b2={b2}")
    return _run_search(n, b1 + b2, q, ("two-burst", b1, b2))


def exhaustive_burst_random_search(n: int, b: int, e: int, q: int) -> Matrix | None:
    """The found parity-check matrix of the burst-random search, or None."""
    if b < 1 or e < 0:
        raise BadParameters(f"need b >= 1 and e >= 0, got b={b}, e={e}")
    return _run_search(n, b + e, q, ("burst-random", b, e))
