"""Sliding-window erasure channel: admissible patterns and recoverability.

The channel model is parameterized by (a, (b, e), w): inside any window of w
consecutive packets, the erasures are either at most a arbitrary ones, or one
burst of length at most b together with at most e arbitrary ones. Patterns
are index sets; recoverability of a pattern under a code reduces to linear
independence of the matching parity-check columns.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .algebra import solve_for_columns, vectors_independent
from .codes import LinearCode
from .errors import (
    BadParameters,
    DependentColumns,
    DivisibilityViolation,
    InconsistentSyndrome,
    LengthMismatch,
    TooLarge,
    Unrecoverable,
)

_ENUM_N_CAP = 20


@dataclass(frozen=True)
class ChannelParams:
    """(a, (b, e), w) sliding-window channel parameters.

    Invariants: w - 1 >= b + e > a >= 0 and b, e >= 1.
    """

    a: int
    b: int
    e: int
    w: int

    def __post_init__(self):
        a, b, e, w = self.a, self.b, self.e, self.w
        if any(not isinstance(v, int) for v in (a, b, e, w)):
            raise BadParameters("channel parameters must be integers")
        if b < 1 or e < 1:
            raise BadParameters(f"need b >= 1 and e >= 1, got b={b}, e={e}")
        if a < 0 or a >= b + e:
            raise BadParameters(f"need 0 <= a < b+e, got a={a}, b+e={b + e}")
        if w - 1 < b + e:
            raise BadParameters(f"need w-1 >= b+e, got w={w}, b+e={b + e}")


@dataclass(frozen=True)
class ErasurePattern:
    """A set of erased coordinates inside a length-n block."""

    n: int
    support: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise BadParameters(f"pattern length must be >= 1, got {self.n}")
        sup = tuple(sorted(set(int(i) for i in self.support)))
        if len(sup) != len(self.support):
            raise BadParameters(f"support has duplicates: {self.support}")
        if sup and (sup[0] < 0 or sup[-1] >= self.n):
            raise BadParameters(f"support {sup} out of range for n={self.n}")
        object.__setattr__(self, "support", sup)

    @property
    def weight(self) -> int:
        return len(self.support)

    def mask(self) -> int:
        m = 0
        for i in self.support:
            m |= 1 << i
        return m

    def to_json(self) -> dict:
        return {"n": self.n, "support": list(self.support)}

    @staticmethod
    def from_json(obj: dict) -> "ErasurePattern":
        return ErasurePattern(int(obj["n"]), tuple(obj["support"]))


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a pattern-family verification.

    witness is the lexicographically smallest failing pattern (None on pass);
    patterns_checked counts patterns evaluated in lex order, which equals the
    whole family size when the verdict is a pass.
    """

    verdict: bool
    witness: ErasurePattern | None
    patterns_checked: int

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "witness": None if self.witness is None else self.witness.to_json(),
            "patterns_checked": self.patterns_checked,
        }


@lru_cache(maxsize=None)
def _burst_masks(w: int, b: int) -> tuple[int, ...]:
    return tuple(((1 << b) - 1) << s for s in range(w - b + 1))


def _mask_admissible(mask: int, params: ChannelParams) -> bool:
    if mask.bit_count() <= params.a:
        return True
    e = params.e
    return any(
        (mask & ~bm).bit_count() <= e for bm in _burst_masks(params.w, params.b)
    )


def is_window_admissible(pattern: ErasurePattern, params: ChannelParams) -> bool:
    """True iff the pattern can occur inside one window of the channel.

    Either |E| <= a, or some length-b interval covers all but at most e of E.
    """
    if pattern.n != params.w:
        raise LengthMismatch(f"pattern is over n={pattern.n}, window is w={params.w}")
    return _mask_admissible(pattern.mask(), params)


def enumerate_admissible_windows(params: ChannelParams) -> list[ErasurePattern]:
    """All admissible window patterns, lexicographic by support (empty first)."""
    w = params.w
    if w > _ENUM_N_CAP:
        raise TooLarge(f"2^{w} window patterns exceed the enumeration cap")
    out = []
    for mask in range(1 << w):
        if _mask_admissible(mask, params):
            out.append(_pattern_from_mask(w, mask))
    out.sort(key=lambda p: p.support)
    return out


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


# ---------------------------------------------------------------------------
# recoverability
# ---------------------------------------------------------------------------


def can_recover(code: LinearCode, pattern: ErasurePattern) -> bool:
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


def decode_erasures(code: LinearCode, received) -> list[int]:
    """Fill in the erased (None) positions of a received word.

    Raises Unrecoverable when the erased columns are dependent and
    InconsistentSyndrome when the known symbols already contradict the code.
    """
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


def _verify_family(code: LinearCode, patterns) -> VerificationReport:
    checked = 0
    for pat in patterns:
        checked += 1
        if not can_recover(code, pat):
            return VerificationReport(False, pat, checked)
    return VerificationReport(True, None, checked)


def is_b1b2_code(code: LinearCode, b1: int, b2: int) -> VerificationReport:
    """Verify recovery of every two-burst pattern (lengths <= b1 and <= b2)."""
    return _verify_family(code, enumerate_b1b2_patterns(code.n, b1, b2))


def check_wraparound(code: LinearCode, b1: int, b2: int) -> VerificationReport:
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
    return _verify_family(code, pats)
