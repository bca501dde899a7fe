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
from functools import lru_cache, partial

from .algebra import (
    _built,
    _check_elements,
    _first_dependent,
    _instance,
    _json_int,
    _recovery,
    _tuple,
    columns_independent,
)
from .codes import LinearCode
from .errors import (
    BadParameters,
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
        if any(not isinstance(v, int) or isinstance(v, bool) for v in (a, b, e, w)):
            raise BadParameters("channel parameters must be integers")
        if b < 1 or e < 1:
            raise BadParameters(f"need b >= 1 and e >= 1, got b={b}, e={e}")
        if a < 0 or a >= b + e:
            raise BadParameters(f"need 0 <= a < b+e, got a={a}, b+e={b + e}")
        if w - 1 < b + e:
            raise BadParameters(f"need w-1 >= b+e, got w={w}, b+e={b + e}")


@dataclass(frozen=True)
class ErasurePattern:
    """A set of erased coordinates inside a length-n block.

    The constructor checks and sorts the support. The package's own walks
    yield sorted, in-range supports, so their patterns and witnesses skip
    that (see _patterns)."""

    n: int
    support: tuple[int, ...]

    def __post_init__(self):
        if _json_int(self.n, "pattern length") < 1:
            raise BadParameters(f"pattern length must be >= 1, got {self.n}")
        support = _tuple(self.support, "support is not a list")
        for i in support:
            _json_int(i, "support index")
        sup = tuple(sorted(set(support)))
        if len(sup) != len(support):
            raise BadParameters(f"support has duplicates: {self.support}")
        if sup and (sup[0] < 0 or sup[-1] >= self.n):
            raise BadParameters(f"support {sup} out of range for n={self.n}")
        object.__setattr__(self, "support", sup)

    def mask(self) -> int:
        return _mask(self.support)

    def to_json(self) -> dict:
        return {"n": self.n, "support": list(self.support)}


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a pattern-family verification.

    witness is the lexicographically smallest failing pattern (None on pass).
    On a failure, patterns_checked counts the patterns walked in lex order up
    to and including the witness. A pass is decided on the family's first
    path and a cover (see _verify_family); patterns_checked is then the
    family size, not a count of the patterns pushed.
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


def _patterns(n: int, supports) -> list[ErasurePattern]:
    """ErasurePattern(n, s) for each sorted, in-range support s of a walk,
    without the constructor's checks."""
    return [_built(ErasurePattern, n=n, support=s) for s in supports]


def _mask(indices) -> int:
    return sum(1 << i for i in set(indices))


def _mask_admissible(mask: int, params: ChannelParams) -> bool:
    return mask.bit_count() <= params.a or _in_burst(mask, params)


def _in_burst(mask: int, params: ChannelParams) -> bool:
    """True iff some length-b window holds all but at most e of the mask."""
    b, need = params.b, mask.bit_count() - params.e
    ones = (1 << b) - 1
    for _ in range(params.w - b + 1):
        if (mask & ones).bit_count() >= need:
            return True
        mask >>= 1
    return False


def is_window_admissible(pattern: ErasurePattern, params: ChannelParams) -> bool:
    """True iff the pattern can occur inside one window of the channel.

    Either |E| <= a, or some length-b interval covers all but at most e of E.
    """
    _instance(pattern, ErasurePattern, "pattern")
    if pattern.n != _instance(params, ChannelParams, "params").w:
        raise LengthMismatch(f"pattern is over n={pattern.n}, window is w={params.w}")
    return _mask_admissible(pattern.mask(), params)


def _admissible_supports(params: ChannelParams):
    """Admissible window supports, lexicographic (empty first), walked lazily
    once the call has checked the cap.

    A pre-order walk of the set-enumeration tree: each set is followed by its
    extensions with larger indices. Admissibility is closed under taking
    subsets, so an inadmissible extension is not walked any further.
    """
    w = params.w
    if w > _ENUM_N_CAP:
        raise TooLarge(f"2^{w} window patterns exceed the enumeration cap")

    def walk():
        stack = [(0, ())]
        while stack:
            mask, sup = stack.pop()
            yield sup
            for i in range(w - 1, sup[-1] if sup else -1, -1):
                ext = mask | 1 << i
                if _mask_admissible(ext, params):
                    stack.append((ext, sup + (i,)))

    return walk()


# cached per channel: a process that passes several codes on one channel repeats this walk
@lru_cache(maxsize=None)
def _window_count(params: ChannelParams) -> int:
    """How many supports _admissible_supports walks, counted without pushes."""
    return sum(1 for _ in _admissible_supports(params))


def _window_cover(params: ChannelParams) -> set[int]:
    """Masks of a cover of the admissible window supports: each length-b burst
    with e indices outside it, and each a-subset that no burst covers up to e.

    Every admissible E lies inside one of them. If some burst B leaves at
    most e of E outside it, pad E minus B to e indices outside B (w - b > e
    leaves room); otherwise |E| <= a, and E padded to a entries is still
    covered by no burst. Each of them is admissible, and they are exactly
    the inclusion-maximal supports: no admissible set has more than b + e
    entries, and an a-subset that no burst covers cannot grow, since any
    larger set needs a burst. For (a, b, e, w) = (3, 3, 1, 9) that keeps
    {0, 4, 8} beside the 4-entry supports.
    """
    masks = _burst_extras(params.w, params.b, params.e)
    subsets = map(sum, itertools.combinations([1 << i for i in range(params.w)], params.a))
    masks.update(m for m in subsets if not _in_burst(m, params))
    return masks


def enumerate_admissible_windows(params: ChannelParams) -> list[ErasurePattern]:
    """All admissible window patterns, lexicographic by support (empty first)."""
    _instance(params, ChannelParams, "params")
    return _patterns(params.w, _admissible_supports(params))


def _bursts(n: int, lengths, cyclic: bool = False) -> list[int]:
    """The mask of every burst in a length-n block with a length in lengths,
    length by length, then by start. Cyclic bursts wrap around mod n."""
    full = (1 << n) - 1
    out = []
    for length in lengths:
        m = (1 << length) - 1
        if cyclic:
            out.extend((m << s | m << s >> n) & full for s in range(n))
        else:
            out.extend(m << s for s in range(n - length + 1))
    return out


def _supports(n: int, masks) -> list[tuple[int, ...]]:
    """The support of every mask, sorted."""
    return sorted(tuple(i for i in range(n) if m >> i & 1) for m in masks)


def _unions(xs, ys) -> set[int]:
    """Every distinct x | y over the two mask lists."""
    return {x | y for x in xs for y in ys}


def _burst_extras(n: int, b: int, e: int) -> set[int]:
    """The mask of each length-b burst with min(e, n - b) indices outside it."""
    bits = [1 << i for i in range(n)]
    return {
        bm | sum(extra)
        for bm in _bursts(n, [b])
        for extra in itertools.combinations([x for x in bits if not bm & x], min(e, n - b))
    }


def _two_bursts(n: int, b1: int, b2: int, cover: bool = False, cyclic: bool = False) -> set[int]:
    """Masks of the unions of a burst of length <= b1 and one of length <= b2,
    wrapping around mod n when cyclic; with cover, of length exactly b1 and
    b2. Every shorter burst lies inside a full-length one, so each union lies
    inside a full-length union."""
    if (_json_int(n, "n") < 1 or _json_int(b1, "b1") < 1 or _json_int(b2, "b2") < 1
            or b1 > n or b2 > n):
        raise BadParameters(f"bad burst enumeration parameters n={n}, b1={b1}, b2={b2}")
    if n > _ENUM_N_CAP:
        raise TooLarge(f"n={n} exceeds the enumeration cap {_ENUM_N_CAP}")
    lengths = ([b1], [b2]) if cover else (range(1, b1 + 1), range(1, b2 + 1))
    return _unions(*(_bursts(n, ls, cyclic) for ls in lengths))


def enumerate_b1b2_patterns(n: int, b1: int, b2: int) -> list[ErasurePattern]:
    """All unions of two bursts of lengths in [1, b1] and [1, b2].

    Overlapping and abutting bursts are allowed, so every single burst of
    length <= max(b1, b2) appears too. Deduplicated, lexicographic order.
    """
    return _patterns(n, _supports(n, _two_bursts(n, b1, b2)))


def _burst_plus_random(n: int, b: int, e: int, cover: bool = False) -> set[int]:
    """Masks of the unions of a burst of length <= b with <= e extra indices;
    with cover, of a length-b burst with min(e, n - b) extras outside it. Each
    union lies inside such a full-length one: lengthen the burst, add extras."""
    if (_json_int(n, "n") < 1 or _json_int(b, "b") < 1 or b > n
            or _json_int(e, "e") < 0):
        raise BadParameters(f"bad parameters n={n}, b={b}, e={e}")
    if n > _ENUM_N_CAP:
        raise TooLarge(f"n={n} exceeds the enumeration cap {_ENUM_N_CAP}")
    bursts = _bursts(n, range(1, b + 1))
    approx = len(bursts) * sum(math.comb(n, j) for j in range(min(e, n) + 1))
    if approx > 1 << 22:
        raise TooLarge(f"~{approx} raw patterns exceed the enumeration cap")
    if cover:
        return _burst_extras(n, b, e)
    extras = [_mask(x) for j in range(min(e, n) + 1) for x in itertools.combinations(range(n), j)]
    return _unions(bursts, extras)


def enumerate_burst_plus_random(n: int, b: int, e: int) -> list[ErasurePattern]:
    """All unions of one burst of length in [1, b] with up to e arbitrary
    extra indices. Deduplicated, lexicographic order."""
    return _patterns(n, _supports(n, _burst_plus_random(n, b, e)))


# ---------------------------------------------------------------------------
# recoverability
# ---------------------------------------------------------------------------


def can_recover(code: LinearCode, pattern: ErasurePattern) -> bool:
    """True iff every symbol erased by the pattern is determined by the rest,
    i.e. the erased parity-check columns are linearly independent."""
    _instance(code, LinearCode, "code")
    if _instance(pattern, ErasurePattern, "pattern").n != code.n:
        raise LengthMismatch(f"pattern over n={pattern.n}, code has n={code.n}")
    return columns_independent(code.h, pattern.support)


def _erased_values(field, recovery, known, wanted) -> list:
    """The erased symbols of a batch of received words that share one erased
    set, from its (M, C) map recovery and the words' known symbols, one
    column per known position in order: for each index i in wanted, erased
    symbol i of every word, -M[i]·y for the known symbols y of the word, as
    a field row.

    This is the one solver for block decoding, stream decoding and stream
    encoding, whose parity symbols are the erased last n-k of each diagonal.
    Raises InconsistentSyndrome when C·y is nonzero for any word.
    """
    submul, known = field.submul, list(map(field.row, known))
    zero = field.row((0,) * len(known[0]))

    def times(rows):
        # -row·y for every word, one submul per nonzero coefficient
        out = []
        for row in rows:
            acc = zero
            for coef, col in zip(row, known):
                if coef:
                    acc = submul(acc, coef, col)
            out.append(acc)
        return out

    m, c = recovery
    if any(map(any, times(c))):
        raise InconsistentSyndrome("known symbols contradict the code" if m
                                   else "received word is not a codeword")
    return times([m[i] for i in wanted])


def decode_erasures(code: LinearCode, received) -> list[int]:
    """Fill in the erased (None) positions of a received word.

    Raises Unrecoverable when the erased columns are dependent and
    InconsistentSyndrome when the known symbols already contradict the code.
    """
    received = list(_tuple(received, "received word is not a list"))
    if len(received) != code.n:
        raise LengthMismatch(f"received word has length {len(received)}, n={code.n}")
    f = code.field
    erased = [i for i, v in enumerate(received) if v is None]
    known = [(v,) for v in received if v is not None]
    _check_elements(f, known)
    recovery = _recovery(f, code.h.data, erased)
    if recovery is None:
        raise Unrecoverable(f"erasures at {erased} are not recoverable")
    for i, (x,) in zip(erased, _erased_values(f, recovery, known, range(len(erased)))):
        received[i] = x
    return received


def _verify_family(code: LinearCode, path, walk, cover, size) -> VerificationReport:
    """Report on the family whose supports walk() yields in lexicographic
    order, given path, its supports down to its first leaf; cover(), masks of
    family supports that hold every family support; and its size().

    The path is pushed first; a dependent support there is the witness, and
    its place on the path is its place in the walk. Otherwise the cover is
    pushed. Columns inside an independent set are independent, so when every
    cover support is, the family passes with size() patterns checked. Only
    when some cover support is dependent is the family walked from the start,
    for the first witness and its count.
    """
    checked, bad = _first_dependent(code.h, path)
    if bad is None:
        if _first_dependent(code.h, _supports(code.n, cover()))[1] is None:
            return VerificationReport(True, None, size())
        checked, bad = _first_dependent(code.h, walk())
    return VerificationReport(False, _built(ErasurePattern, n=code.n, support=bad), checked)


def _verify_windows(code: LinearCode, params: ChannelParams) -> VerificationReport:
    """_verify_family on the admissible windows of the channel. No window
    holds more than b + e erasures, so the first path is [0, b + e)'s prefixes."""
    walk = _admissible_supports(params)  # TooLarge past the cap, before any push
    path = [tuple(range(j)) for j in range(params.b + params.e + 1)]
    cover, size = (partial(f, params) for f in (_window_cover, _window_count))
    return _verify_family(code, path, walk.__iter__, cover, size)


def _verify_two_bursts(code: LinearCode, b1: int, b2: int, cyclic: bool) -> VerificationReport:
    """_verify_family on two bursts; the first path is [0, min(b1 + b2, n))'s prefixes."""
    n, masks = code.n, _two_bursts(code.n, b1, b2, cyclic=cyclic)
    path = [tuple(range(j)) for j in range(1, min(b1 + b2, n) + 1)]
    cover = partial(_two_bursts, n, b1, b2, True, cyclic)
    return _verify_family(code, path, partial(_supports, n, masks), cover, masks.__len__)


def is_b1b2_code(code: LinearCode, b1: int, b2: int) -> VerificationReport:
    """Verify recovery of every two-burst pattern (lengths <= b1 and <= b2)."""
    return _verify_two_bursts(_instance(code, LinearCode, "code"), b1, b2, cyclic=False)


def check_wraparound(code: LinearCode, b1: int, b2: int) -> VerificationReport:
    """Two-burst verification where either burst may wrap around cyclically.

    Only meaningful (and only allowed) when b1 divides n.
    """
    n = _instance(code, LinearCode, "code").n
    if _json_int(b1, "b1") >= 1 and n % b1 != 0:
        raise DivisibilityViolation(f"b1={b1} must divide n={n} for wrap-around bursts")
    if b1 < 1 or _json_int(b2, "b2") < 1 or b2 > b1:
        raise BadParameters(f"bad parameters n={n}, b1={b1}, b2={b2}")
    return _verify_two_bursts(code, b1, b2, cyclic=True)
