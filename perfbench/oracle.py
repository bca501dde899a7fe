"""Brute-force references the benchmark checks erasurelab's outputs against.

Nothing here calls erasurelab: admissibility and pattern families are
rebuilt from their definitions with plain Python sets, in the style of the
acceptance gate's admissibility oracle, and the Gilbert-Elliott loss
sequence is replayed from the algorithm the simulator documents.
"""

from __future__ import annotations

import random
from functools import lru_cache


def window_admissible(support, a: int, b: int, e: int, w: int) -> bool:
    """At most a losses, or one length-b interval covers all but <= e."""
    erased = set(support)
    return len(erased) <= a or any(
        len(erased - set(range(s, s + b))) <= e for s in range(w - b + 1)
    )


@lru_cache(maxsize=None)
def _all_supports(n: int) -> tuple[tuple[int, ...], ...]:
    """Every subset of range(n) as a sorted tuple, in lexicographic order."""
    subsets = [tuple(i for i in range(n) if (m >> i) & 1) for m in range(1 << n)]
    return tuple(sorted(subsets))


@lru_cache(maxsize=None)
def admissible_family(a: int, b: int, e: int, w: int) -> tuple[tuple[int, ...], ...]:
    """All admissible window patterns of the channel, lexicographic."""
    return tuple(s for s in _all_supports(w) if window_admissible(s, a, b, e, w))


def admissible_count(a: int, b: int, e: int, w: int) -> int:
    """Size of admissible_family, without keeping the family."""
    return sum(1 for s in _all_supports(w) if window_admissible(s, a, b, e, w))


def _intervals(n: int, max_len: int, cyclic: bool = False) -> list[frozenset]:
    out = []
    for length in range(1, max_len + 1):
        starts = range(n) if cyclic else range(n - length + 1)
        out.extend(frozenset((s + i) % n for i in range(length)) for s in starts)
    return out


@lru_cache(maxsize=None)
def two_burst_family(n: int, b1: int, b2: int, cyclic: bool = False):
    """Unions of a burst of length <= b1 and one of length <= b2."""
    sets = {
        i | j for i in _intervals(n, b1, cyclic) for j in _intervals(n, b2, cyclic)
    }
    return tuple(sorted(tuple(sorted(s)) for s in sets))


@lru_cache(maxsize=None)
def burst_random_family(n: int, b: int, e: int):
    """Unions of a burst of length <= b with at most e other positions."""
    bursts = _intervals(n, b)
    return tuple(
        s
        for s in _all_supports(n)
        if any(burst <= set(s) and len(set(s) - burst) <= e for burst in bursts)
    )


def periodic_losses(b: int, e: int, w: int, periods: int) -> tuple[int, ...]:
    """The first b+e slots of each length-w period."""
    return tuple(p * w + i for p in range(periods) for i in range(b + e))


def gilbert_elliott_losses(p_gb, p_bg, loss_good, loss_bad, slots, seed):
    """Two-state chain starting good; per slot one loss draw, then one
    transition draw, from a single Mersenne Twister seeded with seed."""
    rng = random.Random(seed)
    lost, bad = [], False
    for t in range(slots):
        if rng.random() < (loss_bad if bad else loss_good):
            lost.append(t)
        if rng.random() < (p_bg if bad else p_gb):
            bad = not bad
    return tuple(lost)


def inadmissible_windows(losses, slots: int, a: int, b: int, e: int, w: int) -> int:
    """Number of length-w windows of the stream whose losses are inadmissible."""
    lost = set(losses)
    bad = 0
    for s in range(slots - w + 1):
        window = [t - s for t in range(s, s + w) if t in lost]
        if not window_admissible(window, a, b, e, w):
            bad += 1
    return bad
