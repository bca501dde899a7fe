"""Diagonal embedding of a block code into a packet stream, plus the
streaming-code verifier and a small simulation harness.

A systematic [n, k] block code is spread along diagonals: the codeword
started at time t occupies position j of packet t+j (0-based), so packet s
carries message symbols u_0(s)..u_{k-1}(s) in its first k positions and one
parity symbol of each of the n-k most recent diagonals after that. Messages
before time 0 are zero. A whole erased packet erases one coordinate in each
of the n diagonals crossing it; each diagonal is decoded (if possible) when
its last symbol arrives.

Encoding and decoding work on whole columns of the stream, through one
erased-symbol solver: parity = erased symbols solved through the parity
map, for every diagonal at once. A diagonal's recoverability depends only
on which of its positions were erased, so the decoder plans the diagonals
to decode on erased sets alone. It reduces H once per call, pivots each
distinct erased set into that reduction for its erasure map (_recovery,
the one map builder), and solves each group of diagonals that share an
erased set from that one map. Symbols are checked once, when a
PacketStream is built from outside the package.
"""

from __future__ import annotations

import random
import sys
from array import array
from collections import Counter
from dataclasses import dataclass

from .algebra import (
    _built,
    _check_elements,
    _instance,
    _json_int,
    _recovery,
    _rref,
    _tuple,
    field_make,
)
from .channel import (
    ChannelParams,
    VerificationReport,
    _erased_values,
    _mask,
    _mask_admissible,
    _verify_windows,
)
from .codes import LinearCode, _code_attrs
from .errors import (
    BadParameters,
    BadProbability,
    DimensionMismatch,
    LengthMismatch,
    NotSystematic,
    ParameterViolation,
    UnsupportedDelay,
)

GE_ALGORITHM = "python-random-mt19937"


@dataclass(frozen=True)
class StreamingParams:
    """Channel parameters plus the per-message decoding deadline tau."""

    channel: ChannelParams
    tau: int

    def __post_init__(self):
        _instance(self.channel, ChannelParams, "channel")
        if _json_int(self.tau, "tau") < self.channel.w - 1:
            raise BadParameters(
                f"need tau >= w-1 = {self.channel.w - 1}, got {self.tau}"
            )


@dataclass(frozen=True)
class PacketStream:
    """An encoded packet sequence with an (optional) erasure set.

    packets has message_count + n - 1 entries so every diagonal that carries
    a real message is complete. erased holds slot indices whose packets were
    lost; the decoder never reads those entries.

    The constructor checks every symbol once, so the decoder checks none.
    Streams the package encodes itself skip that check (see _encode).
    """

    q: int
    n: int
    k: int
    message_count: int
    packets: tuple[tuple[int, ...], ...]
    erased: frozenset[int]

    def __post_init__(self):
        for name in ("q", "n", "k", "message_count"):
            _json_int(getattr(self, name), name)
        if self.message_count < 1 or not 1 <= self.k <= self.n:
            raise BadParameters(f"need message_count >= 1 and 1 <= k <= n, got message_count="
                                f"{self.message_count}, k={self.k}, n={self.n}")
        try:
            packets = tuple(map(tuple, self.packets))
            erased = tuple(self.erased)  # checked as listed: a frozenset takes True for 1
            frozen = frozenset(erased)
        except TypeError:
            raise BadParameters("packets must be a list of symbol lists and erased a set "
                                f"of slots, got {self.packets!r} and {self.erased!r}") from None
        object.__setattr__(self, "packets", packets)
        object.__setattr__(self, "erased", frozen)
        if len(packets) != self.message_count + self.n - 1:
            raise DimensionMismatch("packet count must be message_count + n - 1")
        if any(len(p) != self.n for p in packets):
            raise DimensionMismatch("every packet must carry n symbols")
        _check_elements(field_make(self.q), packets)
        for t in erased:
            if not 0 <= _json_int(t, "erased slot index") < len(packets):
                raise BadParameters("erased slot index out of range")


@dataclass(frozen=True)
class DecodeTrace:
    """Per-message decoding outcome.

    times[t] is the slot at which message t was fully known (None if never),
    deadlines[t] = t + tau, misses[t] flags a message that was recovered but
    only after its deadline. messages[t] is the recovered vector (None if
    decoding failed).
    """

    times: tuple
    deadlines: tuple[int, ...]
    misses: tuple[bool, ...]
    messages: tuple

    @property
    def messages_failed(self) -> int:
        return sum(1 for t in self.times if t is None)

    @property
    def deadline_misses(self) -> int:
        return sum(1 for m in self.misses if m)


def _parity_map(code: LinearCode):
    """The erasure map of the last n-k positions: a diagonal's parity symbols
    solved as erased ones. NotSystematic when their columns of H are
    dependent, i.e. when the code has no generator [I_k | P]."""
    f, h, k, n, systematic = _code_attrs(code, "field", "h", "k", "n", "systematic")
    if not systematic:
        raise NotSystematic("last n-k columns of H are singular")
    return _recovery(f, _rref(f, h.data), range(k, n))


def de_encode(code: LinearCode, messages) -> PacketStream:
    """Encode message packets (length-k vectors) into a diagonal stream.

    Raises NotSystematic when the code has no [I_k | P] generator.
    """
    recovery = _parity_map(code)
    f, k = code.field, code.k
    try:
        msgs = [tuple(vec) for vec in messages]
    except TypeError:
        raise BadParameters(f"messages must be a list of symbol lists, got {messages!r}") from None
    # the first message of the wrong length; a bad symbol up to it comes first
    short = next((t for t, vec in enumerate(msgs) if len(vec) != k), len(msgs))
    _check_elements(f, msgs[: short + 1])
    if short < len(msgs):
        raise LengthMismatch(f"message must have k={k} symbols, got {len(msgs[short])}")
    if not msgs:
        raise BadParameters("need at least one message packet")
    return _encode(code, recovery, list(zip(*msgs)), ())


def _encode(code: LinearCode, recovery, columns, erased) -> PacketStream:
    """de_encode of the k message columns (column i holds symbol i of every
    message, each a field element), through the code's parity map recovery,
    as a stream with the given slots erased."""
    n, k = code.n, code.k
    t_count = len(columns[0])
    slots = t_count + n - 1
    # message column i with zero messages before time 0 and after the last,
    # enough of them for every shift below
    cols = [code.field.row((0,) * (n - 1) + tuple(col) + (0,) * (n + k)) for col in columns]
    # position j of diagonal d sits in slot d + j, so message column i shifted
    # by i holds position i of every diagonal, diagonal d at index d + n - 1
    words = [col[i : i + slots + n - 1] for i, col in enumerate(cols)]
    words += _erased_values(code.field, recovery, words, range(n - k))
    # and position j shifted back by j holds slot s at index s
    packets = tuple(zip(*(col[n - 1 - j : n - 1 - j + slots] for j, col in enumerate(words))))
    # built from the package's own field values, so the symbols are not checked again
    return _built(PacketStream, q=code.field.q, n=n, k=k, message_count=t_count,
                  packets=packets, erased=frozenset(erased))


def de_decode(stream: PacketStream, code: LinearCode, params: StreamingParams) -> DecodeTrace:
    """Decode every message packet from the diagonals crossing it.

    A lost message packet is rebuilt from the k diagonals crossing it; each
    diagonal is decoded at its completion slot, so a rebuilt message t is
    available at slot t + n - 1. Messages whose diagonals are unrecoverable
    are reported as failed (times[t] is None).

    Whether a diagonal is recoverable depends only on which of its positions
    were erased. So the diagonals to decode are planned on erased sets alone
    and grouped by erased set. H is reduced once per call, each distinct
    erased set is pivoted into that reduction for its map (_recovery), and
    each group is solved at once from its map. Raises InconsistentSyndrome when the known
    symbols of a planned diagonal contradict the code.
    """
    _instance(stream, PacketStream, "stream")
    _instance(code, LinearCode, "code")
    _instance(params, StreamingParams, "params")
    if code.n != stream.n or code.k != stream.k or code.field.q != stream.q:
        raise DimensionMismatch("stream was not produced by this code")
    n, k = stream.n, stream.k
    t_count = stream.message_count
    lost, full = _mask(stream.erased), (1 << n) - 1
    rref = _rref(code.field, code.h.data)
    # plan: the diagonals through each lost message, up to the first that is
    # not recoverable, grouped by the mask of their erased positions; each
    # diagonal's mask is read off the loss mask once, when it is first met
    maps: dict[int, tuple | None] = {}
    masks: dict[int, int] = {}
    groups: dict[int, list[int]] = {}
    rebuilt = {}
    lost_messages = [t for t in stream.erased if t < t_count]
    for t in lost_messages:
        for d in range(t, t - k, -1):
            erased = masks.get(d)
            if erased is None:
                erased = masks[d] = (lost >> d if d >= 0 else lost << -d) & full
                if erased not in maps:
                    positions = [i for i in range(n) if erased >> i & 1]
                    maps[erased] = _recovery(code.field, rref, positions)
                if maps[erased] is not None:
                    groups.setdefault(erased, []).append(d)
            if maps[erased] is None:
                break
        else:
            rebuilt[t] = [None] * k
    # apply: each group's map to all its diagonals at once, for the erased
    # message symbols only
    for erased, diagonals in groups.items():
        # known position j of diagonal d is in slot d + j; pre-stream slots read 0
        known = [[stream.packets[d + j][j] if d + j >= 0 else 0 for d in diagonals]
                 for j in range(n) if not erased >> j & 1]
        # the erased message positions come first among the erased ones
        positions = [j for j in range(n) if erased >> j & 1]
        wanted = range(sum(j < k for j in positions))
        for j, xs in zip(positions, _erased_values(code.field, maps[erased], known, wanted)):
            for d, x in zip(diagonals, xs):
                message = rebuilt.get(d + j)
                if message is not None:
                    message[j] = x
    # trace: every message as received, then the lost ones patched; a
    # rebuilt message is known at slot t + n - 1, late when n - 1 > tau
    times = list(range(t_count))
    messages = [p[:k] for p in stream.packets[:t_count]]
    misses = [False] * t_count
    late = n - 1 > params.tau
    for t in lost_messages:
        message = rebuilt.get(t)
        if message is None:
            times[t] = messages[t] = None
        else:
            times[t], messages[t], misses[t] = t + n - 1, tuple(message), late
    deadlines = tuple(range(params.tau, params.tau + t_count))
    return DecodeTrace(tuple(times), deadlines, tuple(misses), tuple(messages))


# ---------------------------------------------------------------------------
# loss sequences
# ---------------------------------------------------------------------------


def _count_inadmissible_windows(loss, length: int, params: ChannelParams) -> int:
    """How many length-w windows of the loss sequence are inadmissible, each
    distinct window mask decided once."""
    mask, w = _mask(loss), params.w
    wfull = (1 << w) - 1
    windows = Counter((mask >> s) & wfull for s in range(max(length - w, 0) + 1))
    return sum(c for wm, c in windows.items() if wm and not _mask_admissible(wm, params))


def is_stream_admissible(loss, length: int, params: ChannelParams) -> bool:
    """True iff every length-w window of the loss sequence is admissible."""
    if _json_int(length, "length") < 0:
        raise BadParameters(f"need length >= 0, got {length}")
    loss = _tuple(loss, "loss is not a list of slots")
    for i in loss:
        if not 0 <= _json_int(i, "loss index") < length:
            raise BadParameters(f"loss index {i} outside the stream [0, {length})")
    _instance(params, ChannelParams, "params")
    return _count_inadmissible_windows(loss, length, params) == 0


def periodic_pattern(params: ChannelParams, periods: int) -> tuple[int, ...]:
    """The worst-case-style periodic loss: the first b+e slots of every
    period of length w are erased, for the given number of periods.

    Admissible only when e >= b - 1 (windows straddling two periods see two
    bursts); other parameters raise ParameterViolation.
    """
    if _json_int(periods, "periods") < 1:
        raise BadParameters(f"need periods >= 1, got {periods}")
    if _instance(params, ChannelParams, "params").e < params.b - 1:
        raise ParameterViolation(
            f"periodic pattern needs e >= b-1, got b={params.b}, e={params.e}"
        )
    w, span = params.w, params.b + params.e
    loss = tuple(
        p * w + i for p in range(periods) for i in range(span)
    )
    # every window of the pattern repeats within its first two periods
    first = min(periods, 2)
    assert is_stream_admissible(loss[: first * span], first * w, params)
    return loss


def ge_source(
    good_to_bad: float,
    bad_to_good: float,
    loss_good: float,
    loss_bad: float,
    length: int,
    seed: int,
) -> tuple[int, ...]:
    """Two-state Markov (Gilbert-Elliott) loss sequence.

    The chain starts in the good state. Each slot draws the erasure first and
    the state transition second from one seeded Mersenne Twister stream
    (GE_ALGORITHM names the generator), so sequences are reproducible.
    """
    for p in (good_to_bad, bad_to_good, loss_good, loss_bad):
        if isinstance(p, bool) or not isinstance(p, (int, float)):
            raise BadProbability(f"probability must be a number, got {p!r}")
        if not 0.0 <= p <= 1.0:
            raise BadProbability(f"probability {p} outside [0, 1]")
    if _json_int(length, "length") < 0:
        raise BadParameters(f"need length >= 0, got {length}")
    rng = random.Random(_json_int(seed, "seed"))
    lost = []
    bad = False
    for t in range(length):
        if rng.random() < (loss_bad if bad else loss_good):
            lost.append(t)
        if rng.random() < (good_to_bad if not bad else bad_to_good):
            bad = not bad
    return tuple(lost)


# ---------------------------------------------------------------------------
# verification and simulation
# ---------------------------------------------------------------------------


def verify_streaming_code(code: LinearCode, params: StreamingParams) -> VerificationReport:
    """Decide whether the diagonal embedding of this code recovers every
    message by its deadline under every admissible loss sequence.

    For n = w and tau = w - 1 (the only delay this verifier supports), that
    holds iff every admissible window pattern has independent parity-check
    columns, so the verdict is an exact finite check. The witness, when the
    verdict is False, is the lexicographically smallest failing pattern, and
    patterns_checked counts the windows walked up to it.

    Admissibility is closed under subsets, so a pass is decided by the
    inclusion-maximal windows (channel._window_cover) once the walk's first
    path, the prefixes of [0, b + e), has passed; patterns_checked on a pass
    is the number of admissible windows, not a count of the patterns pushed.
    """
    _instance(code, LinearCode, "code")
    w = _instance(params, StreamingParams, "params").channel.w
    if params.tau != w - 1:
        raise UnsupportedDelay(f"verifier requires tau = w-1 = {w - 1}, got {params.tau}")
    if code.n != w:
        raise DimensionMismatch(f"diagonal embedding needs n = w, got n={code.n}, w={w}")
    if not code.systematic:
        raise NotSystematic("last n-k columns of H are singular")
    return _verify_windows(code, params.channel)


@dataclass(frozen=True)
class PeriodicSource:
    """Loss source replaying periodic_pattern for a number of periods."""

    periods: int


@dataclass(frozen=True)
class GilbertElliottSource:
    """Loss source drawing from a seeded Gilbert-Elliott chain."""

    good_to_bad: float
    bad_to_good: float
    loss_good: float
    loss_bad: float
    slots: int


_MESSAGE_SEED_SALT = 0xA5A55A5A
# the most 32-bit words one getrandbits call in _uniform_draws asks for
_CHUNK_WORDS = 1 << 16


def _uniform_draws(seed: int, q: int, count: int) -> list[int]:
    """[random.Random(seed).randrange(q) for _ in range(count)], drawn from
    whole 32-bit Mersenne Twister outputs in batches.

    In CPython, randrange(q) rejects getrandbits(q.bit_length()) results
    >= q, getrandbits(k) for k <= 32 is the next 32-bit output shifted right
    by 32 - k, and getrandbits(32 * N) packs the next N outputs, least
    significant first. So each draw is word >> shift, kept when
    word < q << shift. For q < 256 a draw reads only the word's top byte,
    top >> (8 - bits), kept when it is < q: one translate per batch deletes
    the rejected top bytes and shifts the rest. The batches may draw words
    past the last one kept; the generator serves this call alone, so
    nothing reads them.
    """
    rng = random.Random(seed)
    typecode = "I" if array("I").itemsize == 4 else "L"  # unsigned, 4 bytes
    bits = q.bit_length()
    shift = 32 - bits
    limit = q << shift
    if q < 256:
        draws = bytes(top >> (8 - bits) for top in range(256))
        rejected = bytes(top for top in range(256) if draws[top] >= q)
    out: list[int] = []
    while len(out) < count:
        # each word is kept with probability q / 2**bits >= 1/2; ask for the
        # expected number of words and a little more, at most one chunk
        size = min(((count - len(out)) << bits) // q + 32, _CHUNK_WORDS)
        if q < 256:  # word i is bytes 4i..4i+3, its top byte last
            tops = rng.getrandbits(32 * size).to_bytes(4 * size, "little")[3::4]
            out += tops.translate(draws, rejected)
        else:
            words = array(typecode, rng.getrandbits(32 * size).to_bytes(4 * size, sys.byteorder))
            if sys.byteorder == "big":  # the last output drawn is the most significant word
                words.reverse()
            out += [word >> shift for word in words if word < limit]
    del out[count:]
    return out


def simulate(code: LinearCode, params: StreamingParams, source, seed: int) -> dict:
    """Encode random messages, apply the source's losses, decode, summarize.

    Message payloads use a Mersenne Twister seeded with seed XOR a fixed salt,
    so loss and payload draws are decoupled but both reproducible. The
    payload symbols, message by message, are that generator's randrange(q)
    draws, read from whole 32-bit words in batches (_uniform_draws). Every
    decoded message is checked against the one sent. Returns {"slots",
    "admissible", "windows_inadmissible", "messages_failed",
    "deadline_misses", "seed"}.
    """
    _instance(code, LinearCode, "code")
    ch = _instance(params, StreamingParams, "params").channel
    n, k = code.n, code.k
    if isinstance(source, PeriodicSource):
        slots = source.periods * ch.w
        loss = periodic_pattern(ch, source.periods)
    elif isinstance(source, GilbertElliottSource):
        slots = _json_int(source.slots, "slots")
        loss = ge_source(
            source.good_to_bad,
            source.bad_to_good,
            source.loss_good,
            source.loss_bad,
            slots,
            seed,
        )
    else:
        raise BadParameters(f"unknown source {source!r}")
    t_count = slots - (n - 1)
    if t_count < 1:
        raise BadParameters(f"{slots} slots leave no room for messages (n={n})")
    # symbol i of message t is payload[t * k + i]
    payload = _uniform_draws(_json_int(seed, "seed") ^ _MESSAGE_SEED_SALT, code.field.q,
                             t_count * k)
    columns = [payload[i::k] for i in range(k)]
    stream = _encode(code, _parity_map(code), columns, loss)
    trace = de_decode(stream, code, params)
    for sent, got in zip(zip(*columns), trace.messages):
        if got is not None and sent != got:
            raise RuntimeError("decoder returned a wrong message; this is a bug")
    bad_windows = _count_inadmissible_windows(loss, slots, ch)
    return {
        "slots": slots,
        "admissible": bad_windows == 0,
        "windows_inadmissible": bad_windows,
        "messages_failed": trace.messages_failed,
        "deadline_misses": trace.deadline_misses,
        "seed": seed,
    }
