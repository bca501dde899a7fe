"""Diagonal embedding of a block code into a packet stream, plus the
streaming-code verifier and a small simulation harness.

A systematic [n, k] block code is spread along diagonals: the codeword
started at time t occupies position j of packet t+j (0-based), so packet s
carries message symbols u_0(s)..u_{k-1}(s) in its first k positions and one
parity symbol of each of the n-k most recent diagonals after that. Messages
before time 0 are zero. A whole erased packet erases one coordinate in each
of the n diagonals crossing it; each diagonal is decoded (if possible) when
its last symbol arrives.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

from .algebra import _json_int, columns_independent
from .channel import (
    ChannelParams,
    VerificationReport,
    _admissible_supports,
    _decoder,
    _mask,
    _mask_admissible,
    _verify_family,
    _window_count,
    _window_cover,
)
from .codes import LinearCode, generator_matrix
from .errors import (
    BadParameters,
    BadProbability,
    DimensionMismatch,
    LengthMismatch,
    NotSystematic,
    ParameterViolation,
    Unrecoverable,
    UnsupportedDelay,
)

GE_ALGORITHM = "python-random-mt19937"


@dataclass(frozen=True)
class StreamingParams:
    """Channel parameters plus the per-message decoding deadline tau."""

    channel: ChannelParams
    tau: int

    def __post_init__(self):
        if not isinstance(self.channel, ChannelParams):
            raise BadParameters(f"channel must be ChannelParams, got {self.channel!r}")
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
    """

    q: int
    n: int
    k: int
    message_count: int
    packets: tuple[tuple[int, ...], ...]
    erased: frozenset[int]

    def __post_init__(self):
        if len(self.packets) != self.message_count + self.n - 1:
            raise DimensionMismatch("packet count must be message_count + n - 1")
        if any(len(p) != self.n for p in self.packets):
            raise DimensionMismatch("every packet must carry n symbols")
        for t in self.erased:
            if not 0 <= _json_int(t, "erased slot index") < len(self.packets):
                raise BadParameters("erased slot index out of range")

    def with_erasures(self, indices) -> "PacketStream":
        return PacketStream(
            self.q,
            self.n,
            self.k,
            self.message_count,
            self.packets,
            frozenset(_json_int(i, "erased slot index") for i in indices),
        )


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


def _require_systematic(code: LinearCode) -> None:
    """NotSystematic unless the last n-k columns of H are independent, which
    is when the code has a generator [I_k | P]."""
    if not columns_independent(code.h, range(code.k, code.n)):
        raise NotSystematic("last n-k columns of H are singular")


def de_encode(code: LinearCode, messages) -> PacketStream:
    """Encode message packets (length-k vectors) into a diagonal stream.

    Raises NotSystematic when the code has no [I_k | P] generator.
    """
    _require_systematic(code)
    g = generator_matrix(code).data
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
    parity = [
        [f.dot(x, col) for x in diagonals[n - 1 - j : n - 1 - j + slots]]
        for j, col in enumerate(list(zip(*g))[k:], k)
    ]
    packets = tuple(m + p for m, p in zip(u[n - 1 :], zip(*parity)))
    return PacketStream(f.q, n, k, t_count, packets, frozenset())


def _diagonal_word(stream: PacketStream, d: int):
    """Received view (None = erased) of the diagonal started at time d."""
    return [
        0 if d + j < 0  # pre-stream symbols come from all-zero messages
        else None if d + j in stream.erased
        else stream.packets[d + j][j]
        for j in range(stream.n)
    ]


def de_decode(stream: PacketStream, code: LinearCode, params: StreamingParams) -> DecodeTrace:
    """Decode every message packet, diagonal by diagonal.

    A lost message packet is rebuilt from the k diagonals crossing it; each
    diagonal is decoded at its completion slot, so a rebuilt message t is
    available at slot t + n - 1. Messages whose diagonals are unrecoverable
    are reported as failed (times[t] is None).
    """
    if code.n != stream.n or code.k != stream.k or code.field.q != stream.q:
        raise DimensionMismatch("stream was not produced by this code")
    n, k = stream.n, stream.k
    t_count = stream.message_count
    decode = _decoder(code)
    diag_cache: dict[int, list | None] = {}

    def decode_diag(d: int):
        # every diagonal asked for crosses an erased message slot
        if d not in diag_cache:
            try:
                diag_cache[d] = decode(_diagonal_word(stream, d))
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
    misses = tuple(
        tm is not None and tm > dl for tm, dl in zip(times, deadlines)
    )
    return DecodeTrace(tuple(times), deadlines, misses, tuple(messages))


# ---------------------------------------------------------------------------
# loss sequences
# ---------------------------------------------------------------------------


def _count_inadmissible_windows(loss, length: int, params: ChannelParams) -> int:
    mask, w = _mask(loss), params.w
    wfull = (1 << w) - 1
    bad = 0
    for s in range(max(length - w, 0) + 1):
        wm = (mask >> s) & wfull
        if wm and not _mask_admissible(wm, params):
            bad += 1
    return bad


def is_stream_admissible(loss, length: int, params: ChannelParams) -> bool:
    """True iff every length-w window of the loss sequence is admissible."""
    if _json_int(length, "length") < 0:
        raise BadParameters(f"need length >= 0, got {length}")
    loss = tuple(loss)
    for i in loss:
        if not 0 <= _json_int(i, "loss index") < length:
            raise BadParameters(f"loss index {i} outside the stream [0, {length})")
    return _count_inadmissible_windows(loss, length, params) == 0


def periodic_pattern(params: ChannelParams, periods: int) -> tuple[int, ...]:
    """The worst-case-style periodic loss: the first b+e slots of every
    period of length w are erased, for the given number of periods.

    Admissible only when e >= b - 1 (windows straddling two periods see two
    bursts); other parameters raise ParameterViolation.
    """
    if _json_int(periods, "periods") < 1:
        raise BadParameters(f"need periods >= 1, got {periods}")
    if params.e < params.b - 1:
        raise ParameterViolation(
            f"periodic pattern needs e >= b-1, got b={params.b}, e={params.e}"
        )
    w, span = params.w, params.b + params.e
    loss = tuple(
        p * w + i for p in range(periods) for i in range(span)
    )
    assert is_stream_admissible(loss, periods * w, params)
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
    inclusion-maximal windows alone (channel._window_cover), once the first
    path of the window walk has passed; patterns_checked on a pass is the
    number of admissible windows, not a count of the patterns pushed.
    """
    w = params.channel.w
    if params.tau != w - 1:
        raise UnsupportedDelay(f"verifier requires tau = w-1 = {w - 1}, got {params.tau}")
    if code.n != w:
        raise DimensionMismatch(f"diagonal embedding needs n = w, got n={code.n}, w={w}")
    _require_systematic(code)
    ch = params.channel
    return _verify_family(
        code,
        functools.partial(_admissible_supports, ch),
        functools.partial(_window_cover, ch),
        functools.partial(_window_count, ch),
    )


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


def simulate(code: LinearCode, params: StreamingParams, source, seed: int) -> dict:
    """Encode random messages, apply the source's losses, decode, summarize.

    Message payloads use a Mersenne Twister seeded with seed XOR a fixed salt,
    so loss and payload draws are decoupled but both reproducible. Returns
    {"slots", "admissible", "windows_inadmissible", "messages_failed",
    "deadline_misses", "seed"}.
    """
    ch = params.channel
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
    rng = random.Random(_json_int(seed, "seed") ^ _MESSAGE_SEED_SALT)
    msgs = [[rng.randrange(code.field.q) for _ in range(k)] for _ in range(t_count)]
    stream = de_encode(code, msgs).with_erasures(loss)
    trace = de_decode(stream, code, params)
    for sent, got in zip(msgs, trace.messages):
        if got is not None and tuple(sent) != got:
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
