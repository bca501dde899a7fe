"""The paper's reduction, checked in both directions through the stream
decoder: at n = w and tau = w - 1 the diagonal embedding decodes every
admissible loss sequence by its deadline iff every admissible window pattern
is recoverable."""

import dataclasses
import random

from erasurelab.algebra import Matrix, field_make
from erasurelab.channel import ChannelParams
from erasurelab.codes import LinearCode, mds_code
from erasurelab.streaming import (
    StreamingParams,
    de_decode,
    de_encode,
    is_stream_admissible,
    verify_streaming_code,
)


def _channels(max_w):
    return [
        ChannelParams(a, b, e, w)
        for w in range(3, max_w + 1)
        for b in range(1, w - 1)
        for e in range(1, w - b)
        for a in range(b + e)
    ]


def _messages(rng, q, k, count):
    return [[rng.randrange(q) for _ in range(k)] for _ in range(count)]


def test_failing_verdict_witness_breaks_the_stream():
    """A code with one information symbol too many fails; its witness E, put
    on one diagonal d as the losses {d + j : j in E}, is an admissible stream
    on which the decoder loses or delays a message."""
    rng = random.Random(11)
    f3 = field_make(3)
    channels = _channels(6)
    assert len(channels) == 70
    for ch in channels:
        span = ch.b + ch.e
        k, r = ch.w - span + 1, span - 1
        rows = [[rng.randrange(3) for _ in range(k)] + [int(t == i) for t in range(r)]
                for i in range(r)]
        code = LinearCode(Matrix(f3, rows))
        params = StreamingParams(ch, ch.w - 1)
        report = verify_streaming_code(code, params)
        assert report.verdict is False
        d = ch.w  # a whole window of messages on either side of the diagonal
        loss = [d + j for j in report.witness.support]
        stream = de_encode(code, _messages(rng, 3, k, 3 * ch.w))
        assert is_stream_admissible(loss, len(stream.packets), ch)
        trace = de_decode(dataclasses.replace(stream, erased=loss), code, params)
        assert trace.messages_failed + trace.deadline_misses > 0


def test_passing_verdict_decodes_every_admissible_stream():
    """The MDS code passes; every admissible loss set over 2w slots then
    loses nothing and meets every deadline."""
    rng = random.Random(12)
    decoded = 0
    for ch in _channels(5):
        code = mds_code(ch.w, ch.b + ch.e)
        params = StreamingParams(ch, ch.w - 1)
        assert verify_streaming_code(code, params).verdict is True
        slots = 2 * ch.w
        msgs = _messages(rng, code.field.q, code.k, slots - (ch.w - 1))
        stream = de_encode(code, msgs)
        sent = tuple(tuple(m) for m in msgs)
        for mask in range(1 << slots):
            loss = [i for i in range(slots) if mask >> i & 1]
            if not is_stream_admissible(loss, slots, ch):
                continue
            trace = de_decode(dataclasses.replace(stream, erased=loss), code, params)
            assert trace.messages == sent
            assert trace.deadline_misses == 0
            decoded += 1
    assert decoded == 15335
