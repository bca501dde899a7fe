"""Diagonal embedding, loss sources, stream admissibility, the streaming
verifier, and the end-to-end simulator."""

import dataclasses
import random

import pytest

from erasurelab import channel, codes, streaming
from erasurelab.algebra import Field, Matrix, field_make
from erasurelab.channel import ChannelParams, ErasurePattern
from erasurelab.codes import LinearCode, construction_one, generator_matrix, mds_code
from erasurelab.errors import (
    BadParameters,
    BadProbability,
    DimensionMismatch,
    LengthMismatch,
    NotSystematic,
    ParameterViolation,
    UnsupportedDelay,
)
from erasurelab.streaming import (
    GE_ALGORITHM,
    GilbertElliottSource,
    PacketStream,
    PeriodicSource,
    StreamingParams,
    de_decode,
    de_encode,
    ge_source,
    is_stream_admissible,
    periodic_pattern,
    simulate,
    verify_streaming_code,
)

# [8,4] code over GF(3); verified below against the (1,(3,1),8) channel.
CODE831 = construction_one(8, 3, 1)
PARAMS831 = StreamingParams(ChannelParams(1, 3, 1, 8), 7)


def _random_messages(k, q, count, seed):
    rng = random.Random(seed)
    return [tuple(rng.randrange(q) for _ in range(k)) for _ in range(count)]


def _block_encode(code, vec):
    """Independent systematic encoding: vec times the [I_k | P] generator."""
    g = generator_matrix(code)
    f = code.field
    out = []
    for j in range(code.n):
        acc = 0
        for i in range(code.k):
            acc = f.add(acc, f.mul(vec[i], g.data[i][j]))
        out.append(acc)
    return tuple(out)


def test_streaming_params_deadline_floor():
    ch = ChannelParams(1, 3, 1, 8)
    StreamingParams(ch, 7)
    StreamingParams(ch, 12)
    with pytest.raises(BadParameters):
        StreamingParams(ch, 6)


@pytest.mark.parametrize("tau", [7.0, 2.5, "7", True, None])
def test_streaming_params_reject_non_integer_deadline(tau):
    with pytest.raises(BadParameters, match="tau must be an integer"):
        StreamingParams(ChannelParams(1, 3, 1, 8), tau)


@pytest.mark.parametrize("channel", [(1, 3, 1, 8), None, {"a": 1, "b": 3, "e": 1, "w": 8}])
def test_streaming_params_reject_a_channel_of_another_type(channel):
    with pytest.raises(BadParameters, match="channel must be ChannelParams"):
        StreamingParams(channel, 7)


def test_de_encode_shape_and_systematic_prefix():
    msgs = _random_messages(4, 3, 5, seed=3)
    stream = de_encode(CODE831, msgs)
    assert (stream.q, stream.n, stream.k) == (3, 8, 4)
    assert stream.message_count == 5
    assert len(stream.packets) == 5 + 8 - 1
    assert all(len(p) == 8 for p in stream.packets)
    assert stream.erased == frozenset()
    for t in range(5):
        assert stream.packets[t][:4] == msgs[t]


def test_every_diagonal_is_a_staggered_codeword():
    """The word along diagonal d must be the block encoding of the staggered
    vector (u_0(d), u_1(d+1), ..., u_{k-1}(d+k-1)), zero outside the stream.
    """
    msgs = _random_messages(4, 3, 6, seed=12)
    stream = de_encode(CODE831, msgs)

    def u(t, i):
        return msgs[t][i] if 0 <= t < len(msgs) else 0

    for d in range(-(8 - 1), 6):
        word = tuple(
            stream.packets[d + j][j] if d + j >= 0 else 0 for j in range(8)
        )
        staggered = tuple(u(d + i, i) for i in range(4))
        assert word == _block_encode(CODE831, staggered)


def test_single_message_diagonal_fixture():
    # Only u_0(0) is nonzero on diagonal 0: its word encodes (1, 0, 0, 0),
    # not the raw message (1, 2, 0, 1).
    stream = de_encode(CODE831, [(1, 2, 0, 1)])
    assert len(stream.packets) == 8
    diag0 = tuple(stream.packets[j][j] for j in range(8))
    assert diag0 == (1, 0, 0, 0, 1, 0, 2, 2)
    assert diag0 == _block_encode(CODE831, (1, 0, 0, 0))


def test_constant_stream_repeats_the_block_codeword():
    stream = de_encode(CODE831, [(1, 2, 0, 1)] * 6)
    for d in range(3):  # diagonals fully inside the stream
        word = tuple(stream.packets[d + j][j] for j in range(8))
        assert word == (1, 2, 0, 1, 2, 0, 1, 2)
    assert _block_encode(CODE831, (1, 2, 0, 1)) == (1, 2, 0, 1, 2, 0, 1, 2)


def test_encoding_is_causal():
    msgs = _random_messages(4, 3, 6, seed=9)
    full = de_encode(CODE831, msgs)
    for t in range(1, 6):
        prefix = de_encode(CODE831, msgs[:t])
        assert prefix.packets[:t] == full.packets[:t]


def test_encoding_is_linear():
    f = CODE831.field
    a = _random_messages(4, 3, 4, seed=21)
    b = _random_messages(4, 3, 4, seed=22)
    summed = [tuple(f.add(x, y) for x, y in zip(ma, mb)) for ma, mb in zip(a, b)]
    sa, sb, ss = (de_encode(CODE831, m) for m in (a, b, summed))
    for pa, pb, ps in zip(sa.packets, sb.packets, ss.packets):
        assert ps == tuple(f.add(x, y) for x, y in zip(pa, pb))


def test_de_encode_guards():
    with pytest.raises(BadParameters):
        de_encode(CODE831, [])
    with pytest.raises(LengthMismatch):
        de_encode(CODE831, [(1, 2, 0)])
    with pytest.raises(BadParameters):
        de_encode(CODE831, [(1, 2, 0, 3)])  # 3 is not a GF(3) symbol


def test_packet_stream_validation():
    stream = de_encode(CODE831, [(1, 2, 0, 1)])
    with pytest.raises(DimensionMismatch):
        PacketStream(3, 8, 4, 2, stream.packets, frozenset())
    ragged = stream.packets[:-1] + (stream.packets[-1][:-1],)
    with pytest.raises(DimensionMismatch):
        PacketStream(3, 8, 4, 1, ragged, frozenset())
    with pytest.raises(BadParameters):
        dataclasses.replace(stream, erased=(8,))
    lossy = dataclasses.replace(stream, erased=(0, 5))
    assert lossy.erased == frozenset({0, 5})
    assert stream.erased == frozenset()  # original untouched


@pytest.mark.parametrize("symbol", [3, -1, True, 1.0, "1"])
def test_packet_stream_rejects_a_non_element(symbol):
    packets = [list(p) for p in de_encode(CODE831, [(1, 2, 0, 1)]).packets]
    packets[4][6] = symbol
    with pytest.raises(BadParameters, match="is not an element of GF"):
        PacketStream(3, 8, 4, 1, packets, frozenset())


@pytest.mark.parametrize("field", ["q", "n", "k", "message_count"])
@pytest.mark.parametrize("value", ["x", 3.0, True, None])
def test_packet_stream_rejects_non_integer_sizes(field, value):
    sizes = {"q": 3, "n": 8, "k": 4, "message_count": 1, field: value}
    packets = de_encode(CODE831, [(1, 2, 0, 1)]).packets
    with pytest.raises(BadParameters, match=f"{field} must be an integer"):
        PacketStream(**sizes, packets=packets, erased=frozenset())


@pytest.mark.parametrize("sizes", [(3, 8, 4, -1), (3, 8, 4, 0), (3, 8, 9, 1), (3, 8, 0, 1)])
def test_packet_stream_rejects_sizes_out_of_range(sizes):
    """A count and shape whose packet count still adds up are refused too."""
    q, n, k, count = sizes
    with pytest.raises(BadParameters, match="need message_count >= 1 and 1 <= k <= n"):
        PacketStream(q, n, k, count, ((0,) * n,) * max(count + n - 1, 0), frozenset())


@pytest.mark.parametrize("packets, erased", [(5, ()), (None, ()), ((1, 2), ()), ("ok", 5),
                                             ("ok", None), ("ok", [[1]])])
def test_packet_stream_rejects_packets_or_erasures_that_are_not_lists(packets, erased):
    if packets == "ok":
        packets = de_encode(CODE831, [(1, 2, 0, 1)]).packets
    with pytest.raises(BadParameters, match="packets must be a list of symbol lists and erased"):
        PacketStream(3, 8, 4, 1, packets, erased)


@pytest.mark.parametrize("messages", [5, [5], None, [None]])
def test_de_encode_rejects_messages_that_are_not_lists(messages):
    with pytest.raises(BadParameters, match="messages must be a list of symbol lists"):
        de_encode(CODE831, messages)


def test_decoding_checks_symbols_only_at_the_boundary(monkeypatch):
    """A stream the package encoded is decoded with no Field.check call; a
    word handed to decode_erasures is still checked."""
    msgs = _random_messages(4, 3, 30, seed=5)
    stream = dataclasses.replace(de_encode(CODE831, msgs), erased=(1, 2, 3, 12, 20))
    calls = []
    check = Field.check
    monkeypatch.setattr(Field, "check", lambda self, x: calls.append(x) or check(self, x))
    trace = de_decode(stream, CODE831, PARAMS831)
    assert trace.messages == tuple(msgs) and calls == []
    word = list(stream.packets[8])
    word[0], word[1] = None, 3
    with pytest.raises(BadParameters, match="3 is not an element of GF"):
        channel.decode_erasures(CODE831, word)
    assert 3 in calls


@pytest.mark.parametrize("indices", [[1.5], ["2"], [True], [1, True], [1.0, 2]])
def test_with_erasures_rejects_non_integer_indices(indices):
    stream = de_encode(CODE831, [(1, 2, 0, 1)])
    with pytest.raises(BadParameters, match="erased slot index must be an integer"):
        dataclasses.replace(stream, erased=indices)


@pytest.mark.parametrize("erased", [{1.5, True}, {1.5}, {"2"}, {True}, {2.0, 3}, [1, True]])
def test_packet_stream_rejects_non_integer_erasures(erased):
    """A list keeps the True that a set would merge into 1."""
    packets = ((0, 0, 0),) * 3
    if isinstance(erased, set):
        erased = frozenset(erased)
    with pytest.raises(BadParameters, match="erased slot index must be an integer"):
        PacketStream(2, 3, 1, 1, packets, erased)


@pytest.mark.parametrize("loss", [[1.9, "3"], [True], [1, True], ["0"], [2.0]])
def test_stream_admissibility_rejects_non_integer_indices(loss):
    with pytest.raises(BadParameters, match="loss index must be an integer"):
        is_stream_admissible(loss, 10, ChannelParams(1, 2, 1, 5))


def test_is_stream_admissible():
    assert is_stream_admissible((), 9, ChannelParams(0, 1, 1, 3))
    assert is_stream_admissible((0, 1, 2), 3, ChannelParams(1, 2, 1, 4))
    # three isolated losses in one window: neither branch covers them
    assert not is_stream_admissible((0, 2, 4), 5, ChannelParams(1, 2, 1, 5))
    # admissible in every sliding window even though the total weight is 4
    assert is_stream_admissible((0, 1, 4, 5), 8, ChannelParams(1, 2, 1, 4))
    assert not is_stream_admissible((0, 1, 2, 3), 8, ChannelParams(1, 2, 1, 4))


def test_short_stream_is_judged_as_one_padded_window():
    assert is_stream_admissible((0, 2), 3, ChannelParams(0, 2, 1, 4))
    assert not is_stream_admissible((0, 1, 2), 3, ChannelParams(0, 1, 1, 4))


def test_is_stream_admissible_index_guard():
    with pytest.raises(BadParameters):
        is_stream_admissible((5,), 5, ChannelParams(1, 2, 1, 5))
    with pytest.raises(BadParameters):
        is_stream_admissible((-1,), 5, ChannelParams(1, 2, 1, 5))


def test_periodic_pattern_fixture():
    ch = ChannelParams(2, 3, 2, 7)
    loss = periodic_pattern(ch, 2)
    assert loss == (0, 1, 2, 3, 4, 7, 8, 9, 10, 11)
    assert is_stream_admissible(loss, 14, ch)


def test_periodic_pattern_guards():
    with pytest.raises(ParameterViolation):
        periodic_pattern(ChannelParams(1, 3, 1, 5), 2)  # e < b - 1
    with pytest.raises(BadParameters):
        periodic_pattern(ChannelParams(2, 3, 2, 7), 0)


def test_ge_source_frozen_and_deterministic():
    assert GE_ALGORITHM == "python-random-mt19937"
    loss = ge_source(0.2, 0.4, 0.1, 0.9, 30, seed=42)
    assert loss == (1, 4, 6, 7, 8, 9, 13, 14, 15, 16, 17, 18, 19, 20, 22)
    assert ge_source(0.2, 0.4, 0.1, 0.9, 30, seed=42) == loss


def test_ge_source_extremes():
    assert ge_source(0.5, 0.5, 0.0, 0.0, 25, seed=1) == ()
    assert ge_source(0.2, 0.4, 0.1, 0.9, 0, seed=1) == ()
    # slot 0 is drawn in the good state, then the chain is absorbed in bad
    assert ge_source(1.0, 0.0, 0.0, 1.0, 10, seed=7) == tuple(range(1, 10))
    assert ge_source(1, 0, 0, 1, 10, seed=7) == tuple(range(1, 10))


def test_ge_source_guards():
    with pytest.raises(BadProbability):
        ge_source(1.5, 0.4, 0.1, 0.9, 10, seed=1)
    with pytest.raises(BadProbability):
        ge_source(0.2, 0.4, -0.1, 0.9, 10, seed=1)
    with pytest.raises(BadParameters):
        ge_source(0.2, 0.4, 0.1, 0.9, -1, seed=1)


@pytest.mark.parametrize("p", ["0.2", None, True, False, [0.2]])
def test_ge_source_rejects_non_numbers(p):
    with pytest.raises(BadProbability, match="probability must be a number"):
        ge_source(p, 0.4, 0.1, 0.9, 10, seed=1)
    with pytest.raises(BadProbability, match="probability must be a number"):
        ge_source(0.2, 0.4, 0.1, p, 10, seed=1)
    params = StreamingParams(ChannelParams(2, 3, 2, 7), 6)
    with pytest.raises(BadProbability, match="probability must be a number"):
        simulate(mds_code(7, 5), params, GilbertElliottSource(p, 0.5, 0.05, 0.8, 60), seed=1)


def test_verifier_accepts_construction_one():
    report = verify_streaming_code(CODE831, PARAMS831)
    assert report.verdict is True
    assert report.witness is None
    assert report.patterns_checked == 114


def test_verifier_at_the_rate_boundary():
    params = StreamingParams(ChannelParams(2, 3, 1, 6), 5)
    ok = verify_streaming_code(mds_code(6, 4), params)  # [6,2]: k = w-(b+e)
    assert ok.verdict is True and ok.patterns_checked == 51
    over = verify_streaming_code(mds_code(6, 3), params)  # [6,3]: one too wide
    assert over.verdict is False
    assert over.witness.support == (0, 1, 2, 3)


def test_verifier_builds_a_pattern_only_for_its_witness(monkeypatch):
    built = []
    post_init = ErasurePattern.__post_init__

    def counting(self):
        built.append(self.support)
        post_init(self)

    monkeypatch.setattr(ErasurePattern, "__post_init__", counting)
    # the witness skips the constructor's checks: count those builds too
    unchecked = channel._built

    def counting_unchecked(cls, **values):
        if cls is ErasurePattern:
            built.append(values["support"])
        return unchecked(cls, **values)

    monkeypatch.setattr(channel, "_built", counting_unchecked)
    params = StreamingParams(ChannelParams(2, 3, 1, 6), 5)
    assert verify_streaming_code(mds_code(6, 4), params).verdict is True
    assert built == []
    over = verify_streaming_code(mds_code(6, 3), params)
    assert built == [over.witness.support] == [(0, 1, 2, 3)]


def test_streaming_never_builds_a_generator(monkeypatch):
    """Verifying, encoding and simulating build no generator matrix: the
    encoder solves parity symbols as erased ones."""
    built = []
    monkeypatch.setattr(
        codes, "generator_matrix", lambda code: built.append(code) or generator_matrix(code)
    )
    params = StreamingParams(ChannelParams(2, 3, 1, 6), 5)
    assert verify_streaming_code(mds_code(6, 4), params).verdict is True
    assert verify_streaming_code(mds_code(6, 3), params).verdict is False
    de_encode(CODE831, _random_messages(4, 3, 5, seed=1))
    simulate(mds_code(7, 5), StreamingParams(ChannelParams(2, 3, 2, 7), 6), PeriodicSource(3), 11)
    assert built == []
    assert not hasattr(streaming, "generator_matrix")


def test_verifier_guards():
    with pytest.raises(UnsupportedDelay):
        verify_streaming_code(CODE831, StreamingParams(ChannelParams(1, 3, 1, 8), 8))
    with pytest.raises(DimensionMismatch):
        verify_streaming_code(CODE831, StreamingParams(ChannelParams(2, 3, 1, 6), 5))


# [6, 4] over GF(2) whose last two columns are equal: no [I_k | P] generator
NOT_SYSTEMATIC = LinearCode(
    Matrix(field_make(2), [[0, 0, 1, 0, 1, 1], [0, 0, 0, 1, 1, 1]])
)


def test_verifier_rejects_a_code_without_systematic_orientation():
    params = StreamingParams(ChannelParams(2, 3, 1, 6), 5)
    with pytest.raises(NotSystematic, match="^last n-k columns of H are singular$"):
        verify_streaming_code(NOT_SYSTEMATIC, params)
    # the delay and length guards come first
    with pytest.raises(UnsupportedDelay):
        verify_streaming_code(NOT_SYSTEMATIC, StreamingParams(ChannelParams(2, 3, 1, 6), 6))
    with pytest.raises(DimensionMismatch):
        verify_streaming_code(NOT_SYSTEMATIC, StreamingParams(ChannelParams(2, 3, 1, 7), 6))


def test_de_encode_rejects_a_code_without_systematic_orientation():
    with pytest.raises(NotSystematic, match="^last n-k columns of H are singular$"):
        de_encode(NOT_SYSTEMATIC, [(1, 0, 1, 1)])
    # before any message check
    with pytest.raises(NotSystematic):
        de_encode(NOT_SYSTEMATIC, [])
    with pytest.raises(NotSystematic):
        de_encode(NOT_SYSTEMATIC, [(1, 2)])


def test_decode_roundtrip_with_burst_plus_straggler():
    msgs = _random_messages(4, 3, 6, seed=7)
    stream = dataclasses.replace(de_encode(CODE831, msgs), erased=(1, 2, 3, 6))
    trace = de_decode(stream, CODE831, PARAMS831)
    assert trace.times == (0, 8, 9, 10, 4, 5)
    assert trace.deadlines == (7, 8, 9, 10, 11, 12)
    assert trace.messages == tuple(msgs)
    assert trace.messages_failed == 0
    assert trace.deadline_misses == 0


def test_decode_reports_unrecoverable_messages():
    msgs = _random_messages(4, 3, 6, seed=7)
    stream = dataclasses.replace(de_encode(CODE831, msgs), erased=range(5))  # burst of 5
    trace = de_decode(stream, CODE831, PARAMS831)
    assert trace.times == (None, None, None, None, 11, 5)
    assert trace.messages_failed == 4
    assert trace.messages[0] is None
    assert trace.messages[4] == msgs[4]
    assert trace.deadline_misses == 0  # failures are not late recoveries


def test_decode_deadline_miss_accounting():
    # A tighter channel window means a tighter deadline than the rebuild slot.
    tight = StreamingParams(ChannelParams(1, 2, 1, 4), 3)
    msgs = _random_messages(4, 3, 6, seed=7)
    stream = dataclasses.replace(de_encode(CODE831, msgs), erased=(1,))
    trace = de_decode(stream, CODE831, tight)
    assert trace.times == (0, 8, 2, 3, 4, 5)
    assert trace.deadlines == (3, 4, 5, 6, 7, 8)
    assert trace.misses == (False, True, False, False, False, False)
    assert trace.deadline_misses == 1
    assert trace.messages_failed == 0
    assert trace.messages[1] == msgs[1]


def test_decode_rejects_foreign_stream():
    stream = de_encode(CODE831, [(1, 2, 0, 1)])
    with pytest.raises(DimensionMismatch):
        de_decode(stream, mds_code(6, 3), PARAMS831)


def test_simulate_periodic_is_clean_and_deterministic():
    params = StreamingParams(ChannelParams(2, 3, 2, 7), 6)
    code = mds_code(7, 5)  # [7,2] meets the rate bound for this channel
    summary = simulate(code, params, PeriodicSource(3), seed=11)
    assert summary == {
        "slots": 21,
        "admissible": True,
        "windows_inadmissible": 0,
        "messages_failed": 0,
        "deadline_misses": 0,
        "seed": 11,
    }
    assert simulate(code, params, PeriodicSource(3), seed=11) == summary


def test_simulate_admissible_gilbert_elliott_run():
    params = StreamingParams(ChannelParams(2, 3, 2, 7), 6)
    source = GilbertElliottSource(0.1, 0.5, 0.05, 0.8, 60)
    summary = simulate(mds_code(7, 5), params, source, seed=1)
    assert summary == {
        "slots": 60,
        "admissible": True,
        "windows_inadmissible": 0,
        "messages_failed": 0,
        "deadline_misses": 0,
        "seed": 1,
    }
    assert len(ge_source(0.1, 0.5, 0.05, 0.8, 60, seed=1)) == 11


def test_simulate_saturated_channel_summary():
    params = StreamingParams(ChannelParams(2, 3, 2, 7), 6)
    source = GilbertElliottSource(1.0, 0.0, 0.0, 1.0, 40)  # loses slots 1..39
    summary = simulate(mds_code(7, 5), params, source, seed=5)
    assert summary == {
        "slots": 40,
        "admissible": False,
        "windows_inadmissible": 34,
        "messages_failed": 33,
        "deadline_misses": 0,
        "seed": 5,
    }
    assert set(summary) == {
        "slots",
        "admissible",
        "windows_inadmissible",
        "messages_failed",
        "deadline_misses",
        "seed",
    }


def test_simulate_guards():
    params = StreamingParams(ChannelParams(2, 3, 2, 7), 6)
    with pytest.raises(BadParameters):
        simulate(mds_code(7, 5), params, object(), seed=1)
    with pytest.raises(BadParameters):
        # 6 slots leave no room for even one message packet of a length-7 code
        simulate(mds_code(7, 5), params, GilbertElliottSource(0.1, 0.5, 0.0, 0.5, 6), seed=1)
    with pytest.raises(ParameterViolation):
        simulate(CODE831, PARAMS831, PeriodicSource(2), seed=1)  # e < b - 1


_P727 = StreamingParams(ChannelParams(2, 3, 2, 7), 6)


def test_simulate_streams_the_randrange_draws_message_by_message(monkeypatch):
    """The stream simulate decodes is de_encode of one randrange(q) draw per
    symbol, message by message, with the source's losses erased."""
    streams = []
    decode = streaming.de_decode
    monkeypatch.setattr(
        streaming, "de_decode", lambda stream, *a: streams.append(stream) or decode(stream, *a)
    )
    code, seed = mds_code(7, 4), -5
    simulate(code, _P727, PeriodicSource(4), seed)
    rng = random.Random(seed ^ streaming._MESSAGE_SEED_SALT)
    msgs = [[rng.randrange(code.field.q) for _ in range(code.k)] for _ in range(4 * 7 - 6)]
    loss = frozenset(periodic_pattern(_P727.channel, 4))
    assert streams == [dataclasses.replace(de_encode(code, msgs), erased=loss)]


@pytest.mark.parametrize("run, what", [
    (lambda: simulate(mds_code(7, 5), _P727, PeriodicSource(2.5), 1), "periods"),
    (lambda: simulate(mds_code(7, 5), _P727, PeriodicSource(True), 1), "periods"),
    (lambda: simulate(mds_code(7, 5), _P727,
                      GilbertElliottSource(0.1, 0.5, 0.0, 0.5, 60.0), 1), "slots"),
    (lambda: simulate(mds_code(7, 5), _P727, PeriodicSource(3), 1.5), "seed"),
    (lambda: simulate(mds_code(7, 5), _P727, PeriodicSource(3), "1"), "seed"),
    (lambda: simulate(mds_code(7, 5), _P727,
                      GilbertElliottSource(0.1, 0.5, 0.0, 0.5, 60), 1.5), "seed"),
    (lambda: ge_source(0.2, 0.4, 0.1, 0.9, 10.0, seed=1), "length"),
    (lambda: ge_source(0.2, 0.4, 0.1, 0.9, 10, seed="1"), "seed"),
    (lambda: periodic_pattern(ChannelParams(2, 3, 2, 7), 1.5), "periods"),
])
def test_loss_sources_reject_non_integer_counts_and_seeds(run, what):
    with pytest.raises(BadParameters, match=f"{what} must be an integer"):
        run()


def test_de_decode_reduces_h_once_and_pivots_each_erased_set_once(monkeypatch):
    """A periodic loss repeats one erased set on the diagonals every period;
    a de_decode call reduces H once and pivots each distinct set into that
    one reduction once."""
    ch = ChannelParams(1, 2, 2, 9)
    code = mds_code(9, 4)
    params = StreamingParams(ch, 8)
    loss = set(periodic_pattern(ch, 20))
    msgs = _random_messages(code.k, code.field.q, 20 * 9 - 8, seed=3)
    stream = dataclasses.replace(de_encode(code, msgs), erased=loss)
    calls = {"_rref": [], "_recovery": []}

    def spy(log, real):
        def call(*args):  # logs each call's arguments and result
            log.append((args, real(*args)))
            return log[-1][1]
        return call

    for name, log in calls.items():
        monkeypatch.setattr(streaming, name, spy(log, getattr(streaming, name)))
    trace = de_decode(stream, code, params)
    assert trace.messages == tuple(msgs)
    diagonals = {t - j for t in loss if t < len(msgs) for j in range(code.k)}
    erased_sets = {tuple(j for j in range(9) if d + j in loss) for d in diagonals}
    [((_, rows), rref)] = calls["_rref"]
    assert rows == code.h.data
    pivoted = [tuple(a[2]) for a, _ in calls["_recovery"]]
    assert sorted(pivoted) == sorted(erased_sets) and len(pivoted) < len(diagonals)
    assert all(a[1] is rref for a, _ in calls["_recovery"])


# q = 2^m rejects about half the words; q = 65536 keeps 17 bits, a shift of 15
# 243 and 251 are the largest fields below 256, the top of the one-byte draws
_DRAW_FIELDS = (2, 3, 4, 5, 7, 8, 9, 11, 16, 17, 31, 32, 127, 128, 243, 251, 256, 257, 1024,
                65521, 65536)
# simulate seeds the payload with seed ^ salt, which is negative for a negative seed
_DRAW_SEEDS = tuple(s ^ streaming._MESSAGE_SEED_SALT for s in (0, 1, 11, -1, -977, 2**40 + 3))


def _randrange_draws(seed, q, count):
    rng = random.Random(seed)
    return [rng.randrange(q) for _ in range(count)]


@pytest.mark.parametrize("q", _DRAW_FIELDS)
def test_uniform_draws_are_randrange_draw_for_draw(q, monkeypatch):
    # 64-word chunks, so that 300 draws cross several chunk boundaries
    monkeypatch.setattr(streaming, "_CHUNK_WORDS", 64)
    for seed in _DRAW_SEEDS:
        for count in (1, 7, 300):
            assert streaming._uniform_draws(seed, q, count) == _randrange_draws(seed, q, count)


@pytest.mark.parametrize("q", (2, 9, 251, 257, 65536))
def test_uniform_draws_past_one_full_chunk(q):
    count = streaming._CHUNK_WORDS + 1000
    seed = -977 ^ streaming._MESSAGE_SEED_SALT
    assert streaming._uniform_draws(seed, q, count) == _randrange_draws(seed, q, count)
