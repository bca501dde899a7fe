"""The shared elimination routine, Zech-logarithm addition, the pattern
families, the prefix-sharing independence walk, the minimum-distance subset
search, the exhaustive searches, erasure decoding, the generator, the
stream encoder, the simulator and the batch element check against the
reference code in ``oracles``: same ranks, matrices, solutions, decoded
words, encoded codewords, verdicts, witnesses, ``patterns_checked`` counts,
pattern orders, first-found parity checks, simulate summaries, exception
types and messages on seeded random inputs. Values the package builds
without its constructors' checks equal the checked ones."""

from __future__ import annotations

import dataclasses
import itertools
import random
from types import SimpleNamespace

import pytest

import oracles
from erasurelab import channel
from erasurelab.algebra import (
    Matrix,
    Poly,
    _check_elements,
    _digits,
    _first_dependent,
    _recovery,
    _rref,
    columns_independent,
    field_make,
    mat_rank,
    poly_divides,
    poly_divmod,
    poly_mul,
    solve_for_columns,
    systematic_form,
    x_pow_n_minus_1,
)
from erasurelab.analysis import (
    _SEARCH_CAP,
    _normalized,
    _run_search,
    cyclic_burst_capability,
    cyclic_report,
    exhaustive_burst_random_search,
    exhaustive_code_search,
    mds_subblock_check,
)
from erasurelab.channel import (
    ChannelParams,
    ErasurePattern,
    _bursts,
    _unions,
    check_wraparound,
    decode_erasures,
    enumerate_admissible_windows,
    enumerate_b1b2_patterns,
    enumerate_burst_plus_random,
)
from erasurelab.codes import (
    LinearCode,
    _min_dist_subsets,
    construction_one,
    construction_one_binary,
    cyclic_from_h,
    generator_matrix,
    mds_code,
)
from erasurelab.errors import ErasureLabError, InconsistentSyndrome, StructureViolation
from erasurelab.streaming import (
    GilbertElliottSource,
    PacketStream,
    PeriodicSource,
    StreamingParams,
    de_decode,
    de_encode,
    simulate,
    verify_streaming_code,
)

FIELDS = (2, 3, 4, 5, 7, 8, 9, 25, 27)
# either side of the q = 256 cut between table and element arithmetic
BIG_FIELDS = (256, 257, 625, 1024)


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except ErasureLabError as exc:
        return ("raise", type(exc), str(exc))


def _ref_dot(f, u, v):
    acc = 0
    for x, y in zip(u, v):
        acc = f.add(acc, f.mul(x, y))
    return acc


def _random_rows(rng, q, nr, nc):
    # half the entries are zero so that singular blocks, dependent columns
    # and inconsistent syndromes all turn up
    return [[rng.randrange(1, q) if rng.random() < 0.5 else 0 for _ in range(nc)]
            for _ in range(nr)]


@pytest.mark.parametrize("q", FIELDS)
def test_field_addition_matches_digit_loops(q):
    f = field_make(q)
    ref = oracles.DigitField(f)
    for a in range(q):
        assert f.neg(a) == ref.neg(a)
        for b in range(q):
            assert f.add(a, b) == ref.add(a, b)
            assert f.sub(a, b) == ref.sub(a, b)


def _elimination_inputs(rng, q):
    """150 shapes up to 4 x 7, then 100 up to 6 x 10 (nr > nc included); about
    half of the latter with two or more rows get a zero or a repeated row."""
    for _ in range(150):
        yield _random_rows(rng, q, rng.randint(1, 4), rng.randint(1, 7))
    for _ in range(100):
        nr, nc = rng.randint(1, 6), rng.randint(1, 10)
        rows = _random_rows(rng, q, nr, nc)
        if nr >= 2 and rng.random() < 0.5:
            i, j = rng.sample(range(nr), 2)
            rows[i] = [0] * nc if rng.random() < 0.5 else list(rows[j])
        yield rows


def _stand_in(h, k):
    """A code over H with dimension k for an H that LinearCode refuses (its
    rows dependent, or more rows than columns); systematic is the last
    n - k columns' independence, as LinearCode stores it."""
    n = h.ncols
    return SimpleNamespace(field=h.field, h=h, n=n, k=k,
                           systematic=columns_independent(h, range(k, n)))


def _reference_generator(code):
    """The [I_k | P] generator when the last n - k columns of H allow it, the
    reduced null-space basis otherwise."""
    systematic = _outcome(oracles.systematic_generator, code)
    if systematic[0] == "ok":
        return systematic
    return _outcome(oracles.nullspace_generator, code)


@pytest.mark.parametrize("q", FIELDS + BIG_FIELDS)
def test_elimination_matches_reference_loops(q):
    rng = random.Random(1000 + q)
    f = field_make(q)
    for rows in _elimination_inputs(rng, q):
        h = Matrix(f, rows)
        nr, nc = h.nrows, h.ncols

        assert mat_rank(h) == oracles.mat_rank(h)
        for side in ("left", "right"):
            assert _outcome(systematic_form, h, side) == _outcome(
                oracles.systematic_form, h, side
            )

        cols = rng.sample(range(nc), rng.randint(1, nc))
        if rng.random() < 0.5:
            syndrome = [rng.randrange(q) for _ in range(nr)]
        else:  # consistent by construction
            x = [rng.randrange(q) for _ in cols]
            syndrome = [0] * nr
            for r in range(nr):
                for c, xc in zip(cols, x):
                    syndrome[r] = f.add(syndrome[r], f.mul(h.data[r][c], xc))
        assert _outcome(solve_for_columns, h, cols, syndrome) == _outcome(
            oracles.solve_for_columns, h, cols, syndrome
        )

        # k floored at 0 where H has more rows than columns
        code = _stand_in(h, max(nc - nr, 0))
        assert _outcome(generator_matrix, code) == _reference_generator(code)
        if 2 <= nr <= nc:
            b = rng.randint(1, nr - 1)
            assert _outcome(mds_subblock_check, code, b, nr - b) == _outcome(
                oracles.mds_subblock_check, code, b, nr - b
            )


# ---------------------------------------------------------------------------
# erased-coordinate map: erasure decoding, the generator and the encoder
# ---------------------------------------------------------------------------


def _erasure_codes(rng, q):
    """Sparse random H (often non-systematic, with dependent column sets),
    the same H with a repeated or zero row (rank-deficient, so no LinearCode
    accepts it), and MDS codes, whose erased sets are dependent only past
    n - k."""
    f = field_make(q)
    for _ in range(40):
        nc = rng.randint(2, 8)
        nr = rng.randint(1, nc - 1)
        rows = _random_rows(rng, q, nr, nc)
        if nr >= 2 and rng.random() < 0.3:
            i, j = rng.sample(range(nr), 2)
            rows[i] = [0] * nc if rng.random() < 0.5 else list(rows[j])
        yield _stand_in(Matrix(f, rows), nc - nr)
    for n in range(3, min(q, 8) + 1):
        yield mds_code(n, rng.randint(1, n - 1), q)


def _received_words(rng, code):
    """Codewords, some with one symbol changed, with no erasure, with every
    symbol erased and with a random erased set."""
    q, n = code.field.q, code.n
    basis = oracles.nullspace_generator(code).data
    for _ in range(12):
        word = [0] * n
        for row in basis:
            c = rng.randrange(q)
            word = [code.field.add(x, code.field.mul(c, y)) for x, y in zip(word, row)]
        if rng.random() < 0.3:
            word[rng.randrange(n)] = rng.randrange(q)
        erased = rng.choice([0, n, rng.randint(1, n)])
        for i in rng.sample(range(n), erased):
            word[i] = None
        yield word


def _kind(outcome):
    if outcome[0] == "ok":
        return "ok"
    if outcome[1] is InconsistentSyndrome:
        return outcome[2]
    return outcome[1].__name__


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9) + BIG_FIELDS)
def test_erasure_map_matches_syndrome_decoder(q):
    rng = random.Random(6000 + q)
    kinds = set()
    for code in _erasure_codes(rng, q):
        assert _outcome(generator_matrix, code) == _reference_generator(code)
        # diagonal 0 carries symbol i of message i and then their parity
        msgs = [[rng.randrange(q) for _ in range(code.k)] for _ in range(code.k)]
        stream = _outcome(de_encode, code, msgs)
        systematic = _outcome(oracles.systematic_generator, code)
        if systematic[0] == "ok":
            x = [msgs[i][i] for i in range(code.k)]
            word = [_ref_dot(code.field, x, col) for col in zip(*systematic[1].data)]
            assert [stream[1].packets[j][j] for j in range(code.n)] == word
        else:
            assert stream == systematic
        kinds.add(_kind(stream))
        for word in _received_words(rng, code):
            decoded = _outcome(decode_erasures, code, word)
            assert decoded == _outcome(oracles.decode_erasures, code, word)
            kinds.add(_kind(decoded))
    assert kinds == {
        "ok",
        "NotSystematic",
        "Unrecoverable",
        "known symbols contradict the code",
        "received word is not a codeword",
    }


@pytest.mark.parametrize("q", (16, 256, 257))  # one field per row family
def test_recovery_is_none_exactly_when_the_wanted_columns_are_dependent(q):
    """_recovery, on the RREF of H, answers None exactly when
    columns_independent says the wanted columns are dependent: on full-rank
    H, non-systematic ones included, on rank-deficient H, as
    solve_for_columns's [H_E | s] rows often are, and on all-zero rows,
    whose RREF is empty. Otherwise -M·x_rest = x_wanted and C·x_rest = 0 for
    every reference null-space vector x, and C has independent rows, with
    |M| + |C| = rank H, so (M, C) is a map of exactly H's null space."""
    rng = random.Random(7000 + q)
    f = field_make(q)
    zero = _stand_in(Matrix(f, [[0] * 5] * 2), 3)
    dependent = non_systematic = deficient = 0
    for code in [*_erasure_codes(rng, q), zero]:
        h, n = code.h, code.n
        r = oracles.mat_rank(h)
        non_systematic += not code.systematic
        deficient += r < h.nrows
        rref = _rref(f, h.data)
        samples = [rng.sample(range(n), rng.randint(0, n)) for _ in range(6)]
        if code is zero:
            samples += [[], [n - 1, 0]]
        for wanted in samples:
            rest = [j for j in range(n) if j not in wanted]
            recovery = _recovery(f, rref, wanted)
            assert (recovery is None) == (not columns_independent(h, wanted))
            if recovery is None:
                dependent += 1
                continue
            m, c = recovery
            assert len(m) == len(wanted) and len(m) + len(c) == r
            assert (oracles.mat_rank(Matrix(f, c)) if c else 0) == len(c)
            for x in oracles.nullspace_generator(code).data:
                y = [x[j] for j in rest]
                assert [f.neg(_ref_dot(f, row, y)) for row in m] == [x[i] for i in wanted]
                assert all(_ref_dot(f, row, y) == 0 for row in c)
    assert dependent and non_systematic and deficient


@pytest.mark.parametrize("q", (16, 256, 257))  # one field per row family
def test_pivot_map_is_none_exactly_when_the_erased_columns_are_dependent(q):
    """The stream decoder's erasure map, _recovery on the RREF of a random
    full-rank H, answers None exactly when columns_independent says the
    erased columns are dependent. Otherwise -M·x_rest = x_E and
    C·x_rest = 0 for every reference null-space vector x, and
    rank C = r - |E|."""
    rng = random.Random(7100 + q)
    f = field_make(q)
    dependent = non_systematic = 0
    for code in _erasure_codes(rng, q):
        h, n = code.h, code.n
        r = oracles.mat_rank(h)
        if r < h.nrows:
            continue
        non_systematic += not code.systematic
        rref = _rref(f, h.data)
        for erased in (rng.sample(range(n), rng.randint(0, n)) for _ in range(6)):
            rest = [j for j in range(n) if j not in erased]
            pivoted = _recovery(f, rref, erased)
            assert (pivoted is None) == (not columns_independent(h, erased))
            if pivoted is None:
                dependent += 1
                continue
            m, c = pivoted
            assert len(m) == len(erased)
            assert (oracles.mat_rank(Matrix(f, c)) if c else 0) == r - len(erased)
            for x in oracles.nullspace_generator(code).data:
                y = [x[j] for j in rest]
                assert [f.neg(_ref_dot(f, row, y)) for row in m] == [x[i] for i in erased]
                assert all(_ref_dot(f, row, y) == 0 for row in c)
    assert dependent and non_systematic


def test_de_decode_flags_a_tampered_parity_symbol():
    """One parity symbol changed on a diagonal through a lost message: the
    decoder raises the reference decoder's error on that diagonal."""
    ch = ChannelParams(1, 2, 2, 9)
    code = mds_code(9, 4)
    rng = random.Random(7)
    msgs = [[rng.randrange(code.field.q) for _ in range(code.k)] for _ in range(20)]
    stream = de_encode(code, msgs)
    packets = [list(p) for p in stream.packets]
    d, j = 10, code.k  # diagonal 10 puts its first parity symbol in slot 10 + k
    packets[d + j][j] = code.field.add(packets[d + j][j], 1)
    tampered = PacketStream(stream.q, stream.n, stream.k, stream.message_count,
                            tuple(map(tuple, packets)), frozenset({d}))
    ref = _outcome(oracles.decode_erasures, code, oracles.diagonal_word(tampered, d))
    assert ref == ("raise", InconsistentSyndrome, "known symbols contradict the code")
    assert _outcome(de_decode, tampered, code, StreamingParams(ch, 8)) == ref


def _stream_codes(rng, q):
    """MDS codes, random systematic codes [P | I] and codes [I | P] whose
    last column is zero, so that no [I_k | P] generator exists."""
    f = field_make(q)
    for n in range(2, min(q, 9) + 1):
        yield mds_code(n, rng.randint(1, n - 1), q)
    for _ in range(6):
        n = rng.randint(2, 9)
        r = rng.randint(1, n - 1)
        yield LinearCode(Matrix(f, _systematic_rows(rng, q, n - r, r)))
    n = rng.randint(3, 8)
    r = rng.randint(1, n - 1)
    rows = [[int(t == i) for t in range(r)] + [rng.randrange(q) for _ in range(n - r)]
            for i in range(r)]
    for row in rows:
        row[-1] = 0
    yield LinearCode(Matrix(f, rows))


def _losses(rng, slots):
    """Random, periodic and saturated loss sets over every slot, the tail
    slots past the last message included."""
    yield {t for t in range(slots) if rng.random() < rng.choice((0.1, 0.3, 0.6))}
    period = rng.randint(2, 10)
    span = rng.randint(1, period - 1)
    yield {t for t in range(slots) if t % period < span}
    start = rng.randrange(slots)
    yield set(range(start, rng.randint(start, slots)))
    yield set(range(slots))


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9) + BIG_FIELDS + (65521,))
def test_stream_coding_matches_per_diagonal_reference(q):
    """Whole-stream encode and decode against the per-diagonal reference:
    equal packets, equal traces and equal errors, on clean and on tampered
    streams."""
    rng = random.Random(8000 + q)
    params = StreamingParams(ChannelParams(0, 1, 1, 3), 2)
    kinds = set()
    for code in _stream_codes(rng, q):
        for _ in range(4):
            count = rng.randint(1, 40)
            msgs = [[rng.randrange(q) for _ in range(code.k)] for _ in range(count)]
            if rng.random() < 0.1:  # a bad symbol or a short message
                msgs[rng.randrange(count)] = rng.choice(([q] * code.k, [0] * (code.k + 1)))
            encoded = _outcome(de_encode, code, msgs)
            assert encoded == _outcome(oracles.de_encode, code, msgs)
            if encoded[0] != "ok":
                kinds.add(encoded[1].__name__)
                continue
            stream = encoded[1]
            for loss in _losses(rng, len(stream.packets)):
                lossy = dataclasses.replace(stream, erased=loss)
                if rng.random() < 0.5 and loss:
                    # a parity symbol on a diagonal through a lost slot
                    packets = [list(p) for p in lossy.packets]
                    j = rng.randrange(code.k, code.n)
                    s = min(rng.choice(sorted(loss)) + rng.randrange(j + 1), len(packets) - 1)
                    packets[s][j] = code.field.add(packets[s][j], rng.randrange(1, q))
                    lossy = PacketStream(q, code.n, code.k, count, packets, lossy.erased)
                decoded = _outcome(de_decode, lossy, code, params)
                assert decoded == _outcome(oracles.de_decode, lossy, code, params)
                if decoded[0] == "raise":
                    kinds.add(decoded[1].__name__)
                else:
                    kinds.add("failed" if decoded[1].messages_failed else "ok")
    assert kinds >= {"ok", "failed", "InconsistentSyndrome", "NotSystematic"}


def _simulate_cases():
    """(what, code, params, source) for the simulator: the benchmark's stream
    channels, clean and lossy Gilbert-Elliott runs, late and on-time
    deliveries, a field past the flat tables, and runs that raise."""
    for a, b, e, w in ((1, 2, 2, 9), (2, 3, 2, 9), (1, 2, 1, 8), (2, 3, 2, 7), (1, 2, 2, 10),
                       (1, 1, 2, 5)):
        params = StreamingParams(ChannelParams(a, b, e, w), w - 1)
        yield "clean", mds_code(w, b + e), params, PeriodicSource(1000 // w)
    p727 = StreamingParams(ChannelParams(2, 3, 2, 7), 6)
    yield "README", mds_code(7, 5), p727, GilbertElliottSource(0.1, 0.5, 0.05, 0.8, 120)
    yield "failed", mds_code(7, 5), p727, GilbertElliottSource(0.3, 0.3, 0.1, 0.9, 400)
    # diagonals of length n = 9 > w finish two slots past the deadline w - 1
    yield "late", mds_code(9, 7), p727, PeriodicSource(40)
    yield "clean", mds_code(9, 7), StreamingParams(p727.channel, 10), PeriodicSource(40)
    p929 = StreamingParams(ChannelParams(1, 2, 2, 9), 8)
    yield "clean", mds_code(9, 4, 257), p929, PeriodicSource(30)
    yield "lossy", mds_code(9, 4, 257), p929, GilbertElliottSource(0.1, 0.5, 0.05, 0.8, 300)
    yield "raise", mds_code(7, 5), p727, GilbertElliottSource(0.1, 0.5, 0.0, 0.5, 6)
    no_generator = LinearCode(Matrix(field_make(3), [[1, 0, 1, 0], [0, 1, 1, 0]]))
    yield "raise", no_generator, StreamingParams(ChannelParams(1, 1, 1, 3), 2), PeriodicSource(5)
    yield "raise", mds_code(8, 4), StreamingParams(ChannelParams(1, 3, 1, 8), 7), PeriodicSource(2)
    yield "raise", mds_code(7, 5), p727, object()


def _check_simulate(what, code, params, source, seed):
    got = _outcome(simulate, code, params, source, seed)
    assert got == _outcome(oracles.simulate, code, params, source, seed), (what, source)
    assert (got[0] == "raise") == (what == "raise"), (what, source, got)
    if what != "raise":
        failed, late = got[1]["messages_failed"], got[1]["deadline_misses"]
        assert what != "clean" or failed == late == 0, (source, got)
        assert what != "failed" or failed, (source, got)
        assert what != "late" or late, (source, got)


@pytest.mark.parametrize("seed", (0, 7, -11, 2**40 + 3))
def test_simulate_matches_per_symbol_reference(seed):
    """Batched payload draws, column encoding and the sliced trace against
    the simulator that drew one randrange(q) per symbol and coded one
    diagonal at a time: equal summaries or equal errors."""
    for case in _simulate_cases():
        _check_simulate(*case, seed)


def test_simulate_matches_per_symbol_reference_over_gf65521():
    """The same over GF(65521), where a draw keeps 17 of 32 bits; short
    streams, since the reference decoder is slow at this size."""
    _check_simulate("clean", mds_code(9, 4, 65521), StreamingParams(ChannelParams(1, 2, 2, 9), 8),
                    PeriodicSource(2), -11)
    _check_simulate("failed", mds_code(5, 3, 65521), StreamingParams(ChannelParams(1, 1, 2, 5), 4),
                    GilbertElliottSource(0.3, 0.3, 0.1, 0.9, 30), -11)


# ---------------------------------------------------------------------------
# pattern families: burst/union builder and lazy window walk
# ---------------------------------------------------------------------------


def _channels(max_w):
    return [
        ChannelParams(a, b, e, w)
        for w in range(3, max_w + 1)
        for b in range(1, w - 1)
        for e in range(1, w - b)
        for a in range(b + e)
    ]


def _supports(fn, *args):
    out = _outcome(fn, *args)
    return out if out[0] == "raise" else ("ok", [p.support for p in out[1]])


def _systematic_rows(rng, q, k, r):
    return [[rng.randrange(q) for _ in range(k)] + [int(t == i) for t in range(r)]
            for i in range(r)]


def test_window_walk_matches_full_scan():
    channels = _channels(10)
    assert len(channels) == 660
    for params in channels:
        assert _supports(enumerate_admissible_windows, params) == _supports(
            oracles.enumerate_admissible_windows, params
        )


def test_bursts_match_interval_loops():
    for n in range(1, 13):
        for max_len in range(n + 1):
            lengths = range(1, max_len + 1)
            assert _bursts(n, lengths) == oracles._intervals(n, max_len)
            assert _bursts(n, lengths, cyclic=True) == oracles._cyclic_intervals(n, max_len)


def test_two_burst_families_match_reference():
    for n in range(0, 13):
        for b1 in range(0, n + 2):
            for b2 in range(0, n + 2):
                assert _supports(enumerate_b1b2_patterns, n, b1, b2) == _supports(
                    oracles.enumerate_b1b2_patterns, n, b1, b2
                )
                if 1 <= b2 <= b1 and n % b1 == 0:  # the check_wraparound family
                    firsts = _bursts(n, range(1, b1 + 1), cyclic=True)
                    seconds = _bursts(n, range(1, b2 + 1), cyclic=True)
                    ref = {i | j for i in oracles._cyclic_intervals(n, b1)
                           for j in oracles._cyclic_intervals(n, b2)}
                    assert _unions(firsts, seconds) == ref


def test_burst_plus_random_families_match_reference():
    for n in range(-1, 11):
        for b in range(-1, n + 2):
            for e in range(-1, n + 2):
                assert _supports(enumerate_burst_plus_random, n, b, e) == _supports(
                    oracles.enumerate_burst_plus_random, n, b, e
                )
    # the raw-pattern cap, which counts extras over all n indices
    assert _supports(enumerate_burst_plus_random, 20, 5, 10) == _supports(
        oracles.enumerate_burst_plus_random, 20, 5, 10
    )


def test_burst_plus_one_family_adds_only_bare_bursts():
    for n in range(1, 13):
        for length in range(n + 1):
            family = channel._supports(n, _unions(_bursts(n, [length]), _bursts(n, [1])))
            ref = [p.support for p in oracles._burst_plus_one_patterns(n, length)]
            assert [s for s in family if len(s) == length + 1] == ref
            bare = [s for s in family if len(s) != length + 1]
            assert all(s == tuple(range(s[0], s[0] + length)) for s in bare)


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9))
def test_streaming_verdicts_match_reference(q):
    rng = random.Random(2000 + q)
    f = field_make(q)
    for params in _channels(9):
        span = params.b + params.e
        for k in (params.w - span, params.w - span + 1):
            code = LinearCode(Matrix(f, _systematic_rows(rng, q, k, params.w - k)))
            report = verify_streaming_code(code, StreamingParams(params, params.w - 1))
            ref = oracles.verify_family(code, oracles.enumerate_admissible_windows(params))
            assert report == ref


@pytest.mark.parametrize("q", (2, 3, 4))
def test_wraparound_reports_match_reference(q):
    rng = random.Random(3000 + q)
    f = field_make(q)
    for n in range(2, 13):
        for b1 in range(1, n + 1):
            for b2 in range(1, b1 + 2):
                r = min(b1 + b2, n - 1)
                random_code = LinearCode(Matrix(f, _systematic_rows(rng, q, n - r, r)))
                for code in (random_code, mds_code(n, r)):  # mostly fail, mostly pass
                    assert _outcome(check_wraparound, code, b1, b2) == _outcome(
                        oracles.check_wraparound, code, b1, b2
                    )


@pytest.mark.parametrize("q, max_n", ((2, 11), (3, 8), (4, 5)))
def test_cyclic_reports_match_reference(q, max_n):
    """Every cyclic code of each length: h runs over the monic divisors of
    x^n - 1 of degree 1..n-1."""
    f = field_make(q)
    for n in range(2, max_n + 1):
        target = x_pow_n_minus_1(f, n)
        for m in range(1, n):
            for c in range(q**m):
                coeffs = _digits(c, q, m) + (1,)
                if not poly_divides(Poly(f, coeffs), target):
                    continue
                code = cyclic_from_h(n, q, coeffs)
                report = cyclic_report(code)
                assert report.witness == oracles.cyclic_witness(code, report.d)
                assert cyclic_burst_capability(code) == oracles.cyclic_burst_capability(code)


SEARCHES = {
    "two-burst": (exhaustive_code_search, oracles.exhaustive_code_search),
    "burst-random": (exhaustive_burst_random_search, oracles.exhaustive_burst_random_search),
}


def _search_outcomes(family, n, p1, p2, q, workers=1):
    """(library, reference) outcomes; a found code is compared by its H."""
    search, reference = SEARCHES[family]
    found = _outcome(search, n, p1, p2, q, workers)
    if found[0] == "ok" and found[1] is not None:
        found = ("ok", found[1].h)
    return found, _outcome(reference, n, p1, p2, q)


def _search_instances(q, max_n=6):
    """Every two-burst (b1 + b2 = r) and burst-random (b + e = r) search
    with n <= max_n over GF(q) that fits under the search cap."""
    for n in range(2, max_n + 1):
        for r in range(1, n):
            if q ** (r * (n - r)) > _SEARCH_CAP:
                continue
            for p1 in range(1, r):
                yield "two-burst", n, p1, r - p1, q
            for p1 in range(1, r + 1):
                yield "burst-random", n, p1, r - p1, q


@pytest.mark.parametrize("q", (2, 3, 4, 5))
def test_searches_match_reference(q):
    results = [_search_outcomes(*inst) for inst in _search_instances(q)]
    assert len(results) == 55  # 20 two-burst and 35 burst-random instances
    assert all(found == ref and found[0] == "ok" for found, ref in results)


@pytest.mark.parametrize("q", (7, 8, 9))
def test_searches_over_larger_fields_match_reference(q):
    """GF(7), the characteristic-2 GF(8) and the Zech-logarithm GF(9)."""
    results = [_search_outcomes(*inst) for inst in _search_instances(q, max_n=5)]
    assert len(results) == 30  # 10 two-burst and 20 burst-random instances
    assert all(found == ref and found[0] == "ok" for found, ref in results)


@pytest.mark.parametrize("family, n, p1, p2, q", [
    ("two-burst", 3, 2, 1, 2),  # k < 1
    ("two-burst", 4, 5, 1, 2),  # b1 > n
    ("two-burst", 5, 2, 0, 2),
    ("two-burst", 8, 2, 1, 4),  # over the search cap
    ("two-burst", 5, 2, 1, 6),  # not a prime power
    ("two-burst", 5, 2, 1, 1),
    ("burst-random", 5, 2, -1, 2),  # e < 0
    ("burst-random", 5, 0, 1, 2),
    ("burst-random", 4, 5, 0, 2),  # b > n
    ("burst-random", 21, 1, 0, 2),  # over the enumeration cap
    ("burst-random", 20, 1, 18, 2),  # over the raw-pattern cap
])
def test_search_errors_match_reference(family, n, p1, p2, q):
    found, ref = _search_outcomes(family, n, p1, p2, q)
    assert found[0] == "raise"
    assert found == ref


@pytest.mark.parametrize("family, n, p1, p2, q", [
    ("two-burst", 5, 2, 1, 3),
    ("two-burst", 5, 2, 1, 2),  # no code exists
    ("two-burst", 6, 2, 2, 2),
    ("burst-random", 6, 2, 1, 3),
    ("burst-random", 5, 1, 1, 4),
])
def test_two_worker_searches_match_reference(family, n, p1, p2, q):
    found, ref = _search_outcomes(family, n, p1, p2, q, workers=2)
    assert found == ref


def test_two_worker_search_hits_at_the_last_column_0():
    """The first H for burst 1 + 4 random at n = 6 over GF(3) has the all-ones
    column 0, the last 0/1 vector and position 81 of GF(3)'s 122 normalized
    r = 5 columns, so every other column 0 fails first; workers=2 finds the
    reference's H."""
    found, ref = _search_outcomes("burst-random", 6, 1, 4, 3, workers=2)
    assert found == ref and found[1] is not None
    col0 = tuple(row[0] for row in found[1].data)
    assert list(_normalized(3, 5)).index(col0) == 81


def test_empty_family_search_takes_the_zero_column_first():
    """With no pattern to recover, the first candidate passes at every
    column, and the scan starts with the zero column, so column 0 of P is
    all zero whatever the worker count."""
    code = _run_search(4, 2, 3, 2, lambda: [], {})
    assert [row[0] for row in code.h.data] == [0, 0]
    assert code.h.data == _run_search(4, 2, 3, 1, lambda: [], {}).h.data


# ---------------------------------------------------------------------------
# prefix-sharing independence walk
# ---------------------------------------------------------------------------


def _column_sets(rng, q):
    """Sparse and dense random columns, and Vandermonde columns, any nrows
    of which are independent, so that walks pass long stretches."""
    f = field_make(q)
    for _ in range(15):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 7)
        yield nrows, list(zip(*_random_rows(rng, q, nrows, ncols)))
        yield nrows, list(zip(*[[rng.randrange(q) for _ in range(ncols)]
                                for _ in range(nrows)]))
    for nrows in range(1, 5):
        yield nrows, [tuple(f.pow(x, i) for i in range(nrows)) for x in range(min(q, 7))]


def _families(rng, nrows, ncols):
    """Every subset in lex order, by size and shuffled; a third of them (not
    closed under subsets); those longer than nrows; the rest, both ways."""
    by_size = [c for s in range(ncols + 1) for c in itertools.combinations(range(ncols), s)]
    shuffled = by_size[:]
    rng.shuffle(shuffled)
    short = sorted(c for c in by_size if len(c) <= nrows)
    return [
        sorted(by_size),
        by_size,
        shuffled,
        sorted(rng.sample(by_size, len(by_size) // 3)),
        [c for c in by_size if len(c) > nrows],
        short,
        short[::-1],
    ]


@pytest.mark.parametrize("q", FIELDS + BIG_FIELDS)
def test_first_dependent_matches_per_support_loop(q):
    rng = random.Random(4000 + q)
    f = field_make(q)
    for nrows, cols in _column_sets(rng, q):
        for family in _families(rng, nrows, len(cols)):
            # suffixes, as one-shot iterators: each walk starts from an
            # empty basis at another support
            for start in range(0, len(family), 4):
                assert _first_dependent(
                    Matrix(f, list(zip(*cols))), iter(family[start:])
                ) == oracles.first_dependent(f, cols, family[start:])
    assert _first_dependent(Matrix(f, [(1,)]), []) == (0, None)


def _codes_for_distance(rng, q):
    f = field_make(q)
    for n in range(2, 9):
        for r in range(1, min(n, 5)):
            rows = _systematic_rows(rng, q, n - r, r)
            yield LinearCode(Matrix(f, rows))
            for row in rows:
                row[0] = 0  # a zero column: d = 1
            yield LinearCode(Matrix(f, rows))
            if n - r >= 2:
                for row in rows:
                    row[0] = row[1] = rng.randrange(1, q)  # repeated: d <= 2
                yield LinearCode(Matrix(f, rows))
            if n <= q:
                yield mds_code(n, r, q)


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9))
def test_min_distance_subsets_match_reference(q):
    rng = random.Random(5000 + q)
    seen = set()
    for code in _codes_for_distance(rng, q):
        d = _min_dist_subsets(code)
        assert d == oracles.min_dist_subsets(code)
        seen.add(d)
    assert {1, 2} <= seen


# ---------------------------------------------------------------------------
# boundary checks: one batch element check, and values the package built
# itself made without it
# ---------------------------------------------------------------------------


class _Int(int):
    """An int subclass, which Field.check takes as an element when in range."""


def _odd_entries(q):
    """Entries at and past the ends of [0, q), and of other types."""
    return [0, q - 1, True, False, 1.0, float(q - 1), -1, q, 2**80, -(2**80),
            _Int(q - 1), _Int(q), "1", None]


def _planted_rows(rng, q):
    """Rows of elements, some ragged, some empty, with odd entries planted and
    sometimes a row that is no list, before or after them."""
    odd = _odd_entries(q)
    for _ in range(400):
        width = rng.randint(0, 5)
        widths = [width if rng.random() < 0.8 else rng.randint(0, 5) for _ in range(rng.randint(0, 4))]
        rows = [[rng.randrange(q) for _ in range(w)] for w in widths]
        cells = [(i, j) for i, row in enumerate(rows) for j in range(len(row))]
        for i, j in rng.sample(cells, min(len(cells), rng.randint(0, 2))):
            rows[i][j] = rng.choice(odd)
        yield rows
        if rows:
            rows = list(rows)
            rows.insert(rng.randint(0, len(rows)), rng.choice((5, None, 2.5)))
            yield rows


def _typed(data):
    """data with the type of each entry, which == alone does not tell apart."""
    return [[(type(x), x) for x in row] for row in data]


def _typed_outcome(fn, f, rows):
    out = _outcome(fn, f, rows)
    return out if out[0] == "raise" else ("ok", _typed(out[1]))


def _precedence_rows(q):
    """A bad entry before and after a row that is no list, and before a
    short row."""
    return [[[0, q], 5], [5, [0, q]], [[0, 1.0], [0]], [[0], [0, None]], [[0, 1], [0]]]


@pytest.mark.parametrize("q", (2, 4, 9, 257, 65536))
def test_element_checks_match_the_per_entry_loop(q):
    """The batch check raises what the per-entry loop raised, on the same
    entry; Matrix and Poly keep each error and its precedence: a bad entry
    before a row that is no list is reported, one after it is not, and
    every entry is checked before the shape."""
    rng = random.Random(4000 + q)
    f = field_make(q)
    seen = set()
    for rows in itertools.chain(_precedence_rows(q), _planted_rows(rng, q)):
        ref = _typed_outcome(oracles.matrix_data, f, rows)
        assert _typed_outcome(lambda f, rows: Matrix(f, rows).data, f, rows) == ref
        seen.add(ref[0] if ref[0] == "ok" else ref[2].split(" ")[-1])
        if all(isinstance(row, list) for row in rows):
            assert _outcome(_check_elements, f, rows) == _outcome(oracles.check_elements, f, rows)
            for row in rows:
                assert _typed_outcome(lambda f, c: [Poly(f, c).coeffs], f, row) == _typed_outcome(
                    lambda f, c: [oracles.poly_coeffs(f, c)], f, row
                )
    # element errors, rows that are no list, empty and ragged shapes, and passes
    assert {f"GF({q})", "5", "None", "2.5", "column", "rows", "ok"} <= seen


def _boundary_codes(q):
    n = min(q, 6)
    yield mds_code(n, n // 2, q)
    if q >= 3:
        yield mds_code(3, 1, q)


def _stream_checks(*args):
    PacketStream(*args)


@pytest.mark.parametrize("q", (2, 4, 9, 257, 65536))
def test_stream_and_word_checks_match_the_per_entry_loop(q):
    """de_encode, decode_erasures and PacketStream raise what the per-entry
    loops raised; de_encode still reports a message of the wrong length
    before a bad symbol in a later message, and a bad symbol before a later
    message of the wrong length."""
    rng = random.Random(5000 + q)
    f = field_make(q)
    odd = _odd_entries(q)
    kinds = set()
    for code in _boundary_codes(q):
        n, k = code.n, code.k
        for _ in range(60):
            msgs = [[rng.randrange(q) for _ in range(k)] for _ in range(rng.randint(1, 4))]
            for _ in range(rng.randint(0, 3)):
                t = rng.randrange(len(msgs))
                if msgs[t] and rng.random() < 0.5:
                    msgs[t][rng.randrange(len(msgs[t]))] = rng.choice(odd)
                else:
                    msgs[t] = msgs[t] + [0] if rng.random() < 0.5 else msgs[t][1:]
            ref = _outcome(oracles.de_encode, code, msgs)
            assert _outcome(de_encode, code, msgs) == ref
            kinds.add(_kind(ref))

            word = [rng.choice((None, rng.randrange(q))) for _ in range(n)]
            for i in rng.sample(range(n), rng.randint(0, 2)):
                word[i] = rng.choice(odd)
            ref = _outcome(oracles.decode_erasures, code, word)
            assert _outcome(decode_erasures, code, word) == ref

            stream = de_encode(code, [[rng.randrange(q) for _ in range(k)] for _ in range(3)])
            packets = [list(p) for p in stream.packets]
            for _ in range(rng.randint(0, 2)):
                packets[rng.randrange(len(packets))][rng.randrange(n)] = rng.choice(odd)
            args = (q, n, k, stream.message_count, packets, frozenset())
            assert _outcome(_stream_checks, *args) == _outcome(oracles.check_elements, f, packets)
    assert {"ok", "LengthMismatch", "BadParameters"} <= kinds


@pytest.mark.parametrize("q", FIELDS + BIG_FIELDS)
def test_systematic_is_decided_as_the_parity_columns_independence(q):
    """LinearCode stores whether the last n - k columns of H are independent,
    and refuses H exactly when its rows are dependent: systematic codes,
    codes of full row rank whose parity columns are dependent, and H with a
    zero or repeated row all turn up."""
    rng = random.Random(6000 + q)
    f = field_make(q)
    kinds = set()
    hs = [Matrix(f, rows) for rows in _elimination_inputs(rng, q)]
    hs += [code.h for code in _stream_codes(rng, q)]
    for h in hs:
        nr, nc = h.nrows, h.ncols
        if nc <= nr:
            continue
        got = _outcome(LinearCode, h)
        if oracles.mat_rank(h) < nr:
            assert got == ("raise", StructureViolation, "parity-check rows are linearly dependent")
            kinds.add("dependent rows")
        else:
            systematic = columns_independent(h, range(nc - nr, nc))
            assert got[1].systematic is systematic
            kinds.add(systematic)
    assert kinds == {"dependent rows", True, False}


def _assert_as_checked(value):
    """value, built without its constructor's checks, equals the value that
    constructor builds from the same data, with the same hash and repr."""
    if isinstance(value, Matrix):
        checked = Matrix(value.field, value.data)
        assert type(value.data) is tuple and all(type(row) is tuple for row in value.data)
    elif isinstance(value, Poly):
        checked = Poly(value.field, value.coeffs)
        assert type(value.coeffs) is tuple
    else:
        checked = ErasurePattern(value.n, value.support)
        assert type(value.support) is tuple
    assert value == checked and hash(value) == hash(checked) and repr(value) == repr(checked)


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9) + BIG_FIELDS)
def test_package_built_values_equal_checked_ones(q):
    """Products, systematic forms, generators, constructions, search results,
    polynomial products, quotients and remainders, x^n - 1, enumerated
    patterns and verdict witnesses equal what the checking constructors
    build from them."""
    rng = random.Random(7000 + q)
    f = field_make(q)
    # digit-wise sums, read from no sum table of the field
    digits = oracles.digit_field(f)
    for rows in itertools.islice(_elimination_inputs(rng, q), 60):
        h = Matrix(f, rows)
        m = Matrix(f, _random_rows(rng, q, h.ncols, rng.randint(1, 4)))
        prod = h @ m
        _assert_as_checked(prod)
        assert prod.data == tuple(
            tuple(_ref_dot(digits, r, c) for c in zip(*m.data)) for r in h.data
        )
        for side in ("left", "right"):
            out = _outcome(systematic_form, h, side)
            if out[0] == "ok":
                _assert_as_checked(out[1])
        if h.ncols > h.nrows and mat_rank(h) == h.nrows:
            _assert_as_checked(generator_matrix(LinearCode(h)))
    for code in _stream_codes(rng, q):
        _assert_as_checked(code.h)
        _assert_as_checked(generator_matrix(code))
    if q <= 9:
        _assert_as_checked(construction_one(8, 2, 1, q if q >= 4 else None).h)
        _assert_as_checked(construction_one_binary(9, 3, 1).h)
        found = exhaustive_code_search(5, 2, 1, q)
        assert (found is None) == (q == 2)
        if found is not None:
            _assert_as_checked(found.h)
    for _ in range(40):
        a = Poly(f, [rng.randrange(q) for _ in range(rng.randint(0, 5))])
        b = Poly(f, [rng.randrange(q) for _ in range(rng.randint(0, 3))] + [rng.randrange(1, q)])
        _assert_as_checked(poly_mul(a, b))
        for part in poly_divmod(a, b):
            _assert_as_checked(part)
    for n in range(1, 8):
        _assert_as_checked(x_pow_n_minus_1(f, n))
    for params in _channels(7):
        for pattern in enumerate_admissible_windows(params):
            _assert_as_checked(pattern)
        span = params.b + params.e
        code = LinearCode(Matrix(f, _systematic_rows(rng, q, params.w - span + 1, span - 1)))
        witness = verify_streaming_code(code, StreamingParams(params, params.w - 1)).witness
        _assert_as_checked(witness)
    for pattern in enumerate_b1b2_patterns(7, 2, 2) + enumerate_burst_plus_random(7, 2, 2):
        _assert_as_checked(pattern)
    if q == 2:
        witness = cyclic_report(cyclic_from_h(7, 2, (1, 0, 1, 1, 1))).witness
        _assert_as_checked(witness)
        _assert_as_checked(cyclic_from_h(7, 2, (1, 0, 1, 1, 1)).h)
