"""Loss patterns, window admissibility, erasure decoding, and the
pattern-family verifiers."""

import itertools
import random

import pytest

import oracles
from erasurelab import channel
from erasurelab.algebra import Matrix, field_make
from erasurelab.channel import (
    ChannelParams,
    ErasurePattern,
    _burst_extras,
    _burst_plus_random,
    _supports,
    _two_bursts,
    _window_cover,
    can_recover,
    check_wraparound,
    decode_erasures,
    enumerate_admissible_windows,
    enumerate_b1b2_patterns,
    enumerate_burst_plus_random,
    is_b1b2_code,
    is_window_admissible,
)
from erasurelab.codes import LinearCode, construction_one, generator_matrix, mds_code
from erasurelab.errors import (
    BadParameters,
    DivisibilityViolation,
    InconsistentSyndrome,
    LengthMismatch,
    TooLarge,
    Unrecoverable,
)
from erasurelab.streaming import StreamingParams, verify_streaming_code


def test_channel_params_validation():
    ChannelParams(0, 1, 1, 3)
    ChannelParams(2, 3, 2, 7)
    with pytest.raises(BadParameters):
        ChannelParams(4, 3, 1, 8)  # a must stay below b + e
    with pytest.raises(BadParameters):
        ChannelParams(0, 3, 1, 4)  # window too short: needs w - 1 >= b + e
    with pytest.raises(BadParameters):
        ChannelParams(0, 0, 1, 4)
    with pytest.raises(BadParameters):
        ChannelParams(0, 2, 0, 4)
    with pytest.raises(BadParameters):
        ChannelParams(-1, 1, 1, 3)


@pytest.mark.parametrize(
    "values", [(True, 1, 1, 3), (0, True, 1, 3), (0, 1, True, 3), (0, 1, 1, 3.0), (0, "1", 1, 3)]
)
def test_channel_params_reject_bools_and_non_integers(values):
    with pytest.raises(BadParameters, match="channel parameters must be integers"):
        ChannelParams(*values)


def test_erasure_pattern_canonicalization():
    p = ErasurePattern(6, (4, 1, 2))
    assert p.support == (1, 2, 4)
    assert len(p.support) == 3
    assert p.mask() == 0b010110
    with pytest.raises(BadParameters):
        ErasurePattern(4, (1, 1))
    with pytest.raises(BadParameters):
        ErasurePattern(4, (4,))
    with pytest.raises(BadParameters):
        ErasurePattern(0, ())
    rt = ErasurePattern(**p.to_json())
    assert rt == p


@pytest.mark.parametrize("n, support", [
    (5, (1.9, "3")),
    (5, (True,)),
    (5, (2, False)),
    (2.5, ()),
    ("5", (1,)),
    (True, (0,)),
    (5, 3),
    (5, None),
])
def test_erasure_pattern_rejects_non_integers(n, support):
    with pytest.raises(BadParameters):
        ErasurePattern(n, support)


def test_erasure_pattern_from_json_rejects_non_integers():
    """A pattern rebuilt from its to_json dict goes through the same checks."""
    with pytest.raises(BadParameters):
        ErasurePattern(**{"n": 5.7, "support": [2.2]})
    with pytest.raises(BadParameters):
        ErasurePattern(**{"n": 5, "support": [2.0]})
    assert ErasurePattern(**{"n": 5, "support": [3, 1]}).support == (1, 3)


def _window_channels(max_w):
    return [
        ChannelParams(a, b, e, w)
        for w in range(3, max_w + 1)
        for b in range(1, w - 1)
        for e in range(1, w - b)
        for a in range(b + e)
    ]


def _oracle_admissible(sup, a, b, e, w):
    E = set(sup)
    if len(E) <= a:
        return True
    return any(len(E - set(range(s, s + b))) <= e for s in range(w - b + 1))


@pytest.mark.parametrize("a,b,e,w", [(p.a, p.b, p.e, p.w) for p in _window_channels(9)])
def test_window_admissibility_matches_oracle(a, b, e, w):
    cp = ChannelParams(a, b, e, w)
    for mask in range(1 << w):
        sup = tuple(i for i in range(w) if (mask >> i) & 1)
        assert is_window_admissible(ErasurePattern(w, sup), cp) == _oracle_admissible(
            sup, a, b, e, w
        )


def test_admissible_window_counts_frozen():
    assert len(enumerate_admissible_windows(ChannelParams(1, 2, 1, 4))) == 15
    assert len(enumerate_admissible_windows(ChannelParams(0, 1, 1, 3))) == 7


def test_admissible_windows_sorted_and_include_empty():
    pats = enumerate_admissible_windows(ChannelParams(1, 2, 1, 5))
    assert pats[0].support == ()
    supports = [p.support for p in pats]
    assert supports == sorted(supports)


def test_admissibility_downward_closed():
    cp = ChannelParams(1, 3, 2, 7)
    for pat in enumerate_admissible_windows(cp):
        for drop in range(len(pat.support)):
            sub = pat.support[:drop] + pat.support[drop + 1 :]
            assert is_window_admissible(ErasurePattern(7, sub), cp)


def test_window_length_mismatch():
    with pytest.raises(LengthMismatch):
        is_window_admissible(ErasurePattern(5, (0,)), ChannelParams(1, 2, 1, 4))


def test_two_burst_patterns_n3():
    pats = enumerate_b1b2_patterns(3, 1, 1)
    assert [p.support for p in pats] == [
        (0,),
        (0, 1),
        (0, 2),
        (1,),
        (1, 2),
        (2,),
    ]


def test_two_burst_patterns_never_empty_and_cover_singles():
    pats = enumerate_b1b2_patterns(8, 3, 1)
    sups = {p.support for p in pats}
    assert () not in sups
    for i in range(8):
        assert (i,) in sups
    # max weight is b1 + b2
    assert max(len(p.support) for p in pats) == 4


def test_burst_plus_random_enumeration_matches_reference():
    n, b, e = 5, 2, 1
    expect = set()
    for ln in range(1, b + 1):
        for s in range(n - ln + 1):
            burst = frozenset(range(s, s + ln))
            expect.add(tuple(sorted(burst)))
            for extra in range(n):
                expect.add(tuple(sorted(burst | {extra})))
    got = {p.support for p in enumerate_burst_plus_random(n, b, e)}
    assert got == expect


def _encode(code, msg):
    g = generator_matrix(code)
    f = code.field
    word = []
    for j in range(code.n):
        acc = 0
        for i, m in enumerate(msg):
            acc = f.add(acc, f.mul(m, g.data[i][j]))
        word.append(acc)
    return word


def test_decode_inverts_erasure_on_all_two_burst_patterns():
    code = construction_one(8, 3, 1)
    rng = random.Random(2)
    for pat in enumerate_b1b2_patterns(8, 3, 1):
        msg = [rng.randrange(3) for _ in range(code.k)]
        word = _encode(code, msg)
        received = [None if i in pat.support else x for i, x in enumerate(word)]
        assert decode_erasures(code, received) == word


def test_can_recover_consistent_with_decoder():
    code = mds_code(6, 3)
    rng = random.Random(9)
    for r in range(1, 5):
        for sup in itertools.combinations(range(6), r):
            pat = ErasurePattern(6, sup)
            msg = [rng.randrange(code.field.q) for _ in range(code.k)]
            word = _encode(code, msg)
            received = [None if i in sup else x for i, x in enumerate(word)]
            if can_recover(code, pat):
                assert decode_erasures(code, received) == word
            else:
                with pytest.raises(Unrecoverable):
                    decode_erasures(code, received)


def test_decode_flags_corrupted_known_symbols():
    code = construction_one(8, 3, 1)
    word = _encode(code, (1, 2, 0, 1))
    bad = list(word)
    bad[0] = code.field.add(bad[0], 1)
    with pytest.raises(InconsistentSyndrome):
        decode_erasures(code, bad)
    # also with an erasure present: 7 knowns over 4 parity rows stay
    # overdetermined, so the corruption is still visible
    bad[3] = None
    with pytest.raises(InconsistentSyndrome):
        decode_erasures(code, bad)


def test_decode_length_guard():
    code = construction_one(8, 3, 1)
    with pytest.raises(LengthMismatch):
        decode_erasures(code, [0] * 7)


def test_weight_above_rows_is_never_recoverable():
    code = construction_one(8, 3, 1)
    assert not can_recover(code, ErasurePattern(8, (0, 1, 2, 3, 4)))


def test_is_b1b2_code_verdicts():
    code = construction_one(8, 3, 1)
    rep = is_b1b2_code(code, 3, 1)
    assert rep.verdict is True
    assert rep.witness is None
    assert rep.patterns_checked == len(enumerate_b1b2_patterns(8, 3, 1))

    rep2 = is_b1b2_code(code, 3, 2)
    assert rep2.verdict is False
    assert rep2.witness is not None
    assert not can_recover(code, rep2.witness)
    # witness is the lexicographically first failing pattern
    for pat in enumerate_b1b2_patterns(8, 3, 2):
        if pat.support == rep2.witness.support:
            break
        assert can_recover(code, pat)
    # report serializes with the schema keys
    doc = rep2.to_json()
    assert set(doc) == {"verdict", "witness", "patterns_checked"}


def test_wraparound_verdicts():
    code = construction_one(8, 4, 1)
    assert check_wraparound(code, 4, 1).verdict is True
    with pytest.raises(DivisibilityViolation):
        check_wraparound(construction_one(8, 3, 1), 3, 1)
    # b1 < 1 is rejected before the n % b1 divisibility check
    for b1 in (0, -3):
        with pytest.raises(BadParameters):
            check_wraparound(code, b1, 1)


def test_wraparound_family_is_a_strict_superset():
    # every straight burst is also a cyclic burst, so the wrap-around family
    # contains the linear one plus genuinely wrapping patterns
    code = construction_one(8, 4, 1)
    lin = is_b1b2_code(code, 4, 1)
    wrap = check_wraparound(code, 4, 1)
    assert lin.verdict and wrap.verdict
    assert wrap.patterns_checked > lin.patterns_checked


def test_wraparound_failure_carries_witness():
    code = construction_one(8, 4, 1)
    rep = check_wraparound(code, 4, 2)  # weight can reach 6 > 5 parity rows
    assert rep.verdict is False
    assert rep.witness is not None
    assert not can_recover(code, rep.witness)


# ---------------------------------------------------------------------------
# first paths and covers: a verdict first pushes its family's first path, in
# closed form, and a pass is decided on family supports that contain all the
# others (channel._verify_family)
# ---------------------------------------------------------------------------


def _first_path(family):
    """The supports of a lexicographic family up to the first one that does
    not extend the one before it: the first path of its set-enumeration
    tree, down to its first leaf."""
    path = family[:1]
    for sup in family[1:]:
        if sup[: len(path[-1])] != path[-1]:
            break
        path.append(sup)
    return path


class _Pushed(Exception):
    pass


def _push_and_stop(h, supports):
    raise _Pushed(list(supports))


def _first_pushed(monkeypatch, verdict, *args):
    """The supports a verdict hands the independence walk first."""
    monkeypatch.setattr(channel, "_first_dependent", _push_and_stop)
    with pytest.raises(_Pushed) as caught:
        verdict(*args)
    monkeypatch.undo()
    return caught.value.args[0]


def _assert_covers(n, cover, family):
    """Each cover support is a family support, and each family support lies
    inside a cover support."""
    assert set(cover) <= set(family)
    holders = [0] * n  # bit j of holders[i]: cover[j] contains index i
    for j, sup in enumerate(cover):
        for i in sup:
            holders[i] |= 1 << j
    for sup in family:
        inside = (1 << len(cover)) - 1
        for i in sup:
            inside &= holders[i]
        assert inside, sup


def test_window_covers_match_the_reference_family(monkeypatch):
    """The verdict pushes the oracle family's first path first, which is the
    closed form: the prefixes of [0, b + e), () included."""
    channels = _window_channels(11)
    assert len(channels) == 990
    for params in channels:
        family = [p.support for p in oracles.enumerate_admissible_windows(params)]
        _assert_covers(params.w, _supports(params.w, _window_cover(params)), family)
        span = params.b + params.e
        path = [tuple(range(j)) for j in range(span + 1)]
        assert _first_path(family) == path
        code, streaming = mds_code(params.w, span), StreamingParams(params, params.w - 1)
        assert _first_pushed(monkeypatch, verify_streaming_code, code, streaming) == path
    # a maximal support shorter than the burst-plus-extras ones
    cover = _supports(9, _window_cover(ChannelParams(3, 3, 1, 9)))
    assert (0, 4, 8) in cover
    assert {len(sup) for sup in cover} == {3, 4}


def test_list_family_covers_match_the_reference_families(monkeypatch):
    """The two-burst verdicts, straight and wrapping around, push the oracle
    family's first path first: the prefixes of [0, min(b1 + b2, n))."""
    paths = 0
    for n in range(1, 13):
        code = LinearCode(Matrix(field_make(2), [[1] * n])) if n > 1 else None
        for b1, b2 in itertools.product(range(1, n + 1), repeat=2):
            path = [tuple(range(j)) for j in range(1, min(b1 + b2, n) + 1)]
            family = [p.support for p in oracles.enumerate_b1b2_patterns(n, b1, b2)]
            _assert_covers(n, _supports(n, _two_bursts(n, b1, b2, cover=True)), family)
            families = [(family, is_b1b2_code)]
            if b2 <= b1 and n % b1 == 0:  # the check_wraparound family
                masks = {i | j for i in oracles._cyclic_intervals(n, b1)
                         for j in oracles._cyclic_intervals(n, b2)}
                family = sorted(oracles._pattern_from_mask(n, m).support for m in masks)
                cover = _two_bursts(n, b1, b2, cover=True, cyclic=True)
                _assert_covers(n, _supports(n, cover), family)
                families.append((family, check_wraparound))
            for family, verdict in families:
                assert _first_path(family) == path, (n, b1, b2)
                if code:
                    assert _first_pushed(monkeypatch, verdict, code, b1, b2) == path
                paths += 1
        for b, e in itertools.product(range(1, n + 1), range(n + 1)):
            if b + e > n and n > 9:  # e > n - b only re-checks the large families
                continue
            family = [p.support for p in oracles.enumerate_burst_plus_random(n, b, e)]
            _assert_covers(n, _supports(n, _burst_plus_random(n, b, e, cover=True)), family)
    assert paths == 650 + 127


def test_two_burst_verdicts_sort_their_family_only_for_the_full_walk(monkeypatch):
    """A pass counts the family's union masks and sorts only its cover; a
    failure on the first path sorts nothing; only a dependent cover support
    sorts the family, for the full walk."""
    sorted_masks = []

    def spy(n, masks):
        sorted_masks.append(set(masks))
        return _supports(n, masks)

    monkeypatch.setattr(channel, "_supports", spy)
    h = [[1, 0, 1, 1, 1, 0], [0, 1, 1, 1, 0, 1]]  # columns 0 and 4 are equal
    for verdict, cyclic in ((is_b1b2_code, False), (check_wraparound, True)):
        family = _two_bursts(8, 2, 2, cyclic=cyclic)
        cover = _two_bursts(8, 2, 2, cover=True, cyclic=cyclic)
        assert len(cover) < len(family)
        sorted_masks.clear()
        report = verdict(mds_code(8, 4), 2, 2)
        assert report.verdict and report.patterns_checked == len(family)
        assert sorted_masks == [cover]
        sorted_masks.clear()
        assert not verdict(mds_code(8, 3), 2, 2).verdict  # (0, 1, 2, 3) has 3 rows
        assert sorted_masks == []
        sorted_masks.clear()
        report = verdict(LinearCode(Matrix(field_make(2), h)), 1, 1)
        assert report.witness.support == (0, 4)
        cover, family = (_two_bursts(6, 1, 1, c, cyclic) for c in (True, False))
        assert sorted_masks == [cover, family]


def test_window_cover_passes_no_raw_pattern_cap():
    """Each of the 20 slots with the 18 extras outside it: 20 supports of 19,
    where the burst-random family's raw-pattern cap would count ~2^24."""
    cover = _supports(20, _window_cover(ChannelParams(0, 1, 18, 20)))
    assert cover == sorted(tuple(j for j in range(20) if j != i) for i in range(20))
    with pytest.raises(TooLarge):  # the burst-random family keeps its cap, cover or not
        _burst_plus_random(20, 1, 18, cover=True)


def test_burst_extras_are_the_full_length_unions():
    """The one burst-with-extras builder: with one extra it is the family the
    cyclic tightness witness walks, and as the burst-random cover each of its
    supports has b + min(e, n - b) entries."""
    for n in range(1, 13):
        for length in range(n):
            family = [p.support for p in oracles._burst_plus_one_patterns(n, length)]
            assert _supports(n, _burst_extras(n, length, 1)) == family
        for b, e in itertools.product(range(1, n + 1), range(n + 1)):
            if b + e > n and n > 9:  # as in the cover test above
                continue
            cover = _burst_plus_random(n, b, e, cover=True)
            assert {m.bit_count() for m in cover} == {b + min(e, n - b)}, (n, b, e)


def _systematic_code(rng, q, k, r):
    rows = [[rng.randrange(q) for _ in range(k)] + [int(t == i) for t in range(r)]
            for i in range(r)]
    return LinearCode(Matrix(field_make(q), rows))


def test_a_dependent_cover_falls_back_to_the_full_walk():
    """Codes whose first witness lies off the walk's first path pass the
    path and fail on the cover, so their reports come from the full walk.
    In these families the first path is (0), (0, 1), ... (after () for
    windows), so a witness is off it unless it is an initial interval."""
    rng = random.Random(18)
    reports = {"window": [], "two-burst": [], "wrap-around": []}
    for q in (2, 3):
        for params in _window_channels(8):
            code = _systematic_code(rng, q, params.w - params.b - params.e, params.b + params.e)
            report = verify_streaming_code(code, StreamingParams(params, params.w - 1))
            family = oracles.enumerate_admissible_windows(params)
            assert report == oracles.verify_family(code, family)
            reports["window"].append(report)
        for n in range(3, 11):
            for b1 in range(1, n - 1):
                for b2 in range(1, min(b1, n - 1 - b1) + 1):
                    code = _systematic_code(rng, q, n - b1 - b2, b1 + b2)
                    report = is_b1b2_code(code, b1, b2)
                    family = oracles.enumerate_b1b2_patterns(n, b1, b2)
                    assert report == oracles.verify_family(code, family)
                    reports["two-burst"].append(report)
                    if n % b1 == 0:
                        report = check_wraparound(code, b1, b2)
                        assert report == oracles.check_wraparound(code, b1, b2)
                        reports["wrap-around"].append(report)
    for kind, reps in reports.items():
        witnesses = [rep.witness.support for rep in reps if not rep.verdict]
        assert any(sup != tuple(range(len(sup))) for sup in witnesses), kind


def test_a_pass_reports_the_family_size():
    for params in _window_channels(9):
        report = verify_streaming_code(
            mds_code(params.w, params.b + params.e), StreamingParams(params, params.w - 1)
        )
        assert report.verdict is True and report.witness is None
        assert report.patterns_checked == len(oracles.enumerate_admissible_windows(params))
