"""Rate reports, field-size bounds, sparsification, cyclic-code reports, and
the exhaustive [P | I] searches (including a brute-force cross-check)."""

import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest

from erasurelab.algebra import (
    Matrix,
    Poly,
    _digits,
    field_make,
    mat_rank,
    poly_divides,
    smallest_prime_power_at_least,
    x_pow_n_minus_1,
)
from erasurelab import analysis
from erasurelab.analysis import (
    cyclic_burst_capability,
    cyclic_report,
    exhaustive_burst_random_search,
    exhaustive_code_search,
    mds_subblock_check,
    random_field_lower_bound,
    rate_report,
    resolve_workers,
    sparse_field_lower_bound,
    sparsify_construction_one,
    sparsity_minimum,
)
from erasurelab.channel import (
    ChannelParams,
    can_recover,
    check_wraparound,
    enumerate_b1b2_patterns,
    enumerate_burst_plus_random,
    is_b1b2_code,
)
from erasurelab.codes import LinearCode, construction_one, cyclic_from_h, mds_code
from erasurelab.errors import (
    BadParameters,
    NotPrimePower,
    OutOfScope,
    StructureViolation,
    TooLarge,
    WrongProvenance,
)

F2 = field_make(2)
SEARCH_TABLE = Path(__file__).resolve().parents[1] / "perfbench" / "search_table.json"
SEARCH_EXCLUDED = Path(__file__).resolve().parent / "search_excluded.json"


# ---------------------------------------------------------------------------
# rate reports
# ---------------------------------------------------------------------------


def test_rate_report_fixtures():
    rep = rate_report(ChannelParams(1, 3, 1, 5))
    assert rep.r_opt == Fraction(1, 5)
    assert rep.m == 1
    assert rep.prior_bound == Fraction(4, 9)
    assert rep.globally_optimal is False
    assert (rep.n, rep.k) == (5, 1)

    rep = rate_report(ChannelParams(2, 3, 1, 8))
    assert rep.r_opt == Fraction(1, 2)
    assert rep.m == 2
    assert rep.prior_bound == Fraction(4, 7)
    assert (rep.n, rep.k) == (8, 4)

    rep = rate_report(ChannelParams(2, 3, 2, 7))
    assert rep.r_opt == Fraction(2, 7)
    assert rep.m == 1
    assert rep.prior_bound == Fraction(5, 12)
    assert rep.globally_optimal is True  # e >= b - 1
    assert (rep.n, rep.k) == (7, 2)


def test_rate_report_json_uses_fraction_strings():
    assert rate_report(ChannelParams(2, 3, 1, 8)).to_json() == {
        "a": 2,
        "b": 3,
        "e": 1,
        "w": 8,
        "r_opt": "1/2",
        "m": 2,
        "prior_bound": "4/7",
        "globally_optimal": False,
        "n": 8,
        "k": 4,
    }


def test_embedding_rate_never_exceeds_the_general_bound():
    """The embedding optimum is a streaming-code rate, so it must sit at or
    below the all-codes ceiling for every valid parameter set."""
    for w in range(3, 13):
        for b in range(1, w):
            for e in range(1, w):
                for a in range(w):
                    try:
                        ch = ChannelParams(a, b, e, w)
                    except BadParameters:
                        continue
                    rep = rate_report(ch)
                    assert rep.r_opt <= rep.prior_bound
                    assert rep.globally_optimal == (e >= b - 1)
                    assert rep.k == w - (b + e) and rep.n == w


# ---------------------------------------------------------------------------
# field-size bounds and sparsity arithmetic
# ---------------------------------------------------------------------------


def test_random_field_lower_bound():
    assert random_field_lower_bound(7, 2, 2) == 3
    assert random_field_lower_bound(12, 3, 2) == 7
    with pytest.raises(OutOfScope):
        random_field_lower_bound(8, 3, 1)  # only stated for e > 1
    with pytest.raises(OutOfScope):
        random_field_lower_bound(6, 2, 3)  # n = b + e + 1
    with pytest.raises(BadParameters):
        random_field_lower_bound(7, 0, 2)


def test_sparse_field_lower_bound():
    assert sparse_field_lower_bound(8, 3) == 2
    assert sparse_field_lower_bound(5, 2) == 2
    assert sparse_field_lower_bound(12, 2) == 5
    for n in range(3, 20):
        for b in range(1, n - 1):
            assert sparse_field_lower_bound(n, b) == -(-n // b) - 1
    with pytest.raises(BadParameters):
        sparse_field_lower_bound(3, 2)


def test_sparsity_minimum_fixtures():
    assert sparsity_minimum(8, 3) == 15
    assert sparsity_minimum(5, 2) == 8
    assert sparsity_minimum(6, 1) == 10
    with pytest.raises(BadParameters):
        sparsity_minimum(4, 0)
    with pytest.raises(BadParameters):
        sparsity_minimum(3, 2)


# ---------------------------------------------------------------------------
# reduced-subblock structure check
# ---------------------------------------------------------------------------


def test_mds_subblock_accepts_mds_codes():
    code = mds_code(7, 5)
    for b, e in ((3, 2), (2, 3), (4, 1)):
        assert mds_subblock_check(code, b, e) is True
    assert mds_subblock_check(construction_one(8, 3, 1), 3, 1) is True
    assert mds_subblock_check(mds_code(7, 4), 2, 2) is True


def test_mds_subblock_detects_a_dependent_pair():
    # after reduction the bottom-right block has two equal columns
    h = Matrix(F2, [[1, 0, 0, 1, 1], [0, 1, 0, 1, 0], [0, 0, 1, 0, 1]])
    code = LinearCode(h, {"construction": "handmade"})
    assert mds_subblock_check(code, 1, 2) is False


def test_mds_subblock_guards():
    h = Matrix(F2, [[1, 1, 0, 1, 0], [1, 1, 1, 0, 0], [0, 0, 0, 0, 1]])
    code = LinearCode(h, {"construction": "handmade"})
    with pytest.raises(StructureViolation):
        mds_subblock_check(code, 2, 1)  # first two columns are dependent
    with pytest.raises(BadParameters):
        mds_subblock_check(mds_code(7, 5), 2, 2)  # nrows != b + e
    with pytest.raises(BadParameters):
        mds_subblock_check(mds_code(7, 5), 0, 5)


# ---------------------------------------------------------------------------
# sparsification
# ---------------------------------------------------------------------------


def test_sparsify_reaches_the_floor():
    report = sparsify_construction_one(construction_one(8, 3, 1))
    assert report.code.h.data[0] == (1, 0, 0, 0, 2, 2, 2, 1)
    assert report.nonzeros == 15
    assert report.floor == sparsity_minimum(8, 3) == 15
    assert report.meets_floor is True
    assert report.weight_two_columns == (6,)
    assert report.code.provenance["construction"] == "sparsified_construction_one"
    for i in range(4):  # left block is I_{b+1}
        assert report.code.h.data[i][:4] == tuple(1 if j == i else 0 for j in range(4))


def test_sparsify_preserves_the_code():
    old = construction_one(8, 3, 1)
    new = sparsify_construction_one(old).code
    stacked = Matrix(old.field, [list(r) for r in old.h.data + new.h.data])
    assert mat_rank(stacked) == 4  # same row space, hence same codewords


def test_sparsify_smaller_fixture():
    report = sparsify_construction_one(construction_one(5, 2, 1))
    assert report.code.h.data == ((1, 0, 0, 2, 2), (0, 1, 0, 1, 0), (0, 0, 1, 1, 2))
    assert report.nonzeros == 8 == report.floor
    assert report.weight_two_columns == (4,)


def test_sparsify_provenance_guards():
    with pytest.raises(WrongProvenance):
        sparsify_construction_one(mds_code(8, 4))
    with pytest.raises(WrongProvenance):
        sparsify_construction_one(construction_one(8, 2, 2))  # b2 != 1
    for b2 in (True, 1.0):  # equal to 1, but not an int
        obj = construction_one(8, 3, 1).to_json()
        obj["provenance"]["b2"] = b2
        with pytest.raises(WrongProvenance, match="b2 = 1"):
            sparsify_construction_one(LinearCode.from_json(obj))


def test_sparsify_rejects_a_left_block_that_does_not_reduce():
    obj = construction_one(8, 3, 1).to_json()
    obj["H"]["data"][1][0] = 1  # row 1 of the left block becomes (1, 1, 0, 0)
    code = LinearCode.from_json(obj)  # H keeps full rank
    with pytest.raises(StructureViolation, match="identity"):
        sparsify_construction_one(code)


@pytest.mark.parametrize("b1", [7, 0, "x", None, True, 3.0])
def test_sparsify_rejects_edited_b1(b1):
    obj = construction_one(8, 3, 1).to_json()
    obj["provenance"]["b1"] = b1
    code = LinearCode.from_json(obj)  # only cyclic provenance is rebuilt
    with pytest.raises(WrongProvenance, match="b1 does not match"):
        sparsify_construction_one(code)


# ---------------------------------------------------------------------------
# cyclic-code reports
# ---------------------------------------------------------------------------


def test_cyclic_report_tight_fixture():
    report = cyclic_report(cyclic_from_h(7, 2, (1, 0, 1, 1, 1)))
    assert report.to_json() == {
        "n": 7,
        "k": 4,
        "q": 2,
        "z": 1,
        "bound": 3,
        "d": 3,
        "meets_bound": True,
        "witness": {"n": 7, "support": [0, 1, 3]},
    }


def test_cyclic_report_slack_fixture():
    report = cyclic_report(cyclic_from_h(15, 2, (1, 1, 0, 1, 0, 0, 0, 1)))
    assert (report.z, report.bound, report.d) == (3, 6, 5)
    assert report.meets_bound is False
    assert report.witness is None


def _cyclic_h_divisors(n, q):
    """All valid degree-1..n-1 coefficient tuples dividing x^n - 1, found by
    scanning every monic polynomial of each degree."""
    f = field_make(q)
    target = x_pow_n_minus_1(f, n)
    found = []
    for m in range(1, n):
        for c in range(q**m):
            coeffs = tuple((c // q**i) % q for i in range(m)) + (1,)
            if poly_divides(Poly(f, coeffs), target):
                found.append(coeffs)
    return found


def test_cyclic_bound_sweep_binary():
    """Every binary cyclic code with 3 <= n <= 9 satisfies d <= bound, and
    meets it exactly when a (d-1)-burst-plus-one pattern is unrecoverable
    (cyclic_report raises internally if either statement fails)."""
    per_n = []
    for n in range(3, 10):
        divisors = _cyclic_h_divisors(n, 2)
        per_n.append(len(divisors))
        for coeffs in divisors:
            report = cyclic_report(cyclic_from_h(n, 2, coeffs))
            assert 1 <= report.d <= report.bound
            assert report.meets_bound == (report.witness is not None)
    assert per_n == [2, 3, 2, 7, 6, 7, 6]


def test_cyclic_bound_sweep_ternary():
    for n, expected in ((4, 6), (8, 30)):
        divisors = _cyclic_h_divisors(n, 3)
        assert len(divisors) == expected
        for coeffs in divisors:
            report = cyclic_report(cyclic_from_h(n, 3, coeffs))
            assert 1 <= report.d <= report.bound


def test_cyclic_burst_capability():
    assert cyclic_burst_capability(cyclic_from_h(7, 2, (1, 0, 1, 1, 1))) is True
    assert cyclic_burst_capability(cyclic_from_h(15, 2, (1, 1, 0, 1, 0, 0, 0, 1))) is True


def test_cyclic_helpers_reject_other_codes():
    with pytest.raises(WrongProvenance):
        cyclic_report(mds_code(7, 5))
    with pytest.raises(WrongProvenance):
        cyclic_burst_capability(construction_one(8, 3, 1))


# ---------------------------------------------------------------------------
# worker resolution
# ---------------------------------------------------------------------------


def test_resolve_workers_defaults_to_one(monkeypatch):
    monkeypatch.delenv("ERASURELAB_THREADS", raising=False)
    assert resolve_workers() == 1
    assert resolve_workers(8) == 1  # no env cap means serial


def test_resolve_workers_env_is_cap_and_default(monkeypatch):
    monkeypatch.setenv("ERASURELAB_THREADS", "4")
    assert resolve_workers() == 4
    assert resolve_workers(2) == 2
    assert resolve_workers(9) == 4
    monkeypatch.setenv("ERASURELAB_THREADS", "0")
    assert resolve_workers() == 1
    monkeypatch.setenv("ERASURELAB_THREADS", "soon")
    with pytest.raises(BadParameters):
        resolve_workers()


# ---------------------------------------------------------------------------
# exhaustive searches
# ---------------------------------------------------------------------------


def test_two_burst_search_fixtures():
    found = exhaustive_code_search(4, 2, 1, 2)
    assert found.h.data == ((1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1))

    found = exhaustive_code_search(5, 2, 1, 3)
    assert found.h.data == ((1, 2, 1, 0, 0), (0, 1, 0, 1, 0), (1, 1, 0, 0, 1))
    assert found.provenance == {
        "construction": "exhaustive_search",
        "family": "two-burst",
        "n": 5,
        "b1": 2,
        "b2": 1,
        "q": 3,
    }
    assert is_b1b2_code(found, 2, 1).verdict is True


def test_searches_report_nonexistence():
    assert exhaustive_code_search(5, 2, 1, 2) is None
    assert exhaustive_burst_random_search(5, 2, 1, 2) is None


def test_search_brute_force_cross_check():
    """Re-run the (5, 2, 1) GF(3) search naively: loop candidate columns in
    the engine's scan order (column values ascending, row 0 least
    significant) and keep candidates where every pattern is decodable."""
    f = field_make(3)
    patterns = enumerate_b1b2_patterns(5, 2, 1)
    survivors = []
    for v0 in range(27):
        for v1 in range(27):
            cols = [
                tuple((v // 3**i) % 3 for i in range(3)) for v in (v0, v1)
            ]
            rows = [
                [cols[j][i] for j in range(2)] + [1 if t == i else 0 for t in range(3)]
                for i in range(3)
            ]
            code = LinearCode(Matrix(f, rows), {"construction": "brute"})
            if all(can_recover(code, p) for p in patterns):
                survivors.append(code.h.data)
    assert len(survivors) == 16
    assert survivors[0] == exhaustive_code_search(5, 2, 1, 3).h.data


def test_burst_random_search_with_single_slot_burst():
    # a burst of length <= 1 is just a random erasure, so the (b=2, e=1)
    # burst+random family coincides with the (b1=2, b2=1) two-burst family
    two_burst = exhaustive_code_search(5, 2, 1, 3)
    burst_random = exhaustive_burst_random_search(5, 2, 1, 3)
    assert burst_random.h.data == two_burst.h.data
    assert burst_random.provenance["family"] == "burst-random"
    assert burst_random.provenance["b"] == 2 and burst_random.provenance["e"] == 1


def test_burst_only_search():
    found = exhaustive_burst_random_search(4, 2, 0, 2)
    assert found.h.data == ((1, 0, 1, 0), (0, 1, 0, 1))


def test_search_over_gf4():
    found = exhaustive_code_search(6, 2, 1, 4)
    assert found.h.data == (
        (1, 2, 1, 1, 0, 0),
        (0, 1, 2, 0, 1, 0),
        (1, 1, 1, 0, 0, 1),
    )
    assert is_b1b2_code(found, 2, 1).verdict is True


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_normalized_columns_are_the_scaling_class_minima(q, r):
    f = field_make(q)

    def encode(digits):
        return sum(d * q**i for i, d in enumerate(digits))

    minima = {0}
    for v in range(1, q**r):
        digits = _digits(v, q, r)
        minima.add(min(encode([f.mul(c, d) for d in digits]) for c in range(1, q)))
    scan = list(analysis._normalized(q, r))
    assert all(len(col) == r for col in scan)
    assert [encode(col) for col in scan] == sorted(minima)
    assert len(scan) == 1 + (q**r - 1) // (q - 1)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_zero_one_columns_are_an_ascending_part_of_the_normalized_scan(q, r):
    """Column 0 is scanned over the 0/1 vectors only, in scan order, and
    over GF(2) that is the whole normalized scan."""
    scan = list(analysis._zero_one(r))
    assert all(len(col) == r for col in scan)
    # every 0/1 vector, in ascending order
    encoded = [sum(d * q**i for i, d in enumerate(col)) for col in scan]
    assert encoded == [v for v in range(q**r) if set(_digits(v, q, r)) <= {0, 1}]
    assert len(scan) == 2**r
    normalized = iter(analysis._normalized(q, r))
    assert all(v in normalized for v in scan)  # consumes: a subsequence
    if q == 2:
        assert scan == list(analysis._normalized(2, r))


def test_serial_search_finds_the_pinned_matrices():
    found = exhaustive_code_search(6, 2, 1, 4, workers=1)
    assert found.h.data == (
        (1, 2, 1, 1, 0, 0),
        (0, 1, 2, 0, 1, 0),
        (1, 1, 1, 0, 0, 1),
    )
    assert exhaustive_burst_random_search(4, 2, 0, 2, workers=1).h.data == (
        (1, 0, 1, 0),
        (0, 1, 0, 1),
    )
    assert exhaustive_code_search(5, 2, 1, 2, workers=1) is None


def test_search_family_is_enumerated_once_in_the_caller(monkeypatch):
    calls = []
    enumerate_family = analysis._two_bursts

    def counting(*args, **kwargs):
        calls.append((args, kwargs))
        return enumerate_family(*args, **kwargs)

    monkeypatch.setattr(analysis, "_two_bursts", counting)
    found = exhaustive_code_search(5, 2, 1, 3, workers=2)
    # the scan reads the groups prepared here, from the full-length unions
    assert calls == [((5, 2, 1), {"cover": True})]
    assert found.h.data == exhaustive_code_search(5, 2, 1, 3).h.data


def _search_families(n):
    """Every two-burst and burst-random family the searches build at length n
    (e <= 3), with its row count r."""
    for b1, b2 in itertools.product(range(1, n + 1), repeat=2):
        yield b1 + b2, analysis._supports(n, analysis._two_bursts(n, b1, b2))
    for b, e in itertools.product(range(1, n + 1), range(4)):
        yield b + e, analysis._supports(n, analysis._burst_plus_random(n, b, e))


@pytest.mark.parametrize("n", range(1, 13))
def test_search_supports_fit_in_the_parity_rows(n):
    """No support is longer than r, so every support with an information
    column keeps at least as many rows as it has information columns, and
    _prep_groups files each one under its largest information column."""
    for r, supports in _search_families(n):
        assert all(len(sup) <= r for sup in supports), r
        k = n - r
        if k < 1:
            continue
        groups = analysis._prep_groups(n, r, supports)
        expected = [[] for _ in range(k)]
        for sup in supports:
            p_cols = tuple(j for j in sup if j < k)
            if p_cols:
                kept = tuple(i for i in range(r) if i + k not in sup)
                assert len(p_cols) <= len(kept)
                expected[max(p_cols)].append((p_cols, kept))
        assert [sorted(g) for g in groups] == [sorted(g) for g in expected]


@pytest.mark.parametrize("n", range(1, 13))
def test_maximal_matches_a_brute_force_superset_filter(n):
    """With n > r, the supports no other support of the family strictly
    contains are exactly those with r entries, in the family's order, so
    _run_search loses no constraint by keeping only those."""
    for r, supports in _search_families(n):
        if n <= r:
            continue
        sets = [set(sup) for sup in supports]
        expected = [sup for sup, s in zip(supports, sets) if not any(s < t for t in sets)]
        full = [sup for sup in supports if len(sup) == r]
        assert full == expected, (n, r)
        full_sets = [set(sup) for sup in full]
        for s in sets:
            assert any(s <= t for t in full_sets), (n, r, s)


def _r_entry(masks, r):
    return {m for m in masks if m.bit_count() == r}


@pytest.mark.parametrize("n", range(1, 13))
def test_search_takes_its_r_entry_supports_from_the_full_length_unions(n):
    """The r-entry masks of each family the searches build are its
    full-length unions with r entries, which _run_search sorts (searches
    need b + e < n; larger e only builds larger families)."""
    for b1, b2 in itertools.product(range(1, n + 1), repeat=2):
        r = b1 + b2
        family, cover = analysis._two_bursts(n, b1, b2), analysis._two_bursts(n, b1, b2, cover=True)
        assert _r_entry(cover, r) == _r_entry(family, r)
    for b, e in itertools.product(range(1, n + 1), range(n + 1)):
        r = b + e
        if r > n:
            continue
        family = analysis._burst_plus_random(n, b, e)
        cover = analysis._burst_plus_random(n, b, e, cover=True)
        assert _r_entry(cover, r) == _r_entry(family, r)


def test_search_returns_the_benchmark_tables_recorded_answers():
    """Every instance of the search benchmark's grid gives its recorded H (or
    None): the 353 it keeps, and the 90 it excludes as slow, whose answers
    were recorded from the scan over every normalized column 0. This pins
    the first-found H."""
    table = json.loads(SEARCH_TABLE.read_text())
    excluded = json.loads(SEARCH_EXCLUDED.read_text())["excluded"]
    assert len(table["kept"]) == 353 and len(excluded) == 90
    assert [item["instance"] for item in excluded] == [
        item["instance"] for item in table["excluded"]
    ]
    for item in table["kept"] + excluded:
        family, n, p1, p2, q = item["instance"]
        search = (exhaustive_code_search if family == "two-burst"
                  else exhaustive_burst_random_search)
        code = search(n, p1, p2, q, workers=1)
        found = None if code is None else [list(row) for row in code.h.data]
        assert found == item["H"], item["instance"]


@pytest.mark.parametrize("call", [
    "field_make(4.0)",
    "field_make('4')",
    "mds_code(7.0, 3)",
    "mds_code(7, True)",
    "construction_one(8.0, 3, 1)",
    "construction_one(8, 3.0, 1)",
    "cyclic_from_h(7.0, 2, (1, 0, 1, 1, 1))",
    "cyclic_from_h(7, 2.0, (1, 0, 1, 1, 1))",
    "x_pow_n_minus_1(field_make(2), 3.0)",
    "exhaustive_code_search(5, 2.0, 1, 3)",
    "exhaustive_code_search(5.0, 2, 1, 3)",
    "exhaustive_code_search(5, 2, 1, 3.0)",
    "exhaustive_code_search(5, 2, 1, 3, workers=2.0)",
    "exhaustive_burst_random_search(6, 1, True, 3)",
    "enumerate_b1b2_patterns(5, 2.0, 1)",
    "enumerate_burst_plus_random(5, 2, 1.0)",
    "is_b1b2_code(mds_code(8, 3), 2.0, 1)",
    "check_wraparound(mds_code(8, 3), 2, 1.0)",
    "mds_subblock_check(mds_code(8, 3), 2.0, 1)",
    "resolve_workers('2')",
    "smallest_prime_power_at_least(3.5)",
    "sparsity_minimum(8.0, 3)",
    "sparse_field_lower_bound(8.0, 3)",
    "random_field_lower_bound(7, 2, 2.5)",
])
def test_non_integer_sizes_raise_bad_parameters(call):
    """Floats, strings and bools are refused, not truncated or compared;
    GF(4) is built first so that 4.0 cannot be served from its cache."""
    field_make(4)
    with pytest.raises(BadParameters, match="must be an integer"):
        eval(call)

def test_search_guards():
    with pytest.raises(BadParameters):
        exhaustive_code_search(3, 2, 1, 2)  # k would be 0
    with pytest.raises(BadParameters):
        exhaustive_code_search(5, 2, 0, 2)
    with pytest.raises(BadParameters):
        exhaustive_burst_random_search(5, 0, 1, 2)
    with pytest.raises(TooLarge):
        exhaustive_code_search(8, 2, 1, 4)  # 4^(3*5) candidates
    with pytest.raises(TooLarge, match=r"= 3\^39996 candidates"):
        exhaustive_code_search(20000, 1, 1, 3)  # too many digits to print
    with pytest.raises(NotPrimePower):
        exhaustive_code_search(5, 2, 1, 6)
    with pytest.raises(NotPrimePower, match="field size must be >= 2, got -2"):
        exhaustive_code_search(30, 1, 1, -2)  # not read as a count over the cap
