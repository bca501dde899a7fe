"""Rate reports, field-size bounds, sparsification, cyclic-code reports, and
the exhaustive [P | I] searches (including a brute-force cross-check)."""

import itertools
from fractions import Fraction

import pytest

from erasurelab.algebra import (
    Matrix,
    Poly,
    field_make,
    mat_rank,
    poly_divides,
    x_pow_n_minus_1,
)
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
    enumerate_b1b2_patterns,
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


def test_parallel_search_matches_serial():
    serial = exhaustive_code_search(5, 2, 1, 3, workers=1)
    parallel = exhaustive_code_search(5, 2, 1, 3, workers=2)
    assert parallel.h.data == serial.h.data


def test_search_guards():
    with pytest.raises(BadParameters):
        exhaustive_code_search(3, 2, 1, 2)  # k would be 0
    with pytest.raises(BadParameters):
        exhaustive_code_search(5, 2, 0, 2)
    with pytest.raises(BadParameters):
        exhaustive_burst_random_search(5, 0, 1, 2)
    with pytest.raises(TooLarge):
        exhaustive_code_search(8, 2, 1, 4)  # 4^(3*5) candidates
    with pytest.raises(NotPrimePower):
        exhaustive_code_search(5, 2, 1, 6)
