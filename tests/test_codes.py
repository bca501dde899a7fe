"""Code constructions: frozen matrices, distance facts, structural
invariants, and JSON round-trips."""

import itertools
import random

import pytest

from erasurelab.algebra import Matrix, field_make, mat_rank
from erasurelab.codes import (
    CyclicCode,
    LinearCode,
    construction_one,
    construction_one_binary,
    cyclic_from_h,
    generator_matrix,
    mds_code,
    min_distance,
)
from erasurelab.codes import _ENUM_CAP, _min_dist_subsets, _min_weight_enum
from erasurelab.errors import (
    BadFieldOverride,
    BadParameters,
    BadReciprocal,
    DivisibilityViolation,
    LengthTooSmall,
    NotCyclic,
    StructureViolation,
    TooLarge,
)

# The frozen two-burst construction at (n, b1, b2) = (8, 3, 1) over GF(3):
# identity blocks repeated across width-3 column blocks, bottom row stepping
# through powers of the primitive element.
H831 = (
    (1, 0, 0, 1, 0, 0, 1, 0),
    (0, 1, 0, 0, 1, 0, 0, 1),
    (0, 0, 1, 0, 0, 1, 0, 0),
    (0, 0, 0, 1, 1, 1, 2, 2),
)

# Its binary expansion: the bottom row is replaced by the base-2 digit rows
# of the block indices (low bit first).
H831_BIN = (
    (1, 0, 0, 1, 0, 0, 1, 0),
    (0, 1, 0, 0, 1, 0, 0, 1),
    (0, 0, 1, 0, 0, 1, 0, 0),
    (0, 0, 0, 1, 1, 1, 0, 0),
    (0, 0, 0, 0, 0, 0, 1, 1),
)


def test_construction_one_frozen_8_3_1():
    c = construction_one(8, 3, 1)
    assert c.field.q == 3
    assert c.h.data == H831
    assert (c.n, c.k) == (8, 4)
    assert c.provenance["construction"] == "construction_one"


def test_codes_are_equal_by_matrix_and_provenance():
    a, b = construction_one(8, 3, 1), construction_one(8, 3, 1)
    assert a == b
    assert hash(a) == hash(b)
    other = LinearCode(b.h, {**b.provenance, "construction": "handmade"})
    assert other != a
    assert a != a.h


def test_construction_one_frozen_4_2_1():
    c = construction_one(4, 2, 1)
    assert c.field.q == 2
    assert c.h.data == ((1, 0, 1, 0), (0, 1, 0, 1), (0, 0, 1, 1))


def test_binary_expansion_frozen_8_3_1():
    c = construction_one_binary(8, 3, 1)
    assert c.field.q == 2
    assert c.h.data == H831_BIN
    assert (c.n, c.k) == (8, 3)


def test_construction_one_field_choice():
    # smallest prime power >= ceil(n / b1)
    assert construction_one(8, 3, 1).field.q == 3
    assert construction_one(9, 2, 1).field.q == 5
    assert construction_one(12, 4, 2).field.q == 3
    assert construction_one(6, 1, 1).field.q == 7


def test_construction_one_parameter_guards():
    with pytest.raises(DivisibilityViolation):
        construction_one(8, 3, 2)
    with pytest.raises(LengthTooSmall):
        construction_one(4, 3, 1)  # needs n >= b1 + b2 + 1
    with pytest.raises(BadParameters):
        construction_one(8, 0, 1)
    with pytest.raises(BadFieldOverride):
        construction_one(8, 3, 1, q=2)  # q must be >= ceil(n/b1) = 3
    with pytest.raises(BadFieldOverride):
        construction_one(8, 3, 1, q=6)  # not a prime power


def test_construction_one_field_override_works():
    c = construction_one(8, 3, 1, q=4)
    assert c.field.q == 4
    assert mat_rank(c.h) == 4


def test_binary_expansion_length_guard():
    # k = n - (b1 + b2*t) must stay positive
    with pytest.raises(LengthTooSmall):
        construction_one_binary(6, 2, 2)


def test_mds_every_maximal_column_set_independent():
    from erasurelab.algebra import columns_independent

    for n, r in [(5, 2), (6, 4), (7, 5)]:
        code = mds_code(n, r)
        for combo in itertools.combinations(range(n), r):
            assert columns_independent(code.h, combo)


def test_mds_distance_meets_singleton():
    assert min_distance(mds_code(6, 4)) == 5
    assert min_distance(mds_code(7, 2)) == 3
    assert min_distance(mds_code(5, 3)) == 4


def test_mds_field_choice_and_override():
    assert mds_code(6, 4).field.q == 7
    assert mds_code(7, 5).field.q == 7
    assert mds_code(6, 4, q=11).field.q == 11
    with pytest.raises(BadFieldOverride):
        mds_code(6, 4, q=5)  # too few evaluation points


def test_generator_orthogonality():
    for code in [
        construction_one(8, 3, 1),
        construction_one_binary(8, 3, 1),
        mds_code(6, 4),
        cyclic_from_h(7, 2, (1, 0, 1, 1, 1)),
    ]:
        g = generator_matrix(code)
        assert g.nrows == code.k
        assert mat_rank(g) == code.k
        prod = code.h @ Matrix(g.field, list(zip(*g.data)))
        assert all(x == 0 for row in prod.data for x in row)


def test_cyclic_banded_structure():
    c = cyclic_from_h(7, 2, (1, 0, 1, 1, 1))
    assert isinstance(c, CyclicCode)
    assert (c.n, c.k) == (7, 4)
    assert c.h.data == (
        (1, 0, 1, 1, 1, 0, 0),
        (0, 1, 0, 1, 1, 1, 0),
        (0, 0, 1, 0, 1, 1, 1),
    )
    assert c.poly.coeffs == (1, 0, 1, 1, 1)


def test_cyclic_rejects_non_divisor():
    with pytest.raises(NotCyclic):
        cyclic_from_h(7, 2, (1, 1, 1))  # 1 + X + X^2 does not divide X^7 - 1


def test_cyclic_rejects_zero_constant_term():
    with pytest.raises(BadReciprocal):
        cyclic_from_h(7, 2, (0, 1, 1))
    with pytest.raises(BadReciprocal):
        cyclic_from_h(7, 2, (1,))  # degree 0 leaves no parity rows


def _codewords(code):
    g = generator_matrix(code)
    f = code.field
    for msg in itertools.product(range(f.q), repeat=code.k):
        yield tuple(
            # sum_i msg_i * G[i][j]
            _dot(f, msg, [g.data[i][j] for i in range(code.k)])
            for j in range(code.n)
        )


def _dot(f, xs, ys):
    acc = 0
    for x, y in zip(xs, ys):
        acc = f.add(acc, f.mul(x, y))
    return acc


def _syndrome_zero(code, word):
    f = code.field
    return all(_dot(f, row, word) == 0 for row in code.h.data)


@pytest.mark.parametrize(
    "n,q,h",
    [
        (7, 2, (1, 0, 1, 1, 1)),
        (7, 2, (1, 1, 0, 1)),
        (15, 2, (1, 1, 0, 1, 0, 0, 0, 1)),
        (4, 3, (2, 1, 2, 1)),
    ],
)
def test_cyclic_codes_are_shift_closed(n, q, h):
    code = cyclic_from_h(n, q, h)
    for word in _codewords(code):
        assert _syndrome_zero(code, word)
        shifted = (word[-1],) + word[:-1]
        assert _syndrome_zero(code, shifted)


def _random_codes(rng, count):
    """Random full-rank codes over GF(2..9) with n <= 12 and q^k <= 4096,
    so both exact paths stay cheap whichever min_distance takes."""
    while count:
        q = rng.choice((2, 3, 4, 5, 7, 8, 9))
        n = rng.randrange(2, 13)
        k = rng.randrange(1, n)
        if q**k > 4096:
            continue
        h = Matrix(field_make(q), [[rng.randrange(q) for _ in range(n)] for _ in range(n - k)])
        if mat_rank(h) == n - k:
            count -= 1
            yield LinearCode(h)


def test_min_distance_enum_and_subset_paths_agree():
    """min_distance picks a path by its work; both must give its answer, on
    fixed codes, acceptance 03's two-burst sweep and random codes. The
    enumeration runs only where q^k is within its cap: past it, on 10 of
    the sweep's points, it would walk up to 13^10 / 12 codewords."""
    sweep = [
        construction_one(n, b1, b2)
        for b1 in range(1, 5)
        for b2 in range(1, b1 + 1)
        if b1 % b2 == 0
        for n in range(b1 + b2 + 1, 13)
    ]
    assert len(sweep) == 58
    for code in [
        construction_one(8, 3, 1),
        construction_one(6, 2, 1),
        construction_one_binary(8, 3, 1),
        mds_code(6, 4),
        cyclic_from_h(7, 2, (1, 0, 1, 1, 1)),
        *sweep,
        *_random_codes(random.Random(20), 300),
    ]:
        d = min_distance(code)
        assert d == _min_dist_subsets(code), code
        if code.field.q**code.k <= _ENUM_CAP:
            assert d == _min_weight_enum(code), code


def test_min_distance_keeps_its_too_large_edge():
    with pytest.raises(TooLarge):
        min_distance(mds_code(26, 2))
    # k = 2, n = 25 over GF(2): H = [P | I_23], P with 11 rows (1, 0), 11
    # rows (0, 1) and one (1, 1), so the three nonzero codewords weigh 13,
    # 13 and 24
    p = [(1, 0)] * 11 + [(0, 1)] * 11 + [(1, 1)]
    rows = [list(p[i]) + [int(t == i) for t in range(23)] for i in range(23)]
    code = LinearCode(Matrix(field_make(2), rows))
    assert (code.n, code.k) == (25, 2)
    assert min_distance(code) == 13


def test_min_distance_cyclic_fixtures():
    assert min_distance(cyclic_from_h(7, 2, (1, 0, 1, 1, 1))) == 3
    assert min_distance(cyclic_from_h(15, 2, (1, 1, 0, 1, 0, 0, 0, 1))) == 5


def test_two_burst_construction_distance_rule():
    # d = 3 when n > 2*b1, else 4
    assert min_distance(construction_one(8, 3, 1)) == 3
    assert min_distance(construction_one(6, 3, 1)) == 4
    assert min_distance(construction_one(5, 2, 1)) == 3
    assert min_distance(construction_one(5, 3, 1)) == 4
    assert min_distance(construction_one(6, 2, 2)) == 3


def test_linear_code_validation():
    f = field_make(2)
    with pytest.raises(StructureViolation):
        LinearCode(Matrix(f, [[1, 0, 1], [1, 0, 1]]))  # rank-deficient rows
    with pytest.raises(BadParameters):
        LinearCode(Matrix(f, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))  # k = 0


def test_json_roundtrip_exact():
    for code in [
        construction_one(8, 3, 1),
        construction_one_binary(8, 3, 1),
        mds_code(6, 4),
    ]:
        doc = code.to_json()
        back = LinearCode.from_json(doc)
        assert back.h == code.h
        assert back.provenance == code.provenance
        assert (back.n, back.k) == (code.n, code.k)
        assert back.to_json() == doc


def test_json_roundtrip_rebuilds_cyclic_type():
    code = cyclic_from_h(7, 2, (1, 0, 1, 1, 1))
    back = LinearCode.from_json(code.to_json())
    assert isinstance(back, CyclicCode)
    assert back.h == code.h
    assert back.poly == code.poly


def test_json_rejects_inconsistent_declared_shape():
    doc = construction_one(8, 3, 1).to_json()
    doc["k"] = 5
    with pytest.raises(BadParameters):
        LinearCode.from_json(doc)
