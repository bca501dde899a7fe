"""Field, polynomial, and matrix layer: independent oracles for the parts
everything else leans on."""

from __future__ import annotations

import dataclasses
import itertools
import random

import pytest

from erasurelab.algebra import (
    Field,
    Matrix,
    Poly,
    _push,
    _recovery,
    _reduce,
    _rref,
    columns_independent,
    field_make,
    mat_rank,
    poly_divides,
    poly_divmod,
    poly_mul,
    smallest_prime_power_at_least,
    solve_for_columns,
    systematic_form,
    vectors_independent,
    x_pow_n_minus_1,
    zrun,
)
from erasurelab.analysis import exhaustive_code_search
from erasurelab.channel import ChannelParams, decode_erasures
from erasurelab.codes import generator_matrix, mds_code
from erasurelab.errors import (
    BadFieldOverride,
    BadParameters,
    DependentColumns,
    DimensionMismatch,
    DivisionByZero,
    FieldMismatch,
    InconsistentSyndrome,
    InvalidPolynomial,
    NotPrimePower,
    SingularBlock,
    TooLarge,
)
from erasurelab.streaming import StreamingParams, de_decode, de_encode

# ---------------------------------------------------------------------------
# modulus selection
# ---------------------------------------------------------------------------


def _digits(v, p, m):
    out = []
    for _ in range(m):
        out.append(v % p)
        v //= p
    return tuple(out)


def _eval(coeffs, x, p):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def _first_irreducible(p, m):
    """Smallest-encoding monic irreducible of degree m over GF(p), where the
    encoding of the non-leading coefficients (c0..c_{m-1}) is sum ci * p^i.
    Root-freeness decides irreducibility for m in {2, 3}."""
    assert m in (2, 3)
    for v in range(p**m):
        coeffs = _digits(v, p, m) + (1,)
        if all(_eval(coeffs, x, p) != 0 for x in range(p)):
            return coeffs
    raise AssertionError("no irreducible found")


@pytest.mark.parametrize("q", [4, 8, 9, 25, 27])
def test_modulus_is_first_irreducible(q):
    f = field_make(q)
    assert f.modulus == _first_irreducible(f.p, f.m)


def test_canonical_moduli_frozen():
    assert field_make(4).modulus == (1, 1, 1)
    assert field_make(8).modulus == (1, 1, 0, 1)
    assert field_make(9).modulus == (1, 0, 1)
    assert field_make(16).modulus == (1, 1, 0, 0, 1)


def test_prime_field_has_empty_modulus():
    assert field_make(7).modulus == ()


@pytest.mark.parametrize("q", [0, 1, 6, 12, 15, 100])
def test_not_prime_power_rejected(q):
    with pytest.raises(NotPrimePower):
        field_make(q)


def test_field_size_cap():
    with pytest.raises(TooLarge):
        field_make(1 << 17)


# ---------------------------------------------------------------------------
# arithmetic oracles
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
def test_prime_field_inverse_matches_fermat(p):
    f = field_make(p)
    for x in range(1, p):
        assert f.inv(x) == pow(x, p - 2, p)


def test_gf7_inverse_fixture():
    assert field_make(7).inv(3) == 5


def _naive_ext_mul(f: Field, a: int, b: int) -> int:
    """Schoolbook polynomial product of the digit vectors, reduced mod the
    modulus by long division — no field methods involved."""
    p, m = f.p, f.m
    da, db = _digits(a, p, m), _digits(b, p, m)
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] = (prod[i + j] + x * y) % p
    mod = f.modulus
    for i in range(len(prod) - 1, m - 1, -1):
        c = prod[i]
        if c:
            for j, mj in enumerate(mod):
                prod[i - m + j] = (prod[i - m + j] - c * mj) % p
    return sum(c * p**i for i, c in enumerate(prod[:m]))


@pytest.mark.parametrize("q", [4, 8, 9])
def test_extension_mul_matches_schoolbook(q):
    f = field_make(q)
    for a in range(q):
        for b in range(q):
            assert f.mul(a, b) == _naive_ext_mul(f, a, b)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_field_axioms_exhaustive(q):
    f = field_make(q)
    elems = range(q)
    for a in elems:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        assert f.sub(a, a) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
    for a, b in itertools.product(elems, repeat=2):
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
    for a, b, c in itertools.product(elems, repeat=3):
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def _is_prime_power(q):
    try:
        field_make(q)
    except NotPrimePower:
        return False
    return True


@pytest.mark.parametrize("q", [q for q in range(2, 257) if _is_prime_power(q)])
def test_flat_tables_match_element_methods(q):
    """Every pair up to q = 64, a seeded sample above."""
    f = field_make(q)
    if q <= 64:
        pairs = itertools.product(range(q), repeat=2)
    else:
        rng = random.Random(q)
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(3000)]
    for a, b in pairs:
        assert f._mt[a][b] == f.mul(a, b)
        assert f._at[a][b] == f.add(a, b)


@pytest.mark.parametrize(
    "q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 243, 256, 257, 625, 1024, 65536]
)
def test_row_primitives_match_element_loops(q):
    """Byte rows up to q = 16, flat tables up to q = 256, exp/log products
    and element-method sums above: the same values as the element methods,
    for empty, short and 1,000-symbol rows, c = 0 and 1 included, each
    returned as the family's row type."""
    f = field_make(q)
    assert (f._mt is None) == (q > 256)
    assert f.row is (bytes if q <= 16 else list)
    rng = random.Random(q)
    for size in [0] * 10 + [rng.randint(1, 9) for _ in range(290)] + [1000] * 6:
        u = [rng.randrange(q) if rng.random() < 0.7 else 0 for _ in range(size)]
        v = [rng.randrange(q) if rng.random() < 0.7 else 0 for _ in range(size)]
        for c in (0, 1, rng.randrange(q)):
            got = f.submul(v, c, u)
            assert type(got) is f.row
            assert list(got) == [f.sub(a, f.mul(c, x)) for a, x in zip(v, u)]
            got = f.scale(c, u)
            assert type(got) is f.row
            assert list(got) == [f.mul(c, x) for x in u]
            # rows of the family's own type give the same values
            assert list(f.submul(f.row(v), c, f.row(u))) == list(f.submul(v, c, u))


def _only_ints(value) -> bool:
    """True iff value is an int or nests tuples and lists down to ints only."""
    if isinstance(value, (tuple, list)):
        return all(_only_ints(x) for x in value)
    return type(value) is int


@pytest.mark.parametrize("q", [7, 8, 9, 16, 17, 257])
def test_values_leaving_the_package_are_ints(q):
    """Byte rows stay inside the package: matrices, packets, decoded
    messages, found matrices, polynomials and the recovery map rows that
    generator_matrix reads hold ints only, for every row family."""
    f = field_make(q)
    code = mds_code(6, 3, q=q)
    m, _ = _recovery(f, _rref(f, code.h.data), range(3, 6))
    assert _only_ints([[row[i] for i in range(3)] for row in m])
    assert _only_ints(generator_matrix(code).data)
    assert _only_ints(systematic_form(code.h, side="right").data)
    assert _only_ints((code.h @ Matrix(f, [[1], [2], [3], [4], [0], [1]])).data)
    assert _only_ints(solve_for_columns(code.h, (0, 2, 4), [1, 0, 1]))
    stream = de_encode(code, [(t % q, 1, 2) for t in range(12)])
    assert _only_ints(stream.packets)
    lossy = dataclasses.replace(stream, erased=frozenset({3, 4}))
    trace = de_decode(lossy, code, StreamingParams(ChannelParams(1, 2, 1, 6), 5))
    assert trace.messages_failed == 0 and _only_ints(trace.messages)
    assert _only_ints(decode_erasures(code, [None, 1, None, 0, 2, None]))
    a, b = Poly(f, (1, 2, 3)), Poly(f, (2, 0, 1))
    assert _only_ints(poly_mul(a, b).coeffs)
    assert all(_only_ints(r.coeffs) for r in poly_divmod(poly_mul(a, b), Poly(f, (1, 1))))
    if q <= 16:
        found = exhaustive_code_search(5, 2, 1, q)
        assert found is not None and _only_ints(found.h.data)


@pytest.mark.parametrize(
    "q", [4, 9, 27, 125, 243, 256, 343, 1024, 2187, 4096, 50653, 59049, 63001, 65521, 65536]
)
def test_exp_table_follows_the_digit_multiply(q):
    """The exp table, filled through the linear map of multiplication by the
    generator, steps exactly as the table-free digit multiply does: every
    step up to q = 4096, a seeded sample above."""
    f = field_make(q)
    g = f.primitive_element()
    steps = range(q - 1) if q <= 4096 else random.Random(q).sample(range(q - 1), 2000)
    for i in steps:
        assert f._exp[i + 1] == f._raw_mul(f._exp[i], g)
    assert sorted(f._exp[: q - 1]) == list(range(1, q))


@pytest.mark.parametrize("q", [5, 8, 9])
def test_pow_matches_repeated_mul(q):
    f = field_make(q)
    for x in range(q):
        acc = 1
        for n in range(2 * q):
            assert f.pow(x, n) == acc
            acc = f.mul(acc, x)


@pytest.mark.parametrize("q", [3, 4, 7, 8, 9, 16])
def test_element_orders(q):
    f = field_make(q)
    g = f.primitive_element()
    # naive multiplicative order
    def order(x):
        acc, n = x, 1
        while acc != 1:
            acc = f.mul(acc, x)
            n += 1
        return n

    assert order(g) == q - 1
    for x in range(1, q):
        assert (q - 1) % order(x) == 0


def test_division_by_zero():
    f = field_make(5)
    with pytest.raises(DivisionByZero):
        f.inv(0)
    with pytest.raises(DivisionByZero):
        f.pow(0, -1)


def test_check_rejects_out_of_range():
    f = field_make(4)
    with pytest.raises(BadParameters):
        f.check(4)
    with pytest.raises(BadParameters):
        f.check(-1)


def test_field_json_roundtrip_and_override_guard():
    f = field_make(8)
    assert Field.from_json(f.to_json()) == f
    doc = f.to_json()
    doc["modulus"] = [1, 0, 1, 1]  # the other irreducible cubic
    with pytest.raises(BadFieldOverride):
        Field.from_json(doc)


def test_smallest_prime_power_at_least():
    assert smallest_prime_power_at_least(2) == 2
    assert smallest_prime_power_at_least(3) == 3
    assert smallest_prime_power_at_least(6) == 7
    assert smallest_prime_power_at_least(10) == 11
    assert smallest_prime_power_at_least(15) == 16
    assert smallest_prime_power_at_least(26) == 27


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


def test_poly_canonicalizes_trailing_zeros():
    f = field_make(3)
    assert Poly(f, (1, 2, 0, 0)).coeffs == (1, 2)
    assert Poly(f, (0, 0)).degree == -1


def test_poly_divmod_reconstructs():
    f2, f3 = field_make(2), field_make(3)
    rng = random.Random(7)
    for f in (f2, f3):
        for _ in range(300):
            a = Poly(f, tuple(rng.randrange(f.q) for _ in range(rng.randint(1, 9))))
            b = Poly(f, tuple(rng.randrange(f.q) for _ in range(rng.randint(1, 9))))
            if b.is_zero():
                continue
            quo, rem = poly_divmod(a, b)
            # a == quo*b + rem, degree(rem) < degree(b)
            recon = poly_mul(quo, b)
            summed = tuple(
                f.add(x, y)
                for x, y in itertools.zip_longest(recon.coeffs, rem.coeffs, fillvalue=0)
            )
            assert Poly(f, summed) == a
            assert rem.degree < b.degree
            assert poly_divides(b, a) == rem.is_zero()


def test_poly_divides_by_zero_raises():
    f = field_make(2)
    with pytest.raises(DivisionByZero):
        poly_divides(Poly(f, ()), Poly(f, (1, 1)))


def test_x_pow_n_minus_1():
    f = field_make(3)
    p = x_pow_n_minus_1(f, 4)
    assert p.coeffs == (2, 0, 0, 0, 1)  # -1 == 2 mod 3
    assert poly_divides(Poly(f, (2, 1)), p)  # X - 1 divides


def test_zrun_against_naive_scan():
    f = field_make(2)
    for deg in range(1, 11):
        for bits in itertools.product((0, 1), repeat=deg - 1):
            coeffs = (1,) + bits + (1,)
            p = Poly(f, coeffs)
            best = cur = 0
            for c in coeffs[1:deg]:
                cur = cur + 1 if c == 0 else 0
                best = max(best, cur)
            assert zrun(p) == best, coeffs


def test_zrun_fixtures_and_guards():
    f = field_make(2)
    assert zrun(Poly(f, (1, 0, 1, 1, 1))) == 1
    assert zrun(Poly(f, (1, 1, 0, 1, 0, 0, 0, 1))) == 3
    assert zrun(Poly(f, (1, 1))) == 0
    with pytest.raises(InvalidPolynomial):
        zrun(Poly(f, (1,)))  # constant
    with pytest.raises(InvalidPolynomial):
        zrun(Poly(f, (0, 1)))  # zero constant term


def test_poly_field_mismatch():
    a = Poly(field_make(2), (1, 1))
    b = Poly(field_make(3), (1, 1))
    with pytest.raises(FieldMismatch):
        poly_mul(a, b)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


def _random_matrix(f, r, c, rng):
    return Matrix(f, [[rng.randrange(f.q) for _ in range(c)] for _ in range(r)])


def test_rank_equals_transpose_rank():
    rng = random.Random(11)
    for q in (2, 3, 5):
        f = field_make(q)
        for _ in range(60):
            m = _random_matrix(f, rng.randint(1, 6), rng.randint(1, 6), rng)
            assert mat_rank(m) == mat_rank(Matrix(f, list(zip(*m.data))))


def test_rank_fixtures():
    f = field_make(2)
    assert mat_rank(Matrix(f, [[int(i == j) for j in range(5)] for i in range(5)])) == 5
    assert mat_rank(Matrix(f, [[0] * 4] * 3)) == 0
    assert mat_rank(Matrix(f, [[1, 1], [1, 1]])) == 1


def test_vectors_independent_matches_rank():
    rng = random.Random(5)
    f = field_make(3)
    for _ in range(200):
        vecs = [tuple(rng.randrange(3) for _ in range(4)) for _ in range(rng.randint(1, 5))]
        expect = mat_rank(Matrix(f, vecs)) == len(vecs)
        assert vectors_independent(f, vecs) == expect


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_pivot_basis_matches_rank(q):
    """_push adds exactly the vectors that raise the rank; _reduce then
    sends exactly the vectors in the span to zero."""
    rng = random.Random(q)
    f = field_make(q)
    for _ in range(150):
        dim = rng.randint(1, 5)
        vecs = [[rng.randrange(q) if rng.random() < 0.6 else 0 for _ in range(dim)]
                for _ in range(rng.randint(1, dim + 1))]
        basis = []
        pushed = [_push(f, basis, v) for v in vecs]
        ranks = [0] + [mat_rank(Matrix(f, vecs[: i + 1])) for i in range(len(vecs))]
        assert pushed == [ranks[i + 1] > ranks[i] for i in range(len(vecs))]
        assert vectors_independent(f, vecs) == (ranks[-1] == len(vecs))
        rank = ranks[-1]
        assert len(basis) == rank
        for lead, row in basis:
            assert row[lead] == 1
        probe = [rng.randrange(q) for _ in range(dim)]
        in_span = mat_rank(Matrix(f, vecs + [probe])) == rank
        reduced = _reduce(f, basis, probe)
        assert all(reduced[lead] == 0 for lead, _ in basis)
        assert (not any(reduced)) == in_span


def test_matmul_and_columns_independent():
    f = field_make(3)
    m = Matrix(f, [[1, 2], [0, 1]])
    ident = Matrix(f, [[1, 0], [0, 1]])
    assert m @ ident == m
    assert columns_independent(m, (0, 1))
    assert columns_independent(Matrix(f, [[1, 1], [2, 1]]), (0, 1))  # det = 2
    assert not columns_independent(Matrix(f, [[1, 2], [2, 1]]), (0, 1))  # det = 0


def test_systematic_form_left_and_right():
    f = field_make(3)
    h = Matrix(f, [[2, 1, 0, 1], [1, 0, 1, 2]])
    left = systematic_form(h, side="left")
    assert [r[:2] for r in left.data] == [(1, 0), (0, 1)]
    right = systematic_form(h, side="right")
    assert [r[2:] for r in right.data] == [(1, 0), (0, 1)]
    # idempotent and rank preserving
    assert systematic_form(left, side="left") == left
    assert mat_rank(left) == mat_rank(h)
    with pytest.raises(SingularBlock):
        systematic_form(Matrix(f, [[1, 1, 0], [2, 2, 1]]), side="left")


# Frozen 4x8 parity-check matrix over GF(3) used as a solving fixture:
# the two-burst construction at n=8, b1=3, b2=1.
_H831 = [
    [1, 0, 0, 1, 0, 0, 1, 0],
    [0, 1, 0, 0, 1, 0, 0, 1],
    [0, 0, 1, 0, 0, 1, 0, 0],
    [0, 0, 0, 1, 1, 1, 2, 2],
]


def test_solve_for_columns_unique_solution():
    f = field_make(3)
    h = Matrix(f, _H831)
    cols = (1, 3, 4, 5)
    x_true = (1, 1, 0, 0)
    syndrome = [0, 0, 0, 0]
    for j, x in zip(cols, x_true):
        for i in range(4):
            syndrome[i] = f.add(syndrome[i], f.mul(h.data[i][j], x))
    assert solve_for_columns(h, cols, syndrome) == list(x_true)


def test_solve_for_columns_dependent_raises():
    f = field_make(3)
    h = Matrix(f, _H831)
    with pytest.raises(DependentColumns):
        solve_for_columns(h, (0, 3, 6), [1, 0, 0, 0])


def test_solve_for_columns_inconsistent_overdetermined():
    f = field_make(3)
    h = Matrix(f, _H831)
    # single column, syndrome outside its span
    with pytest.raises(InconsistentSyndrome):
        solve_for_columns(h, (0,), [1, 1, 0, 0])


def test_matrix_json_roundtrip():
    f = field_make(9)
    rng = random.Random(3)
    m = _random_matrix(f, 3, 5, rng)
    assert Matrix.from_json(m.to_json()) == m


def test_matrix_rejects_bad_entries():
    f = field_make(2)
    with pytest.raises(BadParameters):
        Matrix(f, [[0, 2]])
    with pytest.raises(DimensionMismatch):
        Matrix(f, [[0, 1], [1]])
