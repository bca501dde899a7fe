"""The shared elimination routine and Zech-logarithm addition against the
reference loops in ``oracles``: same ranks, matrices, solutions, verdicts,
exception types and messages on seeded random inputs."""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

import oracles
from erasurelab.algebra import (
    Matrix,
    field_make,
    mat_rank,
    solve_for_columns,
    systematic_form,
)
from erasurelab.analysis import mds_subblock_check
from erasurelab.codes import _nullspace_generator
from erasurelab.errors import ErasureLabError

FIELDS = (2, 3, 4, 5, 7, 8, 9, 25, 27)


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except ErasureLabError as exc:
        return ("raise", type(exc), str(exc))


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


@pytest.mark.parametrize("q", FIELDS)
def test_elimination_matches_reference_loops(q):
    rng = random.Random(1000 + q)
    f = field_make(q)
    for _ in range(150):
        nr, nc = rng.randint(1, 4), rng.randint(1, 7)
        h = Matrix(f, _random_rows(rng, q, nr, nc))

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

        code = SimpleNamespace(field=f, h=h, n=nc)
        assert _outcome(_nullspace_generator, code) == _outcome(
            oracles.nullspace_generator, code
        )
        if 2 <= nr <= nc:
            b = rng.randint(1, nr - 1)
            assert _outcome(mds_subblock_check, code, b, nr - b) == _outcome(
                oracles.mds_subblock_check, code, b, nr - b
            )
