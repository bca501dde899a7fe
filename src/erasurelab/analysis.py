"""Rate, field-size, sparsity, and distance analyses, plus exhaustive
searches over small parity-check spaces.

The searches run over systematic candidates [P | I]: any code recovering the
pattern family in question must have independent last n-k columns (the family
contains a pattern covering exactly those coordinates), so row reduction puts
its parity-check matrix in that form and the restriction loses no codes.
Candidates are scanned in ascending column-encoding order, column by column
with pruning, so "first found" is well defined and worker-count independent.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from .algebra import Matrix, _digits, _eliminate, field_make, vectors_independent, zrun
from .channel import (
    ChannelParams,
    ErasurePattern,
    can_recover,
    enumerate_b1b2_patterns,
    enumerate_burst_plus_random,
)
from .codes import CyclicCode, LinearCode, min_distance
from .errors import (
    BadParameters,
    OutOfScope,
    StructureViolation,
    TooLarge,
    WrongProvenance,
)

_SEARCH_CAP = 1 << 24
_SUBSET_CAP = 1 << 20


# ---------------------------------------------------------------------------
# rate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RateReport:
    """Optimal diagonal-embedding rate and the general converse bound.

    r_opt = (w-(b+e))/w is the exact optimum for diagonally embedded codes at
    delay w-1, achieved with n = w, k = w-(b+e). prior_bound is the older
    (w-a)/(w-a+b+e+e/m) ceiling with m = ceil((w-(b+e))/(b+e-a)); it binds
    all streaming codes, not just embeddings. globally_optimal flags e >= b-1,
    where the embedding optimum meets the general optimum.
    """

    params: ChannelParams
    r_opt: Fraction
    m: int
    prior_bound: Fraction
    globally_optimal: bool
    n: int
    k: int

    def to_json(self) -> dict:
        p = self.params
        return {
            "a": p.a,
            "b": p.b,
            "e": p.e,
            "w": p.w,
            "r_opt": str(self.r_opt),
            "m": self.m,
            "prior_bound": str(self.prior_bound),
            "globally_optimal": self.globally_optimal,
            "n": self.n,
            "k": self.k,
        }


def rate_report(params: ChannelParams) -> RateReport:
    a, b, e, w = params.a, params.b, params.e, params.w
    span = b + e
    r_opt = Fraction(w - span, w)
    m = -(-(w - span) // (span - a))  # ceil
    prior = Fraction(w - a) / (w - a + span + Fraction(e, m))
    return RateReport(params, r_opt, m, prior, e >= b - 1, w, w - span)


# ---------------------------------------------------------------------------
# field-size bounds
# ---------------------------------------------------------------------------


def random_field_lower_bound(n: int, b: int, e: int) -> int:
    """Necessary field size q >= n - b - 2 for an [n, n-(b+e)] code that
    recovers one length-b burst plus e random erasures.

    Stated for e > 1 and n > b + e + 1 only, and conditional on the MDS
    conjecture (the reduced subblock must generate an [n-b, e] MDS code);
    other parameters raise OutOfScope.
    """
    if e <= 1:
        raise OutOfScope(f"bound requires e > 1, got e={e}")
    if b < 1:
        raise BadParameters(f"need b >= 1, got {b}")
    if n <= b + e + 1:
        raise OutOfScope(f"bound requires n > b+e+1 = {b + e + 1}, got n={n}")
    return n - b - 2


def sparse_field_lower_bound(n: int, b: int) -> int:
    """Field sizes below ceil(n/b) - 1 cannot reach the sparsity floor."""
    if b < 1 or n <= b + 1:
        raise BadParameters(f"need n >= b+2 >= 3, got n={n}, b={b}")
    return -(-n // b) - 1


def sparsity_minimum(n: int, b: int) -> int:
    """Fewest nonzeros in any systematic parity-check matrix of an
    [n, n-(b+1)] code recovering a length-b burst plus one random erasure."""
    if b < 1 or n <= b + 1:
        raise BadParameters(f"need n >= b+2 >= 3, got n={n}, b={b}")
    ell = -(-n // b)
    t = max(ell - 2, 0)
    return (b + 1) + 2 * t + 3 * (n - b - 1 - t)


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------


def mds_subblock_check(code: LinearCode, b: int, e: int) -> bool:
    """Row-reduce H so the first b columns become [I_b; 0] and test whether
    the bottom-right e x (n-b) block generates an [n-b, e] MDS code (every e
    of its columns independent).

    Any code recovering one length-b burst plus e random erasures must pass;
    this is the structural core of the field-size bound.
    """
    if b < 1 or e < 1:
        raise BadParameters(f"need b, e >= 1, got b={b}, e={e}")
    h = code.h
    if h.nrows != b + e:
        raise BadParameters(f"need n-k = b+e = {b + e}, got {h.nrows} parity rows")
    f = code.field
    rows = [list(r) for r in h.data]
    if len(_eliminate(f, rows, range(b))) < b:
        raise StructureViolation("first b columns are linearly dependent")
    block = [row[b:] for row in rows[b:]]
    n_sub = code.n - b
    if math.comb(n_sub, e) > _SUBSET_CAP:
        raise TooLarge(f"C({n_sub},{e}) column subsets exceed the cap")
    cols = [tuple(row[j] for row in block) for j in range(n_sub)]
    return all(
        vectors_independent(f, [cols[j] for j in combo])
        for combo in itertools.combinations(range(n_sub), e)
    )


# ---------------------------------------------------------------------------
# sparsification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SparsityReport:
    """A sparsified burst+1 code and how its weight compares to the floor."""

    code: LinearCode
    nonzeros: int
    weight_two_columns: tuple[int, ...]
    floor: int
    meets_floor: bool

    def to_json(self) -> dict:
        return {
            "nonzeros": self.nonzeros,
            "weight_two_columns": list(self.weight_two_columns),
            "floor": self.floor,
            "meets_floor": self.meets_floor,
            "H": self.code.h.to_json(),
        }


def sparsify_construction_one(code: LinearCode) -> SparsityReport:
    """Subtract the last parity row from the first, turning a b2=1 instance
    of the two-burst construction into a weight-minimal [I_{b+1} | P] form.

    Only codes built by construction_one with b2 = 1 are accepted. The row
    operation leaves the code unchanged; the report counts nonzeros and lists
    the parity columns of weight exactly 2 (all others have weight 3, apart
    from the identity block).
    """
    prov = code.provenance
    if prov.get("construction") != "construction_one" or prov.get("b2") != 1:
        raise WrongProvenance("expected a construction_one code with b2 = 1")
    b = prov["b1"]
    f = code.field
    rows = [list(r) for r in code.h.data]
    rows[0] = [f.sub(x, y) for x, y in zip(rows[0], rows[b])]
    for i in range(b + 1):
        if any(rows[i][j] != (1 if j == i else 0) for j in range(b + 1)):
            raise StructureViolation("left block failed to reduce to the identity")
    h = Matrix(f, rows)
    new_code = LinearCode(
        h,
        {
            "construction": "sparsified_construction_one",
            "n": code.n,
            "b": b,
            "q": f.q,
        },
    )
    nonzeros = sum(1 for row in rows for x in row if x)
    col_weights = [sum(1 for row in rows if row[j]) for j in range(code.n)]
    weight2 = tuple(j for j, wt in enumerate(col_weights) if wt == 2)
    floor = sparsity_minimum(code.n, b)
    return SparsityReport(new_code, nonzeros, weight2, floor, nonzeros == floor)


# ---------------------------------------------------------------------------
# cyclic-code reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CyclicReport:
    """Zero-run bound versus true distance for one cyclic code.

    bound = (n-k+1) - z. meets_bound says d equals the bound, and that holds
    exactly when some burst of length d-1 plus one extra erasure is
    unrecoverable; witness is the lexicographically smallest such pattern.
    """

    n: int
    k: int
    q: int
    z: int
    bound: int
    d: int
    meets_bound: bool
    witness: ErasurePattern | None

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "q": self.q,
            "z": self.z,
            "bound": self.bound,
            "d": self.d,
            "meets_bound": self.meets_bound,
            "witness": None if self.witness is None else self.witness.to_json(),
        }


def _burst_plus_one_patterns(n: int, burst_len: int) -> list[ErasurePattern]:
    masks = set()
    for s in range(n - burst_len + 1):
        imask = ((1 << burst_len) - 1) << s
        for j in range(n):
            if not (imask >> j) & 1:
                masks.add(imask | (1 << j))
    pats = [ErasurePattern(n, tuple(i for i in range(n) if (m >> i) & 1)) for m in masks]
    pats.sort(key=lambda p: p.support)
    return pats


def cyclic_report(code: CyclicCode) -> CyclicReport:
    if not isinstance(code, CyclicCode):
        raise WrongProvenance("cyclic_report needs a code built by cyclic_from_h")
    n, k = code.n, code.k
    z = zrun(code.poly)
    bound = (n - k + 1) - z
    d = min_distance(code)
    if d > bound:
        raise RuntimeError("distance exceeds the zero-run bound; this is a bug")
    witness = None
    for pat in _burst_plus_one_patterns(n, d - 1):
        if not can_recover(code, pat):
            witness = pat
            break
    meets = d == bound
    if meets != (witness is not None):
        raise RuntimeError("tightness witness disagrees with d; this is a bug")
    return CyclicReport(n, k, code.field.q, z, bound, d, meets, witness)


def cyclic_burst_capability(code: CyclicCode) -> bool:
    """Every cyclic burst of length n-k (all n rotations) is recoverable."""
    if not isinstance(code, CyclicCode):
        raise WrongProvenance("needs a code built by cyclic_from_h")
    n, r = code.n, code.n - code.k
    for s in range(n):
        sup = tuple(sorted((s + i) % n for i in range(r)))
        if not can_recover(code, ErasurePattern(n, sup)):
            return False
    return True


# ---------------------------------------------------------------------------
# exhaustive searches
# ---------------------------------------------------------------------------


def resolve_workers(requested: int | None = None) -> int:
    """Worker count for searches: the ERASURELAB_THREADS env var is a cap
    (and the default when no count is requested)."""
    raw = os.environ.get("ERASURELAB_THREADS", "").strip()
    if raw:
        try:
            cap = int(raw)
        except ValueError as exc:
            raise BadParameters("ERASURELAB_THREADS must be an integer") from exc
        cap = max(cap, 1)
    else:
        cap = 1
    if requested is None:
        return cap
    return max(1, min(requested, cap))


def _family_patterns(n: int, family: tuple) -> list[ErasurePattern]:
    kind = family[0]
    if kind == "two-burst":
        return enumerate_b1b2_patterns(n, family[1], family[2])
    if kind == "burst-random":
        return enumerate_burst_plus_random(n, family[1], family[2])
    raise BadParameters(f"unknown pattern family {family!r}")


def _prep_groups(n: int, r: int, patterns):
    """Bucket patterns by their largest information-column index.

    Returns None when some pattern is unsatisfiable by any [P | I] matrix
    (more erased columns than rows survive the identity part), which decides
    the whole search. Patterns entirely inside the identity block are always
    recoverable and dropped.
    """
    k = n - r
    groups: list[list[tuple]] = [[] for _ in range(k)]
    for pat in patterns:
        sup = pat.support
        if len(sup) > r:
            return None
        p_cols = tuple(j for j in sup if j < k)
        if not p_cols:
            continue
        id_rows = {j - k for j in sup if j >= k}
        kept = tuple(i for i in range(r) if i not in id_rows)
        if len(p_cols) > len(kept):
            return None
        groups[max(p_cols)].append((p_cols, kept))
    for grp in groups:
        grp.sort(key=lambda item: (len(item[0]), item))
    return groups


def _dfs(field, q: int, r: int, k: int, groups, depth: int, cols, lo: int, hi: int):
    for v in range(lo, hi):
        cols.append(_digits(v, q, r))
        ok = True
        for p_cols, kept in groups[depth]:
            vecs = [tuple(cols[c][i] for i in kept) for c in p_cols]
            if not vectors_independent(field, vecs):
                ok = False
                break
        if ok:
            if depth + 1 == k:
                return list(cols)
            found = _dfs(field, q, r, k, groups, depth + 1, cols, 0, q**r)
            if found is not None:
                return found
        cols.pop()
    return None


def _search_chunk(args):
    n, r, q, family, lo, hi = args
    field = field_make(q)
    groups = _prep_groups(n, r, _family_patterns(n, family))
    if groups is None:
        return None
    return _dfs(field, q, r, n - r, groups, 0, [], lo, hi)


def _run_search(n: int, r: int, q: int, family: tuple, workers: int):
    k = n - r
    if k < 1:
        raise BadParameters(f"need n > {r} so that k >= 1, got n={n}")
    if q ** (r * k) > _SEARCH_CAP:
        raise TooLarge(f"q^(r*k) = {q ** (r * k)} candidates exceed the search cap")
    field = field_make(q)  # validates q, including NotPrimePower
    space = q**r
    workers = max(1, min(workers, space))
    if workers == 1:
        cols = _search_chunk((n, r, q, family, 0, space))
    else:
        step = -(-space // workers)
        chunks = [
            (n, r, q, family, lo, min(lo + step, space))
            for lo in range(0, space, step)
        ]
        cols = None
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for result in pool.map(_search_chunk, chunks):
                if result is not None:
                    cols = result
                    break
    if cols is None:
        return None
    rows = [
        [cols[j][i] for j in range(k)] + [1 if t == i else 0 for t in range(r)]
        for i in range(r)
    ]
    return Matrix(field, rows)


def exhaustive_code_search(
    n: int, b1: int, b2: int, q: int, workers: int = 1
) -> LinearCode | None:
    """First [n, n-(b1+b2)] code over GF(q), in systematic [P | I] scan
    order, that recovers every two-burst pattern; None when none exists."""
    if b1 < 1 or b2 < 1:
        raise BadParameters(f"need b1, b2 >= 1, got b1={b1}, b2={b2}")
    h = _run_search(n, b1 + b2, q, ("two-burst", b1, b2), workers)
    if h is None:
        return None
    return LinearCode(
        h,
        {
            "construction": "exhaustive_search",
            "family": "two-burst",
            "n": n,
            "b1": b1,
            "b2": b2,
            "q": q,
        },
    )


def exhaustive_burst_random_search(
    n: int, b: int, e: int, q: int, workers: int = 1
) -> LinearCode | None:
    """First [n, n-(b+e)] code over GF(q), in systematic [P | I] scan order,
    that recovers every burst <= b plus <= e random erasures; None when none
    exists."""
    if b < 1 or e < 0:
        raise BadParameters(f"need b >= 1 and e >= 0, got b={b}, e={e}")
    h = _run_search(n, b + e, q, ("burst-random", b, e), workers)
    if h is None:
        return None
    return LinearCode(
        h,
        {
            "construction": "exhaustive_search",
            "family": "burst-random",
            "n": n,
            "b": b,
            "e": e,
            "q": q,
        },
    )
