"""Rate, field-size, sparsity, and distance analyses, plus exhaustive
searches over small parity-check spaces.

The searches run over systematic candidates [P | I]: any code recovering the
pattern family in question must have independent last n-k columns (the family
contains a pattern covering exactly those coordinates), so row reduction puts
its parity-check matrix in that form and the restriction loses no codes.
Candidates are scanned serially in ascending column-encoding order, column
by column with pruning, so "first found" is well defined. Only the smallest
column of each scaling class is scanned: scaling a column keeps every pattern
recoverable, so the first valid matrix has no other. Scaling rows does too,
so column 0 is scanned over its 0/1 vectors only (see _zero_one).
Only the supports with r entries are grouped and tested. Any subset of
independent columns is independent, so a matrix recovers the family iff it
recovers the supports that no other one contains; a family may be searched
this way only if those are exactly its r-entry supports. Both families are
of that kind when n > r, since no member has more than r entries and every
member lies inside one with r. Two-burst (r = b1 + b2): lengthen both bursts
to full length; if they then overlap, their union is an interval shorter
than r < n, which lies inside an interval of length r, itself an abutting
b1-burst and b2-burst. Burst-random (r = b + e): lengthen the burst to b,
drop the extras inside it, and add extras outside it until there are e,
which n > b + e leaves room for. The valid matrices, hence the first one
found, do not change. The r-entry supports are read from the family's
full-length unions alone (cover=True), since r entries take two disjoint
bursts of lengths b1 and b2, or a length-b burst and e extras outside it.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    _built,
    _first_dependent,
    _instance,
    _json_int,
    _matrix,
    _push,
    _reduce,
    columns_independent,
    field_make,
    zrun,
)
from .channel import (
    ChannelParams,
    ErasurePattern,
    _burst_extras,
    _burst_plus_random,
    _bursts,
    _supports,
    _two_bursts,
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
    _instance(params, ChannelParams, "params")
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
    if _json_int(e, "e") <= 1:
        raise OutOfScope(f"bound requires e > 1, got e={e}")
    if _json_int(b, "b") < 1:
        raise BadParameters(f"need b >= 1, got {b}")
    if _json_int(n, "n") <= b + e + 1:
        raise OutOfScope(f"bound requires n > b+e+1 = {b + e + 1}, got n={n}")
    return n - b - 2


def sparse_field_lower_bound(n: int, b: int) -> int:
    """Field sizes below ceil(n/b) - 1 cannot reach the sparsity floor."""
    if _json_int(b, "b") < 1 or _json_int(n, "n") <= b + 1:
        raise BadParameters(f"need n >= b+2 >= 3, got n={n}, b={b}")
    return -(-n // b) - 1


def sparsity_minimum(n: int, b: int) -> int:
    """Fewest nonzeros in any systematic parity-check matrix of an
    [n, n-(b+1)] code recovering a length-b burst plus one random erasure."""
    if _json_int(b, "b") < 1 or _json_int(n, "n") <= b + 1:
        raise BadParameters(f"need n >= b+2 >= 3, got n={n}, b={b}")
    ell = -(-n // b)
    t = max(ell - 2, 0)
    return (b + 1) + 2 * t + 3 * (n - b - 1 - t)


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------


def mds_subblock_check(code: LinearCode, b: int, e: int) -> bool:
    """Whether, once H is row-reduced so the first b columns become
    [I_b; 0], the bottom-right e x (n-b) block generates an [n-b, e] MDS
    code (every e of its columns independent).

    Row operations keep every column dependency, so the check runs on H
    itself: the first b columns are independent (StructureViolation if not),
    and so is each set of them together with e of the other columns.

    Any code recovering one length-b burst plus e random erasures must pass;
    this is the structural core of the field-size bound.
    """
    if _json_int(b, "b") < 1 or _json_int(e, "e") < 1:
        raise BadParameters(f"need b, e >= 1, got b={b}, e={e}")
    h = code.h
    if h.nrows != b + e:
        raise BadParameters(f"need n-k = b+e = {b + e}, got {h.nrows} parity rows")
    if not columns_independent(h, range(b)):
        raise StructureViolation("first b columns are linearly dependent")
    if math.comb(code.n - b, e) > _SUBSET_CAP:
        raise TooLarge(f"C({code.n - b},{e}) column subsets exceed the cap")
    family = (tuple(range(b)) + s for s in itertools.combinations(range(b, code.n), e))
    return _first_dependent(h, family)[1] is None


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


def sparsify_construction_one(code: LinearCode) -> SparsityReport:
    """Subtract the last parity row from the first, turning a b2=1 instance
    of the two-burst construction into a weight-minimal [I_{b+1} | P] form.

    Only codes built by construction_one with b2 = 1 are accepted. The row
    operation leaves the code unchanged; the report counts nonzeros and lists
    the parity columns of weight exactly 2 (all others have weight 3, apart
    from the identity block).
    """
    prov = _instance(code, LinearCode, "code").provenance
    b2 = prov.get("b2")
    b2_is_one = isinstance(b2, int) and not isinstance(b2, bool) and b2 == 1
    if prov.get("construction") != "construction_one" or not b2_is_one:
        raise WrongProvenance("expected a construction_one code with b2 = 1")
    b = prov.get("b1")
    if isinstance(b, bool) or not isinstance(b, int) or code.h.nrows != b + 1:
        raise WrongProvenance("provenance b1 does not match the parity-check matrix")
    f = code.field
    rows = [list(r) for r in code.h.data]
    rows[0] = f.submul(rows[0], 1, rows[b])
    for i in range(b + 1):
        if any(rows[i][j] != (1 if j == i else 0) for j in range(b + 1)):
            raise StructureViolation("left block failed to reduce to the identity")
    h = _matrix(f, rows)
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


def cyclic_report(code: CyclicCode) -> CyclicReport:
    if not isinstance(code, CyclicCode):
        raise WrongProvenance("cyclic_report needs a code built by cyclic_from_h")
    n, k = code.n, code.k
    z = zrun(code.poly)
    bound = (n - k + 1) - z
    d = min_distance(code)
    if d > bound:
        raise RuntimeError("distance exceeds the zero-run bound; this is a bug")
    # each (d-1)-burst with one index outside it; a bare one has d-1 columns, always independent
    family = _supports(n, _burst_extras(n, d - 1, 1))
    bad = _first_dependent(code.h, family)[1]
    witness = None if bad is None else _built(ErasurePattern, n=n, support=bad)
    meets = d == bound
    if meets != (witness is not None):
        raise RuntimeError("tightness witness disagrees with d; this is a bug")
    return CyclicReport(n, k, code.field.q, z, bound, d, meets, witness)


def cyclic_burst_capability(code: CyclicCode) -> bool:
    """Every cyclic burst of length n-k (all n rotations) is recoverable."""
    if not isinstance(code, CyclicCode):
        raise WrongProvenance("needs a code built by cyclic_from_h")
    n, r = code.n, code.n - code.k
    family = _supports(n, set(_bursts(n, [r], cyclic=True)))
    return _first_dependent(code.h, family)[1] is None


# ---------------------------------------------------------------------------
# exhaustive searches
# ---------------------------------------------------------------------------


def resolve_workers(requested: int | None = None) -> int:
    """Worker count echoed as meta.threads (every search runs serially):
    ERASURELAB_THREADS is a cap, and the default when none is requested."""
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
    if _json_int(requested, "workers") < 1:
        raise BadParameters(f"need workers >= 1, got {requested}")
    return min(requested, cap)


def _prep_groups(n: int, r: int, supports):
    """Bucket pattern supports by their largest information-column index.

    Patterns entirely inside the identity block are always recoverable and
    dropped.
    """
    k = n - r
    groups: list[list[tuple]] = [[] for _ in range(k)]
    for sup in supports:
        p_cols = tuple(j for j in sup if j < k)
        if not p_cols:
            continue
        id_rows = {j - k for j in sup if j >= k}
        kept = tuple(i for i in range(r) if i not in id_rows)
        groups[max(p_cols)].append((p_cols, kept))
    for grp in groups:
        grp.sort(key=lambda item: (len(item[0]), item))
    return groups


def _normalized(q: int, r: int):
    """The zero column, then every column whose highest nonzero digit is 1,
    as r digits (lowest first) in ascending base-q encoding.

    These are the smallest encodings in each scaling class {c*v : c != 0}.
    Scaling a column of P keeps every pattern recoverable, so the first valid
    [P | I] in scan order is made of such columns only.
    """
    yield (0,) * r
    for t in range(r):
        top = (1,) + (0,) * (r - t - 1)
        for low in itertools.product(range(q), repeat=t):
            yield low[::-1] + top


def _zero_one(r: int):
    """The 2^r columns with 0/1 digits (lowest first), ascending in any base.

    Scaling each row i of H with P[i][0] != 0 by 1/P[i][0] keeps the code,
    and scaling the identity columns back keeps every column subset's
    independence. Column 0 becomes its 0/1 support vector, which encodes
    below any other vector with that support, and the other columns can be
    normalized again, so the first valid [P | I] has a 0/1 column 0.
    """
    return (bits[::-1] for bits in itertools.product((0, 1), repeat=r))


def _dfs(field, r: int, groups, depth: int, cols, candidates):
    """First valid completion of cols (columns 0..depth-1 of P) with column
    depth taken from candidates, or None.

    Every pattern in groups[depth] ends at column depth, so its other columns
    are fixed here: they are reduced once into a pivot basis over the kept
    rows, and a candidate passes when its kept rows reduce to nonzero against
    every basis.
    """
    bases = []
    for p_cols, kept in groups[depth]:
        basis: list = []
        for c in p_cols[:-1]:
            if not _push(field, basis, [cols[c][i] for i in kept]):
                return None
        bases.append((kept, basis))
    for col in candidates:
        for kept, basis in bases:
            if not any(_reduce(field, basis, [col[i] for i in kept])):
                break
        else:
            cols.append(col)
            if depth + 1 == len(groups):
                return list(cols)
            found = _dfs(field, r, groups, depth + 1, cols, _normalized(field.q, r))
            if found is not None:
                return found
            cols.pop()
    return None


def _run_search(n: int, r: int, q: int, workers: int, family, fields: dict):
    """First [P | I] code recovering every pattern of family(), or None.

    family() builds the masks of the family's full-length unions, which are
    cut to their r-entry supports and grouped once here for one serial scan;
    workers is validated only.
    """
    k = _json_int(n, "n") - r
    if k < 1:
        raise BadParameters(f"need n > {r} so that k >= 1, got n={n}")
    if _json_int(workers, "workers") < 1:
        raise BadParameters(f"need workers >= 1, got {workers}")
    if _json_int(q, "q") < 2:
        field_make(q)  # NotPrimePower, before q's power is read as a count
    rk = r * k
    # q >= 2, so q^(r*k) is over the cap once r*k reaches the cap's bit length
    if q ** min(rk, _SEARCH_CAP.bit_length()) > _SEARCH_CAP:
        # 4300 digits is the longest int that str() prints by default
        count = q ** rk if rk * math.log10(q) < 4300 else f"{q}^{rk}"
        raise TooLarge(f"q^(r*k) = {count} candidates exceed the search cap")
    field = field_make(q)  # validates q, including NotPrimePower
    groups = _prep_groups(n, r, _supports(n, [m for m in family() if m.bit_count() == r]))
    cols = _dfs(field, r, groups, 0, [], _zero_one(r))
    if cols is None:
        return None
    rows = [
        [cols[j][i] for j in range(k)] + [1 if t == i else 0 for t in range(r)]
        for i in range(r)
    ]
    return LinearCode(
        _matrix(field, rows), {"construction": "exhaustive_search", **fields, "q": q}
    )


def exhaustive_code_search(
    n: int, b1: int, b2: int, q: int, workers: int = 1
) -> LinearCode | None:
    """First [n, n-(b1+b2)] code over GF(q), in systematic [P | I] scan
    order, that recovers every two-burst pattern; None when none exists."""
    if _json_int(b1, "b1") < 1 or _json_int(b2, "b2") < 1:
        raise BadParameters(f"need b1, b2 >= 1, got b1={b1}, b2={b2}")
    family = functools.partial(_two_bursts, n, b1, b2, cover=True)
    fields = {"family": "two-burst", "n": n, "b1": b1, "b2": b2}
    return _run_search(n, b1 + b2, q, workers, family, fields)


def exhaustive_burst_random_search(
    n: int, b: int, e: int, q: int, workers: int = 1
) -> LinearCode | None:
    """First [n, n-(b+e)] code over GF(q), in systematic [P | I] scan order,
    that recovers every burst <= b plus <= e random erasures; None when none
    exists."""
    if _json_int(b, "b") < 1 or _json_int(e, "e") < 0:
        raise BadParameters(f"need b >= 1 and e >= 0, got b={b}, e={e}")
    family = functools.partial(_burst_plus_random, n, b, e, cover=True)
    fields = {"family": "burst-random", "n": n, "b": b, "e": e}
    return _run_search(n, b + e, q, workers, family, fields)
