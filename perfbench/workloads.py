"""The four workloads: seeded inputs, the operations, and their checks.

A workload hands out its operations in rounds. The timed loop runs whole
rounds until the measured time is used up, so every run measures the same
mix of operations whatever the machine's speed. Where one round cannot hold
every input, the inputs are sorted by expected cost and cut into strata of
neighbours, and a round draws one input from each stratum (each stratum is
walked in a seeded order without repeats before it starts over). A round then
costs about the same for every seed, which keeps the spread between seeds
small.

An operation is a tuple whose first item names its kind; ``run`` performs
it against erasurelab and ``record`` reduces the result to plain data, which
feeds both the output digest and ``check``. ``check`` compares a record with
the brute-force references in :mod:`oracle`, a ``mat_rank`` cross-check or
answers recorded earlier, never with the answer under test, and yields a
message for each mismatch.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

import oracle
from erasurelab import algebra, analysis, channel, cli, codes, streaming
from erasurelab.channel import ChannelParams
from erasurelab.streaming import StreamingParams

SEARCH_TABLE = Path(__file__).with_name("search_table.json")


def valid_channels(w_max: int) -> list[tuple[int, int, int, int]]:
    """Every (a, b, e, w) with b, e >= 1, a < b + e <= w - 1 and w <= w_max."""
    return [
        (a, b, e, w)
        for w in range(2, w_max + 1)
        for b in range(1, w)
        for e in range(1, w)
        if b + e <= w - 1
        for a in range(b + e)
    ]


def stratified_rounds(items, key, size: int, rng: random.Random):
    """Endless rounds drawing one item from each stratum of ``size``
    neighbours in ``key`` order; each round is shuffled."""
    ordered = sorted(items, key=key)
    strata = [ordered[i:i + size] for i in range(0, len(ordered), size)]
    orders = [rng.sample(s, len(s)) for s in strata]
    turn = 0
    while True:
        picks = [order[turn % len(order)] for order in orders]
        rng.shuffle(picks)
        yield picks
        turn += 1


def merged_rounds(streams, rng: random.Random):
    """Rounds made of one round of each stream, shuffled together."""
    for parts in zip(*streams):
        ops = [op for part in parts for op in part]
        rng.shuffle(ops)
        yield ops


def _report(rep) -> list:
    witness = None if rep.witness is None else list(rep.witness.support)
    return [rep.verdict, witness, rep.patterns_checked]


def _rank_deficient(h_rows, q: int, support) -> bool:
    """mat_rank cross-check: True iff the columns in support are dependent."""
    if not support:
        return False
    sub = algebra.Matrix(algebra.field_make(q), [[row[j] for j in support] for row in h_rows])
    return algebra.mat_rank(sub) < len(support)


class VerifyPass:
    """MDS codes on every channel with w <= 10, plus the two-burst
    construction sweep; every verdict passes, so whole families are walked."""

    name = "verify-pass"
    modules = ("erasurelab",)
    STRATUM = 8

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.sizes = {ch: oracle.admissible_count(*ch) for ch in valid_channels(10)}
        stream_ops = [
            ("mds", ch, StreamingParams(ChannelParams(*ch), ch[3] - 1))
            for ch in self.sizes
        ]
        burst_ops = [
            ("c1", (n, b1, b2))
            for b1 in range(1, 5)
            for b2 in range(1, b1 + 1)
            if b1 % b2 == 0
            for n in range(b1 + b2 + 1, 13)
        ]
        self._rounds = merged_rounds([
            stratified_rounds(stream_ops, lambda op: (op[1][3], self.sizes[op[1]]), self.STRATUM, rng),
            stratified_rounds(
                burst_ops, lambda op: (op[1][0], len(oracle.two_burst_family(*op[1]))), self.STRATUM, rng
            ),
        ], rng)
        self.fields = sorted(
            {algebra.smallest_prime_power_at_least(ch[3]) for ch in self.sizes}
            | {algebra.smallest_prime_power_at_least(-(-n // b1)) for _, (n, b1, _) in burst_ops}
        )
        self.shape = {
            "channels": len(stream_ops),
            "two_burst_points": len(burst_ops),
            "stratum_size": self.STRATUM,
            "ops_per_round": sum(-(-len(x) // self.STRATUM) for x in (stream_ops, burst_ops)),
        }

    def rounds(self):
        return self._rounds

    @staticmethod
    def run(op):
        if op[0] == "mds":
            (a, b, e, w), params = op[1], op[2]
            return streaming.verify_streaming_code(codes.mds_code(w, b + e), params)
        n, b1, b2 = op[1]
        code = codes.construction_one(n, b1, b2)
        two = channel.is_b1b2_code(code, b1, b2)
        wrap = channel.check_wraparound(code, b1, b2) if n % b1 == 0 else None
        return two, wrap, codes.min_distance(code)

    @staticmethod
    def record(op, out):
        if op[0] == "mds":
            return ["mds", list(op[1]), _report(out)]
        two, wrap, dist = out
        return ["c1", list(op[1]), _report(two), None if wrap is None else _report(wrap), dist]

    def check(self, rec):
        if rec[0] == "mds":
            expect = [True, None, self.sizes[tuple(rec[1])]]
            if rec[2] != expect:
                yield f"MDS verdict on {rec[1]}: {rec[2]} != {expect}"
            return
        _, (n, b1, b2), two, wrap, dist = rec
        expect = [True, None, len(oracle.two_burst_family(n, b1, b2))]
        if two != expect:
            yield f"two-burst verdict on {rec[1]}: {two} != {expect}"
        if n % b1 == 0:
            # every wrap-around verdict on this sweep passed when it was recorded
            expect = [True, None, len(oracle.two_burst_family(n, b1, b2, cyclic=True))]
            if wrap != expect:
                yield f"wrap-around verdict on {rec[1]}: {wrap} != {expect}"
        if dist != (3 if n > 2 * b1 else 4):
            yield f"min_distance on {rec[1]}: {dist}"


class VerifyFail:
    """Random systematic GF(3) codes with one information symbol more than
    the channel allows; every verdict fails after a few patterns."""

    name = "verify-fail"
    modules = ("erasurelab",)
    STRATUM = 20
    CODES_PER_CHANNEL = 20

    def __init__(self, seed: int, workdir: Path):
        self._rng = random.Random(seed)
        self.sizes = {ch: oracle.admissible_count(*ch) for ch in valid_channels(10)}
        self._channels = stratified_rounds(
            list(self.sizes), lambda ch: (ch[3], self.sizes[ch]), self.STRATUM, self._rng
        )
        self._f3 = algebra.field_make(3)
        self.fields = [3]
        per_round = -(-len(self.sizes) // self.STRATUM)
        self.shape = {
            "channels": len(self.sizes),
            "stratum_size": self.STRATUM,
            "codes_per_channel": self.CODES_PER_CHANNEL,
            "ops_per_round": per_round * self.CODES_PER_CHANNEL,
        }

    def rounds(self):
        rng = self._rng
        for chans in self._channels:
            ops = []
            for ch in chans:
                w, span = ch[3], ch[1] + ch[2]
                k, r = w - span + 1, span - 1
                params = StreamingParams(ChannelParams(*ch), w - 1)
                for _ in range(self.CODES_PER_CHANNEL):
                    rows = tuple(
                        tuple([rng.randrange(3) for _ in range(k)] + [int(t == i) for t in range(r)])
                        for i in range(r)
                    )
                    ops.append(("sampled", ch, params, rows))
            yield ops

    def run(self, op):
        code = codes.LinearCode(algebra.Matrix(self._f3, op[3]), {"construction": "sampled"})
        return streaming.verify_streaming_code(code, op[2])

    @staticmethod
    def record(op, out):
        return ["sampled", list(op[1]), [list(r) for r in op[3]], _report(out)]

    def check(self, rec):
        _, ch, rows, (verdict, witness, checked) = rec
        family = oracle.admissible_family(*ch)
        if verdict is not False or witness is None:
            yield f"converse code on {ch} did not fail: {rec[3]}"
            return
        witness = tuple(witness)
        if witness not in family:
            yield f"witness {witness} is not admissible on {ch}"
            return
        pos = family.index(witness)
        if checked != pos + 1:
            yield f"patterns_checked {checked} != {pos + 1} on {ch}"
        if not _rank_deficient(rows, 3, witness):
            yield f"witness {witness} is recoverable (mat_rank) on {ch}"
        if any(_rank_deficient(rows, 3, sup) for sup in family[:pos]):
            yield f"a pattern before witness {witness} is unrecoverable on {ch}"


class Search:
    """Serial smallest-field searches over a curated instance list (see
    README.md); hits and full scans that find nothing.

    Every round runs each instance that took at most CHEAP_S when the table
    was recorded, so the median latency sees the same instances in every run;
    the slower ones, which set the throughput, are drawn from strata.
    """

    name = "search"
    modules = ("erasurelab",)
    CHEAP_S = 0.05
    STRATUM = 3

    def __init__(self, seed: int, workdir: Path):
        kept = json.loads(SEARCH_TABLE.read_text())["kept"]
        self.expected = {tuple(item["instance"]): item["H"] for item in kept}
        seconds = {tuple(item["instance"]): item["seconds"] for item in kept}
        ops = [("search", inst) for inst in self.expected]
        cheap = [op for op in ops if seconds[op[1]] <= self.CHEAP_S]
        slow = [op for op in ops if seconds[op[1]] > self.CHEAP_S]
        rng = random.Random(seed)
        self._rounds = merged_rounds([
            stratified_rounds(cheap, lambda op: seconds[op[1]], 1, rng),
            stratified_rounds(slow, lambda op: seconds[op[1]], self.STRATUM, rng),
        ], rng)
        self.fields = sorted({inst[4] for inst in self.expected})
        self._verified: set = set()
        self.shape = {
            "instances": len(self.expected),
            "every_round": len(cheap),
            "stratum_size": self.STRATUM,
            "ops_per_round": len(cheap) + -(-len(slow) // self.STRATUM),
        }

    def rounds(self):
        return self._rounds

    @staticmethod
    def run(op):
        family, n, p1, p2, q = op[1]
        if family == "two-burst":
            return analysis.exhaustive_code_search(n, p1, p2, q, workers=1)
        return analysis.exhaustive_burst_random_search(n, p1, p2, q, workers=1)

    @staticmethod
    def record(op, out):
        return ["search", list(op[1]), None if out is None else [list(r) for r in out.h.data]]

    def check(self, rec):
        inst, h = tuple(rec[1]), rec[2]
        if h != self.expected[inst]:
            yield f"search {inst} returned {h}, recorded {self.expected[inst]}"
            return
        if h is None or inst in self._verified:
            return
        family, n, p1, p2, q = inst
        pats = (oracle.two_burst_family if family == "two-burst" else oracle.burst_random_family)(n, p1, p2)
        bad = [sup for sup in pats if _rank_deficient(h, q, sup)]
        if bad:
            yield f"search {inst} found H that cannot recover {bad[0]}"
        self._verified.add(inst)


class Stream:
    """``erasurelab simulate --format json`` through in-process ``cli.main``
    on MDS codes, with periodic and Gilbert-Elliott losses."""

    name = "stream"
    modules = ("erasurelab", "erasurelab.cli")
    # (a, b, e, w) channels; the code is mds_code(w, b + e) over GF(q >= w)
    CHANNELS = ((1, 2, 2, 9), (2, 3, 2, 9), (1, 2, 1, 8), (2, 3, 2, 7), (1, 2, 2, 10), (1, 1, 2, 5))
    SLOTS = 1000
    # p_gb, p_bg, loss_good, loss_bad: the example in the top-level README
    GE = (0.1, 0.5, 0.05, 0.8)

    def __init__(self, seed: int, workdir: Path):
        self._rng = random.Random(seed)
        self.paths = {}
        for a, b, e, w in self.CHANNELS:
            path = workdir / f"mds_{w}_{b + e}.json"
            if path not in self.paths.values():
                code = codes.mds_code(w, b + e)
                path.write_text(json.dumps(code.to_json(), indent=2, sort_keys=True) + "\n")
            self.paths[(a, b, e, w)] = path
        self.fields = sorted({algebra.smallest_prime_power_at_least(w) for *_, w in self.CHANNELS})
        self.shape = {
            "channels": len(self.CHANNELS),
            "slots_per_op": self.SLOTS,
            "ops_per_round": 2 * len(self.CHANNELS),
        }

    def rounds(self):
        rng = self._rng
        while True:
            ops = []
            for ch in self.CHANNELS:
                ops.append(("periodic", ch, self.SLOTS // ch[3], rng.randrange(1 << 30)))
                ops.append(("ge", ch, self.SLOTS, rng.randrange(1 << 30)))
            rng.shuffle(ops)
            yield ops

    def run(self, op):
        kind, (a, b, e, w), size, seed = op
        argv = ["simulate", "--format", "json", "--code", str(self.paths[op[1]]),
                "--a", str(a), "--b", str(b), "--e", str(e), "--w", str(w),
                "--seed", str(seed), "--source", kind]
        if kind == "periodic":
            argv += ["--periods", str(size)]
        else:
            argv += ["--slots", str(size)] + [
                f"--{flag}={p}" for flag, p in zip(("p-gb", "p-bg", "p-loss-good", "p-loss-bad"), self.GE)
            ]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        return rc, buf.getvalue()

    @staticmethod
    def record(op, out):
        rc, text = out
        return [op[0], list(op[1]), op[2], op[3], rc, json.loads(text).get("result"), len(text.encode())]

    def check(self, rec):
        kind, (a, b, e, w), size, seed, rc, result, _ = rec
        if kind == "periodic":
            slots, losses = size * w, oracle.periodic_losses(b, e, w, size)
        else:
            slots, losses = size, oracle.gilbert_elliott_losses(*self.GE, size, seed)
        bad = oracle.inadmissible_windows(losses, slots, a, b, e, w)
        if result is None:
            yield f"simulate {rec[:4]} printed no result (exit {rc})"
            return
        want = {"slots": slots, "admissible": bad == 0, "windows_inadmissible": bad, "seed": seed}
        got = {k: result.get(k) for k in want}
        if got != want:
            yield f"simulate {rec[:4]} summary {got} != {want}"
        lost = result.get("messages_failed", 0) + result.get("deadline_misses", 0)
        if bad == 0 and lost:
            yield f"simulate {rec[:4]} lost messages on an admissible stream"
        if rc != (1 if lost else 0):
            yield f"simulate {rec[:4]} exit code {rc} with {lost} losses"


def cli_output_bytes(records) -> int:
    """Bytes printed by the CLI across stream records (0 elsewhere)."""
    return sum(rec[6] for rec in records if rec[0] in ("periodic", "ge"))


WORKLOADS = {cls.name: cls for cls in (VerifyPass, VerifyFail, Search, Stream)}
