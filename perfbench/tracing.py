"""Per-layer tracing from outside the package.

Each traced public function is wrapped and the wrapper is bound in place of
the original under every name that any loaded ``erasurelab`` module holds for
it, so calls from private callers (``_verify_family``, ``_dfs``, ...) are
counted under the right parent too. A wrapper keeps one frame on a stack
while its function runs; the frame collects the time of the spans nested in
it, and the function's self time is its duration minus that.

Field arithmetic is counted by class-level wrappers on ``Field`` that only
aggregate: no frame per call, just a count and a time that is charged to the
enclosing span as child time.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# (module, function, span name); every function of one span name is one layer
# boundary, e.g. the four constructions are all "codes.construct".
SPANS = (
    ("algebra", "vectors_independent", "algebra.vectors_independent"),
    ("algebra", "solve_for_columns", "algebra.solve_for_columns"),
    ("codes", "mds_code", "codes.construct"),
    ("codes", "construction_one", "codes.construct"),
    ("codes", "construction_one_binary", "codes.construct"),
    ("codes", "cyclic_from_h", "codes.construct"),
    ("codes", "min_distance", "codes.min_distance"),
    ("channel", "enumerate_admissible_windows", "channel.enumerate"),
    ("channel", "enumerate_b1b2_patterns", "channel.enumerate"),
    ("channel", "enumerate_burst_plus_random", "channel.enumerate"),
    ("channel", "can_recover", "channel.can_recover"),
    ("channel", "is_b1b2_code", "channel.family_verify"),
    ("channel", "check_wraparound", "channel.family_verify"),
    ("channel", "decode_erasures", "channel.decode_erasures"),
    ("streaming", "verify_streaming_code", "streaming.verify"),
    ("streaming", "de_encode", "streaming.de_encode"),
    ("streaming", "de_decode", "streaming.de_decode"),
    ("streaming", "simulate", "streaming.simulate"),
    ("analysis", "exhaustive_code_search", "analysis.search"),
    ("analysis", "exhaustive_burst_random_search", "analysis.search"),
    ("cli", "main", "cli.main"),
)


class Tracer:
    """Installs the wrappers on enter and restores the originals on exit."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        # [child seconds, span name, patterns enumerated by direct children];
        # the bottom frame stands for the caller
        self._stack = [[0.0, None, 0]]
        # mul calls, add/sub/neg calls, seconds
        self._field = [0, 0, 0.0]
        self._undo: list = []

    # -- installation ---------------------------------------------------

    def __enter__(self):
        mods = [m for name, m in sys.modules.items() if name.split(".")[0] == "erasurelab"]
        for modname, fname, span in SPANS:
            orig = getattr(sys.modules[f"erasurelab.{modname}"], fname)
            wrapper = self._span_wrapper(orig, span)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._undo.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)
        field_cls = sys.modules["erasurelab.algebra"].Field
        for meth, slot in (("mul", 0), ("add", 1), ("sub", 1), ("neg", 1)):
            orig = vars(field_cls)[meth]
            self._undo.append((field_cls, meth, orig))
            setattr(field_cls, meth, self._field_wrapper(orig, slot, meth == "neg"))
        return self

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()
        return False

    def _span_wrapper(self, fn, span):
        stack, perf = self._stack, time.perf_counter
        on_result = getattr(self, "_after_" + span.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            frame = [0.0, span, 0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                stack[-1][0] += dt
                self.self_s[span] += dt - frame[0]
                self.calls[span] += 1
            if on_result is not None:
                on_result(result, frame, stack[-1])
            return result

        return wrapper

    def _field_wrapper(self, fn, slot, unary):
        stack, acc, perf = self._stack, self._field, time.perf_counter
        if unary:
            def wrapper(fld, a):
                t0 = perf()
                r = fn(fld, a)
                dt = perf() - t0
                stack[-1][0] += dt
                acc[slot] += 1
                acc[2] += dt
                return r
        else:
            def wrapper(fld, a, b):
                t0 = perf()
                r = fn(fld, a, b)
                dt = perf() - t0
                stack[-1][0] += dt
                acc[slot] += 1
                acc[2] += dt
                return r
        return wrapper

    # -- work counters taken from results ---------------------------------

    def _after_algebra_vectors_independent(self, result, frame, parent):
        self.counts["vi_true"] += bool(result)
        if parent[1] == "analysis.search":
            self.counts["vi_in_search"] += 1

    def _after_channel_enumerate(self, result, frame, parent):
        self.counts["patterns_generated"] += len(result)
        parent[2] += len(result)

    def _after_streaming_verify(self, result, frame, parent):
        # only verifiers fed by an enumerate_* call enter check_ratio
        # (check_wraparound builds its family inline)
        if frame[2]:
            self.counts["patterns_checked"] += result.patterns_checked
            self.counts["patterns_for_verifiers"] += frame[2]

    _after_channel_family_verify = _after_streaming_verify

    def _after_channel_decode_erasures(self, result, frame, parent):
        if parent[1] == "streaming.de_decode":
            self.counts["diagonals_decoded"] += 1

    def _after_streaming_de_encode(self, result, frame, parent):
        self.counts["slots_encoded"] += len(result.packets)

    def _after_analysis_search(self, result, frame, parent):
        self.counts["search_found"] += result is not None

    # -- report ----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}; a ratio with no base is 0."""

        def ratio(num, den):
            return num / den if den else 0.0

        c, s, k = self.calls, self.self_s, self.counts
        out = {
            "algebra.field_mul_calls": (self._field[0], "count"),
            "algebra.field_addsub_calls": (self._field[1], "count"),
            "algebra.field_self_s": (self._field[2], "s"),
        }
        for span in ("algebra.vectors_independent", "algebra.solve_for_columns",
                     "codes.construct", "codes.min_distance", "channel.enumerate"):
            out[span + "_calls"] = (c[span], "count")
            out[span + "_self_s"] = (s[span], "s")
        out["algebra.independent_ratio"] = (
            ratio(k["vi_true"], c["algebra.vectors_independent"]), "ratio")
        out["channel.patterns_generated"] = (k["patterns_generated"], "count")
        out["channel.check_ratio"] = (
            ratio(k["patterns_checked"], k["patterns_for_verifiers"]), "ratio")
        out["channel.can_recover_calls"] = (c["channel.can_recover"], "count")
        out["channel.can_recover_self_s"] = (s["channel.can_recover"], "s")
        out["channel.family_verify_self_s"] = (s["channel.family_verify"], "s")
        out["channel.decode_erasures_calls"] = (c["channel.decode_erasures"], "count")
        out["channel.decode_erasures_self_s"] = (s["channel.decode_erasures"], "s")
        out["streaming.verify_self_s"] = (s["streaming.verify"], "s")
        out["streaming.de_encode_self_s"] = (s["streaming.de_encode"], "s")
        out["streaming.slots_encoded"] = (k["slots_encoded"], "count")
        out["streaming.de_decode_self_s"] = (s["streaming.de_decode"], "s")
        out["streaming.diagonals_decoded"] = (k["diagonals_decoded"], "count")
        out["streaming.simulate_self_s"] = (s["streaming.simulate"], "s")
        out["analysis.search_calls"] = (c["analysis.search"], "count")
        out["analysis.search_self_s"] = (s["analysis.search"], "s")
        out["analysis.vi_calls_per_search"] = (
            ratio(k["vi_in_search"], c["analysis.search"]), "count")
        out["analysis.search_found_ratio"] = (
            ratio(k["search_found"], c["analysis.search"]), "ratio")
        out["cli.main_calls"] = (c["cli.main"], "count")
        out["cli.main_self_s"] = (s["cli.main"], "s")
        return out
