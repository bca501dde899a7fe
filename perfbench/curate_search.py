"""Rebuild search_table.json, the instance list of the search workload.

    python3 perfbench/curate_search.py

The grid is every two-burst (n, b1, b2, q) with b1 >= b2 and every
burst-random (n, b, e, q), for n <= 8, k = n - (b1 + b2) or n - (b + e) at
least 1, q in {2, 3, 4, 5, 7, 8, 9}, and q^(r*k) within the search cap.
Each instance is searched once, serially, with a wall-clock limit. Instances
that finish within KEEP_S are kept with their time and the H they found (None
when the full scan finds nothing); the rest are listed as excluded, with
their time, or None when they ran past LIMIT_S.

Run it on the tree whose answers the benchmark should hold every later tree
to: the kept H's are the expected outputs.
"""

from __future__ import annotations

import json
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from erasurelab.analysis import (  # noqa: E402
    _SEARCH_CAP,
    exhaustive_burst_random_search,
    exhaustive_code_search,
)

FIELDS = (2, 3, 4, 5, 7, 8, 9)
KEEP_S = 1.0
LIMIT_S = 5.0


def grid():
    for n in range(2, 9):
        for p1 in range(1, n):
            for p2 in range(1, n):
                r = p1 + p2
                k = n - r
                if k < 1:
                    continue
                for q in FIELDS:
                    if q ** (r * k) > _SEARCH_CAP:
                        continue
                    if p2 <= p1:
                        yield ("two-burst", n, p1, p2, q)
                    yield ("burst-random", n, p1, p2, q)


class _TimeUp(Exception):
    pass


def _alarm(signum, frame):
    raise _TimeUp


def main() -> None:
    signal.signal(signal.SIGALRM, _alarm)
    kept, excluded = [], []
    for inst in grid():
        family, n, p1, p2, q = inst
        search = exhaustive_code_search if family == "two-burst" else exhaustive_burst_random_search
        signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
        t0 = time.perf_counter()
        try:
            code = search(n, p1, p2, q, workers=1)
        except _TimeUp:
            excluded.append({"instance": list(inst), "seconds": None})
            continue
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - t0
        if seconds > KEEP_S:
            excluded.append({"instance": list(inst), "seconds": round(seconds, 3)})
            continue
        h = None if code is None else [list(row) for row in code.h.data]
        kept.append({"instance": list(inst), "seconds": round(seconds, 4), "H": h})
    table = {
        "rule": f"grid instances whose serial search took at most {KEEP_S} s; "
        f"searches past {LIMIT_S} s were stopped",
        "kept": kept,
        "excluded": excluded,
    }
    # one instance per line keeps the file readable and its diffs small
    text = json.dumps(table, separators=(",", ":"))
    text = text.replace('{"instance"', '\n {"instance"').replace("]}]", "]}\n]")
    (HERE / "search_table.json").write_text(text + "\n")
    print(f"kept {len(kept)}, excluded {len(excluded)}")


if __name__ == "__main__":
    main()
