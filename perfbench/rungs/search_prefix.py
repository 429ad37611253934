"""Time a prefix of the real `search --max-universe 3 --max-params 2`.

    python3 perfbench/rungs/search_prefix.py [--seconds 120]

Runs `search_counterexamples(3, 2)` from the checkout's src/ (the code
path of the CLI command, with its per-pool induced-topology cache) and
stops it once the 3x2 stage has run for the given seconds.  Prints how
many of the 870 x 870 ordered 3x2 pairs it decided, the rate, and the
time the whole search would take at that rate.  Rows of the pool differ
in cost, so the estimate is an extrapolation from the first rows.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

import softbitop.pairwise as pw  # noqa: E402


class Stop(Exception):
    pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=120.0)
    args = parser.parse_args(argv)
    original = pw.pairwise_soft_t0
    state = {"pairs": 0, "start": None, "end": None}

    def counting(space):
        sections = space.soft_set.sections
        if len(sections) == 2 and sections[0].universe_size == 3:
            now = time.perf_counter()
            if state["start"] is None:
                state["start"] = now
            elif now - state["start"] > args.seconds:
                state["end"] = now
                raise Stop
            state["pairs"] += 1
        return original(space)

    pw.pairwise_soft_t0 = counting
    begin = time.perf_counter()
    try:
        pw.search_counterexamples(3, 2)
        state["end"] = time.perf_counter()
    except Stop:
        pass
    finally:
        pw.pairwise_soft_t0 = original
    total = 870 * 870
    pool_s = state["start"] - begin
    print(f"stages before the 3x2 pairs, with the 3x2 pool: {pool_s:.1f} s")
    took = state["end"] - state["start"]
    print(f"3x2 pairs decided: {state['pairs']} of {total} in {took:.1f} s")
    rate = state["pairs"] / took
    print(f"rate: {rate:.1f} pairs/s; whole search about {(pool_s + total / rate) / 3600:.2f} h")
    return 0


if __name__ == "__main__":
    sys.exit(main())
