"""Pin the benchmark's reference outputs.

    python3 perfbench/pin.py [--draw-pairs]

Runs every catalogue operation once in canonical form (canonical names,
catalogue order) and writes perfbench/references.json: for each
operation the digest of its canonical input, its exit code and the digest
of its canonical output.  --draw-pairs first redraws perfbench/pairs.json,
the pinned sample of ordered pairs from the 3x2 candidate pool.

Re-pin only on a commit whose outputs are known to be right: every later
run compares against these references.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import inputs
import worker


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--draw-pairs", action="store_true")
    args = parser.parse_args(argv)
    prog = worker.load_program()
    if args.draw_pairs:
        pool = prog.pairwise.candidate_soft_topologies(inputs.PAIR_POINTS, 2)
        codes = [sorted(inputs.pair_code(h.key) for h in tau.opens) for tau in pool]
        worker.PAIRS.write_text(json.dumps(inputs.draw_pairs(codes)) + "\n", encoding="utf-8")
    pairs = worker.load_json(worker.PAIRS)
    references = {}
    for workload in inputs.WORKLOADS:
        specs = inputs.build(workload, None, pairs)
        ops = worker.prepare(prog, workload, None, None)
        pinned = {}
        start = time.perf_counter()
        for spec, op in zip(specs, ops):
            t = time.perf_counter()
            code, raw = op.call()
            took = time.perf_counter() - t
            if op.golden is not None and raw != op.golden:
                print(f"{op.id}: differs from its golden file", file=sys.stderr)
                return 1
            text = op.render(raw)
            pinned[op.id] = {
                "input": worker.sha(spec["canonical"]),
                "exit": code,
                "output": worker.sha(text),
            }
            print(f"{workload} {op.id} exit={code} {took:.3f}s {text[:60]}")
        references[workload] = pinned
        print(f"{workload}: {len(ops)} operations, {time.perf_counter() - start:.2f}s")
    worker.REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
