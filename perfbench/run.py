"""The softbitop benchmark: one command, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout.  For about S seconds it starts one
workload process after another; each sets the workload up, runs every
operation once and checks every output (perfbench/worker.py).  It prints
every metric by name and unit, then, as the last line, one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the run spends half its time on
traced passes and the metrics are the per-layer ones.

Every time is scaled to a fixed host speed: each pass times a fixed
calibration chunk before every operation (worker.calibration_chunk), and
its times are multiplied by REFERENCE_CHUNK_S over the pass's mean chunk
time.  The host's other tenants slow a process by up to two thirds, in
spells of seconds to minutes; the chunk slows with it, so the scaled times
move much less between runs than the raw ones, while a change to the
program moves them as much as it moves the raw times.  The raw figures are
printed too.

Exit code 0 when a result is printed, 1 when the benchmark cannot run
(for instance without the program's sources next to it), 2 on bad usage.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

WORKER = HERE / "worker.py"
# Everything, set-ups included, ends within this many seconds.
RUN_LIMIT_S = 175.0
# Scaled times are in seconds at a host speed where one calibration chunk
# takes this long; a round figure (between operations on a 2-vCPU host the
# chunk takes 0.5 to 0.8 ms, so scaled times read above the raw ones).
REFERENCE_CHUNK_S = 0.001
# Every run prints these; failed_share is printed but not in the JSON
# because on a correct program it is always 0.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("peak_rss_mb", "MB"),
)


class RunError(Exception):
    pass


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count).  The value is the sample
    with exactly ten larger-ranked samples, at percentile 100 * (n-10)/n.
    With ten samples or fewer no percentile qualifies and the maximum is
    returned, at percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def spawn(args: list[str], deadline: float) -> dict:
    """Run one worker process to completion and parse its last line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError("no time left for the next process")
    t0 = time.monotonic()
    # -E -S: neither PYTHON* environment variables nor the host's
    # site-packages hooks shape the figures; the worker needs only the
    # standard library and the checkout's src/.
    cmd = [sys.executable, "-E", "-S", str(WORKER), *args]
    cmd += ["--time-left", repr(timeout - 5), "--t0", repr(t0)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"worker did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise RunError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RunError("worker printed no result")
    result = json.loads(lines[-1])
    result["process_s"] = time.monotonic() - t0
    return result


def host() -> str:
    return (
        f"host: python={platform.python_version()} nproc={os.cpu_count()} "
        f"platform={platform.platform()}"
    )


def run_phase(common: list[str], budget_s: float, deadline: float, first: int) -> list[dict]:
    """Passes, each in a new worker process, while the next one is expected
    to end within budget_s; at least one."""
    passes: list[dict] = []
    start = time.monotonic()
    while True:
        passes.append(spawn(common + ["--pass-no", str(first + len(passes))], deadline))
        typical = statistics.median(p["process_s"] for p in passes)
        now = time.monotonic()
        if now - start + typical > budget_s or now + typical > deadline:
            return passes


def speed_scale(p: dict) -> float:
    """The factor that scales a pass's times to the reference host speed."""
    return REFERENCE_CHUNK_S / statistics.mean(p["calibration"])


def typical(passes: list[dict], scaled: bool = True) -> list[float]:
    """Each operation's latency: the mean of its repetitions over the passes,
    each scaled to the reference host speed unless scaled is False.

    Every repetition runs in a fresh process, so none reuses a cache filled
    by an earlier one.  The mean, rather than the fastest or the median
    repetition, moves only in proportion to the share of the run that slow
    spells fill, which made it the steadiest of the three between runs.
    """
    per_op: dict[str, list[float]] = {}
    for p in passes:
        scale = speed_scale(p) if scaled else 1.0
        for op_id, latency in zip(p["ids"], p["latencies"]):
            if latency is not None:
                per_op.setdefault(op_id, []).append(latency * scale)
    return [statistics.mean(lat) for lat in per_op.values()]


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    common = ["--workload", workload, "--seed", str(seed)]
    untraced = run_phase(common + ["--trace", "0"], seconds / 2 if trace else seconds, deadline, 0)
    latencies = typical(untraced)
    passes = list(untraced)
    result = {"op_latencies": latencies, "untraced": untraced}
    if trace:
        spans_file = worker.OUT / f"spans-{workload}.jsonl"
        spans_file.unlink(missing_ok=True)
        traced = run_phase(common + ["--trace", "1"], seconds / 2, deadline, len(untraced))
        passes += traced
        # Traced minus untraced wall_s, both sums of per-operation latencies.
        overhead = sum(typical(traced)) - sum(latencies)
        counters: Counter = Counter()
        for p in traced:
            counters.update(p["counters"])
        table = spans.merge(
            {name: [calls, self_s * speed_scale(p), errors]
             for name, (calls, self_s, errors) in p["self_times"].items()}
            for p in traced
        )
        result["layers"] = spans.layer_metrics(table, counters, len(traced), overhead)
        result["traced_passes"] = len(traced)
    failures = [f for p in passes for f in p["failures"]]
    result.update(
        setups=[p["setup_s"] * speed_scale(p) for p in passes],
        raw_setups=[p["setup_s"] for p in passes],
        raw_wall_s=sum(typical(untraced, scaled=False)),
        chunk_s=statistics.median(c for p in untraced for c in p["calibration"]),
        peak_rss_mb=statistics.median(p["peak_rss_mb"] for p in untraced),
        attempted=sum(len(p["latencies"]) for p in passes),
        failed=len(failures),
        failures=failures[:10],
        ops_per_pass=len(untraced[0]["ids"]),
    )
    return result


def report(workload: str, seed: int, seconds: float, trace: bool, r: dict) -> dict:
    """Print the human-readable lines; return the JSON result."""
    print(host())
    print(
        f"workload: {workload} seed={seed} seconds={seconds:g} trace={int(trace)} "
        f"ops/pass={r['ops_per_pass']} untraced passes={len(r['untraced'])}"
    )
    latencies = r["op_latencies"]
    value, pct, n = tail(latencies)
    e2e = {
        "setup_s": statistics.median(r["setups"]),
        "wall_s": sum(latencies),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": value,
        "peak_rss_mb": r["peak_rss_mb"],
    }
    notes = {
        "setup_s": f"median of {len(r['setups'])} set-ups, one per pass; "
        f"unscaled {statistics.median(r['raw_setups']):.6g} s",
        "wall_s": f"sum of {n} per-operation latencies; unscaled {r['raw_wall_s']:.6g} s; "
        f"median pass took {statistics.median(p['time'] for p in r['untraced']):.6g} s "
        "unscaled, with calibration and output checks",
        "latency_p50_s": f"median of {n} per-operation latencies",
        "latency_tail_s": f"p{pct:.1f} of {n} per-operation latencies"
        + (" (ten or fewer: maximum)" if n <= 10 else ""),
        "peak_rss_mb": "median over the untraced pass processes",
    }
    print(
        f"host speed: median calibration chunk {r['chunk_s'] * 1e3:.4g} ms, "
        f"reference {REFERENCE_CHUNK_S * 1e3:g} ms; times below are scaled to the reference"
    )
    for name, unit in END_TO_END:
        print(f"{name} = {e2e[name]:.6g} {unit}  ({notes[name]})")
    share = r["failed"] / r["attempted"]
    print(f"failed_share = {share:.6g}  ({r['failed']} of {r['attempted']} operations)")
    for failure in r["failures"]:
        print(f"  FAILED {failure}")
    if trace:
        layers = r["layers"]
        print(f"traced passes={r['traced_passes']}; per-layer metrics per pass:")
        for name in sorted(layers):
            print(f"  {name} = {layers[name]['value']:.6g} {layers[name]['unit']}")
        metrics = layers
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    return {
        "correct": r["failed"] == 0,
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="softbitop benchmark")
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        r = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RunError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    result = report(args.workload, args.seed, args.seconds, bool(args.trace), r)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
