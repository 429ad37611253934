"""One pass of the softbitop benchmark, in a process of its own.

Sets up a workload (interpreter start, `import softbitop` from the
checkout's src/, input generation, the 3x2 candidate pool for
search-census), then runs every operation of the workload once in a
closed loop from one thread: each operation starts after the previous one
returns, and a short fixed calibration chunk runs before each, outside
its timing, to gauge the host's speed during the pass.  Every output is
checked against the pinned references.  Each
pass is a fresh process, so no cache the program keeps between calls
survives from one repetition of an operation to the next, as for a user
who runs one command per process.  The last line of stdout is a JSON
object for run.py.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 \
        --pass-no K --time-left S --t0 MONOTONIC
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import signal
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import spans  # noqa: E402

REFERENCES = HERE / "references.json"
PAIRS = HERE / "pairs.json"
OUT = HERE / "out"
GOLDENS = {
    "search-2x2": ROOT / "tests" / "goldens" / "search_2_2.txt",
    "examples": ROOT / "tests" / "goldens" / "examples.txt",
}
# One calibration chunk, run before every operation (see
# calibration_chunk): 0.5 to 0.8 ms on a 2-vCPU host.
CALIBRATION_ROUNDS = range(24)
POPCOUNT_ARGS = range(256)
POPCOUNT = [bin(x).count("1") for x in POPCOUNT_ARGS]
CALIBRATION_CHECK = 153
# An operation running longer than this fails (the 16-SE check left out
# in README.md would).
OP_DEADLINE_S = 60.0


class BenchError(Exception):
    """The benchmark cannot run here (no program, drifted inputs)."""


class Overrun(Exception):
    """An operation passed its deadline."""


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import softbitop
        import softbitop.cli
    except ImportError as exc:
        raise BenchError(f"cannot import softbitop from {src}: {exc}") from exc
    if Path(softbitop.__file__).resolve().parent != src / "softbitop":
        raise BenchError(f"softbitop was imported from {softbitop.__file__}, not {src}")
    return softbitop


@dataclass
class Operation:
    id: str
    call: Callable[[], tuple[int, object]]  # the timed part: exit code, raw result
    render: Callable[[object], str]  # canonical text of the raw result
    golden: Optional[str] = None  # the raw result must also equal this text


def cli_call(prog, argv: list[str], stdin: Optional[str]) -> Callable:
    def call():
        saved = sys.stdin, sys.stdout, sys.stderr
        out = io.StringIO()
        sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin or ""), out, io.StringIO()
        try:
            code = prog.cli.main(argv)
        finally:
            sys.stdin, sys.stdout, sys.stderr = saved
        return code, out.getvalue()

    return call


def pair_call(prog, ambient, tau1, tau2) -> Callable:
    """Class (i) for one pair, decided as search_counterexamples does."""

    def call():
        pw = prog.pairwise
        space = pw.SoftBitopSpace(ambient, tau1, tau2)
        if pw.pairwise_soft_t0(space).holds:
            return 0, (True, None)
        return 0, (False, prog.finsets.pairwise_t2(pw.induced_bitop(space))[0])

    return call


def render_pair(raw) -> str:
    t0, t2 = raw
    return "soft-t0=true" if t0 else f"soft-t0=false induced-t2={str(t2).lower()}"


def candidate_pool(prog) -> dict[tuple[int, ...], object]:
    """The 3x2 pool of candidate soft topologies, keyed by its opens."""
    pool = prog.pairwise.candidate_soft_topologies(inputs.PAIR_POINTS, 2)
    return {tuple(sorted(inputs.pair_code(h.key) for h in tau.opens)): tau for tau in pool}


class Setup:
    """Builds runnable operations from generated inputs."""

    def __init__(self, prog):
        self.prog = prog
        self._discrete: dict[int, object] = {}
        self._pool: Optional[dict] = None

    def pool(self) -> dict:
        if self._pool is None:
            self._pool = candidate_pool(self.prog)
        return self._pool

    def discrete_space(self, n: int):
        """Two copies of the discrete canonical soft topology on n points x 2
        parameters; every soft subset is open, so any tag is valid."""
        if n not in self._discrete:
            p = self.prog
            ambient = p.SoftSet.of([range(n)] * 2, n)
            full = p.FinSet.full(n)
            disc = p.ClassicalTopology(n, full, tuple(p.FinSet(n, m) for m in range(1 << n)))
            tau = p.canonical_topology(ambient, [disc, disc])
            tau.contains(ambient)  # fill the membership index once, as a long-lived caller would
            self._discrete[n] = p.SoftBitopSpace(ambient, tau, tau)
        return self._discrete[n]

    def operation(self, op: dict) -> Operation:
        p = self.prog
        kind = op["kind"]
        if kind == "cli":
            names = op["names"]
            golden = None
            if op["id"] in GOLDENS:
                golden = GOLDENS[op["id"]].read_text(encoding="utf-8")
            return Operation(
                op["id"],
                cli_call(p, op["argv"], op["stdin"]),
                lambda raw: inputs.normalise(raw, names),
                golden,
            )
        if kind == "pair":
            pool = self.pool()
            tau1, tau2 = pool[tuple(op["tau1"])], pool[tuple(op["tau2"])]
            return Operation(op["id"], pair_call(p, tau1.ambient, tau1, tau2), render_pair)
        n = op["n"]
        if kind == "soft-cover":
            space = self.discrete_space(n)
            members = tuple(
                (p.SoftSet((p.FinSet(n, a), p.FinSet(n, b))), tag) for a, b, tag in op["members"]
            )
            cover = p.SoftCover(space, space.soft_set, members)

            def render(raw):
                return " ".join(
                    f"{h.sections[0].mask}:{h.sections[1].mask}:{tag}" for h, tag in raw
                )

            return Operation(op["id"], lambda: (0, p.pairwise.find_finite_subcover(cover)), render)
        if kind == "set-cover":
            sets = [p.FinSet(n, m) for m in op["members"]]
            target = p.FinSet.full(n)
            return Operation(
                op["id"],
                lambda: (0, p.finsets.minimal_subcover(sets, target)),
                lambda raw: " ".join(str(s.mask) for s in raw),
            )
        at_index, default = op["template"]
        explicit = tuple(
            p.CofiniteSoftSet.make(n, p.FinSet(n, d), {t: p.FinSet(n, m) for t, m in exc})
            for d, exc in op["explicit"]
        )
        family = p.TemplateFamily(n, (p.FinSet(n, at_index), p.FinSet(n, default)), explicit)
        target = p.CofiniteSoftSet.make(n, p.FinSet(n, op["target"]))

        def cofinite(s) -> str:
            exc = ",".join(f"{t}={m.mask}" for t, m in s.exceptions)
            return f"{s.default_section.mask}[{exc}]"

        def render(raw):
            witness = "none" if raw.witness is None else " ".join(map(cofinite, raw.witness))
            return f"holds={raw.holds} generic={raw.generic_union.mask} witness={witness}"

        return Operation(
            op["id"], lambda: (0, p.symbolic.decide_finite_subcover(family, target)), render
        )


def load_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def prepare(prog, workload: str, seed: Optional[int], references: Optional[dict]) -> list[Operation]:
    """Generate the workload's inputs and build its operations.

    With references, every generated input must match its pinned digest,
    so a changed generator cannot silently change the benchmark.
    """
    pairs = load_json(PAIRS) if workload == "search-census" else []
    ops = inputs.build(workload, seed, pairs)
    if references is not None:
        pinned = references[workload]
        for op in ops:
            ref = pinned.get(op["id"])
            if ref is None or ref["input"] != sha(op["canonical"]):
                raise BenchError(f"input {op['id']} differs from the pinned catalogue")
    setup = Setup(prog)
    return [setup.operation(op) for op in ops]


def calibration_chunk() -> float:
    """Time one fixed piece of pure-Python work that uses no softbitop code.

    Interpreter work of the kinds the program's kernels do (integer bit
    operations, list lookups, comparisons, loops), so the host's
    other tenants slow it about as much as they slow an operation run next
    to it.  Every value stays below 256, a preallocated small int, so the
    chunk allocates no objects and the program's heap does not change its
    cost.
    """
    t = time.perf_counter()
    acc = 0
    for _ in CALIBRATION_ROUNDS:
        for m in POPCOUNT_ARGS:
            x = m ^ (m >> 1)
            c = POPCOUNT[x]
            if c > POPCOUNT[acc]:
                acc = (acc + x) & 255
            else:
                acc = (acc ^ c) & 255
    elapsed = time.perf_counter() - t
    if acc != CALIBRATION_CHECK:
        raise BenchError("calibration work gave the wrong result")
    return elapsed


def _alarm(signum, frame):
    raise Overrun()


def run_pass(ops, references, tracer, hard_end: float, pass_no: int) -> dict:
    """Run every operation once, each after a calibration chunk; return the
    pass time, per-operation latencies, the calibration time and failures."""
    latencies: list[Optional[float]] = []
    failures: list[str] = []
    calibration = []
    start = time.perf_counter()
    for k, op in enumerate(ops):
        calibration.append(calibration_chunk())
        budget = min(OP_DEADLINE_S, hard_end - time.monotonic())
        if budget <= 0:
            latencies.append(None)
            failures.append(f"{op.id}: not started before the run's hard limit")
            continue
        signal.setitimer(signal.ITIMER_REAL, budget)
        t = time.perf_counter()
        try:
            if tracer is None:
                code, raw = op.call()
            else:
                with tracer.root((pass_no, k)):
                    code, raw = op.call()
            error = None
        except Overrun:
            error = f"overran its {budget:.0f} s deadline"
        except Exception as exc:  # any raise is a failed operation, reported by name
            error = f"raised {type(exc).__name__}: {exc}"
        finally:
            latency = time.perf_counter() - t
            signal.setitimer(signal.ITIMER_REAL, 0)
        latencies.append(latency)
        if error is None:
            error = check(op, code, raw, references[op.id])
        if error is not None:
            failures.append(f"{op.id}: {error}")
    return {
        "time": time.perf_counter() - start,
        "latencies": latencies,
        "calibration": calibration,
        "failures": failures,
    }


def check(op: Operation, code: int, raw, ref: dict) -> Optional[str]:
    """None when the output matches its reference, else what differs."""
    if code != ref["exit"]:
        return f"exit code {code}, expected {ref['exit']}"
    if sha(op.render(raw)) != ref["output"]:
        return "output differs from the pinned reference"
    if op.golden is not None and raw != op.golden:
        return "output differs from the golden file"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pass-no", type=int, default=0)
    parser.add_argument(
        "--time-left", type=float, required=True, help="seconds after --t0 to start no operation"
    )
    parser.add_argument("--t0", type=float, required=True, help="monotonic time of process spawn")
    args = parser.parse_args(argv)
    hard_end = args.t0 + args.time_left
    try:
        prog = load_program()
        references = load_json(REFERENCES)
        ops = prepare(prog, args.workload, args.seed, references)
    except (BenchError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    setup_s = time.monotonic() - args.t0
    signal.signal(signal.SIGALRM, _alarm)
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install(prog)
    try:
        result = run_pass(ops, references[args.workload], tracer, hard_end, args.pass_no)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result.update(
        ids=[op.id for op in ops],
        setup_s=setup_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer is not None:
        result["self_times"] = spans.self_times(tracer.spans)
        result["counters"] = dict(tracer.counters)
        OUT.mkdir(exist_ok=True)
        spans.append_spans(OUT / f"spans-{args.workload}.jsonl", tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
