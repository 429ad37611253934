"""Command-line front end.

Subcommands: check, verify, examples, search.  Input spaces are single
JSON documents (see README for the schema); reports go to stdout and are
byte-deterministic, timing goes to stderr.

Exit codes: 0 ran, 1 theorem/golden failure, 2 input error, 3 capacity.
"""

from __future__ import annotations

import json
import re
import sys
import time
from collections.abc import Sequence
from itertools import islice
from math import prod
from types import SimpleNamespace

from .errors import CapacityError, InputError, NoSoftElementsError, SoftBitopError
from .finsets import FinSet, Value, generate_topology
# Not called here: the benchmark's tracer test (perfbench/tests) reads
# pairwise_t2 from this module, as a name bound by `from .finsets import`.
from .finsets import pairwise_t2  # noqa: F401
from .pairwise import SoftBitopSpace, search_counterexamples, verify_theorems
from .scenarios import run_all
from .softsets import SoftSet, check_filtration_guard, is_se_representable
from .softtop import SoftTopology, canonical_topology, is_canonical
from . import __version__


class SpaceDescription(Value):
    """A parsed input document with all names resolved to indices."""

    universe: tuple[str, ...]
    params: tuple[str, ...]
    soft_set: SoftSet
    tau1: SoftTopology
    tau2: SoftTopology
    representability: tuple[tuple[str, ...], ...] | None = None


def _need(doc: dict, key: str, where: str = "document"):
    if not isinstance(doc, dict):
        raise InputError(f"{where} must be a JSON object")
    if key not in doc:
        raise InputError(f"missing key {key!r} in {where}")
    return doc[key]


def _names(value, where: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise InputError(f"{where} must be a list of names (strings)")
    return value


def _resolve_names(names: Sequence[str], table: dict[str, int], where: str) -> list[int]:
    _names(names, where)
    out = []
    for name in names:
        if name not in table:
            raise InputError(f"unknown name {name!r} in {where}")
        out.append(table[name])
    return out


def _only_params(doc: dict, params: Sequence[str], where: str) -> None:
    """Refuse a key of a JSON object that names no parameter."""
    for key in doc:
        if key not in params:
            raise InputError(f"unknown parameter {key!r} in {where}")


def parse_space(doc: dict) -> SpaceDescription:
    if not isinstance(doc, dict):
        raise InputError("top-level JSON value must be an object")
    universe = tuple(_names(_need(doc, "universe"), "'universe'"))
    params = tuple(_names(_need(doc, "params"), "'params'"))
    if len(set(universe)) != len(universe) or not universe:
        raise InputError("universe names must be nonempty and distinct")
    if len(set(params)) != len(params) or not params:
        raise InputError("parameter names must be nonempty and distinct")
    elem_idx = {name: i for i, name in enumerate(universe)}
    n = len(universe)

    sections_doc = _need(doc, "sections")
    section_sets = []
    for p in params:
        members = _resolve_names(
            _need(sections_doc, p, "sections"), elem_idx, f"sections[{p}]"
        )
        section_sets.append(members)
    _only_params(sections_doc, params, "sections")
    soft_set = SoftSet.of(section_sets, n)

    topo_docs = _need(doc, "topologies")
    if not isinstance(topo_docs, list) or len(topo_docs) != 2:
        raise InputError("'topologies' must be a list of exactly two entries")
    parsed = [
        _parse_topology(td, i, soft_set, params, elem_idx)
        for i, td in enumerate(topo_docs)
    ]

    representability = None
    if "representability" in doc:
        rep = doc["representability"]
        if not isinstance(rep, list) or not rep:
            raise InputError("'representability' must be a nonempty list of elements")
        for j, elem in enumerate(rep):
            where = f"representability[{j}]"
            idx = _resolve_names(elem, elem_idx, where)
            if len(elem) != len(params):
                raise InputError(
                    f"representability element {j} needs one value per parameter"
                )
            for name, x, p, section in zip(elem, idx, params, soft_set.sections):
                if x not in section:
                    raise InputError(
                        f"{where} = ({','.join(elem)}) is not a soft element: "
                        f"{name!r} is not in sections[{p}]"
                    )
        representability = tuple(map(tuple, rep))

    # verify decides on the induced families, which need the filtration,
    # and for check the guard is the one bound on the soft deciders' work:
    # past it the document is refused here, once it is known to be well
    # formed and before any component topology is generated.
    check_filtration_guard(prod(len(s) for s in soft_set.sections))
    taus = []
    for tau in parsed:
        if not isinstance(tau, SoftTopology):
            sigmas = [
                generate_topology(subbase, n, carrier=carrier)
                for subbase, carrier in zip(tau, soft_set.sections)
            ]
            tau = canonical_topology(soft_set, sigmas)
        taus.append(tau)
    return SpaceDescription(
        universe, params, soft_set, taus[0], taus[1], representability
    )


def _parse_topology(
    td: dict,
    which: int,
    soft_set: SoftSet,
    params: tuple[str, ...],
    elem_idx: dict[str, int],
) -> SoftTopology | list[list[FinSet]]:
    """A document of opens as its validated soft topology, or a
    `generate: canonical` document as its subbases, one per parameter,
    each member checked to lie in the section."""
    where = f"topologies[{which}]"
    n = soft_set.universe_size
    if not isinstance(td, dict):
        raise InputError(f"{where} must be a JSON object")
    if "opens" in td and "generate" in td:
        raise InputError(f"{where} has both 'opens' and 'generate'")
    if "opens" in td:
        if not isinstance(td["opens"], list):
            raise InputError(f"{where}.opens must be a list")
        opens = []
        for k, open_doc in enumerate(td["opens"]):
            sections = []
            for t, p in enumerate(params):
                members = _resolve_names(
                    _need(open_doc, p, f"{where}.opens[{k}]"),
                    elem_idx,
                    f"{where}.opens[{k}][{p}]",
                )
                sections.append(FinSet.of(members, n))
            _only_params(open_doc, params, f"{where}.opens[{k}]")
            opens.append(SoftSet(tuple(sections)))
        return SoftTopology.build(opens, soft_set)
    if td.get("generate") == "canonical":
        subbases = _need(td, "subbases", where)
        if not isinstance(subbases, dict):
            raise InputError(f"{where}.subbases must be a JSON object")
        _only_params(subbases, params, f"{where}.subbases")
        out = []
        for p, carrier in zip(params, soft_set.sections):
            members = subbases.get(p, [])
            if not isinstance(members, list):
                raise InputError(f"{where}.subbases[{p}] must be a list")
            subbase = [
                FinSet.of(
                    _resolve_names(s, elem_idx, f"{where}.subbases[{p}]"), n
                )
                for s in members
            ]
            if not all(s.issubset(carrier) for s in subbase):
                raise InputError("subbase member not contained in the carrier")
            out.append(subbase)
        return out
    raise InputError(f"{where} needs 'opens' or 'generate: canonical'")


def _build_check_report(desc: SpaceDescription) -> dict:
    space = SoftBitopSpace(desc.soft_set, desc.tau1, desc.tau2)
    sep = space.separation

    def verdicts(values) -> dict:
        return {f"t{j}": v for j, v in enumerate(values)}

    def names(element) -> list:
        return [desc.universe[i] for i in element]

    return {
        "command": "check",
        "tau1": {"opens": len(desc.tau1), "canonical": is_canonical(desc.tau1)},
        "tau2": {"opens": len(desc.tau2), "canonical": is_canonical(desc.tau2)},
        "pairwise_soft": verdicts(
            {"holds": v.holds, "witness": v.witness and list(map(names, v.witness))}
            for v in sep.soft
        ),
        "component_pairwise": {
            p: verdicts(c) for p, c in zip(desc.params, sep.components)
        },
        "induced_pairwise": verdicts(sep.induced),
    }


def _render_check(report: dict, out) -> None:
    print(f"command: {report['command']}", file=out)
    for tau in ("tau1", "tau2"):
        info = report[tau]
        print(
            f"{tau}: opens={info['opens']} "
            f"canonical={str(info['canonical']).lower()}",
            file=out,
        )
    for j in (0, 1, 2):
        info = report["pairwise_soft"][f"t{j}"]
        line = f"pairwise-soft-t{j}: {str(info['holds']).lower()}"
        if info["witness"] is not None:
            a, b = info["witness"]
            line += f" witness=({','.join(a)})({','.join(b)})"
        print(line, file=out)
    for p, vals in report["component_pairwise"].items():
        print(
            f"component[{p}]: "
            + " ".join(f"t{j}={str(vals[f't{j}']).lower()}" for j in (0, 1, 2)),
            file=out,
        )
    vals = report["induced_pairwise"]
    print(
        "induced: "
        + " ".join(f"t{j}={str(vals[f't{j}']).lower()}" for j in (0, 1, 2)),
        file=out,
    )


def cmd_check(desc: SpaceDescription, as_json: bool, out) -> int:
    report = _build_check_report(desc)
    if as_json:
        print(json.dumps(report, indent=2), file=out)
    else:
        _render_check(report, out)
    return 0


def cmd_verify(desc: SpaceDescription, as_json: bool, out) -> int:
    space = SoftBitopSpace(desc.soft_set, desc.tau1, desc.tau2)
    theorem_report = verify_theorems(space)
    entries = []
    for check in theorem_report.checks:
        status = "N/A" if not check.applicable else ("PASS" if check.passed else "FAIL")
        entries.append(
            {
                "name": check.name,
                "status": status,
                "detail": check.detail,
            }
        )
    report: dict = {"command": "verify", "theorems": entries}
    if desc.representability is not None:
        elems = [
            tuple(desc.universe.index(name) for name in e)
            for e in desc.representability
        ]
        k = space.space.subset_of(elems)
        representable, witness = is_se_representable(k)
        report["representability"] = {
            "representable": representable,
            "witness": None
            if witness is None
            else [desc.universe[i] for i in witness],
        }
    if as_json:
        print(json.dumps(report, indent=2), file=out)
    else:
        print("command: verify", file=out)
        for e in entries:
            line = f"{e['status']:4} {e['name']}"
            if e["detail"]:
                line += f"  [{e['detail']}]"
            print(line, file=out)
        if "representability" in report:
            rep = report["representability"]
            wtxt = "none" if rep["witness"] is None else f"({','.join(rep['witness'])})"
            print(
                f"representability: {str(rep['representable']).lower()} "
                f"witness={wtxt}",
                file=out,
            )
    return 0 if theorem_report.all_passed else 1


def cmd_examples(as_json: bool, out) -> int:
    outcomes = run_all()
    if as_json:
        print(
            json.dumps(
                {
                    "command": "examples",
                    "scenarios": [
                        {"name": o.name, "ok": o.ok, "lines": list(o.lines)}
                        for o in outcomes
                    ],
                },
                indent=2,
            ),
            file=out,
        )
    else:
        print("command: examples", file=out)
        for o in outcomes:
            for line in o.lines:
                print(f"{o.name}: {line}", file=out)
            print(f"{o.name}: {'OK' if o.ok else 'MISMATCH'}", file=out)
    return 0 if all(o.ok for o in outcomes) else 1


def cmd_search(max_universe: int, max_params: int, as_json: bool, out) -> int:
    result = search_counterexamples(max_universe, max_params)
    report = {
        "command": "search",
        "max_universe": max_universe,
        "max_params": max_params,
        "not_t0_but_induced_t2": list(result.not_t0_but_induced_t2),
        "strict_enlargements": list(result.strict_enlargements),
    }
    if as_json:
        # The chunks json.dumps would join, in blocks: 3x2 gives 285 MB.
        chunks = json.JSONEncoder(indent=2).iterencode(report)
        while block := "".join(islice(chunks, 1 << 16)):
            out.write(block)
        print(file=out)
    else:
        print("command: search", file=out)
        print(
            f"bounds: universe<={max_universe} params<={max_params}", file=out
        )
        print(
            f"class-i (not soft-t0, induced pairwise-t2): "
            f"{len(result.not_t0_but_induced_t2)}",
            file=out,
        )
        for entry in result.not_t0_but_induced_t2:
            print(
                f"  n={entry['universe_size']} p={entry['param_count']} "
                f"tau1={entry['tau1_opens']} tau2={entry['tau2_opens']}",
                file=out,
            )
        print(
            f"class-ii (strict canonical enlargement): "
            f"{len(result.strict_enlargements)}",
            file=out,
        )
        for entry in result.strict_enlargements:
            print(
                f"  n={entry['universe_size']} p={entry['param_count']} "
                f"opens={entry['opens']} enlarged-to={entry['enlarged_opens']}",
                file=out,
            )
    return 0


def _load_doc(path: str | None) -> dict:
    try:
        if path is None or path == "-":
            # Under a C or POSIX locale stdin passes bytes that are not
            # UTF-8 through as lone surrogates; decoding them again reports
            # the bytes as reading them from a path does.
            raw = sys.stdin.read().encode("utf-8", "surrogateescape")
            return json.loads(raw.decode("utf-8"))
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"invalid JSON: {exc}") from exc
    except UnicodeError as exc:
        raise InputError(f"input is not UTF-8: {exc}") from exc
    except OSError as exc:
        raise InputError(f"cannot read input: {exc}") from exc


# The command line is read by hand.  Grammar, help, usage and error
# messages are those of the CLI's earlier, generated parser, pinned byte
# for byte by tests/goldens/cli_surface.json: each help below is its
# output at 80 columns, and a usage is its help's first paragraph.  Keyed
# by command; None is the top level.
HELP = {
    None: """\
usage: softbitop [-h] [--version] {check,verify,examples,search} ...

Decide pairwise separation and compactness properties of finite soft
bitopological spaces and verify the theory on them.

positional arguments:
  {check,verify,examples,search}
    check               run all deciders on a space
    verify              run the theorem harness
    examples            reproduce the built-in scenarios against pinned
                        outcomes
    search              counterexample census

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
""",
    **{
        command: f"""\
usage: softbitop {command} [-h] [--json] [input]

positional arguments:
  input       JSON file ('-' for stdin)

options:
  -h, --help  show this help message and exit
  --json      emit a JSON report
"""
        for command in ("check", "verify")
    },
    "examples": """\
usage: softbitop examples [-h] [--json]

options:
  -h, --help  show this help message and exit
  --json      emit a JSON report
""",
    "search": """\
usage: softbitop search [-h] [--max-universe MAX_UNIVERSE]
                        [--max-params MAX_PARAMS] [--json]

options:
  -h, --help            show this help message and exit
  --max-universe MAX_UNIVERSE
  --max-params MAX_PARAMS
  --json                emit a JSON report
""",
}

# Each parser's options, in the order an ambiguous prefix's matches are
# listed.
OPTIONS = {
    None: ("-h", "--help", "--version"),
    "check": ("-h", "--help", "--json"),
    "verify": ("-h", "--help", "--json"),
    "examples": ("-h", "--help", "--json"),
    "search": ("-h", "--help", "--max-universe", "--max-params", "--json"),
}


def _error(command: str | None, message: str):
    """Print the usage of `command` (None: the top level) and `message` to
    stderr, and exit 2."""
    usage = HELP[command][: HELP[command].index("\n\n") + 1]
    prog = "softbitop" if command is None else f"softbitop {command}"
    sys.stderr.write(f"{usage}{prog}: error: {message}\n")
    raise SystemExit(2)


def _classify(args: list[str], command: str | None) -> list:
    """How each argument before the first `--` reads against the options
    of `command`: None for a positional, else a pair (option, explicit
    value or None), the option None if the parser has no such option.
    Unique prefixes of long options are read as the option, and `-hX` as
    `-h` with the explicit value X.  An ambiguous prefix is an error,
    raised before any option acts."""
    options = OPTIONS[command]
    found = []
    for arg in args[: args.index("--") if "--" in args else len(args)]:
        name, eq, value = arg.partition("=")
        if arg[:1] != "-" or arg == "-":
            found.append(None)
        elif arg in options:
            found.append((arg, None))
        elif eq and name in options:
            found.append((name, value))
        elif arg[1] == "-" and (matches := [o for o in options if o.startswith(name)]):
            if len(matches) > 1:
                _error(
                    command,
                    f"ambiguous option: {arg} could match {', '.join(matches)}",
                )
            found.append((matches[0], value if eq else None))
        elif arg[1] == "h":
            found.append(("-h", arg[2:]))
        elif re.match(r"^-\d+$|^-\d*\.\d+$", arg) or " " in arg:
            found.append(None)  # a negative number, or text with a space
        else:
            found.append((None, None))
    return found


def _flag(command: str | None, option: str, value: str | None) -> None:
    """Act on one of the options that take no argument: print help or the
    version and exit 0, or exit 2 when it was given an explicit value.
    Short options may run together: `-hh` is `-h -h`."""
    if option == "-h" and value and not value.lstrip("h"):
        value = None
    if value is not None:
        name = "-h/--help" if option in ("-h", "--help") else option
        shown = value.lstrip("h") if option == "-h" else value
        _error(command, f"argument {name}: ignored explicit argument {shown!r}")
    if option == "--version":
        sys.stdout.write(f"{__version__}\n")
        raise SystemExit(0)
    if option != "--json":
        sys.stdout.write(HELP[command])
        raise SystemExit(0)


def parse_args(argv: Sequence[str]) -> SimpleNamespace:
    """The command and its settings named by `argv`.  Help and `--version`
    print and exit 0 when they are reached; an error prints usage and
    message to stderr and exits 2, with the command's usage for errors in
    its options' values and the top-level usage otherwise."""
    argv = list(argv)
    extras: list[str] = []
    found = _classify(argv, None)
    i = 0
    while i < len(found) and found[i] is not None:
        option, value = found[i]
        if option is None:
            extras.append(argv[i])
        else:
            _flag(None, option, value)
        i += 1
    if argv[i:] in ([], ["--"]):
        _error(None, "the following arguments are required: command")
    command = argv[i]
    if command not in OPTIONS:
        _error(
            None,
            f"argument command: invalid choice: {command!r} "
            "(choose from 'check', 'verify', 'examples', 'search')",
        )
    args = SimpleNamespace(
        command=command, input=None, json=False, max_universe=2, max_params=2
    )
    rest = argv[i + 1 :]
    found = _classify(rest, command)
    end = len(found)  # the index of the `--` that ends the options, if any
    takes_input = command in ("check", "verify")
    i = 0
    while i < len(rest):
        if i >= end or found[i] is None:
            # A positional, or that `--`.  check and verify read the first
            # positional as their input, and a `--` on either side of it
            # is dropped.
            if not takes_input:
                extras.append(rest[i])
                i += 1
                continue
            takes_input = False
            if i == end:
                i += 1
            if i < len(rest):
                args.input = rest[i]
                i += 1
                if i == end < len(rest):
                    i += 1
            continue
        option, value = found[i]
        i += 1
        if option is None:
            extras.append(rest[i - 1])
        elif option.startswith("--max-"):
            if value is None:
                if i == end or found[i] is not None:
                    _error(command, f"argument {option}: expected one argument")
                value = rest[i]
                i += 1
            try:
                setattr(args, option[2:].replace("-", "_"), int(value))
            except ValueError:
                _error(command, f"argument {option}: invalid int value: {value!r}")
        else:
            _flag(command, option, value)  # returns only for --json
            args.json = True
    if extras:
        _error(None, f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv: Sequence[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    start = time.monotonic()
    try:
        if args.command in ("check", "verify"):
            desc = parse_space(_load_doc(args.input))
            if args.command == "check":
                code = cmd_check(desc, args.json, sys.stdout)
            else:
                code = cmd_verify(desc, args.json, sys.stdout)
        elif args.command == "examples":
            code = cmd_examples(args.json, sys.stdout)
        else:
            code = cmd_search(
                args.max_universe, args.max_params, args.json, sys.stdout
            )
    except (InputError, NoSoftElementsError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except SoftBitopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.monotonic() - start
    print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
