import contextlib
import io
import json
import pathlib
import subprocess
import sys
from collections import Counter
from functools import cached_property

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    SIXTEEN_PARAMS,
    _write_doc,
    write_16_soft_element_space,
    write_20_soft_element_space,
)
from softbitop import (
    BitopPair,
    ElementSpace,
    SoftTopology,
    canonical_topology,
    search_counterexamples,
)
from softbitop import cli, finsets, pairwise, softtop
from softbitop.cli import main, parse_space

HERE = pathlib.Path(__file__).parent
FIXTURES = HERE / "fixtures"
GOLDENS = HERE / "goldens"
RUNGS = HERE.parent / "perfbench" / "rungs"

INDISCRETE = str(FIXTURES / "indiscrete_pair.json")
REPRESENTABILITY = str(FIXTURES / "representability.json")
CANONICAL_DISCRETE = str(FIXTURES / "canonical_discrete.json")
DISCRETE_16X1 = str(FIXTURES / "discrete_16x1.json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- check


def test_check_indiscrete_pair(capsys):
    code, out, err = run_cli(capsys, "check", INDISCRETE)
    assert code == 0
    assert "pairwise-soft-t0: false witness=(u0,u0)(u0,u1)" in out
    assert "induced: t0=true t1=true t2=false" in out
    assert "tau1: opens=2 canonical=false" in out
    assert "elapsed:" in err and "elapsed:" not in out


def test_check_json_mode(capsys):
    code, out, _ = run_cli(capsys, "check", "--json", INDISCRETE)
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "check"
    assert report["pairwise_soft"]["t0"]["holds"] is False
    assert report["pairwise_soft"]["t0"]["witness"] == [["u0", "u0"], ["u0", "u1"]]
    assert report["induced_pairwise"] == {"t0": True, "t1": True, "t2": False}
    assert report["component_pairwise"]["a1"]["t0"] is False


def test_check_canonical_generate(capsys):
    code, out, _ = run_cli(capsys, "check", CANONICAL_DISCRETE)
    assert code == 0
    assert "tau1: opens=16 canonical=true" in out
    assert "pairwise-soft-t1: true" in out
    assert "pairwise-soft-t2: false" in out


def test_check_16_soft_elements(capsys, tmp_path):
    """N(a) has section {a(t)} at every t, so N1(a) and N2(b) are soft
    disjoint iff a and b differ at every parameter: soft T2 fails at the
    least pair sharing a coordinate.  Every soft subset is open, so the
    induced family is discrete and every pair derived from it is T2.
    """
    code, out, _ = run_cli(capsys, "check", write_16_soft_element_space(tmp_path))
    assert code == 0
    assert out.splitlines() == [
        "command: check",
        "tau1: opens=256 canonical=true",
        "tau2: opens=256 canonical=true",
        "pairwise-soft-t0: true",
        "pairwise-soft-t1: true",
        "pairwise-soft-t2: false witness=(x0,x0,x0,x0)(x0,x0,x0,x1)",
        *(f"component[{p}]: t0=true t1=true t2=true" for p in SIXTEEN_PARAMS),
        "induced: t0=true t1=true t2=true",
    ]


def test_check_20_soft_elements(capsys, tmp_path):
    """20 soft elements, the filtration guard; each induced family has
    about 700,000 members.  (u0,u1) and (u0,u2) agree at a1 and differ at
    a2 only in u1 against u2, which neither component at a2 tells apart,
    so soft T0 fails there.  Component T0 fails at a1 on u3, u4 and at a2
    on u1, u2.  The induced pair is pairwise T2 all the same.
    """
    code, out, _ = run_cli(capsys, "check", write_20_soft_element_space(tmp_path))
    assert code == 0
    assert out.splitlines() == [
        "command: check",
        "tau1: opens=15 canonical=true",
        "tau2: opens=15 canonical=true",
        "pairwise-soft-t0: false witness=(u0,u1)(u0,u2)",
        "pairwise-soft-t1: false witness=(u0,u0)(u0,u3)",
        "pairwise-soft-t2: false witness=(u0,u0)(u0,u1)",
        "component[a1]: t0=false t1=false t2=false",
        "component[a2]: t0=false t1=false t2=false",
        "induced: t0=true t1=true t2=true",
    ]


@pytest.mark.parametrize("command", ["check", "verify"])
def test_each_decider_runs_once(capsys, monkeypatch, command):
    """Both commands read one `SoftBitopSpace.separation`: each soft
    decider runs once, and each classical decider once on the component
    pair of each of the two parameters.  The document has the 2x2 shape,
    where induced T0 and T1 always hold and only induced T2 is decided,
    once, on the induced pair."""
    calls = Counter()
    for name in (
        "pairwise_soft_t0",
        "pairwise_soft_t1",
        "pairwise_soft_t2",
        "pairwise_t0",
        "pairwise_t1",
        "pairwise_t2",
    ):
        original = getattr(pairwise, name)

        def counting(arg, name=name, original=original):
            kind = type(arg.first).__name__ if isinstance(arg, BitopPair) else "soft"
            calls[name, kind] += 1
            return original(arg)

        for module in (cli, finsets, pairwise):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    code, _, _ = run_cli(capsys, command, CANONICAL_DISCRETE)
    assert code == (0 if command == "check" else 1)
    assert calls == {
        **{(f"pairwise_soft_t{j}", "soft"): 1 for j in (0, 1, 2)},
        ("pairwise_t2", "SEFamily"): 1,
        **{(f"pairwise_t{j}", "ClassicalTopology"): 2 for j in (0, 1, 2)},
    }


@pytest.mark.parametrize(
    "document",
    [FIXTURES / "se20_a.json", FIXTURES / "se20_b.json", RUNGS / "check-16se.json"],
    ids=lambda path: path.stem,
)
def test_check_builds_no_induced_family(capsys, monkeypatch, document):
    """The induced verdicts of these shapes, two or more sections of two
    or more points and not 2x2, are read from the shape: `check` builds no
    induced family and no section table over the 2^|SE| subsets."""
    built = Counter()
    init = softtop.SEFamily.__init__

    def counting_init(self, *args):
        built["SEFamily"] += 1
        init(self, *args)

    def counting_sections(es):
        built["flat_sections"] += 1
        return flat_sections.func(es)

    flat_sections = ElementSpace.flat_sections
    monkeypatch.setattr(softtop.SEFamily, "__init__", counting_init)
    monkeypatch.setattr(ElementSpace, "flat_sections", property(counting_sections))
    code, out, _ = run_cli(capsys, "check", str(document))
    assert code == 0
    assert "induced: t0=true t1=true t2=true" in out
    assert not built


@pytest.mark.parametrize("command", ["check", "verify"])
def test_a_built_topology_makes_its_finsets_only_when_read(
    capsys, monkeypatch, command
):
    """The topologies the package builds hold their open masks alone: on
    `discrete_16x1.json`, whose discrete component has 2^16 opens, neither
    command makes a FinSet per open (65,557 and 131,114 when each built
    topology made one)."""
    made = Counter()
    init = finsets.FinSet.__init__

    def counting(self, *args, **kwargs):
        made["FinSet"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(finsets.FinSet, "__init__", counting)
    code, _, _ = run_cli(capsys, command, DISCRETE_16X1)
    assert code == 0
    assert made["FinSet"] < 100


def discrete_1_parameter_doc(points: int) -> dict:
    """`fixtures/discrete_16x1.json` on `points` points: one parameter,
    the discrete topology against {}, {u0} and all points."""
    names = [f"u{i}" for i in range(points)]
    return {
        "universe": names,
        "params": ["a1"],
        "sections": {"a1": names},
        "topologies": [
            {"generate": "canonical", "subbases": {"a1": [[u] for u in names]}},
            {"generate": "canonical", "subbases": {"a1": [["u0"]]}},
        ],
    }


def write_discrete_1_parameter_space(tmp_path, points: int) -> str:
    return _write_doc(tmp_path, discrete_1_parameter_doc(points))


@pytest.mark.parametrize("command", ["check", "verify"])
def test_past_the_filtration_guard_nothing_is_decided(
    capsys, monkeypatch, tmp_path, command
):
    """Three canonical documents past the guard: 2 points x 12 parameters,
    indiscrete on both sides (4,096 soft elements), 2 points x 9
    parameters, discrete on both sides (512 soft elements, 262,144 opens
    per topology), and 22 points x 1 parameter, discrete against {}, {u0}
    and all points (22 soft elements, 2^22 opens).  Both commands refuse
    each document once it is parsed, before a component topology is
    generated or a decider builds a least open."""
    builds = Counter()
    least_opens = SoftTopology.least_opens

    def counting(tau):
        builds["least_opens"] += 1
        return least_opens.func(tau)

    def counted(name, original):
        def call(*args, **kwargs):
            builds[name] += 1
            return original(*args, **kwargs)

        return call

    monkeypatch.setattr(SoftTopology, "least_opens", property(counting))
    for name in ("canonical_topology", "generate_topology"):
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    documents = []
    for params, subbase, size in (
        ([f"p{k}" for k in range(12)], [], 4096),
        ([f"p{k}" for k in range(9)], [["x0"], ["x1"]], 512),
    ):
        side = {"generate": "canonical", "subbases": {p: subbase for p in params}}
        doc = {
            "universe": ["x0", "x1"],
            "params": params,
            "sections": {p: ["x0", "x1"] for p in params},
            "topologies": [side, side],
        }
        documents.append((doc, size))
    documents.append((discrete_1_parameter_doc(22), 22))
    for doc, size in documents:
        code, out, err = run_cli(capsys, command, _write_doc(tmp_path, doc))
        assert (code, out) == (3, "")
        assert err == (
            f"capacity error: soft-element count {size} exceeds filtration guard 20\n"
        )
    assert builds == {}


@pytest.mark.parametrize("points", [None, 18], ids=["canonical_discrete", "18_points"])
def test_check_lists_no_canonical_open(capsys, monkeypatch, tmp_path, points):
    """check reads sizes, least cells and membership from the components:
    on two canonical documents, `fixtures/canonical_discrete.json` and the
    discrete topology on 18 points x 1 parameter (2^18 opens, the most the
    guard admits), neither topology lists its opens."""
    parsed = []

    def parse(doc):
        parsed.append(parse_space(doc))
        return parsed[-1]

    monkeypatch.setattr(cli, "parse_space", parse)
    path = (
        CANONICAL_DISCRETE
        if points is None
        else write_discrete_1_parameter_space(tmp_path, points)
    )
    code, _, _ = run_cli(capsys, "check", path)
    (desc,) = parsed
    assert code == 0
    assert "flat_opens" not in vars(desc.tau1) and "flat_opens" not in vars(desc.tau2)


@pytest.mark.parametrize("command", ["check", "verify"])
def test_canonical_product_guard_refuses_19_points(
    capsys, monkeypatch, tmp_path, command
):
    """The discrete topology on 19 points x 1 parameter has 2^19 canonical
    opens, past the guard of 2^18, which bounds their listing.  check lists
    no open and decides the document; verify lists them, and refuses it
    before a decider runs.  Under a guard of 2^20 verify decided it in
    about 14 s on a 2-vCPU host, past the 10-s target."""
    path = write_discrete_1_parameter_space(tmp_path, 19)
    if command == "check":
        code, out, _ = run_cli(capsys, command, "--json", path)
        assert code == 0
        assert json.loads(out)["tau1"] == {"opens": 524288, "canonical": True}
        return
    separations = Counter()
    separation = pairwise.SoftBitopSpace.separation

    def counting(space):
        separations["separation"] += 1
        return separation.func(space)

    monkeypatch.setattr(pairwise.SoftBitopSpace, "separation", property(counting))
    code, out, err = run_cli(capsys, command, path)
    assert (code, out, separations) == (3, "", {})
    assert err == (
        "capacity error: canonical topology would have 524288 opens; "
        "guard is 262144\n"
    )


@pytest.mark.parametrize("command", ["check", "verify"])
def test_one_element_space_per_document(capsys, monkeypatch, command):
    """The carrier builds its soft elements once: the space, both
    topologies and the induced families all read that one element space."""
    built = Counter()
    init = ElementSpace.__init__

    def counting(self, soft_set):
        built["ElementSpace"] += 1
        init(self, soft_set)

    monkeypatch.setattr(ElementSpace, "__init__", counting)
    code, _, _ = run_cli(capsys, command, str(FIXTURES / "se20_b.json"))
    assert (code, built) == (0, {"ElementSpace": 1})


@pytest.mark.parametrize("command", ["check", "verify"])
def test_malformed_document_past_the_filtration_guard_exits_2(
    capsys, tmp_path, command
):
    """The guard is tested only once the document is well formed: past it,
    an unknown name in a subbase of the second topology or in the
    representability list, or a subbase member outside its section, is
    still an input error."""
    params = [f"p{k}" for k in range(9)]
    side = {"generate": "canonical", "subbases": {p: [["x0"]] for p in params}}
    base = {
        "universe": ["x0", "x1"],
        "params": params,
        "sections": {p: ["x0", "x1"] for p in params},
        "topologies": [side, side],
    }
    broken = {"generate": "canonical", "subbases": {"p0": [["x9"]]}}
    unknown = "input error: unknown name 'x9'"
    for doc, start in (
        ({**base, "topologies": [side, broken]}, unknown),
        ({**base, "representability": [["x9"] * len(params)]}, unknown),
        (
            {**base, "sections": {**base["sections"], "p8": ["x1"]}},
            "input error: subbase member not contained in the carrier",
        ),
    ):
        code, out, err = run_cli(capsys, command, _write_doc(tmp_path, doc))
        assert (code, out) == (2, "")
        assert err.startswith(start), err


def test_check_reads_stdin(capsys, monkeypatch):
    import io

    doc = open(INDISCRETE).read()
    monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
    code, out, _ = run_cli(capsys, "check", "-")
    assert code == 0
    assert "pairwise-soft-t0: false" in out


# ---------------------------------------------------------------- verify


def test_verify_indiscrete_pair_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", INDISCRETE)
    assert code == 0
    assert "FAIL" not in out
    assert "PASS soft-t1-implies-soft-t0" in out
    assert "N/A  component-t0-implies-soft-t0-on-canonical" in out


def test_verify_16_soft_elements(capsys, tmp_path):
    """The 16-element space is canonical and componentwise pairwise T2
    but not pairwise soft T2, so exactly the two T2-lift rows fail.  Its
    induced families have 2^16 members each, so the union-closure check
    must not try every pair of members."""
    code, out, _ = run_cli(capsys, "verify", write_16_soft_element_space(tmp_path))
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL component-t2-implies-soft-t2-on-canonical"
        "  [antecedent=True consequent=False]",
        "FAIL canonical-componentwise-equivalence-t2  [component=True soft=False]",
    ]
    assert "PASS induced-families-union-closed" in out


def test_verify_20_soft_elements(capsys, tmp_path):
    """The full report at the filtration guard.  The space is canonical
    and neither soft nor componentwise T0, while its induced pair is T2,
    so every row passes."""
    code, out, _ = run_cli(capsys, "verify", write_20_soft_element_space(tmp_path))
    assert code == 0
    lines = ["command: verify"]
    plain = "antecedent=False consequent=False"
    lines += [
        f"PASS soft-t2-implies-soft-t1  [{plain}]",
        f"PASS soft-t1-implies-soft-t0  [{plain}]",
    ]
    for j in (0, 1, 2):
        lines += [
            f"PASS soft-t{j}-implies-component-t{j}  [{plain}]",
            f"PASS component-t{j}-implies-soft-t{j}-on-canonical  [{plain}]",
            f"PASS canonical-componentwise-equivalence-t{j}"
            "  [component=False soft=False]",
            f"PASS soft-t{j}-implies-induced-t{j}"
            "  [antecedent=False consequent=True]",
        ]
    lines += [
        "PASS induced-families-union-closed",
        "PASS induced-is-finest-with-open-projections",
        "PASS canonical-enlargement-contains-and-preserves"
        "  [contains original, same components, same induced topology]",
        "PASS reconstruction-contains-input",
        "PASS finite-params-subcover-exists  [subcover size 1]",
        "PASS cylinder-cover-transport",
        "PASS induced-separation-may-exceed-soft  [induced pair is pairwise t2"
        " while the space is not pairwise soft t0: converse fails on this"
        " space, as expected]",
    ]
    assert out.splitlines() == lines


def test_verify_reports_a_failed_reconstruction(capsys, monkeypatch):
    """A reconstruction that does not contain its input is a FAIL row and
    exit 1, not an exception.  The topologies reconstruct generates are
    cut to their empty open, so the full subset's sections are not open."""
    generate = softtop.generate_topology

    def cut(subbase, n, carrier=None):
        sigma = generate(subbase, n, carrier=carrier)
        return finsets.ClassicalTopology(n, sigma.carrier, sigma.opens[:1])

    monkeypatch.setattr(softtop, "generate_topology", cut)
    code, out, _ = run_cli(capsys, "verify", INDISCRETE)
    assert code == 1
    assert [l for l in out.splitlines() if l.startswith("FAIL")] == [
        "FAIL reconstruction-contains-input"
    ]


def test_verify_reports_representability(capsys):
    code, out, _ = run_cli(capsys, "verify", REPRESENTABILITY)
    assert code == 0
    assert "representability: false witness=(x1,x4)" in out


def test_verify_canonical_discrete_fails_honestly(capsys):
    """The componentwise-to-soft t2 lift is genuinely false; the harness
    reports it and the exit code reflects the failure."""
    code, out, _ = run_cli(capsys, "verify", CANONICAL_DISCRETE)
    assert code == 1
    failing = [l for l in out.splitlines() if l.startswith("FAIL")]
    assert len(failing) == 2
    assert any("component-t2-implies-soft-t2-on-canonical" in l for l in failing)
    assert any("canonical-componentwise-equivalence-t2" in l for l in failing)


def test_verify_json_statuses(capsys):
    code, out, _ = run_cli(capsys, "verify", "--json", CANONICAL_DISCRETE)
    assert code == 1
    report = json.loads(out)
    statuses = {e["name"]: e["status"] for e in report["theorems"]}
    assert statuses["soft-t2-implies-soft-t1"] == "PASS"
    assert statuses["component-t2-implies-soft-t2-on-canonical"] == "FAIL"


# The verify report of DISCRETE_16X1, one parameter: the discrete topology
# on 16 points (65,536 opens) against the opens {}, {u0} and all 16 points.
VERIFY_16X1 = [
    "command: verify",
    "PASS soft-t2-implies-soft-t1  [antecedent=False consequent=False]",
    "PASS soft-t1-implies-soft-t0  [antecedent=False consequent=True]",
    "PASS soft-t0-implies-component-t0  [antecedent=True consequent=True]",
    "PASS component-t0-implies-soft-t0-on-canonical  [antecedent=True consequent=True]",
    "PASS canonical-componentwise-equivalence-t0  [component=True soft=True]",
    "PASS soft-t0-implies-induced-t0  [antecedent=True consequent=True]",
    "PASS soft-t1-implies-component-t1  [antecedent=False consequent=False]",
    "PASS component-t1-implies-soft-t1-on-canonical"
    "  [antecedent=False consequent=False]",
    "PASS canonical-componentwise-equivalence-t1  [component=False soft=False]",
    "PASS soft-t1-implies-induced-t1  [antecedent=False consequent=False]",
    "PASS soft-t2-implies-component-t2  [antecedent=False consequent=False]",
    "PASS component-t2-implies-soft-t2-on-canonical"
    "  [antecedent=False consequent=False]",
    "PASS canonical-componentwise-equivalence-t2  [component=False soft=False]",
    "PASS soft-t2-implies-induced-t2  [antecedent=False consequent=False]",
    "PASS induced-families-union-closed",
    "PASS induced-is-finest-with-open-projections",
    "PASS canonical-enlargement-contains-and-preserves"
    "  [contains original, same components, same induced topology]",
    "PASS reconstruction-contains-input",
    "PASS finite-params-subcover-exists  [subcover size 1]",
    "PASS cylinder-cover-transport",
    "PASS induced-separation-may-exceed-soft",
]


def test_check_and_verify_16_points_by_1_parameter(capsys):
    """Both commands decide the document; the verify report is pinned."""
    assert run_cli(capsys, "check", DISCRETE_16X1)[0] == 0
    code, out, _ = run_cli(capsys, "verify", DISCRETE_16X1)
    assert code == 0
    assert out == "\n".join(VERIFY_16X1) + "\n"


def test_verify_decides_cover_and_reconstruction_rows_flat(monkeypatch):
    """On 65,536 opens, verify builds no soft set per open and no
    cylinder or soft cover, and reconstruct filters no induced family."""

    def forbidden(*args, **kwargs):
        raise AssertionError("verify left its flat path")

    doc = parse_space(json.loads(pathlib.Path(DISCRETE_16X1).read_text()))
    space = pairwise.SoftBitopSpace(doc.soft_set, doc.tau1, doc.tau2)
    monkeypatch.setattr(SoftTopology, "opens", property(forbidden))
    for name in ("cylinder", "find_finite_subcover", "SoftCover"):
        monkeypatch.setattr(pairwise, name, forbidden)
    space.induced  # the two families verify reads, built before the ban
    monkeypatch.setattr(softtop, "induced_topology", forbidden)
    report = pairwise.verify_theorems(space)
    assert report.all_passed
    assert len(doc.tau1) == 1 << 16


def test_verify_lists_the_opens_of_no_other_soft_topology(monkeypatch):
    """On a canonical document, each topology is its own enlargement, and
    the reconstructions list nothing: verify lists the flat opens of tau1
    and tau2 alone."""
    listing = SoftTopology.__dict__["flat_opens"]
    listed = []

    def recording(tau):
        listed.append(tau)
        return listing.func(tau)

    recorder = cached_property(recording)
    recorder.__set_name__(SoftTopology, "flat_opens")
    monkeypatch.setattr(SoftTopology, "flat_opens", recorder)
    doc = parse_space(json.loads(pathlib.Path(CANONICAL_DISCRETE).read_text()))
    space = pairwise.SoftBitopSpace(doc.soft_set, doc.tau1, doc.tau2)
    report = pairwise.verify_theorems(space)
    row = "canonical-enlargement-contains-and-preserves"
    assert [c.passed for c in report.checks if c.name == row] == [True]
    assert listed and all(tau is doc.tau1 or tau is doc.tau2 for tau in listed)


# ---------------------------------------------------------------- examples


def test_examples_matches_golden(capsys):
    code, out, _ = run_cli(capsys, "examples")
    assert code == 0
    assert out == (GOLDENS / "examples.txt").read_text()


def test_examples_json(capsys):
    code, out, _ = run_cli(capsys, "examples", "--json")
    assert code == 0
    report = json.loads(out)
    names = [s["name"] for s in report["scenarios"]]
    assert names == [
        "non-representable-subset",
        "indiscrete-pair-induced-separation",
        "infinite-parameter-cover",
    ]
    assert all(s["ok"] for s in report["scenarios"])


# ---------------------------------------------------------------- search


def test_search_matches_golden(capsys):
    code, out, _ = run_cli(
        capsys, "search", "--max-universe", "2", "--max-params", "2"
    )
    assert code == 0
    assert out == (GOLDENS / "search_2_2.txt").read_text()


def test_search_deterministic_across_runs(capsys):
    _, first, _ = run_cli(capsys, "search", "--json")
    _, second, _ = run_cli(capsys, "search", "--json")
    assert first == second


@pytest.mark.parametrize("bounds", [(2, 2), (3, 1)])
def test_search_json_is_streamed_as_one_dump(capsys, bounds):
    n, p = bounds
    code, out, _ = run_cli(
        capsys, "search", "--json", "--max-universe", str(n), "--max-params", str(p)
    )
    result = search_counterexamples(n, p)
    report = {
        "command": "search",
        "max_universe": n,
        "max_params": p,
        "not_t0_but_induced_t2": list(result.not_t0_but_induced_t2),
        "strict_enlargements": list(result.strict_enlargements),
    }
    assert code == 0
    assert out == json.dumps(report, indent=2) + "\n"


def test_search_capacity_exit(capsys):
    code, out, err = run_cli(capsys, "search", "--max-universe", "4")
    assert code == 3
    assert out == ""
    assert err.startswith(
        "capacity error: search bounds universe 4, params 2 exceed the cap of "
        "universe 3, params 2\n"
    )


def test_search_nonpositive_bound_exit(capsys):
    """A bound below 1 is an input error, even when the other bound is
    past its cap."""
    code, out, err = run_cli(capsys, "search", "--max-universe", "4", "--max-params", "0")
    assert (code, out) == (2, "")
    assert err == "input error: bounds must be positive\n"


# ---------------------------------------------------------------- errors


@pytest.mark.parametrize("command", ["check", "verify"])
def test_representability_element_outside_the_sections_exit(
    capsys, monkeypatch, tmp_path, command
):
    """A representability element whose names are known but do not form a
    soft element is refused while parsing, before any space is decided,
    and the message names it and its parameter by the document's names."""

    def deciding(*args):
        raise AssertionError("a space was decided")

    monkeypatch.setattr(cli, "SoftBitopSpace", deciding)
    indiscrete = {"generate": "canonical", "subbases": {}}
    doc = {
        "universe": ["u0", "u1"],
        "params": ["a1", "a2"],
        "sections": {"a1": ["u0", "u1"], "a2": ["u0"]},
        "topologies": [indiscrete, indiscrete],
        "representability": [["u0", "u0"], ["u0", "u1"]],
    }
    code, out, err = run_cli(capsys, command, _write_doc(tmp_path, doc))
    assert (code, out) == (2, "")
    assert err == (
        "input error: representability[1] = (u0,u1) is not a soft element: "
        "'u1' is not in sections[a2]\n"
    )


def test_missing_file_exit(capsys):
    code, _, err = run_cli(capsys, "check", "/nonexistent.json")
    assert code == 2
    assert "input error" in err


def test_malformed_json_exit(capsys, tmp_path, monkeypatch):
    """Bytes that are not JSON, not UTF-8, or nested past the JSON
    decoder's depth are input errors, from a path and from stdin read by a
    strict decoder or by one that passes bytes that are not UTF-8 through
    as lone surrogates (`surrogateescape`, Python's stdin under a C or
    POSIX locale).  Each payload gets one message from every source.
    Whether 2,000 levels pass the decoder depends on the interpreter's
    recursion limit; past it or not, the document is refused with an
    input error."""
    payloads = {
        b"{not json": "input error: invalid JSON",
        b"\xff\xfe{": "input error: input is not UTF-8",
        b"[" * 2000 + b"]" * 2000: "input error: ",
    }
    sources = ((None, "strict"), ("-", "strict"), ("-", "surrogateescape"))
    bad = tmp_path / "bad.json"
    for payload, start in payloads.items():
        bad.write_bytes(payload)
        messages = set()
        for command in ("check", "verify"):
            for source, errors in sources:
                stdin = io.TextIOWrapper(io.BytesIO(payload), "utf-8", errors)
                monkeypatch.setattr(sys, "stdin", stdin)
                code, out, err = run_cli(capsys, command, source or str(bad))
                assert (code, out) == (2, ""), (payload[:4], command, source, errors)
                assert err.startswith(start) and err.count("\n") == 1, err
                messages.add(err)
        assert len(messages) == 1, messages


def test_unknown_name_exit(capsys, tmp_path):
    doc = json.loads(open(INDISCRETE).read())
    doc["sections"]["a1"] = ["bogus"]
    f = tmp_path / "space.json"
    f.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "check", str(f))
    assert code == 2
    assert "unknown name" in err


def test_empty_section_exit(capsys, tmp_path):
    doc = json.loads(open(INDISCRETE).read())
    doc["sections"]["a1"] = []
    for topo in doc["topologies"]:
        for o in topo["opens"]:
            o["a1"] = []
    f = tmp_path / "space.json"
    f.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "check", str(f))
    assert code == 2


def indiscrete_doc():
    return json.loads(open(INDISCRETE).read())


def with_opens(value):
    doc = indiscrete_doc()
    doc["topologies"][0]["opens"] = value
    return doc


def with_list_name():
    doc = indiscrete_doc()
    doc["universe"][0] = ["u0"]
    return doc


def with_representability(value):
    doc = indiscrete_doc()
    doc["representability"] = value
    return doc


def with_string_universe():
    doc = indiscrete_doc()
    doc["universe"] = "ab"
    doc["sections"] = {"a1": ["a", "b"], "a2": ["a", "b"]}
    for topo in doc["topologies"]:
        topo["opens"] = [{"a1": [], "a2": []}, {"a1": ["a", "b"], "a2": ["a", "b"]}]
    return doc


@pytest.mark.parametrize(
    "doc",
    [
        with_opens(5),
        with_list_name(),
        with_representability([["u0", "u0"], 7]),
        with_string_universe(),
    ],
    ids=["opens-int", "list-name", "representability-entry", "string-universe"],
)
@pytest.mark.parametrize("command", ["check", "verify"])
def test_mistyped_input_exit(capsys, tmp_path, doc, command):
    f = tmp_path / "space.json"
    f.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, command, str(f))
    assert code == 2
    assert err.startswith("input error:")
    assert out == ""


def with_subbase_typo():
    """One parameter a1, and a subbase keyed a2."""
    doc = json.loads(open(CANONICAL_DISCRETE).read())
    doc["params"] = ["a1"]
    doc["sections"] = {"a1": ["u0", "u1"]}
    for topo in doc["topologies"]:
        topo["subbases"] = {"a1": [["u0"]]}
    doc["topologies"][1]["subbases"]["a2"] = [["u1"]]
    return doc


def with_extra_key(*path):
    doc = indiscrete_doc()
    place = doc
    for key in path:
        place = place[key]
    place["a3"] = []
    return doc


def with_opens_and_generate():
    doc = indiscrete_doc()
    doc["topologies"][1]["generate"] = "canonical"
    return doc


@pytest.mark.parametrize(
    "doc, message",
    [
        (with_subbase_typo(), "unknown parameter 'a2' in topologies[1].subbases"),
        (with_extra_key("sections"), "unknown parameter 'a3' in sections"),
        (
            with_extra_key("topologies", 0, "opens", 1),
            "unknown parameter 'a3' in topologies[0].opens[1]",
        ),
        (with_opens_and_generate(), "topologies[1] has both 'opens' and 'generate'"),
    ],
    ids=["subbase-typo", "sections", "open", "opens-and-generate"],
)
@pytest.mark.parametrize("command", ["check", "verify"])
def test_unknown_parameter_exit(capsys, tmp_path, doc, message, command):
    """A key that names no parameter, as a typo would, is refused rather
    than ignored: the typo'd subbase would otherwise run as the indiscrete
    topology."""
    code, out, err = run_cli(capsys, command, _write_doc(tmp_path, doc))
    assert (code, out) == (2, "")
    assert err.startswith(f"input error: {message}\n"), err


def test_seed_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--seed", "1", INDISCRETE])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2) | st.sampled_from(["", "u0", "a1", "ab"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["u0", "a1", "opens", "x"]), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def valid_documents(draw):
    """A well-formed space on up to 3 points and 2 parameters."""
    universe = [f"u{i}" for i in range(draw(st.integers(1, 3)))]
    params = [f"a{t}" for t in range(draw(st.integers(1, 2)))]
    def subsets(names, min_size=0):
        return st.lists(
            st.sampled_from(names), min_size=min_size, max_size=len(names), unique=True
        )

    sections = {p: draw(subsets(universe, 1)) for p in params}
    ambient = {p: sections[p] for p in params}

    def topology():
        if draw(st.booleans()):
            return {"opens": [{p: [] for p in params}, ambient]}
        subbases = {
            p: draw(st.lists(subsets(sections[p]), max_size=2))
            for p in params
        }
        return {"generate": "canonical", "subbases": subbases}

    doc = {
        "universe": universe,
        "params": params,
        "sections": sections,
        "topologies": [topology(), topology()],
    }
    if draw(st.booleans()):
        element = st.tuples(*(st.sampled_from(sections[p]) for p in params)).map(list)
        doc["representability"] = draw(st.lists(element, min_size=1, max_size=2))
    return doc


def _paths(value, path=()):
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _paths(item, path + (index,))


@st.composite
def fuzzed_documents(draw):
    """A well-formed document with up to three parts replaced by arbitrary
    JSON or removed."""
    doc = draw(valid_documents())
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            return draw(JSON)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(JSON)
    return doc


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["check", "verify"]), st.booleans(), fuzzed_documents())
def test_fuzzed_documents_exit_cleanly(command, as_json, doc):
    argv = [command, "-"] + (["--json"] if as_json else [])
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(json.dumps(doc))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    assert code in (0, 1, 2, 3)
    if code == 1:
        assert command == "verify"
    if code == 2:
        assert err.getvalue().startswith("input error:")
    if code == 3:
        assert err.getvalue().startswith("capacity error:")


# ---------------------------------------------------------------- command line


def run_in_process(argv):
    """Exit code, stdout and stderr of one `main` call, the `elapsed` line
    left out; the parser's exits (`SystemExit`) are caught."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    lines = err.getvalue().splitlines(keepends=True)
    err = "".join(line for line in lines if not line.startswith("elapsed: "))
    return code, out.getvalue(), err


REPEATED = (
    ["check", INDISCRETE],
    ["verify", "--json", REPRESENTABILITY],
    ["search", "--max-universe", "1", "--max-params", "1"],
    ["search"],
    ["check", "--no-such-flag", INDISCRETE],
    ["--version"],
)


def test_repeated_main_calls_give_the_first_calls_bytes():
    """Later calls in the process print the first calls' bytes and exit
    with their codes, and no default leaks from one call into the next."""
    first = [run_in_process(argv) for argv in REPEATED]
    for _ in range(2):
        assert [run_in_process(argv) for argv in REPEATED] == first
    check, verify, small, search, unknown, version = first
    assert check[0] == 0 and "induced: t0=true t1=true t2=false" in check[1]
    assert verify[0] == 0 and json.loads(verify[1])["command"] == "verify"
    assert "bounds: universe<=1 params<=1\n" in small[1]
    assert search == (0, (GOLDENS / "search_2_2.txt").read_text(), "")
    assert unknown[:2] == (2, "")
    assert unknown[2].startswith("usage: softbitop")
    assert "unrecognized arguments: --no-such-flag" in unknown[2]
    assert version == (0, "0.1.0\n", "")


CLI_SURFACE = json.loads((GOLDENS / "cli_surface.json").read_text())["cases"]


@pytest.mark.parametrize(
    "case", CLI_SURFACE, ids=[" ".join(c["argv"]) or "(none)" for c in CLI_SURFACE]
)
def test_cli_surface_matches_golden(monkeypatch, case):
    """Help, usage, errors and exit codes are the bytes argparse printed
    when it parsed the command line (tests/goldens/cli_surface.json)."""
    monkeypatch.chdir(HERE.parent)
    assert run_in_process(case["argv"]) == (case["code"], case["stdout"], case["stderr"])


# ---------------------------------------------------------------- entry point


def test_console_script_version():
    out = subprocess.run(
        [sys.executable, "-m", "softbitop.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert out.stdout.strip() == "0.1.0"


def test_import_runs_no_dataclass_code_generation():
    """The package's classes derive from `finsets.Value`, which generates
    no code per class, annotations take nothing from `typing`, and the
    command line is parsed by hand: importing the package and its CLI in
    a bare interpreter and running one `check` leaves `dataclasses`,
    `typing` and `argparse` unimported, with the `shutil`, `gettext` and
    `locale` that argparse's help formatting and messages import."""
    src = str(HERE.parent / "src")
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import softbitop, softbitop.cli; "
        f"code = softbitop.cli.main(['check', {INDISCRETE!r}]); "
        "names = 'dataclasses', 'typing', 'argparse', 'shutil', 'gettext', 'locale'; "
        "print(code, [name for name in names if name in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-E", "-S", "-c", code], capture_output=True, text=True
    )
    assert out.returncode == 0 and out.stderr.startswith("elapsed: ")
    assert out.stdout.splitlines()[-1] == "0 []"
