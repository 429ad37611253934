"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see every line.  Criteria
2, 4, 5 and 8 meet the three claims of the source theory that are false
under this package's definitions (README, "A note on the verified
theory"): the induced family is not a topology, the indiscrete pair
induces a pair that is pairwise T1 but not pairwise T2, and componentwise
pairwise T2 does not lift to pairwise soft T2.  Those tests assert the
refutation together with its witness, so each one fails if the refuted
verdict flips.  The companion test
test_theorem_suite_failures_are_localized pins that the two T2-lift rows
are the only theorem rows that fail.
"""

import itertools
import json
import time

import pytest

from softbitop import (
    BitopPair,
    ElementSpace,
    FinSet,
    SESubset,
    SoftBitopSpace,
    SoftSet,
    SoftTopology,
    canonical_topology,
    component_bitop,
    enumerate_topologies,
    induced_bitop,
    induced_topology,
    is_canonical,
    is_se_representable,
    is_soft_topology,
    pairwise_soft_t0,
    pairwise_soft_t2,
    pairwise_t1,
    pairwise_t2,
    se_of_softset,
    search_counterexamples,
    verify_theorems,
)
from softbitop.symbolic import (
    CofiniteSoftSet,
    TemplateFamily,
    decide_finite_subcover,
    truncate_family,
    truncate_soft_set,
)
from softbitop.pairwise import _diagonal_lift
from conftest import (
    random_carrier,
    random_sigma_family,
    random_soft_set,
    random_soft_topology,
    rng_for,
)
from test_finsets import brute_topologies
from test_symbolic import brute_min_subcover_size


def report(num: int, slug: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num} ({slug}): {status}"
    if detail:
        line += f" — {detail}"
    print(line)


# ------------------------------------------------------------- criterion 1


def test_criterion_1_non_representable_subset():
    start = time.monotonic()
    carrier = SoftSet.of([[0, 1], [2, 3]], 4)  # x1..x4 as 0..3
    space = ElementSpace(carrier)
    k = space.subset_of([(0, 2), (1, 3)])  # {(x1,x3),(x2,x4)}
    representable, witness = is_se_representable(k)
    elapsed = time.monotonic() - start
    ok = (not representable) and witness == (0, 3) and elapsed < 1.0
    report(1, "non-representable-subset", ok, f"witness={witness}")
    assert not representable
    assert witness == (0, 3)  # (x1, x4)
    assert elapsed < 1.0


# ------------------------------------------------------------- criterion 2


def indiscrete_square() -> SoftBitopSpace:
    """F(a1) = F(a2) = {0,1} with the indiscrete soft topology twice.

    Soft elements, in index order: (0,0), (0,1), (1,0), (1,1).
    """
    carrier = SoftSet.of([[0, 1], [0, 1]], 2)
    tau = SoftTopology.build([SoftSet.null(2, 2), carrier], carrier)
    return SoftBitopSpace(carrier, tau, tau)


# The induced family of the indiscrete square, by hand: the empty subset
# and every subset whose sections are {0,1} at both parameters.
INDISCRETE_SQUARE_INDUCED = (
    0b0000,
    0b0110,  # {(0,1),(1,0)}
    0b0111,
    0b1001,  # {(0,0),(1,1)}
    0b1011,
    0b1101,
    0b1110,
    0b1111,
)


def test_criterion_2_indiscrete_pair_induced_separation():
    start = time.monotonic()
    sp = indiscrete_square()
    t0 = pairwise_soft_t0(sp)
    fam = induced_topology(sp.tau1)
    has_diag = fam.contains_mask(0b1001)  # {(0,0),(1,1)}
    has_anti = fam.contains_mask(0b0110)  # {(0,1),(1,0)}
    induced_pair = BitopPair(fam, fam)
    t1_holds, _ = pairwise_t1(induced_pair)
    t2_holds, t2_witness = pairwise_t2(induced_pair)
    elapsed = time.monotonic() - start
    ok = (
        (not t0.holds)
        and has_diag
        and has_anti
        and t1_holds
        and not t2_holds
        and t2_witness == (0, 3)
        and elapsed < 1.0
    )
    report(
        2,
        "indiscrete-pair-induced-separation",
        ok,
        f"soft-t0={t0.holds} diag={has_diag} anti={has_anti} "
        f"induced-t1={t1_holds} induced-t2={t2_holds} (witness {t2_witness})",
    )
    assert not t0.holds
    assert has_diag and has_anti
    assert elapsed < 1.0
    # The source claims the induced pair is pairwise T2; it is only
    # pairwise T1.  The one member holding (0,0) but not (1,1) also holds
    # (0,1) and (1,0), and every member holding (1,1) meets it, so (0,0)
    # and (1,1) have no disjoint induced neighbourhoods.
    assert fam.masks == INDISCRETE_SQUARE_INDUCED
    around_00 = [m for m in fam.masks if m & 0b0001 and not m & 0b1000]
    assert around_00 == [0b0111]
    assert all(m & 0b0111 for m in fam.masks if m & 0b1000)
    assert t1_holds
    assert not t2_holds and t2_witness == (0, 3), (
        "the induced pair of the indiscrete square is pairwise T1 but not "
        "pairwise T2, least witness (0, 3); see README, 'A note on the "
        f"verified theory'. got t2={t2_holds} witness={t2_witness}"
    )


# ------------------------------------------------------------- criterion 3


def test_criterion_3_infinite_parameter_cover():
    start = time.monotonic()
    one = FinSet.of([1], 2)
    zero = FinSet.of([0], 2)
    family = TemplateFamily(2, (one, zero))
    target = CofiniteSoftSet(2, FinSet.full(2))
    decision = decide_finite_subcover(family, target)
    elapsed = time.monotonic() - start
    ok = (
        not decision.holds
        and decision.generic_union == zero
        and elapsed < 1.0
    )
    report(
        3,
        "infinite-parameter-cover",
        ok,
        f"holds={decision.holds} generic-union={set(decision.generic_union.members())}",
    )
    assert not decision.holds
    assert decision.generic_union == zero
    assert elapsed < 1.0


# ------------------------------------------------------------- criterion 4


def exhaustive_reports():
    """Every soft bitopological space with |X| <= 2, |A| <= 2, nonempty
    sections, and both topologies drawn from the deterministic pool of
    diagonal lifts and canonical products of enumerated components."""
    for n in (1, 2):
        for p in (1, 2):
            for section_masks in itertools.product(
                range(1, 1 << n), repeat=p
            ):
                carrier = SoftSet(tuple(FinSet(n, m) for m in section_masks))
                pool = []
                seen = set()
                if len(set(section_masks)) == 1:
                    for sigma in enumerate_topologies(n, carrier.section(0)):
                        tau = _diagonal_lift(carrier, sigma.opens)
                        key = tuple(h.key for h in tau.opens)
                        if key not in seen:
                            seen.add(key)
                            pool.append(tau)
                sigma_choices = [
                    enumerate_topologies(n, carrier.section(t)) for t in range(p)
                ]
                for sigmas in itertools.product(*sigma_choices):
                    tau = canonical_topology(carrier, list(sigmas))
                    key = tuple(h.key for h in tau.opens)
                    if key not in seen:
                        seen.add(key)
                        pool.append(tau)
                for tau1 in pool:
                    for tau2 in pool:
                        sp = SoftBitopSpace(carrier, tau1, tau2)
                        yield sp, verify_theorems(sp)


def collect_failures():
    failures = {}
    total = 0
    for _, rep in exhaustive_reports():
        total += 1
        for c in rep.checks:
            if c.applicable and not c.passed:
                failures[c.name] = failures.get(c.name, 0) + 1
    return total, failures


T2_LIFT_ROWS = frozenset(
    {
        "component-t2-implies-soft-t2-on-canonical",
        "canonical-componentwise-equivalence-t2",
    }
)


def shares_coordinate(a, b) -> bool:
    return any(x == y for x, y in zip(a, b))


def test_criterion_4_theorem_suite_zero_failures():
    start = time.monotonic()
    total = 0
    other_failures: dict[str, int] = {}
    lift_failures = []
    lift_holds_wrongly = []
    for sp, rep in exhaustive_reports():
        total += 1
        failed = {c.name for c in rep.checks if c.applicable and not c.passed}
        for name in sorted(failed - T2_LIFT_ROWS):
            other_failures[name] = other_failures.get(name, 0) + 1
        # Soft disjointness needs an empty intersection at every
        # parameter, so two distinct soft elements that share a
        # coordinate never get soft-disjoint neighbourhoods.  On a
        # canonical space whose component pairs are all pairwise T2, the
        # T2 lift therefore fails whenever such a pair exists.
        canonical = is_canonical(sp.tau1) and is_canonical(sp.tau2)
        components_t2 = all(
            pairwise_t2(component_bitop(sp, t))[0]
            for t in range(sp.soft_set.param_count)
        )
        if failed & T2_LIFT_ROWS:
            witness = pairwise_soft_t2(sp).witness
            lift_failures.append((canonical, components_t2, witness))
        elif canonical and components_t2 and any(
            shares_coordinate(a, b)
            for a, b in itertools.combinations(sp.space.elements, 2)
        ):
            lift_holds_wrongly.append(sp)
    elapsed = time.monotonic() - start
    explained = all(
        canonical and components_t2 and shares_coordinate(*witness)
        for canonical, components_t2, witness in lift_failures
    )
    ok = (
        not other_failures
        and bool(lift_failures)
        and explained
        and not lift_holds_wrongly
        and elapsed < 300
    )
    report(
        4,
        "exhaustive-theorem-suite",
        ok,
        f"{total} spaces in {elapsed:.1f}s, other failures="
        f"{other_failures or 'none'}, t2-lift failures={len(lift_failures)} "
        f"(witnesses {[w for *_, w in lift_failures]})",
    )
    assert elapsed < 300
    assert total > 400
    assert not other_failures, (
        f"only the two T2-lift rows may fail; failures={other_failures}"
    )
    # The source claims componentwise pairwise T2 lifts to pairwise soft
    # T2 on canonical spaces.  Each failure of the lift must be explained
    # by the argument above, and no space it covers may escape it.
    assert lift_failures
    for canonical, components_t2, witness in lift_failures:
        assert canonical
        assert components_t2
        assert shares_coordinate(*witness), (
            "the T2 lift fails only on soft elements that share a "
            "coordinate; see README, 'A note on the verified theory'. "
            f"witness={witness}"
        )
    assert not lift_holds_wrongly, (
        "two soft elements sharing a coordinate cannot be soft-separated, "
        f"yet the T2 lift passed on {len(lift_holds_wrongly)} spaces"
    )


def test_theorem_suite_failures_are_localized():
    """Green companion to criterion 4: the only failing statements are the
    two t2 componentwise-lift entries, and they fail on exactly the
    canonical spaces whose components are all pairwise t2."""
    total, failures = collect_failures()
    assert total == 497
    assert set(failures) == {
        "component-t2-implies-soft-t2-on-canonical",
        "canonical-componentwise-equivalence-t2",
    }
    assert failures["component-t2-implies-soft-t2-on-canonical"] == 5
    assert failures["canonical-componentwise-equivalence-t2"] == 5


# ------------------------------------------------------------- criterion 5


def test_criterion_5_structural_oracles():
    start = time.monotonic()

    rng = rng_for("acceptance-induced")
    induced_bad = 0
    for _ in range(1000):
        carrier = random_carrier(rng)
        tau = random_soft_topology(rng, carrier)
        masks = set(induced_topology(tau).masks)
        full = (1 << ElementSpace(carrier).size) - 1
        if not (
            0 in masks
            and full in masks
            and all(a | b in masks for a in masks for b in masks)
        ):
            induced_bad += 1

    # The induced family is not intersection-closed, so not a topology:
    # in the indiscrete square, {(0,0),(1,1)} and {(0,0),(0,1),(1,0)} are
    # members, their intersection {(0,0)} is not.
    square = induced_topology(indiscrete_square().tau1)
    intersection_witness = (
        square.contains_mask(0b1001)
        and square.contains_mask(0b0111)
        and not square.contains_mask(0b1001 & 0b0111)
    )

    rng = rng_for("acceptance-canonical")
    canonical_bad = 0
    for _ in range(1000):
        carrier = random_carrier(rng)
        sigmas = random_sigma_family(rng, carrier)
        tau = canonical_topology(carrier, sigmas)
        if not is_soft_topology(tau.opens, carrier):
            canonical_bad += 1

    rng = rng_for("acceptance-sections")
    # representable pairs SE(G), SE(H) come from their own stream, so the
    # draws of arbitrary pairs stay as they were
    rep_rng = rng_for("acceptance-representable")
    union_bad = 0
    inclusion_bad = 0
    representable_bad = 0
    representable_pairs = 0
    for _ in range(10000):
        carrier = random_carrier(rng)
        space = ElementSpace(carrier)
        size = space.size
        a = SESubset(space, rng.randint(0, (1 << size) - 1))
        b = SESubset(space, rng.randint(0, (1 << size) - 1))
        g = se_of_softset(space, random_soft_set(rep_rng, carrier))
        h = se_of_softset(space, random_soft_set(rep_rng, carrier))
        gh = g & h
        representable_pairs += bool(gh.mask)
        for t in range(carrier.param_count):
            if (a | b).section(t) != (a.section(t) | b.section(t)):
                union_bad += 1
            if not (a & b).section(t).issubset(a.section(t) & b.section(t)):
                inclusion_bad += 1
            if gh.mask and gh.section(t) != (g.section(t) & h.section(t)):
                representable_bad += 1

    # Equality fails for arbitrary subsets, even with a nonempty
    # intersection: {(0,0),(1,1)} & {(0,1),(1,1)} = {(1,1)}, whose first
    # section {1} is strictly inside {0,1} & {0,1}.
    square_space = indiscrete_square().space
    diag = square_space.subset_of([(0, 0), (1, 1)])
    top = square_space.subset_of([(0, 1), (1, 1)])
    section_witness = (diag & top).section(0) == FinSet.of([1], 2) and (
        diag.section(0) & top.section(0)
    ) == FinSet.of([0, 1], 2)

    elapsed = time.monotonic() - start
    ok = (
        induced_bad == 0
        and intersection_witness
        and canonical_bad == 0
        and union_bad == 0
        and inclusion_bad == 0
        and representable_bad == 0
        and representable_pairs >= 1000
        and section_witness
        and elapsed < 120
    )
    report(
        5,
        "structural-oracles",
        ok,
        f"induced-not-union-closed={induced_bad}/1000 "
        f"intersection-witness={intersection_witness} "
        f"canonical-bad={canonical_bad}/1000 union-bad={union_bad} "
        f"inclusion-bad={inclusion_bad} representable-bad="
        f"{representable_bad}/{representable_pairs} "
        f"section-witness={section_witness} in {elapsed:.1f}s",
    )
    assert elapsed < 120
    assert canonical_bad == 0
    assert union_bad == 0
    # The source calls the induced family a topology; it holds the empty
    # and full subsets and is union-closed, but not intersection-closed.
    assert induced_bad == 0, "the induced family must be union-closed"
    assert intersection_witness, (
        "the induced family is not intersection-closed; see README, "
        "'A note on the verified theory'"
    )
    # Sections of an intersection lie inside the intersection of
    # sections, with equality for nonempty intersections of representable
    # subsets, but not for arbitrary ones.
    assert inclusion_bad == 0
    assert representable_pairs >= 1000
    assert representable_bad == 0
    assert section_witness, (
        "sections of a nonempty intersection can be strictly smaller than "
        "intersections of sections; see README, 'A note on the verified "
        "theory'"
    )


# ------------------------------------------------------------- criterion 6


def test_criterion_6_enumeration_cross_check():
    counts = [len(enumerate_topologies(n)) for n in (1, 2, 3)]
    oracle = [len(brute_topologies(n)) for n in (1, 2, 3)]
    ok = counts == [1, 4, 29] and oracle == counts
    report(6, "enumeration-cross-check", ok, f"counts={counts} oracle={oracle}")
    assert counts == [1, 4, 29]
    assert oracle == counts


# ------------------------------------------------------------- criterion 7


def test_criterion_7_truncation_consistency():
    start = time.monotonic()
    one = FinSet.of([1], 2)
    zero = FinSet.of([0], 2)
    full = FinSet.full(2)
    target = CofiniteSoftSet(2, full)
    spikes = TemplateFamily(2, (one, zero))
    with_full = TemplateFamily(2, (one, zero), (CofiniteSoftSet(2, full),))
    agree = True
    details = []
    for m in range(2, 7):
        t = truncate_soft_set(target, m)
        # symbolic NO must show up as unboundedly growing minima
        no_size = brute_min_subcover_size(truncate_family(spikes, m), t)
        agree &= (no_size == m) and not decide_finite_subcover(
            spikes, target
        ).holds
        # symbolic YES must match the finite minimum at every truncation
        yes_decision = decide_finite_subcover(with_full, target)
        yes_size = brute_min_subcover_size(truncate_family(with_full, m), t)
        agree &= yes_decision.holds and yes_size == len(yes_decision.witness)
        details.append(f"m={m}:no={no_size},yes={yes_size}")
    elapsed = time.monotonic() - start
    ok = agree and elapsed < 60
    report(7, "truncation-consistency", ok, " ".join(details))
    assert agree
    assert elapsed < 60


# ------------------------------------------------------------- criterion 8


def test_criterion_8_counterexample_search():
    first = search_counterexamples(2, 2)
    second = search_counterexamples(2, 2)
    byte_identical = json.dumps(
        first.not_t0_but_induced_t2 + first.strict_enlargements
    ) == json.dumps(second.not_t0_but_induced_t2 + second.strict_enlargements)
    indiscrete_opens = [[[], []], [[0, 1], [0, 1]]]
    diagonal_discrete_opens = [[[], []], [[0], [0]], [[1], [1]], [[0, 1], [0, 1]]]
    pairs = [
        (e["tau1_opens"], e["tau2_opens"]) for e in first.not_t0_but_induced_t2
    ]
    contains_indiscrete_pair = (indiscrete_opens, indiscrete_opens) in pairs
    contains_mixed_pair = (indiscrete_opens, diagonal_discrete_opens) in pairs
    predicate_ok = all(meets_class_i(e) for e in first.not_t0_but_induced_t2)
    ok = (
        byte_identical
        and first.not_t0_but_induced_t2
        and first.strict_enlargements
        and not contains_indiscrete_pair
        and contains_mixed_pair
        and predicate_ok
    )
    report(
        8,
        "counterexample-search",
        bool(ok),
        f"class-i={len(first.not_t0_but_induced_t2)} "
        f"class-ii={len(first.strict_enlargements)} "
        f"deterministic={byte_identical} "
        f"contains-indiscrete-pair={contains_indiscrete_pair} "
        f"contains-indiscrete-with-diagonal-discrete={contains_mixed_pair} "
        f"predicate-rechecked={predicate_ok}",
    )
    assert first.not_t0_but_induced_t2
    assert first.strict_enlargements
    assert byte_identical
    # The source lists the indiscrete pair in class (i), but its induced
    # pair is not pairwise T2 (criterion 2), so it fails the class's own
    # predicate.  Pairing the indiscrete topology with the diagonal lift
    # of the discrete one does qualify: the space is not soft T0 and the
    # second induced family is discrete, so the induced pair is T2.
    assert not contains_indiscrete_pair, (
        "class (i) requires an induced pairwise-T2 pair, which the "
        "indiscrete pair does not have; see README, 'A note on the "
        "verified theory'"
    )
    assert contains_mixed_pair
    carrier = SoftSet.of([[0, 1], [0, 1]], 2)
    second = soft_topology(carrier, diagonal_discrete_opens)
    assert len(induced_topology(second)) == 1 << 4  # every subset of SE
    assert predicate_ok


def soft_topology(carrier: SoftSet, opens) -> SoftTopology:
    n = carrier.universe_size
    return SoftTopology.build([SoftSet.of(h, n) for h in opens], carrier)


def meets_class_i(entry: dict) -> bool:
    """Rebuild a class-(i) entry from its opens: not pairwise soft T0, and
    its induced pair pairwise T2."""
    n, p = entry["universe_size"], entry["param_count"]
    carrier = SoftSet.of([range(n)] * p, n)
    sp = SoftBitopSpace(
        carrier,
        soft_topology(carrier, entry["tau1_opens"]),
        soft_topology(carrier, entry["tau2_opens"]),
    )
    return not pairwise_soft_t0(sp).holds and pairwise_t2(induced_bitop(sp))[0]
