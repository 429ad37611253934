import gc
import itertools
import tracemalloc
from collections import Counter

import pytest

from softbitop import (
    BitopPair,
    CapacityError,
    ClassicalTopology,
    ElementSpace,
    FinSet,
    InputError,
    NotACoverError,
    SEFamily,
    SoftBitopSpace,
    SoftCover,
    SoftSet,
    SoftTopology,
    canonical_topology,
    component_bitop,
    cylinder,
    enumerate_topologies,
    find_finite_subcover,
    induced_bitop,
    is_pairwise_soft_cover,
    pairwise_soft_t0,
    pairwise_soft_t1,
    pairwise_soft_t2,
    pairwise_t0,
    pairwise_t1,
    pairwise_t2,
    search_counterexamples,
    verify_theorems,
)
from softbitop import pairwise, softtop
from softbitop.finsets import _min_cover
from softbitop.pairwise import Verdict, candidate_soft_topologies
from softbitop.softsets import flat_soft_set

import oracles

SQUARE = SoftSet.of([[0, 1], [0, 1]], 2)
LINE = SoftSet.of([[0, 1]], 2)


def soft_indiscrete(ambient):
    null = SoftSet.null(ambient.param_count, ambient.universe_size)
    return SoftTopology.build([null, ambient], ambient)


def soft_discrete(ambient):
    n = ambient.universe_size
    choices = [
        [FinSet(n, m) for m in range(1 << n) if FinSet(n, m).issubset(s)]
        for s in ambient.sections
    ]
    return SoftTopology.build(
        [SoftSet(c) for c in itertools.product(*choices)], ambient
    )


def indiscrete_space(ambient=SQUARE):
    tau = soft_indiscrete(ambient)
    return SoftBitopSpace(ambient, tau, tau)


def discrete_space(ambient=SQUARE):
    tau = soft_discrete(ambient)
    return SoftBitopSpace(ambient, tau, tau)


# ---------------------------------------------------------------- separation


def test_indiscrete_pair_not_soft_t0():
    verdict = pairwise_soft_t0(indiscrete_space())
    assert not verdict.holds
    assert verdict.witness == ((0, 0), (0, 1))


def test_discrete_pair_soft_t1():
    sp = discrete_space()
    assert pairwise_soft_t0(sp).holds
    assert pairwise_soft_t1(sp).holds


def test_discrete_pair_soft_t2_needs_disjoint_sections_everywhere():
    # Soft disjointness asks every section of the intersection to be
    # empty, so elements sharing any coordinate can never be separated.
    verdict = pairwise_soft_t2(discrete_space())
    assert not verdict.holds
    assert verdict.witness == ((0, 0), (0, 1))
    # with a single parameter there is no shared coordinate to collide on
    assert pairwise_soft_t2(discrete_space(LINE)).holds


def test_soft_deciders_memory_on_16384_soft_elements():
    """2 points x 14 parameters, both topologies {null, ambient}.  Every
    least open is the ambient, so each decider fails at the first pair,
    (0, 1), once its tables are built.  The tables hold O(|SE|.cells)
    bits; one |SE| x |SE| bit matrix alone would take 32 MB."""
    ambient = SoftSet.of([range(2)] * 14, 2)
    null = SoftSet.null(14, 2)
    tau1, tau2 = (SoftTopology.build([null, ambient], ambient) for _ in range(2))
    space = SoftBitopSpace(ambient, tau1, tau2)
    tracemalloc.start()
    try:
        verdicts = [
            decide(space)
            for decide in (pairwise_soft_t0, pairwise_soft_t1, pairwise_soft_t2)
        ]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    first, second = (0,) * 14, (0,) * 13 + (1,)
    assert [v.holds for v in verdicts] == [False] * 3
    assert [v.witness for v in verdicts] == [(first, second)] * 3
    assert peak < 8 << 20, peak
    # The witnesses are decoded from their indices: no element list.
    assert "elements" not in vars(space.space)


def side_2x11(x):
    """The canonical topology on 2 points x 11 parameters whose component
    at every parameter is {empty, {x}, both points}: 3^11 = 177,147 opens."""
    ambient = SoftSet.of([range(2)] * 11, 2)
    opens = [FinSet.empty(2), FinSet.of([x], 2), FinSet.full(2)]
    sigma = ClassicalTopology.build(opens, 2)
    return canonical_topology(ambient, [sigma] * 11)


def test_soft_deciders_on_2048_soft_elements(monkeypatch):
    """tau1 with {u0} at every parameter and tau2 with {u1}: the pair is
    soft T0 but neither soft T1 nor soft T2.  Soft T2 is read from the
    carrier's shape and reads no least open.  The tables of T0 and T1 are
    read from the least cell neighbourhoods, which a canonical topology
    reads from the least opens of the components it keeps: neither
    topology scans its opens, where a scan would take one pass per
    ambient cell (22 cells)."""
    calls, reads = Counter(), Counter()
    least, least_opens = softtop._least, SoftTopology.least_opens

    def counting(masks, carrier, x):
        calls[id(masks)] += 1
        return least(masks, carrier, x)

    def reading(tau):
        reads[id(tau)] += 1
        return least_opens.func(tau)

    monkeypatch.setattr(softtop, "_least", counting)
    monkeypatch.setattr(SoftTopology, "least_opens", property(reading))
    tau1, tau2 = side_2x11(0), side_2x11(1)
    space = SoftBitopSpace(tau1.ambient, tau1, tau2)
    zero, last = (0,) * 11, (0,) * 10 + (1,)
    t2 = pairwise_soft_t2(space)
    assert not reads
    assert pairwise_soft_t0(space) == Verdict(True)
    t1 = pairwise_soft_t1(space)
    assert (t1.holds, t1.witness) == (False, (last, zero))
    assert (t2.holds, t2.witness) == (False, (zero, last))
    assert not calls


def test_soft_t2_on_a_million_soft_elements():
    """The indiscrete pair on 2 points x 20 parameters, 2^20 soft elements:
    soft T2 is read from the shape, without enumerating them."""
    space = indiscrete_space(SoftSet.of([range(2)] * 20, 2))
    zero, last = (0,) * 20, (0,) * 19 + (1,)
    assert pairwise_soft_t2(space) == Verdict(
        False, (zero, last), "least unseparated ordered pair"
    )
    assert "elements" not in vars(space.space)


def test_soft_t0_witness_is_the_least_pair_of_the_scan():
    """4 points x 1 parameter, both topologies {{}, {0, 3}, {1, 2}, all}:
    the least opens repeat in the order A B B A, so (1, 2) is the first
    repeat met and (0, 3) the least pair of the i-major scan."""
    ambient = SoftSet.of([range(4)], 4)
    opens = [SoftSet.of([ms], 4) for ms in ([], [0, 3], [1, 2], range(4))]
    tau = SoftTopology.build(opens, ambient)
    space = SoftBitopSpace(ambient, tau, tau)
    assert tau.least_opens == (0b1001, 0b0110, 0b0110, 0b1001)
    verdict = pairwise_soft_t0(space)
    assert verdict == oracles.pairwise_soft_t0(space)
    assert (verdict.holds, verdict.witness) == (False, ((0,), (3,)))


@pytest.mark.parametrize(
    "tau2_opens, witness",
    [([[], [1], [0, 1]], ((1,), (0,))), ([[], [0], [0, 1]], ((0,), (1,)))],
)
def test_soft_t1_witness_is_the_least_pair_of_the_scan(tau2_opens, witness):
    """2 points x 1 parameter, the first topology discrete and the second
    {{}, {x}, {0, 1}}: every open of the second around the other point y
    holds x, so (x, y) is the only unseparated ordered pair, whichever of
    the two points x is."""
    ambient = SoftSet.of([range(2)], 2)
    tau1 = soft_discrete(ambient)
    tau2 = SoftTopology.build([SoftSet.of([ms], 2) for ms in tau2_opens], ambient)
    space = SoftBitopSpace(ambient, tau1, tau2)
    verdict = pairwise_soft_t1(space)
    assert verdict == oracles.pairwise_soft_t1(space)
    assert (verdict.holds, verdict.witness) == (False, witness)


def test_soft_t0_and_t1_read_no_inside(monkeypatch):
    """Soft T0 and T1 are decided on the least opens alone, in the
    deciders and in the search."""

    def refuse(space, f):
        raise AssertionError("inside read")

    monkeypatch.setattr(ElementSpace, "inside", refuse)
    for decide in (pairwise_soft_t0, pairwise_soft_t1):
        assert not decide(indiscrete_space()).holds
        assert decide(discrete_space()).holds
    assert len(search_counterexamples(2, 2).not_t0_but_induced_t2) == 11


@pytest.mark.parametrize("n", [1, 2, 3])
def test_component_t0_is_soft_t0_on_one_parameter(n):
    """With one parameter the soft elements are the points as 1-tuples and
    each least soft open is the component's U(x): T0 of the component pair
    and soft T0 are one rule, with one least witness."""
    pool = candidate_soft_topologies(n, 1)
    ambient = pool[0].ambient
    for tau1 in pool:
        for tau2 in pool:
            space = SoftBitopSpace(ambient, tau1, tau2)
            holds, witness = pairwise_t0(component_bitop(space, 0))
            lifted = witness and tuple((x,) for x in witness)
            soft = pairwise_soft_t0(space)
            assert (soft.holds, soft.witness) == (holds, lifted)


def test_mixed_pair_soft_t0():
    sp = SoftBitopSpace(SQUARE, soft_discrete(SQUARE), soft_indiscrete(SQUARE))
    assert pairwise_soft_t0(sp).holds
    assert not pairwise_soft_t1(sp).holds


def test_space_requires_matching_ambient():
    with pytest.raises(InputError):
        SoftBitopSpace(LINE, soft_indiscrete(SQUARE), soft_indiscrete(SQUARE))
    tau = soft_indiscrete(SQUARE)
    with pytest.raises(TypeError):
        SoftBitopSpace(SQUARE, tau, tau, ElementSpace(SQUARE))
    assert SoftBitopSpace(SQUARE, tau, tau).space == ElementSpace(SQUARE)


def test_space_past_the_materialization_guard_is_refused_when_built():
    """2 points x 21 parameters hold 2^21 soft elements, past
    SE_MATERIALIZATION_LIMIT: the space is refused when it is built,
    before anything is decided on it."""
    with pytest.raises(CapacityError, match="soft-element count 2097152 exceeds"):
        indiscrete_space(SoftSet.of([range(2)] * 21, 2))


# ---------------------------------------------------------------- views


def test_component_bitop_of_canonical():
    sigma0 = enumerate_topologies(2)[3]  # discrete
    sigma1 = enumerate_topologies(2)[0]  # indiscrete
    tau = canonical_topology(SQUARE, [sigma0, sigma1])
    sp = SoftBitopSpace(SQUARE, tau, tau)
    pair0 = component_bitop(sp, 0)
    assert set(pair0.first.open_masks) == set(sigma0.open_masks)
    pair1 = component_bitop(sp, 1)
    assert set(pair1.first.open_masks) == set(sigma1.open_masks)


def test_induced_bitop_of_indiscrete_square():
    pair = induced_bitop(indiscrete_space())
    assert pairwise_t1(pair)[0]
    holds, witness = pairwise_t2(pair)
    assert not holds
    # indices 0 and 3 are the diagonal elements (0,0) and (1,1)
    assert witness == (0, 3)


def test_induced_bitop_of_discrete_square_is_t2():
    pair = induced_bitop(discrete_space())
    assert pairwise_t2(pair)[0]


# ---------------------------------------------------------------- covers


def test_cover_verdicts():
    sp = indiscrete_space()
    good = SoftCover(sp, SQUARE, ((SQUARE, "both"),))
    assert is_pairwise_soft_cover(good).holds
    null = SoftSet.null(2, 2)
    bad = SoftCover(sp, SQUARE, ((null, "both"),))
    verdict = is_pairwise_soft_cover(bad)
    assert not verdict.holds
    assert verdict.witness == (0, 0)


def test_cover_rejects_non_open_member():
    sp = indiscrete_space()
    h = SoftSet.of([[0], [0, 1]], 2)
    verdict = is_pairwise_soft_cover(SoftCover(sp, SQUARE, ((h, "tau1"),)))
    assert not verdict.holds
    assert verdict.witness == 0


def test_cover_rejects_bad_tag():
    with pytest.raises(InputError):
        SoftCover(indiscrete_space(), SQUARE, ((SQUARE, "tau3"),))


def test_find_finite_subcover_prefers_small_and_early():
    sp = discrete_space()
    members = tuple(
        (h, "tau1") for h in sp.tau1.opens
    )
    cover = SoftCover(sp, SQUARE, members)
    sub = find_finite_subcover(cover)
    assert len(sub) == 1
    assert sub[0][0] == SQUARE


def test_find_finite_subcover_needs_two_cylinders():
    sp = discrete_space()
    c0 = cylinder(sp, 0, FinSet.of([0], 2), "tau1").soft_set
    c1 = cylinder(sp, 0, FinSet.of([1], 2), "tau1").soft_set
    c2 = cylinder(sp, 1, FinSet.of([0], 2), "tau2").soft_set
    cover = SoftCover(sp, SQUARE, ((c0, "tau1"), (c1, "tau1"), (c2, "tau2")))
    sub = find_finite_subcover(cover)
    # the two parameter-0 cylinders already cover; lexicographically least
    assert [m for m, _ in sub] == [c0, c1]


def test_find_finite_subcover_rejects_non_cover():
    sp = indiscrete_space()
    null = SoftSet.null(2, 2)
    with pytest.raises(NotACoverError):
        find_finite_subcover(SoftCover(sp, SQUARE, ((null, "both"),)))


def test_cover_search_leaves_no_cyclic_garbage():
    """The recursive search of `_min_cover` is freed by refcounting on
    return, so a call leaves nothing for the cyclic collector."""
    sp = discrete_space()
    cover = SoftCover(sp, SQUARE, tuple((h, "tau1") for h in sp.tau1.opens))
    gc.collect()
    gc.disable()
    try:
        assert _min_cover([0b001, 0b010, 0b110], 0b111) == (0, 2)
        assert _min_cover([0b001], 0b011) is None
        assert [m for m, _ in find_finite_subcover(cover)] == [SQUARE]
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------- cylinders


def test_cylinder_shape():
    sp = discrete_space()
    cyl = cylinder(sp, 0, FinSet.of([1], 2), "tau1")
    assert cyl.soft_set == SoftSet.of([[1], [0, 1]], 2)
    assert cyl.open_in_tagged  # the topology is canonical


def test_cylinder_full_base_is_carrier():
    sp = discrete_space()
    assert cylinder(sp, 1, FinSet.full(2), "tau2").soft_set == SQUARE


def test_cylinder_not_open_in_non_canonical():
    ambient = SQUARE
    diag = SoftSet.of([[0], [0]], 2)
    tau = SoftTopology.build(
        [SoftSet.null(2, 2), diag, ambient], ambient
    )
    sp = SoftBitopSpace(ambient, tau, tau)
    cyl = cylinder(sp, 0, FinSet.of([0], 2), "tau1")
    assert cyl.soft_set == SoftSet.of([[0], [0, 1]], 2)
    assert not cyl.open_in_tagged


def test_cylinder_reports_membership_on_a_canonical_topology(monkeypatch):
    """Membership is reported as computed, even where the theory says a
    cylinder over a canonical topology is open."""
    sp = discrete_space()
    monkeypatch.setattr(SoftTopology, "contains", lambda tau, h: False)
    assert not cylinder(sp, 0, FinSet.of([0], 2), "tau1").open_in_tagged


def test_cylinder_rejects_non_open_base():
    sp = indiscrete_space()
    with pytest.raises(InputError):
        cylinder(sp, 0, FinSet.of([0], 2), "tau1")


# ---------------------------------------------------------------- harness


def test_verify_theorems_on_indiscrete_square():
    report = verify_theorems(indiscrete_space())
    assert report.all_passed
    by_name = {c.name: c for c in report.checks}
    assert not by_name["component-t2-implies-soft-t2-on-canonical"].applicable
    assert by_name["induced-families-union-closed"].passed
    assert by_name["finite-params-subcover-exists"].passed


def test_verify_theorems_flags_canonical_t2_gap():
    """Documents the one genuine failure: componentwise pairwise t2 does
    not lift to pairwise soft t2, even on canonical topologies."""
    sp = discrete_space()
    report = verify_theorems(sp)
    failed = sorted(c.name for c in report.checks if c.applicable and not c.passed)
    assert failed == [
        "canonical-componentwise-equivalence-t2",
        "component-t2-implies-soft-t2-on-canonical",
    ]


def test_verify_theorems_exhaustive_small():
    ambient = SQUARE
    pool = candidate_soft_topologies(2, 2)
    allowed_failures = {
        "component-t2-implies-soft-t2-on-canonical",
        "canonical-componentwise-equivalence-t2",
    }
    for tau1 in pool[:6]:
        for tau2 in pool[:6]:
            report = verify_theorems(SoftBitopSpace(ambient, tau1, tau2))
            for c in report.checks:
                if c.applicable and not c.passed:
                    assert c.name in allowed_failures


def test_verify_theorems_builds_each_component_once(monkeypatch):
    """Components are built from the opens only for tau2, which
    `soft_discrete` builds from listed opens, once per parameter.  The
    canonical tau1, both enlargements and the reconstructions keep the
    components they were built from."""
    builds = Counter()
    alive = []
    build = softtop._build_component

    def counting(tau, t):
        alive.append(tau)
        builds[id(tau), t] += 1
        return build(tau, t)

    monkeypatch.setattr(softtop, "_build_component", counting)
    indiscrete, sierpinski = enumerate_topologies(2)[:2]
    tau1 = canonical_topology(SQUARE, [sierpinski, indiscrete])
    tau2 = soft_discrete(SQUARE)
    report = verify_theorems(SoftBitopSpace(SQUARE, tau1, tau2))
    assert all(c.applicable for c in report.checks)
    assert builds == {(id(tau2), 0): 1, (id(tau2), 1): 1}, builds


def test_verify_theorems_filters_once_per_family(monkeypatch):
    """The reconstructions and the enlargement row filter nothing, so
    verify builds just the two induced families."""
    built = Counter()
    init = softtop.SEFamily.__init__

    def counting(self, space, masks):
        built["families"] += 1
        init(self, space, masks)

    monkeypatch.setattr(softtop.SEFamily, "__init__", counting)
    indiscrete, sierpinski = enumerate_topologies(2)[:2]
    tau1 = canonical_topology(SQUARE, [sierpinski, indiscrete])
    space = SoftBitopSpace(SQUARE, tau1, soft_discrete(SQUARE))
    verify_theorems(space)
    assert built["families"] == 2


def test_separation_is_decided_once_per_space(monkeypatch):
    """verify_theorems reads the space's cached separation record, so a
    second run on the same space runs no soft decider."""
    calls = Counter()
    for name in ("pairwise_soft_t0", "pairwise_soft_t1", "pairwise_soft_t2"):
        original = getattr(pairwise, name)

        def counting(space, name=name, original=original):
            calls[name] += 1
            return original(space)

        monkeypatch.setattr(pairwise, name, counting)
    space = discrete_space()
    first, second = verify_theorems(space), verify_theorems(space)
    assert first == second
    assert set(calls.values()) == {1} and len(calls) == 3
    assert space.separation.soft == (
        pairwise_soft_t0(space),
        pairwise_soft_t1(space),
        pairwise_soft_t2(space),
    )


def test_verify_theorems_fails_transport_on_a_non_open_cylinder(monkeypatch):
    """A cylinder that is not open fails the transport row; it raises
    nothing.  The cylinder {0} x F at parameter 0 is taken out of the
    open set the row tests cylinders against."""
    indiscrete, sierpinski = enumerate_topologies(2)[:2]
    tau = canonical_topology(SQUARE, [sierpinski, indiscrete])
    cyl = flat_soft_set(SoftSet.of([[0], [0, 1]], 2))
    assert cyl in tau.flat_open_set
    monkeypatch.setitem(vars(tau), "flat_open_set", tau.flat_open_set - {cyl})
    report = verify_theorems(SoftBitopSpace(SQUARE, tau, tau))
    failed = [c.name for c in report.checks if c.applicable and not c.passed]
    assert failed == ["cylinder-cover-transport"]


@pytest.mark.parametrize("ambient", [LINE, SQUARE], ids=["1x2", "2x2"])
def test_verify_theorems_fails_the_enlargement_row_on_a_dropped_open(
    monkeypatch, ambient
):
    """The enlargement row reads the enlargement from its opens, not from
    the components it keeps.  With canonical_topology dropping its next
    to last open, the discrete topology and its enlargement lose it
    alike, so the enlargement still contains the topology.  On one
    parameter the lost open is a lost section; on two, every section is
    still there, but the enlargement is short of the whole product.
    Either way the row fails."""
    row = "canonical-enlargement-contains-and-preserves"
    discrete = ClassicalTopology.build([FinSet(2, m) for m in range(4)], 2)
    sigmas = [discrete] * ambient.param_count

    def failed(tau):
        report = verify_theorems(SoftBitopSpace(ambient, tau, tau))
        return [c.name for c in report.checks if c.applicable and not c.passed]

    assert row not in failed(canonical_topology(ambient, sigmas))
    build = softtop.canonical_topology

    def dropping(ambient, sigmas):
        tau = build(ambient, sigmas)
        cut = SoftTopology(ambient, tau.flat_opens[:-2] + tau.flat_opens[-1:])
        object.__setattr__(cut, "_components", tau.components)
        return cut

    monkeypatch.setattr(softtop, "canonical_topology", dropping)
    tau = softtop.canonical_topology(ambient, sigmas)
    assert len(tau) == 4**ambient.param_count - 1
    assert row in failed(tau)


def test_verify_theorems_fails_union_closure_on_a_dropped_union(monkeypatch):
    """The union-closure row reads each induced family's subset table.  On
    3 points x 1 parameter, discrete against indiscrete, with
    induced_topology dropping the member 0b011, the union of 0b001 and
    0b010, that row fails and every other row is as it was."""
    row = "induced-families-union-closed"
    ambient = SoftSet.of([[0, 1, 2]], 3)

    def checks():
        tau1, tau2 = soft_discrete(ambient), soft_indiscrete(ambient)
        report = verify_theorems(SoftBitopSpace(ambient, tau1, tau2))
        return {c.name: c for c in report.checks}

    before = checks()
    assert len(before) == 21 and before.pop(row).passed
    induce = softtop.induced_topology

    def dropping(tau):
        family = induce(tau)
        return SEFamily(family.space, tuple(m for m in family.masks if m != 0b011))

    monkeypatch.setattr(softtop, "induced_topology", dropping)
    after = checks()
    assert not after.pop(row).passed
    assert after == before


# ---------------------------------------------------------------- search


def test_candidate_pool_is_deduplicated():
    pool = candidate_soft_topologies(2, 2)
    keys = [tuple(h.key for h in tau.opens) for tau in pool]
    assert len(keys) == len(set(keys))
    assert len(pool) == 20


def test_search_trivial_bounds():
    result = search_counterexamples(1, 1)
    assert result.not_t0_but_induced_t2 == ()
    assert result.strict_enlargements == ()


def test_search_finds_both_classes():
    result = search_counterexamples(2, 2)
    assert len(result.not_t0_but_induced_t2) == 11
    assert len(result.strict_enlargements) == 5
    # a diagonal lift of the discrete topology is the canonical witness:
    # it cannot be soft t0 (constant sections cannot tell (0,1) from
    # (1,0)) while its induced pair is discrete, hence pairwise t2
    diag_discrete = [
        e
        for e in result.not_t0_but_induced_t2
        if e["tau1_index"] == e["tau2_index"] and len(e["tau1_opens"]) == 4
        and e["param_count"] == 2
    ]
    assert diag_discrete
    # the indiscrete pair is NOT in this class: its induced pair is
    # pairwise t1 but not pairwise t2
    for e in result.not_t0_but_induced_t2:
        assert e["tau1_opens"] != [[[], []], [[0, 1], [0, 1]]] or e[
            "tau2_opens"
        ] != [[[], []], [[0, 1], [0, 1]]]


def test_search_at_3x2_reads_the_canonical_t0_theorem():
    """Class (i) at n = 3, p = 2 holds every pair of the pool that is not
    soft T0 (98,065), as the induced verdicts of that shape all hold.  A
    canonical pair is soft T0 iff each component pair is pairwise T0, so
    the pairs of class (i) whose two entries are canonical (by
    `oracles.is_canonical_by_cells`) are exactly the ordered pairs of
    canonical products with some component pair that `oracles.pairwise_t0`
    finds not T0: 841^2 - 795^2, as 795 of the 841 pairs of 3-point
    topologies are T0."""
    found = [
        (e["tau1_index"], e["tau2_index"])
        for e in search_counterexamples(3, 2).not_t0_but_induced_t2
        if (e["universe_size"], e["param_count"]) == (3, 2)
    ]
    assert len(found) == 98_065
    pool = candidate_soft_topologies(3, 2)
    topos = enumerate_topologies(3)
    t0 = {
        (a, b)
        for (a, sa), (b, sb) in itertools.product(enumerate(topos), repeat=2)
        if oracles.pairwise_t0(BitopPair(sa, sb))[0]
    }
    assert len(topos) ** 2 == 841 and len(t0) == 795
    # Each canonical entry as its pair of components, indices into topos,
    # read from the sections of its opens.
    index = {frozenset(sigma.open_masks): k for k, sigma in enumerate(topos)}
    components = {
        i: tuple(
            index[frozenset(oracles.component_topology(tau, t).open_masks)]
            for t in range(2)
        )
        for i, tau in enumerate(pool)
        if oracles.is_canonical_by_cells(tau)
    }
    assert sorted(components.values()) == list(itertools.product(range(29), repeat=2))
    want = {
        (i, j)
        for i, ci in components.items()
        for j, cj in components.items()
        if not all(pair in t0 for pair in zip(ci, cj))
    }
    assert len(want) == 841**2 - 795**2 == 75_256
    assert {(i, j) for i, j in found if i in components and j in components} == want


def test_search_deterministic():
    a = search_counterexamples(2, 2)
    b = search_counterexamples(2, 2)
    assert a == b


@pytest.mark.parametrize("bounds, built", [((2, 2), 4), ((3, 1), 3)])
def test_search_shares_element_spaces(monkeypatch, bounds, built):
    """One element space per shape (n, p), the space of the pool's one
    ambient, shared by every pool topology, pair and induced family."""
    shapes = [(n, p) for n in range(1, bounds[0] + 1) for p in range(1, bounds[1] + 1)]
    assert len(shapes) == built
    count = Counter()
    init = ElementSpace.__init__

    def counting(self, soft_set):
        count["built"] += 1
        init(self, soft_set)

    monkeypatch.setattr(ElementSpace, "__init__", counting)
    search_counterexamples(*bounds)
    assert count["built"] == built


def test_search_builds_no_pair_space_and_no_enlargement(monkeypatch):
    """The pairs are decided on the pool's entries, so no pair builds a
    SoftBitopSpace, and class (ii) reads each entry's least cell
    neighbourhoods instead of building its enlargement: past the pools
    themselves, no canonical product is built.  Every canonical product,
    the pool's and `canonical_topology`'s, is built by `_product_topology`."""
    count = Counter()
    post_init = SoftBitopSpace.__post_init__
    canonical = softtop._product_topology

    def counting_space(self):
        count["spaces"] += 1
        post_init(self)

    def counting_canonical(*args):
        count["canonical"] += 1
        return canonical(*args)

    pools = sum(len(enumerate_topologies(n)) ** p for n in (1, 2) for p in (1, 2))
    monkeypatch.setattr(SoftBitopSpace, "__post_init__", counting_space)
    monkeypatch.setattr(softtop, "_product_topology", counting_canonical)
    monkeypatch.setattr(pairwise, "_product_topology", counting_canonical)
    result = search_counterexamples(2, 2)
    assert len(result.strict_enlargements) == 5
    assert count == {"canonical": pools}


def test_search_builds_no_induced_family_at_3x1(monkeypatch):
    """On one parameter the induced pair is the component pair relabelled,
    so class (i) reads the component verdicts and builds no induced
    family and no section table.  The class is empty there: induced T2 is
    component T2, which implies component T0, and that is soft T0."""
    built = Counter()
    init = softtop.SEFamily.__init__
    flat_sections = ElementSpace.flat_sections

    def counting(self, *args):
        built["SEFamily"] += 1
        init(self, *args)

    def counting_sections(es):
        built["flat_sections"] += 1
        return flat_sections.func(es)

    monkeypatch.setattr(softtop.SEFamily, "__init__", counting)
    monkeypatch.setattr(ElementSpace, "flat_sections", property(counting_sections))
    result = search_counterexamples(3, 1)
    assert result.not_t0_but_induced_t2 == ()
    assert not built


def test_search_refuses_a_nonpositive_bound_before_the_cap():
    """A bound below 1 is an input error even when the other bound is past
    its cap."""
    for bounds in ((4, 0), (0, 3)):
        with pytest.raises(InputError, match="bounds must be positive"):
            search_counterexamples(*bounds)


def test_search_capacity_guard():
    with pytest.raises(CapacityError):
        search_counterexamples(4, 2)
    with pytest.raises(CapacityError):
        search_counterexamples(3, 3)
    with pytest.raises(InputError):
        search_counterexamples(0, 1)
