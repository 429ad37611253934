import pickle
from collections import Counter

import pytest

from softbitop import (
    CapacityError,
    ClassicalTopology,
    ElementSpace,
    FinSet,
    InputError,
    SEFamily,
    SoftSet,
    SoftTopology,
    canonical_enlargement,
    canonical_topology,
    check_finest_open_projections,
    component_topology,
    enumerate_topologies,
    generate_topology,
    induced_topology,
    is_canonical,
    is_soft_topology,
    reconstruct,
    se_of_softset,
)
from softbitop import finsets
from softbitop.pairwise import candidate_soft_topologies
from softbitop.softsets import flat_soft_set
from conftest import random_carrier, random_soft_topology, rng_for
import oracles


def indiscrete(n, carrier=None):
    carrier = carrier if carrier is not None else FinSet.full(n)
    return ClassicalTopology.build([FinSet.empty(n), carrier], n, carrier=carrier)


def discrete(n, carrier=None):
    carrier = carrier if carrier is not None else FinSet.full(n)
    opens = [
        FinSet(n, m) for m in range(1 << n) if FinSet(n, m).issubset(carrier)
    ]
    return ClassicalTopology.build(opens, n, carrier=carrier)


# the two-parameter soft set with both sections equal to {0,1}
SQUARE = SoftSet.of([[0, 1], [0, 1]], 2)


def soft_indiscrete(ambient):
    null = SoftSet.null(ambient.param_count, ambient.universe_size)
    return SoftTopology.build([null, ambient], ambient)


def all_soft_subsets(ambient):
    import itertools

    n = ambient.universe_size
    choices = [
        [FinSet(n, m) for m in range(1 << n) if FinSet(n, m).issubset(s)]
        for s in ambient.sections
    ]
    return [SoftSet(c) for c in itertools.product(*choices)]


def soft_discrete(ambient):
    return SoftTopology.build(all_soft_subsets(ambient), ambient)


# ---------------------------------------------------------------- axioms


def test_is_soft_topology_examples():
    assert is_soft_topology(soft_indiscrete(SQUARE).opens, SQUARE)
    assert is_soft_topology(all_soft_subsets(SQUARE), SQUARE)
    null = SoftSet.null(2, 2)
    h1 = SoftSet.of([[0], []], 2)
    h2 = SoftSet.of([[], [0]], 2)
    # union of h1 and h2 is missing
    assert not is_soft_topology([null, SQUARE, h1, h2], SQUARE)
    # null missing
    assert not is_soft_topology([SQUARE], SQUARE)


def test_soft_topology_build_rejects_non_subsets():
    stray = SoftSet.of([[0, 1], [0, 1]], 3)
    with pytest.raises(InputError):
        SoftTopology.build([SoftSet.null(2, 3), stray], SoftSet.of([[0], [0]], 3))


# ---------------------------------------------------------------- components


def test_component_topology_of_indiscrete():
    tau = soft_indiscrete(SQUARE)
    for t in range(2):
        comp = component_topology(tau, t)
        assert set(comp.open_masks) == {0, 0b11}


def test_component_topology_recovers_sigmas():
    sigma0 = discrete(2)
    sigma1 = indiscrete(2)
    tau = canonical_topology(SQUARE, [sigma0, sigma1])
    assert set(component_topology(tau, 0).open_masks) == set(sigma0.open_masks)
    assert set(component_topology(tau, 1).open_masks) == set(sigma1.open_masks)


def test_component_topology_on_proper_section():
    ambient = SoftSet.of([[0, 1], [2, 3]], 4)
    tau = soft_indiscrete(ambient)
    comp = component_topology(tau, 1)
    assert comp.carrier == FinSet.of([2, 3], 4)


def test_components_and_enlargement_are_built_once():
    tau = canonical_topology(SQUARE, [discrete(2), indiscrete(2)])
    for t in range(2):
        assert component_topology(tau, t) is component_topology(tau, t)
    assert canonical_enlargement(tau) is canonical_enlargement(tau)
    for t in (-1, 2):
        with pytest.raises(InputError):
            component_topology(tau, t)


def test_component_of_a_non_topology_is_refused():
    # Built without validation: the 0-sections {0,1} and {1,2} meet in
    # {1}, which is no section, so sectioning cannot give a topology.
    ambient = SoftSet.of([[0, 1, 2]], 3)
    opens = (0b000, 0b011, 0b110, 0b111)
    with pytest.raises(AssertionError):
        component_topology(SoftTopology(ambient, opens), 0)


# ---------------------------------------------------------------- canonical


def test_canonical_topology_sizes():
    assert len(canonical_topology(SQUARE, [indiscrete(2), indiscrete(2)])) == 4
    assert len(canonical_topology(SQUARE, [discrete(2), discrete(2)])) == 16
    sigma = ClassicalTopology.build(
        [FinSet.empty(2), FinSet.of([0], 2), FinSet.full(2)], 2
    )
    assert len(canonical_topology(SQUARE, [sigma, indiscrete(2)])) == 6


def test_canonical_topology_is_soft_topology():
    tau = canonical_topology(SQUARE, [discrete(2), indiscrete(2)])
    assert is_soft_topology(tau.opens, SQUARE)
    assert is_canonical(tau)


def test_canonical_topology_validates_carriers():
    with pytest.raises(InputError):
        canonical_topology(SoftSet.of([[0]], 2), [indiscrete(2)])
    # An open of another universe, past the raw constructor.
    odd = ClassicalTopology(2, FinSet.full(2), (FinSet.empty(3), FinSet.full(2)))
    with pytest.raises(InputError):
        canonical_topology(SoftSet.of([[0, 1]], 2), [odd])


def test_generated_components_are_not_collected_again(monkeypatch):
    """Components from `generate_topology` and `enumerate_topologies` are
    born with their open masks, so neither `canonical_topology` nor
    `reconstruct` on them reads the universe of an open again.  A
    component through the raw constructor has its opens read once, by the
    first reader of its masks, however often it is used."""
    collect = finsets._collect_masks
    collected = []

    def recording(opens, n):
        collected.append(opens)
        return collect(opens, n)

    sigmas = [generate_topology([FinSet(2, 0b01)], 2), enumerate_topologies(2)[0]]
    raw = ClassicalTopology(2, FinSet.full(2), discrete(2).opens[::-1])
    monkeypatch.setattr(finsets, "_collect_masks", recording)
    tau = canonical_topology(SQUARE, sigmas)
    rebuilt = reconstruct(tau.induced)
    assert rebuilt.contained and rebuilt.soft_topology == tau
    components = (*sigmas, *rebuilt.sigmas)
    assert not any(o is sigma.opens for o in collected for sigma in components)
    for _ in range(2):
        assert len(canonical_topology(SQUARE, [raw, raw])) == 16
    assert sum(o is raw.opens for o in collected) == 1


def test_canonical_topology_builds_no_soft_set_until_opens_are_read():
    ambient = SoftSet.of([range(8)] * 2, 8)
    tau = canonical_topology(ambient, [discrete(8), discrete(8)])
    assert len(tau) == 1 << 16
    assert tau.contains(ambient)
    assert tau.components == (discrete(8), discrete(8))
    assert len(tau.least_opens) == 64
    assert "opens" not in tau.__dict__


def test_opens_share_the_component_opens_as_sections():
    """The t-sections of the opens are the FinSet objects of the component
    at t, for a canonical topology, which keeps its components, and for
    one given by its opens, which builds them."""
    canonical = canonical_topology(SQUARE, [discrete(2), indiscrete(2)])
    listed = SoftTopology.build(canonical.opens, SQUARE)
    for tau in (canonical, listed):
        for t, sigma in enumerate(tau.components):
            ids = {id(o) for o in sigma.opens}
            assert {id(h.sections[t]) for h in tau.opens} == ids


def test_contains_refuses_a_soft_set_of_another_shape():
    tau = canonical_topology(SQUARE, [discrete(2), discrete(2)])
    # Each flat form equals that of an open: ({0,1},{0,1}), ({0,1},{1}).
    assert tau.contains(SQUARE)
    assert not tau.contains(SoftSet.of([[0, 1], [0, 1], []], 2))
    assert not tau.contains(SoftSet.of([[0, 1], [0]], 3))


def unlisted(tau):
    """A new canonical topology on tau's components, its opens unlisted."""
    can = canonical_topology(tau.ambient, tau.components)
    assert "flat_opens" not in can.__dict__
    return can


@pytest.mark.parametrize("n, p", [(2, 2), (3, 1), (2, 3)])
def test_unlisted_canonical_topology_agrees_with_its_listing(n, p):
    """On every pool entry's enlargement, size, membership and least cells
    are read from the components with no open listed, and agree with the
    topology built from the listed opens; equality, hashing and pickles
    list the opens and agree too.  Membership is tested on every soft
    subset of the carrier and on soft sets of other shapes."""
    for entry in candidate_soft_topologies(n, p):
        listed = SoftTopology.build(unlisted(entry).opens, entry.ambient)
        can = unlisted(entry)
        assert len(can) == len(listed)
        for h in all_soft_subsets(entry.ambient):
            assert can.contains(h) == listed.contains(h), h
        for other in (SoftSet.null(p + 1, n), SoftSet.null(p, n + 1)):
            assert not can.contains(other)
        assert can.least_cells == listed.least_cells
        assert "flat_opens" not in can.__dict__
        assert can == listed and hash(unlisted(entry)) == hash(listed)
        twin = pickle.loads(pickle.dumps(unlisted(entry)))
        assert twin == listed and twin.flat_opens == listed.flat_opens


def test_canonical_product_guard_bounds_the_listing():
    """10 points x 2 parameters, discrete: 2^20 opens, past the guard of
    2^18.  The topology is built, sized, and tests membership; listing
    its opens, and so comparing, hashing or pickling it, is refused."""
    ambient = SoftSet.of([range(10)] * 2, 10)
    disc = ClassicalTopology(
        10, FinSet.full(10), tuple(FinSet(10, m) for m in range(1 << 10))
    )
    tau = canonical_topology(ambient, [disc, disc])
    assert len(tau) == 1 << 20
    assert tau.contains(SoftSet.of([[1, 2], [9]], 10))
    assert is_canonical(tau)
    refused = "canonical topology would have 1048576 opens; guard is 262144"
    for read in (
        lambda: tau.flat_opens,
        lambda: tau.opens,
        lambda: tau == canonical_topology(ambient, [disc, disc]),
        lambda: hash(tau),
        lambda: pickle.dumps(tau),
    ):
        with pytest.raises(CapacityError, match=refused):
            read()
    assert "flat_opens" not in tau.__dict__


def test_opens_of_an_unlisted_canonical_topology_list_no_flat_opens():
    """The opens of a canonical topology are the product of its component
    opens, in key order, read with no flat open listed."""
    tau = canonical_topology(SQUARE, [discrete(2), indiscrete(2)])
    keys = [h.key for h in tau.opens]
    assert "flat_opens" not in tau.__dict__
    assert keys == sorted(keys) == [(a, b) for a in range(4) for b in (0, 3)]
    assert tuple(map(flat_soft_set, tau.opens)) == tau.flat_opens


def test_opens_past_the_guard_list_nothing():
    """2 points x 10 parameters, discrete: 2^20 opens.  Reading the opens
    raises the guard's error before any open, flat or soft, is listed."""
    ambient = SoftSet.of([range(2)] * 10, 2)
    tau = canonical_topology(ambient, [discrete(2)] * 10)
    refused = "canonical topology would have 1048576 opens; guard is 262144"
    with pytest.raises(CapacityError, match=refused):
        tau.opens
    assert "opens" not in tau.__dict__ and "flat_opens" not in tau.__dict__


def test_topology_without_opens_or_components_fails_loudly():
    for tau in (SoftTopology(SQUARE), SoftTopology(ambient=SQUARE)):
        for read in (
            lambda: tau.flat_opens,
            lambda: len(tau),
            lambda: tau.components,
            lambda: tau.contains(SQUARE),
        ):
            with pytest.raises(TypeError, match="needs its flat opens"):
                read()


def test_canonical_enlargement_of_indiscrete():
    tau = soft_indiscrete(SQUARE)
    assert not is_canonical(tau)
    big = canonical_enlargement(tau)
    # components are indiscrete, so the canonical product has 2*2 opens
    assert len(big) == 4
    assert all(big.contains(h) for h in tau.opens)
    # enlarging is idempotent
    assert canonical_enlargement(big).opens == big.opens


@pytest.mark.parametrize("n, p", [(2, 2), (3, 1), (2, 3)])
def test_a_canonical_topology_is_its_own_enlargement(n, p):
    """Every canonical pool entry, listed, unlisted and given by its opens
    to `SoftTopology.build`, is its own enlargement; no other entry, nor
    its form given by its opens, is.  Canonicity is read from the least
    cells scanned over the opens (`oracles.is_canonical_by_cells`)."""
    verdicts = Counter()
    for entry in candidate_soft_topologies(n, p):
        holds = oracles.is_canonical_by_cells(entry)
        verdicts[holds] += 1
        given = SoftTopology.build(entry.opens, entry.ambient)
        for tau in (entry, given):
            assert (canonical_enlargement(tau) is tau) == holds, entry.flat_opens
        can = unlisted(entry)
        assert canonical_enlargement(can) is can
        assert "flat_opens" not in can.__dict__
    assert verdicts[True] and (verdicts[False] or p == 1), verdicts


def test_canonical_enlargement_preserves_components():
    rng = rng_for("enlargement")
    for _ in range(40):
        ambient = random_carrier(rng)
        tau = random_soft_topology(rng, ambient)
        big = canonical_enlargement(tau)
        assert all(big.contains(h) for h in tau.opens)
        for t in range(ambient.param_count):
            assert set(component_topology(big, t).open_masks) == set(
                component_topology(tau, t).open_masks
            )


# ---------------------------------------------------------------- induced


def test_induced_of_soft_indiscrete():
    tau = soft_indiscrete(SQUARE)
    fam = induced_topology(tau)
    # elements in lex order: (0,0)=0 (0,1)=1 (1,0)=2 (1,1)=3
    assert fam.contains_mask(0) and fam.contains_mask(0b1111)
    assert fam.contains_mask(0b1001)  # diagonal {(0,0),(1,1)}
    assert fam.contains_mask(0b0110)  # antidiagonal {(0,1),(1,0)}
    # {(0,0)} projects onto {0} at each parameter, which is not open
    assert not fam.contains_mask(0b0001)


def test_induced_of_soft_discrete_is_discrete():
    fam = induced_topology(soft_discrete(SQUARE))
    assert len(fam) == 16


def test_induced_single_param_matches_component():
    ambient = SoftSet.of([[0, 1, 2]], 3)
    for sigma in enumerate_topologies(3):
        tau = canonical_topology(ambient, [sigma])
        fam = induced_topology(tau)
        # with one parameter the soft elements are the points themselves
        assert set(fam.masks) == set(sigma.open_masks)


def test_induced_on_21_one_point_parameters():
    """One soft element on 21 one-point parameters: the family is {0, SE},
    found without the canonical product of the components, which at 2^21
    opens is past its guard."""
    ambient = SoftSet.of([[0]] * 21, 1)
    tau = SoftTopology.build([SoftSet.null(21, 1), ambient], ambient)
    assert induced_topology(tau).masks == (0, 1)


def test_induced_union_closed_not_intersection_closed():
    tau = soft_indiscrete(SQUARE)
    fam = induced_topology(tau)
    masks = set(fam.masks)
    for a in masks:
        for b in masks:
            assert (a | b) in masks
    # union-closed, yet 0b0111 and 0b1011 are members whose intersection
    # 0b0011 = {(0,0),(0,1)} projects to the non-open {0} at parameter 0
    assert 0b0111 in masks and 0b1011 in masks
    assert 0b0011 not in masks


def test_induced_minimal_members_of_soft_indiscrete():
    fam = induced_topology(soft_indiscrete(SQUARE))
    # around (0,0): the diagonal {(0,0),(1,1)} and {(0,0),(0,1),(1,0)};
    # their intersection {(0,0)} is not a member
    assert fam.minimal_members[0] == (0b1001, 0b0111)


def test_union_closed_needs_empty_full_and_every_union():
    space = ElementSpace(SoftSet.of([[0, 1, 2]], 3))
    closed = (0, 0b001, 0b010, 0b011, 0b111)
    assert SEFamily(space, closed).union_closed()
    # 0b001 | 0b010 is missing, though the empty and full subsets are there
    assert not SEFamily(space, (0, 0b001, 0b010, 0b111)).union_closed()
    assert not SEFamily(space, closed[1:]).union_closed()
    assert not SEFamily(space, closed[:-1]).union_closed()
    assert induced_topology(soft_indiscrete(SQUARE)).union_closed()


def test_family_table_is_guarded():
    """Both reads of the subset table refuse a family past the guard."""
    space = ElementSpace(SoftSet.of([range(21)], 21))
    with pytest.raises(CapacityError):
        SEFamily(space, (0,)).minimal_members
    with pytest.raises(CapacityError):
        SEFamily(space, (0, (1 << 21) - 1)).union_closed()


def test_least_opens_are_least():
    rng = rng_for("least-opens")
    for _ in range(100):
        ambient = random_carrier(rng)
        if any(s.is_empty for s in ambient.sections):
            continue
        tau = random_soft_topology(rng, ambient)
        elements = ElementSpace(ambient).elements
        assert len(tau.least_opens) == len(elements)
        for a, least in zip(elements, tau.least_opens):
            around = [
                flat_soft_set(h)
                for h in tau.opens
                if all(x in s for x, s in zip(a, h.sections))
            ]
            assert least in around
            assert all(least & ~h == 0 for h in around)


def test_induced_union_closed_randomized():
    rng = rng_for("induced-union")
    for _ in range(60):
        ambient = random_carrier(rng)
        try:
            space = ElementSpace(ambient)
        except Exception:
            continue
        tau = random_soft_topology(rng, ambient)
        fam = induced_topology(tau)
        masks = set(fam.masks)
        assert 0 in masks and (1 << space.size) - 1 in masks
        for a in masks:
            for b in masks:
                assert (a | b) in masks


def test_induced_contains_se_of_every_open():
    rng = rng_for("induced-se")
    for _ in range(60):
        ambient = random_carrier(rng)
        space = ElementSpace(ambient)
        tau = random_soft_topology(rng, ambient)
        fam = induced_topology(tau)
        for h in tau.opens:
            assert fam.contains_mask(se_of_softset(space, h).mask)


# ---------------------------------------------------------------- finest


def test_finest_open_projections():
    tau = soft_indiscrete(SQUARE)
    space = ElementSpace(SQUARE)
    fam = induced_topology(tau)
    assert check_finest_open_projections(tau, fam)
    small = SEFamily(space, (0, 0b1111))
    assert check_finest_open_projections(tau, small)
    # a singleton does not project to opens of the indiscrete components
    bad = SEFamily(space, (0, 0b0001, 0b1111))
    assert not check_finest_open_projections(tau, bad)


def test_finest_open_projections_randomized():
    rng = rng_for("finest")
    for _ in range(40):
        ambient = random_carrier(rng)
        space = ElementSpace(ambient)
        tau = random_soft_topology(rng, ambient)
        fam = induced_topology(tau)
        assert check_finest_open_projections(tau, fam)
        # every passing candidate is contained in the induced family
        import random as _r

        masks = tuple(sorted(_r.Random(rng.random()).sample(
            range(1 << space.size), min(4, 1 << space.size)
        )))
        cand = SEFamily(space, masks)
        if check_finest_open_projections(tau, cand):
            assert all(fam.contains_mask(m) for m in masks)


# ---------------------------------------------------------------- rebuild


def test_reconstruct_indiscrete():
    space = ElementSpace(SQUARE)
    u = SEFamily(space, (0, 0b1111))
    out = reconstruct(u)
    assert out.contained
    for sigma in out.sigmas:
        assert set(sigma.open_masks) == {0, 0b11}
    assert len(out.soft_topology) == 4


def test_reconstruct_diagonal_family():
    space = ElementSpace(SQUARE)
    u = SEFamily(space, (0, 0b1001, 0b1111))
    out = reconstruct(u)
    assert out.contained
    # the diagonal's sections are full, so nothing new is generated
    for sigma in out.sigmas:
        assert set(sigma.open_masks) == {0, 0b11}
    fam = induced_topology(out.soft_topology)
    assert all(fam.contains_mask(m) for m in u.masks)
    # containment is strict here: the induced family has more members
    assert len(fam) > len(u)


def test_reconstruct_randomized_containment():
    rng = rng_for("reconstruct")
    for _ in range(40):
        ambient = random_carrier(rng)
        space = ElementSpace(ambient)
        total = 1 << space.size
        count = rng.randint(0, min(5, total))
        masks = tuple(sorted({0, total - 1, *rng.sample(range(total), count)}))
        out = reconstruct(SEFamily(space, masks))
        assert out.contained
