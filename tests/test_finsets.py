import itertools
import pickle
from collections.abc import Sequence
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    element_space_of_size,
    random_carrier,
    random_soft_topology,
    rng_for,
)
from softbitop import (
    BitopPair,
    CapacityError,
    ClassicalTopology,
    FinSet,
    InputError,
    NotACoverError,
    SEFamily,
    SoftSet,
    canonical_topology,
    enumerate_topologies,
    generate_topology,
    induced_topology,
    is_topology,
    minimal_subcover,
    minimal_subcover_indices,
    pairwise_t0,
    pairwise_t1,
    pairwise_t2,
    reconstruct,
)
from softbitop.finsets import _min_cover

# ---------------------------------------------------------------- oracles


def brute_topologies(n, carrier=None):
    """Independent enumeration using frozensets instead of bitmasks."""
    pts = frozenset(range(n)) if carrier is None else frozenset(carrier.members())
    proper = []
    for k in range(1, len(pts)):
        proper.extend(frozenset(c) for c in itertools.combinations(sorted(pts), k))
    out = []
    for choice in range(1 << len(proper)):
        fam = {frozenset(), pts}
        for i, s in enumerate(proper):
            if choice >> i & 1:
                fam.add(s)
        if all(a | b in fam and a & b in fam for a in fam for b in fam):
            out.append(fam)
    return out


def classical_t0(top):
    pts = top.carrier.members()
    for x, y in itertools.combinations(pts, 2):
        if not any((x in u) != (y in u) for u in top.opens):
            return False
    return True


def classical_t1(top):
    pts = top.carrier.members()
    for x, y in itertools.permutations(pts, 2):
        if not any(x in u and y not in u for u in top.opens):
            return False
    return True


def classical_t2(top):
    pts = top.carrier.members()
    for x, y in itertools.combinations(pts, 2):
        ok = False
        for u in top.opens:
            for v in top.opens:
                if x in u and y in v and (u & v).is_empty:
                    ok = True
        if not ok:
            return False
    return True


# ---------------------------------------------------------------- FinSet


def test_finset_basics():
    s = FinSet.of([0, 2], 3)
    assert s.members() == (0, 2)
    assert 0 in s and 1 not in s and 2 in s
    assert len(s) == 2
    assert (s | FinSet.of([1], 3)) == FinSet.full(3)
    assert (s & FinSet.of([2], 3)) == FinSet.of([2], 3)
    assert FinSet.empty(3).is_empty
    assert s.issubset(FinSet.full(3))
    assert not FinSet.full(3).issubset(s)


def test_finset_rejects_out_of_range():
    with pytest.raises(InputError):
        FinSet.of([3], 3)
    with pytest.raises(InputError):
        FinSet(2, 0b100)


# ---------------------------------------------------------------- is_topology


def test_is_topology_examples():
    n = 3
    full = FinSet.full(n)
    empty = FinSet.empty(n)
    assert is_topology([empty, full], n)
    discrete = [FinSet(n, m) for m in range(1 << n)]
    assert is_topology(discrete, n)
    # {0} and {1} present but their union missing
    assert not is_topology(
        [empty, full, FinSet.of([0], n), FinSet.of([1], n)], n
    )
    # empty set missing
    assert not is_topology([full], n)


def test_is_topology_on_carrier():
    carrier = FinSet.of([1, 2], 4)
    assert is_topology([FinSet.empty(4), carrier], 4, carrier=carrier)
    # member escapes the carrier
    assert not is_topology(
        [FinSet.empty(4), carrier, FinSet.of([0], 4)], 4, carrier=carrier
    )


def test_classical_topology_build_validates():
    with pytest.raises(InputError):
        ClassicalTopology.build([FinSet.full(2)], 2)


def test_contains_is_a_lookup_in_the_cached_masks():
    """contains agrees with a scan of the opens on every subset of 3
    points, for every topology, and open_masks is built once."""
    for top in enumerate_topologies(3):
        assert top.open_masks is top.open_masks
        for m in range(8):
            expected = any(o.mask == m for o in top.opens)
            assert top.contains(FinSet(3, m)) == expected
    with pytest.raises(InputError):
        top.contains(FinSet(2, 0))


# ---------------------------------------------------------------- generation


def test_generate_topology_empty_subbase():
    top = generate_topology([], 3)
    assert set(top.open_masks) == {0, 0b111}


def test_generate_topology_example():
    top = generate_topology([FinSet.of([0, 1], 3), FinSet.of([1, 2], 3)], 3)
    assert set(top.open_masks) == {0, 0b011, 0b110, 0b010, 0b111}


def test_generate_topology_is_smallest():
    # oracle: intersection of all topologies containing the subbase
    subbase = [FinSet.of([0], 3), FinSet.of([1, 2], 3)]
    want = frozenset(range(1 << 3))
    sub_masks = {s.mask for s in subbase}
    for top in enumerate_topologies(3):
        masks = frozenset(top.open_masks)
        if sub_masks <= masks:
            want &= masks
    got = frozenset(generate_topology(subbase, 3).open_masks)
    assert got == want


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=7), max_size=4))
def test_generate_topology_idempotent(masks):
    subbase = [FinSet(3, m) for m in masks]
    top = generate_topology(subbase, 3)
    again = generate_topology(list(top.opens), 3)
    assert set(again.open_masks) == set(top.open_masks)
    assert is_topology(top.opens, 3)


# ---------------------------------------------------------------- enumeration


def test_enumerate_topologies_counts():
    assert len(enumerate_topologies(1)) == 1
    assert len(enumerate_topologies(2)) == 4
    assert len(enumerate_topologies(3)) == 29
    assert len(enumerate_topologies(4)) == 355


@pytest.mark.parametrize("n", [1, 2, 3])
def test_enumerate_topologies_matches_oracle(n):
    got = {frozenset(t.open_masks) for t in enumerate_topologies(n)}
    want = set()
    for fam in brute_topologies(n):
        want.add(frozenset(sum(1 << x for x in s) for s in fam))
    assert got == want


def test_enumerate_topologies_on_carrier():
    carrier = FinSet.of([0, 2], 3)
    tops = enumerate_topologies(3, carrier=carrier)
    assert len(tops) == 4  # two-point carrier
    for t in tops:
        assert all(u.issubset(carrier) for u in t.opens)


def test_enumerate_topologies_capacity():
    with pytest.raises(CapacityError, match="on 5 carrier points exceeds the cap of 4"):
        enumerate_topologies(5)


def test_enumerate_topologies_deterministic():
    a = [t.open_masks for t in enumerate_topologies(3)]
    b = [t.open_masks for t in enumerate_topologies(3)]
    assert a == b


# ---------------------------------------------------------------- stored form


def assert_masks_alone_match_their_twin(topo):
    """A topology the package builds holds its ascending open masks alone.
    Its opens, made on first read, are one FinSet per mask, and it equals,
    hashes, prints and pickles as its twin made from those FinSets through
    the public constructor."""
    assert "opens" not in vars(topo)
    n, masks = topo.universe_size, topo.open_masks
    assert list(masks) == sorted(set(masks))
    opens = tuple(FinSet(n, m) for m in masks)
    twin = ClassicalTopology(n, topo.carrier, opens)
    assert topo.opens == opens
    assert topo == twin and twin == topo and hash(topo) == hash(twin)
    assert repr(topo) == repr(twin)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        again = pickle.loads(pickle.dumps(topo, protocol))
        assert again == twin and hash(again) == hash(twin)
        assert repr(again) == repr(twin)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumerated_topologies_hold_their_masks_alone(n):
    for topo in enumerate_topologies(n):
        assert_masks_alone_match_their_twin(topo)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(min_value=1, max_value=(1 << n) - 1),
            st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), max_size=4),
        )
    )
)
def test_generated_topologies_hold_their_masks_alone(drawn):
    n, carrier, masks = drawn
    subbase = [FinSet(n, m & carrier) for m in masks]
    assert_masks_alone_match_their_twin(
        generate_topology(subbase, n, FinSet(n, carrier))
    )


def test_built_topologies_hold_their_masks_alone():
    for sigma in enumerate_topologies(3):
        shuffled = [*sigma.opens[1::2], *sigma.opens[::2], sigma.opens[0]]
        assert_masks_alone_match_their_twin(ClassicalTopology.build(shuffled, 3))


def test_soft_components_and_reconstructions_hold_their_masks_alone():
    """The components of a soft topology built from its opens, and the
    sigmas `reconstruct` generates from the family it induces."""
    rng = rng_for("components-hold-their-masks")
    for _ in range(40):
        tau = random_soft_topology(rng, random_carrier(rng))
        for sigma in tau.components:
            assert_masks_alone_match_their_twin(sigma)
        for sigma in reconstruct(induced_topology(tau)).sigmas:
            assert_masks_alone_match_their_twin(sigma)


def test_canonical_components_out_of_order_are_resorted_to_their_masks():
    ambient = SoftSet.of([range(3)] * 2, 3)
    for sigma in enumerate_topologies(3):
        descending = ClassicalTopology(3, sigma.carrier, sigma.opens[::-1])
        resorted = canonical_topology(ambient, [descending, sigma]).components[0]
        assert resorted is not descending
        assert_masks_alone_match_their_twin(resorted)


def test_a_topology_needs_its_opens_or_its_masks():
    whole = FinSet.full(2)
    with pytest.raises(TypeError, match="needs its opens or its masks"):
        ClassicalTopology(2, whole)
    with pytest.raises(TypeError, match="needs its opens or its masks"):
        ClassicalTopology(universe_size=2, carrier=whole)


# ---------------------------------------------------------------- pairwise axioms


def indiscrete(n):
    return ClassicalTopology.build([FinSet.empty(n), FinSet.full(n)], n)


def discrete(n):
    return ClassicalTopology.build([FinSet(n, m) for m in range(1 << n)], n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_minimal_members_of_a_topology_is_the_least_open(n):
    for top in enumerate_topologies(n):
        for x in range(n):
            least = (1 << n) - 1
            for m in top.open_masks:
                if m >> x & 1:
                    least &= m
            assert top.minimal_members[x] == (least,)


def test_minimal_members_of_an_arbitrary_family():
    space = element_space_of_size(3)
    family = SEFamily(space, (0b001, 0b011, 0b101, 0b111))
    # 0b001 lies below both 0b011 and 0b101; point 2 lies only in 0b101
    # and 0b111
    assert family.minimal_members == ((0b001,), (0b011,), (0b101,))
    family = SEFamily(space, (0b011, 0b101))
    # no member around 0 is least; point 1 lies in one member only
    assert family.minimal_members == ((0b011, 0b101), (0b011,), (0b101,))
    lonely = SEFamily(element_space_of_size(2), (0b01,))
    assert lonely.minimal_members == ((0b01,), ())


def test_pairwise_t0_indiscrete_pair():
    pair = BitopPair(indiscrete(2), indiscrete(2))
    holds, witness = pairwise_t0(pair)
    assert not holds
    assert witness == (0, 1)


def test_pairwise_mixed_pair():
    pair = BitopPair(discrete(2), indiscrete(2))
    assert pairwise_t0(pair)[0]
    assert not pairwise_t1(pair)[0]
    assert not pairwise_t2(pair)[0]


def test_pairwise_discrete_pair_is_t2():
    pair = BitopPair(discrete(3), discrete(3))
    assert pairwise_t2(pair)[0]


def test_pairwise_mismatched_universes():
    with pytest.raises(InputError):
        BitopPair(discrete(2), discrete(3))


@pytest.mark.parametrize("n", [2, 3])
def test_pairwise_implication_chain(n):
    for t1 in enumerate_topologies(n):
        for t2 in enumerate_topologies(n):
            pair = BitopPair(t1, t2)
            h2 = pairwise_t2(pair)[0]
            h1 = pairwise_t1(pair)[0]
            h0 = pairwise_t0(pair)[0]
            if h2:
                assert h1
            if h1:
                assert h0


def minimal_members_only(family):
    """The family with only what the pairwise deciders may read: its
    universe size, its carrier and its minimal members."""
    return SimpleNamespace(
        universe_size=family.universe_size,
        carrier=family.carrier,
        minimal_members=family.minimal_members,
    )


def test_deciders_read_only_minimal_members():
    """T0, T1 and T2 read nothing of a family but its minimal members, on
    a topology pair with a carrier smaller than the universe and on an
    induced-type family with two minimal members at every element."""
    carrier = FinSet.of([0, 2, 3], 4)
    first = generate_topology([FinSet.of([0], 4)], 4, carrier=carrier)
    second = generate_topology([FinSet.of([2], 4)], 4, carrier=carrier)
    pair = BitopPair(minimal_members_only(first), minimal_members_only(second))
    assert pairwise_t0(pair) == (True, None)
    assert pairwise_t1(pair) == (False, (0, 3))
    assert pairwise_t2(pair) == (False, (0, 3))
    space = element_space_of_size(3)
    # Each element lies in two minimal members; the cores are the
    # singletons, so all three axioms hold against the discrete family.
    first = SEFamily(space, (0b000, 0b011, 0b101, 0b110, 0b111))
    second = SEFamily(space, tuple(range(8)))
    assert all(len(at_x) == 2 for at_x in first.minimal_members)
    pair = BitopPair(minimal_members_only(first), minimal_members_only(second))
    for decide in (pairwise_t0, pairwise_t1, pairwise_t2):
        assert decide(pair) == (True, None)


@pytest.mark.parametrize("n", [2, 3])
def test_pairwise_reduces_to_classical_on_equal_pair(n):
    for top in enumerate_topologies(n):
        pair = BitopPair(top, top)
        assert pairwise_t0(pair)[0] == classical_t0(top)
        assert pairwise_t1(pair)[0] == classical_t1(top)
        assert pairwise_t2(pair)[0] == classical_t2(top)


# ---------------------------------------------------------------- subcovers


def test_minimal_subcover_trivial():
    target = FinSet.full(3)
    family = [FinSet.full(3), FinSet.of([0], 3)]
    assert minimal_subcover_indices(family, target) == (0,)


def test_minimal_subcover_tie_break():
    target = FinSet.full(2)
    family = [
        FinSet.of([0], 2),
        FinSet.of([1], 2),
        FinSet.of([0], 2),
        FinSet.full(2),
    ]
    # size 1 found first, at the least index
    assert minimal_subcover_indices(family, target) == (3,)
    family = family[:3]
    # two size-2 subcovers cover; (0, 1) is lexicographically least
    assert minimal_subcover_indices(family, target) == (0, 1)
    assert [s.mask for s in minimal_subcover(family, target)] == [0b01, 0b10]


def test_minimal_subcover_not_a_cover():
    with pytest.raises(NotACoverError):
        minimal_subcover_indices([FinSet.of([0], 2)], FinSet.full(2))


def min_cover_by_combinations(masks, target):
    """The first index tuple, in `combinations` order by size, whose masks
    cover target, or None."""
    for k in range(len(masks) + 1):
        for combo in itertools.combinations(range(len(masks)), k):
            union = 0
            for i in combo:
                union |= masks[i]
            if not target & ~union:
                return combo
    return None


def test_min_cover_on_every_family_of_five_masks_over_three_points():
    """Every family of up to 5 masks over 3 points, repeats and zero masks
    included, against every target, coverable or not."""
    for size in range(6):
        for masks in itertools.product(range(8), repeat=size):
            for target in range(8):
                assert _min_cover(masks, target) == min_cover_by_combinations(
                    masks, target
                ), (masks, target)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=10).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(0, (1 << n) - 1), max_size=16),
            st.integers(0, (1 << n) - 1),
        )
    )
)
def test_min_cover_on_arbitrary_families(instance):
    masks, target = instance
    assert _min_cover(masks, target) == min_cover_by_combinations(masks, target)


class CountedReads(Sequence):
    """A sequence of masks that counts the items read from it."""

    def __init__(self, masks):
        self.masks, self.reads = masks, 0

    def __len__(self):
        return len(self.masks)

    def __getitem__(self, i):
        self.reads += 1
        return self.masks[i]


def test_min_cover_of_one_member_builds_no_bound_table():
    """verify's subcover row: every subset of the points, ascending, so the
    one member that covers alone sorts last.  The kernel reads each member
    once, in the scan of size one, and builds neither the suffix ORs nor
    the table for the bound, which would read each again.  A family that
    needs two members builds both."""
    family = CountedReads(range(1 << 16))
    assert _min_cover(family, (1 << 16) - 1) == ((1 << 16) - 1,)
    assert family.reads == len(family)
    family = CountedReads(range((1 << 10) - 1))
    assert _min_cover(family, (1 << 10) - 1) == (1, (1 << 10) - 2)
    assert family.reads > 3 * len(family)
