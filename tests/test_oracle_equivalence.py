"""The neighbourhood deciders and the cover kernel against the
brute-force oracles.

Each decider must give the same verdict and the same least witness as
the scan over pairs of opens it replaced (`oracles.py`): exhaustively on
small topologies and candidate pools, and with hypothesis on arbitrary
finite families, which need not be topologies.  On an induced or
arbitrary family (`SEFamily`) the scan runs on the former view of the
family as a topology (`oracles.as_classical`), whose minimal members must
equal those read from the family's subset table; its union-closure check
must agree with a test of every pair of members.  Each of the three
subcover searches must give the same subcover, or raise the same error,
as the search over `combinations` it replaced.  The induced family, the
projection check and the reconstruction read sections from one table per
element space; each must give what the walk over soft elements it
replaced gives.  The section entries the subsets realize must be 0 and
every choice of nonempty sections, the lemma by which the induced
family lists its passed entries without testing one.  The closure check from least neighbourhoods, used by
`is_topology`, `enumerate_topologies` and `is_soft_topology`, must agree
with the test of every pair of members: exhaustively on 3- and 4-point
carriers and on a 3-cell soft carrier, and with hypothesis beyond.
`generate_topology` must give what the fixed-point closure gives, and
keep as its minimal members the AND of the opens around each point.  The
least opens, read from the least cell neighbourhoods U(c), and
`is_canonical`, read from the count of opens, must give what the former
readings of the full list of opens give, and `is_canonical` also what
comparing with the built enlargement gives; the components a canonical
topology keeps, and the least cells it reads from them, must equal those
read from the opens, on the topology and on a pickled copy.  The flat
canonical product must give the opens of the product of `SoftSet`
objects sorted by key, and
`SoftTopology.build` the family sorted by key.  `SoftTopology.opens`,
the product of the component opens on a canonical topology, must give
the column decode of the flat opens it replaced
(`oracles.decoded_opens`), and the candidate pool, built from
components checked once, the pool of one `canonical_topology` per
product (`oracles.candidate_soft_topologies`).  The induced verdicts that
`SoftBitopSpace.separation` reads from the carrier's shape must equal
those decided on the induced pair's subset tables, and soft T2, read from
the shape too, must give the scan's verdict and witness: on the
indiscrete pair of every shape up to 20 soft elements, on every pair of
the 2x2 and 3x1 pools, on a seeded 3x2 sample and with hypothesis; and
the 2x2 induced T2 on every choice of its four component topologies,
against the closed form of README Claim A.  Soft T1, read from the least
opens, must give the verdict and witness of the row decider it replaced
(`oracles.pairwise_soft_t1_rows`), and hold iff every soft element is
open in both topologies.  The family the library
induces from a topology must be the oracle's filtration of the
topology's canonical enlargement.  The subcover, transport and
reconstruction rows of `verify_theorems`, decided on flat opens and
sections, must give what the soft-set covers, cylinders and induced
filtration they replaced give (`oracles.cover_rows`): on every pair of
the 2x2 and 3x1 pools, on the 20-SE fixtures and on seeded carriers.
"""

from __future__ import annotations

import json
import pickle
from collections import Counter
from functools import reduce
from itertools import chain, combinations_with_replacement, product
from math import prod
from operator import or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import (
    FIXTURES,
    element_space_of_size,
    random_carrier,
    random_nonempty_mask,
    random_sigma_family,
    random_soft_set,
    random_soft_topology,
    rng_for,
    small_carriers,
)
from softbitop import (
    BitopPair,
    ClassicalTopology,
    CofiniteSoftSet,
    FinSet,
    InputError,
    NotACoverError,
    ElementSpace,
    SEFamily,
    SESubset,
    SoftBitopSpace,
    SoftCover,
    SoftSet,
    SoftTopology,
    TemplateFamily,
    canonical_topology,
    check_finest_open_projections,
    decide_finite_subcover,
    enumerate_topologies,
    find_finite_subcover,
    generate_topology,
    induced_bitop,
    induced_topology,
    is_canonical,
    is_soft_topology,
    is_topology,
    minimal_subcover_indices,
    pairwise_soft_t0,
    pairwise_soft_t1,
    pairwise_soft_t2,
    pairwise_t0,
    pairwise_t1,
    pairwise_t2,
    reconstruct,
    verify_theorems,
)
from softbitop.cli import parse_space
from softbitop.finsets import _min_cover, bits, is_topology_masks
from softbitop.pairwise import candidate_soft_topologies
from softbitop.softsets import flat_soft_set

CLASSICAL = (
    (pairwise_t0, oracles.pairwise_t0),
    (pairwise_t1, oracles.pairwise_t1),
    (pairwise_t2, oracles.pairwise_t2),
)


def soft_cases(space):
    """(fast verdict, oracle verdict) for every soft decider."""
    yield pairwise_soft_t0(space), oracles.pairwise_soft_t0(space)
    yield pairwise_soft_t1(space), oracles.pairwise_soft_t1(space)
    yield pairwise_soft_t2(space), oracles.pairwise_soft_t2(space)


def assert_classical_agree(first, second):
    pair = BitopPair(first, second)
    for fast, slow in CLASSICAL:
        assert fast(pair) == slow(pair), (fast.__name__, first.opens, second.opens)


@pytest.mark.parametrize(
    "n, carrier",
    [(1, None), (2, None), (3, None), (3, FinSet.of([0, 2], 3)), (4, None)],
)
def test_classical_deciders_on_all_small_topology_pairs(n, carrier):
    """Every pair up to 3 points; at 4 points (126,025 pairs) a seeded
    sample of 3,000."""
    topologies = enumerate_topologies(n, carrier=carrier)
    pairs = list(product(topologies, repeat=2))
    if n == 4:
        pairs = rng_for("classical-deciders-4-points").sample(pairs, 3000)
    for first, second in pairs:
        assert_classical_agree(first, second)


def assert_family_agree(first, second):
    """Deciders on a pair of SEFamily objects against the brute-force
    deciders on the former view of each family as a topology, and each
    family's minimal members against the former scan."""
    pair = BitopPair(first, second)
    views = BitopPair(oracles.as_classical(first), oracles.as_classical(second))
    for fast, slow in CLASSICAL:
        assert fast(pair) == slow(views), (fast.__name__, first.masks, second.masks)
    for family, view in zip((first, second), (views.first, views.second)):
        assert family.minimal_members == view.minimal_members, family.masks


def assert_induced_pairs_of_pool_agree(n, p):
    pool = candidate_soft_topologies(n, p)
    induced = [induced_topology(tau) for tau in pool]
    for first in induced:
        for second in induced:
            assert_family_agree(first, second)


def test_classical_deciders_on_induced_pairs_of_2x2_pool():
    assert_induced_pairs_of_pool_agree(2, 2)


def test_classical_deciders_on_induced_pairs_of_3x1_pool():
    assert_induced_pairs_of_pool_agree(3, 1)


def test_classical_deciders_on_induced_pairs_of_random_carriers():
    """Carriers with non-full and singleton sections, at most 8 soft
    elements, so the brute-force scan over pairs of members stays small."""
    rng = rng_for("oracle-equivalence-induced-pairs")
    verdicts = Counter()
    for _ in range(60):
        ambient = random_wide_carrier(rng)
        space = ElementSpace(ambient)
        if space.size > 8:
            continue
        tau1 = random_soft_topology(rng, ambient)
        tau2 = random_soft_topology(rng, ambient)
        first, second = induced_topology(tau1), induced_topology(tau2)
        assert_family_agree(first, second)
        verdicts[pairwise_t2(BitopPair(first, second))[0]] += 1
    assert verdicts[True] and verdicts[False], verdicts


def test_classical_deciders_on_induced_pairs_of_the_3x2_sample():
    """A seeded part of `sampled_3x2_pool_pairs`, in both orders: induced
    families on 9 soft elements, past the 8 of the test above, where
    points have up to 11 minimal members.  On the full 3 x 2 carrier every
    induced pair is T2, so T2 must find a disjoint pair among them; the
    failing side is left to the random carriers above."""
    pool = candidate_soft_topologies(3, 2)
    pairs = rng_for("induced-pairs-3x2").sample(sampled_3x2_pool_pairs(pool), 40)
    induced = {k: induced_topology(pool[k]) for k in set(chain(*pairs))}
    for i, j in pairs:
        assert_family_agree(induced[i], induced[j])
        assert_family_agree(induced[j], induced[i])
    most = max(len(at_x) for f in induced.values() for at_x in f.minimal_members)
    assert most == 11, most


@pytest.mark.parametrize("n, p", [(2, 2), (3, 1)])
def test_soft_deciders_on_all_pool_pairs(n, p):
    pool = candidate_soft_topologies(n, p)
    ambient = pool[0].ambient
    for tau1 in pool:
        for tau2 in pool:
            space = SoftBitopSpace(ambient, tau1, tau2)
            for fast, slow in soft_cases(space):
                assert fast == slow


def test_soft_deciders_on_canonical_spaces_of_small_carriers():
    """Every ordered pair of canonical soft topologies on every carrier
    with 2 points and 2 parameters.  Carriers with a one-point section put
    the first two soft elements apart at one parameter and together at the
    other, so soft T2 must test disjointness at every parameter."""
    for sections in product((0b01, 0b10, 0b11), repeat=2):
        ambient = SoftSet(tuple(FinSet(2, m) for m in sections))
        factors = [enumerate_topologies(2, carrier=s) for s in ambient.sections]
        taus = [canonical_topology(ambient, list(sigmas)) for sigmas in product(*factors)]
        for tau1 in taus:
            for tau2 in taus:
                space = SoftBitopSpace(ambient, tau1, tau2)
                for fast, slow in soft_cases(space):
                    assert fast == slow


def test_soft_deciders_on_random_carriers():
    """Carriers whose sections differ, unlike the constant pool carriers."""
    rng = rng_for("oracle-equivalence-soft")
    for _ in range(200):
        ambient = random_carrier(rng)
        if any(s.is_empty for s in ambient.sections):
            continue
        tau1 = random_soft_topology(rng, ambient)
        tau2 = random_soft_topology(rng, ambient)
        space = SoftBitopSpace(ambient, tau1, tau2)
        for fast, slow in soft_cases(space):
            assert fast == slow


def sampled_3x2_pool_pairs(pool):
    """A seeded sample of 2,000 ordered index pairs of the 3x2 pool, plus
    every ordered pair of its twelve entries with the most opens."""
    rng = rng_for("oracle-equivalence-3x2-pool")
    pairs = [(rng.randrange(len(pool)), rng.randrange(len(pool))) for _ in range(2000)]
    finest = sorted(range(len(pool)), key=lambda k: -len(pool[k]))[:12]
    return pairs + list(product(finest, repeat=2))


def test_soft_deciders_on_sampled_3x2_pool_pairs():
    """A seeded sample of 2,000 ordered pairs of the 3x2 pool, plus every
    ordered pair of its twelve entries with the most opens.  Soft T1 holds
    here only for the pair of discrete canonical topologies, which the
    second part brings in.  Soft T2 never holds on this carrier: two soft
    elements that share a coordinate have least opens that meet there, so
    both of its verdicts are left to the carriers of the next test."""
    pool = candidate_soft_topologies(3, 2)
    ambient = pool[0].ambient
    tally = Counter()
    for i, j in sampled_3x2_pool_pairs(pool):
        sp = SoftBitopSpace(ambient, pool[i], pool[j])
        for k, (fast, slow) in enumerate(soft_cases(sp)):
            assert fast == slow, (k, i, j)
            tally[k, fast.holds] += 1
    assert all(tally[k, holds] for k in (0, 1) for holds in (True, False)), tally
    assert not tally[2, True], tally


def random_uneven_carrier(rng):
    """2 to 4 points and 1 to 4 parameters, 2 to 16 soft elements; with
    two or more parameters the sections are not all equal."""
    while True:
        n, p = rng.randint(2, 4), rng.randint(1, 4)
        sections = [random_nonempty_mask(rng, n) for _ in range(p)]
        if not 2 <= prod(m.bit_count() for m in sections) <= 16:
            continue
        if p == 1 or len(set(sections)) > 1:
            return SoftSet(tuple(FinSet(n, m) for m in sections))


def test_soft_deciders_on_seeded_carriers_up_to_16_soft_elements():
    """Topologies closed from random soft sets, canonical from random
    subbases, or discrete canonical.  Every verdict of every decider
    occurs."""
    rng = rng_for("oracle-equivalence-soft-16")
    tally = Counter()
    for _ in range(200):
        ambient = random_uneven_carrier(rng)
        taus = []
        for _ in range(2):
            kind = rng.choice(("closed", "canonical", "discrete"))
            if kind == "closed":
                taus.append(random_soft_topology(rng, ambient))
                continue
            sigmas = random_sigma_family(rng, ambient)
            if kind == "discrete":
                n = ambient.universe_size
                sigmas = [
                    generate_topology([FinSet.of([x], n) for x in s.members()], n, carrier=s)
                    for s in ambient.sections
                ]
            taus.append(canonical_topology(ambient, sigmas))
        space = SoftBitopSpace(ambient, *taus)
        for k, (fast, slow) in enumerate(soft_cases(space)):
            assert fast == slow, (k, ambient.key)
            tally[k, fast.holds] += 1
    assert all(tally[k, holds] for k in (0, 1, 2) for holds in (True, False)), tally


@st.composite
def arbitrary_family_pairs(draw):
    """Two arbitrary families of subsets of up to 6 points on one carrier,
    as views (`oracles.FamilyView`).

    Members may leave the carrier, miss some of its points entirely, and
    need not be closed under anything.
    """
    n = draw(st.integers(min_value=1, max_value=6))
    carrier = FinSet(n, draw(st.integers(min_value=0, max_value=(1 << n) - 1)))
    masks = st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), max_size=10)
    first, second = (
        oracles.FamilyView(n, carrier, tuple(FinSet(n, m) for m in draw(masks)))
        for _ in range(2)
    )
    return first, second


@settings(max_examples=400, deadline=None)
@given(arbitrary_family_pairs())
def test_classical_deciders_on_arbitrary_families(families):
    assert_classical_agree(*families)


@st.composite
def arbitrary_se_family_pairs(draw):
    """Two arbitrary families of subsets of up to 6 soft elements."""
    space = element_space_of_size(draw(st.integers(min_value=1, max_value=6)))
    masks = st.lists(st.integers(min_value=0, max_value=(1 << space.size) - 1), max_size=10)
    first, second = (
        SEFamily(space, tuple(sorted(set(draw(masks))))) for _ in range(2)
    )
    return first, second


@settings(max_examples=400, deadline=None)
@given(arbitrary_se_family_pairs())
def test_family_reads_on_arbitrary_families(families):
    assert_family_agree(*families)


def union_closure(masks, full):
    closed = {0}
    for g in (*masks, full):
        closed |= {g | m for m in closed}
    return closed


@st.composite
def near_union_closed_families(draw):
    """A union-closed family on up to 6 soft elements, or one that misses
    the empty subset, the full subset or a single union of two other
    members, or an arbitrary family."""
    space = element_space_of_size(draw(st.integers(min_value=1, max_value=6)))
    full = (1 << space.size) - 1
    mask = st.integers(min_value=0, max_value=full)
    masks = union_closure(draw(st.lists(mask, max_size=5)), full)
    how = draw(st.sampled_from(["closed", "no empty", "no full", "no union", "any"]))
    if how == "no empty":
        masks.discard(0)
    elif how == "no full":
        masks.discard(full)
    elif how == "no union":
        unions = sorted(
            u
            for u in masks - {0, full}
            if any(a | b == u for a in masks - {u} for b in masks - {u})
        )
        if unions:
            masks.discard(draw(st.sampled_from(unions)))
    elif how == "any":
        masks = set(draw(st.lists(mask, max_size=10)))
    return SEFamily(space, tuple(sorted(masks)))


@settings(max_examples=400, deadline=None)
@given(near_union_closed_families())
def test_union_closed_on_arbitrary_families(family):
    assert family.union_closed() == oracles.union_closed(family)


# ---------------------------------------------------------------- covers


def outcome(search, *args):
    """What a subcover search returns, or NotACoverError if it raises it."""
    try:
        return search(*args)
    except NotACoverError:
        return NotACoverError


def assert_subcover_agree(fast, slow, *args):
    result = outcome(fast, *args)
    assert result == outcome(slow, *args), args
    return result


@pytest.mark.parametrize("n", [1, 2, 3])
def test_minimal_subcover_on_all_small_families(n):
    """Every family of at most 4 masks on n points, against every target."""
    sets = [FinSet(n, m) for m in range(1 << n)]
    for size in range(5):
        for family in product(sets, repeat=size):
            for target in sets:
                assert_subcover_agree(
                    minimal_subcover_indices,
                    oracles.minimal_subcover_indices,
                    family,
                    target,
                )


@st.composite
def set_cover_instances(draw):
    """Up to 14 members on up to 8 points.  Empty and repeated members are
    drawn often; the target is clipped to the members' union half the
    time, so both covers and non-covers occur."""
    n = draw(st.integers(min_value=1, max_value=8))
    mask = st.integers(min_value=0, max_value=(1 << n) - 1)
    pool = draw(st.lists(mask, min_size=1, max_size=6))
    members = draw(st.lists(st.sampled_from([0, *pool]), max_size=14))
    target = draw(mask)
    if draw(st.booleans()):
        union = 0
        for m in members:
            union |= m
        target &= union
    return [FinSet(n, m) for m in members], FinSet(n, target)


@settings(max_examples=300, deadline=None)
@given(set_cover_instances())
def test_minimal_subcover_on_arbitrary_families(instance):
    assert_subcover_agree(
        minimal_subcover_indices, oracles.minimal_subcover_indices, *instance
    )


def _sample_mask(rng, mask, lo, hi):
    """A subset of mask with between lo and hi of its points."""
    points = list(bits(mask))
    out = 0
    for x in rng.sample(points, rng.randint(lo, min(hi, len(points)))):
        out |= 1 << x
    return out


def _covering_family(rng, full, count, lo, hi):
    """count masks of lo to hi points of full, then masks of 1 to hi of the
    points still missed until every point of full is held."""
    family = [_sample_mask(rng, full, lo, hi) for _ in range(count)]
    union = reduce(or_, family, 0)
    while union != full:
        family.append(_sample_mask(rng, full & ~union, 1, hi))
        union |= family[-1]
    return family


def test_min_cover_on_the_benchmark_shapes():
    """The kernel against the former kernel, which prunes by suffix ORs
    alone, on the cover-kernel workload's shapes: set covers of 12-16
    points by 20-24 members of 2-3 points, and soft covers of 6-8 points
    by 2 parameters, flattened, each section by members of 0-2 points.
    Each family is cut against the whole universe and against a random
    subset of it, so covers of every size from 1 to 9 are searched."""
    rng = rng_for("min_cover_benchmark_shapes")
    instances = []
    for _ in range(150):
        n = rng.randint(12, 16)
        full = (1 << n) - 1
        instances.append((_covering_family(rng, full, rng.randint(20, 24), 2, 3), full))
    for _ in range(150):
        n = rng.randint(6, 8)
        full = (1 << n) - 1
        count = rng.randint(14, 18)
        sections = [_covering_family(rng, full, count, 0, 2) for _ in range(2)]
        size = max(map(len, sections))
        first, second = (s + [0] * (size - len(s)) for s in sections)
        instances.append(([a | b << n for a, b in zip(first, second)], full | full << n))
    sizes = Counter()
    for masks, full in instances:
        for target in (full, _sample_mask(rng, full, 1, full.bit_count())):
            found = _min_cover(masks, target)
            assert found == oracles.min_cover_by_index_dfs(masks, target), (masks, target)
            sizes[len(found)] += 1
    assert set(range(1, 10)) <= sizes.keys(), sizes


@pytest.mark.parametrize("n", [2, 3])
def test_find_finite_subcover_on_soft_covers(n):
    """Tagged covers on carriers of n points and 2 parameters: members
    drawn from the opens of either topology (or of both) without the
    carrier itself, now and then one that is not open where tagged, and a
    random target."""
    rng = rng_for(f"oracle-equivalence-soft-cover-{n}")
    sizes = Counter()
    for _ in range(150):
        ambient = SoftSet(
            tuple(FinSet(n, random_nonempty_mask(rng, n)) for _ in range(2))
        )
        tau1 = random_soft_topology(rng, ambient)
        tau2 = random_soft_topology(rng, ambient)
        space = SoftBitopSpace(ambient, tau1, tau2)
        pools = {
            "tau1": [h for h in tau1.opens if h != ambient],
            "tau2": [h for h in tau2.opens if h != ambient],
            "both": [h for h in tau1.opens if h != ambient and tau2.contains(h)],
        }
        members = []
        for _ in range(rng.randint(0, 10)):
            prov = rng.choice(("tau1", "tau2", "both"))
            if pools[prov]:
                members.append((rng.choice(pools[prov]), prov))
        if rng.random() < 0.1:
            members.append((random_soft_set(rng, ambient), "tau1"))
        cover = SoftCover(space, random_soft_set(rng, ambient), tuple(members))
        found = assert_subcover_agree(
            find_finite_subcover, oracles.find_finite_subcover, cover
        )
        sizes["none" if found is NotACoverError else min(len(found), 2)] += 1
    assert sizes["none"] and sizes[2], sizes


def random_cofinite(rng, n: int) -> CofiniteSoftSet:
    """A random default with up to two exceptions among labels 0..3."""
    exceptions = {
        t: FinSet(n, rng.randint(0, (1 << n) - 1))
        for t in rng.sample(range(4), rng.randint(0, 2))
    }
    return CofiniteSoftSet.make(n, FinSet(n, rng.randint(0, (1 << n) - 1)), exceptions)


def test_decide_finite_subcover_on_cofinite_families():
    """Random template families.  The tally makes sure every kind of
    answer occurs: not a cover, no finite subcover, and a finite subcover
    whose witness holds a template member indexed at a fresh label."""
    rng = rng_for("oracle-equivalence-cofinite")
    kinds = Counter()
    for _ in range(400):
        n = rng.randint(1, 3)
        template = None
        if rng.random() < 0.7:
            template = tuple(FinSet(n, rng.randint(0, (1 << n) - 1)) for _ in range(2))
        explicit = tuple(
            random_cofinite(rng, n)
            for _ in range(rng.randint(0 if template else 1, 4))
        )
        family = TemplateFamily(n, template, explicit)
        target = random_cofinite(rng, n)
        decision = assert_subcover_agree(
            decide_finite_subcover, oracles.decide_finite_subcover, family, target
        )
        if decision is NotACoverError:
            kinds["not a cover"] += 1
        elif not decision.holds:
            kinds["no finite subcover"] += 1
        else:
            labels = family.mentioned_labels() + target.exception_labels
            fresh = max(labels, default=-1) + 1
            at_fresh = any(
                t >= fresh for m in decision.witness for t in m.exception_labels
            )
            kinds["fresh label" if at_fresh else "finite subcover"] += 1
    assert len(kinds) == 4, kinds


# ------------------------------------------------- cover and reconstruction


def assert_cover_rows_agree(space):
    """The subcover, transport and reconstruction rows of verify_theorems
    against the oracle's soft covers, cylinders and filtration."""
    rows = {c.name: c for c in verify_theorems(space).checks}
    covered, size, transport, contained = oracles.cover_rows(space)
    sub = rows["finite-params-subcover-exists"]
    assert (sub.applicable, sub.passed, sub.detail) == (
        True,
        covered,
        f"subcover size {size}",
    )
    row = rows["cylinder-cover-transport"]
    applies = transport is not None
    assert (row.applicable, row.passed) == (applies, transport is not False)
    assert rows["reconstruction-contains-input"].passed == contained
    return transport


@pytest.mark.parametrize("n, p", [(2, 2), (3, 1)])
def test_cover_rows_on_all_pool_pairs(n, p):
    pool = candidate_soft_topologies(n, p)
    ambient = pool[0].ambient
    transports = Counter()
    for tau1, tau2 in product(pool, repeat=2):
        space = SoftBitopSpace(ambient, tau1, tau2)
        transports[assert_cover_rows_agree(space)] += 1
    # At p = 1 every topology is its own enlargement, so canonical.
    assert transports[True] and bool(transports[None]) == (p > 1), transports


@pytest.mark.parametrize("name", ["se20_a.json", "se20_b.json"])
def test_cover_rows_on_20_soft_elements(name):
    doc = parse_space(json.loads((FIXTURES / name).read_text()))
    space = SoftBitopSpace(doc.soft_set, doc.tau1, doc.tau2)
    assert space.space.size == 20
    assert assert_cover_rows_agree(space) is True


def test_cover_rows_on_random_carriers():
    """Carriers with non-full and singleton sections and up to 4
    parameters, each side canonical or a random soft topology, which is
    mostly not canonical: there the transport row does not apply."""
    rng = rng_for("oracle-equivalence-cover-rows")
    kinds = Counter()
    for _ in range(80):
        ambient = random_wide_carrier(rng)

        def side():
            if rng.random() < 0.5:
                return canonical_topology(ambient, random_sigma_family(rng, ambient))
            return random_soft_topology(rng, ambient)

        transport = assert_cover_rows_agree(SoftBitopSpace(ambient, side(), side()))
        full = (1 << ambient.universe_size) - 1
        kinds[transport] += 1
        kinds["singleton"] += any(m.bit_count() == 1 for m in ambient.key)
        kinds["not full"] += any(m != full for m in ambient.key)
    assert kinds[True] and kinds[None], kinds
    assert kinds["singleton"] and kinds["not full"], kinds


# ------------------------------------------------------- induced families


def assert_induced_paths_agree(tau, candidates):
    """The induced family of tau, and the projection check of tau and the
    reconstruction on each candidate family, against the oracles."""
    space = candidates[0].space
    assert induced_topology(tau) == oracles.induced_topology(tau, space)
    for u in candidates:
        assert check_finest_open_projections(
            tau, u
        ) == oracles.check_finest_open_projections(tau, u), u.masks
        assert reconstruct(u) == oracles.reconstruct(u), u.masks


@pytest.mark.parametrize("n, p", [(2, 2), (3, 1)])
def test_induced_paths_on_pool(n, p):
    """Every pool entry, with the induced family of every pool entry as
    candidate: the projection check says yes and no."""
    pool = candidate_soft_topologies(n, p)
    space = ElementSpace(pool[0].ambient)
    families = [oracles.induced_topology(tau, space) for tau in pool]
    verdicts = Counter()
    for tau in pool:
        assert_induced_paths_agree(tau, families)
        verdicts.update(check_finest_open_projections(tau, u) for u in families)
    assert verdicts[True] and verdicts[False], verdicts


def assert_sections_agree(family):
    """SEFamily.sections against a walk over the members, one
    SESubset.section per member and parameter."""
    p = family.space.soft_set.param_count
    walked = tuple(
        frozenset(SESubset(family.space, m).section(t).mask for m in family.masks)
        for t in range(p)
    )
    assert family.sections == walked, family.masks


@pytest.mark.parametrize("n, p", [(2, 2), (3, 1)])
def test_family_sections_on_induced_families_of_pool(n, p):
    """An induced family is born with its sections, read from the entries
    that pass; they equal those read from its masks."""
    for tau in candidate_soft_topologies(n, p):
        family = induced_topology(tau)
        assert "sections" in vars(family)
        assert family.sections == SEFamily.sections.func(family), family.masks
        assert_sections_agree(family)


def carriers_up_to_9_soft_elements():
    """Every carrier on up to 3 points and 4 parameters with at most 9 soft
    elements, and wider sections: one of 4 to 9 points, 4 x 2 and 2 x 4."""
    yield from small_carriers(9)
    for k in range(4, 10):
        yield SoftSet.of([range(k)], k)
    yield SoftSet.of([range(4), range(2)], 4)
    yield SoftSet.of([range(2), range(4)], 4)


def nonempty_submasks(mask: int) -> list[int]:
    return [m for m in range(1, mask + 1) if not m & ~mask]


def test_realized_entries_are_the_products_of_nonempty_sections():
    """The lemma behind `induced_topology`, exhaustively up to 9 soft
    elements: the distinct section entries of the subsets of SE(F) are 0
    and every choice of nonempty A_t inside F(t), one per parameter."""
    carriers = 0
    for carrier in carriers_up_to_9_soft_elements():
        n = carrier.universe_size
        choices = product(*(nonempty_submasks(s.mask) for s in carrier.sections))
        expected = {0} | {sum(a << t * n for t, a in enumerate(c)) for c in choices}
        assert set(ElementSpace(carrier).flat_sections) == expected, carrier.key
        carriers += 1
    assert carriers == 2_194


def test_family_sections_on_random_carriers():
    """Induced families, and arbitrary families (the empty one among
    them), on carriers with non-full and singleton sections."""
    rng = rng_for("family-sections")
    for _ in range(60):
        ambient = random_wide_carrier(rng)
        space = ElementSpace(ambient)
        tau = random_soft_topology(rng, ambient)
        assert_sections_agree(induced_topology(tau))
        masks = {rng.randrange(1 << space.size) for _ in range(rng.randrange(4))}
        assert_sections_agree(SEFamily(space, tuple(sorted(masks))))


def random_wide_carrier(rng):
    """Up to 3 points and 4 parameters, at most 12 soft elements; sections
    are singletons a third of the time and otherwise random."""
    while True:
        n, p = rng.randint(1, 3), rng.randint(1, 4)
        sections = [
            1 << rng.randrange(n)
            if rng.random() < 1 / 3
            else random_nonempty_mask(rng, n)
            for _ in range(p)
        ]
        ambient = SoftSet(tuple(FinSet(n, m) for m in sections))
        if ElementSpace(ambient).size <= 12:
            return ambient


def test_induced_paths_on_random_carriers():
    """Carriers with non-full and singleton sections and up to 4
    parameters; candidates are the other topology's induced family, a few
    of its members, and random masks."""
    rng = rng_for("oracle-equivalence-induced")
    kinds = Counter()
    for _ in range(120):
        ambient = random_wide_carrier(rng)
        space = ElementSpace(ambient)
        tau1 = random_soft_topology(rng, ambient)
        tau2 = random_soft_topology(rng, ambient)
        other = oracles.induced_topology(tau2, space).masks
        picks = rng.sample(other, min(3, len(other)))
        noise = [rng.randrange(1 << space.size) for _ in range(3)]
        candidates = [
            SEFamily(space, other),
            SEFamily(space, tuple(sorted(set(picks)))),
            SEFamily(space, tuple(sorted(set(picks + noise)))),
        ]
        assert_induced_paths_agree(tau1, candidates)
        full = (1 << ambient.universe_size) - 1
        kinds["p=4"] += ambient.param_count == 4
        kinds["singleton"] += any(m.bit_count() == 1 for m in ambient.key)
        kinds["not full"] += any(m != full for m in ambient.key)
    assert kinds["p=4"] and kinds["singleton"] and kinds["not full"], kinds


@st.composite
def projection_candidates(draw):
    """A seeded random soft topology on a carrier of up to 3 points and 3
    parameters (at most 8 soft elements) and an arbitrary family of
    soft-element subsets, half the time drawn from its induced family."""
    n = draw(st.integers(min_value=1, max_value=3))
    p = draw(st.integers(min_value=1, max_value=3))
    sections = draw(
        st.lists(st.integers(1, (1 << n) - 1), min_size=p, max_size=p).filter(
            lambda ms: prod(m.bit_count() for m in ms) <= 8
        )
    )
    ambient = SoftSet(tuple(FinSet(n, m) for m in sections))
    space = ElementSpace(ambient)
    rng = rng_for(f"projection-{draw(st.integers(0, 999))}")
    tau = random_soft_topology(rng, ambient)
    if draw(st.booleans()):
        pool = oracles.induced_topology(tau, space).masks
        masks = draw(st.lists(st.sampled_from(pool), max_size=8))
    else:
        masks = draw(st.lists(st.integers(0, (1 << space.size) - 1), max_size=8))
    return tau, SEFamily(space, tuple(sorted(set(masks))))


@settings(max_examples=300, deadline=None)
@given(projection_candidates())
def test_projection_check_on_arbitrary_families(instance):
    tau, candidate = instance
    assert check_finest_open_projections(
        tau, candidate
    ) == oracles.check_finest_open_projections(tau, candidate)
    assert reconstruct(candidate) == oracles.reconstruct(candidate)


# ------------------------------------------- induced verdicts from shape


def induced_by_table(space):
    """T0/T1/T2 of the induced pair, decided on the minimal members its
    families read from their subset tables."""
    pair = induced_bitop(space)
    return tuple(decide(pair)[0] for decide in (pairwise_t0, pairwise_t1, pairwise_t2))


def assert_induced_verdicts_agree(space):
    """The verdicts `separation` reads from the shape (`induced_verdicts`)
    against the table path, and soft T2, read from the shape too, against
    the scan over pairs of opens."""
    assert space.separation.induced == induced_by_table(space), space.soft_set.key
    assert pairwise_soft_t2(space) == oracles.pairwise_soft_t2(space)


def shaped_carrier(sizes):
    """A carrier whose section t has sizes[t] points, the first points of
    the universe at even t and the last ones at odd t."""
    n = max(sizes)
    return SoftSet.of(
        [range(m) if t % 2 == 0 else range(n - m, n) for t, m in enumerate(sizes)], n
    )


# Every shape with two or more sections of two or more points and at most
# 20 soft elements, the filtration guard, as its sorted section sizes.
SHAPES_UP_TO_20 = [
    sizes
    for k in (2, 3, 4)
    for sizes in combinations_with_replacement(range(2, 11), k)
    if prod(sizes) <= 20
]


@pytest.mark.parametrize("sizes", SHAPES_UP_TO_20, ids=str)
def test_induced_verdicts_of_the_indiscrete_pair_by_shape(sizes):
    """The indiscrete pair, whose induced family lies inside every other
    on its carrier, on each shape, its reverse, and the shape with a
    one-point section after its first: only the 2x2 shape fails induced
    T2, padded or not."""
    for shape in (sizes, sizes[::-1], sizes[:1] + (1,) + sizes[1:]):
        ambient = shaped_carrier(shape)
        null = SoftSet.null(len(shape), ambient.universe_size)
        tau = SoftTopology.build([null, ambient], ambient)
        space = SoftBitopSpace(ambient, tau, tau)
        assert_induced_verdicts_agree(space)
        assert space.separation.induced == (True, True, sizes != (2, 2)), shape


@pytest.mark.parametrize("n, p", [(2, 2), (3, 1)])
def test_induced_verdicts_on_all_pool_pairs(n, p):
    pool = candidate_soft_topologies(n, p)
    ambient = pool[0].ambient
    tally = Counter()
    for tau1 in pool:
        for tau2 in pool:
            space = SoftBitopSpace(ambient, tau1, tau2)
            assert_induced_verdicts_agree(space)
            tally[space.separation.induced] += 1
    assert len(tally) > 1, tally


def test_induced_verdicts_on_sampled_3x2_pool_pairs():
    """The sample of `test_soft_deciders_on_sampled_3x2_pool_pairs`: the
    shape (3, 3), where every induced pair holds all three."""
    pool = candidate_soft_topologies(3, 2)
    ambient = pool[0].ambient
    for i, j in sampled_3x2_pool_pairs(pool):
        space = SoftBitopSpace(ambient, pool[i], pool[j])
        assert_induced_verdicts_agree(space)
        assert space.separation.induced == (True, True, True), (i, j)


def test_induced_t2_of_every_2x2_component_combination():
    """Every choice of the four component topologies of the 2x2 shape, the
    sections {0, 1} at two parameters t and s, alone and with a one-point
    section before, between and after them.  The induced family reads only
    the component topologies and a one-point section filters no subset, so
    these 4^4 combinations exhaust the shape.  On each, the table path must
    give the closed form of README Claim A: with Diu meaning that tau_i's
    component at u is discrete, induced T2 holds iff (D1t or D2s) and
    (D1s or D2t), on 49 of the 256."""
    topos = enumerate_topologies(2)
    point = ClassicalTopology.build(
        [FinSet.empty(2), FinSet.of([0], 2)], 2, carrier=FinSet.of([0], 2)
    )
    for pad in (None, 0, 1, 2):
        sections = [[0, 1], [0, 1]]
        if pad is not None:
            sections.insert(pad, [0])
        ambient = SoftSet.of(sections, 2)
        holds = 0
        for a, b, c, d in product(topos, repeat=4):
            (d1t, d1s, d2t, d2s) = (len(sigma.opens) == 4 for sigma in (a, b, c, d))
            closed_form = (d1t or d2s) and (d1s or d2t)
            sigmas = ([a, b], [c, d])
            if pad is not None:
                for sigma in sigmas:
                    sigma.insert(pad, point)
            tau1, tau2 = (canonical_topology(ambient, s) for s in sigmas)
            space = SoftBitopSpace(ambient, tau1, tau2)
            assert induced_by_table(space) == (True, True, closed_form), (pad, sigmas)
            assert space.separation.induced == (True, True, closed_form)
            holds += closed_form
        assert holds == 49, pad


@pytest.mark.parametrize("n, p", [(2, 2), (3, 1), (3, 2)])
def test_enlargement_induces_the_same_family(n, p):
    """The canonical enlargement induces the family of the topology it
    enlarges, which the enlargement row of `verify_theorems` relies on: the
    family of each entry against the oracle's filtration of the entry's
    enlargement, on an element space of its own.  At 3x2 on the entries of
    the seeded sample."""
    pool = candidate_soft_topologies(n, p)
    es = ElementSpace(pool[0].ambient)
    if (n, p) == (3, 2):
        pool = [pool[k] for k in sorted(set(chain(*sampled_3x2_pool_pairs(pool))))]
    for tau in pool:
        expected = oracles.induced_topology(tau.enlargement, es)
        assert induced_topology(tau).masks == expected.masks, tau.flat_opens


@st.composite
def spaces_up_to_16_soft_elements(draw):
    """A carrier of 1 to 4 points x 1 to 4 parameters, with any nonempty
    sections and at most 16 soft elements, and two soft topologies on it,
    each the closure of a few random flat soft sets under OR and AND."""
    n, p = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    sections, room = [], 16
    for _ in range(p):
        fits = [m for m in range(1, 1 << n) if m.bit_count() <= room]
        sections.append(draw(st.sampled_from(fits)))
        room //= sections[-1].bit_count()
    ambient = SoftSet(tuple(FinSet(n, m) for m in sections))
    whole = flat_soft_set(ambient)
    taus = []
    for _ in range(2):
        drawn = draw(st.lists(st.integers(0, whole), max_size=4))
        flats = closure_under_or_and({0, whole} | {f & whole for f in drawn})
        opens = [soft_set_of_flat(f, n, p) for f in flats]
        taus.append(SoftTopology.build(opens, ambient))
    return SoftBitopSpace(ambient, *taus)


@settings(max_examples=300, deadline=None)
@given(spaces_up_to_16_soft_elements())
def test_induced_verdicts_on_arbitrary_spaces(space):
    assert_induced_verdicts_agree(space)


# ---------------------------------------------------------------- soft T1


def assert_soft_t1_agrees(space) -> bool:
    """Soft T1 gives the verdict and the least witness of the row decider
    it replaced, and holds iff every soft element, as a flat soft set, is
    open in both topologies.  Returns the verdict."""
    verdict = pairwise_soft_t1(space)
    assert verdict == oracles.pairwise_soft_t1_rows(space), space
    flat = space.space.flat_elements
    opens = space.tau1.flat_open_set & space.tau2.flat_open_set
    assert verdict.holds == opens.issuperset(flat), space
    return verdict.holds


@pytest.mark.parametrize(
    "n, p", [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (1, 3), (2, 3)]
)
def test_soft_t1_against_rows_on_all_pool_pairs(n, p):
    """On one point there is one soft element, and T1 always holds."""
    pool = candidate_soft_topologies(n, p)
    ambient = pool[0].ambient
    tally = Counter(
        assert_soft_t1_agrees(SoftBitopSpace(ambient, tau1, tau2))
        for tau1 in pool
        for tau2 in pool
    )
    assert tally[True] and (tally[False] or n == 1), tally


def test_soft_t1_against_rows_on_sampled_3x2_pool_pairs():
    pool = candidate_soft_topologies(3, 2)
    ambient = pool[0].ambient
    tally = Counter(
        assert_soft_t1_agrees(SoftBitopSpace(ambient, pool[i], pool[j]))
        for i, j in sampled_3x2_pool_pairs(pool)
    )
    assert tally[True] and tally[False], tally


@settings(max_examples=300, deadline=None)
@given(spaces_up_to_16_soft_elements())
def test_soft_t1_against_rows_on_arbitrary_spaces(space):
    assert_soft_t1_agrees(space)


# ---------------------------------------------------------------- closure


def families_holding_empty_and_carrier(carrier: int):
    """Every family of subsets of the carrier mask that holds 0 and the
    carrier, in the order of `enumerate_topologies`."""
    middles = [m for m in range(1, carrier) if not m & ~carrier]
    for choice in range(1 << len(middles)):
        masks = {0, carrier}
        masks.update(m for i, m in enumerate(middles) if choice >> i & 1)
        yield masks


def test_closure_check_on_every_family_of_3_and_4_point_carriers():
    """The check from least neighbourhoods against the test of every pair
    of members, on every family that holds 0 and its carrier: a 3-point
    universe, a 4-point one, and two 3-point carriers inside it.  The
    topologies among them are 355 + 3 * 29 (OEIS A000798)."""
    families = topologies = 0
    for n, carrier in ((3, 0b111), (4, 0b1111), (4, 0b1011), (4, 0b1110)):
        for masks in families_holding_empty_and_carrier(carrier):
            closed = oracles._closed_masks(masks)
            assert is_topology_masks(masks, carrier) == closed, (n, masks)
            opens = [FinSet(n, m) for m in masks]
            assert is_topology(opens, n, FinSet(n, carrier)) == closed, (n, masks)
            families += 1
            topologies += closed
    assert (families, topologies) == (16_576, 442)


@st.composite
def arbitrary_classical_families(draw):
    """Any family on up to 5 points and any carrier: members may leave the
    carrier, and 0 or the carrier may be missing."""
    n = draw(st.integers(1, 5))
    carrier = draw(st.integers(0, (1 << n) - 1))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=8))
    if draw(st.booleans()):
        masks = [m & carrier for m in masks] + [0, carrier]
    return n, carrier, masks


@settings(max_examples=400, deadline=None)
@given(arbitrary_classical_families())
def test_is_topology_on_arbitrary_families(instance):
    n, carrier, masks = instance
    opens, on = [FinSet(n, m) for m in masks], FinSet(n, carrier)
    assert is_topology(opens, n, on) == oracles.is_topology(opens, n, on), instance


def closure_under_or_and(flats: set[int]) -> set[int]:
    """The least family holding flats that is closed under OR and AND."""
    while True:
        closed = flats | {a | b for a in flats for b in flats}
        closed |= {a & b for a in closed for b in closed}
        if closed == flats:
            return flats
        flats = closed


def soft_set_of_flat(flat: int, n: int, p: int) -> SoftSet:
    full = (1 << n) - 1
    return SoftSet(tuple(FinSet(n, flat >> (t * n) & full) for t in range(p)))


def test_is_soft_topology_on_every_family_of_a_3_cell_carrier():
    """The ambient has sections {x0, x1} and {x1}, three cells.  All 256
    families of its 8 soft subsets; as the check works on the cells, the
    topologies among them are the 29 topologies on 3 points."""
    ambient = SoftSet.of([[0, 1], [1]], 2)
    subsets = [soft_set_of_flat(f, 2, 2) for f in range(16) if not f & 0b0100]
    assert len(subsets) == 8
    verdicts = Counter()
    for choice in range(1 << len(subsets)):
        family = [h for i, h in enumerate(subsets) if choice >> i & 1]
        holds = is_soft_topology(family, ambient)
        assert holds == oracles.is_soft_topology(family, ambient), choice
        verdicts[holds] += 1
    assert verdicts == {True: 29, False: 227}
    outside = SoftSet.of([[0], [0]], 2)
    for check in (is_soft_topology, oracles.is_soft_topology):
        with pytest.raises(InputError):
            check([SoftSet.null(2, 2), ambient, outside], ambient)


@st.composite
def soft_families(draw):
    """Families on the full 2x2 or 3x2 carrier: random soft subsets, with
    or without the null and the full soft set, and closed under soft union
    and intersection or not, so that both verdicts occur."""
    n, p = draw(st.sampled_from([(2, 2), (3, 2)]))
    whole = (1 << n * p) - 1
    flats = set(draw(st.lists(st.integers(0, whole), max_size=6)))
    if draw(st.booleans()):
        flats |= {0, whole}
    if draw(st.booleans()):
        while True:
            more = {a | b for a in flats for b in flats}
            more |= {a & b for a in flats for b in flats}
            if more <= flats:
                break
            flats |= more
    ambient = SoftSet.of([range(n)] * p, n)
    return ambient, [soft_set_of_flat(f, n, p) for f in sorted(flats)]


@settings(max_examples=300, deadline=None)
@given(soft_families())
def test_is_soft_topology_on_arbitrary_families(instance):
    ambient, family = instance
    holds = is_soft_topology(family, ambient)
    assert holds == oracles.is_soft_topology(family, ambient), instance


@st.composite
def subbases(draw):
    """A carrier of up to 5 points, maybe empty or proper, and a subbase
    inside it."""
    n = draw(st.integers(1, 5))
    carrier = draw(st.integers(0, (1 << n) - 1))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=6))
    return n, carrier, [m & carrier for m in masks]


@settings(max_examples=400, deadline=None)
@given(subbases())
def test_generate_topology_against_fixed_point(instance):
    n, carrier, masks = instance
    subbase, on = [FinSet(n, m) for m in masks], FinSet(n, carrier)
    topo = generate_topology(subbase, n, on)
    assert topo == oracles.generate_topology(subbase, n, on), instance
    # The least opens the generator computed, kept on the topology.
    assert "minimal_members" in vars(topo)
    assert topo.minimal_members == oracles.minimal_members(topo), instance


def test_generate_topology_refuses_a_member_outside_the_carrier():
    subbase, on = [FinSet(3, 0b011)], FinSet(3, 0b110)
    for generate in (generate_topology, oracles.generate_topology):
        with pytest.raises(InputError):
            generate(subbase, 3, on)


def test_is_canonical_on_pools():
    """Every entry of the 2x2 and 3x1 pools and a seeded sample of 200
    entries of the 3x2 pool: the count of opens agrees with building the
    enlargement, and both verdicts occur."""
    rng = rng_for("oracle-equivalence-canonical")
    pool_3x2 = candidate_soft_topologies(3, 2)
    taus = candidate_soft_topologies(2, 2) + candidate_soft_topologies(3, 1)
    taus += rng.sample(pool_3x2, 200)
    verdicts = Counter()
    for tau in taus:
        holds = is_canonical(tau)
        assert holds == oracles.is_canonical(tau), tau.opens
        verdicts[holds] += 1
    assert verdicts[True] and verdicts[False], verdicts


def assert_least_tables_agree(tau):
    """The least opens, canonicity, the components (kept or built) and the
    least cells against the readings of the full list of opens; the last
    two also on a pickled copy, which keeps no components."""
    assert tau.least_opens == oracles.least_opens(tau), tau.opens
    assert is_canonical(tau) == oracles.is_canonical_by_cells(tau), tau.opens
    p = tau.ambient.param_count
    components = tuple(oracles.component_topology(tau, t) for t in range(p))
    cells = oracles.least_cells(tau)
    copy = pickle.loads(pickle.dumps(tau))
    assert not hasattr(copy, "_components")
    for each in (tau, copy):
        assert each.components == components, tau.opens
        assert each.least_cells == cells, tau.opens


def test_least_tables_on_pools():
    """Every entry of the 2x2, 3x1 and 2x3 pools, diagonal lifts included,
    and the seeded sample of 200 entries of the 3x2 pool of the test
    above: the least opens read from U(c), canonicity read from the
    count, and the components the canonical products keep, agree with
    the readings of the full list of opens."""
    rng = rng_for("oracle-equivalence-canonical")
    shapes = ((2, 2), (3, 1), (2, 3))
    taus = [tau for shape in shapes for tau in candidate_soft_topologies(*shape)]
    taus += rng.sample(candidate_soft_topologies(3, 2), 200)
    kept = Counter(hasattr(tau, "_components") for tau in taus)
    assert kept[True] and kept[False], kept
    for tau in taus:
        assert_least_tables_agree(tau)


@st.composite
def soft_topologies_on_proper_carriers(draw):
    """A soft topology on 2 to 4 points x 1 to 3 parameters whose first
    section misses a point, so some cells lie outside the ambient: the
    closure of a few random flat soft sets under OR and AND."""
    n, p = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    full = (1 << n) - 1
    first = draw(st.integers(1, full - 1))
    rest = draw(st.lists(st.integers(1, full), min_size=p - 1, max_size=p - 1))
    ambient = SoftSet(tuple(FinSet(n, m) for m in [first, *rest]))
    whole = flat_soft_set(ambient)
    drawn = draw(st.lists(st.integers(0, whole), max_size=4))
    flats = closure_under_or_and({0, whole} | {f & whole for f in drawn})
    return SoftTopology.build([soft_set_of_flat(f, n, p) for f in flats], ambient)


@settings(max_examples=300, deadline=None)
@given(soft_topologies_on_proper_carriers())
def test_least_tables_on_proper_carriers(tau):
    """The drawn topology, mostly not canonical, and its enlargement, which
    is canonical on the same carrier."""
    assert_least_tables_agree(tau)
    assert is_canonical(tau) == oracles.is_canonical(tau), tau.opens
    assert_least_tables_agree(tau.enlargement)
    assert is_canonical(tau.enlargement), tau.opens


def _raw_shuffled(sigma):
    """sigma through the raw constructor, its opens unsorted and doubled."""
    return ClassicalTopology(sigma.universe_size, sigma.carrier, sigma.opens[::-1] * 2)


def test_canonical_topology_against_softset_product():
    """Every ordered pair of labelled topologies on 1-3 points x 2
    parameters, each also built through the raw constructor with unsorted
    and duplicate opens: the flat product gives the opens, and the flat
    opens, of the product of SoftSet objects re-keyed and sorted."""
    for n in (1, 2, 3):
        ambient = SoftSet.of([range(n)] * 2, n)
        topos = enumerate_topologies(n)
        for pair in product(topos + [_raw_shuffled(s) for s in topos], repeat=2):
            expected = oracles.canonical_opens(pair)
            tau = canonical_topology(ambient, pair)
            assert "least_cells" not in vars(tau)
            assert tau.flat_opens == tuple(map(flat_soft_set, expected)), pair
            assert tau.opens == expected, pair
            assert_least_tables_agree(tau)


POOL_SHAPES = [(n, p) for n in (1, 2, 3) for p in (1, 2)] + [(2, 3)]


@pytest.mark.parametrize("n, p", POOL_SHAPES)
def test_candidate_pool_against_one_canonical_topology_per_product(n, p):
    """The pool built from components checked once has the entries, in
    the order, the flat opens and the components of the pool built by one
    `canonical_topology` call per product."""
    pool, expected = candidate_soft_topologies(n, p), oracles.candidate_soft_topologies(n, p)
    assert [tau.flat_opens for tau in pool] == [tau.flat_opens for tau in expected]
    assert pool == expected
    assert [tau.components for tau in pool] == [tau.components for tau in expected]


def assert_opens_agree(tau):
    """tau's opens, read first, are the decoded flat opens, in the order
    of `flat_opens`, and each equals, hashes and pickles like the soft set
    `SoftSet` builds from its sections."""
    opens = tau.opens
    assert opens == oracles.decoded_opens(tau), tau.flat_opens
    assert tuple(map(flat_soft_set, opens)) == tau.flat_opens
    for h in opens:
        built = SoftSet(h.sections)
        assert h == built and hash(h) == hash(built) and h.key == built.key
        assert pickle.dumps(h) == pickle.dumps(built)
        assert pickle.loads(pickle.dumps(h)) == built


@pytest.mark.parametrize("n, p", POOL_SHAPES)
def test_opens_against_the_column_decode_on_pools(n, p):
    """Every pool entry (the diagonal lifts are given by their opens, the
    products listed by the pool's dedupe), the canonical topology on its
    components with nothing listed, and the topology `SoftTopology.build`
    makes from its opens, which is canonical for every product."""
    for tau in candidate_soft_topologies(n, p):
        fresh = canonical_topology(tau.ambient, tau.components)
        fresh.opens
        assert "flat_opens" not in vars(fresh)
        built = SoftTopology.build(tau.opens, tau.ambient)
        for each in (tau, fresh, built):
            assert_opens_agree(each)


@st.composite
def soft_topology_families(draw):
    """A soft topology on a carrier of up to 3 points x 3 parameters, as a
    list of soft sets with duplicates, in any order."""
    n, p = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    sections = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=p, max_size=p))
    ambient = SoftSet(tuple(FinSet(n, m) for m in sections))
    whole = flat_soft_set(ambient)
    drawn = draw(st.lists(st.integers(0, whole), max_size=4))
    flats = closure_under_or_and({0, whole} | {f & whole for f in drawn})
    full = (1 << n) - 1
    opens = [
        SoftSet(tuple(FinSet(n, f >> t * n & full) for t in range(p))) for f in flats
    ]
    opens += draw(st.lists(st.sampled_from(opens), max_size=4))
    return ambient, draw(st.permutations(opens))


@settings(max_examples=300, deadline=None)
@given(soft_topology_families())
def test_soft_topology_build_against_sorting_by_key(instance):
    ambient, opens = instance
    expected = oracles.canonical_family(opens)
    tau = SoftTopology.build(opens, ambient)
    assert tau.flat_opens == tuple(map(flat_soft_set, expected)), opens
    assert tau.opens == expected, opens
