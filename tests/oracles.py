"""Brute-force deciders and subcover searches, kept as test oracles.

The closure checks and the generator at the top are the original ones of
`softbitop.finsets` and `softbitop.softtop`, unchanged: `is_topology`,
`_closed_masks` and `is_soft_topology` test every pair of members,
`generate_topology` closes its subbase under unions and intersections to
a fixed point, and `is_canonical` compares a soft topology with the
canonical topology built on its components.  The library decides
closure from the least neighbourhoods U(x) (`finsets.is_topology_masks`)
and generates as unions of the U(x).

`least_opens`, `holders`, `least_cells` and `is_canonical_by_cells`
are the former readings of a soft topology from its full list of opens:
N(a) as the AND of the opens around a, holders[c] as the complement of
the soft elements inside the largest open missing c, U(c) as the AND of
the opens around c, and canonicity as every U(c) lying in the section
block of c.  The library reads the least opens from one table of least
cell neighbourhoods, `SoftTopology.least_cells`, which a canonical
topology builds from the least opens of the components it keeps, and
canonicity as |tau| equal to the product of the component sizes.

The pairwise deciders are the original ones of `softbitop.finsets` and
`softbitop.pairwise`, unchanged: each scans every pair of opens for every
pair of points.  The library decides the same axioms from least open
neighbourhoods; `test_oracle_equivalence.py` checks that both give the
same verdict and the same least witness.  `pairwise_soft_t1_rows` is the
former soft T1 decider of `softbitop.pairwise`, which built one row mask
per soft element from `least_opens`, `holders` and `ElementSpace.inside`;
the library decides T1 from `least_opens` alone.

The three minimum-subcover searches are likewise the original ones,
unchanged: each tries every subfamily through `itertools.combinations`,
smallest first.  The library runs all three through one pruned kernel;
the same test module checks that both give the same subcover, or fail
the same way.  `min_cover_by_index_dfs` is the former kernel
`finsets._min_cover`, unchanged: a depth-first search per size in index
order whose only prune is the OR of the members still available.  The
library's kernel also stops a branch at a lower bound, the number of
points left of which no available member holds two.

`canonical_opens` is the former canonical product of `softbitop.softtop`:
one `SoftSet` per element of the product of the component opens, then
deduplicated and sorted by key (`canonical_family`, which also stood
behind `SoftTopology.build`).  The library builds the flat opens as ORs
of shifted component masks, already in key order, and builds the
`SoftSet` objects only when `SoftTopology.opens` is read.

`decoded_opens` is the former `SoftTopology.opens`: each flat open
decoded, section by section, through a dict from the component's masks
to its opens.  The library keeps that decode for a topology that is not
canonical, and lists a canonical topology's opens as the product of its
component opens.  `candidate_soft_topologies` is the former pool of
`softbitop.pairwise`: one `canonical_topology` call per product, each
checking every component again.  The library checks each enumerated
topology once and builds every product from the checked ones.

`as_classical` is the former view of an induced family as a topology
over soft-element indices, with the former scan for its minimal members
(members visited by size; a member is minimal at a point iff no minimal
member found before it is a subset of it).  The library reads both from
one subset-OR table per family (`SEFamily`).

The induced-family paths at the end are the original ones of
`softbitop.softtop`: the component topology rebuilt from the opens on
every call, the filtration that collects the sections of each subset bit
by bit, and the projection check and reconstruction that walk every soft
element of every member (`SESubset.section`).  The library reads the
sections from one table per element space (`ElementSpace.flat_sections`)
and lists the entries that pass as the product of the component opens;
a canonical topology keeps the components it was built from, and any
other builds them once.

`cover_rows` is the former computation of three `verify_theorems` rows:
the subcover row cuts a `SoftCover` of every open, held as a `SoftSet`;
the transport row builds each cylinder with `cylinder` and cuts the
cylinder cover; and the reconstruction row filters the family the
reconstructed topology induces (`softtop.induced_topology`) and tests the
input's members in it.  Both covers are cut by this module's
`find_finite_subcover`.  The library runs the cover kernel on the flat
opens and flat cylinders, and decides containment from the input's
sections alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain, combinations, product
from operator import and_, or_
from typing import Iterable, Optional, Sequence

from softbitop.errors import CapacityError, InputError, NotACoverError
from softbitop.finsets import (
    BitopPair,
    ClassicalTopology,
    FinSet,
    Witness,
    _collect_masks,
    bits,
    enumerate_topologies,
)
from softbitop import softtop
from softbitop.pairwise import (
    SoftBitopSpace,
    SoftCover,
    Verdict,
    _diagonal_lift,
    cylinder,
    is_pairwise_soft_cover,
)
from softbitop.softsets import (
    SE_FILTRATION_LIMIT,
    ElementSpace,
    SESubset,
    SoftElement,
    SoftSet,
    flat_soft_set,
    soft_intersection,
    soft_subset,
    soft_union,
)
from softbitop.softtop import (
    Reconstruction,
    SEFamily,
    SoftTopology,
    canonical_topology,
)
from softbitop.symbolic import (
    CofiniteSoftSet,
    SubcoverDecision,
    TemplateFamily,
    _check_sizes,
    cf_is_cover,
    cf_section,
)


def is_topology(
    opens: Iterable[FinSet], n: int, carrier: Optional[FinSet] = None
) -> bool:
    """Check the (finite) topology axioms: empty and carrier present, closed
    under binary union and binary intersection.

    Binary closure is exact for finite families since arbitrary unions
    reduce to iterated binary ones.
    """
    if carrier is None:
        carrier = FinSet.full(n)
    elif carrier.universe_size != n:
        raise InputError("carrier universe size mismatch")
    masks = set(_collect_masks(opens, n))
    if any(m & ~carrier.mask for m in masks):
        return False
    if 0 not in masks or carrier.mask not in masks:
        return False
    for a in masks:
        for b in masks:
            if (a | b) not in masks or (a & b) not in masks:
                return False
    return True


def _closed_masks(masks: set[int]) -> bool:
    for a in masks:
        for b in masks:
            if (a | b) not in masks or (a & b) not in masks:
                return False
    return True


def generate_topology(
    subbase: Iterable[FinSet], n: int, carrier: Optional[FinSet] = None
) -> ClassicalTopology:
    """Smallest topology on the carrier containing the subbase.

    The empty intersection contributes the carrier itself; closure under
    binary unions and intersections is then iterated to a fixed point.
    """
    if carrier is None:
        carrier = FinSet.full(n)
    masks = set(_collect_masks(subbase, n))
    if any(m & ~carrier.mask for m in masks):
        raise InputError("subbase member not contained in the carrier")
    masks |= {0, carrier.mask}
    while True:
        new = set()
        for a in masks:
            for b in masks:
                u, i = a | b, a & b
                if u not in masks:
                    new.add(u)
                if i not in masks:
                    new.add(i)
        if not new:
            break
        masks |= new
    return ClassicalTopology(n, carrier, tuple(FinSet(n, m) for m in sorted(masks)))


def minimal_members(sigma: ClassicalTopology) -> tuple[tuple[int, ...], ...]:
    """For each point x, (U(x),) with U(x) the AND of the opens that hold
    x, for a point of the carrier; () for any other point."""
    carrier = sigma.carrier.mask
    return tuple(
        (reduce(and_, [m for m in sigma.open_masks if m >> x & 1], carrier),)
        if carrier >> x & 1
        else ()
        for x in range(sigma.universe_size)
    )


def is_soft_topology(opens: Iterable[SoftSet], ambient: SoftSet) -> bool:
    """Null and ambient present, closed under binary soft union and
    intersection (exact for finite families)."""
    opens = list(opens)
    for h in opens:
        if not soft_subset(h, ambient):
            raise InputError("every member must be a soft subset of the ambient")
    keys = {h.key for h in opens}
    null_key = SoftSet.null(ambient.param_count, ambient.universe_size).key
    if null_key not in keys or ambient.key not in keys:
        return False
    for a in opens:
        for b in opens:
            if soft_union(a, b).key not in keys:
                return False
            if soft_intersection(a, b).key not in keys:
                return False
    return True


def is_canonical(tau: SoftTopology) -> bool:
    return tau.opens == canonical_topology(tau.ambient, tau.components).opens


def least_opens(tau: SoftTopology) -> tuple[int, ...]:
    """For each soft element a, the AND of the flat opens that contain a."""
    return tuple(
        reduce(and_, [h for h in tau.flat_opens if h & a == a])
        for a in ElementSpace(tau.ambient).flat_elements
    )


def holders(tau: SoftTopology) -> tuple[int, ...]:
    """For each cell c, the soft elements outside the union G of the opens
    missing c, which is the largest open missing c: N(j) misses c iff j
    lies in G."""
    space, opens = ElementSpace(tau.ambient), tau.flat_opens
    every = (1 << space.size) - 1
    cells = tau.ambient.param_count * tau.ambient.universe_size
    return tuple(
        every ^ space.inside(reduce(or_, [h for h in opens if not h >> c & 1]))
        for c in range(cells)
    )


def least_cells(tau: SoftTopology) -> tuple[int, ...]:
    """For each cell c, the AND of the flat opens that hold c, scanned
    over every open; 0 for a cell outside the ambient."""
    whole = flat_soft_set(tau.ambient)
    cells = tau.ambient.param_count * tau.ambient.universe_size
    return tuple(
        reduce(and_, [h for h in tau.flat_opens if h >> c & 1], whole)
        if whole >> c & 1
        else 0
        for c in range(cells)
    )


def is_canonical_by_cells(tau: SoftTopology) -> bool:
    """tau equals its enlargement iff each U(c) (`least_cells`, scanned
    over the opens) lies in the section block of c: the enlargement's
    least open around (t, x) is the t-section of U(t, x) alone, and both
    are fixed by their least opens."""
    n = tau.ambient.universe_size
    block = (1 << n) - 1
    cells = enumerate(least_cells(tau))
    return not any(u & ~(block << c // n * n) for c, u in cells)


def canonical_family(opens: Iterable[SoftSet]) -> tuple[SoftSet, ...]:
    """The opens deduplicated and sorted by key."""
    by_key = {h.key: h for h in opens}
    return tuple(by_key[k] for k in sorted(by_key))


def canonical_opens(sigmas: Sequence[ClassicalTopology]) -> tuple[SoftSet, ...]:
    """The opens of the canonical topology on sigmas: one SoftSet per
    element of the product of the component opens, then deduplicated and
    sorted by key."""
    product_opens = product(*(sigma.opens for sigma in sigmas))
    return canonical_family(SoftSet(choice) for choice in product_opens)


def decoded_opens(tau: SoftTopology) -> tuple[SoftSet, ...]:
    """The opens as soft sets, in the order of `flat_opens`: the t-section
    of each flat open decoded to the component's open of that mask."""
    n = tau.ambient.universe_size
    full, columns = (1 << n) - 1, []
    for t, sigma in enumerate(tau.components):
        sections = {o.mask: o for o in sigma.opens}
        columns.append([sections[f >> t * n & full] for f in tau.flat_opens])
    return tuple(map(SoftSet, zip(*columns)))


def candidate_soft_topologies(n: int, p: int) -> list[SoftTopology]:
    """The pool of `softbitop.pairwise.candidate_soft_topologies`: diagonal
    lifts of every labeled topology, then one `canonical_topology` per
    product, deduplicated by flat opens in first-seen order."""
    ambient = SoftSet.of([range(n)] * p, n)
    topos = enumerate_topologies(n)
    lifts = (_diagonal_lift(ambient, sigma.opens) for sigma in topos)
    products = (canonical_topology(ambient, s) for s in product(topos, repeat=p))
    pool: dict[tuple[int, ...], SoftTopology] = {}
    for tau in chain(lifts, products):
        pool.setdefault(tau.flat_opens, tau)
    return list(pool.values())


def pairwise_t0(pair: BitopPair) -> tuple[bool, Witness]:
    """Distinct points are told apart by some open of either topology.

    On failure the least unseparated pair (x, y), x < y, is returned.
    """
    pts = pair.carrier.members()
    masks = sorted(set(pair.first.open_masks) | set(pair.second.open_masks))
    for i, x in enumerate(pts):
        for y in pts[i + 1 :]:
            if not any((m >> x & 1) != (m >> y & 1) for m in masks):
                return False, (x, y)
    return True, None


def pairwise_t1(pair: BitopPair) -> tuple[bool, Witness]:
    """For every ordered (x, y): some first-open keeps x and drops y, and
    some second-open keeps y and drops x."""
    pts = pair.carrier.members()
    fm, sm = pair.first.open_masks, pair.second.open_masks
    for x in pts:
        for y in pts:
            if x == y:
                continue
            ok1 = any(m >> x & 1 and not m >> y & 1 for m in fm)
            ok2 = any(m >> y & 1 and not m >> x & 1 for m in sm)
            if not (ok1 and ok2):
                return False, (x, y)
    return True, None


def pairwise_t2(pair: BitopPair) -> tuple[bool, Witness]:
    """For every ordered (x, y): disjoint opens H in the first and K in the
    second topology with x in H, y in K."""
    pts = pair.carrier.members()
    fm, sm = pair.first.open_masks, pair.second.open_masks
    for x in pts:
        for y in pts:
            if x == y:
                continue
            if not any(
                h >> x & 1 and k >> y & 1 and h & k == 0 for h in fm for k in sm
            ):
                return False, (x, y)
    return True, None



@dataclass(frozen=True)
class FamilyView:
    """Any finite family over point indices on a carrier, shaped like a
    ClassicalTopology for the brute-force deciders above; its members may
    leave the carrier.  It also answers the one read of the library's
    deciders, `minimal_members`, by scanning its members."""

    universe_size: int
    carrier: FinSet
    opens: tuple[FinSet, ...]

    @property
    def open_masks(self) -> tuple[int, ...]:
        return tuple(o.mask for o in self.opens)

    @cached_property
    def minimal_members(self) -> tuple[tuple[int, ...], ...]:
        """For each point, the inclusion-minimal members that contain it."""
        masks = set(self.open_masks)
        by_size = sorted(masks, key=lambda m: (m.bit_count(), m))
        out = []
        for x in range(self.universe_size):
            bit = 1 << x
            around = [m for m in by_size if m & bit]
            meet = reduce(and_, around, -1)
            if meet in masks:
                out.append((meet,))
                continue
            mins: list[int] = []
            for m in around:
                if all(k & ~m for k in mins):
                    mins.append(m)
            out.append(tuple(mins))
        return tuple(out)


def as_classical(family: SEFamily) -> FamilyView:
    """The family over soft-element indices, on the full carrier."""
    n = family.space.size
    return FamilyView(n, FinSet.full(n), tuple(FinSet(n, m) for m in family.masks))


def union_closed(family: SEFamily) -> bool:
    """Holds the empty and the full subset, and a | b for every two members."""
    masks = set(family.masks)
    full = (1 << family.space.size) - 1
    return {0, full} <= masks and all((a | b) in masks for a in masks for b in masks)


def elem_in_soft(a: SoftElement, h: SoftSet) -> bool:
    """Sectionwise membership: a(t) in h(t) for every t."""
    return all(x in s for x, s in zip(a, h.sections))


def pairwise_soft_t0(space: SoftBitopSpace) -> Verdict:
    """Some open of either topology contains exactly one of any two
    distinct soft elements."""
    elems = space.space.elements
    opens = space.tau1.opens + space.tau2.opens
    for i, a in enumerate(elems):
        for b in elems[i + 1 :]:
            if not any(elem_in_soft(a, h) != elem_in_soft(b, h) for h in opens):
                return Verdict(False, (a, b), "least unseparated pair")
    return Verdict(True)


def pairwise_soft_t1(space: SoftBitopSpace) -> Verdict:
    """Each ordered pair (a, b) is split by an open of the first topology
    around a and one of the second around b."""
    elems = space.space.elements

    def split(a: SoftElement, b: SoftElement) -> bool:
        ok1 = any(
            elem_in_soft(a, h) and not elem_in_soft(b, h) for h in space.tau1.opens
        )
        ok2 = any(
            elem_in_soft(b, k) and not elem_in_soft(a, k) for k in space.tau2.opens
        )
        return ok1 and ok2

    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            if i != j and not split(a, b):
                return Verdict(False, (a, b), "least unseparated ordered pair")
    return Verdict(True)


def pairwise_soft_t1_rows(space: SoftBitopSpace) -> Verdict:
    """Soft T1 by one row mask per soft element i, the j for which (i, j)
    is not separated, in the order of the brute-force scan:
    inside(N1(i)) | around2(i), without i, where around(i), the AND of
    `holders` over the cells of i, is the set of j with i in N(j)."""
    es = space.space
    n1, h2 = space.tau1.least_opens, holders(space.tau2)
    for i, a in enumerate(es.flat_elements):
        around = -1
        for c in bits(a):
            around &= h2[c]
        row = (es.inside(n1[i]) | around) & ~(1 << i)
        if row:
            pair = es.element(i), es.element((row & -row).bit_length() - 1)
            return Verdict(False, pair, "least unseparated ordered pair")
    return Verdict(True)


def pairwise_soft_t2(space: SoftBitopSpace) -> Verdict:
    """Each ordered pair (a, b) sits inside soft-disjoint opens drawn from
    the two topologies in their fixed roles.

    Soft disjointness means every section of the intersection is empty.
    """
    elems = space.space.elements

    def separate(a: SoftElement, b: SoftElement) -> bool:
        for h in space.tau1.opens:
            if not elem_in_soft(a, h):
                continue
            for k in space.tau2.opens:
                if not elem_in_soft(b, k):
                    continue
                if all((hs & ks).is_empty for hs, ks in zip(h.sections, k.sections)):
                    return True
        return False

    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            if i != j and not separate(a, b):
                return Verdict(False, (a, b), "least unseparated ordered pair")
    return Verdict(True)


def minimal_subcover_indices(
    cover: Sequence[FinSet], target: FinSet
) -> tuple[int, ...]:
    """Indices of a minimum-cardinality subfamily whose union covers target;
    ties go to the lexicographically least index set."""
    union = 0
    for s in cover:
        if s.universe_size != target.universe_size:
            raise InputError("mismatched universe sizes in cover")
        union |= s.mask
    if target.mask & ~union:
        raise NotACoverError("cover does not cover the target")
    for k in range(len(cover) + 1):
        for combo in combinations(range(len(cover)), k):
            if target.mask & ~_union_of(cover, combo) == 0:
                return combo
    raise AssertionError("unreachable: full cover always works")


def min_cover_by_index_dfs(masks: Sequence[int], target: int) -> tuple[int, ...] | None:
    """The least subfamily (by size, then lexicographically by index) whose
    masks cover target, or None.  Each size is searched depth first in index
    order, so the first hit is the one `combinations` order gives.  A branch
    stops when the members from i on (suffix[i]) cannot cover what is left;
    a member adding no uncovered point is skipped, as no least cover has one.
    """
    n = len(masks)
    suffix = [0] * (n + 1)
    for i in reversed(range(n)):
        suffix[i] = suffix[i + 1] | masks[i] & target

    def search(start: int, left: int, uncovered: int) -> tuple[int, ...] | None:
        if not uncovered:
            return ()
        if left == 1:
            # A leaf: the first member from start on that covers the rest.
            if uncovered & ~suffix[start]:
                return None
            for i in range(start, n):
                if not uncovered & ~masks[i]:
                    return (i,)
            return None
        for i in range(start, n - left + 1):
            if not left or uncovered & ~suffix[i]:
                return None
            if masks[i] & uncovered:
                rest = search(i + 1, left - 1, uncovered & ~masks[i])
                if rest is not None:
                    return (i, *rest)
        return None

    try:
        for k in range(n + 1):
            hit = search(0, k, target)
            if hit is not None:
                return hit
        return None
    finally:
        # search refers to itself through its closure cell: clearing the
        # cell lets refcounting free it, masks and suffix on return.
        del search


def _union_of(cover: Sequence[FinSet], indices: Iterable[int]) -> int:
    u = 0
    for i in indices:
        u |= cover[i].mask
    return u


def find_finite_subcover(cover: SoftCover) -> tuple[tuple[SoftSet, str], ...]:
    """A minimum-cardinality subfamily still covering the target,
    lexicographically least index set on ties.

    Always succeeds on a finite parameter set: per-parameter finite
    subcovers exist and their union bounds the search.
    """
    verdict = is_pairwise_soft_cover(cover)
    if not verdict.holds:
        raise NotACoverError(f"not a pairwise soft cover: {verdict.detail}")
    members = cover.members
    target = cover.target
    p = target.param_count
    section_masks = [[m.section(t).mask for m, _ in members] for t in range(p)]
    target_masks = [target.section(t).mask for t in range(p)]

    def covers(indices: Sequence[int]) -> bool:
        for t in range(p):
            u = 0
            for i in indices:
                u |= section_masks[t][i]
            if target_masks[t] & ~u:
                return False
        return True

    for k in range(len(members) + 1):
        for combo in combinations(range(len(members)), k):
            if covers(combo):
                return tuple(members[i] for i in combo)
    raise AssertionError("unreachable: the full family covers")


def _finite_family_covers(
    members: Sequence[CofiniteSoftSet], target: CofiniteSoftSet
) -> bool:
    labels: set[int] = set(target.exception_labels)
    for m in members:
        labels.update(m.exception_labels)
    generic = max(labels, default=-1) + 1
    for s in sorted(labels) + [generic]:
        union = 0
        for m in members:
            union |= cf_section(m, s).mask
        if cf_section(target, s).mask & ~union:
            return False
    return True


def decide_finite_subcover(
    family: TemplateFamily, target: CofiniteSoftSet
) -> SubcoverDecision:
    """Decide whether some finite subfamily covers the target.

    Any finite subfamily must cover the cofinitely many generic labels
    using defaults only, so the generic condition is necessary; candidate
    template indices beyond the exceptional labels can be standardized to
    at most two fresh ones.  The residual finite problem is searched
    exhaustively, smallest subfamilies (then lexicographically least
    index sets) first.
    """
    _check_sizes(family, target)
    if not cf_is_cover(family, target).holds:
        raise NotACoverError("the full family does not cover the target")
    labels = sorted(set(family.mentioned_labels()) | set(target.exception_labels))
    fresh = max(labels, default=-1) + 1
    index_pool = list(labels)
    if family.template is not None:
        index_pool += [fresh, fresh + 1]

    candidates: list[CofiniteSoftSet] = [
        family.template_member(t) for t in index_pool
    ] if family.template is not None else []
    candidates += list(family.explicit_members)

    # Generic-label union with every default participating: the best any
    # finite subfamily can do away from its own indices.
    generic_union = 0
    if family.template is not None:
        generic_union |= family.template[1].mask
    for m in family.explicit_members:
        generic_union |= m.default_section.mask
    generic_fin = FinSet(family.universe_size, generic_union)

    for k in range(len(candidates) + 1):
        for combo in combinations(range(len(candidates)), k):
            chosen = tuple(candidates[i] for i in combo)
            if _finite_family_covers(chosen, target):
                return SubcoverDecision(
                    True, chosen, generic_fin, f"finite subcover of size {k}"
                )
    return SubcoverDecision(
        False,
        None,
        generic_fin,
        "at any label beyond a finite index set the union section is "
        f"{set(generic_fin.members())} and does not cover the target default "
        f"{set(target.default_section.members())}",
    )


def component_topology(tau: SoftTopology, t: int) -> ClassicalTopology:
    """The family of t-sections of the soft opens: a topology on F(t)."""
    carrier = tau.ambient.section(t)
    n = tau.ambient.universe_size
    sections = {h.section(t).mask for h in tau.opens}
    topo = ClassicalTopology(n, carrier, tuple(FinSet(n, m) for m in sorted(sections)))
    # Sectioning a soft topology always yields a topology; anything else
    # is a bug upstream.
    assert is_topology(topo.opens, n, carrier)
    return topo


def induced_topology(tau: SoftTopology, space: ElementSpace | None = None) -> SEFamily:
    """The family of soft-element subsets whose every section is open in
    the matching component topology, by exhaustive filtration."""
    if space is None:
        space = ElementSpace(tau.ambient)
    elif space.soft_set != tau.ambient:
        raise InputError("element space does not match the topology's ambient")
    n = space.size
    if n > SE_FILTRATION_LIMIT:
        raise CapacityError(
            f"soft-element count {n} exceeds filtration guard {SE_FILTRATION_LIMIT}"
        )
    p = space.soft_set.param_count
    comp = [set(component_topology(tau, t).open_masks) for t in range(p)]
    # coordinate bit contributed by element i at parameter t
    coord = [[1 << e[t] for e in space.elements] for t in range(p)]
    masks = []
    for m in range(1 << n):
        ok = True
        for t in range(p):
            sec = 0
            mm = m
            ct = coord[t]
            while mm:
                i = (mm & -mm).bit_length() - 1
                sec |= ct[i]
                mm &= mm - 1
            if sec not in comp[t]:
                ok = False
                break
        if ok:
            masks.append(m)
    return SEFamily(space, tuple(masks))


def check_finest_open_projections(tau: SoftTopology, candidate: SEFamily) -> bool:
    """True iff every member of the candidate family has all its sections
    component-open."""
    p = tau.ambient.param_count
    comp = [set(component_topology(tau, t).open_masks) for t in range(p)]
    for sub in (SESubset(candidate.space, m) for m in candidate.masks):
        for t in range(p):
            if sub.section(t).mask not in comp[t]:
                return False
    return True


def reconstruct(u: SEFamily) -> Reconstruction:
    """Generate per-parameter topologies from the sections of u, build the
    canonical soft topology on top, and certify that u is contained in the
    family it induces back on the soft elements."""
    space = u.space
    if space.size == 0:
        raise InputError("the soft-element list must be nonempty")
    ambient = space.soft_set
    n = ambient.universe_size
    sigmas = []
    for t in range(ambient.param_count):
        subbase = [sub.section(t) for sub in (SESubset(space, m) for m in u.masks)]
        sigmas.append(generate_topology(subbase, n, carrier=ambient.section(t)))
    tau_hat = canonical_topology(ambient, sigmas)
    induced = induced_topology(tau_hat, space)
    contained = all(induced.contains_mask(m) for m in u.masks)
    assert contained, "reconstruction must contain its input family"
    return Reconstruction(tuple(sigmas), tau_hat, contained)


def cover_rows(space: SoftBitopSpace) -> tuple[bool, int, Optional[bool], bool]:
    """The verdicts of the rows finite-params-subcover-exists (with its
    subcover size), cylinder-cover-transport (None where the space is not
    canonical and the row does not apply) and
    reconstruction-contains-input."""
    opens = tuple((h, "tau1") for h in space.tau1.opens) + tuple(
        (h, "tau2") for h in space.tau2.opens
    )
    sub = find_finite_subcover(SoftCover(space, space.soft_set, opens))
    union = reduce(or_, (flat_soft_set(m) for m, _ in sub), 0)
    covered = flat_soft_set(space.soft_set) & ~union == 0

    transport = None
    if is_canonical(space.tau1) and is_canonical(space.tau2):
        transport = True
        for t in range(space.soft_set.param_count):
            for prov, tau in (("tau1", space.tau1), ("tau2", space.tau2)):
                cyls = tuple(
                    (cylinder(space, t, v, prov).soft_set, prov)
                    for v in component_topology(tau, t).opens
                )
                try:
                    csub = find_finite_subcover(SoftCover(space, space.soft_set, cyls))
                except NotACoverError:
                    transport = False
                    continue
                sec_union = reduce(or_, (m.section(t).mask for m, _ in csub), 0)
                if space.soft_set.section(t).mask & ~sec_union:
                    transport = False

    def contained(u: SEFamily) -> bool:
        ambient = u.space.soft_set
        n = ambient.universe_size
        sigmas = [
            generate_topology([FinSet(n, m) for m in masks], n, ambient.section(t))
            for t, masks in enumerate(u.sections)
        ]
        tau_hat = canonical_topology(ambient, sigmas)
        induced = softtop.induced_topology(tau_hat)
        return set(induced.masks).issuperset(u.masks)

    return covered, len(sub), transport, all(map(contained, space.induced))
