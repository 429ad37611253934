"""Brute-force separation deciders, kept as test oracles.

These are the original deciders of `softbitop.finsets` and
`softbitop.pairwise`, unchanged: each scans every pair of opens for every
pair of points.  The library decides the same axioms from least open
neighbourhoods; `test_oracle_equivalence.py` checks that both give the
same verdict and the same least witness.
"""

from __future__ import annotations

from softbitop.finsets import BitopPair, Witness
from softbitop.pairwise import SoftBitopSpace, Verdict
from softbitop.softsets import SoftElement, SoftSet


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



def elem_in_soft(a: SoftElement, h: SoftSet) -> bool:
    """Sectionwise membership: a(t) in h(t) for every t."""
    return all(x in s for x, s in zip(a, h.sections))


def pairwise_soft_t0(space: SoftBitopSpace) -> Verdict:
    """Some open of either topology contains exactly one of any two
    distinct soft elements."""
    elems = space.space.elements
    opens = space.union_opens
    for i, a in enumerate(elems):
        for b in elems[i + 1 :]:
            if not any(elem_in_soft(a, h) != elem_in_soft(b, h) for h in opens):
                return Verdict(False, (a, b), "least unseparated pair")
    return Verdict(True)


def pairwise_soft_t1(space: SoftBitopSpace, ordered: bool = True) -> Verdict:
    """Each ordered pair (a, b) is split by an open of the first topology
    around a and one of the second around b.

    ordered=False weakens the quantifier to "some order of the pair
    works" (an experimental variant, not used by the theorem harness).
    """
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
            if i == j or (not ordered and j < i):
                continue
            if not (split(a, b) or (not ordered and split(b, a))):
                return Verdict(False, (a, b), "least unseparated ordered pair")
    return Verdict(True)


def pairwise_soft_t2(space: SoftBitopSpace, ordered: bool = True) -> Verdict:
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
            if i == j or (not ordered and j < i):
                continue
            if not (separate(a, b) or (not ordered and separate(b, a))):
                return Verdict(False, (a, b), "least unseparated ordered pair")
    return Verdict(True)
