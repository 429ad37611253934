"""Soft bitopological spaces: pairwise separation deciders, covers and
finite subcovers, cylinder transport, a theorem-verification harness, and
an exhaustive counterexample search on small carriers."""

from __future__ import annotations

from collections.abc import Callable, Sequence
from functools import cache, cached_property, reduce
from itertools import chain, islice, product
from math import prod
from operator import or_

from .errors import CapacityError, InputError, NotACoverError
from .finsets import (
    BitopPair,
    FinSet,
    Value,
    _min_cover,
    bits,
    enumerate_topologies,
    pairwise_t0,
    pairwise_t1,
    pairwise_t2,
)
from .softsets import (
    ElementSpace,
    SoftSet,
    check_filtration_guard,
    flat_soft_set,
    soft_subset,
)
from .softtop import (
    SEFamily,
    SoftTopology,
    canonical_enlargement,
    canonical_topology,
    check_finest_open_projections,
    component_topology,
    induced_topology,
    is_canonical,
    reconstruct,
)

SEARCH_MAX_UNIVERSE = 3
SEARCH_MAX_PARAMS = 2

PROVENANCES = ("tau1", "tau2", "both")


class Verdict(Value):
    """Outcome of a decision, with a witness when the universal claim
    fails (or, for existential ones, when it succeeds)."""

    holds: bool
    witness: object = None
    detail: str = ""


class Separation(Value):
    """Every separation verdict of one space: pairwise soft T0/T1/T2 with
    their witnesses, T0/T1/T2 of the component pair at each parameter,
    and T0/T1/T2 of the induced pair, read from the carrier's shape by
    `induced_verdicts`."""

    soft: tuple[Verdict, Verdict, Verdict]
    components: tuple[tuple[bool, bool, bool], ...]
    induced: tuple[bool, bool, bool]


class SoftBitopSpace(Value):
    """A soft set carrying an ordered pair of soft topologies.

    space is the soft set's ElementSpace.  It is built here unless one is
    given, so that many spaces on one soft set can share one.  It is not a
    field: equality, hashing and repr ignore it.
    """

    soft_set: SoftSet
    tau1: SoftTopology
    tau2: SoftTopology

    def __init__(self, soft_set, tau1, tau2, space: ElementSpace = None) -> None:
        self.__dict__["space"] = space
        super().__init__(soft_set, tau1, tau2)

    def __post_init__(self) -> None:
        if self.tau1.ambient != self.soft_set or self.tau2.ambient != self.soft_set:
            raise InputError("both topologies must live on the given soft set")
        if any(s.is_empty for s in self.soft_set.sections):
            raise InputError("all sections of the carrier must be nonempty")
        if self.space is None:
            object.__setattr__(self, "space", ElementSpace(self.soft_set))
        elif self.space.soft_set != self.soft_set:
            raise InputError("element space does not match the soft set")

    @cached_property
    def induced(self) -> tuple[SEFamily, SEFamily]:
        """The families induced by tau1 and tau2 on the soft elements."""
        taus = (self.tau1, self.tau2)
        return tuple(induced_topology(tau, self.space) for tau in taus)

    @cached_property
    def separation(self) -> Separation:
        """Every separation verdict, each decider run once, shared by
        `check` and `verify_theorems`.  The induced verdicts come from the
        carrier's shape and the component verdicts, so only the 2x2 shape
        builds induced families.  A space past the filtration guard is
        refused first: the guard is the one bound on the soft deciders'
        work."""
        check_filtration_guard(self.space.size)
        soft = (pairwise_soft_t0(self), pairwise_soft_t1(self), pairwise_soft_t2(self))
        p = self.soft_set.param_count
        components = tuple(_verdicts(component_bitop(self, t)) for t in range(p))
        induced = induced_verdicts(
            self.space, self.tau1, self.tau2, components.__getitem__
        )
        return Separation(soft, components, induced)


def _verdicts(pair: BitopPair) -> tuple[bool, bool, bool]:
    return pairwise_t0(pair)[0], pairwise_t1(pair)[0], pairwise_t2(pair)[0]


def induced_verdicts(
    es: ElementSpace,
    tau1: SoftTopology,
    tau2: SoftTopology,
    component: Callable[[int], tuple[bool, bool, bool]],
) -> tuple[bool, bool, bool]:
    """T0/T1/T2 of the pair the two topologies induce on the soft elements
    of es, read from the carrier's shape (README, "A note on the verified
    theory", Claim A).  Let k be the number of sections with two or more
    points:
    - k = 0: one soft element, and all three hold;
    - k = 1, at parameter t: the induced pair is the component pair at t
      relabelled, so its verdicts are component(t);
    - k >= 2: T0 and T1 hold, and so does T2, except at the 2x2 shape
      (exactly two such sections, of two points each), where T2 of the
      4-element induced pair is decided on its subset tables.
    """
    sizes = {t: len(s) for t, s in enumerate(es.soft_set.sections) if len(s) > 1}
    if len(sizes) == 1:
        (t,) = sizes
        return component(t)
    if list(sizes.values()) == [2, 2]:
        families = (induced_topology(tau, es) for tau in (tau1, tau2))
        return True, True, pairwise_t2(BitopPair(*families))[0]
    return True, True, True


# The soft T0 and T1 deciders test least soft opens
# (SoftTopology.least_opens) instead of scanning pairs of opens.  An open
# around a that misses b exists iff N(a), the least open around a, misses
# b: every open around a contains N(a).
#
# Each of the two builds one row mask per soft element i: the soft
# elements j for which the ordered pair (i, j) is not separated.  A row is
# a few big-int operations on tables with one mask of soft elements per
# cell of the flat layout (`softsets.flat_soft_set`):
# - ElementSpace.inside(f), the soft elements lying in the flat soft set f;
# - around(i), the AND of SoftTopology.holders over the cells of element
#   i: the soft elements j with i in N(j).
# Rows are built in the order of the brute-force scan, i-major, so the
# lowest set bit of the first nonzero row is the least witness.  A row
# costs O(|SE|.cells) bit operations, the tables are built once per
# topology, and no |SE| x |SE| matrix is ever held.  Soft T2 reads no
# table: it is decided from the carrier's shape (README, Claim B).


def _unseparated(space: SoftBitopSpace, i: int, row: int, detail: str) -> Verdict:
    """The failing verdict at soft element i and the lowest j of its row."""
    elems = space.space.elements
    return Verdict(False, (elems[i], elems[(row & -row).bit_length() - 1]), detail)


def pairwise_soft_t0(space: SoftBitopSpace) -> Verdict:
    """Some open of either topology contains exactly one of any two
    distinct soft elements.

    Decided as: b lies outside N1(a) or N2(a), or a lies outside N1(b) or
    N2(b).  Row i is inside(N1(i) & N2(i)) & around1(i) & around2(i), cut
    to j > i: the later soft elements in both least opens of i whose two
    least opens both hold i.  The search runs this once per pair, so the
    cheap around part comes first and `inside` runs only on a nonzero
    remainder.  Exact for any finite families.
    """
    hit = _t0_row(space.space, space.tau1, space.tau2)
    if hit is None:
        return Verdict(True)
    return _unseparated(space, *hit, "least unseparated pair")


def _t0_row(
    es: ElementSpace, tau1: SoftTopology, tau2: SoftTopology
) -> tuple[int, int] | None:
    """The first soft element i whose T0 row is nonzero, with its row, or
    None when the pair is pairwise soft T0."""
    n1, n2 = tau1.least_opens, tau2.least_opens
    h1, h2 = tau1.holders, tau2.holders
    for i, a in enumerate(es.flat_elements):
        row = -(2 << i)  # every j > i
        while a:
            low = a & -a
            c = low.bit_length() - 1
            row &= h1[c] & h2[c]
            a ^= low
        if row:
            row &= es.inside(n1[i] & n2[i])
        if row:
            return i, row
    return None


def pairwise_soft_t1(space: SoftBitopSpace) -> Verdict:
    """Each ordered pair (a, b) is split by an open of the first topology
    around a and one of the second around b.

    Decided as: b is not in N1(a) and a is not in N2(b).  Row i is
    inside(N1(i)) | around2(i), without i.  Exact for any finite families.
    """
    es = space.space
    n1, h2 = space.tau1.least_opens, space.tau2.holders
    for i, a in enumerate(es.flat_elements):
        around = -1
        for c in bits(a):
            around &= h2[c]
        row = (es.inside(n1[i]) | around) & ~(1 << i)
        if row:
            return _unseparated(space, i, row, "least unseparated ordered pair")
    return Verdict(True)


def pairwise_soft_t2(space: SoftBitopSpace) -> Verdict:
    """Each ordered pair (a, b) sits inside soft-disjoint opens drawn from
    the two topologies in their fixed roles.

    Soft disjointness means every section of the intersection is empty,
    so two soft elements sharing a coordinate are never separated
    (README, Claim B).  With two or more parameters and soft elements the
    first two, e0 and e1, differ at one parameter only: the verdict fails
    at (e0, e1), the first ordered pair.  With one parameter the soft
    elements are the points of its section and the soft opens are the
    component opens, so the verdict is the component pair's, its witness
    points as 1-tuples.
    """
    sections = space.soft_set.sections
    if len(sections) == 1:
        holds, witness = pairwise_t2(component_bitop(space, 0))
        pair = witness and tuple((x,) for x in witness)
    else:
        # e0 and e1 without enumerating the soft elements.
        pair = tuple(islice(product(*(s.members() for s in sections)), 2))
        holds = len(pair) < 2
    if holds:
        return Verdict(True)
    return Verdict(False, pair, "least unseparated ordered pair")


def component_bitop(space: SoftBitopSpace, t: int) -> BitopPair:
    return BitopPair(
        component_topology(space.tau1, t), component_topology(space.tau2, t)
    )


def induced_bitop(space: SoftBitopSpace) -> BitopPair:
    """The pair of induced families, over soft-element indices."""
    return BitopPair(*space.induced)


class SoftCover(Value):
    """A tagged family of soft opens meant to cover a target soft subset."""

    space: SoftBitopSpace
    target: SoftSet
    members: tuple[tuple[SoftSet, str], ...]

    def __post_init__(self) -> None:
        if not soft_subset(self.target, self.space.soft_set):
            raise InputError("target must be a soft subset of the carrier")
        for _, prov in self.members:
            if prov not in PROVENANCES:
                raise InputError(f"unknown provenance tag {prov!r}")


def _member_is_open(space: SoftBitopSpace, member: SoftSet, prov: str) -> bool:
    if prov == "tau1":
        return space.tau1.contains(member)
    if prov == "tau2":
        return space.tau2.contains(member)
    return space.tau1.contains(member) and space.tau2.contains(member)


def is_pairwise_soft_cover(cover: SoftCover) -> Verdict:
    """Members are open where tagged and their sectionwise union contains
    the target sectionwise."""
    for idx, (member, prov) in enumerate(cover.members):
        if not _member_is_open(cover.space, member, prov):
            return Verdict(False, idx, f"member {idx} is not open in {prov}")
    union = reduce(or_, (flat_soft_set(m) for m, _ in cover.members), 0)
    missing = flat_soft_set(cover.target) & ~union
    if missing:
        cell = (missing & -missing).bit_length() - 1
        n = cover.target.universe_size
        return Verdict(False, divmod(cell, n), "uncovered point at parameter")
    return Verdict(True)


def find_finite_subcover(cover: SoftCover) -> tuple[tuple[SoftSet, str], ...]:
    """A minimum-cardinality subfamily still covering the target,
    lexicographically least index set on ties.

    Always succeeds on a finite parameter set: per-parameter finite
    subcovers exist and their union bounds the search.  Delegates to
    `_min_cover`, section t of each soft set shifted by t * universe_size.
    """
    verdict = is_pairwise_soft_cover(cover)
    if not verdict.holds:
        raise NotACoverError(f"not a pairwise soft cover: {verdict.detail}")
    found = _min_cover(
        [flat_soft_set(m) for m, _ in cover.members], flat_soft_set(cover.target)
    )
    assert found is not None, "the full family covers"
    return tuple(cover.members[i] for i in found)


class Cylinder(Value):
    """A cylinder soft set plus whether it is open in the tagged topology."""

    soft_set: SoftSet
    open_in_tagged: bool


def cylinder(
    space: SoftBitopSpace, t0: int, v: FinSet, provenance: str
) -> Cylinder:
    """The soft set equal to v at t0 and to the full section elsewhere.

    v must be open in the tagged side's component topology at t0.  The
    cylinder's membership in the tagged topology is reported; when that
    topology is canonical it is one of its opens.
    """
    if provenance not in ("tau1", "tau2"):
        raise InputError("provenance must be 'tau1' or 'tau2'")
    tau = space.tau1 if provenance == "tau1" else space.tau2
    comp = component_topology(tau, t0)
    if not comp.contains(v):
        raise InputError("cylinder base is not open in the component topology")
    sections = list(space.soft_set.sections)
    sections[t0] = v
    cyl = SoftSet(tuple(sections))
    return Cylinder(cyl, tau.contains(cyl))


class TheoremCheck(Value):
    name: str
    applicable: bool
    passed: bool
    detail: str = ""


class TheoremReport(Value):
    checks: tuple[TheoremCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks if c.applicable)


def verify_theorems(space: SoftBitopSpace) -> TheoremReport:
    """Evaluate every implication of the theory on one finite space.

    Statements whose hypotheses (canonicality) do not hold are reported
    as not applicable.  The two T2-lift rows,
    component-t2-implies-soft-t2-on-canonical and
    canonical-componentwise-equivalence-t2, record a false claim of the
    source theory: they FAIL on canonical spaces whose component pairs
    are pairwise T2 but where two soft elements share a coordinate, since
    soft disjointness needs an empty intersection at every parameter.  A
    FAIL on any other row indicates an implementation bug.
    """
    # `separation` refuses a space past the filtration guard before
    # anything is decided.
    sep = space.separation
    checks: list[TheoremCheck] = []
    p = space.soft_set.param_count
    soft, ind = [v.holds for v in sep.soft], sep.induced
    comp = [all(c[j] for c in sep.components) for j in range(3)]
    ind1, ind2 = space.induced
    canonical = is_canonical(space.tau1) and is_canonical(space.tau2)

    def implication(name: str, ante: bool, cons: bool, applicable: bool = True):
        checks.append(
            TheoremCheck(
                name,
                applicable,
                (not applicable) or (not ante) or cons,
                f"antecedent={ante} consequent={cons}" if applicable else "",
            )
        )

    implication("soft-t2-implies-soft-t1", soft[2], soft[1])
    implication("soft-t1-implies-soft-t0", soft[1], soft[0])
    for j in (0, 1, 2):
        implication(f"soft-t{j}-implies-component-t{j}", soft[j], comp[j])
        implication(
            f"component-t{j}-implies-soft-t{j}-on-canonical",
            comp[j],
            soft[j],
            applicable=canonical,
        )
        checks.append(
            TheoremCheck(
                f"canonical-componentwise-equivalence-t{j}",
                canonical,
                (not canonical) or (comp[j] == soft[j]),
                f"component={comp[j]} soft={soft[j]}" if canonical else "",
            )
        )
        implication(f"soft-t{j}-implies-induced-t{j}", soft[j], ind[j])

    # Only union closure is a theorem here: the induced family need not
    # be intersection-closed.
    checks.append(
        TheoremCheck(
            "induced-families-union-closed",
            True,
            ind1.union_closed() and ind2.union_closed(),
        )
    )
    checks.append(
        TheoremCheck(
            "induced-is-finest-with-open-projections",
            True,
            check_finest_open_projections(space.tau1, ind1)
            and check_finest_open_projections(space.tau2, ind2),
        )
    )

    # The enlargement row: the enlargement contains the original, has the
    # same component topologies and so induces the same family, since the
    # induced family reads only the component topologies.
    enlargement_ok = True
    for tau in (space.tau1, space.tau2):
        can = canonical_enlargement(tau)
        if not can.flat_open_set.issuperset(tau.flat_opens):
            enlargement_ok = False
        if can.components != tau.components:
            enlargement_ok = False
    checks.append(
        TheoremCheck(
            "canonical-enlargement-contains-and-preserves",
            True,
            enlargement_ok,
            "contains original, same components, same induced topology",
        )
    )

    checks.append(
        TheoremCheck(
            "reconstruction-contains-input",
            True,
            reconstruct(ind1).contained and reconstruct(ind2).contained,
        )
    )

    # Finite parameter set: every pairwise soft open cover has a finite
    # (here minimal) subcover.  The full family of opens is such a cover;
    # `find_finite_subcover` would cut it with the same kernel.
    whole = flat_soft_set(space.soft_set)
    sub = _min_cover(space.tau1.flat_opens + space.tau2.flat_opens, whole)
    checks.append(
        TheoremCheck(
            "finite-params-subcover-exists",
            True,
            sub is not None,
            f"subcover size {len(sub)}" if sub is not None else "no subcover",
        )
    )

    # Canonical spaces: component covers transport to soft covers through
    # cylinders, equal to an open v of the component at t and to the full
    # section elsewhere, each open in the topology; and a subcover of
    # them covers the ambient, so its sections cover the component.
    transport_ok = True
    if canonical:
        n = space.soft_set.universe_size
        block = (1 << n) - 1
        for t in range(p):
            rest = whole & ~(block << t * n)
            for tau in (space.tau1, space.tau2):
                cyls = [rest | v << t * n for v in tau.components[t].open_masks]
                covered = _min_cover(cyls, whole) is not None
                if not (covered and tau.flat_open_set.issuperset(cyls)):
                    transport_ok = False
    checks.append(
        TheoremCheck(
            "cylinder-cover-transport",
            canonical,
            (not canonical) or transport_ok,
        )
    )

    note = ""
    if not soft[0] and ind[2]:
        note = (
            "induced pair is pairwise t2 while the space is not pairwise "
            "soft t0: converse fails on this space, as expected"
        )
    checks.append(
        TheoremCheck("induced-separation-may-exceed-soft", True, True, note)
    )
    return TheoremReport(tuple(checks))


def _diagonal_lift(
    ambient: SoftSet, sigma_opens: Sequence[FinSet]
) -> SoftTopology:
    """Soft topology whose opens repeat one classical open at every
    parameter; only defined for constant-section carriers."""
    p = ambient.param_count
    opens = [SoftSet(tuple(v for _ in range(p))) for v in sigma_opens]
    return SoftTopology.build(opens, ambient)


def candidate_soft_topologies(n: int, p: int) -> list[SoftTopology]:
    """Deterministic pool of soft topologies on the full constant carrier:
    diagonal lifts of every labeled topology, then every canonical
    product, deduplicated in first-seen order."""
    ambient = SoftSet.of([range(n)] * p, n)
    topos = enumerate_topologies(n)
    lifts = (_diagonal_lift(ambient, sigma.opens) for sigma in topos)
    products = (canonical_topology(ambient, s) for s in product(topos, repeat=p))
    pool: dict[tuple[int, ...], SoftTopology] = {}
    for tau in chain(lifts, products):
        pool.setdefault(tau.flat_opens, tau)
    return list(pool.values())


class SearchResult(Value):
    """Census of two counterexample classes over small enumerated spaces."""

    # (n, p, index of tau1 in pool, index of tau2 in pool, opens of each)
    not_t0_but_induced_t2: tuple[dict, ...]
    strict_enlargements: tuple[dict, ...]


def _topology_descriptor(tau: SoftTopology) -> list[list[list[int]]]:
    return [[list(s.members()) for s in h.sections] for h in tau.opens]


def search_counterexamples(max_universe: int, max_params: int) -> SearchResult:
    """Enumerate small soft bitopological spaces and collect (i) spaces
    that are not pairwise soft t0 yet induce a pairwise t2 pair, and
    (ii) soft topologies strictly below their canonical enlargement."""
    if max_universe < 1 or max_params < 1:
        raise InputError("bounds must be positive")
    if max_universe > SEARCH_MAX_UNIVERSE or max_params > SEARCH_MAX_PARAMS:
        raise CapacityError(
            f"search bounds universe {max_universe}, params {max_params} exceed "
            f"the cap of universe {SEARCH_MAX_UNIVERSE}, params {SEARCH_MAX_PARAMS}"
        )
    class_i: list[dict] = []
    class_ii: list[dict] = []
    for n in range(1, max_universe + 1):
        for p in range(1, max_params + 1):
            pool = candidate_soft_topologies(n, p)
            space = ElementSpace(pool[0].ambient)  # the ambient of every entry
            for idx, tau in enumerate(pool):
                if not is_canonical(tau):
                    enlarged = prod(len(c.opens) for c in tau.components)
                    class_ii.append(
                        {
                            "universe_size": n,
                            "param_count": p,
                            "index": idx,
                            "opens": _topology_descriptor(tau),
                            "enlarged_opens": enlarged,
                        }
                    )
            @cache
            def descriptor(idx: int) -> list[list[list[int]]]:
                return _topology_descriptor(pool[idx])

            # Every entry lives on the pool's one ambient, whose sections
            # are full: the pairs are decided on the entries and one element
            # space, so no pair builds or validates a SoftBitopSpace.  Only
            # the 2x2 shape builds induced families (`induced_verdicts`).
            for i, tau1 in enumerate(pool):
                for j, tau2 in enumerate(pool):
                    if _t0_row(space, tau1, tau2) is None:
                        continue

                    def component(t: int) -> tuple[bool, bool, bool]:
                        pair = BitopPair(tau1.components[t], tau2.components[t])
                        return _verdicts(pair)

                    if induced_verdicts(space, tau1, tau2, component)[2]:
                        class_i.append(
                            {
                                "universe_size": n,
                                "param_count": p,
                                "tau1_index": i,
                                "tau2_index": j,
                                "tau1_opens": descriptor(i),
                                "tau2_opens": descriptor(j),
                            }
                        )
    return SearchResult(tuple(class_i), tuple(class_ii))
