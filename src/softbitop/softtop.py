"""Soft topologies, their component and canonical forms, and the topology
they induce on the enumerated soft elements."""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Sequence
from functools import cached_property, reduce
from itertools import compress
from math import prod
from operator import or_

from .errors import CapacityError, InputError
from .finsets import ClassicalTopology, FinSet, Value, _least, bits
from .finsets import generate_topology, is_topology_masks
from .softsets import (
    ElementSpace,
    SoftSet,
    check_filtration_guard,
    flat_soft_set,
    soft_subset,
)

# Sectionwise product guard for canonical topologies.
CANONICAL_PRODUCT_LIMIT = 1 << 20


def is_soft_topology(opens: Iterable[SoftSet], ambient: SoftSet) -> bool:
    """Null and ambient present, closed under soft union and intersection.

    Handled flat (`flat_soft_set`), soft union and intersection are OR and
    AND, so a soft topology is a topology whose carrier is the flat ambient
    and whose points are its cells; `is_topology_masks` decides it.
    """
    whole = flat_soft_set(ambient)
    masks = set()
    for h in opens:
        if not soft_subset(h, ambient):
            raise InputError("every member must be a soft subset of the ambient")
        masks.add(flat_soft_set(h))
    return is_topology_masks(masks, whole)


class SoftTopology(Value):
    """A validated soft topology, its opens held flat (`flat_soft_set`),
    deduplicated and in key order: by section masks, section 0 first."""

    ambient: SoftSet
    flat_opens: tuple[int, ...]

    @classmethod
    def build(cls, opens: Iterable[SoftSet], ambient: SoftSet) -> "SoftTopology":
        opens = list(opens)
        if not is_soft_topology(opens, ambient):
            raise InputError("family is not a soft topology on the ambient")
        by_key = {h.key: flat_soft_set(h) for h in opens}
        return cls(ambient, tuple(by_key[k] for k in sorted(by_key)))

    @cached_property
    def opens(self) -> tuple[SoftSet, ...]:
        """The opens as soft sets, in the order of `flat_opens`, built on
        first use.  Opens with equal t-sections share one FinSet."""
        n = self.ambient.universe_size
        full, columns = (1 << n) - 1, []
        for t in range(self.ambient.param_count):
            masks = [f >> t * n & full for f in self.flat_opens]
            sections = {m: FinSet(n, m) for m in set(masks)}
            columns.append(map(sections.__getitem__, masks))
        return tuple(map(SoftSet, zip(*columns)))

    @cached_property
    def flat_open_set(self) -> frozenset[int]:
        """The flat opens as a set, for membership tests."""
        return frozenset(self.flat_opens)

    def contains(self, h: SoftSet) -> bool:
        a = self.ambient
        if h.param_count != a.param_count or h.universe_size != a.universe_size:
            return False
        return flat_soft_set(h) in self.flat_open_set

    @cached_property
    def _space(self) -> ElementSpace:
        return ElementSpace(self.ambient)

    @cached_property
    def least_cells(self) -> tuple[int, ...]:
        """For each cell c, U(c), the least open around c, as a flat soft
        set; 0 for a cell outside the ambient.  A soft topology is a finite
        topology on the cells, so these fix it: each open is the union of
        the U(c) over its cells."""
        whole = flat_soft_set(self.ambient)
        cells = self.ambient.param_count * self.ambient.universe_size
        return tuple(
            _least(self.flat_opens, whole, c) if whole >> c & 1 else 0
            for c in range(cells)
        )

    @cached_property
    def least_opens(self) -> tuple[int, ...]:
        """For each soft element a, in ElementSpace order, N(a), the least
        open containing a: the OR of U(c) over the cells c of a, as a soft
        element lies in an open iff each of its cells does."""
        u = self.least_cells
        return tuple(
            reduce(or_, [u[c] for c in bits(a)]) for a in self._space.flat_elements
        )

    @cached_property
    def holders(self) -> tuple[int, ...]:
        """For each cell c, the mask of the soft elements j whose least
        open N(j) holds c: the OR of `ElementSpace.cell_elements[d]` over
        the cells d whose U(d) holds c."""
        out = [0] * len(self.least_cells)
        for u, elements in zip(self.least_cells, self._space.cell_elements):
            for c in bits(u):
                out[c] |= elements
        return tuple(out)

    @cached_property
    def components(self) -> tuple[ClassicalTopology, ...]:
        """The component topologies, each built and validated once."""
        return tuple(_build_component(self, t) for t in range(self.ambient.param_count))

    @cached_property
    def enlargement(self) -> "SoftTopology":
        """The canonical topology built from the component topologies."""
        return canonical_topology(self.ambient, self.components)

    def __len__(self) -> int:
        return len(self.flat_opens)


def _build_component(tau: SoftTopology, t: int) -> ClassicalTopology:
    carrier = tau.ambient.section(t)
    n = tau.ambient.universe_size
    sections = {f >> t * n & (1 << n) - 1 for f in tau.flat_opens}
    topo = ClassicalTopology(n, carrier, tuple(FinSet(n, m) for m in sorted(sections)))
    # Sectioning a soft topology always yields a topology; anything else
    # is a bug upstream.
    assert is_topology_masks(sections, carrier.mask)
    return topo


def component_topology(tau: SoftTopology, t: int) -> ClassicalTopology:
    """The family of t-sections of the soft opens: a topology on F(t)."""
    tau.ambient.section(t)  # rejects an out-of-range parameter
    return tau.components[t]


def canonical_topology(
    ambient: SoftSet, sigmas: Sequence[ClassicalTopology]
) -> SoftTopology:
    """All soft subsets whose t-section is open in sigmas[t], for every t."""
    if len(sigmas) != ambient.param_count:
        raise InputError("need one topology per parameter")
    n = ambient.universe_size
    for t, sigma in enumerate(sigmas):
        if sigma.universe_size != n or any(o.universe_size != n for o in sigma.opens):
            raise InputError("component topology universe mismatch")
        if sigma.carrier != ambient.section(t):
            raise InputError(f"component topology at {t} must live on the section")
    count = prod(len(s.opens) for s in sigmas)
    if count > CANONICAL_PRODUCT_LIMIT:
        raise CapacityError(
            f"canonical topology would have {count} opens; guard is "
            f"{CANONICAL_PRODUCT_LIMIT}"
        )
    # The product of sorted, distinct component masks, section 0
    # outermost, comes out distinct and in key order.
    flat = [0]
    for t, sigma in enumerate(sigmas):
        shifted = [m << t * n for m in sorted(set(sigma.open_masks))]
        flat = [f | m for f in flat for m in shifted]
    return SoftTopology(ambient, tuple(flat))


def canonical_enlargement(tau: SoftTopology) -> SoftTopology:
    """The canonical topology built from tau's own component topologies."""
    return tau.enlargement


def is_canonical(tau: SoftTopology) -> bool:
    """tau equals its enlargement iff each U(c) lies in the section of c:
    the enlargement's least open around (t, x) is the t-section of U(t, x)
    alone, and both are fixed by their least opens."""
    n = tau.ambient.universe_size
    block = (1 << n) - 1
    return not any(u & ~(block << c // n * n) for c, u in enumerate(tau.least_cells))


# A subset table holds one cell per subset S of the soft elements, an
# unsigned int of _CELL bytes, and is worked on packed into one int, cell S
# at byte S * _CELL, so that each pass over all cells is a few big-int
# operations.
_CELL = array("I").itemsize


def _cells(packed: int, size: int) -> array:
    """The 2^size cells of a packed table."""
    return array("I", packed.to_bytes(_CELL << size, "little"))


def _shift_up(packed: int, size: int, i: int) -> int:
    """The packed table whose cell S holds cell S - {i} of packed if S
    holds element i, and 0 otherwise.  The cells lacking element i come in
    runs of 2^i; each run is masked and moved 2^i cells up."""
    run = _CELL << i
    lower = (b"\xff" * run + bytes(run)) * (1 << size - i - 1)
    return (packed & int.from_bytes(lower, "little")) << 8 * run


class SEFamily(Value):
    """A finite family of soft-element subsets, masks sorted ascending.

    The induced families are of this type.  Such a family is union-closed
    but not a topology in general, so it does not pose as a
    `ClassicalTopology`.  It offers the two reads the pairwise deciders of
    `finsets` need, `minimal_members` and `inside`, both from one table over
    all subsets of the soft elements.
    """

    space: ElementSpace
    masks: tuple[int, ...]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SEFamily)
            and self.space.soft_set == other.space.soft_set
            and self.masks == other.masks
        )

    def __hash__(self) -> int:
        return hash((self.space.soft_set, self.masks))

    def contains_mask(self, mask: int) -> bool:
        return mask in self._mask_set

    @cached_property
    def _mask_set(self) -> frozenset[int]:
        return frozenset(self.masks)

    @property
    def universe_size(self) -> int:
        return self.space.size

    @cached_property
    def carrier(self) -> FinSet:
        """All soft elements."""
        return FinSet.full(self.space.size)

    @property
    def opens(self) -> tuple[int, ...]:
        """The members, as masks (`ClassicalTopology.opens` holds FinSets)."""
        return self.masks

    @cached_property
    def _packed(self) -> tuple[int, int]:
        """The members, each in the cell at its own mask, and the subset
        table, both packed.  The table is their zeta transform over the
        subset lattice: one pass per soft element i adds cell S - {i} into
        cell S, so cell S ends as the union of the members inside S.  The
        table has 2^size cells, so it is refused past SE_FILTRATION_LIMIT.
        """
        size = self.space.size
        check_filtration_guard(size)
        cells = array("I", bytes(_CELL << size))
        for m in self.masks:
            cells[m] = m
        members = table = int.from_bytes(cells.tobytes(), "little")
        for i in range(size):
            table |= _shift_up(table, size, i)
        return members, table

    @cached_property
    def table(self) -> array:
        """table[S] is the union of the members inside the subset S."""
        return _cells(self._packed[1], self.space.size)

    def inside(self, s: int) -> int:
        """The union of the members inside the subset mask s."""
        return self.table[s]

    @cached_property
    def minimal_members(self) -> tuple[tuple[int, ...], ...]:
        """For each soft element x, the inclusion-minimal members that
        contain x, as masks ordered by (size, mask); none for an element
        in no member.

        The members strictly inside m are those inside some m - {i}, so
        their union is strict[m], the OR of table[m - {i}] over i in m,
        and m is minimal at exactly the elements of m - strict[m].  That
        difference is taken for all members at once, on packed tables.
        """
        size = self.space.size
        members, table = self._packed
        strict = 0
        for i in range(size):
            strict |= _shift_up(table, size, i)
        own = _cells(members & ~strict, size)
        out: list[list[int]] = [[] for _ in range(size)]
        mins = compress(range(len(own)), own)
        for m in sorted(mins, key=lambda m: (m.bit_count(), m)):
            bits = own[m]
            while bits:
                out[(bits & -bits).bit_length() - 1].append(m)
                bits &= bits - 1
        return tuple(map(tuple, out))

    @cached_property
    def sections(self) -> tuple[frozenset[int], ...]:
        """For each parameter t, the masks of the members' t-sections,
        read once from `ElementSpace.flat_sections` (under its filtration
        guard)."""
        n = self.space.soft_set.universe_size
        full = (1 << n) - 1
        flat = set(map(self.space.flat_sections.__getitem__, self.masks))
        return tuple(
            frozenset({f >> t * n & full for f in flat})
            for t in range(self.space.soft_set.param_count)
        )

    def union_closed(self) -> bool:
        """Holds the empty and the full subset and is closed under unions.

        Given the empty subset, closure under unions is the same as
        holding every table entry: each entry is a union of members, and
        the union a | b of members is the entry at a | b.
        """
        full = (1 << self.space.size) - 1
        members = self._mask_set
        return 0 in members and full in members and members.issuperset(self.table)

    def __len__(self) -> int:
        return len(self.masks)


def induced_topology(
    tau: SoftTopology, space: ElementSpace | None = None
) -> SEFamily:
    """The family of soft-element subsets whose every section is open in
    the matching component topology.

    Computed by exhaustive filtration of all subsets, which is exact: the
    family is defined by a sectionwise membership predicate, not by a
    generating family.  It contains the empty and full subsets and is
    closed under unions, but it is NOT closed under intersections in
    general: sections of an intersection can be strictly smaller than the
    intersections of sections.  The sections of every subset are read
    from `ElementSpace.flat_sections`, which enforces the filtration guard,
    and each distinct entry is tested once against the component opens.

    The family depends only on the component topologies, so it is built
    once per element space and tuple of component opens, and every later
    call with equal components returns the same object.
    """
    if space is None:
        space = ElementSpace(tau.ambient)
    elif space.soft_set != tau.ambient:
        raise InputError("element space does not match the topology's ambient")
    key = tuple(c.open_masks for c in tau.components)
    family = space.induced_families.get(key)
    if family is None:
        flat = space.flat_sections
        n = tau.ambient.universe_size
        full = (1 << n) - 1
        opens = list(enumerate(map(set, key)))
        passed = {f for f in set(flat) if all(f >> t * n & full in o for t, o in opens)}
        keep = compress(range(len(flat)), map(passed.__contains__, flat))
        family = space.induced_families[key] = SEFamily(space, tuple(keep))
    return family


def _sections_open(family: SEFamily, sigmas: Sequence[ClassicalTopology]) -> bool:
    """Every t-section of every member of the family is open in sigmas[t]."""
    return all(
        sections.issubset(sigma.open_masks)
        for sections, sigma in zip(family.sections, sigmas)
    )


def check_finest_open_projections(tau: SoftTopology, candidate: SEFamily) -> bool:
    """True iff every member of the candidate family has all its sections
    component-open, i.e. every coordinate projection maps it to an open set.

    Any such family is contained in the induced one, which is therefore
    the finest family with open projections.  The candidate is not
    required to satisfy the topology axioms: the induced family itself is
    not intersection-closed in general (sections of an intersection can
    be strictly smaller than intersections of sections), so demanding
    them would reject the most important candidate.  The sections are
    read from `SEFamily.sections`.
    """
    return _sections_open(candidate, tau.components)


class Reconstruction(Value):
    """Outcome of rebuilding a canonical soft topology from a topology on
    the soft elements."""

    sigmas: tuple[ClassicalTopology, ...]
    soft_topology: SoftTopology
    contained: bool


def reconstruct(u: SEFamily) -> Reconstruction:
    """Generate per-parameter topologies from the sections of u, build the
    canonical soft topology on top, and certify that u is contained in the
    family it induces back on the soft elements.

    The components of the canonical topology are the sigmas, and the
    family it induces is every subset whose sections are open in them; so
    u is contained iff each of its sections is, and no family is built.
    u may be any family of subsets, topology or not.
    """
    space = u.space
    if space.size == 0:
        raise InputError("the soft-element list must be nonempty")
    ambient = space.soft_set
    n = ambient.universe_size
    sigmas = tuple(
        generate_topology([FinSet(n, m) for m in masks], n, carrier=ambient.section(t))
        for t, masks in enumerate(u.sections)
    )
    tau_hat = canonical_topology(ambient, sigmas)
    return Reconstruction(sigmas, tau_hat, _sections_open(u, sigmas))
