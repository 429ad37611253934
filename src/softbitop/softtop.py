"""Soft topologies, their component and canonical forms, and the topology
they induce on the enumerated soft elements."""

from __future__ import annotations

from array import array
from collections import deque
from collections.abc import Iterable, Sequence
from functools import cached_property
from itertools import compress, islice, product, repeat
from math import prod
from operator import lt

from .errors import CapacityError, InputError
from .finsets import ClassicalTopology, FinSet, Value, _from_masks, _least, bits
from .finsets import generate_topology, is_topology_masks
from .softsets import (
    ElementSpace,
    SoftSet,
    check_filtration_guard,
    flat_soft_set,
    soft_subset,
)

# Sectionwise product guard for canonical topologies.
CANONICAL_PRODUCT_LIMIT = 1 << 18


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
    deduplicated and in key order: by section masks, section 0 first.

    A topology given by its opens (`build`) holds them as its field
    `flat_opens`.  One built by `canonical_topology` is born with its
    component topologies alone and lists `flat_opens`, their product,
    on first read, under the canonical-product guard; its size,
    membership test, least cells and soft opens read the components and
    list no flat open.  Equality, hashing, `repr`, copies and pickles are
    by the fields, so they list the opens, and past the guard they raise
    its `CapacityError`."""

    __slots__ = ("__dict__", "_components")
    ambient: SoftSet
    # A field with a default: the property below, which lists the opens
    # of a topology built without them.
    flat_opens: tuple[int, ...]

    @cached_property
    def flat_opens(self) -> tuple[int, ...]:
        """The product of the component opens, listed on first read:
        ascending component masks, section 0 outermost, come out distinct
        and in key order.  Only a topology built by `canonical_topology`
        reads it here; one built from its opens holds it as a field."""
        try:
            sigmas = self._components
        except AttributeError:
            raise TypeError(
                "a soft topology needs its flat opens or its components"
            ) from None
        check_product_guard(len(self))
        n, flat = self.ambient.universe_size, [0]
        for t, sigma in enumerate(sigmas):
            shifted = [m << t * n for m in sigma.open_masks]
            flat = [f | m for f in flat for m in shifted]
        return tuple(flat)

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
        first use.  Their t-sections are the opens of the component at t,
        shared by every open and with the component.

        A canonical topology's opens are the product of its component
        opens, which ascend, so the product comes out in key order; it is
        listed under the canonical-product guard, and no flat open is
        listed or decoded.  Any other topology decodes its flat opens
        column by column."""
        sigmas = self.components
        if not self._is_product():
            n = self.ambient.universe_size
            full, columns = (1 << n) - 1, []
            for t, sigma in enumerate(sigmas):
                sections = {o.mask: o for o in sigma.opens}
                columns.append([sections[f >> t * n & full] for f in self.flat_opens])
            return tuple(map(SoftSet, zip(*columns)))
        check_product_guard(len(self))
        sections = list(product(*(sigma.opens for sigma in sigmas)))
        # SoftSet's check that the sections share a universe cannot fail
        # here: each t-section is an open of the component at t, whose
        # universe is the ambient's.  So the opens are made bare and their
        # sections set directly.
        opens = list(map(SoftSet.__new__, repeat(SoftSet, len(sections))))
        deque(map(SoftSet.sections.__set__, opens, sections), 0)
        return tuple(opens)

    @cached_property
    def flat_open_set(self) -> frozenset[int]:
        """The flat opens as a set, for membership tests."""
        return frozenset(self.flat_opens)

    def contains(self, h: SoftSet) -> bool:
        """h is open.  Unlisted, the topology is the product of its
        components: h is open iff each t-section is open at t."""
        # The shape test reads the sections, not the properties over them:
        # cover searches call this per member.
        sections, shape = h.sections, self.ambient.sections
        if len(sections) != len(shape):
            return False
        if sections[0].universe_size != shape[0].universe_size:
            return False
        if "flat_opens" in self.__dict__:
            return flat_soft_set(h) in self.flat_open_set
        for sigma, s in zip(self.components, sections):
            if s.mask not in sigma._mask_set:
                return False
        return True

    def _is_product(self) -> bool:
        """The topology is canonical (`is_canonical`): it lies inside its
        enlargement, which has one open per choice of component opens, so
        it equals it iff it has that many opens."""
        return len(self) == prod(len(sigma.open_masks) for sigma in self.components)

    @cached_property
    def least_cells(self) -> tuple[int, ...]:
        """For each cell c, U(c), the least open around c, as a flat soft
        set; 0 for a cell outside the ambient.  A soft topology is a finite
        topology on the cells, so these fix it: each open is the union of
        the U(c) over its cells.

        When the topology is canonical (`_is_product`), U(t, x) is U_t(x),
        the least open around x in the component at t, shifted to
        parameter t; otherwise U(c) is the AND of the opens around c."""
        n, sigmas = self.ambient.universe_size, self.components
        if self._is_product():
            return tuple(
                at_x[0] << t * n if at_x else 0
                for t, sigma in enumerate(sigmas)
                for at_x in sigma.minimal_members
            )
        whole = flat_soft_set(self.ambient)
        return tuple(
            _least(self.flat_opens, whole, c) if whole >> c & 1 else 0
            for c in range(len(sigmas) * n)
        )

    @cached_property
    def least_opens(self) -> tuple[int, ...]:
        """For each soft element a, in ElementSpace order, N(a), the least
        open containing a: the OR of U(c) over the cells c of a, as a soft
        element lies in an open iff each of its cells does.  Built column
        by column over the sections, as `ElementSpace.elements` is."""
        u, n, out = self.least_cells, self.ambient.universe_size, [0]
        for t, ms in enumerate(self.ambient.space._factors):
            column = [u[t * n + x] for x in ms]
            out = [o | c for o in out for c in column]
        return tuple(out)

    @property
    def components(self) -> tuple[ClassicalTopology, ...]:
        """The component topologies: kept by `canonical_topology`, else
        built from the opens on first read, each validated once.  They
        are kept in a slot that is no field, so copies and pickles start
        without them, and an instance's dict does not grow for them."""
        try:
            return self._components
        except AttributeError:
            p = self.ambient.param_count
            built = tuple(_build_component(self, t) for t in range(p))
            object.__setattr__(self, "_components", built)
            return built

    @property
    def enlargement(self) -> "SoftTopology":
        """The canonical topology on the component topologies: the topology
        itself if canonical (`_is_product`), not cached, so that it holds
        no reference to itself; else built on first read."""
        return self if self._is_product() else self._enlarged

    @cached_property
    def _enlarged(self) -> "SoftTopology":
        return canonical_topology(self.ambient, self.components)

    @cached_property
    def induced(self) -> "SEFamily":
        """The family this topology induces on the soft elements of its
        ambient (`induced_topology`), built on first use."""
        return induced_topology(self)

    def __len__(self) -> int:
        """The number of opens: an unlisted topology has one per choice of
        component opens."""
        if "flat_opens" in self.__dict__:
            return len(self.flat_opens)
        return prod(len(sigma.open_masks) for sigma in self.components)


def check_product_guard(count: int) -> None:
    """Refuse to list a canonical topology of more than
    CANONICAL_PRODUCT_LIMIT opens."""
    if count > CANONICAL_PRODUCT_LIMIT:
        raise CapacityError(
            f"canonical topology would have {count} opens; guard is "
            f"{CANONICAL_PRODUCT_LIMIT}"
        )


def _build_component(tau: SoftTopology, t: int) -> ClassicalTopology:
    carrier = tau.ambient.section(t)
    n = tau.ambient.universe_size
    sections = {f >> t * n & (1 << n) - 1 for f in tau.flat_opens}
    # Sectioning a soft topology always yields a topology; anything else
    # is a bug upstream.
    assert is_topology_masks(sections, carrier.mask)
    return _from_masks(n, carrier, sections)


def component_topology(tau: SoftTopology, t: int) -> ClassicalTopology:
    """The family of t-sections of the soft opens: a topology on F(t)."""
    tau.ambient.section(t)  # rejects an out-of-range parameter
    return tau.components[t]


def _checked_component(
    ambient: SoftSet, t: int, sigma: ClassicalTopology
) -> ClassicalTopology:
    """sigma as the component at t of a canonical topology on the ambient:
    it must live on the t-section, its opens on the ambient's universe
    (read by `ClassicalTopology.open_masks`), and it is taken with its
    opens distinct and ascending, as a component built from opens is."""
    if sigma.universe_size != ambient.universe_size:
        raise InputError("component topology universe mismatch")
    if sigma.carrier != ambient.section(t):
        raise InputError(f"component topology at {t} must live on the section")
    m = sigma.open_masks
    if all(map(lt, m, islice(m, 1, None))):
        return sigma
    return _from_masks(sigma.universe_size, sigma.carrier, set(m))


def _product_topology(
    ambient: SoftSet, components: tuple[ClassicalTopology, ...]
) -> SoftTopology:
    """The canonical topology of components checked by `_checked_component`,
    one per parameter.  The t-sections of the product are the opens of
    components[t]: they fix the topology, and spare a rebuild from every
    open."""
    tau = SoftTopology(ambient)
    object.__setattr__(tau, "_components", components)
    return tau


def canonical_topology(
    ambient: SoftSet, sigmas: Sequence[ClassicalTopology]
) -> SoftTopology:
    """All soft subsets whose t-section is open in sigmas[t], for every t.

    The topology keeps the sigmas as its components and lists its opens,
    their product, only when they are read (`SoftTopology.flat_opens` and
    `SoftTopology.opens`): the canonical-product guard is tested there,
    not here."""
    if len(sigmas) != ambient.param_count:
        raise InputError("need one topology per parameter")
    checked = (_checked_component(ambient, t, s) for t, s in enumerate(sigmas))
    return _product_topology(ambient, tuple(checked))


def canonical_enlargement(tau: SoftTopology) -> SoftTopology:
    """The canonical topology built from tau's own component topologies."""
    return tau.enlargement


def is_canonical(tau: SoftTopology) -> bool:
    """tau equals its enlargement (`SoftTopology._is_product`)."""
    return tau._is_product()


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
    """A finite family of soft-element subsets, masks strictly ascending.

    The induced families are of this type.  Such a family is union-closed
    but not a topology in general, so it does not pose as a
    `ClassicalTopology`.  It offers the one read the pairwise deciders of
    `finsets` need, `minimal_members`; that and `union_closed` read one
    table over all subsets of the soft elements (`_packed`).
    """

    space: ElementSpace
    masks: tuple[int, ...]

    def __post_init__(self) -> None:
        m = self.masks
        if not all(map(lt, m, islice(m, 1, None))) or m and (
            m[0] < 0 or m[-1] >> self.space.size
        ):
            raise InputError("family masks must ascend strictly, each below 2^|SE|")

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
        Read by `minimal_members` and `union_closed`.
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
        # mins ascend, and the sort is stable: (size, mask) order.
        for m in sorted(mins, key=int.bit_count):
            bits = own[m]
            while bits:
                out[(bits & -bits).bit_length() - 1].append(m)
                bits &= bits - 1
        return tuple(map(tuple, out))

    @cached_property
    def sections(self) -> tuple[frozenset[int], ...]:
        """For each parameter t, the masks of the members' t-sections,
        read once from `ElementSpace.flat_sections` (under its filtration
        guard).  An induced family is born with them (`induced_topology`)."""
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
        holding every entry of the subset table (`_packed`): each entry is
        a union of members, and the union a | b of members is the entry at
        a | b.
        """
        size = self.space.size
        full, members = (1 << size) - 1, self._mask_set
        return 0 in members and full in members and members.issuperset(
            _cells(self._packed[1], size)
        )

    def __len__(self) -> int:
        return len(self.masks)


def induced_topology(tau: SoftTopology) -> SEFamily:
    """The family of soft-element subsets whose every section is open in
    the matching component topology, over the ambient's element space.

    Computed by exhaustive filtration of all subsets, which is exact: the
    family is defined by a sectionwise membership predicate, not by a
    generating family.  It contains the empty and full subsets and is
    closed under unions, but it is NOT closed under intersections in
    general: sections of an intersection can be strictly smaller than the
    intersections of sections.  The sections of every subset are read
    from `ElementSpace.flat_sections`, which enforces the filtration guard.

    The entries that pass need no test.  A nonempty subset of the soft
    elements has all its sections nonempty, and each choice of nonempty
    A_t inside F(t), one per parameter, is the sections of the product of
    the A_t.  So the entries that occur are 0 and every such choice, and
    those that pass are 0 and every choice of nonempty component opens:
    the product of the component opens, with 0 left out of each factor.
    The family's `sections` are read from those entries.  Each call
    builds a new family; `SoftTopology.induced` keeps one.
    """
    space = tau.ambient.space
    flat = space.flat_sections
    n, p = tau.ambient.universe_size, tau.ambient.param_count
    entries = [0]
    for t, sigma in enumerate(tau.components):
        shifted = [m << t * n for m in sigma.open_masks if m]
        entries = [e | m for e in entries for m in shifted]
    passed = {0, *entries}
    keep = compress(range(len(flat)), map(passed.__contains__, flat))
    family = SEFamily(space, tuple(keep))
    full = (1 << n) - 1
    family.__dict__["sections"] = tuple(
        frozenset({e >> t * n & full for e in passed}) for t in range(p)
    )
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
    # The sections generate the topology their least members U(x) around
    # the carrier points generate (`_least`): each U(x) lies in every
    # U(y) that holds x, so U(x) is also the least of the U(y) around x.
    # So only those masks, at most one per point, are taken as FinSets.
    generated = []
    for masks, c in zip(u.sections, ambient.sections):
        least = {_least(masks, c.mask, x) for x in bits(c.mask)}
        generated.append(generate_topology([FinSet(n, m) for m in least], n, c))
    sigmas = tuple(generated)
    tau_hat = canonical_topology(ambient, sigmas)
    return Reconstruction(sigmas, tau_hat, _sections_open(u, sigmas))
