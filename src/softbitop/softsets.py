"""Soft sets over a finite parameter range and their soft-element view.

A soft set is a finite tuple of sections (one FinSet per parameter) over
one shared universe.  Its soft elements are the selections picking one
member from every section; they are indexed in lexicographic order so
subsets of them can be handled as bitmasks over stable indices.

A soft set or a soft element is also handled flat, as one int with one
bit per cell: cell t * universe_size + x stands for point x at parameter t.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import cached_property
from itertools import product
from math import prod

from .errors import CapacityError, InputError, NoSoftElementsError
from .finsets import FinSet, Value

# Guard on the soft-element count, checked when an ElementSpace is built.
SE_MATERIALIZATION_LIMIT = 1 << 20
# Guard for every table or filtration over all 2^|SE(F)| subsets.
SE_FILTRATION_LIMIT = 20

SoftElement = tuple[int, ...]


def check_filtration_guard(size: int) -> None:
    """Refuse a table over all 2^size subsets of size soft elements past
    SE_FILTRATION_LIMIT."""
    if size > SE_FILTRATION_LIMIT:
        raise CapacityError(
            f"soft-element count {size} exceeds filtration guard "
            f"{SE_FILTRATION_LIMIT}"
        )


class SoftSet(Value):
    """A parameter-indexed family of sections over a common universe."""

    __slots__ = ("sections",)
    sections: tuple[FinSet, ...]

    def __init__(self, sections: tuple[FinSet, ...]) -> None:
        if not sections:
            raise InputError("a soft set needs at least one parameter")
        n = sections[0].universe_size
        for s in sections:
            if s.universe_size != n:
                raise InputError("sections must share a universe size")
        object.__setattr__(self, "sections", sections)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not SoftSet:
            return NotImplemented
        return self.sections == other.sections

    def __hash__(self) -> int:
        return hash((self.sections,))

    def __reduce__(self) -> tuple:
        return SoftSet, (self.sections,)

    @classmethod
    def of(
        cls, section_members: Sequence[Iterable[int]], universe_size: int
    ) -> "SoftSet":
        return cls(tuple(FinSet.of(ms, universe_size) for ms in section_members))

    @classmethod
    def null(cls, param_count: int, universe_size: int) -> "SoftSet":
        return cls(tuple(FinSet.empty(universe_size) for _ in range(param_count)))

    @property
    def param_count(self) -> int:
        return len(self.sections)

    @property
    def universe_size(self) -> int:
        return self.sections[0].universe_size

    def section(self, t: int) -> FinSet:
        if not 0 <= t < self.param_count:
            raise InputError(f"parameter index {t} out of range")
        return self.sections[t]

    @property
    def key(self) -> tuple[int, ...]:
        """Canonical sort/equality key: the tuple of section masks."""
        return tuple(s.mask for s in self.sections)

    @property
    def is_null(self) -> bool:
        return all(s.is_empty for s in self.sections)


def flat_soft_set(h: SoftSet) -> int:
    """All sections of h in one int, section t shifted by t * universe_size."""
    n, out = h.universe_size, 0
    for s in reversed(h.sections):
        out = out << n | s.mask
    return out


def _check_shapes(a: SoftSet, b: SoftSet) -> None:
    if a.param_count != b.param_count or a.universe_size != b.universe_size:
        raise InputError("soft sets must share parameter count and universe size")


def soft_subset(h: SoftSet, f: SoftSet) -> bool:
    _check_shapes(h, f)
    return all(hs.mask & ~fs.mask == 0 for hs, fs in zip(h.sections, f.sections))


def soft_union(f: SoftSet, h: SoftSet) -> SoftSet:
    _check_shapes(f, h)
    return SoftSet(tuple(a | b for a, b in zip(f.sections, h.sections)))


def soft_intersection(f: SoftSet, h: SoftSet) -> SoftSet:
    _check_shapes(f, h)
    return SoftSet(tuple(a & b for a, b in zip(f.sections, h.sections)))


def soft_equal(f: SoftSet, h: SoftSet) -> bool:
    _check_shapes(f, h)
    return f.key == h.key


class ElementSpace:
    """The soft elements of a soft set with nonempty sections.

    Elements are ordered lexicographically, parameter index major.  All
    subset work downstream indexes into this fixed order.  The space is
    checked and counted when built; every table, the element list
    included, is built on first use.
    """

    def __init__(self, soft_set: SoftSet):
        factor_members = [s.members() for s in soft_set.sections]
        if any(not ms for ms in factor_members):
            raise NoSoftElementsError(
                "a soft set with an empty section has no soft elements"
            )
        count = prod(len(ms) for ms in factor_members)
        if count > SE_MATERIALIZATION_LIMIT:
            raise CapacityError(
                f"soft-element count {count} exceeds {SE_MATERIALIZATION_LIMIT}"
            )
        self.soft_set = soft_set
        self.size = count
        self._factors = factor_members
        # Induced families by the open masks of their component topologies,
        # filled by softtop.induced_topology.
        self.induced_families: dict[tuple, object] = {}

    @cached_property
    def elements(self) -> tuple[SoftElement, ...]:
        return tuple(product(*self._factors))

    @cached_property
    def _index(self) -> dict[SoftElement, int]:
        return {e: i for i, e in enumerate(self.elements)}

    def index_of(self, elem: SoftElement) -> int:
        try:
            return self._index[tuple(elem)]
        except KeyError:
            raise InputError(f"{elem!r} is not a soft element of this space") from None

    def subset_of(self, elems: Iterable[SoftElement]) -> "SESubset":
        mask = 0
        for e in elems:
            mask |= 1 << self.index_of(e)
        return SESubset(self, mask)

    @cached_property
    def flat_elements(self) -> tuple[int, ...]:
        """Each soft element as a flat int: its p cells."""
        n = self.soft_set.universe_size
        cells = ([1 << (t * n + x) for x in ms] for t, ms in enumerate(self._factors))
        return tuple(map(sum, product(*cells)))

    @cached_property
    def cell_elements(self) -> tuple[int, ...]:
        """For each cell t * universe_size + x, the mask of the soft
        elements whose t-th coordinate is x.

        In the lexicographic order these elements come in runs of `run`
        indices, the product of the later section sizes, one run in every
        block of len(section t) * run indices.  Each mask is one run moved
        into place in the first block and then copied to every block by
        doubling, so no mask grows bit by bit.
        """
        n = self.soft_set.universe_size
        cells = [0] * (len(self._factors) * n)
        block = self.size
        for t, ms in enumerate(self._factors):
            run = block // len(ms)
            for k, x in enumerate(ms):
                mask, width = ((1 << run) - 1) << (k * run), block
                while width < self.size:
                    mask |= mask << width
                    width *= 2
                cells[t * n + x] = mask & self._all
            block = run
        return tuple(cells)

    @cached_property
    def _all(self) -> int:
        return (1 << self.size) - 1

    @cached_property
    def _flat_ambient(self) -> int:
        return flat_soft_set(self.soft_set)

    def inside(self, f: int) -> int:
        """The mask of the soft elements lying in the flat soft set f.

        That is the AND over t of the OR of cell_elements over the points
        of f's section t; equivalently, every element except those with a
        coordinate in a cell of the ambient that f misses.
        """
        cells = self.cell_elements
        out = 0
        miss = self._flat_ambient & ~f
        while miss:
            low = miss & -miss
            out |= cells[low.bit_length() - 1]
            miss ^= low
        return self._all ^ out

    @cached_property
    def flat_sections(self) -> tuple[int, ...]:
        """For every subset mask m, all sections of m packed into one int,
        section t shifted by t * universe_size.  The table has 2^size
        entries, so it is refused past SE_FILTRATION_LIMIT.  The masks
        with top bit i are those below 2^i plus element i's bits."""
        check_filtration_guard(self.size)
        flat = [0]
        for bits in self.flat_elements:
            flat += [f | bits for f in flat]
        return tuple(flat)

    def full_subset(self) -> "SESubset":
        return SESubset(self, self._all)

    def empty_subset(self) -> "SESubset":
        return SESubset(self, 0)


def enumerate_soft_elements(f: SoftSet) -> tuple[SoftElement, ...]:
    """The soft elements of f in lexicographic order."""
    return ElementSpace(f).elements


class SESubset(Value):
    """A subset of an enumerated soft-element list, as a bitmask."""

    space: ElementSpace
    mask: int

    def __post_init__(self) -> None:
        if self.mask < 0 or self.mask >> self.space.size:
            raise InputError("bitmask has bits beyond the soft-element list")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SESubset)
            and self.space.soft_set == other.space.soft_set
            and self.mask == other.mask
        )

    def __hash__(self) -> int:
        return hash((self.space.soft_set, self.mask))

    def members(self) -> tuple[SoftElement, ...]:
        return tuple(
            e for i, e in enumerate(self.space.elements) if self.mask >> i & 1
        )

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, elem: SoftElement) -> bool:
        return bool(self.mask >> self.space.index_of(elem) & 1)

    def __or__(self, other: "SESubset") -> "SESubset":
        self._check_same_space(other)
        return SESubset(self.space, self.mask | other.mask)

    def __and__(self, other: "SESubset") -> "SESubset":
        self._check_same_space(other)
        return SESubset(self.space, self.mask & other.mask)

    def section(self, t: int) -> FinSet:
        """The set of t-th coordinates of the members."""
        if not 0 <= t < self.space.soft_set.param_count:
            raise InputError(f"parameter index {t} out of range")
        m = 0
        for i, e in enumerate(self.space.elements):
            if self.mask >> i & 1:
                m |= 1 << e[t]
        return FinSet(self.space.soft_set.universe_size, m)

    def sections(self) -> SoftSet:
        return SoftSet(
            tuple(self.section(t) for t in range(self.space.soft_set.param_count))
        )

    def _check_same_space(self, other: "SESubset") -> None:
        if self.space.soft_set != other.space.soft_set:
            raise InputError("subsets live over different soft sets")


def se_of_softset(space: ElementSpace, h: SoftSet) -> SESubset:
    """All soft elements of the ambient whose every coordinate lies in h.

    Empty whenever some section of h is empty.
    """
    if not soft_subset(h, space.soft_set):
        raise InputError("h must be a soft subset of the ambient soft set")
    return SESubset(space, space.inside(flat_soft_set(h)))


def is_se_representable(k: SESubset) -> tuple[bool, SoftElement | None]:
    """Is k the full soft-element set of some soft subset of the ambient?

    The sectionwise hull H(t) := k(t) is the only candidate; k is
    representable iff its hull adds no new selections.  On failure the
    lexicographically least extra selection is the witness.
    """
    if k.mask == 0:
        raise InputError(
            "the empty subset is not representable by nonempty sections"
        )
    hull = k.sections()
    blown_up = se_of_softset(k.space, hull)
    extra = blown_up.mask & ~k.mask
    if extra == 0:
        return True, None
    least = (extra & -extra).bit_length() - 1
    return False, k.space.elements[least]
