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
from functools import cached_property, reduce
from itertools import product
from math import prod
from operator import or_

from .errors import CapacityError, InputError, NoSoftElementsError
from .finsets import FinSet, Value, bits

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

    __slots__ = ("sections", "_space")
    sections: tuple[FinSet, ...]

    def __init__(self, sections: tuple[FinSet, ...]) -> None:
        if not sections:
            raise InputError("a soft set needs at least one parameter")
        n = sections[0].universe_size
        for s in sections:
            if s.universe_size != n:
                raise InputError("sections must share a universe size")
        object.__setattr__(self, "sections", sections)

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
        return tuple([s.mask for s in self.sections])

    @property
    def is_null(self) -> bool:
        return all(s.is_empty for s in self.sections)

    @property
    def space(self) -> "ElementSpace":
        """SE(F), the soft elements of this soft set, built on first use
        and kept: every holder of this soft set shares one space.  The
        space is no field, so copies and pickles start without it."""
        try:
            return self._space
        except AttributeError:
            object.__setattr__(self, "_space", ElementSpace(self))
            return self._space


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
    included, is built on first use.  The soft set alone fixes all of
    that, so a space is a value of its soft set: it compares, hashes and
    prints as that soft set, whatever tables it has built.  Each soft set
    builds one (`SoftSet.space`).
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

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not ElementSpace:
            return NotImplemented
        return self.soft_set == other.soft_set

    def __hash__(self) -> int:
        return hash(self.soft_set)

    def __repr__(self) -> str:
        return f"ElementSpace(soft_set={self.soft_set!r})"

    @cached_property
    def elements(self) -> tuple[SoftElement, ...]:
        return tuple(product(*self._factors))

    def element(self, i: int) -> SoftElement:
        """elements[i], decoded by mixed radix without the element list."""
        out = []
        for ms in reversed(self._factors):
            i, r = divmod(i, len(ms))
            out.append(ms[r])
        return tuple(reversed(out))

    def index_of(self, elem: SoftElement) -> int:
        """The index of elem, the inverse of `element`: its coordinates
        read as mixed-radix digits, one lookup per section."""
        elem, i = tuple(elem), 0
        try:
            if len(elem) != len(self._factors):
                raise ValueError
            for x, ms in zip(elem, self._factors):
                i = i * len(ms) + ms.index(x)
        except ValueError:
            raise InputError(f"{elem!r} is not a soft element of this space") from None
        return i

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
    def _all(self) -> int:
        return (1 << self.size) - 1

    def inside(self, f: int) -> int:
        """The mask of the soft elements lying in the flat soft set f.

        They are the product of f's sections, built from the last
        parameter, whose coordinate varies fastest: the elements with
        coordinate ms[k] at t take the k-th block of width `width`, the
        number of selections from the later sections.
        """
        n, out, width = self.soft_set.universe_size, 1, 1
        for t in reversed(range(len(self._factors))):
            ms, block = self._factors[t], 0
            for k, x in enumerate(ms):
                if f >> (t * n + x) & 1:
                    block |= out << k * width
            out, width = block, width * len(ms)
        return out

    def least_two_inside(self, f: int) -> tuple[int, int]:
        """The indices of the least and the second least soft element lying
        in the flat soft set f, which must hold two or more.  The least
        takes the first point of every section of f; the second takes the
        second point of the last section with two or more points."""
        n, least, step, width = self.soft_set.universe_size, 0, 0, 1
        for t in reversed(range(len(self._factors))):
            ms = self._factors[t]
            ks = [k for k, x in enumerate(ms) if f >> (t * n + x) & 1]
            least += ks[0] * width
            if not step and len(ks) > 1:
                step = (ks[1] - ks[0]) * width
            width *= len(ms)
        return least, least + step

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
    return f.space.elements


class SESubset(Value):
    """A subset of an enumerated soft-element list, as a bitmask."""

    space: ElementSpace
    mask: int

    def __post_init__(self) -> None:
        if self.mask < 0 or self.mask >> self.space.size:
            raise InputError("bitmask has bits beyond the soft-element list")

    def members(self) -> tuple[SoftElement, ...]:
        return tuple(map(self.space.element, bits(self.mask)))

    @property
    def hull(self) -> int:
        """The members' cells as a flat soft set: its t-section is the set
        of t-th coordinates of the members."""
        flat = self.space.flat_elements
        return reduce(or_, map(flat.__getitem__, bits(self.mask)), 0)

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
        return self.sections().section(t)

    def sections(self) -> SoftSet:
        """The sections of the members, read from their `hull`."""
        n, hull = self.space.soft_set.universe_size, self.hull
        p = self.space.soft_set.param_count
        return SoftSet(tuple(FinSet(n, hull >> t * n & (1 << n) - 1) for t in range(p)))

    def _check_same_space(self, other: "SESubset") -> None:
        if self.space != other.space:
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

    The sectionwise hull H(t) := k(t), flat the OR of the members' cells,
    is the only candidate; k is representable iff its hull adds no new
    selections.  On failure the
    lexicographically least extra selection is the witness.
    """
    if k.mask == 0:
        raise InputError(
            "the empty subset is not representable by nonempty sections"
        )
    space = k.space
    extra = space.inside(k.hull) & ~k.mask
    if extra == 0:
        return True, None
    return False, space.element((extra & -extra).bit_length() - 1)
