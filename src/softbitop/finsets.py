"""Bitmask-backed finite sets, finite topologies, and pairwise separation checks.

Everything here is classical (point-set) machinery on small enumerated
carriers.  A topology may live on a proper subset of the ambient universe
(its *carrier*), which is what component topologies of soft topologies
require; the plain case is carrier == full universe.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import cached_property, reduce
from operator import attrgetter, or_

from .errors import CapacityError, InputError, NotACoverError

# Type checkers read TYPE_CHECKING as true; at run time softtop, which
# imports this module, is not imported from here.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .softtop import SEFamily

# Labeled-topology enumeration is capped here (355 topologies on 4 points).
ENUMERATION_MAX_POINTS = 4


def _full(n: int) -> int:
    return (1 << n) - 1


class Value:
    """Base of the package's value classes.  The fields are the class's
    annotations, in order; a value given in the class body is the field's
    default, and defaults come last.  Instances take their fields by
    position or keyword, then run `__post_init__`; they compare, hash and
    print by the tuple of their fields and refuse assignment.  No code is
    generated per class, so defining one costs no start-up time."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _required = 0

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        names = cls._fields = tuple(vars(cls).get("__annotations__", ()))
        cls._required = sum(name not in vars(cls) for name in names)
        get = attrgetter(*names)
        cls._key = staticmethod(get if len(names) > 1 else lambda v: (get(v),))

    def __init__(self, *args, **kwargs) -> None:
        names = self._fields
        if kwargs or not self._required <= len(args) <= len(names):
            rest = names[len(args) :]
            values = {**vars(type(self)), **kwargs}
            if len(args) > len(names) or not kwargs.keys() <= {*rest} <= values.keys():
                raise TypeError(f"{type(self).__name__}() takes the fields {names}")
            args += tuple(values[name] for name in rest)
        # Defaults left out here are read from the class.
        self.__dict__.update(zip(names, args))
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = map("{}={!r}".format, self._fields, self._key(self))
        return f"{type(self).__qualname__}({', '.join(shown)})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class FinSet(Value):
    """A subset of {0, ..., universe_size-1} stored as a bitmask."""

    __slots__ = ("universe_size", "mask")
    universe_size: int
    mask: int

    def __init__(self, universe_size: int, mask: int = 0) -> None:
        if universe_size < 1:
            raise InputError("universe_size must be positive")
        if mask < 0 or mask > (1 << universe_size) - 1:
            raise InputError("bitmask has bits outside the universe")
        object.__setattr__(self, "universe_size", universe_size)
        object.__setattr__(self, "mask", mask)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not FinSet:
            return NotImplemented
        return self.mask == other.mask and self.universe_size == other.universe_size

    def __hash__(self) -> int:
        return hash((self.universe_size, self.mask))

    def __reduce__(self) -> tuple:
        return FinSet, (self.universe_size, self.mask)

    @classmethod
    def of(cls, members: Iterable[int], universe_size: int) -> "FinSet":
        mask = 0
        for x in members:
            if not 0 <= x < universe_size:
                raise InputError(
                    f"element {x} outside universe of size {universe_size}"
                )
            mask |= 1 << x
        return cls(universe_size, mask)

    @classmethod
    def empty(cls, universe_size: int) -> "FinSet":
        return cls(universe_size, 0)

    @classmethod
    def full(cls, universe_size: int) -> "FinSet":
        return cls(universe_size, _full(universe_size))

    def members(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.universe_size) if self.mask >> i & 1)

    def issubset(self, other: "FinSet") -> bool:
        self._check_same_universe(other)
        return self.mask & ~other.mask == 0

    def __contains__(self, x: int) -> bool:
        return 0 <= x < self.universe_size and bool(self.mask >> x & 1)

    def __or__(self, other: "FinSet") -> "FinSet":
        self._check_same_universe(other)
        return FinSet(self.universe_size, self.mask | other.mask)

    def __and__(self, other: "FinSet") -> "FinSet":
        self._check_same_universe(other)
        return FinSet(self.universe_size, self.mask & other.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    @property
    def is_empty(self) -> bool:
        return self.mask == 0

    def _check_same_universe(self, other: "FinSet") -> None:
        if self.universe_size != other.universe_size:
            raise InputError("mismatched universe sizes")


def _collect_masks(opens: Iterable[FinSet], n: int) -> list[int]:
    masks = []
    for s in opens:
        if s.universe_size != n:
            raise InputError("mismatched universe sizes in family")
        masks.append(s.mask)
    return masks


def bits(mask: int) -> Iterable[int]:
    """The set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _least(masks: Iterable[int], carrier: int, x: int) -> int:
    """U(x), the least member around the point x: the carrier ANDed with
    the members that hold x."""
    u = carrier
    for m in masks:
        if m >> x & 1:
            u &= m
    return u


def is_topology_masks(masks: set[int], carrier: int) -> bool:
    """The topology axioms for a family of masks on the carrier mask: every
    member inside the carrier, 0 and the carrier present, closed under
    unions and intersections.

    Given the first two, the family is closed iff o | U(x) is a member for
    every member o and carrier point x (`_least`).  Taking o = 0 makes each
    U(x) a member, and then each member o' is the union of the U(x) over
    its points.  So o | o' is a chain of o | U(x) steps over the points of
    o', and o & o', the union of the U(x) over its own points, is such a
    chain from 0.  The check costs O(points * members) lookups instead of
    a test of every pair.
    """
    if 0 not in masks or carrier not in masks or reduce(or_, masks) != carrier:
        return False
    for x in bits(carrier):
        u = _least(masks, carrier, x)
        for m in masks:
            if m | u not in masks:
                return False
    return True


def is_topology(
    opens: Iterable[FinSet], n: int, carrier: FinSet | None = None
) -> bool:
    """Check the (finite) topology axioms: empty and carrier present, closed
    under unions and intersections (`is_topology_masks`)."""
    if carrier is None:
        carrier = FinSet.full(n)
    elif carrier.universe_size != n:
        raise InputError("carrier universe size mismatch")
    return is_topology_masks(set(_collect_masks(opens, n)), carrier.mask)


class ClassicalTopology(Value):
    """A finite topology on a carrier set, opens deduplicated and sorted."""

    universe_size: int
    carrier: FinSet
    opens: tuple[FinSet, ...]

    def __post_init__(self) -> None:
        if self.carrier.universe_size != self.universe_size:
            raise InputError("carrier universe size mismatch")

    @classmethod
    def build(
        cls,
        opens: Iterable[FinSet],
        n: int,
        carrier: FinSet | None = None,
    ) -> "ClassicalTopology":
        """Validate the axioms and canonicalize the family."""
        if carrier is None:
            carrier = FinSet.full(n)
        opens = list(opens)
        if not is_topology(opens, n, carrier):
            raise InputError("family is not a topology on the carrier")
        return cls(n, carrier, _canonical_opens(opens, n))

    def contains(self, s: FinSet) -> bool:
        if s.universe_size != self.universe_size:
            raise InputError("mismatched universe sizes")
        return s.mask in self._mask_set

    @cached_property
    def open_masks(self) -> tuple[int, ...]:
        return tuple(o.mask for o in self.opens)

    @cached_property
    def _mask_set(self) -> frozenset[int]:
        return frozenset(self.open_masks)

    @cached_property
    def minimal_members(self) -> tuple[tuple[int, ...], ...]:
        """For each point x of the universe, the inclusion-minimal opens
        that contain x, as masks: the least open U(x) for a point of the
        carrier, none for a point outside it.

        U(x) is the meet of the opens around x, itself open since a finite
        topology is closed under finite intersections (a finite space is
        Alexandroff).
        """
        masks, carrier = self.open_masks, self.carrier.mask
        return tuple(
            (_least(masks, carrier, x),) if carrier >> x & 1 else ()
            for x in range(self.universe_size)
        )

    def inside(self, s: int) -> int:
        """The union of the opens inside the mask s, its interior: the
        union of the U(x) inside s, since U(x) lies inside every open
        around x."""
        out = 0
        for at_x in self.minimal_members:
            for u in at_x:
                if not u & ~s:
                    out |= u
        return out


def _canonical_opens(opens: Iterable[FinSet], n: int) -> tuple[FinSet, ...]:
    masks = sorted(set(_collect_masks(opens, n)))
    return tuple(FinSet(n, m) for m in masks)


def generate_topology(
    subbase: Iterable[FinSet], n: int, carrier: FinSet | None = None
) -> ClassicalTopology:
    """Smallest topology on the carrier containing the subbase.

    The least open U(x) around a point x is the carrier ANDed with the
    subbase members that hold x (the empty intersection is the carrier),
    and the opens are all unions of the U(x), grown one point at a time.
    """
    if carrier is None:
        carrier = FinSet.full(n)
    masks = _collect_masks(subbase, n)
    if any(m & ~carrier.mask for m in masks):
        raise InputError("subbase member not contained in the carrier")
    opens = {0}
    for u in {_least(masks, carrier.mask, x) for x in bits(carrier.mask)}:
        opens |= {o | u for o in opens}
    return ClassicalTopology(n, carrier, tuple(FinSet(n, m) for m in sorted(opens)))


def enumerate_topologies(
    n: int, carrier: FinSet | None = None
) -> list[ClassicalTopology]:
    """All labeled topologies on the carrier, in a fixed deterministic order.

    Brute force: every family of proper nonempty subsets is filtered
    through the closure check (`is_topology_masks`).  Guarded at 4
    carrier points.
    """
    if carrier is None:
        carrier = FinSet.full(n)
    elif carrier.universe_size != n:
        raise InputError("carrier universe size mismatch")
    k = len(carrier)
    if k > ENUMERATION_MAX_POINTS:
        raise CapacityError(
            f"topology enumeration on {k} carrier points exceeds the cap of "
            f"{ENUMERATION_MAX_POINTS} points"
        )
    # Proper nonempty subsets of the carrier, ascending by mask.
    middles = [
        m
        for m in range(1, carrier.mask + 1)
        if m & ~carrier.mask == 0 and m != carrier.mask
    ]
    found = []
    for choice in range(1 << len(middles)):
        masks = {0, carrier.mask}
        masks.update(m for i, m in enumerate(middles) if choice >> i & 1)
        if is_topology_masks(masks, carrier.mask):
            found.append(
                ClassicalTopology(n, carrier, tuple(FinSet(n, m) for m in sorted(masks)))
            )
    return found


class BitopPair(Value):
    """An ordered pair of finite families on one shared carrier.

    Each family is a validated `ClassicalTopology` or, for the pair a soft
    bitopological space induces, an `SEFamily` over soft-element indices,
    which is union-closed but not a topology in general.  The deciders
    below read two things of each family and are exact for both kinds:
    `minimal_members`, the inclusion-minimal members around each point,
    and `inside(s)`, the union of the members inside the mask s.
    """

    first: ClassicalTopology | SEFamily
    second: ClassicalTopology | SEFamily

    def __post_init__(self) -> None:
        if self.first.universe_size != self.second.universe_size:
            raise InputError("topologies of a pair must share a universe")
        if self.first.carrier != self.second.carrier:
            raise InputError("topologies of a pair must share a carrier")

    @property
    def universe_size(self) -> int:
        return self.first.universe_size

    @property
    def carrier(self) -> FinSet:
        return self.first.carrier

    @cached_property
    def avoiding(self) -> tuple[dict[int, int], dict[int, int]]:
        """For each family and each carrier point y, the points some member
        avoiding y holds: inside(full - {y}).  Built once per pair and read
        by both `pairwise_t0` and `pairwise_t1`."""
        full = _full(self.universe_size)
        pts = self.carrier.members()
        return tuple(
            {y: family.inside(full ^ 1 << y) for y in pts}
            for family in (self.first, self.second)
        )


Witness = tuple[int, int] | None


# Some member contains x and misses y iff x lies in the union of the
# members inside the complement of {y}, inside(full - {y}); the complement
# is taken in the whole universe, as members need not stay in the carrier.
# Disjoint members H around x and K around y exist iff they exist with H
# inclusion-minimal, since shrinking H keeps it disjoint from K; and then
# iff y lies in inside(full - U) of the second family for some minimal U of
# the first family at x.  Both arguments use only finiteness, so the
# verdicts are exact for any finite families, not just topologies.  Points
# are scanned in the same order as by a brute-force scan, so the least
# witness is the same.  T0 and T1 read inside() once per point and family,
# through the pair's one `avoiding` table, and T2 once per minimal member
# of the first family, instead of scanning pairs of members.


def pairwise_t0(pair: BitopPair) -> tuple[bool, Witness]:
    """Distinct points are told apart by some open of either topology.

    Decided as: x lies in inside(full - {y}) of either family, or y lies in
    inside(full - {x}) of either family.  Exact for any finite families
    (see above).  On failure the least unseparated pair (x, y), x < y, is
    returned.
    """
    pts = pair.carrier.members()
    first, second = pair.avoiding
    apart = {y: first[y] | second[y] for y in pts}
    for i, x in enumerate(pts):
        for y in pts[i + 1 :]:
            if not (apart[y] >> x & 1 or apart[x] >> y & 1):
                return False, (x, y)
    return True, None


def pairwise_t1(pair: BitopPair) -> tuple[bool, Witness]:
    """For every ordered (x, y): some first-open keeps x and drops y, and
    some second-open keeps y and drops x.

    Decided as: x lies in inside(full - {y}) of the first family and y in
    inside(full - {x}) of the second.  Exact for any finite families.
    """
    pts = pair.carrier.members()
    first, second = pair.avoiding
    for x in pts:
        for y in pts:
            if x != y and not (first[y] >> x & 1 and second[x] >> y & 1):
                return False, (x, y)
    return True, None


def pairwise_t2(pair: BitopPair) -> tuple[bool, Witness]:
    """For every ordered (x, y): disjoint opens H in the first and K in the
    second topology with x in H, y in K.

    Decided as: y lies in inside(full - U) of the second family for some
    minimal member U of the first family at x.  The points so reached from
    x are found once per x.  Exact for any finite families.
    """
    pts = pair.carrier.members()
    full = _full(pair.universe_size)
    second = pair.second
    for x in pts:
        reach = 0
        for u in pair.first.minimal_members[x]:
            reach |= second.inside(full & ~u)
        for y in pts:
            if x != y and not reach >> y & 1:
                return False, (x, y)
    return True, None


def _min_cover(masks: Sequence[int], target: int) -> tuple[int, ...] | None:
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


def minimal_subcover_indices(
    cover: Sequence[FinSet], target: FinSet
) -> tuple[int, ...]:
    """Indices of a minimum-cardinality subfamily whose union covers target;
    ties go to the lexicographically least index set (via `_min_cover`)."""
    for s in cover:
        if s.universe_size != target.universe_size:
            raise InputError("mismatched universe sizes in cover")
    found = _min_cover([s.mask for s in cover], target.mask)
    if found is None:
        raise NotACoverError("cover does not cover the target")
    return found


def minimal_subcover(cover: Sequence[FinSet], target: FinSet) -> tuple[FinSet, ...]:
    """Same as minimal_subcover_indices, returning the sets themselves."""
    return tuple(cover[i] for i in minimal_subcover_indices(cover, target))
