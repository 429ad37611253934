"""Bitmask-backed finite sets, finite topologies, and pairwise separation checks.

Everything here is classical (point-set) machinery on small enumerated
carriers.  A topology may live on a proper subset of the ambient universe
(its *carrier*), which is what component topologies of soft topologies
require; the plain case is carrier == full universe.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import cached_property, reduce
from operator import and_, attrgetter, or_

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
    position or keyword (or in order, to a subclass's own `__init__`), then
    run `__post_init__`; they compare, hash, print and pickle by the tuple
    of their fields and refuse assignment.  No code is generated per
    class, so defining one costs no start-up time."""

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
            given = {*vars(type(self)), *kwargs}
            if len(args) > len(names) or not kwargs.keys() <= {*rest} <= given:
                raise TypeError(f"{type(self).__name__}() takes the fields {names}")
        # Defaults left out here are read from the class.
        self.__dict__.update(zip(names, args), **kwargs)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __eq__(self, other: object) -> bool:
        # Most comparisons meet one shared object: those build no keys.
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __reduce__(self) -> tuple:
        return type(self), self._key(self)

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
    """A finite topology on a carrier set, opens deduplicated and sorted.

    One made from FinSets holds them as its field `opens`.  One the
    package builds (`_from_masks`) holds only its ascending `open_masks`
    and makes `opens` from them on first read; equality, hashing, `repr`
    and pickles are by the fields, so they make them."""

    universe_size: int
    carrier: FinSet
    # A field with a default: the property below, which makes the opens
    # of a topology built from its masks.
    opens: tuple[FinSet, ...]

    @cached_property
    def opens(self) -> tuple[FinSet, ...]:
        """The opens as FinSets, made from `open_masks` on first read."""
        n = self.universe_size
        return tuple(FinSet(n, m) for m in self.__dict__["open_masks"])

    def __post_init__(self) -> None:
        if not {"opens", "open_masks"} & self.__dict__.keys():
            raise TypeError("a classical topology needs its opens or its masks")
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
        return _from_masks(n, carrier, set(_collect_masks(opens, n)))

    def contains(self, s: FinSet) -> bool:
        if s.universe_size != self.universe_size:
            raise InputError("mismatched universe sizes")
        return s.mask in self._mask_set

    @cached_property
    def open_masks(self) -> tuple[int, ...]:
        """The masks of the opens; an open on another universe is refused."""
        return tuple(_collect_masks(self.opens, self.universe_size))

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


def _from_masks(n: int, carrier: FinSet, masks: set[int]) -> ClassicalTopology:
    """The topology on the carrier whose opens are the masks, unchecked,
    held as its ascending `open_masks` alone."""
    topo = ClassicalTopology.__new__(ClassicalTopology)
    ordered = tuple(sorted(masks))
    topo.__dict__.update(universe_size=n, carrier=carrier, open_masks=ordered)
    topo.__post_init__()
    return topo


def generate_topology(
    subbase: Iterable[FinSet], n: int, carrier: FinSet | None = None
) -> ClassicalTopology:
    """Smallest topology on the carrier containing the subbase.

    The least open U(x) around a point x is the carrier ANDed with the
    subbase members that hold x (the empty intersection is the carrier),
    and the opens are all unions of the U(x), grown one point at a time.
    The U(x) are kept as the topology's `minimal_members`.
    """
    if carrier is None:
        carrier = FinSet.full(n)
    masks = _collect_masks(subbase, n)
    c = carrier.mask
    if any(m & ~c for m in masks):
        raise InputError("subbase member not contained in the carrier")
    least = tuple((_least(masks, c, x),) if c >> x & 1 else () for x in range(n))
    opens = {0}
    for u in {u for at_x in least for u in at_x}:
        opens |= {o | u for o in opens}
    topo = _from_masks(n, carrier, opens)
    topo.__dict__["minimal_members"] = least
    return topo


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
            found.append(_from_masks(n, carrier, masks))
    return found


class BitopPair(Value):
    """An ordered pair of finite families on one shared carrier.

    Each family is a validated `ClassicalTopology` or, for the pair a soft
    bitopological space induces, an `SEFamily` over soft-element indices,
    which is union-closed but not a topology in general.  The deciders
    below are exact for both kinds and read one thing of each family:
    `minimal_members`, the inclusion-minimal members around each point.
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
    def _cores(self) -> tuple[dict[int, int], dict[int, int]]:
        """core(x) in the first and in the second family for each carrier
        point x, ascending: the AND of the minimal members around x, U(x)
        in a topology; every point if x lies in no member.  Built once per
        pair, for T0 and T1 alike."""
        pts, full = self.carrier.members(), _full(self.universe_size)
        return tuple(
            {x: reduce(and_, mins[x], full) for x in pts}
            for mins in (self.first.minimal_members, self.second.minimal_members)
        )


Witness = tuple[int, int] | None


def _least_repeat(keys: Iterable) -> Witness:
    """The least pair i < j, i-major, with keys[i] == keys[j], or None:
    i is the least index whose key comes again, j the next index with
    that key."""
    first: dict = {}
    pairs = [(first.setdefault(k, j), j) for j, k in enumerate(keys)]
    return min((p for p in pairs if p[0] < p[1]), default=None)


# Every member around x holds a minimal one, so some member holds x and
# misses y iff y is not in core(x); and x, y are unseparated in a family
# iff core(x) = core(y), as each point lies in its own core.  Disjoint
# members H around x and K around y exist iff some minimal U at x in the
# first family misses some minimal V at y in the second: shrinking H to
# such a U and K to such a V keeps them disjoint.  Only finiteness is
# used, so the verdicts are exact for any finite families.  Points are
# scanned as by a brute-force scan, so the least witness is the same.


def pairwise_t0(pair: BitopPair) -> tuple[bool, Witness]:
    """Distinct points are told apart by some open of either topology.

    Decided as: x -> (core1(x), core2(x)) is injective on the carrier, the
    rule of `pairwise_soft_t0`.  Exact for any finite families (see
    above).  On failure the least unseparated pair (x, y), x < y, is
    returned.
    """
    first, second = pair._cores
    hit = _least_repeat(zip(first.values(), second.values()))
    if hit is None:
        return True, None
    pts = tuple(first)
    return False, (pts[hit[0]], pts[hit[1]])


def pairwise_t1(pair: BitopPair) -> tuple[bool, Witness]:
    """For every ordered (x, y): some first-open keeps x and drops y, and
    some second-open keeps y and drops x.

    Decided as: y lies outside core1(x) and x outside core2(y).  Exact for
    any finite families.
    """
    first, second = pair._cores
    for x in first:
        for y in first:
            if x != y and (first[x] >> y & 1 or second[y] >> x & 1):
                return False, (x, y)
    return True, None


def pairwise_t2(pair: BitopPair) -> tuple[bool, Witness]:
    """For every ordered (x, y): disjoint opens H in the first and K in the
    second topology with x in H, y in K.

    Decided as: some minimal member at x of the first family misses some
    minimal member at y of the second.  Exact for any finite families.
    """
    pts = pair.carrier.members()
    first, second = pair.first.minimal_members, pair.second.minimal_members
    for x in pts:
        for y in pts:
            if x == y:
                continue
            for u in first[x]:
                for v in second[y]:
                    if not u & v:
                        break
                else:
                    continue
                break  # u misses v
            else:
                return False, (x, y)
    return True, None


def _min_cover(masks: Sequence[int], target: int) -> tuple[int, ...] | None:
    """The least subfamily (by size, then lexicographically by index) whose
    masks cover target, or None.  Sizes 0 and 1 are one scan, which
    builds no table; each larger size is searched depth first in index
    order, so the first hit is the one `combinations` order gives.  A
    branch stops when the members from i on (suffix[i]) cannot cover what
    is left, or when what is left holds more points that no member from i
    on holds two of than there are members left to choose (the bound
    below); a member adding no uncovered point is skipped, as no least
    cover has one.
    """
    if not target:
        return ()
    n = len(masks)
    for i in range(n):
        if not target & ~masks[i]:
            return (i,)
    suffix = [0] * (n + 1)
    for i in reversed(range(n)):
        suffix[i] = suffix[i + 1] | masks[i] & target
    if target & ~suffix[0]:
        return None
    # reach[i][e]: the OR of the members from i on that hold the point e.
    # Built only now, as a cover of one member needs none: taking the
    # lowest point e left, counting it and dropping reach[i][e] until
    # nothing is left counts points of which no member from i on holds
    # two, so each needs a member of its own.  A count past the members
    # left means no cover from i on, nor from any later start.
    reach = [[0] * target.bit_length()]
    for i in reversed(range(n)):
        row = reach[-1].copy()
        m = masks[i] & target
        for e in bits(m):
            row[e] |= m
        reach.append(row)
    reach.reverse()

    def search(start: int, left: int, uncovered: int) -> tuple[int, ...] | None:
        if not uncovered:
            return ()
        row, count, apart = reach[start], 0, uncovered
        while apart:
            count += 1
            if count > left:
                return None
            apart &= ~row[(apart & -apart).bit_length() - 1]
        if left == 1:
            # A leaf: the first member from start on that covers the rest.
            for i in range(start, n):
                if not uncovered & ~masks[i]:
                    return (i,)
            return None
        for i in range(start, n - left + 1):
            if uncovered & ~suffix[i]:
                return None
            if masks[i] & uncovered:
                rest = search(i + 1, left - 1, uncovered & ~masks[i])
                if rest is not None:
                    return (i, *rest)
        return None

    try:
        for k in range(2, n + 1):
            hit = search(0, k, target)
            if hit is not None:
                return hit
        raise AssertionError("unreachable: the whole family covers")
    finally:
        # search refers to itself through its closure cell: clearing the
        # cell lets refcounting free it, masks and the tables on return.
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
