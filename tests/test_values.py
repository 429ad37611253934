"""Value semantics of the package's classes: equality and hashing by the
tuple of fields, refused assignment, copies and pickles, keyword
construction and reprs."""

import copy
import pickle
from types import SimpleNamespace

import pytest

from softbitop import (
    ClassicalTopology,
    FinSet,
    SoftBitopSpace,
    SoftSet,
    SoftTopology,
    canonical_topology,
)
from softbitop.errors import InputError
from softbitop.pairwise import Verdict
from softbitop.softsets import ElementSpace, SESubset
from softbitop.softtop import SEFamily
from softbitop.symbolic import CofiniteSoftSet

SMALL, WHOLE = FinSet(2, 1), FinSet(2, 3)
AMBIENT = SoftSet((WHOLE, WHOLE))
SIGMA = ClassicalTopology.build([FinSet(2, 0), SMALL, WHOLE], 2)
TAU = canonical_topology(AMBIENT, [SIGMA, SIGMA])
SPACE = ElementSpace(AMBIENT)

# Each class with keyword arguments naming all of its fields, in order.
FIELDS = {
    FinSet: {"universe_size": 2, "mask": 1},
    SoftSet: {"sections": (SMALL, WHOLE)},
    ClassicalTopology: {"universe_size": 2, "carrier": WHOLE, "opens": SIGMA.opens},
    SoftTopology: {"ambient": AMBIENT, "flat_opens": TAU.flat_opens},
    SoftBitopSpace: {"soft_set": AMBIENT, "tau1": TAU, "tau2": TAU},
    SEFamily: {"space": SPACE, "masks": (0, 3, 15)},
    SESubset: {"space": SPACE, "mask": 5},
    Verdict: {"holds": False, "witness": (0, 1), "detail": "x"},
    CofiniteSoftSet: {"universe_size": 2, "default_section": SMALL, "exceptions": ((4, WHOLE),)},
}
CLASSES = pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)


@CLASSES
def test_equal_fields_give_equal_values_and_hashes(cls):
    fields = FIELDS[cls]
    by_position, by_keyword = cls(*fields.values()), cls(**fields)
    assert by_position is not by_keyword
    assert by_position == by_keyword
    assert hash(by_position) == hash(by_keyword) == hash(tuple(fields.values()))


@CLASSES
def test_another_class_with_the_same_fields_is_unequal(cls):
    fields = FIELDS[cls]
    value = cls(**fields)
    for other in (SimpleNamespace(**fields), tuple(fields.values())):
        assert value.__eq__(other) is NotImplemented
        assert value != other and not value == other


@CLASSES
def test_fields_refuse_assignment_and_deletion(cls):
    fields = FIELDS[cls]
    value = cls(**fields)
    for name, field in fields.items():
        with pytest.raises(AttributeError):
            setattr(value, name, field)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert cls(**fields) == value


@CLASSES
def test_copies_and_pickles_are_equal(cls):
    value = cls(**FIELDS[cls])
    pickles = [pickle.loads(pickle.dumps(value, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in (copy.copy(value), copy.deepcopy(value), *pickles):
        assert type(twin) is cls
        assert twin == value and hash(twin) == hash(value)


def test_reprs():
    assert repr(FinSet(3, 5)) == "FinSet(universe_size=3, mask=5)"
    assert repr(SoftSet.of([[0, 2], [1]], 3)) == (
        "SoftSet(sections=(FinSet(universe_size=3, mask=5), "
        "FinSet(universe_size=3, mask=2)))"
    )
    assert repr(Verdict(True)) == "Verdict(holds=True, witness=None, detail='')"
    assert repr(Verdict(False, (1, 2), "x")) == "Verdict(holds=False, witness=(1, 2), detail='x')"
    space = ElementSpace(SoftSet.of([[0], [1]], 2))
    shown = (
        "ElementSpace(soft_set=SoftSet(sections=(FinSet(universe_size=2, mask=1), "
        "FinSet(universe_size=2, mask=2))))"
    )
    assert repr(space) == shown
    assert repr(SEFamily(space, (0, 1))) == f"SEFamily(space={shown}, masks=(0, 1))"
    assert repr(SESubset(space, 1)) == f"SESubset(space={shown}, mask=1)"


def test_defaults_and_keywords_mix():
    assert Verdict(True) == Verdict(holds=True) == Verdict(True, None, "")
    assert Verdict(False, detail="d") == Verdict(False, None, "d")
    assert FinSet(4) == FinSet(universe_size=4, mask=0)
    assert CofiniteSoftSet(2, SMALL) == CofiniteSoftSet(2, SMALL, ())


@pytest.mark.parametrize(
    "args, kwargs",
    [((), {}), ((True, None, "", 1), {}), ((True,), {"holds": True}), ((), {"verdict": True})],
)
def test_wrong_arguments_raise_type_error(args, kwargs):
    with pytest.raises(TypeError):
        Verdict(*args, **kwargs)


def test_space_is_not_compared_hashed_or_shown():
    built, again = SoftBitopSpace(AMBIENT, TAU, TAU), SoftBitopSpace(AMBIENT, TAU, TAU)
    assert built.space is again.space is AMBIENT.space
    assert built.space == SPACE
    assert built == again and hash(built) == hash(again)
    assert repr(built) == repr(again)
    assert "space=" not in repr(built)
    with pytest.raises(TypeError):
        SoftBitopSpace(AMBIENT, TAU, TAU, SPACE)
    with pytest.raises(TypeError):
        SoftBitopSpace(AMBIENT, TAU, TAU, space=SPACE)


def test_element_space_is_a_value_of_its_soft_set():
    """Two spaces built on equal soft sets are equal, hash as their soft
    set, and stay equal after one of them has built its tables."""
    first, second = ElementSpace(AMBIENT), ElementSpace(SoftSet((WHOLE, WHOLE)))
    first.flat_sections
    assert first is not second and first == second
    assert hash(first) == hash(second) == hash(AMBIENT)
    assert first != ElementSpace(SoftSet((SMALL, WHOLE)))
    assert first.__eq__(AMBIENT) is NotImplemented and first != AMBIENT


def test_se_family_is_frozen_and_compares_by_soft_set_and_masks():
    """A family caches reads of its masks, so it refuses assignment like
    every other value."""
    family = SEFamily(ElementSpace(AMBIENT), (0, 3))
    with pytest.raises(AttributeError):
        family.masks = (0, 1)
    with pytest.raises(AttributeError):
        del family.masks
    assert family.masks == (0, 3)
    assert family == SEFamily(ElementSpace(AMBIENT), (0, 3))
    assert hash(family) == hash((AMBIENT, (0, 3)))


def test_memoised_induced_family_copies_and_pickles():
    """The topology keeps the family induced on its ambient's space, which
    the ambient keeps: a copy or pickle of the family rebuilds its space,
    and one of the topology or ambient starts without either."""
    family = TAU.induced
    assert family is TAU.induced and family.space is AMBIENT.space
    pickles = [pickle.loads(pickle.dumps(family, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in (copy.deepcopy(family), *pickles):
        assert twin == family and hash(twin) == hash(family)
        assert twin.minimal_members == family.minimal_members
    for twin in (copy.deepcopy(TAU), pickle.loads(pickle.dumps(TAU))):
        assert twin == TAU and "induced" not in vars(twin)
        assert twin.ambient == AMBIENT and not hasattr(twin.ambient, "_space")


@pytest.mark.parametrize("masks", [(0, 1 << SPACE.size), (0, -1), (-1, 0), (3, 0, 15), (0, 3, 3)])
def test_se_family_masks_ascend_strictly_within_the_space(masks):
    """Each mask lies in [0, 2^|SE|) and the masks strictly ascend, so
    one family has one value: (3, 0, 15) is refused, not unequal to
    (0, 3, 15)."""
    with pytest.raises(InputError):
        SEFamily(SPACE, masks)
