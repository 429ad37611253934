import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softbitop import (
    CapacityError,
    ElementSpace,
    FinSet,
    InputError,
    NoSoftElementsError,
    SESubset,
    SoftSet,
    enumerate_soft_elements,
    is_se_representable,
    se_of_softset,
    soft_equal,
    soft_intersection,
    soft_subset,
    soft_union,
)
from softbitop.softsets import SE_FILTRATION_LIMIT, flat_soft_set
from conftest import random_soft_set, rng_for, small_carriers

# Running example: carrier with sections {x1,x2} and {x3,x4} over a
# four-point universe x1..x4 encoded as 0..3.
CARRIER = SoftSet.of([[0, 1], [2, 3]], 4)


def subset_masks(n=4, p=2, within=CARRIER):
    return st.tuples(
        *(st.integers(min_value=0, max_value=within.section(t).mask) for t in range(p))
    ).map(
        lambda ms: SoftSet(
            tuple(FinSet(n, m & within.section(t).mask) for t, m in enumerate(ms))
        )
    )


# ---------------------------------------------------------------- soft ops


def test_soft_set_shape_checks():
    with pytest.raises(InputError):
        SoftSet(())
    with pytest.raises(InputError):
        SoftSet((FinSet.full(2), FinSet.full(3)))
    with pytest.raises(InputError):
        soft_union(CARRIER, SoftSet.null(1, 4))


def test_soft_ops_examples():
    null = SoftSet.null(2, 4)
    assert soft_equal(soft_union(CARRIER, null), CARRIER)
    assert soft_equal(soft_intersection(CARRIER, CARRIER), CARRIER)
    assert soft_subset(null, CARRIER)
    assert not soft_subset(CARRIER, null)
    h = SoftSet.of([[0], [2, 3]], 4)
    assert soft_subset(h, CARRIER)
    assert soft_equal(soft_intersection(h, CARRIER), h)
    assert null.is_null and not h.is_null


@settings(max_examples=100, deadline=None)
@given(subset_masks(), subset_masks(), subset_masks())
def test_soft_ops_lattice_laws(a, b, c):
    assert soft_equal(soft_union(a, b), soft_union(b, a))
    assert soft_equal(
        soft_intersection(a, soft_intersection(b, c)),
        soft_intersection(soft_intersection(a, b), c),
    )
    assert soft_subset(soft_intersection(a, b), a)
    assert soft_subset(a, soft_union(a, b))
    # absorption
    assert soft_equal(soft_union(a, soft_intersection(a, b)), a)


# ---------------------------------------------------------------- enumeration


def test_enumerate_soft_elements_order():
    assert enumerate_soft_elements(CARRIER) == (
        (0, 2),
        (0, 3),
        (1, 2),
        (1, 3),
    )


def test_enumerate_single_param():
    f = SoftSet.of([[1, 3]], 4)
    assert enumerate_soft_elements(f) == ((1,), (3,))


def test_enumerate_requires_nonempty_sections():
    with pytest.raises(NoSoftElementsError):
        enumerate_soft_elements(SoftSet.of([[0, 1], []], 4))


def test_element_space_indexing():
    space = ElementSpace(CARRIER)
    assert space.size == 4
    assert space.index_of((1, 2)) == 2
    with pytest.raises(InputError):
        space.index_of((2, 2))


@settings(max_examples=50, deadline=None)
@given(subset_masks())
def test_soft_element_count_is_section_product(h):
    if any(s.is_empty for s in h.sections):
        with pytest.raises(NoSoftElementsError):
            enumerate_soft_elements(h)
    else:
        want = 1
        for s in h.sections:
            want *= len(s)
        assert len(enumerate_soft_elements(h)) == want


# ---------------------------------------------------------------- section table


def test_flat_sections_agree_with_section_walk():
    for carrier in small_carriers(8):
        space = ElementSpace(carrier)
        n, p = carrier.universe_size, carrier.param_count
        flat = space.flat_sections
        assert len(flat) == 1 << space.size
        for m, f in enumerate(flat):
            sub = SESubset(space, m)
            assert f == sum(sub.section(t).mask << (t * n) for t in range(p)), (
                carrier.key,
                m,
            )


def test_cell_tables_agree_with_element_walk():
    """flat_elements and inside (which se_of_softset reads)
    against a walk over the soft elements, on every small carrier; inside
    on 16 seeded soft subsets of each, the null and the full one among
    them."""
    rng = rng_for("cell-tables")
    for carrier in small_carriers(8):
        space = ElementSpace(carrier)
        n, p = carrier.universe_size, carrier.param_count
        assert space.flat_elements == tuple(
            sum(1 << (t * n + x) for t, x in enumerate(e)) for e in space.elements
        )
        subsets = [SoftSet.null(p, n), carrier]
        subsets += (random_soft_set(rng, carrier) for _ in range(14))
        for h in subsets:
            walk = sum(
                1 << i
                for i, e in enumerate(space.elements)
                if all(x in s for x, s in zip(e, h.sections))
            )
            assert space.inside(flat_soft_set(h)) == walk


def test_element_decodes_its_index():
    """element(i) is elements[i] for every index of every carrier on up
    to 3 points and 4 parameters, read without building the list."""
    for carrier in small_carriers(3**4):
        space = ElementSpace(carrier)
        decoded = [space.element(i) for i in range(space.size)]
        assert "elements" not in vars(space)
        assert decoded == list(space.elements), carrier.key


def test_index_of_inverts_the_enumeration():
    """index_of(elements[i]) is i on every carrier on up to 3 points and 4
    parameters with at most 10 soft elements, read without building the
    list; a tuple of the wrong length or with a coordinate outside its
    section is refused."""
    for carrier in small_carriers(10):
        space = ElementSpace(carrier)
        n, p = carrier.universe_size, carrier.param_count
        indices = [space.index_of(space.element(i)) for i in range(space.size)]
        assert "elements" not in vars(space)
        assert indices == list(range(space.size)), carrier.key
        assert [space.index_of(e) for e in space.elements] == indices
        outside = [(x,) * p for x in range(n + 1) if (x,) * p not in space.elements]
        for elem in [space.element(0) * 2, space.element(0)[1:], *outside]:
            with pytest.raises(InputError, match="is not a soft element of this space$"):
                space.index_of(elem)


def test_subset_of_builds_no_element_list():
    """2 points x 16 parameters, 65,536 soft elements: subset_of indexes
    its elements by mixed radix, without the element list."""
    space = ElementSpace(SoftSet.of([range(2)] * 16, 2))
    k = space.subset_of([(0,) * 16, (0,) * 15 + (1,), (1,) * 16])
    assert k.mask == 0b11 | 1 << space.size - 1
    assert "elements" not in vars(space)


def test_subset_sections_and_members_build_no_element_list():
    """2 points x 16 parameters, 65,536 soft elements: a subset's sections
    are read from its hull and its members decoded by mixed radix, without
    the element list."""
    space = ElementSpace(SoftSet.of([range(2)] * 16, 2))
    last = (0,) * 15 + (1,)
    k = space.subset_of([(0,) * 16, last])
    assert k.members() == ((0,) * 16, last)
    assert k.sections() == SoftSet.of([[0]] * 15 + [[0, 1]], 2)
    assert [k.section(t).members() for t in (0, 15)] == [(0,), (0, 1)]
    assert is_se_representable(k) == (True, None)
    assert "elements" not in vars(space)


def test_flat_sections_guard_refuses_before_allocating():
    # 3 * 8 = 24 soft elements, past the guard of 20
    space = ElementSpace(SoftSet.of([range(3), range(8)], 8))
    assert space.size > SE_FILTRATION_LIMIT
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match=f"24 exceeds .* {SE_FILTRATION_LIMIT}$"):
            space.flat_sections
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a table of 2^24 entries would take over 100 MB
    assert peak < 1 << 20


# ---------------------------------------------------------------- SE subsets


def test_sesubset_sections_example():
    space = ElementSpace(CARRIER)
    k = space.subset_of([(0, 2), (1, 3)])
    assert k.section(0) == FinSet.of([0, 1], 4)
    assert k.section(1) == FinSet.of([2, 3], 4)
    assert (0, 2) in k and (0, 3) not in k
    assert space.full_subset().section(0) == CARRIER.section(0)
    assert space.empty_subset().section(1) == FinSet.empty(4)


def test_sesubset_set_ops():
    space = ElementSpace(CARRIER)
    a = space.subset_of([(0, 2), (0, 3)])
    b = space.subset_of([(0, 3), (1, 2)])
    assert (a | b).members() == ((0, 2), (0, 3), (1, 2))
    assert (a & b).members() == ((0, 3),)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=15), st.integers(min_value=0, max_value=15))
def test_union_commutes_with_sections(m1, m2):
    """Section of a union equals the union of the sections."""
    from softbitop import SESubset

    space = ElementSpace(CARRIER)
    a = SESubset(space, m1)
    b = SESubset(space, m2)
    for t in range(2):
        assert (a | b).section(t) == (a.section(t) | b.section(t))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=15), st.integers(min_value=0, max_value=15))
def test_intersection_sections_contained_only(m1, m2):
    """Section of an intersection is contained in the intersection of
    sections; equality can fail (see the explicit counterexample below)."""
    from softbitop import SESubset

    space = ElementSpace(CARRIER)
    a = SESubset(space, m1)
    b = SESubset(space, m2)
    for t in range(2):
        assert (a & b).section(t).issubset(a.section(t) & b.section(t))


def test_intersection_sections_equality_fails():
    # a = {(x1,x3),(x1,x4),(x2,x3)}, b = {(x1,x3),(x1,x4),(x2,x4)}:
    # (a & b)(first param) = {x1} but a(first) & b(first) = {x1,x2}.
    space = ElementSpace(CARRIER)
    a = space.subset_of([(0, 2), (0, 3), (1, 2)])
    b = space.subset_of([(0, 2), (0, 3), (1, 3)])
    lhs = (a & b).section(0)
    rhs = a.section(0) & b.section(0)
    assert lhs == FinSet.of([0], 4)
    assert rhs == FinSet.of([0, 1], 4)
    assert lhs != rhs


# ---------------------------------------------------------------- SE(h) map


def test_se_of_softset_examples():
    space = ElementSpace(CARRIER)
    assert se_of_softset(space, CARRIER) == space.full_subset()
    assert se_of_softset(space, SoftSet.of([[0], []], 4)) == space.empty_subset()
    h = SoftSet.of([[0], [2, 3]], 4)
    assert se_of_softset(space, h).members() == ((0, 2), (0, 3))


@settings(max_examples=60, deadline=None)
@given(subset_masks(), subset_masks())
def test_se_of_softset_respects_order(a, b):
    space = ElementSpace(CARRIER)
    if soft_subset(a, b):
        sa, sb = se_of_softset(space, a), se_of_softset(space, b)
        assert sa.mask & ~sb.mask == 0


@settings(max_examples=60, deadline=None)
@given(subset_masks())
def test_se_of_softset_roundtrips_sections(h):
    space = ElementSpace(CARRIER)
    k = se_of_softset(space, h)
    if all(not s.is_empty for s in h.sections):
        for t in range(h.param_count):
            assert k.section(t) == h.section(t)
    else:
        assert k == space.empty_subset()


# ---------------------------------------------------------------- representability


def test_diagonal_subset_not_representable():
    space = ElementSpace(CARRIER)
    k = space.subset_of([(0, 2), (1, 3)])
    ok, witness = is_se_representable(k)
    assert not ok
    # least missing element of the sectionwise hull
    assert witness == (0, 3)


def test_full_and_singletons_representable():
    space = ElementSpace(CARRIER)
    ok, witness = is_se_representable(space.full_subset())
    assert ok and witness is None
    ok, witness = is_se_representable(space.subset_of([(1, 2)]))
    assert ok and witness is None


def test_empty_subset_not_representable_input():
    space = ElementSpace(CARRIER)
    with pytest.raises(InputError):
        is_se_representable(space.empty_subset())


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=15))
def test_representable_iff_equals_se_of_hull(mask):
    from softbitop import SESubset

    space = ElementSpace(CARRIER)
    k = SESubset(space, mask)
    hull = se_of_softset(space, k.sections())
    ok, witness = is_se_representable(k)
    assert ok == (hull == k)
    if not ok:
        assert witness in hull and witness not in k


def test_representability_against_element_walk():
    """Every nonempty mask of every carrier with up to 10 soft elements:
    the hull read from flat_elements gives what the hull of the walked
    sections (`SESubset.sections`) gives."""
    for carrier in small_carriers(10):
        space = ElementSpace(carrier)
        for m in range(1, 1 << space.size):
            k = SESubset(space, m)
            extra = se_of_softset(space, k.sections()).mask & ~m
            least = (extra & -extra).bit_length() - 1
            expected = (False, space.elements[least]) if extra else (True, None)
            assert is_se_representable(k) == expected, (carrier.key, m)


def test_representability_builds_no_element_list():
    space = ElementSpace(SoftSet.of([range(3)] * 2, 3))
    assert is_se_representable(SESubset(space, 0b100000001)) == (False, (0, 2))
    assert "elements" not in vars(space)
