"""The neighbourhood deciders against the brute-force oracles.

Each decider must give the same verdict and the same least witness as
the scan over pairs of opens it replaced (`oracles.py`): exhaustively on
small topologies and candidate pools, and with hypothesis on arbitrary
finite families, which need not be topologies.
"""

from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_carrier, random_soft_topology, rng_for
from softbitop import (
    BitopPair,
    ClassicalTopology,
    FinSet,
    SoftBitopSpace,
    SoftSet,
    canonical_topology,
    enumerate_topologies,
    induced_topology,
    pairwise_soft_t0,
    pairwise_soft_t1,
    pairwise_soft_t2,
    pairwise_t0,
    pairwise_t1,
    pairwise_t2,
)
from softbitop.pairwise import candidate_soft_topologies

CLASSICAL = (
    (pairwise_t0, oracles.pairwise_t0),
    (pairwise_t1, oracles.pairwise_t1),
    (pairwise_t2, oracles.pairwise_t2),
)


def soft_cases(space):
    """(fast verdict, oracle verdict) for every soft decider and variant."""
    yield pairwise_soft_t0(space), oracles.pairwise_soft_t0(space)
    for ordered in (True, False):
        yield (
            pairwise_soft_t1(space, ordered=ordered),
            oracles.pairwise_soft_t1(space, ordered=ordered),
        )
        yield (
            pairwise_soft_t2(space, ordered=ordered),
            oracles.pairwise_soft_t2(space, ordered=ordered),
        )


def assert_classical_agree(first, second):
    pair = BitopPair(first, second)
    for fast, slow in CLASSICAL:
        assert fast(pair) == slow(pair), (fast.__name__, first.opens, second.opens)


@pytest.mark.parametrize(
    "n, carrier", [(1, None), (2, None), (3, None), (3, FinSet.of([0, 2], 3))]
)
def test_classical_deciders_on_all_small_topology_pairs(n, carrier):
    topologies = enumerate_topologies(n, carrier=carrier)
    for first in topologies:
        for second in topologies:
            assert_classical_agree(first, second)


def test_classical_deciders_on_induced_pairs_of_2x2_pool():
    induced = [induced_topology(tau).as_classical() for tau in candidate_soft_topologies(2, 2)]
    for first in induced:
        for second in induced:
            assert_classical_agree(first, second)


@pytest.mark.parametrize("n, p", [(2, 2), (3, 1)])
def test_soft_deciders_on_all_pool_pairs(n, p):
    pool = candidate_soft_topologies(n, p)
    ambient = pool[0].ambient
    for tau1 in pool:
        for tau2 in pool:
            space = SoftBitopSpace(ambient, tau1, tau2)
            for fast, slow in soft_cases(space):
                assert fast == slow


def test_soft_deciders_on_canonical_spaces_of_small_carriers():
    """Every ordered pair of canonical soft topologies on every carrier
    with 2 points and 2 parameters.  Carriers with a one-point section put
    the first two soft elements apart at one parameter and together at the
    other, so soft T2 must test disjointness at every parameter."""
    for sections in product((0b01, 0b10, 0b11), repeat=2):
        ambient = SoftSet(tuple(FinSet(2, m) for m in sections))
        factors = [enumerate_topologies(2, carrier=s) for s in ambient.sections]
        taus = [canonical_topology(ambient, list(sigmas)) for sigmas in product(*factors)]
        for tau1 in taus:
            for tau2 in taus:
                space = SoftBitopSpace(ambient, tau1, tau2)
                for fast, slow in soft_cases(space):
                    assert fast == slow


def test_soft_deciders_on_random_carriers():
    """Carriers whose sections differ, unlike the constant pool carriers."""
    rng = rng_for("oracle-equivalence-soft")
    for _ in range(200):
        ambient = random_carrier(rng)
        if any(s.is_empty for s in ambient.sections):
            continue
        tau1 = random_soft_topology(rng, ambient)
        tau2 = random_soft_topology(rng, ambient)
        space = SoftBitopSpace(ambient, tau1, tau2)
        for fast, slow in soft_cases(space):
            assert fast == slow


@st.composite
def arbitrary_family_pairs(draw):
    """Two arbitrary families of subsets of up to 6 points on one carrier.

    Members may leave the carrier, miss some of its points entirely, and
    need not be closed under anything.
    """
    n = draw(st.integers(min_value=1, max_value=6))
    carrier = FinSet(n, draw(st.integers(min_value=0, max_value=(1 << n) - 1)))
    masks = st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), max_size=10)
    first, second = (
        ClassicalTopology(n, carrier, tuple(FinSet(n, m) for m in draw(masks)))
        for _ in range(2)
    )
    return first, second


@settings(max_examples=400, deadline=None)
@given(arbitrary_family_pairs())
def test_classical_deciders_on_arbitrary_families(families):
    assert_classical_agree(*families)
