"""Shared helpers: seeded random instance generators, element spaces of a
given size, and the large input documents of the CLI tests."""

from __future__ import annotations

import json
import pathlib
import random
from itertools import product
from math import prod

from softbitop import (
    ClassicalTopology,
    ElementSpace,
    FinSet,
    SoftSet,
    SoftTopology,
    generate_topology,
    soft_intersection,
    soft_union,
)

DEFAULT_SEED = 20240817
FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def small_carriers(max_elements: int):
    """Every carrier on up to 3 points and up to 4 parameters with at most
    max_elements soft elements."""
    for n in range(1, 4):
        for p in range(1, 5):
            for masks in product(range(1, 1 << n), repeat=p):
                if prod(m.bit_count() for m in masks) <= max_elements:
                    yield SoftSet(tuple(FinSet(n, m) for m in masks))


def rng_for(name: str, seed: int = DEFAULT_SEED) -> random.Random:
    return random.Random(f"{seed}:{name}")


def random_nonempty_mask(rng: random.Random, n: int) -> int:
    return rng.randint(1, (1 << n) - 1)


def random_soft_set(rng: random.Random, ambient: SoftSet) -> SoftSet:
    sections = []
    for s in ambient.sections:
        sub = s.mask & rng.randint(0, (1 << ambient.universe_size) - 1)
        sections.append(FinSet(ambient.universe_size, sub))
    return SoftSet(tuple(sections))


def random_carrier(rng: random.Random) -> SoftSet:
    n = rng.randint(1, 3)
    p = rng.randint(1, 2)
    return SoftSet(
        tuple(FinSet(n, random_nonempty_mask(rng, n)) for _ in range(p))
    )


def random_soft_topology(rng: random.Random, ambient: SoftSet) -> SoftTopology:
    """Close a few random soft subsets under union/intersection."""
    family = {SoftSet.null(ambient.param_count, ambient.universe_size).key: None}
    members = [
        SoftSet.null(ambient.param_count, ambient.universe_size),
        ambient,
    ]
    family[ambient.key] = None
    for _ in range(rng.randint(0, 3)):
        h = random_soft_set(rng, ambient)
        if h.key not in family:
            family[h.key] = None
            members.append(h)
    changed = True
    while changed:
        changed = False
        for a in list(members):
            for b in list(members):
                for c in (soft_union(a, b), soft_intersection(a, b)):
                    if c.key not in family:
                        family[c.key] = None
                        members.append(c)
                        changed = True
    return SoftTopology.build(members, ambient)


def random_sigma_family(
    rng: random.Random, ambient: SoftSet
) -> list[ClassicalTopology]:
    n = ambient.universe_size
    sigmas = []
    for t in range(ambient.param_count):
        carrier = ambient.section(t)
        subbase = []
        for _ in range(rng.randint(0, 3)):
            subbase.append(FinSet(n, carrier.mask & rng.randint(0, (1 << n) - 1)))
        sigmas.append(generate_topology(subbase, n, carrier=carrier))
    return sigmas


def element_space_of_size(n: int) -> ElementSpace:
    """n soft elements, one per point of a single full section, so that
    soft element i is the selection (i,)."""
    return ElementSpace(SoftSet.of([range(n)], n))


SIXTEEN_PARAMS = ["p0", "p1", "p2", "p3"]


def _write_doc(tmp_path, doc: dict) -> str:
    f = tmp_path / "space.json"
    f.write_text(json.dumps(doc))
    return str(f)


def write_16_soft_element_space(tmp_path) -> str:
    """2 points x 4 parameters, both topologies discrete canonical."""
    discrete = {
        "generate": "canonical",
        "subbases": {p: [["x0"], ["x1"]] for p in SIXTEEN_PARAMS},
    }
    doc = {
        "universe": ["x0", "x1"],
        "params": SIXTEEN_PARAMS,
        "sections": {p: ["x0", "x1"] for p in SIXTEEN_PARAMS},
        "topologies": [discrete, discrete],
    }
    return _write_doc(tmp_path, doc)


def write_20_soft_element_space(tmp_path) -> str:
    """5 points x 2 parameters with sections of 5 and 4 points: 20 soft
    elements, the filtration guard.  Both topologies are canonical from
    subbases: tau1 has a1 {u0}, {u1,u2} and a2 {u0}; tau2 has a1 {u1},
    {u3,u4} and a2 {u1,u2}.  The document is `fixtures/se20_a.json`."""
    return _write_doc(tmp_path, json.loads((FIXTURES / "se20_a.json").read_text()))
