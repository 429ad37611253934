"""Seeded inputs for the softbitop benchmark.

Every workload has a fixed catalogue of structures, drawn once from
CATALOGUE_SEED and pinned with its reference outputs in references.json.
The run seed decides what cannot change the work done: the names of
points and parameters, the listing order inside each document and the
order of the operations.  Every seed therefore asks for the same decision
work, so the spread between seeds is machine noise, while the bytes the
program receives differ from seed to seed.  Relabelling points would keep
every verdict but not the work: it moves the first witness of a scan and
the size of the bitmask integers Python allocates, and so the figures.

Nothing here imports softbitop or the repository's tests, so the inputs
cannot move when the program or its tests change.
"""

from __future__ import annotations

import itertools
import json
import random
import re
from typing import Optional

CATALOGUE_SEED = 260206372

# Seeded names are a one-letter prefix and six hex digits; canonical names
# are x0, x1, ... for points and t0, t1, ... for parameters.  Reports are
# normalised back to canonical names before they are compared with the
# pinned references.
UNIVERSE_PREFIX, PARAM_PREFIX = "u", "q"
SEEDED_NAME = re.compile(r"\b[uq][0-9a-f]{6}\b")

TAGS = ("tau1", "tau2", "both")


def bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def random_subset(rng: random.Random, mask: int, lo: int = 0, hi: Optional[int] = None) -> int:
    """A subset of mask with between lo and hi members."""
    members = bits(mask)
    k = rng.randint(lo, len(members) if hi is None else min(hi, len(members)))
    out = 0
    for i in rng.sample(members, k):
        out |= 1 << i
    return out


def canonical_names(prefix: str, count: int) -> list[str]:
    return [f"{prefix}{i}" for i in range(count)]


def seeded_names(rng: random.Random, prefix: str, count: int) -> list[str]:
    names: list[str] = []
    while len(names) < count:
        name = f"{prefix}{rng.getrandbits(24):06x}"
        if name not in names:
            names.append(name)
    return names


def normalise(text: str, names: dict[str, str]) -> str:
    """Replace seeded names by canonical ones; unknown tokens stay."""
    return SEEDED_NAME.sub(lambda m: names.get(m.group(), m.group()), text)


def canonical_json(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------- spaces


def soft_closure(opens: set[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Close a family of soft sets (tuples of section masks) under
    sectionwise union and intersection."""
    family = set(opens)
    while True:
        new = set()
        for a in family:
            for b in family:
                for c in (
                    tuple(x | y for x, y in zip(a, b)),
                    tuple(x & y for x, y in zip(a, b)),
                ):
                    if c not in family:
                        new.add(c)
        if not new:
            return sorted(family)
        family |= new


def space_instance(
    rng: random.Random, n: int, sizes: tuple[int, ...], form: str, rep: bool = False
) -> dict:
    """One space: sections of the given sizes on an n-point universe and
    two topologies of the given form.

    'canonical' closes one or two random subsets per parameter into
    component topologies; 'discrete' uses all singletons, which makes
    componentwise T2 hold and the soft T2 lift fail; 'explicit' lists the
    soft closure of two random soft sets, which is usually not canonical.
    """
    sections = [sum(1 << i for i in rng.sample(range(n), k)) for k in sizes]
    topologies = []
    for _ in range(2):
        if form == "explicit":
            gens = {tuple(random_subset(rng, s) for s in sections) for _ in range(2)}
            gens |= {tuple(0 for _ in sections), tuple(sections)}
            topologies.append({"opens": [list(o) for o in soft_closure(gens)]})
        elif form == "discrete":
            topologies.append({"subbases": [[1 << i for i in bits(s)] for s in sections]})
        else:
            topologies.append(
                {
                    "subbases": [
                        [random_subset(rng, s, 1) for _ in range(rng.randint(1, 2))]
                        for s in sections
                    ]
                }
            )
    inst = {"n": n, "sections": sections, "topologies": topologies}
    if rep:
        elements = list(itertools.product(*(bits(s) for s in sections)))
        picked = rng.sample(elements, rng.randint(1, min(3, len(elements))))
        inst["representability"] = [list(e) for e in sorted(picked)]
    return inst


def space_doc(inst: dict, uni: list[str], par: list[str], rng: Optional[random.Random]) -> dict:
    """The JSON document for a space; rng shuffles every listing."""

    def shuffled(items: list) -> list:
        if rng is not None:
            rng.shuffle(items)
        return items

    def names(mask: int) -> list[str]:
        return shuffled([uni[i] for i in bits(mask)])

    topologies = []
    for topo in inst["topologies"]:
        if "opens" in topo:
            opens = [{par[t]: names(m) for t, m in enumerate(o)} for o in topo["opens"]]
            topologies.append({"opens": shuffled(opens)})
        else:
            subbases = {
                par[t]: shuffled([names(m) for m in sb])
                for t, sb in enumerate(topo["subbases"])
            }
            topologies.append({"generate": "canonical", "subbases": subbases})
    doc = {
        "universe": uni,
        "params": par,
        "sections": {par[t]: names(m) for t, m in enumerate(inst["sections"])},
        "topologies": topologies,
    }
    if "representability" in inst:
        doc["representability"] = shuffled(
            [[uni[i] for i in e] for e in inst["representability"]]
        )
    return doc


def cli_space_op(op_id: str, command: str, inst: dict, rng: Optional[random.Random]) -> dict:
    n, p = inst["n"], len(inst["sections"])
    canon_uni = canonical_names("x", n)
    canon_par = canonical_names("t", p)
    canonical = json.dumps(space_doc(inst, canon_uni, canon_par, None))
    if rng is None:
        uni, par = canon_uni, canon_par
    else:
        uni = seeded_names(rng, UNIVERSE_PREFIX, n)
        par = seeded_names(rng, PARAM_PREFIX, p)
    names = dict(zip(uni + par, canon_uni + canon_par))
    stdin = json.dumps(space_doc(inst, uni, par, rng))
    return {
        "id": op_id,
        "kind": "cli",
        "argv": [command],
        "stdin": stdin,
        "names": names,
        "canonical": canonical,
    }


# Why: the largest spaces a run can repeat often enough to measure
# steadily, where the induced-pair T2 scan and the 2^SE filtration do
# almost all the work.  Each carrier comes as canonical directives and as
# listed opens.  The 12-SE rungs (3 to 8 s per check) are left out with
# the other slow rungs in README.md.
LADDER = (
    (2, (2, 2), "canonical"),
    (2, (2, 2), "explicit"),
    (2, (2, 2, 2), "canonical"),
    (2, (2, 2, 2), "explicit"),
    (3, (3, 3), "canonical"),
    (3, (3, 3), "explicit"),
    (3, (3, 3), "canonical"),
    (3, (3, 3), "explicit"),
)

# Why: the same deciders as check-ladder, used differently: many small
# spaces (SE 1 to 9), each pushed through the whole theorem harness, so
# per-space rebuilds of induced families and component topologies show.
VERIFY_SHAPES = (
    (1, (1,)),
    (2, (2,)),
    (2, (1, 1)),
    (2, (2, 1)),
    (3, (3,)),
    (2, (2, 2)),
    (3, (2, 2)),
    (3, (3, 2)),
    (2, (2, 2, 2)),
    (4, (2, 2, 2)),
    (3, (3, 3)),
    (4, (3, 3)),
)
VERIFY_PER_SHAPE = 3


def ladder_catalogue() -> list[tuple[str, dict]]:
    rng = random.Random(CATALOGUE_SEED + 1)
    out = []
    for k, (n, sizes, form) in enumerate(LADDER):
        shape = "x".join(map(str, sizes))
        out.append((f"ladder-{k}-{shape}-{form}", space_instance(rng, n, sizes, form)))
    return out


def verify_catalogue() -> list[tuple[str, dict]]:
    rng = random.Random(CATALOGUE_SEED + 2)
    out = []
    for n, sizes in VERIFY_SHAPES:
        shape = "x".join(map(str, sizes))
        for k in range(VERIFY_PER_SHAPE):
            form = rng.choice(("canonical", "canonical", "explicit", "explicit", "discrete"))
            inst = space_instance(rng, n, sizes, form, rep=rng.random() < 1 / 3)
            out.append((f"verify-n{n}-{shape}-{k}-{form}", inst))
    return out


# ---------------------------------------------------------- 3x2 pairs

PAIR_POINTS = 3


def pair_code(sections: tuple[int, int]) -> int:
    """A soft open of the 3x2 pool as one integer: mask0 | mask1 << 3."""
    return sections[0] | sections[1] << PAIR_POINTS


def pair_op(op_id: str, base: dict) -> dict:
    return {
        "id": op_id,
        "kind": "pair",
        "tau1": base["tau1"],
        "tau2": base["tau2"],
        "canonical": canonical_json([base["tau1"], base["tau2"]]),
    }


# Why: many tiny spaces where per-space overhead dominates; the fixed
# searches and examples pin the census, and the sampled 3x2 pairs are
# decided for class (i) by the deciders search_counterexamples uses.
SEARCH_FIXED = (
    ("search-2x2", ["search"]),
    ("search-3x1", ["search", "--max-universe", "3", "--max-params", "1"]),
    ("examples", ["examples"]),
)
SEARCH_PAIRS = 120


def draw_pairs(pool_codes: list[list[int]]) -> list[dict]:
    """The pinned pair sample: uniform ordered pairs from the pool."""
    rng = random.Random(CATALOGUE_SEED + 3)
    out = []
    for _ in range(SEARCH_PAIRS):
        i, j = rng.randrange(len(pool_codes)), rng.randrange(len(pool_codes))
        out.append({"tau1": pool_codes[i], "tau2": pool_codes[j]})
    return out


# ------------------------------------------------------------- covers

# Why: the only workload whose time goes into minimum-cover search; in
# verify the full family's cover stops at size one because the ambient
# is open, so a merged cover kernel should move this workload only.
# Each entry is (points per section, members) or (points, members).
SOFT_COVERS = tuple((6 + k % 3, 14 + 2 * (k % 3)) for k in range(10))
SET_COVERS = tuple((12 + k % 5, 20 + 2 * (k % 3)) for k in range(10))
COFINITE_COVERS = 12


def _patch_cover(rng: random.Random, members: list[int], full: int, hi: int) -> None:
    """Add members until the union covers full."""
    union = 0
    for m in members:
        union |= m
    while union != full:
        extra = random_subset(rng, full & ~union, 1, hi)
        members.append(extra)
        union |= extra


def soft_cover_instance(rng: random.Random, n: int, count: int) -> dict:
    full = (1 << n) - 1
    sec0 = [random_subset(rng, full, 0, 2) for _ in range(count)]
    sec1 = [random_subset(rng, full, 0, 2) for _ in range(count)]
    _patch_cover(rng, sec0, full, 2)
    _patch_cover(rng, sec1, full, 2)
    size = max(len(sec0), len(sec1))
    sec0 += [0] * (size - len(sec0))
    sec1 += [0] * (size - len(sec1))
    members = [[a, b, rng.choice(TAGS)] for a, b in zip(sec0, sec1)]
    return {"n": n, "members": members}


def set_cover_instance(rng: random.Random, n: int, count: int) -> dict:
    full = (1 << n) - 1
    members = [random_subset(rng, full, 2, 3) for _ in range(count)]
    _patch_cover(rng, members, full, 3)
    return {"n": n, "members": members}


def cofinite_instance(rng: random.Random, k: int) -> dict:
    """A template family plus explicit cofinite members.

    The template's two sections together cover the universe, so the
    whole family always covers the full target; whether a finite
    subfamily does depends on the defaults, which alternate between
    covering and missing a point.
    """
    n = rng.randint(3, 4)
    full = (1 << n) - 1
    at_index = random_subset(rng, full, 1, n - 1)
    template = [at_index, full & ~at_index]
    explicit = []
    for _ in range(rng.randint(4, 6)):
        default = random_subset(rng, full, 1, n - 1)
        labels = sorted(rng.sample(range(6), rng.randint(0, 2)))
        exceptions = [[t, random_subset(rng, full)] for t in labels]
        explicit.append([default, exceptions])
    generic = template[1]
    for default, _ in explicit:
        generic |= default
    if k % 2 == 0 and generic != full:
        explicit[0][0] |= full & ~generic
    elif k % 2 == 1:
        missing = 1 << rng.choice(bits(at_index))
        template[1] &= ~missing
        for e in explicit:
            e[0] &= ~missing
            if e[0] == 0:
                e[0] = full & ~missing
    for e in explicit:
        # Cofinite sets are normalised: no exception equals the default.
        e[1] = [x for x in e[1] if x[1] != e[0]]
    return {"n": n, "template": template, "explicit": explicit, "target": full}


def cover_catalogue() -> list[tuple[str, str, dict]]:
    rng = random.Random(CATALOGUE_SEED + 4)
    out = []
    for k, (n, count) in enumerate(SOFT_COVERS):
        out.append((f"soft-cover-{k}-n{n}", "soft-cover", soft_cover_instance(rng, n, count)))
    for k, (n, count) in enumerate(SET_COVERS):
        out.append((f"set-cover-{k}-n{n}", "set-cover", set_cover_instance(rng, n, count)))
    for k in range(COFINITE_COVERS):
        out.append((f"cofinite-{k}", "cofinite", cofinite_instance(rng, k)))
    return out


def cover_op(op_id: str, kind: str, inst: dict) -> dict:
    return {"id": op_id, "kind": kind, **inst, "canonical": canonical_json(inst)}


# ---------------------------------------------------------- workloads

WORKLOADS = ("check-ladder", "verify-batch", "search-census", "cover-kernel")


def build(workload: str, seed: Optional[int], pairs: list[dict]) -> list[dict]:
    """The operations of one pass, in run order.

    seed=None gives the canonical form (canonical names, catalogue order)
    from which references are pinned.
    """
    rng = None if seed is None else random.Random(seed)
    if workload == "check-ladder":
        ops = [cli_space_op(i, "check", inst, rng) for i, inst in ladder_catalogue()]
    elif workload == "verify-batch":
        ops = [cli_space_op(i, "verify", inst, rng) for i, inst in verify_catalogue()]
    elif workload == "search-census":
        ops = [
            {"id": i, "kind": "cli", "argv": argv, "stdin": None, "names": {}, "canonical": " ".join(argv)}
            for i, argv in SEARCH_FIXED
        ]
        ops += [pair_op(f"pair-{k:03d}", base) for k, base in enumerate(pairs)]
    elif workload == "cover-kernel":
        ops = [cover_op(i, kind, inst) for i, kind, inst in cover_catalogue()]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if rng is not None:
        rng.shuffle(ops)
    return ops
