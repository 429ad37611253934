"""Built-in showcase scenarios with pinned expected outcomes.

Three small instances exercise the phenomena the library is about: a
soft-element subset with no sectionwise representation, an indiscrete
pair whose induced bitopology is nevertheless Hausdorff, and an
infinite-parameter cover with no finite subcover.
"""

from __future__ import annotations

from .finsets import FinSet, Value, pairwise_t1, pairwise_t2
from .pairwise import SoftBitopSpace, induced_bitop, pairwise_soft_t0
from .softsets import SoftSet, is_se_representable
from .softtop import SoftTopology
from .symbolic import CofiniteSoftSet, TemplateFamily, cf_is_cover, decide_finite_subcover


class ScenarioOutcome(Value):
    name: str
    lines: tuple[str, ...]
    ok: bool


def non_representable_subset() -> ScenarioOutcome:
    """Two parameters, sections {x1,x2} and {x3,x4}; the 'diagonal' pair of
    selections has the full product as its hull, so it is not SE(H) for
    any soft subset H."""
    names = ["x1", "x2", "x3", "x4"]
    f = SoftSet.of([[0, 1], [2, 3]], 4)
    k = f.space.subset_of([(0, 2), (1, 3)])
    representable, witness = is_se_representable(k)
    expected_witness = (0, 3)  # (x1, x4)
    ok = (not representable) and witness == expected_witness
    wtxt = "none" if witness is None else f"({names[witness[0]]},{names[witness[1]]})"
    lines = (
        f"representable={str(representable).lower()} witness={wtxt}",
    )
    return ScenarioOutcome("non-representable-subset", lines, ok)


def indiscrete_pair_induced_separation() -> ScenarioOutcome:
    """Soft indiscrete pair on two parameters over {0,1}: not pairwise soft
    t0, yet the induced family contains the diagonal and antidiagonal and
    the induced pair is pairwise t1 (not t2: no disjoint induced members
    separate the two diagonal selections)."""
    f = SoftSet.of([[0, 1], [0, 1]], 2)
    phi = SoftSet.null(2, 2)
    tau = SoftTopology.build([phi, f], f)
    sp = SoftBitopSpace(f, tau, tau)
    t0 = pairwise_soft_t0(sp)
    ind1, _ = sp.induced
    # elements in lex order: (0,0)=0, (0,1)=1, (1,0)=2, (1,1)=3
    diag = (1 << 0) | (1 << 3)
    anti = (1 << 1) | (1 << 2)
    has_diag = ind1.contains_mask(diag)
    has_anti = ind1.contains_mask(anti)
    pair = induced_bitop(sp)
    ind_t1, _ = pairwise_t1(pair)
    ind_t2, _ = pairwise_t2(pair)
    ok = (not t0.holds) and has_diag and has_anti and ind_t1 and not ind_t2
    lines = (
        f"soft-t0={str(t0.holds).lower()} "
        f"induced-contains-diagonal={str(has_diag).lower()} "
        f"induced-contains-antidiagonal={str(has_anti).lower()} "
        f"induced-pairwise-t1={str(ind_t1).lower()} "
        f"induced-pairwise-t2={str(ind_t2).lower()}",
    )
    return ScenarioOutcome("indiscrete-pair-induced-separation", lines, ok)


def infinite_parameter_cover() -> ScenarioOutcome:
    """The indexed family S_t with S_t(t)={1} and S_t(s)={0} covers the
    constant {0,1} target, but no finite subfamily does: away from any
    finite index set only {0} is contributed."""
    target = CofiniteSoftSet.make(2, FinSet.of([0, 1], 2))
    family = TemplateFamily(2, (FinSet.of([1], 2), FinSet.of([0], 2)))
    cover = cf_is_cover(family, target)
    decision = decide_finite_subcover(family, target)
    generic = set(decision.generic_union.members())
    ok = cover.holds and not decision.holds and generic == {0}
    lines = (
        f"cover={'valid' if cover.holds else 'invalid'} "
        f"finite-subcover={'NONE' if not decision.holds else 'some'} "
        f"generic-union={sorted(generic)}",
    )
    return ScenarioOutcome("infinite-parameter-cover", lines, ok)


def run_all() -> tuple[ScenarioOutcome, ...]:
    return (
        non_representable_subset(),
        indiscrete_pair_induced_separation(),
        infinite_parameter_cover(),
    )
