"""Cofinitely-constant soft sets over the countably infinite parameter set
{0, 1, 2, ...} and an exact finite-subcover decision procedure.

Every object here equals a fixed default section at all but finitely many
parameter labels, so one check at a fresh "generic" label, plus checks at
the finitely many exceptional labels, decides any sectionwise statement.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from .errors import InputError, NotACoverError
from .finsets import FinSet, Value, _min_cover
from .pairwise import Verdict
from .softsets import SoftSet


class CofiniteSoftSet(Value):
    """A soft set equal to default_section at all but finitely many labels.

    Exceptions are normalized: entries equal to the default are dropped,
    labels sorted ascending.
    """

    universe_size: int
    default_section: FinSet
    exceptions: tuple[tuple[int, FinSet], ...] = ()

    def __post_init__(self) -> None:
        if self.default_section.universe_size != self.universe_size:
            raise InputError("default section universe mismatch")
        labels = [t for t, _ in self.exceptions]
        if labels != sorted(set(labels)):
            raise InputError("exception labels must be distinct and sorted")
        for t, s in self.exceptions:
            if t < 0:
                raise InputError("parameter labels are non-negative integers")
            if s.universe_size != self.universe_size:
                raise InputError("exception section universe mismatch")
            if s.mask == self.default_section.mask:
                raise InputError("exception equal to the default (not normalized)")

    @classmethod
    def make(
        cls,
        universe_size: int,
        default_section: FinSet,
        exceptions: Mapping[int, FinSet] | None = None,
    ) -> "CofiniteSoftSet":
        """Normalizing constructor: drops exceptions equal to the default."""
        items = tuple(
            (t, s)
            for t, s in sorted((exceptions or {}).items())
            if s.mask != default_section.mask
        )
        return cls(universe_size, default_section, items)

    @property
    def exception_labels(self) -> tuple[int, ...]:
        return tuple(t for t, _ in self.exceptions)


def cf_section(s: CofiniteSoftSet, t: int) -> FinSet:
    for label, sec in s.exceptions:
        if label == t:
            return sec
    return s.default_section


class TemplateFamily(Value):
    """A cover family with at most one indexed template.

    With a template (at_index_section, default_section) the family holds
    one member per label t, equal to at_index_section at t and to
    default_section elsewhere; explicit cofinite members may be added.
    """

    universe_size: int
    template: tuple[FinSet, FinSet] | None
    explicit_members: tuple[CofiniteSoftSet, ...] = ()

    def __post_init__(self) -> None:
        if self.template is not None:
            at_index, default = self.template
            if (
                at_index.universe_size != self.universe_size
                or default.universe_size != self.universe_size
            ):
                raise InputError("template section universe mismatch")
        for m in self.explicit_members:
            if m.universe_size != self.universe_size:
                raise InputError("explicit member universe mismatch")
        if self.template is None and not self.explicit_members:
            raise InputError("an empty family covers nothing")

    def template_member(self, t: int) -> CofiniteSoftSet:
        if self.template is None:
            raise InputError("family has no indexed template")
        at_index, default = self.template
        return CofiniteSoftSet.make(self.universe_size, default, {t: at_index})

    def mentioned_labels(self) -> tuple[int, ...]:
        labels: set[int] = set()
        for m in self.explicit_members:
            labels.update(m.exception_labels)
        return tuple(sorted(labels))


def _check_sizes(family: TemplateFamily, target: CofiniteSoftSet) -> None:
    if family.universe_size != target.universe_size:
        raise InputError("family and target universe sizes differ")


def cf_is_cover(family: TemplateFamily, target: CofiniteSoftSet) -> Verdict:
    """Does the whole (possibly infinite) family cover the target
    sectionwise at every label?

    The template contributes at_index at any label s (from the member
    indexed by s) together with the template default (from all other
    members); cofinite constancy reduces the check to the exceptional
    labels plus one generic label.
    """
    _check_sizes(family, target)
    tpl = 0
    if family.template is not None:
        at_index, default = family.template
        tpl = at_index.mask | default.mask
    labels = set(family.mentioned_labels()) | set(target.exception_labels)
    generic = max(labels, default=-1) + 1
    for s in sorted(labels) + [generic]:
        union = tpl
        for m in family.explicit_members:
            union |= cf_section(m, s).mask
        missing = cf_section(target, s).mask & ~union
        if missing:
            where = "generic" if s == generic else s
            return Verdict(
                False,
                (where, FinSet(family.universe_size, union)),
                f"uncovered point at label {where}",
            )
    return Verdict(True)


class SubcoverDecision(Value):
    """Finite-subcover verdict with a verified witness or a certificate."""

    holds: bool
    witness: tuple[CofiniteSoftSet, ...] | None
    generic_union: FinSet
    detail: str


def decide_finite_subcover(
    family: TemplateFamily, target: CofiniteSoftSet
) -> SubcoverDecision:
    """Decide whether some finite subfamily covers the target.

    Any finite subfamily must cover the cofinitely many generic labels
    using defaults only, so the generic condition is necessary; candidate
    template indices beyond the exceptional labels can be standardized to
    at most two fresh ones.  The residual finite problem, each candidate
    flattened across those labels, goes to the shared minimum-cover kernel
    `_min_cover`: smallest, then lexicographically least, subfamily first.
    """
    _check_sizes(family, target)
    if not cf_is_cover(family, target).holds:
        raise NotACoverError("the full family does not cover the target")
    labels = sorted(set(family.mentioned_labels()) | set(target.exception_labels))
    fresh = max(labels, default=-1) + 1
    index_pool = list(labels)
    if family.template is not None:
        index_pool += [fresh, fresh + 1]

    candidates: list[CofiniteSoftSet] = [
        family.template_member(t) for t in index_pool
    ] if family.template is not None else []
    candidates += list(family.explicit_members)

    # Generic-label union with every default participating: the best any
    # finite subfamily can do away from its own indices.
    generic_union = 0
    if family.template is not None:
        generic_union |= family.template[1].mask
    for m in family.explicit_members:
        generic_union |= m.default_section.mask
    generic_fin = FinSet(family.universe_size, generic_union)

    # At any label beyond these every section is its default, so one
    # generic label past them all stands for the rest.
    n = family.universe_size
    flat_labels = [*index_pool, max(index_pool, default=-1) + 1]

    def flat(s: CofiniteSoftSet) -> int:
        return sum(cf_section(s, t).mask << (i * n) for i, t in enumerate(flat_labels))

    found = _min_cover([flat(c) for c in candidates], flat(target))
    if found is not None:
        chosen = tuple(candidates[i] for i in found)
        detail = f"finite subcover of size {len(chosen)}"
        return SubcoverDecision(True, chosen, generic_fin, detail)
    return SubcoverDecision(
        False,
        None,
        generic_fin,
        "at any label beyond a finite index set the union section is "
        f"{set(generic_fin.members())} and does not cover the target default "
        f"{set(target.default_section.members())}",
    )


def truncate_soft_set(s: CofiniteSoftSet, m: int) -> SoftSet:
    """Restrict to the finite parameter range {0, ..., m-1}."""
    if any(t >= m for t in s.exception_labels):
        raise InputError("truncation must exceed every exception label")
    return SoftSet(tuple(cf_section(s, t) for t in range(m)))


def truncate_family(family: TemplateFamily, m: int) -> tuple[SoftSet, ...]:
    """Expand the template into its first m members and truncate everything
    to the parameter range {0, ..., m-1}."""
    if any(t >= m for t in family.mentioned_labels()):
        raise InputError("truncation must exceed every exception label")
    members: list[SoftSet] = []
    if family.template is not None:
        for t in range(m):
            members.append(truncate_soft_set(family.template_member(t), m))
    for e in family.explicit_members:
        members.append(truncate_soft_set(e, m))
    return tuple(members)
