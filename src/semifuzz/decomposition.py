"""Divisor-agreement congruences and the subdirect embedding.

Two fuzzy sets are related at a base element when they agree on every
divisor of that element.  Each class of that relation is represented
canonically by the restriction to the divisor set (equivalently, by its
extend-by-zero normal form), which is what makes the quotient computable:
the classes over [0, 1] are uncountable, their representatives are not.

Collecting the restriction at every base element embeds the full
convolution semigroup into the product of the restricted ones, one
component per carrier element.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from .fuzzy import FuzzySet, RestrictedFuzzySet, ZERO, star_convolve
from .semigroups import Element, Semigroup


def agrees_on_divisors(a: Element | str | int, f: FuzzySet, g: FuzzySet) -> bool:
    """True iff f and g take the same value on every divisor of a.

    This is the congruence relation at a; agreement everywhere on the
    carrier is the special case where a lies in the kernel.
    """
    sg = f.semigroup
    if g.semigroup is not sg and g.semigroup != sg:
        raise ValueError("fuzzy sets live over different semigroups")
    gather = sg._divisor_gathers[sg.element(a).index]
    # tuple comparison tests identity before Fraction equality, and value
    # objects are often shared
    return gather(f.values) == gather(g.values)


def agreement_rows(a: Element | str | int, universe: Sequence[FuzzySet]) -> Iterator[list[bool]]:
    """``[agrees_on_divisors(a, f, g) for g in universe]`` for each f of ``universe`` in turn.

    Each distinct value object is coded once, by exact value, as an int,
    and each member's divisor coordinates are gathered once into a tuple
    of those codes, its key.  Row i compares key i with every key, one
    comparison per entry, so transitivity is never assumed.
    """
    if not universe:
        return
    sg = universe[0].semigroup
    if any(u.semigroup is not sg and u.semigroup != sg for u in universe):
        raise ValueError("fuzzy sets live over different semigroups")
    gather = sg._divisor_gathers[sg.element(a).index]
    gathered = [gather(u.values) for u in universe]
    objects = {id(v): v for values in gathered for v in values}
    codes: dict = {}
    code = {i: codes.setdefault(v, len(codes)) for i, v in objects.items()}
    keys = [tuple(map(code.__getitem__, map(id, values))) for values in gathered]
    for key in keys:
        yield list(map(key.__eq__, keys))


def restrict(a: Element | str | int, f: FuzzySet) -> RestrictedFuzzySet:
    """The restriction of f to the divisor set of a.

    Restrictions are equal exactly when the originals agree on the
    divisor set, so the result is the canonical representative of the
    agreement class of f at a.
    """
    sg = f.semigroup
    idx = sg.element(a).index
    return RestrictedFuzzySet(sg, idx, sg._divisor_gathers[idx](f.values))


def extend_by_zero(f: RestrictedFuzzySet) -> FuzzySet:
    """Extend a restricted fuzzy set to the whole carrier with value 0.

    Restricting the result gives back the input, which is what makes
    every restricted fuzzy set reachable from a full one.
    """
    sg = f.semigroup
    values = [ZERO] * sg.order
    for s, v in zip(sg._divisor_domains[f.base], f.values):
        values[s] = v
    return FuzzySet(sg, tuple(values))


@dataclass(frozen=True)
class SubdirectTuple:
    """One restricted fuzzy set per carrier element, indexed by base.

    The image of a full fuzzy set under the subdirect embedding; the
    componentwise star product mirrors convolution upstairs.
    """

    semigroup: Semigroup
    components: tuple[RestrictedFuzzySet, ...]

    def __post_init__(self):
        if len(self.components) != self.semigroup.order:
            raise ValueError("need one component per carrier element")
        if any(c.base != i for i, c in enumerate(self.components)):
            raise ValueError("component at position i must be based at element i")

    def component(self, a: Element | str | int) -> RestrictedFuzzySet:
        return self.components[self.semigroup.element(a).index]

    def star(self, other: SubdirectTuple) -> SubdirectTuple:
        if other.semigroup != self.semigroup:
            raise ValueError("tuples live over different semigroups")
        return SubdirectTuple(self.semigroup, tuple(
            star_convolve(f, g) for f, g in zip(self.components, other.components)
        ))

    def as_dict(self) -> dict[str, dict]:
        return {c.base_element.name: c.as_dict() for c in self.components}


def subdirect_embed(f: FuzzySet) -> SubdirectTuple:
    """Restrict f at every base element, collecting the components.

    The map is injective (every element divides itself, so two distinct
    fuzzy sets disagree on some component) and turns convolution into the
    componentwise star product.
    """
    sg = f.semigroup
    return SubdirectTuple(sg, tuple(restrict(a, f) for a in sg.elements))
