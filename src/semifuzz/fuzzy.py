"""Fuzzy sets over a finite semigroup and their sup-min products.

Membership values are exact rationals in [0, 1], with meet = min and
join = max.  Exactness matters: every identity this library checks is an
equality of min/max expressions, and floating point would manufacture
false counterexamples.  Values parse from "p/q" strings (or "0" / "1");
floats are rejected outright.

Two products are provided: the convolution of full fuzzy sets, and the
same formula restricted to the divisor set of a base element, where it
stays well defined because a factorization of a divisor consists of
divisors.

Both run through one kernel, built on the alpha-cut decomposition:
(f*g)(t) >= c exactly when t = xy with f(x) >= c and g(y) >= c.  It
ranks the operands' distinct values by exact integer keys (the values
over a common denominator) and admits their holders from the highest
rank down, one level per value; a target takes the value of the level at
which one of its factor pairs first has both factors admitted, which is
its maximum.  Each level settles its targets in whichever direction
visits fewer factor pairs, as in direction-optimizing breadth-first
search (Beamer, Asanovic and Patterson, SC 2012): push pairs each new
factor with the other side's admitted factors, which is cheap while few
factors are admitted; pull tests the factor pairs of each still-pending
target, which is cheap once few targets are pending.  The two agree
exactly: a pending target has no factor pair admitted at a higher level,
so any pair that reaches it now has a factor of this level, and its min
is this level's value.  The sweep stops once every target with a
factorization is reached; the rest stay 0.  Results reuse the operands'
value objects, so they are exact.  Push reads products through one
C-level gather per level and side, over the other side's admitted
factors, and the direction test keeps the pending targets' factor-pair
count as a running total instead of summing it again on every level.

The kernel has two entries that share the ranking.  A single product
groups both operands by value object into one map and settles it level
by level as above.  The verifier's exhaustive product tables take every
ordered pair of a universe at once (``convolve_rows``,
``star_convolve_rows``), over domains of at most 12 elements: each
member is grouped once, into one mask of domain positions per value
object, and the universe's values are ranked once.  By the same
decomposition, the c-cut of f*g is the setwise product of the c-cuts of
f and g (the decomposition theorem: Klir and Yuan, *Fuzzy Sets and
Fuzzy Logic*, 1995, ch. 2), so each call tabulates, as masks, the
products of every domain position with every subset of positions, on
either side; a pair then settles each level with one table read per new
factor and visits no factor pair.  Neither entry collects or ranks the kernel's own 0, which
is every chain's 0: a level of value 0 would settle nothing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import lcm
from operator import add, or_
from typing import Callable, Iterator, Mapping, Sequence

from .semigroups import Element, ElementSet, Semigroup, _gather

ZERO = Fraction(0)
ONE = Fraction(1)

# an exhaustive sweep holds its universe and an M x M product table of it;
# 4096 sets make a 16.7M-entry table, and a batched product over d domain
# elements holds tables of d * 2**d masks
EXHAUSTIVE_UNIVERSE_LIMIT = 4096

# not \d, which also matches other scripts' digits, and Fraction reads those
_RATIONAL_RE = re.compile(r"[0-9]+(/[0-9]+)?")


def parse_value(raw: object) -> Fraction:
    """Parse one membership value; exact forms only.

    Accepts "p/q" strings of ASCII digits in any reduction state, the
    strings "0" and "1", and the integers 0 and 1.  Floats (and
    float-looking strings) are rejected so that approximate values can
    never sneak in.
    """
    if isinstance(raw, bool):
        raise ValueError(f"not a membership value: {raw!r}")
    if isinstance(raw, float):
        raise ValueError(f"floating point membership {raw!r} rejected, use a rational string")
    if isinstance(raw, int):
        value = Fraction(raw)
    elif isinstance(raw, Fraction):
        value = raw
    elif isinstance(raw, str):
        if not _RATIONAL_RE.fullmatch(raw):
            raise ValueError(f"malformed membership value {raw!r}, expected \"p/q\", \"0\" or \"1\"")
        try:
            value = Fraction(raw)
        except ZeroDivisionError:
            raise ValueError(f"membership value {raw!r} has a zero denominator") from None
    else:
        raise ValueError(f"not a membership value: {raw!r}")
    if not ZERO <= value <= ONE:
        raise ValueError(f"membership value {value} outside [0, 1]")
    return value


@dataclass(frozen=True)
class FuzzySet:
    """A total mapping from one semigroup's carrier into [0, 1].

    ``values[i]`` is the membership of the element with index i.  Use
    :func:`fuzzy_set` (or the characteristic/constant constructors) to
    build validated instances; ``f * g`` is the convolution.
    """

    semigroup: Semigroup
    values: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.values) != self.semigroup.order:
            raise ValueError("fuzzy set must assign a value to every element")

    def __call__(self, ref: Element | str | int) -> Fraction:
        return self.values[self.semigroup.element(ref).index]

    def __mul__(self, other: FuzzySet) -> FuzzySet:
        return convolve(self, other)

    def as_dict(self) -> dict[str, str]:
        """JSON form: element name to canonical rational string, carrier order."""
        return dict(zip(self.semigroup.names, map(str, self.values)))

    def __str__(self) -> str:
        inner = ", ".join(f"{k}: {v}" for k, v in self.as_dict().items())
        return "{" + inner + "}"


def fuzzy_set(semigroup: Semigroup, values: Mapping[object, object] | Callable[[Element], object]) -> FuzzySet:
    """Build a fuzzy set from a name/element mapping or a callable on elements.

    A mapping must cover the carrier exactly; unknown names and missing
    elements are errors, as are values outside [0, 1].
    """
    if callable(values) and not isinstance(values, Mapping):
        return FuzzySet(semigroup, tuple(parse_value(values(e)) for e in semigroup.elements))
    return FuzzySet(semigroup, _values_on(semigroup, None, values))


def _values_on(semigroup: Semigroup, base: int | None, values: Mapping) -> tuple[Fraction, ...]:
    """Parse a mapping that must cover the domain exactly, in domain order.

    The domain is the carrier when ``base`` is None, else the divisor set
    of ``base``.
    """
    domain = range(semigroup.order) if base is None else semigroup._divisor_domains[base]
    out: dict[int, Fraction] = {}
    for key, raw in values.items():
        idx = semigroup.element(key).index
        if base is not None and idx not in semigroup._divisor_sets[base]:
            raise ValueError(f"{semigroup.names[idx]!r} is not a divisor of {semigroup.names[base]!r}")
        if idx in out:
            raise ValueError(f"element {semigroup.names[idx]!r} assigned twice")
        out[idx] = parse_value(raw)
    missing = [semigroup.names[i] for i in domain if i not in out]
    if missing:
        what = "fuzzy set is missing values for" if base is None else "missing values for divisors"
        raise ValueError(f"{what}: {', '.join(missing)}")
    return tuple(out[i] for i in domain)


def constant(semigroup: Semigroup, value: object) -> FuzzySet:
    """The constant fuzzy set; covers the constant-0 case the characteristic cannot."""
    v = parse_value(value)
    return FuzzySet(semigroup, (v,) * semigroup.order)


def characteristic(subset: ElementSet) -> FuzzySet:
    """Membership 1 on the subset, 0 elsewhere; the subset must be nonempty."""
    if len(subset) == 0:
        raise ValueError("characteristic function of the empty set is not defined; "
                         "use constant(semigroup, 0) for the all-zero fuzzy set")
    sg = subset.semigroup
    members = subset.indices
    return FuzzySet(sg, tuple(ONE if i in members else ZERO for i in range(sg.order)))


def embed_element(semigroup: Semigroup, s: Element | str | int) -> FuzzySet:
    """The characteristic function of {s}: the element embedding.

    This map is an injective homomorphism: embedding s and t and
    convolving gives the embedding of s*t.
    """
    return characteristic(semigroup.subset([s]))


def _ranked(holders: dict[int, tuple]) -> list[tuple]:
    """``(key, id, value, xs, ys)`` for each ``id: (value, xs, ys)`` of
    ``holders``, highest value first.

    The key is the value over the values' common denominator, an exact
    integer; equal values held by distinct objects are ordered by id, so
    a ranking of any subset of these objects orders it the same way.
    """
    scale = lcm(*[h[0].denominator for h in holders.values()])
    return sorted([(v.numerator * (scale // v.denominator), i, v, xs, ys)
                   for i, (v, xs, ys) in holders.items()], reverse=True)


def _settle(sg: Semigroup, domain, targets, levels) -> tuple[Fraction, ...]:
    """max over t = xy of min(f(x), g(y)) at every t of ``domain``.

    ``levels`` holds ``(key, id, value, new_x, new_y)`` for each distinct
    value object of f and g, ranked as by ``_ranked``: the domain elements
    where f, and where g, holds that object.  A level of value 0 would
    settle nothing, so the sweep stops there.  ``targets`` are the
    elements of the domain that have a factorization.

    Each level admits its holders and settles the pending targets that
    now have a factor pair with both factors admitted, in whichever
    direction visits fewer pairs.  Push pairs each new factor with the
    other side's admitted factors, |new_x|*|seen_y| +
    |seen_x + new_x|*|new_y| pairs: one itemgetter over seen_y reads the
    row of each new x, and one over seen_x the column of each new y.
    Pull tests the factor pairs of each pending target
    (``Semigroup._fibers``) against admitted-factor sets, and on its first
    use also counts the factors it puts in those sets.  Its pair count is
    summed over the pending targets on the first level that reads it, and
    then reduced by the sizes of each level's hits, so it stays that sum.
    Both find the same targets: a pending target has no factor pair
    admitted before this level, so a pair that reaches it now has a new
    factor, and its min is this level's value.
    """
    pending = set(targets)
    found: dict[int, Fraction] = {}
    rows, cols = sg.table, sg._columns
    seen_x: list[int] = []
    seen_y: list[int] = []
    in_x = in_y = None  # admitted-factor sets, built when pull first wins
    pairs = None  # the pending targets' factor-pair count, once a level reads it
    for key, _, value, new_x, new_y in levels:
        if key <= 0 or not pending:
            break
        push = len(new_x) * len(seen_y) + (len(seen_x) + len(new_x)) * len(new_y)
        pulling = False
        # pull visits at least one pair per pending target, so the fibers
        # are read only when that lower bound is below the push count
        if push > len(pending):
            setup = 0 if in_x is not None else len(seen_x) + len(new_x) + len(seen_y) + len(new_y)
            if push > len(pending) + setup:
                lefts, rights, sizes = sg._fibers
                if pairs is None:
                    pairs = sum(map(sizes.__getitem__, pending))
                pulling = pairs + setup < push
        if pulling:
            if in_x is None:
                in_x, in_y = set(seen_x), set(seen_y)
            in_x.update(new_x)
            in_y.update(new_y)
            hit = {t for t in pending
                   if any(map(in_y.__contains__, compress(rights[t], map(in_x.__contains__, lefts[t]))))}
            seen_x += new_x
            seen_y += new_y
        else:
            hit = set()
            if new_x and seen_y:
                gather = _gather(seen_y)
                for x in new_x:
                    hit.update(gather(rows[x]))
            seen_x += new_x
            seen_y += new_y
            if new_y and seen_x:
                gather = _gather(seen_x)
                for y in new_y:
                    hit.update(gather(cols[y]))
            hit &= pending
            if in_x is not None:
                in_x.update(new_x)
                in_y.update(new_y)
        for t in hit:
            found[t] = value
        pending -= hit
        if pairs is not None:
            pairs -= sum(map(sizes.__getitem__, hit))
    return tuple([found.get(s, ZERO) for s in domain])


def _sup_min(sg: Semigroup, base: int | None, fv, gv) -> tuple[Fraction, ...]:
    """max over t = xy of min(fv(x), gv(y)) at every t of a product domain.

    The domain is the carrier when ``base`` is None, else the divisor set
    of ``base``; fv, gv and the result align with it.  Both operands are
    grouped by value object into one map, whose entries are then ranked
    and settled by :func:`_settle`.
    """
    domain, targets = sg._sup_min_plan(base)
    if not targets:
        return (ZERO,) * len(domain)
    # each distinct value object but the kernel's 0, with the domain
    # elements holding it in f and in g
    holders: dict[int, tuple[Fraction, list[int], list[int]]] = {}
    for s, v in zip(domain, fv):
        if v is not ZERO:
            h = holders.get(id(v))
            if h is None:
                h = holders[id(v)] = (v, [], [])
            h[1].append(s)
    for s, v in zip(domain, gv):
        if v is not ZERO:
            h = holders.get(id(v))
            if h is None:
                h = holders[id(v)] = (v, [], [])
            h[2].append(s)
    return _settle(sg, domain, targets, _ranked(holders))


def _settle_masks(f, g, right, left, positions, value_of, full, width) -> tuple[Fraction, ...]:
    """``_sup_min`` of the members ``f`` and ``g`` of a ``_sup_min_rows``
    family, each given as rank -> mask of the domain positions holding
    that rank's value object.

    The ranks the two hold are walked from the top, and each admits its
    positions as in ``_settle``'s push: ``right[p][ys]`` is the mask of
    the products of position p with the admitted right factors ``ys``,
    ``left[q][xs]`` that of the admitted left factors with position q.
    Targets hit for the first time take the rank's value object; the
    walk stops once every target in ``full`` is reached.
    """
    found = [ZERO] * width
    done = xs = ys = 0
    for r in sorted(f | g):
        new_x = f.get(r, 0)
        new_y = g.get(r, 0)
        hit = 0
        for p in positions[new_x]:
            hit |= right[p][ys]
        xs |= new_x
        for q in positions[new_y]:
            hit |= left[q][xs]
        ys |= new_y
        hit &= ~done
        if hit:
            value = value_of[r]
            for t in positions[hit]:
                found[t] = value
            done |= hit
            if done == full:
                break
    return tuple(found)


def _subset_ors(items, empty, join) -> list:
    """``out[m]`` joins ``items[i]`` over the set bits i of m; each entry
    is one join of the entry without m's highest bit."""
    out = [empty]
    for item in items:
        out += [join(o, item) for o in out]
    return out


def _sup_min_rows(sg: Semigroup, base: int | None, family) -> Iterator[list[tuple[Fraction, ...]]]:
    """``_sup_min`` of every ordered pair of ``family``, one row at a time.

    ``family`` is a sequence of value tuples on the domain of ``base``;
    row i is ``[_sup_min(sg, base, family[i], g) for g in family]``, with
    the same values and value objects.  Each member is grouped once into
    one mask of domain positions per value object, and the family's value
    objects are ranked once; a level whose value is 0 would settle
    nothing, so it is dropped, as ``_settle`` stops there.  Over a domain
    of width d, two tables of d * 2**d masks are built once, each entry
    one ``_subset_ors`` step: ``right[p][Y]`` is the mask of the products
    of position p with the positions in Y, and ``left[q][X]`` that of the
    positions in X with position q.  ``_settle_masks`` then settles a
    pair with one table read per new factor on each level.  A domain
    wider than 12, where 2**d passes EXHAUSTIVE_UNIVERSE_LIMIT, is
    refused before any table is built.  A row is settled when it is
    taken.
    """
    domain, targets = sg._sup_min_plan(base)
    width = len(domain)
    if 1 << width > EXHAUSTIVE_UNIVERSE_LIMIT:
        raise ValueError(f"a batched product over {width} domain elements needs tables of "
                         f"{width} * 2**{width} masks, more than the limit of "
                         f"{width} * {EXHAUSTIVE_UNIVERSE_LIMIT}")
    # each distinct value object but the kernel's 0, held for ranking
    # like a pair's holders but with no holders of its own
    distinct: dict[int, tuple] = {}
    groups = []
    for values in family:
        held: dict[int, int] = {}
        for p, v in enumerate(values):
            if v is not ZERO:
                held[id(v)] = held.get(id(v), 0) | 1 << p
                distinct[id(v)] = (v, (), ())
        groups.append(held)
    ranked = _ranked(distinct)
    value_of = [level[2] for level in ranked]
    rank = {level[1]: r for r, level in enumerate(ranked) if level[0] > 0}
    # per member: rank -> the mask of the positions holding that value object
    members = [{rank[i]: m for i, m in held.items() if i in rank} for held in groups]
    at = {s: 1 << p for p, s in enumerate(domain)}
    on_domain = _gather(domain)
    products = [[at.get(u, 0) for u in on_domain(sg.table[s])] for s in domain]
    right = [_subset_ors(row, 0, or_) for row in products]
    left = [_subset_ors(column, 0, or_) for column in zip(*products)]
    positions = _subset_ors([(p,) for p in range(width)], (), add)
    full = sum(map(at.__getitem__, targets))
    for f in members:
        yield [_settle_masks(f, g, right, left, positions, value_of, full, width)
               for g in members]


def convolve(f: FuzzySet, g: FuzzySet) -> FuzzySet:
    """Sup-min convolution: (f*g)(s) = max over s=xy of min(f(x), g(y)).

    Elements with no factorization get 0.
    """
    sg = f.semigroup
    if g.semigroup is not sg and g.semigroup != sg:
        raise ValueError("cannot convolve fuzzy sets over different semigroups")
    return FuzzySet(sg, _sup_min(sg, None, f.values, g.values))


def convolve_rows(universe: Sequence[FuzzySet]) -> Iterator[list[tuple[Fraction, ...]]]:
    """``[convolve(f, g).values for g in universe]`` for each f of ``universe`` in turn.

    The values of the products of every ordered pair, bare value tuples
    with no FuzzySet around them, through one batched kernel pass (see
    ``_sup_min_rows``); each row is settled when it is taken.
    """
    if not universe:
        return
    sg = universe[0].semigroup
    if any(u.semigroup is not sg and u.semigroup != sg for u in universe):
        raise ValueError("cannot convolve fuzzy sets over different semigroups")
    yield from _sup_min_rows(sg, None, [u.values for u in universe])


@dataclass(frozen=True)
class RestrictedFuzzySet:
    """A fuzzy set on the divisor set of one base element.

    ``values`` aligns with the sorted divisor indices of ``base`` (the
    canonical domain order).  These are the component values of the
    subdirect decomposition and the canonical representatives of the
    divisor-agreement classes.
    """

    semigroup: Semigroup
    base: int
    values: tuple[Fraction, ...]

    def __post_init__(self):
        if not 0 <= self.base < self.semigroup.order:
            raise ValueError("base element index out of range")
        if len(self.values) != len(self.semigroup._divisor_domains[self.base]):
            raise ValueError("restricted fuzzy set must cover the divisor set exactly")

    @property
    def base_element(self) -> Element:
        return self.semigroup.elements[self.base]

    @property
    def domain(self) -> tuple[Element, ...]:
        elems = self.semigroup.elements
        return tuple(elems[i] for i in self.semigroup._divisor_domains[self.base])

    def __call__(self, ref: Element | str | int) -> Fraction:
        idx = self.semigroup.element(ref).index
        try:
            return self.values[self.semigroup._divisor_domains[self.base].index(idx)]
        except ValueError:
            raise ValueError(f"{self.semigroup.names[idx]!r} is not a divisor of "
                             f"{self.semigroup.names[self.base]!r}") from None

    def __mul__(self, other: RestrictedFuzzySet) -> RestrictedFuzzySet:
        return star_convolve(self, other)

    def as_dict(self) -> dict:
        values = {e.name: str(v) for e, v in zip(self.domain, self.values)}
        return {"base": self.semigroup.names[self.base], "values": values}

    def __str__(self) -> str:
        inner = ", ".join(f"{k}: {v}" for k, v in self.as_dict()["values"].items())
        return f"[base {self.semigroup.names[self.base]}] {{{inner}}}"


def restricted_fuzzy_set(semigroup: Semigroup, base: Element | str | int,
                         values: Mapping[object, object]) -> RestrictedFuzzySet:
    """Build a restricted fuzzy set; must cover the divisor set of base exactly."""
    b = semigroup.element(base).index
    return RestrictedFuzzySet(semigroup, b, _values_on(semigroup, b, values))


def star_convolve(f: RestrictedFuzzySet, g: RestrictedFuzzySet) -> RestrictedFuzzySet:
    """The convolution formula on a divisor set.

    For s in the domain, takes max over all factorizations s=xy in the
    whole semigroup; both factors are automatically divisors of the base,
    so the values are available.  No factorization means 0.
    """
    sg = f.semigroup
    if g.base != f.base or (g.semigroup is not sg and g.semigroup != sg):
        raise ValueError("cannot star-convolve fuzzy sets with different semigroups or bases")
    return RestrictedFuzzySet(sg, f.base, _sup_min(sg, f.base, f.values, g.values))


def star_convolve_rows(universe: Sequence[RestrictedFuzzySet]) -> Iterator[list[tuple[Fraction, ...]]]:
    """``[star_convolve(f, g).values for g in universe]`` for each f of ``universe`` in turn.

    The values of the products of every ordered pair, bare value tuples
    with no RestrictedFuzzySet around them, through one batched kernel
    pass (see ``_sup_min_rows``); each row is settled when it is taken.
    """
    if not universe:
        return
    sg, base = universe[0].semigroup, universe[0].base
    if any(u.base != base or (u.semigroup is not sg and u.semigroup != sg) for u in universe):
        raise ValueError("cannot star-convolve fuzzy sets with different semigroups or bases")
    yield from _sup_min_rows(sg, base, [u.values for u in universe])


def fuzzy_set_from_json(semigroup: Semigroup, obj: object) -> FuzzySet:
    """Parse {"name": "p/q", ...}; must cover the carrier exactly."""
    if not isinstance(obj, dict):
        raise ValueError("fuzzy set JSON must be an object mapping names to rational strings")
    return fuzzy_set(semigroup, obj)


def restricted_from_json(semigroup: Semigroup, obj: object) -> RestrictedFuzzySet:
    """Parse {"base": name, "values": {...}}; values must cover the divisor set."""
    if not isinstance(obj, dict):
        raise ValueError("restricted fuzzy set JSON must be an object")
    if not isinstance(obj.get("base"), str):
        raise ValueError('restricted fuzzy set JSON needs a "base" element name')
    if "values" not in obj or not isinstance(obj["values"], dict):
        raise ValueError('restricted fuzzy set JSON needs a "values" object')
    return restricted_fuzzy_set(semigroup, obj["base"], obj["values"])
