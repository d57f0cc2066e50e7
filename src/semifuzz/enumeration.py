"""Brute-force universes: value chains, fuzzy-set and semigroup streams,
catalog families, and closure of transformation sets.

Verification sweeps quantify over fuzzy sets valued in a finite chain
that contains 0 and 1.  Such a chain is closed under min and max, so
every identity checked on chain-valued sets is checked exactly.

Semigroup enumeration is over labeled tables with no isomorphism
reduction, by a backtracking search that drops a partial table at its
first fully determined non-associative triple; the labeled counts (1,
8, 113, 3492 for orders 1..4, OEIS A023814) double as a sharp oracle
for the stream itself.
"""

from __future__ import annotations

import hashlib
import random
import string
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterator, Sequence

from .fuzzy import FuzzySet, RestrictedFuzzySet, ZERO, ONE, parse_value
from .semigroups import Element, Semigroup

EXHAUSTIVE_ORDER_LIMIT = 3


@dataclass(frozen=True)
class Chain:
    """A strictly increasing tuple of rationals from 0 to 1."""

    values: tuple[Fraction, ...]

    def __post_init__(self):
        # parse_value rejects floats and bools and returns a Fraction as is
        values = tuple(map(parse_value, self.values))
        if not values:
            raise ValueError("a chain needs at least the endpoints")
        if values[0] != ZERO or values[-1] != ONE:
            raise ValueError("a chain must start at 0 and end at 1")
        if any(a >= b for a, b in zip(values, values[1:])):
            raise ValueError("chain values must be strictly increasing")
        # the kernel's own 0 and 1 objects, so that its results keep the
        # identity of chain values (see verification._Positions)
        object.__setattr__(self, "values", (ZERO, *values[1:-1], ONE))

    def __iter__(self):
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __contains__(self, value) -> bool:
        return value in self.values

    def __str__(self) -> str:
        return "{" + ", ".join(str(v) for v in self.values) + "}"


def make_chain(k: int) -> Chain:
    """The uniform chain {0, 1/k, 2/k, ..., 1}."""
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise ValueError(f"chain resolution must be a positive integer, got {k!r}")
    return Chain(tuple(Fraction(i, k) for i in range(k + 1)))


def chain_of(values: Sequence[object]) -> Chain:
    """A chain from explicit values, which are parsed and sorted."""
    return Chain(tuple(sorted({parse_value(v) for v in values})))


def enumerate_fuzzy_sets(semigroup: Semigroup, chain: Chain) -> Iterator[FuzzySet]:
    """All chain-valued fuzzy sets, each exactly once, in lexicographic order."""
    for values in product(chain.values, repeat=semigroup.order):
        yield FuzzySet(semigroup, values)


def enumerate_restricted_sets(semigroup: Semigroup, base: Element | str | int,
                              chain: Chain) -> Iterator[RestrictedFuzzySet]:
    """All chain-valued fuzzy sets on the divisor set of the base element."""
    b = semigroup.element(base).index
    width = len(semigroup._divisor_domains[b])
    for values in product(chain.values, repeat=width):
        yield RestrictedFuzzySet(semigroup, b, values)


def _carrier_names(n: int) -> tuple[str, ...]:
    if n > len(string.ascii_lowercase):
        raise ValueError(f"letter naming supports at most 26 elements, got {n}")
    return tuple(string.ascii_lowercase[:n])


def enumerate_semigroups(n: int) -> Iterator[Semigroup]:
    """Every associative table on n labeled elements, each exactly once.

    Tables come in lexicographic order of their row-major cells, the
    order of a full scan of all n**(n*n) candidates, but are found by a
    backtracking search: cells are filled row by row with values in
    ascending order, and a partial table is dropped as soon as one fully
    determined triple has (x*y)*z != x*(y*z).  The labeled counts are
    1, 8, 113, 3492 for orders 1..4 (OEIS A023814).  They grow super-
    exponentially, so orders above 3 are allowed but warned about.
    """
    if n < 1:
        raise ValueError("order must be a positive integer")
    if n > EXHAUSTIVE_ORDER_LIMIT:
        warnings.warn(
            f"enumerating every associative table of order {n}; the count grows "
            f"super-exponentially and this is meant for order <= 3",
            stacklevel=2,
        )
    names = _carrier_names(n)
    size = n * n
    cells = [-1] * size  # row-major; the cells past p are unassigned
    p = 0
    while p >= 0:
        cells[p] += 1
        if cells[p] == n:
            cells[p] = -1
            p -= 1
        elif _consistent(cells, n, p):
            if p < size - 1:
                p += 1
            else:
                yield Semigroup(names, tuple(tuple(cells[i:i + n]) for i in range(0, size, n)))


def _consistent(cells: list[int], n: int, p: int) -> bool:
    """No triple whose four cells are among cells[0..p] breaks associativity.

    Cells 0..p-1 passed this test when they were filled, so only the
    triples that read cell p, in one of its four roles, are checked.  A
    triple (a, b, c) reads the cells a*b, (a*b)*c, b*c and a*(b*c); it
    is checked only once all four are filled, that is, have index <= p.
    """
    x, y = divmod(p, n)
    v = cells[p]
    # cell p is x*y: (x*y)*c against x*(y*c)
    for q in range(y * n, min(y * n + n, p + 1)):
        left, right = v * n + q - y * n, x * n + cells[q]
        if left <= p and right <= p and cells[left] != cells[right]:
            return False
    # cell p is x*y as the inner product of a*(x*y): against (a*x)*y
    for q in range(x, p + 1, n):
        left, right = cells[q] * n + y, q - x + v
        if left <= p and right <= p and cells[left] != cells[right]:
            return False
    for q in range(p + 1):
        u, w = divmod(q, n)
        # cell p is (u*w)*y with u*w == x: against u*(w*y)
        if cells[q] == x:
            wy = w * n + y
            if wy <= p and u * n + cells[wy] <= p and cells[u * n + cells[wy]] != v:
                return False
        # cell p is x*(u*w) with u*w == y: against (x*u)*w
        if cells[q] == y:
            xu = x * n + u
            if xu <= p and cells[xu] * n + w <= p and cells[cells[xu] * n + w] != v:
                return False
    return True


def catalog(name: str, *params: int) -> Semigroup:
    """Named families with canonical element naming.

    left_zero(n), right_zero(n), null(n), cyclic_group(n),
    monogenic(index, period), full_transformation(n), n <= 3.
    """
    makers = {
        "left_zero": (_left_zero, 1),
        "right_zero": (_right_zero, 1),
        "null": (_null, 1),
        "cyclic_group": (_cyclic_group, 1),
        "monogenic": (_monogenic, 2),
        "full_transformation": (_full_transformation, 1),
    }
    if name not in makers:
        raise ValueError(f"unknown catalog family {name!r}; know: {', '.join(sorted(makers))}")
    maker, arity = makers[name]
    if len(params) != arity:
        raise ValueError(f"{name} takes {arity} parameter(s), got {len(params)}")
    if any(not isinstance(p, int) or isinstance(p, bool) or p < 1 for p in params):
        raise ValueError(f"{name} parameters must be positive integers")
    return maker(*params)


def _left_zero(n: int) -> Semigroup:
    names = _carrier_names(n)
    return Semigroup(names, tuple((i,) * n for i in range(n)))


def _right_zero(n: int) -> Semigroup:
    names = _carrier_names(n)
    row = tuple(range(n))
    return Semigroup(names, (row,) * n)


def _null(n: int) -> Semigroup:
    # one zero plus elements whose every product is that zero
    names = ("0",) + _carrier_names(n - 1) if n > 1 else ("0",)
    return Semigroup(names, ((0,) * n,) * n)


def _cyclic_group(n: int) -> Semigroup:
    names = ("e",) + tuple("g" if i == 1 else f"g{i}" for i in range(1, n))
    return Semigroup(names, tuple(tuple((i + j) % n for j in range(n)) for i in range(n)))


def _monogenic(index: int, period: int) -> Semigroup:
    # powers c, c2, ..., c^(index+period-1) with c^(index+period) = c^index
    order = index + period - 1
    names = tuple("c" if e == 1 else f"c{e}" for e in range(1, order + 1))

    def reduce(e: int) -> int:
        while e > order:
            e -= period
        return e

    table = tuple(
        tuple(reduce(i + j) - 1 for j in range(1, order + 1)) for i in range(1, order + 1)
    )
    return Semigroup(names, table)


def _map_name(images: tuple[int, ...]) -> str:
    # 1-based image word: t21 maps point 1 to 2 and point 2 to 1
    if len(images) < 10:
        return "t" + "".join(str(i + 1) for i in images)
    return "t" + "-".join(str(i + 1) for i in images)


def _full_transformation(n: int) -> Semigroup:
    if n > 3:
        raise ValueError("full transformation semigroups are supported up to degree 3")
    maps = sorted(product(range(n), repeat=n))
    return _semigroup_of_maps(maps)


def _semigroup_of_maps(maps: Sequence[tuple[int, ...]]) -> Semigroup:
    index = {m: i for i, m in enumerate(maps)}
    names = tuple(_map_name(m) for m in maps)
    table = tuple(
        tuple(index[_compose(f, g)] for g in maps) for f in maps
    )
    return Semigroup(names, table)


def _compose(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    # product f*g acts by f first, then g
    return tuple(g[f[x]] for x in range(len(f)))


def transformation_closure(generators: Sequence[Sequence[int]]) -> Semigroup:
    """Close self-maps of {0..n-1} under composition and build the table.

    The product applies the left factor first.  Elements are ordered by
    image word, so the result does not depend on generator order.
    """
    if not generators:
        raise ValueError("need at least one generator map")
    for gen in generators:
        if not isinstance(gen, Sequence) or any(isinstance(v, bool) or not isinstance(v, int) for v in gen):
            raise ValueError(f"generator {gen!r} is not a sequence of integer images")
    degree = len(generators[0])
    maps: set[tuple[int, ...]] = set()
    for gen in generators:
        m = tuple(gen)
        if len(m) != degree:
            raise ValueError("all generators must act on the same set")
        if any(not 0 <= v < degree for v in m):
            raise ValueError(f"map {m} is not a self-map of a {degree}-point set")
        maps.add(m)
    frontier = list(maps)
    while frontier:
        fresh = []
        for f in frontier:
            for g in sorted(maps):
                for h in (_compose(f, g), _compose(g, f)):
                    if h not in maps:
                        maps.add(h)
                        fresh.append(h)
        frontier = fresh
    return _semigroup_of_maps(sorted(maps))


def _rng_for(semigroup: Semigroup, chain: Chain, seed: int) -> random.Random:
    # platform-stable seeding: hash the full instance description
    blob = repr((semigroup.names, semigroup.table, chain.values, seed)).encode()
    return random.Random(int.from_bytes(hashlib.sha256(blob).digest()[:8], "big"))


# seeded draws; the verifier's sampled strategies call these with one shared rng

def _draws(rng: random.Random, vals: tuple, width: int) -> tuple:
    # vals[rng.randrange(len(vals))], width times: the same rejection
    # sampling on getrandbits, so the same picks from the same bits,
    # without randrange's argument handling on every draw
    n = len(vals)
    if not n and width:
        raise ValueError("no values to draw from")
    bits, getrandbits = n.bit_length(), rng.getrandbits
    picks = []
    for _ in range(width):
        r = getrandbits(bits)
        while r >= n:
            r = getrandbits(bits)
        picks.append(vals[r])
    return tuple(picks)


def _rand_fuzzy(rng: random.Random, sg: Semigroup, chain: Chain) -> FuzzySet:
    return FuzzySet(sg, _draws(rng, chain.values, sg.order))


def _rand_restricted(rng: random.Random, sg: Semigroup, base: int, chain: Chain) -> RestrictedFuzzySet:
    return RestrictedFuzzySet(sg, base, _draws(rng, chain.values, len(sg._divisor_domains[base])))


def _rand_related(rng: random.Random, sg: Semigroup, base: int, f: FuzzySet, chain: Chain) -> FuzzySet:
    # f's values on the divisor set of base, fresh draws elsewhere: related to f by construction
    divisors = sg._divisor_sets[base]
    fresh = iter(_draws(rng, chain.values, sg.order - len(divisors)))
    return FuzzySet(sg, tuple(v if i in divisors else next(fresh) for i, v in enumerate(f.values)))


def _check_seed(seed: int) -> None:
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ValueError(f"seed must be an integer, got {seed!r}")


def random_fuzzy_set(semigroup: Semigroup, chain: Chain, seed: int) -> FuzzySet:
    """A chain-valued fuzzy set determined by (semigroup, chain, seed)."""
    _check_seed(seed)
    return _rand_fuzzy(_rng_for(semigroup, chain, seed), semigroup, chain)


def random_restricted_set(semigroup: Semigroup, base: Element | str | int,
                          chain: Chain, seed: int) -> RestrictedFuzzySet:
    """A chain-valued restricted fuzzy set determined by its arguments."""
    _check_seed(seed)
    b = semigroup.element(base).index
    return _rand_restricted(_rng_for(semigroup, chain, seed + 0x5EED * (b + 1)), semigroup, b, chain)
