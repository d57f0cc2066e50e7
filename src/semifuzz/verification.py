"""Machine verification of the library's structural identities.

:func:`verify_theorem` runs one named check over one semigroup, either
exhaustively over all chain-valued fuzzy sets or on a seeded random
sample, and folds the outcome into a :class:`VerificationReport`.

The verifier does not get to indict itself: before a failing case is
reported, :func:`recheck_counterexample` re-derives the violated
statement from the raw payload with naive, separately written code
(materialized identity adjunction, direct double loops, bitmask ideal
enumeration).  A counterexample that does not survive that recheck is a
verifier inconsistency and raises RuntimeError instead of being reported.

Exhaustive checks quantify over fuzzy sets valued in the strategy's
chain; the chain contains 0 and 1 and is closed under min and max, so
all equalities are exact within the enumerated universe.  That closure
also means every product of two members of a universe is again a
member.  So the star-associativity, delta-congruence and quotient-iso
sweeps first compute an integer product table: the real kernel runs
once per ordered pair, and each result is mapped back to its position
in the universe.  That lookup goes by the identities of the result's
value objects, which the kernel takes from its operands (or is its own
0, every chain's 0); the universe stays alive for the whole sweep, so
no id is reused.  A result with equal values held by other objects
falls back to an exact lookup by value, and a result outside the
universe is a verifier inconsistency and raises RuntimeError.
Agreement at a base is tabulated the same way, one
``agrees_on_divisors`` call per pair, and is used as a matrix rather
than as classes, so transitivity is never assumed.  Each case
then costs integer lookups, yet tests the same statement: two members
are equal exactly when their positions are.  Cases are counted and
reported in the order of the case-by-case loops, with the same
payloads.  A universe of more than EXHAUSTIVE_UNIVERSE_LIMIT sets is
refused with ValueError before anything is built.  Checks whose
statement quantifies over carrier elements only (the embedding, the
divisor/Rees restriction, the kernel and core criteria) ignore the
sample budget and always sweep all elements, which is both cheaper and
stronger than sampling.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product, repeat
from operator import add

from .decomposition import agrees_on_divisors, extend_by_zero, restrict, subdirect_embed
from .enumeration import (
    Chain,
    enumerate_fuzzy_sets,
    enumerate_restricted_sets,
)
from .fuzzy import (
    FuzzySet,
    ONE,
    RestrictedFuzzySet,
    ZERO,
    convolve,
    embed_element,
    star_convolve,
)
from .semigroups import Semigroup, semigroup_to_json

THEOREMS = (
    "star-assoc",
    "delta-congruence",
    "quotient-iso",
    "subdirect",
    "phi-embedding",
    "restriction-rees",
    "kernel-criterion",
    "core-criterion",
    "distributivity",
)

# bitmask ideal enumeration is 2**n; past this the cross-validations are skipped
CROSS_VALIDATION_LIMIT = 12

# an exhaustive sweep holds its universe and an M x M product table of it;
# 4096 sets make a 16.7M-entry table
EXHAUSTIVE_UNIVERSE_LIMIT = 4096


@dataclass(frozen=True)
class Exhaustive:
    """Quantify over every chain-valued case."""

    chain: Chain

    def __post_init__(self):
        if not isinstance(self.chain, Chain):
            raise TypeError(f"not a chain: {self.chain!r}")


@dataclass(frozen=True)
class Sampled:
    """Check ``count`` seeded random cases; the seed lands in the report."""

    chain: Chain
    count: int
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.chain, Chain):
            raise TypeError(f"not a chain: {self.chain!r}")
        if self.count < 1:
            raise ValueError("sample count must be a positive integer")


@dataclass(frozen=True)
class VerificationReport:
    theorem: str
    instance: dict
    strategy: str
    seed: int | None
    verdict: str
    cases_checked: int
    counterexample: dict | None

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem,
            "instance": self.instance,
            "strategy": self.strategy,
            "seed": self.seed,
            "verdict": self.verdict,
            "cases_checked": self.cases_checked,
            "counterexample": self.counterexample,
        }

    def summary(self) -> str:
        tail = f"{self.cases_checked} cases"
        if self.seed is not None:
            tail += f", seed {self.seed}"
        return f"{self.theorem}: {self.verdict.upper()} ({tail})"


def verify_theorem(semigroup: Semigroup, theorem: str,
                   strategy: Exhaustive | Sampled) -> VerificationReport:
    """Run one named check on one semigroup and report the outcome."""
    if theorem not in _CHECKERS:
        raise ValueError(f"unknown theorem {theorem!r}; know: {', '.join(THEOREMS)}")
    if isinstance(strategy, Exhaustive):
        rng, count, name, seed = None, None, "exhaustive", None
    elif isinstance(strategy, Sampled):
        rng, count, name, seed = random.Random(strategy.seed), strategy.count, "sampled", strategy.seed
    else:
        raise TypeError(f"not a strategy: {strategy!r}")
    checked, payload = _CHECKERS[theorem](semigroup, strategy.chain, rng, count)
    if payload is not None and not recheck_counterexample(semigroup, theorem, payload):
        raise RuntimeError(
            f"verifier inconsistency: a {theorem} counterexample failed its independent recheck: {payload!r}"
        )
    return VerificationReport(
        theorem=theorem,
        instance={
            "semigroup": semigroup_to_json(semigroup),
            "order": semigroup.order,
            "chain": [str(v) for v in strategy.chain.values],
        },
        strategy=name,
        seed=seed,
        verdict="pass" if payload is None else "fail",
        cases_checked=checked,
        counterexample=payload,
    )


# ----------------------------------------------------------------------
# random case generators (sampled strategies share one rng)

def _rand_fuzzy(rng: random.Random, sg: Semigroup, chain: Chain) -> FuzzySet:
    vals = chain.values
    return FuzzySet(sg, tuple(vals[rng.randrange(len(vals))] for _ in range(sg.order)))


def _rand_restricted(rng: random.Random, sg: Semigroup, base: int, chain: Chain) -> RestrictedFuzzySet:
    vals = chain.values
    width = len(sg._divisor_domains[base])
    return RestrictedFuzzySet(sg, base, tuple(vals[rng.randrange(len(vals))] for _ in range(width)))


def _redraw_outside_divisors(rng: random.Random, sg: Semigroup, base: int,
                             f: FuzzySet, chain: Chain) -> FuzzySet:
    # same values on the divisor set, fresh draws elsewhere: related by construction
    vals = chain.values
    divisors = sg._divisor_sets[base]
    return FuzzySet(sg, tuple(
        v if i in divisors else vals[rng.randrange(len(vals))]
        for i, v in enumerate(f.values)
    ))


# ----------------------------------------------------------------------
# exhaustive universes and their integer product tables

def _require_small_universe(chain: Chain, width: int) -> None:
    size = len(chain) ** width
    if size > EXHAUSTIVE_UNIVERSE_LIMIT:
        raise ValueError(
            f"an exhaustive sweep here enumerates {len(chain)}**{width} = {size} fuzzy sets, "
            f"more than the limit of {EXHAUSTIVE_UNIVERSE_LIMIT}; use a sampled strategy "
            f"or a shorter chain"
        )


class _Positions:
    """Positions of the members of an enumerated universe.

    A member is found by the identities of its value objects: the
    universe stays alive as long as this index, so none of those ids
    can be reused, and a tuple of ids matches only a member that holds
    those very objects.  Kernel results reuse their operands' value
    objects (or the kernel's 0, which is every chain's 0), so they hit
    that lookup.  Equal values held by other objects miss it and fall
    back to an exact lookup keyed by the values themselves; a fuzzy set
    that misses both lies outside the universe, which is a verifier
    inconsistency and raises RuntimeError.
    """

    def __init__(self, universe):
        self.universe = universe
        self.by_ids = {tuple(map(id, u.values)): i for i, u in enumerate(universe)}
        self.by_values = None

    def locate(self, fuzzy) -> int:
        i = self.by_ids.get(tuple(map(id, fuzzy.values)))
        if i is None:
            if self.by_values is None:
                self.by_values = {u.values: k for k, u in enumerate(self.universe)}
            i = self.by_values.get(fuzzy.values)
            if i is None:
                raise RuntimeError(
                    f"verifier inconsistency: {fuzzy} lies outside the enumerated universe")
        return i


def _product_table(universe, op) -> list[list[int]]:
    """``table[i][j]`` is the position in ``universe`` of ``op(universe[i], universe[j])``.

    The universe is closed under the product (a chain holding 0 is
    closed under min and max), so every result must be found; one that
    is not is a verifier inconsistency and raises RuntimeError.
    """
    locate = _Positions(universe).locate
    return [[locate(op(u, v)) for v in universe] for u in universe]


def _agreement_matrix(a, universe) -> list[list[bool]]:
    return [[agrees_on_divisors(a, f, g) for g in universe] for f in universe]


def _first_mismatch(lhs: list, rhs: list) -> int | None:
    if lhs == rhs:
        return None
    return next(k for k, (x, y) in enumerate(zip(lhs, rhs)) if x != y)


# ----------------------------------------------------------------------
# the checks; each returns (cases_checked, counterexample payload or None)

def _check_star_assoc(sg, chain, rng, count):
    checked = 0
    if rng is None:
        _require_small_universe(chain, max(map(len, sg._divisor_domains)))
        for a in sg.elements:
            sets = list(enumerate_restricted_sets(sg, a, chain))
            table = _product_table(sets, star_convolve)
            for i, row_i in enumerate(table):
                for j, ij in enumerate(row_i):
                    # (fg)h against f(gh) for every h at once
                    lhs = table[ij]
                    rhs = list(map(row_i.__getitem__, table[j]))
                    k = _first_mismatch(lhs, rhs)
                    if k is not None:
                        return checked + k + 1, _star_assoc_payload(
                            sets[i], sets[j], sets[k], sets[lhs[k]], sets[rhs[k]])
                    checked += len(sets)
    else:
        for _ in range(count):
            base = rng.randrange(sg.order)
            f = _rand_restricted(rng, sg, base, chain)
            g = _rand_restricted(rng, sg, base, chain)
            h = _rand_restricted(rng, sg, base, chain)
            checked += 1
            lhs = star_convolve(star_convolve(f, g), h)
            rhs = star_convolve(f, star_convolve(g, h))
            if lhs != rhs:
                return checked, _star_assoc_payload(f, g, h, lhs, rhs)
    return checked, None


def _star_assoc_payload(f, g, h, lhs, rhs):
    return {
        "base": f.base_element.name,
        "f": f.as_dict(),
        "g": g.as_dict(),
        "h": h.as_dict(),
        "lhs": lhs.as_dict(),
        "rhs": rhs.as_dict(),
    }


def _check_delta_congruence(sg, chain, rng, count):
    checked = 0
    if rng is None:
        _require_small_universe(chain, sg.order)
        fuzz = list(enumerate_fuzzy_sets(sg, chain))
        size = len(fuzz)
        table = _product_table(fuzz, convolve)
        scaled = [[size * p for p in row] for row in table]
        for a in sg.elements:
            agree = _agreement_matrix(a, fuzz)
            agree_flat = [ok for row in agree for ok in row]
            related = [(i, j) for i, row in enumerate(agree) for j, ok in enumerate(row) if ok]
            lefts = [i for i, _ in related]
            rights = [j for _, j in related]
            for f1, g1 in related:
                # (f1 f2, g1 g2) for every related (f2, g2), as flat matrix positions
                cells = map(add, map(scaled[f1].__getitem__, lefts),
                            map(table[g1].__getitem__, rights))
                holds = list(map(agree_flat.__getitem__, cells))
                if not all(holds):
                    c = holds.index(False)
                    f2, g2 = related[c]
                    return checked + c + 1, _delta_payload(a, fuzz[f1], fuzz[g1], fuzz[f2], fuzz[g2])
                checked += len(related)
    else:
        for _ in range(count):
            base = rng.randrange(sg.order)
            a = sg.elements[base]
            f1 = _rand_fuzzy(rng, sg, chain)
            f2 = _rand_fuzzy(rng, sg, chain)
            g1 = _redraw_outside_divisors(rng, sg, base, f1, chain)
            g2 = _redraw_outside_divisors(rng, sg, base, f2, chain)
            checked += 1
            if not agrees_on_divisors(a, convolve(f1, f2), convolve(g1, g2)):
                return checked, _delta_payload(a, f1, g1, f2, g2)
    return checked, None


def _delta_payload(a, f1, g1, f2, g2):
    return {
        "base": a.name,
        "f1": f1.as_dict(),
        "g1": g1.as_dict(),
        "f2": f2.as_dict(),
        "g2": g2.as_dict(),
    }


def _check_quotient_iso(sg, chain, rng, count):
    checked = 0
    if rng is None:
        _require_small_universe(chain, sg.order)
        fuzz = list(enumerate_fuzzy_sets(sg, chain))
        size = len(fuzz)
        table = _product_table(fuzz, convolve)
        for a in sg.elements:
            agree = _agreement_matrix(a, fuzz)
            targets = list(enumerate_restricted_sets(sg, a, chain))
            locate = _Positions(targets).locate
            restricted = [locate(restrict(a, f)) for f in fuzz]
            for i, ri in enumerate(restricted):
                k = _first_mismatch(agree[i], list(map(ri.__eq__, restricted)))
                if k is not None:
                    return checked + k + 1, {
                        "property": "class-separation",
                        "base": a.name,
                        "f": fuzz[i].as_dict(),
                        "g": fuzz[k].as_dict(),
                    }
                checked += size
            reached = set(restricted)
            for t, target in enumerate(targets):
                checked += 1
                if t not in reached:
                    return checked, {
                        "property": "surjectivity",
                        "base": a.name,
                        "target": target.as_dict(),
                    }
            star = _product_table(targets, star_convolve)
            for i, ri in enumerate(restricted):
                # restrict(fg) against restrict(f) * restrict(g) for every g at once
                lhs = list(map(restricted.__getitem__, table[i]))
                rhs = list(map(star[ri].__getitem__, restricted))
                k = _first_mismatch(lhs, rhs)
                if k is not None:
                    return checked + k + 1, _hom_payload(
                        a, fuzz[i], fuzz[k], targets[lhs[k]], targets[rhs[k]])
                checked += size
    else:
        for _ in range(count):
            base = rng.randrange(sg.order)
            a = sg.elements[base]
            f = _rand_fuzzy(rng, sg, chain)
            g = _rand_fuzzy(rng, sg, chain)
            checked += 1
            if agrees_on_divisors(a, f, g) != (restrict(a, f) == restrict(a, g)):
                return checked, {
                    "property": "class-separation",
                    "base": a.name,
                    "f": f.as_dict(),
                    "g": g.as_dict(),
                }
            target = _rand_restricted(rng, sg, base, chain)
            checked += 1
            if restrict(a, extend_by_zero(target)) != target:
                return checked, {
                    "property": "surjectivity",
                    "base": a.name,
                    "target": target.as_dict(),
                }
            checked += 1
            lhs = restrict(a, convolve(f, g))
            rhs = star_convolve(restrict(a, f), restrict(a, g))
            if lhs != rhs:
                return checked, _hom_payload(a, f, g, lhs, rhs)
    return checked, None


def _hom_payload(a, f, g, lhs, rhs):
    return {
        "property": "homomorphism",
        "base": a.name,
        "f": f.as_dict(),
        "g": g.as_dict(),
        "lhs": lhs.as_dict(),
        "rhs": rhs.as_dict(),
    }


def _check_subdirect(sg, chain, rng, count):
    checked = 0
    if rng is None:
        _require_small_universe(chain, sg.order)
        fuzz = list(enumerate_fuzzy_sets(sg, chain))
        embeddings = [subdirect_embed(f) for f in fuzz]
        for i in range(len(fuzz)):
            for j in range(i + 1, len(fuzz)):
                checked += 1
                if embeddings[i] == embeddings[j]:
                    return checked, {
                        "property": "separation",
                        "f": fuzz[i].as_dict(),
                        "g": fuzz[j].as_dict(),
                    }
        for a in sg.elements:
            for target in enumerate_restricted_sets(sg, a, chain):
                checked += 1
                if restrict(a, extend_by_zero(target)) != target:
                    return checked, {
                        "property": "surjectivity",
                        "base": a.name,
                        "target": target.as_dict(),
                    }
    else:
        for _ in range(count):
            f = _rand_fuzzy(rng, sg, chain)
            g = _rand_fuzzy(rng, sg, chain)
            checked += 1
            if f != g and subdirect_embed(f) == subdirect_embed(g):
                return checked, {
                    "property": "separation",
                    "f": f.as_dict(),
                    "g": g.as_dict(),
                }
            base = rng.randrange(sg.order)
            target = _rand_restricted(rng, sg, base, chain)
            checked += 1
            if restrict(sg.elements[base], extend_by_zero(target)) != target:
                return checked, {
                    "property": "surjectivity",
                    "base": sg.names[base],
                    "target": target.as_dict(),
                }
    return checked, None


def _check_phi_embedding(sg, chain, rng, count):
    # element-quantified: the sample budget is ignored, see module docstring
    del rng, count
    checked = 0
    embeddings = [embed_element(sg, e) for e in sg.elements]
    for s in sg.elements:
        for t in sg.elements:
            checked += 1
            lhs = convolve(embeddings[s.index], embeddings[t.index])
            rhs = embeddings[sg.table[s.index][t.index]]
            if lhs != rhs:
                return checked, {
                    "property": "homomorphism",
                    "s": s.name,
                    "t": t.name,
                    "lhs": lhs.as_dict(),
                    "rhs": rhs.as_dict(),
                }
    for s in sg.elements:
        for t in sg.elements[s.index + 1:]:
            checked += 1
            if embeddings[s.index] == embeddings[t.index]:
                return checked, {"property": "injectivity", "s": s.name, "t": t.name}
    return checked, None


def _check_restriction_rees(sg, chain, rng, count):
    del rng, count
    checked = 0
    embeddings = [embed_element(sg, e) for e in sg.elements]
    carrier = range(sg.order)
    for a in sg.elements:
        divisors, rest = sg.divisor_partition(a)
        rees = sg.rees_congruence(rest)
        for s, e_s in enumerate(embeddings):
            # the row of cases (a, s, t) for every t at once
            related = [agrees_on_divisors(a, e_s, e_t) for e_t in embeddings]
            collapsed = list(map(rees.pairs.__contains__, zip(repeat(s), carrier)))
            t = _first_mismatch(related, collapsed)
            if t is not None:
                return checked + t + 1, {
                    "base": a.name,
                    "s": sg.names[s],
                    "t": sg.names[t],
                    "agree_on_divisors": related[t],
                    "rees_related": collapsed[t],
                }
            checked += sg.order
    return checked, None


def _check_kernel_criterion(sg, chain, rng, count):
    del rng, count
    checked = 0
    kernel = sg.kernel()
    if sg.order <= CROSS_VALIDATION_LIMIT:
        checked += 1
        expected = _least_of(_ideals_by_bitmask(sg))
        if kernel.indices != expected:
            return checked, {
                "property": "cross-validation",
                "kernel": sorted(kernel.names()),
                "least_ideal": sorted(sg.names[i] for i in expected or ()),
            }
    for a in sg.elements:
        checked += 1
        divisors, _ = sg.divisor_partition(a)
        if (len(divisors) == sg.order) != (a in kernel):
            return checked, {
                "element": a.name,
                "divisor_count": len(divisors),
                "in_kernel": a in kernel,
            }
    return checked, None


def _check_core_criterion(sg, chain, rng, count):
    del rng, count
    checked = 0
    core = sg.core()
    if sg.order == 1:
        # no non-trivial ideal can exist on one element
        checked += 1
        if core is not None:
            return checked, {"property": "singleton-core", "core": sorted(core.names())}
        return checked, None
    zero = sg.zero_element()
    if zero is not None:
        checked += 1
        _, rest = sg.divisor_partition(zero)
        if len(rest) != 0:
            return checked, {"property": "zero-element", "nondivisors": sorted(rest.names())}
    if sg.order <= CROSS_VALIDATION_LIMIT:
        checked += 1
        ideals = [a for a in _ideals_by_bitmask(sg) if len(a) >= 2]
        expected = _least_of(ideals)
        got = None if core is None else core.indices
        if got != expected:
            return checked, {
                "property": "cross-validation",
                "core": None if core is None else sorted(core.names()),
                "least_nontrivial_ideal":
                    None if expected is None else sorted(sg.names[i] for i in expected),
            }
    for a in sg.elements:
        if zero is not None and a == zero:
            continue
        checked += 1
        _, rest = sg.divisor_partition(a)
        in_core = core is not None and a in core
        if (len(rest) <= 1) != in_core:
            return checked, {
                "element": a.name,
                "nondivisor_count": len(rest),
                "in_core": in_core,
            }
    return checked, None


def _check_distributivity(sg, chain, rng, count):
    checked = 0
    if rng is None:
        for width in (1, 2, 3):
            for values in product(chain.values, repeat=width):
                for b in chain.values:
                    checked += 1
                    bad = _distributivity_violation(values, b)
                    if bad is not None:
                        return checked, bad
    else:
        vals = chain.values
        for _ in range(count):
            width = rng.randrange(1, 5)
            values = tuple(vals[rng.randrange(len(vals))] for _ in range(width))
            b = vals[rng.randrange(len(vals))]
            checked += 1
            bad = _distributivity_violation(values, b)
            if bad is not None:
                return checked, bad
    return checked, None


def _distributivity_violation(values, b):
    if min(max(values), b) != max(min(v, b) for v in values):
        law = "meet-over-join"
    elif max(min(values), b) != min(max(v, b) for v in values):
        law = "join-over-meet"
    else:
        return None
    return {"law": law, "values": [str(v) for v in values], "b": str(b)}


_CHECKERS = {
    "star-assoc": _check_star_assoc,
    "delta-congruence": _check_delta_congruence,
    "quotient-iso": _check_quotient_iso,
    "subdirect": _check_subdirect,
    "phi-embedding": _check_phi_embedding,
    "restriction-rees": _check_restriction_rees,
    "kernel-criterion": _check_kernel_criterion,
    "core-criterion": _check_core_criterion,
    "distributivity": _check_distributivity,
}


# ----------------------------------------------------------------------
# ideal enumeration used by the kernel/core cross-validations

def _ideals_by_bitmask(sg: Semigroup) -> list[frozenset[int]]:
    n = sg.order
    table = sg.table
    found = []
    for mask in range(1, 1 << n):
        members = frozenset(i for i in range(n) if mask >> i & 1)
        if all(table[s][x] in members and table[x][s] in members
               for s in members for x in range(n)):
            found.append(members)
    return found


def _least_of(ideals: list[frozenset[int]]) -> frozenset[int] | None:
    for candidate in ideals:
        if all(candidate <= other for other in ideals):
            return candidate
    return None


# ----------------------------------------------------------------------
# independent recheck of counterexample payloads
#
# everything below recomputes from first principles: the adjoined
# identity is materialized, products are scanned with plain loops, and
# none of the library operations above are reused.

def _adjoined_table(sg: Semigroup) -> list[list[int]]:
    n = sg.order
    rows = [list(sg.table[x]) + [x] for x in range(n)]
    rows.append(list(range(n + 1)))
    return rows


def _naive_divisor_set(sg: Semigroup, a: int) -> set[int]:
    n = sg.order
    t1 = _adjoined_table(sg)
    out = set()
    for s in range(n):
        products = {t1[t1[x][s]][y] for x in range(n + 1) for y in range(n + 1)}
        if a in products:
            out.add(s)
    return out


def _naive_square_set(sg: Semigroup) -> set[int]:
    return {sg.table[x][y] for x in range(sg.order) for y in range(sg.order)}


def _naive_convolve_map(sg: Semigroup, f: dict[int, Fraction],
                        g: dict[int, Fraction]) -> dict[int, Fraction]:
    n = sg.order
    squares = _naive_square_set(sg)
    out = {}
    for s in range(n):
        if s in squares:
            out[s] = max(min(f[x], g[y])
                         for x in range(n) for y in range(n) if sg.table[x][y] == s)
        else:
            out[s] = ZERO
    return out


def _naive_star_map(sg: Semigroup, domain: set[int], f: dict[int, Fraction],
                    g: dict[int, Fraction]) -> dict[int, Fraction]:
    squares = _naive_square_set(sg)
    out = {}
    for s in sorted(domain):
        best = ZERO
        if s in squares:
            n = sg.order
            best = max(min(f[x], g[y])
                       for x in range(n) for y in range(n) if sg.table[x][y] == s)
        out[s] = best
    return out


def _values_by_index(sg: Semigroup, named: dict[str, str]) -> dict[int, Fraction]:
    return {sg.names.index(name): Fraction(text) for name, text in named.items()}


def _restricted_payload_values(sg: Semigroup, payload: dict) -> tuple[int, dict[int, Fraction]]:
    base = sg.names.index(payload["base"])
    return base, _values_by_index(sg, payload["values"])


def recheck_counterexample(sg: Semigroup, theorem: str, payload: dict) -> bool:
    """True iff the payload genuinely violates the named statement.

    Evaluated naively and independently of the main verification path,
    so a bug there cannot confirm its own counterexamples.
    """
    if theorem == "star-assoc":
        base, f = _restricted_payload_values(sg, payload["f"])
        _, g = _restricted_payload_values(sg, payload["g"])
        _, h = _restricted_payload_values(sg, payload["h"])
        domain = _naive_divisor_set(sg, base)
        lhs = _naive_star_map(sg, domain, _naive_star_map(sg, domain, f, g), h)
        rhs = _naive_star_map(sg, domain, f, _naive_star_map(sg, domain, g, h))
        return lhs != rhs
    if theorem == "delta-congruence":
        base = sg.names.index(payload["base"])
        domain = _naive_divisor_set(sg, base)
        f1 = _values_by_index(sg, payload["f1"])
        g1 = _values_by_index(sg, payload["g1"])
        f2 = _values_by_index(sg, payload["f2"])
        g2 = _values_by_index(sg, payload["g2"])
        if any(f1[s] != g1[s] or f2[s] != g2[s] for s in domain):
            return False  # hypotheses do not even hold
        lhs = _naive_convolve_map(sg, f1, f2)
        rhs = _naive_convolve_map(sg, g1, g2)
        return any(lhs[s] != rhs[s] for s in domain)
    if theorem == "quotient-iso":
        if payload["property"] == "homomorphism":
            base = sg.names.index(payload["base"])
            domain = _naive_divisor_set(sg, base)
            f = _values_by_index(sg, payload["f"])
            g = _values_by_index(sg, payload["g"])
            full = _naive_convolve_map(sg, f, g)
            restricted = _naive_star_map(sg, domain,
                                         {s: f[s] for s in domain},
                                         {s: g[s] for s in domain})
            return any(full[s] != restricted[s] for s in domain)
        if payload["property"] == "class-separation":
            base = sg.names.index(payload["base"])
            domain = _naive_divisor_set(sg, base)
            f = _values_by_index(sg, payload["f"])
            g = _values_by_index(sg, payload["g"])
            agree = all(f[s] == g[s] for s in domain)
            same_restriction = {s: f[s] for s in domain} == {s: g[s] for s in domain}
            return agree != same_restriction
        if payload["property"] == "surjectivity":
            return _recheck_surjectivity(sg, payload)
        return False
    if theorem == "subdirect":
        if payload["property"] == "separation":
            f = _values_by_index(sg, payload["f"])
            g = _values_by_index(sg, payload["g"])
            if f == g:
                return False
            return all(
                all(f[s] == g[s] for s in _naive_divisor_set(sg, a))
                for a in range(sg.order)
            )
        if payload["property"] == "surjectivity":
            return _recheck_surjectivity(sg, payload)
        return False
    if theorem == "phi-embedding":
        s = sg.names.index(payload["s"])
        t = sg.names.index(payload["t"])
        if payload["property"] == "injectivity":
            return s != t and _characteristic_map(sg, s) == _characteristic_map(sg, t)
        lhs = _naive_convolve_map(sg, _characteristic_map(sg, s), _characteristic_map(sg, t))
        return lhs != _characteristic_map(sg, sg.table[s][t])
    if theorem == "restriction-rees":
        a = sg.names.index(payload["base"])
        s = sg.names.index(payload["s"])
        t = sg.names.index(payload["t"])
        domain = _naive_divisor_set(sg, a)
        cs = _characteristic_map(sg, s)
        ct = _characteristic_map(sg, t)
        agree = all(cs[x] == ct[x] for x in domain)
        outside = set(range(sg.order)) - domain
        rees_related = s == t or (s in outside and t in outside)
        return agree != rees_related
    if theorem == "kernel-criterion":
        least = _naive_least_ideal(sg)
        if payload.get("property") == "cross-validation":
            return {sg.names[i] for i in least} != set(payload["kernel"])
        a = sg.names.index(payload["element"])
        return (len(_naive_divisor_set(sg, a)) == sg.order) != (a in least)
    if theorem == "core-criterion":
        prop = payload.get("property")
        if prop == "singleton-core":
            return sg.order == 1 and payload["core"] is not None
        if prop == "zero-element":
            zero = _naive_zero(sg)
            return zero is not None and len(_naive_divisor_set(sg, zero)) != sg.order
        least = _naive_least_nontrivial_ideal(sg)
        if prop == "cross-validation":
            got = payload["core"]
            expected = None if least is None else sorted(sg.names[i] for i in least)
            return got != expected
        a = sg.names.index(payload["element"])
        nondivisors = sg.order - len(_naive_divisor_set(sg, a))
        in_core = least is not None and a in least
        return (nondivisors <= 1) != in_core
    if theorem == "distributivity":
        values = [Fraction(v) for v in payload["values"]]
        b = Fraction(payload["b"])
        return _distributivity_violation(tuple(values), b) is not None
    raise ValueError(f"unknown theorem {theorem!r}")


def _recheck_surjectivity(sg: Semigroup, payload: dict) -> bool:
    base, target = _restricted_payload_values(sg, payload["target"])
    if sg.names.index(payload["base"]) != base:
        return False
    domain = _naive_divisor_set(sg, base)
    extended = {s: target.get(s, ZERO) for s in range(sg.order)}
    return {s: extended[s] for s in domain} != target


def _characteristic_map(sg: Semigroup, s: int) -> dict[int, Fraction]:
    return {x: ONE if x == s else ZERO for x in range(sg.order)}


def _naive_zero(sg: Semigroup) -> int | None:
    n = sg.order
    for z in range(n):
        if all(sg.table[z][x] == z and sg.table[x][z] == z for x in range(n)):
            return z
    return None


def _naive_ideals(sg: Semigroup) -> list[frozenset[int]]:
    n = sg.order
    out = []
    for bits in product((False, True), repeat=n):
        members = frozenset(i for i in range(n) if bits[i])
        if members and all(sg.table[s][x] in members and sg.table[x][s] in members
                           for s in members for x in range(n)):
            out.append(members)
    return out


def _naive_least_ideal(sg: Semigroup) -> frozenset[int]:
    ideals = _naive_ideals(sg)
    least = [a for a in ideals if all(a <= b for b in ideals)]
    assert least, "a finite semigroup always has a least ideal"
    return least[0]


def _naive_least_nontrivial_ideal(sg: Semigroup) -> frozenset[int] | None:
    ideals = [a for a in _naive_ideals(sg) if len(a) >= 2]
    least = [a for a in ideals if all(a <= b for b in ideals)]
    return least[0] if least else None
