"""Machine verification of the library's structural identities.

:func:`verify_theorem` runs one named check over one semigroup, either
exhaustively over all chain-valued fuzzy sets or on a seeded random
sample, and folds the outcome into a :class:`VerificationReport`.

The verifier does not get to indict itself: before a failing case is
reported, :func:`recheck_counterexample` re-derives the violated
statement from the raw payload through :mod:`semifuzz.reference`, naive
code that imports nothing from the package (materialized identity
adjunction, direct double loops, and least ideals found among the
principal ideals at every order).  A counterexample that does not
survive that recheck is a verifier inconsistency and raises
VerifierInconsistency instead of being reported.  Subset ideal
enumeration, exponential in the order, serves only the kernel and core
cross-validations, up to CROSS_VALIDATION_LIMIT elements.

Each check is a generator of rows of cases that one driver,
:func:`_sweep`, folds into ``(cases_checked, payload)``: a row reports
how many cases it held, or the position of its first failing case and
that case's payload, where the sweep stops.

Exhaustive checks quantify over fuzzy sets valued in the strategy's
chain; the chain contains 0 and 1 and is closed under min and max, so
all equalities are exact within the enumerated universe.  That closure
also means every product of two members of a universe is again a
member.  So the star-associativity, delta-congruence and quotient-iso
sweeps first compute an integer product table: the real kernel settles
each ordered pair once, in one batched pass over the universe
(``convolve_rows`` or ``star_convolve_rows``: each member is grouped by
value object into masks of domain positions and the universe's values
are ranked once, the kernel's own 0 left out of both, and each level of
a pair is settled by lookups in the domain's tables of products of
single positions with sets of positions), and each result, a bare
tuple of values, is mapped back to its position in the universe.  That
lookup goes by the identities of the result's
value objects, which the kernel takes from its operands (or is its own
0, every chain's 0); the universe stays alive for the whole sweep, so
no id is reused.  A result with equal values held by other objects
falls back to an exact lookup by value, and a result outside the
universe is a verifier inconsistency and raises VerifierInconsistency.
quotient-iso maps each member's restriction the same way, from the
values its divisor gather reads.  Agreement at a base is tabulated in
one batched pass too (``agreement_rows``: each distinct value object
is coded once as an int, by exact value, and each member's divisor
coordinates are gathered once into a tuple of those codes), and each
entry is its own comparison of two such tuples.  The result is used as
a matrix rather than as classes, so transitivity is never assumed.
The restriction-rees rows still call ``agrees_on_divisors`` per pair,
as do the sampled checks.  Each case
then costs integer lookups, yet tests the same statement: two members
are equal exactly when their positions are.  Cases are counted and
reported in the order of the case-by-case loops, with the same
payloads.  A universe of more than EXHAUSTIVE_UNIVERSE_LIMIT sets is
refused with ValueError before anything is built; a chain has at least
two values, so this also keeps every domain within the 12 elements the
batched pass accepts.  Checks whose
statement quantifies over carrier elements only (the embedding, the
divisor/Rees restriction, the kernel and core criteria) ignore the
sample budget and always sweep all elements, which is both cheaper and
stronger than sampling.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import wraps
from itertools import product, repeat

from . import reference
from .decomposition import (agreement_rows, agrees_on_divisors, extend_by_zero, restrict,
                            subdirect_embed)
from .enumeration import (
    Chain,
    _draws,
    _rand_fuzzy,
    _rand_related,
    _rand_restricted,
    enumerate_fuzzy_sets,
    enumerate_restricted_sets,
)
from .fuzzy import (EXHAUSTIVE_UNIVERSE_LIMIT, ZERO, convolve, convolve_rows, embed_element,
                    star_convolve, star_convolve_rows)
from .semigroups import Semigroup, semigroup_to_json

# subset ideal enumeration is 2**n; past this the cross-validations are skipped
CROSS_VALIDATION_LIMIT = 12


class VerifierInconsistency(RuntimeError):
    """The verifier contradicted itself, so its verdict cannot be trusted.

    Raised when a counterexample fails its independent recheck, or when a
    kernel product lies outside a universe that is closed under it.
    Either points at a defect in the library, not in the input.
    """


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
        if isinstance(self.count, bool) or not isinstance(self.count, int) or self.count < 1:
            raise ValueError(f"sample count must be a positive integer, got {self.count!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ValueError(f"sample seed must be an integer, got {self.seed!r}")


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
        return asdict(self)

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
        raise VerifierInconsistency(
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
    """Positions of the members of an enumerated universe, by value tuple.

    ``locate`` takes a bare tuple of values, as the batched product rows
    and the divisor gathers give them.  It finds a member by the
    identities of those value objects: the universe stays alive as long
    as this index, so none of those ids can be reused, and a tuple of ids
    matches only a member that holds those very objects.  Kernel results
    reuse their operands' value objects (or the kernel's 0, which is
    every chain's 0), and gathers reuse the gathered member's, so they
    hit that lookup.  Equal values held by other objects miss it and
    fall back to an exact lookup keyed by the values themselves; values
    that miss both lie outside the universe, which is a verifier
    inconsistency and raises VerifierInconsistency.
    """

    def __init__(self, universe):
        self.universe = universe
        self.by_ids = {tuple(map(id, u.values)): i for i, u in enumerate(universe)}
        self.by_values = None

    def locate(self, values) -> int:
        i = self.by_ids.get(tuple(map(id, values)))
        if i is None:
            if self.by_values is None:
                self.by_values = {u.values: k for k, u in enumerate(self.universe)}
            i = self.by_values.get(values)
            if i is None:
                raise VerifierInconsistency(
                    f"verifier inconsistency: the values ({', '.join(map(str, values))}) "
                    f"lie outside the enumerated universe")
        return i


def _product_table(universe, rows) -> list[list[int]]:
    """``table[i][j]`` is the position in ``universe`` of the product of
    ``universe[i]`` and ``universe[j]``, whose values are entry j of row
    i of ``rows(universe)``.

    The universe is closed under the product (a chain holding 0 is
    closed under min and max), so every result must be found; one that
    is not is a verifier inconsistency and raises VerifierInconsistency.
    """
    locate = _Positions(universe).locate
    return [list(map(locate, row)) for row in rows(universe)]


def _row(lhs: list, rhs: list, failure) -> tuple:
    """One row of cases, case k asking ``lhs[k] == rhs[k]``.

    ``(len(lhs), None)`` when every case holds, else ``(k + 1, failure(k))``
    for the first failing case k.
    """
    if lhs == rhs:
        return len(lhs), None
    k = next(k for k, (x, y) in enumerate(zip(lhs, rhs)) if x != y)
    return k + 1, failure(k)


def _sweep(rows):
    """Fold a generator of rows into a check returning ``(cases_checked, payload)``.

    ``rows(sg, chain, rng, count)`` yields ``(cases, None)`` for a row
    whose cases all hold and ``(k, payload)`` for a row whose k-th case
    is the first to fail; the sweep stops at that case.  ``rng`` is None
    for an exhaustive run.
    """
    @wraps(rows)
    def check(sg, chain, rng, count):
        checked = 0
        for cases, payload in rows(sg, chain, rng, count):
            checked += cases
            if payload is not None:
                return checked, payload
        return checked, None
    return check


# ----------------------------------------------------------------------
# counterexample payloads

def _payload(head: dict, **sets) -> dict:
    """The ``head`` fields, then each named set's ``as_dict()`` in argument order."""
    return {**head, **{name: s.as_dict() for name, s in sets.items()}}


def _surjectivity_failure(a, target) -> dict | None:
    """The surjectivity payload, or None when the extension of ``target``
    by zero restricts back to it."""
    return None if restrict(a, extend_by_zero(target)) == target else _payload(
        {"property": "surjectivity", "base": a.name}, target=target)


# ----------------------------------------------------------------------
# the checks, as generators of rows (see _sweep)

@_sweep
def _check_star_assoc(sg, chain, rng, count):
    if rng is None:
        _require_small_universe(chain, max(map(len, sg._divisor_domains)))
        for a in sg.elements:
            sets = list(enumerate_restricted_sets(sg, a, chain))
            table = _product_table(sets, star_convolve_rows)
            for i, row_i in enumerate(table):
                for j, ij in enumerate(row_i):
                    # (fg)h against f(gh) for every h at once
                    lhs = table[ij]
                    rhs = list(map(row_i.__getitem__, table[j]))
                    yield _row(lhs, rhs, lambda k: _payload(
                        {"base": a.name}, f=sets[i], g=sets[j], h=sets[k],
                        lhs=sets[lhs[k]], rhs=sets[rhs[k]]))
    else:
        for _ in range(count):
            base = rng.randrange(sg.order)
            f, g, h = (_rand_restricted(rng, sg, base, chain) for _ in range(3))
            lhs = star_convolve(star_convolve(f, g), h)
            rhs = star_convolve(f, star_convolve(g, h))
            yield 1, None if lhs == rhs else _payload(
                {"base": sg.names[base]}, f=f, g=g, h=h, lhs=lhs, rhs=rhs)


@_sweep
def _check_delta_congruence(sg, chain, rng, count):
    if rng is None:
        _require_small_universe(chain, sg.order)
        fuzz = list(enumerate_fuzzy_sets(sg, chain))
        table = _product_table(fuzz, convolve_rows)
        for a in sg.elements:
            agree = list(agreement_rows(a, fuzz))
            related = [(i, j) for i, row in enumerate(agree) for j, ok in enumerate(row) if ok]
            lefts = [i for i, _ in related]
            rights = [j for _, j in related]
            every = [True] * len(related)
            for f1, g1 in related:
                # agree[f1 f2][g1 g2] for every related (f2, g2)
                holds = list(map(list.__getitem__,
                                 map(agree.__getitem__, map(table[f1].__getitem__, lefts)),
                                 map(table[g1].__getitem__, rights)))
                yield _row(holds, every, lambda c: _payload(
                    {"base": a.name}, f1=fuzz[f1], g1=fuzz[g1],
                    f2=fuzz[lefts[c]], g2=fuzz[rights[c]]))
    else:
        for _ in range(count):
            base = rng.randrange(sg.order)
            a = sg.elements[base]
            f1 = _rand_fuzzy(rng, sg, chain)
            f2 = _rand_fuzzy(rng, sg, chain)
            g1 = _rand_related(rng, sg, base, f1, chain)
            g2 = _rand_related(rng, sg, base, f2, chain)
            holds = agrees_on_divisors(a, convolve(f1, f2), convolve(g1, g2))
            yield 1, None if holds else _payload({"base": a.name}, f1=f1, g1=g1, f2=f2, g2=g2)


@_sweep
def _check_quotient_iso(sg, chain, rng, count):
    if rng is None:
        _require_small_universe(chain, sg.order)
        fuzz = list(enumerate_fuzzy_sets(sg, chain))
        table = _product_table(fuzz, convolve_rows)
        for a in sg.elements:
            targets = list(enumerate_restricted_sets(sg, a, chain))
            locate, gather = _Positions(targets).locate, sg._divisor_gathers[a.index]
            restricted = [locate(gather(f.values)) for f in fuzz]
            for i, (ri, agree) in enumerate(zip(restricted, agreement_rows(a, fuzz))):
                yield _row(agree, list(map(ri.__eq__, restricted)), lambda k: _payload(
                    {"property": "class-separation", "base": a.name}, f=fuzz[i], g=fuzz[k]))
            for target in targets:
                yield 1, _surjectivity_failure(a, target)
            star = _product_table(targets, star_convolve_rows)
            for i, ri in enumerate(restricted):
                # restrict(fg) against restrict(f) * restrict(g) for every g at once
                lhs = list(map(restricted.__getitem__, table[i]))
                rhs = list(map(star[ri].__getitem__, restricted))
                yield _row(lhs, rhs, lambda k: _payload(
                    {"property": "homomorphism", "base": a.name}, f=fuzz[i], g=fuzz[k],
                    lhs=targets[lhs[k]], rhs=targets[rhs[k]]))
    else:
        for _ in range(count):
            base = rng.randrange(sg.order)
            a = sg.elements[base]
            f = _rand_fuzzy(rng, sg, chain)
            g = _rand_fuzzy(rng, sg, chain)
            rf, rg = restrict(a, f), restrict(a, g)
            separated = agrees_on_divisors(a, f, g) == (rf == rg)
            yield 1, None if separated else _payload(
                {"property": "class-separation", "base": a.name}, f=f, g=g)
            yield 1, _surjectivity_failure(a, _rand_restricted(rng, sg, base, chain))
            lhs = restrict(a, convolve(f, g))
            rhs = star_convolve(rf, rg)
            yield 1, None if lhs == rhs else _payload(
                {"property": "homomorphism", "base": a.name}, f=f, g=g, lhs=lhs, rhs=rhs)


@_sweep
def _check_subdirect(sg, chain, rng, count):
    if rng is None:
        _require_small_universe(chain, sg.order)
        fuzz = list(enumerate_fuzzy_sets(sg, chain))
        embeddings = [subdirect_embed(f) for f in fuzz]
        for i, e in enumerate(embeddings):
            distinct = [e != later for later in embeddings[i + 1:]]
            yield _row(distinct, [True] * len(distinct), lambda k: _payload(
                {"property": "separation"}, f=fuzz[i], g=fuzz[i + 1 + k]))
        for a in sg.elements:
            for target in enumerate_restricted_sets(sg, a, chain):
                yield 1, _surjectivity_failure(a, target)
    else:
        for _ in range(count):
            f = _rand_fuzzy(rng, sg, chain)
            g = _rand_fuzzy(rng, sg, chain)
            separated = f == g or subdirect_embed(f) != subdirect_embed(g)
            yield 1, None if separated else _payload({"property": "separation"}, f=f, g=g)
            base = rng.randrange(sg.order)
            target = _rand_restricted(rng, sg, base, chain)
            yield 1, _surjectivity_failure(sg.elements[base], target)


# element-quantified checks ignore the sample budget, see the module docstring

@_sweep
def _check_phi_embedding(sg, chain, rng, count):
    embeddings = [embed_element(sg, e) for e in sg.elements]
    for s in sg.elements:
        for t in sg.elements:
            lhs = convolve(embeddings[s.index], embeddings[t.index])
            rhs = embeddings[sg.table[s.index][t.index]]
            yield 1, None if lhs == rhs else _payload(
                {"property": "homomorphism", "s": s.name, "t": t.name}, lhs=lhs, rhs=rhs)
    for s in sg.elements:
        for t in sg.elements[s.index + 1:]:
            yield 1, ({"property": "injectivity", "s": s.name, "t": t.name}
                      if embeddings[s.index] == embeddings[t.index] else None)


@_sweep
def _check_restriction_rees(sg, chain, rng, count):
    embeddings = [embed_element(sg, e) for e in sg.elements]
    carrier = range(sg.order)
    for a in sg.elements:
        divisors, rest = sg.divisor_partition(a)
        rees = sg.rees_congruence(rest)
        for s, e_s in enumerate(embeddings):
            # the row of cases (a, s, t) for every t at once
            related = [agrees_on_divisors(a, e_s, e_t) for e_t in embeddings]
            collapsed = list(map(rees.pairs.__contains__, zip(repeat(s), carrier)))
            yield _row(related, collapsed, lambda t: {
                "base": a.name,
                "s": sg.names[s],
                "t": sg.names[t],
                "agree_on_divisors": related[t],
                "rees_related": collapsed[t],
            })


def _cross_validation(sg, min_size, name, got, oracle):
    """The row that checks ``got``, an ElementSet or None, against the least
    ideal of at least ``min_size`` elements found by subset enumeration;
    empty above CROSS_VALIDATION_LIMIT."""
    if sg.order > CROSS_VALIDATION_LIMIT:
        return
    found = None if got is None else got.indices
    expected = reference.least_ideal(sg.table, min_size)

    def names(ideal):
        return None if ideal is None else sorted(sg.names[i] for i in ideal)

    yield 1, None if found == expected else {
        "property": "cross-validation", name: names(found), oracle: names(expected)}


@_sweep
def _check_kernel_criterion(sg, chain, rng, count):
    kernel = sg.kernel()
    yield from _cross_validation(sg, 1, "kernel", kernel, "least_ideal")
    for a in sg.elements:
        divisors, _ = sg.divisor_partition(a)
        yield 1, {
            "element": a.name,
            "divisor_count": len(divisors),
            "in_kernel": a in kernel,
        } if (len(divisors) == sg.order) != (a in kernel) else None


@_sweep
def _check_core_criterion(sg, chain, rng, count):
    core = sg.core()
    if sg.order == 1:
        # no non-trivial ideal can exist on one element
        yield 1, ({"property": "singleton-core", "core": sorted(core.names())}
                  if core is not None else None)
        return
    zero = sg.zero_element()
    if zero is not None:
        _, rest = sg.divisor_partition(zero)
        yield 1, {"property": "zero-element", "nondivisors": sorted(rest.names())} if rest else None
    yield from _cross_validation(sg, 2, "core", core, "least_nontrivial_ideal")
    for a in sg.elements:
        if zero is not None and a == zero:
            continue
        _, rest = sg.divisor_partition(a)
        in_core = core is not None and a in core
        yield 1, {
            "element": a.name,
            "nondivisor_count": len(rest),
            "in_core": in_core,
        } if (len(rest) <= 1) != in_core else None


@_sweep
def _check_distributivity(sg, chain, rng, count):
    vals = chain.values
    if rng is None:
        for width in (1, 2, 3):
            for values in product(vals, repeat=width):
                for b in vals:
                    yield 1, _distributivity_violation(values, b)
    else:
        for _ in range(count):
            width = rng.randrange(1, 5)
            values = _draws(rng, vals, width)
            yield 1, _distributivity_violation(values, vals[rng.randrange(len(vals))])


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

THEOREMS = tuple(_CHECKERS)


# ----------------------------------------------------------------------
# independent recheck of counterexample payloads, through semifuzz.reference

_LAWS = {"meet-over-join": reference.meet_over_join, "join-over-meet": reference.join_over_meet}


def recheck_counterexample(sg: Semigroup, theorem: str, payload: dict) -> bool:
    """True iff the payload genuinely violates the named statement.

    Evaluated with the brute-force code in :mod:`semifuzz.reference`,
    independently of the main verification path, so a bug there cannot
    confirm its own counterexamples.
    """
    table, n = sg.table, sg.order

    def index(key):
        return sg.names.index(payload[key])

    def values(named):
        return {sg.names.index(name): Fraction(text) for name, text in named.items()}

    def divisors(key):
        return reference.divisor_set(table, index(key))

    prop = payload.get("property")
    if theorem == "star-assoc":
        f, g, h = (values(payload[k]["values"]) for k in "fgh")
        domain = sorted(reference.divisor_set(table, sg.names.index(payload["f"]["base"])))
        lhs = reference.star(table, domain, reference.star(table, domain, f, g), h)
        return lhs != reference.star(table, domain, f, reference.star(table, domain, g, h))
    if theorem == "delta-congruence":
        domain = divisors("base")
        f1, g1, f2, g2 = (values(payload[k]) for k in ("f1", "g1", "f2", "g2"))
        if any(f1[s] != g1[s] or f2[s] != g2[s] for s in domain):
            return False  # hypotheses do not even hold
        lhs, rhs = reference.convolve(table, f1, f2), reference.convolve(table, g1, g2)
        return any(lhs[s] != rhs[s] for s in domain)
    if prop == "surjectivity" and theorem in ("quotient-iso", "subdirect"):
        target = payload["target"]
        base = sg.names.index(target["base"])
        if index("base") != base:
            return False
        wanted = values(target["values"])
        extended = {s: wanted.get(s, ZERO) for s in range(n)}
        return {s: extended[s] for s in reference.divisor_set(table, base)} != wanted
    if theorem == "quotient-iso":
        if prop not in ("homomorphism", "class-separation"):
            return False
        domain = divisors("base")
        f, g = values(payload["f"]), values(payload["g"])
        if prop == "homomorphism":
            full = reference.convolve(table, f, g)
            restricted = reference.star(table, domain, {s: f[s] for s in domain},
                                        {s: g[s] for s in domain})
            return any(full[s] != restricted[s] for s in domain)
        agree = all(f[s] == g[s] for s in domain)
        return agree != ({s: f[s] for s in domain} == {s: g[s] for s in domain})
    if theorem == "subdirect":
        if prop != "separation":
            return False
        f, g = values(payload["f"]), values(payload["g"])
        return f != g and all(all(f[s] == g[s] for s in domain)
                              for domain in reference.divisor_sets(table))
    if theorem == "phi-embedding":
        s, t = index("s"), index("t")
        chi_s, chi_t = reference.characteristic(n, s), reference.characteristic(n, t)
        if prop == "injectivity":
            return s != t and chi_s == chi_t
        return reference.convolve(table, chi_s, chi_t) != reference.characteristic(n, table[s][t])
    if theorem == "restriction-rees":
        s, t, domain = index("s"), index("t"), divisors("base")
        chi_s, chi_t = reference.characteristic(n, s), reference.characteristic(n, t)
        agree = all(chi_s[x] == chi_t[x] for x in domain)
        return agree != (s == t or (s not in domain and t not in domain))
    if theorem == "kernel-criterion":
        least = reference.least_principal_ideal(table, 1) or frozenset()
        if prop == "cross-validation":
            return {sg.names[i] for i in least} != set(payload["kernel"])
        return (len(divisors("element")) == n) != (index("element") in least)
    if theorem == "core-criterion":
        if prop == "singleton-core":
            return n == 1 and payload["core"] is not None
        if prop == "zero-element":
            zero = reference.zero_of(table)
            return zero is not None and len(reference.divisor_set(table, zero)) != n
        least = reference.least_principal_ideal(table, 2)
        if prop == "cross-validation":
            expected = None if least is None else sorted(sg.names[i] for i in least)
            return payload["core"] != expected
        in_core = least is not None and index("element") in least
        return (n - len(divisors("element")) <= 1) != in_core
    if theorem == "distributivity":
        law = _LAWS.get(payload["law"])
        return law is not None and not law([Fraction(v) for v in payload["values"]],
                                           Fraction(payload["b"]))
    raise ValueError(f"unknown theorem {theorem!r}")
