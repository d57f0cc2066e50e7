"""The sup-min kernel behind convolve and star_convolve, against the oracles.

Every semigroup of order <= 3 is checked with both products at every
base, on value tuples built in the ways callers build them: shared chain
objects, arbitrary rationals, equal values held as distinct objects, and
plain integers.  Divisor sets come from the oracle, not the library.

The kernel settles each level by pushing new factors or by pulling from
the factor pairs of pending targets, whichever visits fewer pairs.  Pull
wins once few targets are pending on a wide carrier, as on the late
levels of the 40- and 128-element closures at chain 16, so those are
checked too.  A planted fault in the factor pairs the pull reads, or
in the rows or columns the push reads, must show in the product.
"""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from semifuzz import reference as oracles
from semifuzz.fuzzy import ONE, ZERO
import semifuzz as sf


@pytest.fixture(scope="session")
def domains(small_semigroups):
    """Per semigroup, the oracle's sorted divisor set at every base."""
    return {sg: [sorted(oracles.divisor_set(sg.table, a)) for a in range(sg.order)]
            for sg in small_semigroups}


def own_objects(got, fv, gv):
    """Every result value is one of the operands' value objects or the kernel's 0."""
    return {id(v) for v in got} <= {id(v) for v in (*fv, *gv, ZERO)}


def check_convolve(sg, fv, gv):
    expected = oracles.convolve(sg.table, dict(enumerate(fv)), dict(enumerate(gv)))
    got = sf.convolve(sf.FuzzySet(sg, tuple(fv)), sf.FuzzySet(sg, tuple(gv))).values
    assert got == tuple(expected[s] for s in range(sg.order))
    assert own_objects(got, fv, gv)


def check_star(sg, base, domain, fv, gv):
    """fv and gv align with the domain."""
    expected = oracles.star(sg.table, domain, dict(zip(domain, fv)), dict(zip(domain, gv)))
    got = sf.star_convolve(sf.RestrictedFuzzySet(sg, base, tuple(fv)),
                           sf.RestrictedFuzzySet(sg, base, tuple(gv))).values
    assert got == tuple(expected[s] for s in domain)
    assert own_objects(got, fv, gv)


def check_everywhere(sg, domains, fv, gv):
    """Both products at every base, the restricted inputs cut from fv and gv."""
    check_convolve(sg, fv, gv)
    for a, domain in enumerate(domains[sg]):
        check_star(sg, a, domain, [fv[s] for s in domain], [gv[s] for s in domain])


def test_every_chain1_pair(small_semigroups, domains):
    chain = sf.make_chain(1).values
    for sg in small_semigroups:
        for fv, gv in product(product(chain, repeat=sg.order), repeat=2):
            check_convolve(sg, fv, gv)
        for a, domain in enumerate(domains[sg]):
            for fv, gv in product(product(chain, repeat=len(domain)), repeat=2):
                check_star(sg, a, domain, fv, gv)


def test_seeded_chain4_pairs(small_semigroups, domains):
    chain = sf.make_chain(4).values
    rng = random.Random(4)
    for sg in small_semigroups:
        for _ in range(4):
            check_everywhere(sg, domains, [rng.choice(chain) for _ in range(sg.order)],
                             [rng.choice(chain) for _ in range(sg.order)])


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_arbitrary_rationals(small_semigroups, domains, data):
    sg = data.draw(st.sampled_from(small_semigroups))
    values = st.lists(st.fractions(min_value=0, max_value=1), min_size=sg.order, max_size=sg.order)
    check_everywhere(sg, domains, data.draw(values), data.draw(values))


def test_equal_values_as_distinct_objects(small_semigroups, domains):
    # every position gets its own object, half of them built unreduced,
    # so equal values never share an identity
    rng = random.Random(7)
    for sg in small_semigroups:
        for _ in range(4):
            fv, gv = ([Fraction(k * m, 4 * m) for k, m in
                       ((rng.randrange(5), rng.choice((1, 2))) for _ in range(sg.order))]
                      for _ in range(2))
            assert len({id(v) for v in fv + gv}) == 2 * sg.order
            check_everywhere(sg, domains, fv, gv)


def test_integer_values_from_direct_construction(small_semigroups, domains):
    rng = random.Random(1)
    for sg in small_semigroups:
        for _ in range(3):
            fv = [rng.randrange(2) for _ in range(sg.order)]
            gv = [rng.choice((0, 1, Fraction(1), Fraction(1, 2))) for _ in range(sg.order)]
            check_everywhere(sg, domains, fv, gv)


def test_chain16_pair_on_the_128_element_closure():
    sg = sf.transformation_closure([(1, 2, 3, 0), (0, 0, 2, 3)])
    assert sg.order == 128
    chain = sf.make_chain(16).values
    rng = random.Random(16)
    fv = [rng.choice(chain) for _ in range(sg.order)]
    gv = [rng.choice(chain) for _ in range(sg.order)]
    expected = oracles.convolve(sg.table, dict(enumerate(fv)), dict(enumerate(gv)))
    f, g = sf.FuzzySet(sg, tuple(fv)), sf.FuzzySet(sg, tuple(gv))
    assert sf.convolve(f, g).values == tuple(expected[s] for s in range(sg.order))
    # a product of divisors of a that lands in the divisor set only has
    # divisor factors, so each restricted product is the convolution cut down
    for a in sg.elements:
        got = sf.star_convolve(sf.restrict(a, f), sf.restrict(a, g))
        assert {e.index: got(e) for e in got.domain} == {e.index: expected[e.index] for e in got.domain}


GENERATORS_40 = [(1, 2, 3, 0), (0, 0, 0, 3)]
GENERATORS_128 = [(1, 2, 3, 0), (0, 0, 2, 3)]


@pytest.fixture(scope="module")
def closures():
    """The 40- and 128-element closures, each with the oracle's divisor set
    at one base of every divisor-set size."""
    out = {}
    for gens in (GENERATORS_40, GENERATORS_128):
        sg = sf.transformation_closure(gens)
        ideals = oracles.principal_ideals(sg.table)
        domains = {}
        for a in range(sg.order):
            domain = [s for s, ideal in enumerate(ideals) if a in ideal]
            domains.setdefault(len(domain), (a, domain))
        out[sg.order] = (sg, sorted(domains.values()))
    return out


def check_wide(sg, domains, fv, gv):
    """convolve, and star_convolve at each base, against the oracle."""
    check_convolve(sg, fv, gv)
    for a, domain in domains:
        check_star(sg, a, domain, [fv[s] for s in domain], [gv[s] for s in domain])


@pytest.mark.parametrize("k", [1, 2, 16])
@pytest.mark.parametrize("order", [40, 128])
def test_wide_closures(closures, order, k):
    sg, domains = closures[order]
    assert order == sg.order and len(domains) == (3 if order == 40 else 4)
    chain = sf.make_chain(k).values
    rng = random.Random(order * 100 + k)
    check_wide(sg, domains, [rng.choice(chain) for _ in range(order)],
               [rng.choice(chain) for _ in range(order)])


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_arbitrary_rationals_on_the_40_element_closure(closures, data):
    sg, domains = closures[40]
    values = st.lists(st.fractions(min_value=0, max_value=1), min_size=40, max_size=40)
    check_wide(sg, domains, data.draw(values), data.draw(values))


def test_pull_reads_the_fibers():
    # f is 1 except on the left factors of t, where it is 1/2, and g is 1
    # everywhere.  The first level admits every other left factor, so t is
    # still pending at the second, which admits the left factors of t; its
    # pending targets have fewer factor pairs (plus the 2n flags pull sets)
    # than the |lefts of t| * n pairs push would visit, so that level pulls.
    sg = sf.transformation_closure(GENERATORS_128)
    n = sg.order
    lefts, rights, sizes = sg._fibers
    for t in range(n):
        left = set(lefts[t])
        pending = [u for u in range(n) if sizes[u] and set(lefts[u]) <= left]
        if sizes[t] and len(left) * n > sum(sizes[u] for u in pending) + 2 * n:
            break
    else:
        pytest.fail("no target is settled by pull")
    half = Fraction(1, 2)
    f = sf.FuzzySet(sg, tuple(half if x in left else Fraction(1) for x in range(n)))
    g = sf.constant(sg, 1)
    assert sf.convolve(f, g)(t) == half
    corrupted = tuple(() if u == t else fiber for u, fiber in enumerate(lefts))
    sg.__dict__["_fibers"] = (corrupted, rights, sizes)
    assert sf.convolve(f, g)(t) == 0


@pytest.mark.parametrize("f_value, read", [(ONE, "_columns"), (Fraction(1, 2), "table")])
def test_push_reads_the_table(f_value, read):
    # g is 1 everywhere.  With f = 1 too (the same object, so one level)
    # the only level admits every factor on both sides and pushes the
    # columns of the new right factors; with f = 1/2 the first level
    # admits only right factors and the second pushes the rows of the new
    # left factors.  Either push visits n * n pairs, fewer than the n * n
    # factor pairs of the targets plus the flags pull would set.  A target
    # planted out of what the push reads must lose its value.
    sg = sf.transformation_closure(GENERATORS_128)
    n = sg.order
    f, g = sf.constant(sg, f_value), sf.constant(sg, ONE)
    t = next(u for u, size in enumerate(sg._fibers[2]) if size)
    assert sf.convolve(f, g)(t) == f_value
    stand_in = (t + 1) % n
    sg.__dict__[read] = tuple(tuple(stand_in if u == t else u for u in line)
                              for line in getattr(sg, read))
    assert sf.convolve(f, g)(t) == 0


def test_a_push_between_pulls_keeps_the_pull_flags():
    # f is 1 off the left factors of t except on nb elements at 3/4, and
    # 1/4 on them; g is 1 off the right factors of t except on nb elements
    # at 3/4, 1/2 on the right factor y1 and 0 on the other right factors.
    # The four levels then run push, pull, push (y1 alone) and pull, and
    # the last one reaches t only through y1, which the push admitted.
    sg = sf.transformation_closure(GENERATORS_128)
    n, t, y1, nb = sg.order, 6, 6, 8
    lefts, rights, _ = sg._fibers
    left, right = set(lefts[t]), set(rights[t])
    assert y1 in right
    xs = [x for x in range(n) if x not in left]
    ys = [y for y in range(n) if y not in right]
    one, three_quarters, half, quarter = (Fraction(k, 4) for k in (4, 3, 2, 1))
    fv = [quarter] * n
    for x in xs:
        fv[x] = one
    for x in xs[:nb]:
        fv[x] = three_quarters
    gv = [Fraction(0)] * n
    for y in ys:
        gv[y] = one
    for y in ys[:nb]:
        gv[y] = three_quarters
    gv[y1] = half
    check_convolve(sg, fv, gv)
    assert sf.convolve(sf.FuzzySet(sg, tuple(fv)), sf.FuzzySet(sg, tuple(gv)))(t) == quarter
