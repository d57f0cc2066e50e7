"""The sup-min kernel behind convolve and star_convolve, against the oracles.

Every semigroup of order <= 3 is checked with both products at every
base, on value tuples built in the ways callers build them: shared chain
objects, arbitrary rationals, equal values held as distinct objects, and
plain integers.  Divisor sets come from the oracle, not the library.
"""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from semifuzz import reference as oracles
import semifuzz as sf


@pytest.fixture(scope="session")
def domains(small_semigroups):
    """Per semigroup, the oracle's sorted divisor set at every base."""
    return {sg: [sorted(oracles.divisor_set(sg.table, a)) for a in range(sg.order)]
            for sg in small_semigroups}


def check_convolve(sg, fv, gv):
    expected = oracles.convolve(sg.table, dict(enumerate(fv)), dict(enumerate(gv)))
    got = sf.convolve(sf.FuzzySet(sg, tuple(fv)), sf.FuzzySet(sg, tuple(gv))).values
    assert got == tuple(expected[s] for s in range(sg.order))
    assert all(v == 0 or v in fv or v in gv for v in got)


def check_star(sg, base, domain, fv, gv):
    """fv and gv align with the domain."""
    expected = oracles.star(sg.table, domain, dict(zip(domain, fv)), dict(zip(domain, gv)))
    got = sf.star_convolve(sf.RestrictedFuzzySet(sg, base, tuple(fv)),
                           sf.RestrictedFuzzySet(sg, base, tuple(gv))).values
    assert got == tuple(expected[s] for s in domain)


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
