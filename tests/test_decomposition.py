"""Agreement congruences, restriction, zero extension, and the embedding."""

from fractions import Fraction

import pytest

from semifuzz import reference as oracles
import semifuzz as sf


@pytest.fixture
def f_null(null2):
    return sf.fuzzy_set(null2, {"0": "1/2", "a": "3/4"})


class TestAgreement:
    def test_agreement_only_looks_at_divisors(self, null2, f_null):
        # the divisors of a are just {a}, so the value at 0 is irrelevant
        g = sf.fuzzy_set(null2, {"0": "1/4", "a": "3/4"})
        assert sf.agrees_on_divisors("a", f_null, g)
        assert not sf.agrees_on_divisors("0", f_null, g)

    def test_disagreement_on_a_divisor(self, null2, f_null):
        g = sf.fuzzy_set(null2, {"0": "1/2", "a": "1/2"})
        assert not sf.agrees_on_divisors("a", f_null, g)

    def test_reflexive(self, null2, f_null):
        for a in null2.elements:
            assert sf.agrees_on_divisors(a, f_null, f_null)

    def test_mismatched_semigroups(self, null2, left_zero2, f_null):
        g = sf.constant(left_zero2, 0)
        with pytest.raises(ValueError):
            sf.agrees_on_divisors("a", f_null, g)


class TestAgainstOracleDivisorSets:
    """restrict and agrees_on_divisors read the divisor set through one
    cached gather per base, and extend_by_zero and a restricted set's
    lookup through the sorted divisor domain; check them at every base of
    every semigroup of order <= 3, one-element divisor sets included."""

    def test_restrict(self, small_semigroups):
        chain = sf.make_chain(2)
        singletons = 0
        for seed, sg in enumerate(small_semigroups):
            f = sf.random_fuzzy_set(sg, chain, seed)
            for a, divisors in enumerate(oracles.divisor_sets(sg.table)):
                domain = sorted(divisors)
                singletons += len(domain) == 1
                out = sf.restrict(a, f)
                assert type(out.values) is tuple
                assert out.values == tuple(f.values[s] for s in domain)
                assert sf.extend_by_zero(out).values == tuple(
                    f.values[s] if s in divisors else 0 for s in range(sg.order))
                for s in range(sg.order):
                    if s in divisors:
                        assert out(s) == f.values[s]
                    else:
                        with pytest.raises(ValueError, match="is not a divisor of"):
                            out(s)
        assert singletons > 0

    def test_agrees_on_divisors(self, small_semigroups):
        # equal values are held by distinct objects in g, so agreement
        # cannot rest on identity alone
        chain = sf.make_chain(1)
        for sg in small_semigroups:
            sets = list(sf.enumerate_fuzzy_sets(sg, chain))
            copies = [sf.FuzzySet(sg, tuple(Fraction(v.numerator, v.denominator) for v in g.values))
                      for g in sets]
            for a in range(sg.order):
                domain = oracles.divisor_set(sg.table, a)
                for f in sets:
                    for g in copies:
                        expected = all(f.values[s] == g.values[s] for s in domain)
                        assert sf.agrees_on_divisors(a, f, g) == expected

    def test_monogenic_generator_has_one_divisor(self, mono31):
        # c divides only itself, the smallest case the gather handles
        f = sf.fuzzy_set(mono31, {"c": "1/3", "c2": "1", "c3": "0"})
        g = sf.fuzzy_set(mono31, {"c": "1/3", "c2": "0", "c3": "1"})
        assert sf.restrict("c", f).values == (Fraction(1, 3),)
        assert sf.agrees_on_divisors("c", f, g)
        assert not sf.agrees_on_divisors("c2", f, g)


class TestRestrict:
    def test_restriction_to_small_divisor_set(self, null2, f_null):
        fs = sf.restrict("a", f_null)
        assert fs.as_dict() == {"base": "a", "values": {"a": "3/4"}}

    def test_restriction_at_kernel_element_keeps_everything(self, null2, f_null):
        fs = sf.restrict("0", f_null)
        assert [e.name for e in fs.domain] == ["0", "a"]
        assert fs.values == (Fraction(1, 2), Fraction(3, 4))

    def test_equal_restrictions_iff_agreement(self, null2, mono31):
        chain = sf.make_chain(1)
        for sg in (null2, mono31):
            sets = list(sf.enumerate_fuzzy_sets(sg, chain))
            for a in sg.elements:
                for f in sets:
                    for g in sets:
                        assert sf.agrees_on_divisors(a, f, g) == (
                            sf.restrict(a, f) == sf.restrict(a, g))


class TestExtendByZero:
    def test_fills_nondivisors_with_zero(self, null2):
        fs = sf.restricted_fuzzy_set(null2, "a", {"a": "3/4"})
        full = sf.extend_by_zero(fs)
        assert full.as_dict() == {"0": "0", "a": "3/4"}

    def test_restrict_after_extend_is_identity(self, mono31):
        chain = sf.make_chain(2)
        for a in mono31.elements:
            for fs in sf.enumerate_restricted_sets(mono31, a, chain):
                assert sf.restrict(a, sf.extend_by_zero(fs)) == fs

    def test_extend_after_restrict_is_agreement_related(self, mono31):
        chain = sf.make_chain(2)
        for seed in range(5):
            f = sf.random_fuzzy_set(mono31, chain, seed)
            for a in mono31.elements:
                again = sf.extend_by_zero(sf.restrict(a, f))
                assert sf.agrees_on_divisors(a, f, again)


class TestSubdirectEmbedding:
    def test_componentwise_restriction(self, null2, f_null):
        tup = sf.subdirect_embed(f_null)
        assert tup.as_dict() == {
            "0": {"base": "0", "values": {"0": "1/2", "a": "3/4"}},
            "a": {"base": "a", "values": {"a": "3/4"}},
        }
        assert tup.component("a") == sf.restrict("a", f_null)

    def test_injective(self, mono31):
        chain = sf.make_chain(1)
        images = {sf.subdirect_embed(f) for f in sf.enumerate_fuzzy_sets(mono31, chain)}
        assert len(images) == 2 ** mono31.order

    def test_turns_convolution_into_componentwise_star(self, small_semigroups):
        chain = sf.make_chain(2)
        for seed, sg in enumerate(small_semigroups[::19]):
            f = sf.random_fuzzy_set(sg, chain, seed)
            g = sf.random_fuzzy_set(sg, chain, seed + 3)
            assert sf.subdirect_embed(sf.convolve(f, g)) == \
                sf.subdirect_embed(f).star(sf.subdirect_embed(g))

    def test_tuple_validation(self, null2, mono31, f_null):
        components = sf.subdirect_embed(f_null).components
        with pytest.raises(ValueError, match="one component per"):
            sf.SubdirectTuple(null2, components[:1])
        with pytest.raises(ValueError, match="based at"):
            sf.SubdirectTuple(null2, (components[1], components[0]))
        other = sf.subdirect_embed(sf.constant(mono31, 0))
        with pytest.raises(ValueError, match="different semigroups"):
            sf.subdirect_embed(f_null).star(other)
