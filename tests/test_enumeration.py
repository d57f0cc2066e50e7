"""Chains, streams, catalog families, closure, and seeded randomness."""

import random
import re
import warnings
from fractions import Fraction
from itertools import product

import pytest

from semifuzz import reference as oracles
import semifuzz as sf
from semifuzz.enumeration import _draws
from semifuzz.fuzzy import ONE, ZERO


class TestChains:
    @pytest.mark.parametrize("k, expected", [
        (1, ("0", "1")),
        (2, ("0", "1/2", "1")),
        (4, ("0", "1/4", "1/2", "3/4", "1")),
    ])
    def test_make_chain(self, k, expected):
        chain = sf.make_chain(k)
        assert tuple(str(v) for v in chain) == expected

    def test_zero_resolution_rejected(self):
        with pytest.raises(ValueError):
            sf.make_chain(0)

    @pytest.mark.parametrize("k", [True, 2.0, "2", None])
    def test_non_integer_resolution_rejected(self, k):
        with pytest.raises(ValueError, match=f"got {re.escape(repr(k))}$"):
            sf.make_chain(k)

    @pytest.mark.parametrize("values", [
        (Fraction(0), 0.5, Fraction(1)),
        (0.0, Fraction(1, 2), Fraction(1)),
        (Fraction(0), True),
        (False, Fraction(1)),
    ])
    def test_float_and_bool_values_rejected(self, values):
        with pytest.raises(ValueError, match="floating point|not a membership value"):
            sf.Chain(values)

    def test_inner_values_keep_their_identity(self):
        half = Fraction(1, 2)
        assert sf.Chain((Fraction(0), half, Fraction(1))).values[1] is half

    def test_chain_of_sorts_and_dedupes(self):
        chain = sf.chain_of(["1", "1/2", "0", "2/4"])
        assert chain == sf.make_chain(2)

    def test_chain_needs_both_endpoints(self):
        with pytest.raises(ValueError, match="start at 0"):
            sf.chain_of(["1/2", "1"])
        with pytest.raises(ValueError, match="start at 0"):
            sf.chain_of(["0", "1/2"])

    def test_endpoints_are_the_kernel_constants(self):
        # kernel results that reach 0 then hold the chain's own 0 object,
        # which the exhaustive sweeps look up by identity
        for chain in (sf.make_chain(1), sf.make_chain(3), sf.chain_of(["0", "1/3", "1"])):
            assert chain.values[0] is ZERO and chain.values[-1] is ONE

    def test_membership(self):
        chain = sf.make_chain(2)
        assert Fraction(1, 2) in chain and Fraction(1, 3) not in chain


class TestFuzzyStream:
    def test_counts(self, null2, mono31):
        assert len(list(sf.enumerate_fuzzy_sets(null2, sf.make_chain(1)))) == 4
        assert len(list(sf.enumerate_fuzzy_sets(mono31, sf.make_chain(1)))) == 8
        assert len(list(sf.enumerate_fuzzy_sets(null2, sf.make_chain(2)))) == 9

    def test_no_duplicates_and_deterministic(self, mono31):
        first = list(sf.enumerate_fuzzy_sets(mono31, sf.make_chain(2)))
        assert len(set(first)) == len(first) == 27
        assert first == list(sf.enumerate_fuzzy_sets(mono31, sf.make_chain(2)))
        assert first[0] == sf.constant(mono31, 0)
        assert first[-1] == sf.constant(mono31, 1)

    def test_restricted_stream(self, mono31):
        sets = list(sf.enumerate_restricted_sets(mono31, "c2", sf.make_chain(2)))
        assert len(sets) == len(set(sets)) == 9


class TestSemigroupStream:
    def test_order_one(self):
        assert [sg.order for sg in sf.enumerate_semigroups(1)] == [1]

    def test_order_two_count(self, order2_semigroups):
        assert len(order2_semigroups) == 8

    def test_yields_only_valid_tables(self, order2_semigroups):
        for sg in order2_semigroups:
            assert oracles.first_nonassociative_triple(sg.table) is None

    def test_no_duplicates(self, order2_semigroups):
        assert len(set(order2_semigroups)) == 8

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            list(sf.enumerate_semigroups(0))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_the_naive_filter(self, n):
        # the full scan the backtracking search replaces: every candidate
        # table in lexicographic order, kept when the oracle finds no
        # non-associative triple
        names = tuple("abc"[:n])
        naive = []
        for flat in product(range(n), repeat=n * n):
            table = tuple(flat[i:i + n] for i in range(0, n * n, n))
            if oracles.first_nonassociative_triple(table) is None:
                naive.append(sf.Semigroup(names, table))
        assert list(sf.enumerate_semigroups(n)) == naive

    def test_order_four(self):
        # OEIS A023814: 3492 labeled semigroups of order 4
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            tables = [sg.table for sg in sf.enumerate_semigroups(4)]
        assert len(tables) == 3492
        assert all(oracles.first_nonassociative_triple(t) is None for t in tables)
        assert all(a < b for a, b in zip(tables, tables[1:]))

    def test_warns_above_exhaustive_limit(self):
        stream = sf.enumerate_semigroups(4)
        with pytest.warns(UserWarning, match="order <= 3"):
            next(stream)
        stream.close()


class TestCatalog:
    def test_left_zero_law(self):
        sg = sf.catalog("left_zero", 4)
        for x in sg.elements:
            for y in sg.elements:
                assert sg.product(x, y) == x

    def test_right_zero_law(self):
        sg = sf.catalog("right_zero", 3)
        for x in sg.elements:
            for y in sg.elements:
                assert sg.product(x, y) == y

    def test_null_collapses_to_zero(self):
        sg = sf.catalog("null", 4)
        zero = sg.zero_element()
        assert zero.name == "0"
        for x in sg.elements:
            for y in sg.elements:
                assert sg.product(x, y) == zero

    def test_cyclic_group_structure(self):
        sg = sf.catalog("cyclic_group", 4)
        assert sg.names == ("e", "g", "g2", "g3")
        assert sg.product("g2", "g3") == sg.element("g")
        assert sg.kernel().indices == frozenset(range(4))

    def test_monogenic_order_and_kernel_size(self):
        for index in range(1, 5):
            for period in range(1, 5):
                sg = sf.catalog("monogenic", index, period)
                assert sg.order == index + period - 1
                assert len(sg.kernel()) == period

    def test_monogenic_power_law(self):
        sg = sf.catalog("monogenic", 3, 1)
        assert sg.product("c2", "c2").name == "c3"

    def test_full_transformation_2(self):
        sg = sf.catalog("full_transformation", 2)
        assert sg.names == ("t11", "t12", "t21", "t22")
        # two constants, the identity, and the swap; swap squares to identity
        assert sg.product("t21", "t21") == sg.element("t12")
        assert sg.product("t11", "t21") == sg.element("t22")

    def test_full_transformation_orders(self):
        assert sf.catalog("full_transformation", 1).order == 1
        assert sf.catalog("full_transformation", 3).order == 27

    def test_full_transformation_degree_capped(self):
        with pytest.raises(ValueError, match="up to degree 3"):
            sf.catalog("full_transformation", 4)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown catalog family"):
            sf.catalog("diagonal", 2)

    @pytest.mark.parametrize("args", [("left_zero",), ("left_zero", 1, 2),
                                      ("monogenic", 3), ("null", 0), ("cyclic_group", -1)])
    def test_bad_params(self, args):
        with pytest.raises(ValueError):
            sf.catalog(*args)


class TestTransformationClosure:
    def test_constant_map_closes_to_singleton(self):
        sg = sf.transformation_closure([(0, 0, 0)])
        assert sg.order == 1

    def test_swap_and_constant_generate_everything(self):
        sg = sf.transformation_closure([(1, 0), (0, 0)])
        assert sg == sf.catalog("full_transformation", 2)

    def test_closed_set_is_fixed_point(self):
        closed = sf.transformation_closure([(0, 1), (1, 0)])
        assert closed.names == ("t12", "t21")
        assert sf.transformation_closure([(0, 1), (1, 0)]) == closed

    def test_generator_order_does_not_matter(self):
        one = sf.transformation_closure([(1, 0), (0, 0)])
        two = sf.transformation_closure([(0, 0), (1, 0)])
        assert one == two

    def test_errors(self):
        with pytest.raises(ValueError, match="at least one"):
            sf.transformation_closure([])
        with pytest.raises(ValueError, match="same set"):
            sf.transformation_closure([(0, 1), (0, 1, 2)])
        with pytest.raises(ValueError, match="self-map"):
            sf.transformation_closure([(0, 5)])

    @pytest.mark.parametrize("generators", [[(0.0, 1)], ["10"], [5], [(True, False)],
                                            [(0, 1), (1, None)], [(0, 1), {0: 1, 1: 0}]])
    def test_malformed_generators(self, generators):
        with pytest.raises(ValueError, match=re.escape(repr(generators[-1]))):
            sf.transformation_closure(generators)


class TestSeededRandomness:
    def test_fuzzy_set_deterministic(self, mono31):
        chain = sf.make_chain(2)
        assert sf.random_fuzzy_set(mono31, chain, 9) == sf.random_fuzzy_set(mono31, chain, 9)

    def test_values_come_from_the_chain(self, mono31):
        chain = sf.make_chain(3)
        for seed in range(20):
            assert all(v in chain for v in sf.random_fuzzy_set(mono31, chain, seed).values)

    def test_seeds_are_allowed_to_differ(self, mono31):
        chain = sf.make_chain(2)
        draws = {sf.random_fuzzy_set(mono31, chain, seed) for seed in range(30)}
        assert len(draws) > 1

    @pytest.mark.parametrize("seed", ["x", 1.5, True, None])
    def test_seed_must_be_an_integer(self, mono31, seed):
        chain = sf.make_chain(2)
        with pytest.raises(ValueError, match=re.escape(repr(seed))):
            sf.random_fuzzy_set(mono31, chain, seed)
        with pytest.raises(ValueError, match=re.escape(repr(seed))):
            sf.random_restricted_set(mono31, "c2", chain, seed)

    def test_draws_are_randrange_picks(self):
        # the same picks and the same generator state after, for 1 to 39
        # values, every width from 1 to 128, and a seed of its own each
        for n in range(1, 40):
            vals = tuple(Fraction(i, n) for i in range(n))
            for width in range(1, 129):
                ours, theirs = random.Random(1000 * n + width), random.Random(1000 * n + width)
                picks = tuple(vals[theirs.randrange(len(vals))] for _ in range(width))
                assert _draws(ours, vals, width) == picks
                assert ours.getstate() == theirs.getstate()

    def test_restricted_deterministic(self, mono31):
        chain = sf.make_chain(2)
        first = sf.random_restricted_set(mono31, "c2", chain, 4)
        assert first == sf.random_restricted_set(mono31, "c2", chain, 4)
        assert first.base_element.name == "c2"
