"""Membership values, the two sup-min products, and the batched rows
behind the verifier's exhaustive tables."""

import dataclasses
import operator
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from semifuzz import decomposition, fuzzy, reference as oracles
import semifuzz as sf

unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=64)


def to_map(f):
    """Library fuzzy set as a plain index dict, for oracle comparison."""
    return dict(enumerate(f.values))


class TestValues:
    @pytest.mark.parametrize("raw, expected", [
        ("0", Fraction(0)),
        ("1", Fraction(1)),
        ("7/10", Fraction(7, 10)),
        ("2/4", Fraction(1, 2)),
        (0, Fraction(0)),
        (1, Fraction(1)),
        (Fraction(1, 3), Fraction(1, 3)),
    ])
    def test_accepted_forms(self, raw, expected):
        assert sf.parse_value(raw) == expected

    @pytest.mark.parametrize("raw", [
        "0.5", "1e-3", ".5", "1/2/3", "-1/3", "a", "", 0.5, -1, 2, "3/2", True, None, [1],
        "1/0",
    ])
    def test_rejected_forms(self, raw):
        with pytest.raises(ValueError):
            sf.parse_value(raw)

    @pytest.mark.parametrize("raw", ["\u0661/\u0662", "\uff11/\uff12", "\u0661", "1/\u0662"])
    def test_non_ascii_digits_rejected(self, raw):
        # Arabic-Indic and fullwidth digits: Fraction would read them as 1/2
        with pytest.raises(ValueError, match="malformed"):
            sf.parse_value(raw)

    @pytest.mark.parametrize("raw", ["1\n", " 1", "1 ", "1/2\n", "\t0"])
    def test_surrounding_whitespace_rejected(self, raw):
        with pytest.raises(ValueError, match="malformed"):
            sf.parse_value(raw)

    def test_format_is_canonical(self, null2):
        assert sf.FuzzySet(null2, (Fraction(0), Fraction(1))).as_dict() == {"0": "0", "a": "1"}
        assert sf.constant(null2, Fraction(2, 4)).as_dict() == {"0": "1/2", "a": "1/2"}

    @given(value=unit_fractions)
    def test_parse_format_round_trip(self, null2, value):
        text = sf.constant(null2, value).as_dict()["a"]
        assert sf.parse_value(text) == value


class TestConstruction:
    def test_mapping_must_cover_carrier(self, null2):
        with pytest.raises(ValueError, match="missing"):
            sf.fuzzy_set(null2, {"0": "1/2"})
        with pytest.raises(ValueError, match="unknown"):
            sf.fuzzy_set(null2, {"0": "1/2", "a": "1/2", "b": "1"})

    def test_callable_constructor(self, null2):
        f = sf.fuzzy_set(null2, lambda e: Fraction(e.index, 2))
        assert f("0") == 0 and f("a") == Fraction(1, 2)

    def test_constant(self, null2):
        f = sf.constant(null2, 0)
        assert all(v == 0 for v in f.values)

    def test_characteristic_examples(self, null2):
        f = sf.characteristic(null2.subset(["a"]))
        assert f.as_dict() == {"0": "0", "a": "1"}
        everything = sf.characteristic(null2.subset(["0", "a"]))
        assert all(v == 1 for v in everything.values)

    def test_characteristic_of_empty_set_is_an_error(self, null2):
        with pytest.raises(ValueError, match="empty"):
            sf.characteristic(null2.subset([]))

    def test_json_round_trip(self, null2):
        f = sf.fuzzy_set(null2, {"0": "1/2", "a": "7/10"})
        assert sf.fuzzy_set_from_json(null2, f.as_dict()) == f

    def test_restricted_validation(self, mono31):
        with pytest.raises(ValueError, match="not a divisor"):
            sf.restricted_fuzzy_set(mono31, "c2", {"c": "0", "c2": "0", "c3": "0"})
        with pytest.raises(ValueError, match="missing"):
            sf.restricted_fuzzy_set(mono31, "c2", {"c": "0"})

    def test_mapping_errors_name_the_element(self, null2, mono31):
        # one parser serves both constructors; each keeps its own wording
        with pytest.raises(ValueError, match="^fuzzy set is missing values for: a$"):
            sf.fuzzy_set(null2, {"0": "1/2"})
        with pytest.raises(ValueError, match="^missing values for divisors: c2$"):
            sf.restricted_fuzzy_set(mono31, "c2", {"c": "0"})
        with pytest.raises(ValueError, match="^'c3' is not a divisor of 'c2'$"):
            sf.restricted_fuzzy_set(mono31, "c2", {"c3": "0"})
        with pytest.raises(ValueError, match="^element 'a' assigned twice$"):
            sf.fuzzy_set(null2, {"a": "0", 1: "1", "0": "0"})
        with pytest.raises(ValueError, match="^element 'c' assigned twice$"):
            sf.restricted_fuzzy_set(mono31, "c2", {"c": "0", 0: "1", "c2": "0"})

    def test_embed_element_is_the_characteristic_of_a_singleton(self, mono31):
        for e in mono31.elements:
            assert sf.embed_element(mono31, e.name) == sf.characteristic(mono31.subset([e]))
        assert sf.embed_element(mono31, "c2").as_dict() == {"c": "0", "c2": "1", "c3": "0"}

    def test_restricted_json_round_trip(self, mono31):
        fs = sf.restricted_fuzzy_set(mono31, "c2", {"c": "1/3", "c2": "1"})
        assert sf.restricted_from_json(mono31, fs.as_dict()) == fs

    def test_restricted_lookup_outside_domain(self, mono31):
        fs = sf.restricted_fuzzy_set(mono31, "c2", {"c": "1/3", "c2": "1"})
        assert fs("c") == Fraction(1, 3)
        with pytest.raises(ValueError, match="not a divisor"):
            fs("c3")


class TestConvolve:
    def test_worked_null_example(self, null2):
        # max of min over the four factorizations of 0:
        # min(1/2,3/10), min(1/2,9/10), min(7/10,3/10), min(7/10,9/10) -> 7/10
        f = sf.fuzzy_set(null2, {"0": "1/2", "a": "7/10"})
        g = sf.fuzzy_set(null2, {"0": "3/10", "a": "9/10"})
        result = sf.convolve(f, g)
        assert result.as_dict() == {"0": "7/10", "a": "0"}
        assert to_map(result) == oracles.convolve(null2.table, to_map(f), to_map(g))

    def test_zero_outside_squares(self, small_semigroups):
        chain = sf.make_chain(2)
        for sg in small_semigroups[:40]:
            squares = sg.square_set()
            f = sf.random_fuzzy_set(sg, chain, 1)
            g = sf.random_fuzzy_set(sg, chain, 2)
            result = sf.convolve(f, g)
            for s in sg.elements:
                if s not in squares:
                    assert result(s) == 0

    def test_left_zero_embedding_example(self, left_zero2):
        ca = sf.embed_element(left_zero2, "a")
        cb = sf.embed_element(left_zero2, "b")
        assert sf.convolve(ca, cb) == ca  # ab = a

    def test_matches_oracle_on_random_sets(self, small_semigroups):
        chain = sf.chain_of(["0", "1/4", "2/3", "1"])
        for seed, sg in enumerate(small_semigroups[::7]):
            f = sf.random_fuzzy_set(sg, chain, seed)
            g = sf.random_fuzzy_set(sg, chain, seed + 1000)
            assert to_map(sf.convolve(f, g)) == oracles.convolve(sg.table, to_map(f), to_map(g))

    def test_mul_operator(self, null2):
        f = sf.fuzzy_set(null2, {"0": "1/2", "a": "7/10"})
        assert f * f == sf.convolve(f, f)

    def test_semigroup_mismatch(self, null2, left_zero2):
        f = sf.constant(null2, 1)
        g = sf.constant(left_zero2, 1)
        with pytest.raises(ValueError, match="different semigroups"):
            sf.convolve(f, g)

    def test_associative_exhaustively_at_order_two(self, order2_semigroups):
        chain = sf.make_chain(1)
        for sg in order2_semigroups:
            sets = list(sf.enumerate_fuzzy_sets(sg, chain))
            for f in sets:
                for g in sets:
                    for h in sets:
                        assert (f * g) * h == f * (g * h)

    def test_triple_product_formula(self, small_semigroups):
        # two-step convolution equals the flattened three-factor formula
        chain = sf.chain_of(["0", "1/3", "1/2", "1"])
        for seed, sg in enumerate(small_semigroups[::11]):
            f = sf.random_fuzzy_set(sg, chain, seed)
            g = sf.random_fuzzy_set(sg, chain, seed + 1)
            h = sf.random_fuzzy_set(sg, chain, seed + 2)
            two_step = to_map(sf.convolve(sf.convolve(f, g), h))
            direct = oracles.triple_product(
                sg.table, range(sg.order), to_map(f), to_map(g), to_map(h))
            assert two_step == direct

    def test_triple_product_formula_on_divisor_sets(self, small_semigroups):
        # the same flattening holds for the restricted product on each
        # divisor set, which is what makes it associative there
        chain = sf.chain_of(["0", "2/5", "1"])
        for seed, sg in enumerate(small_semigroups[::23]):
            for a in sg.elements:
                fs = sf.random_restricted_set(sg, a, chain, seed)
                gs = sf.random_restricted_set(sg, a, chain, seed + 1)
                hs = sf.random_restricted_set(sg, a, chain, seed + 2)
                two_step = sf.star_convolve(sf.star_convolve(fs, gs), hs)
                domain = sorted(e.index for e in fs.domain)
                direct = oracles.triple_product(
                    sg.table, domain,
                    {e.index: fs(e) for e in fs.domain},
                    {e.index: gs(e) for e in gs.domain},
                    {e.index: hs(e) for e in hs.domain})
                assert {e.index: two_step(e) for e in two_step.domain} == direct

    def test_chain_closure(self, mono31):
        chain = sf.make_chain(4)
        for seed in range(10):
            f = sf.random_fuzzy_set(mono31, chain, seed)
            g = sf.random_fuzzy_set(mono31, chain, seed + 50)
            assert all(v in chain for v in sf.convolve(f, g).values)


class TestEmbedding:
    def test_homomorphism_everywhere(self, null2, left_zero2, mono31, z2):
        for sg in (null2, left_zero2, mono31, z2):
            for s in sg.elements:
                for t in sg.elements:
                    lhs = sf.convolve(sf.embed_element(sg, s), sf.embed_element(sg, t))
                    assert lhs == sf.embed_element(sg, sg.product(s, t))

    def test_null_squares_to_zero(self, null2):
        ca = sf.embed_element(null2, "a")
        assert sf.convolve(ca, ca) == sf.embed_element(null2, "0")

    def test_injective(self, mono31):
        images = {sf.embed_element(mono31, s) for s in mono31.elements}
        assert len(images) == mono31.order


class TestStarConvolve:
    def test_null_base_a_has_no_factorizations(self, null2):
        fs = sf.restricted_fuzzy_set(null2, "a", {"a": "9/10"})
        gs = sf.restricted_fuzzy_set(null2, "a", {"a": "1/2"})
        assert sf.star_convolve(fs, gs).values == (Fraction(0),)

    def test_monogenic_example(self, mono31):
        # D_c2 = {c, c2}; the only factorization of c2 is (c, c); c is not a square
        fs = sf.restricted_fuzzy_set(mono31, "c2", {"c": "1/3", "c2": "4/5"})
        gs = sf.restricted_fuzzy_set(mono31, "c2", {"c": "2/3", "c2": "1/5"})
        result = sf.star_convolve(fs, gs)
        assert result("c2") == Fraction(1, 3)
        assert result("c") == 0

    def test_matches_oracle(self, small_semigroups):
        chain = sf.chain_of(["0", "1/5", "1/2", "1"])
        for seed, sg in enumerate(small_semigroups[::13]):
            for a in sg.elements:
                fs = sf.random_restricted_set(sg, a, chain, seed)
                gs = sf.random_restricted_set(sg, a, chain, seed + 1)
                domain = oracles.divisor_set(sg.table, a.index)
                fmap = {e.index: fs(e) for e in fs.domain}
                gmap = {e.index: gs(e) for e in gs.domain}
                expected = oracles.star(sg.table, sorted(domain), fmap, gmap)
                got = sf.star_convolve(fs, gs)
                assert {e.index: got(e) for e in got.domain} == expected

    def test_restriction_compatibility(self, small_semigroups):
        # restricting a convolution equals star-convolving the restrictions
        chain = sf.make_chain(3)
        for seed, sg in enumerate(small_semigroups[::17]):
            f = sf.random_fuzzy_set(sg, chain, seed)
            g = sf.random_fuzzy_set(sg, chain, seed + 7)
            for a in sg.elements:
                lhs = sf.restrict(a, sf.convolve(f, g))
                rhs = sf.star_convolve(sf.restrict(a, f), sf.restrict(a, g))
                assert lhs == rhs

    def test_base_mismatch(self, mono31):
        fs = sf.restricted_fuzzy_set(mono31, "c2", {"c": "1/3", "c2": "4/5"})
        gs = sf.restricted_fuzzy_set(mono31, "c3", {"c": "0", "c2": "0", "c3": "0"})
        with pytest.raises(ValueError, match="bases"):
            sf.star_convolve(fs, gs)


class TestLatticeLaws:
    @given(st.lists(unit_fractions, min_size=1, max_size=6), unit_fractions)
    def test_meet_distributes_over_join(self, values, b):
        assert min(max(values), b) == max(min(v, b) for v in values)

    @given(st.lists(unit_fractions, min_size=1, max_size=6), unit_fractions)
    def test_join_distributes_over_meet(self, values, b):
        assert max(min(values), b) == min(max(v, b) for v in values)


# ----------------------------------------------------------------------
# the batched rows behind the verifier's exhaustive product tables

def product_rows(universe):
    """``fuzzy._sup_min_rows`` over the values of ``universe``, fuzzy sets
    of one semigroup and, if restricted, of one base."""
    u = universe[0]
    return fuzzy._sup_min_rows(u.semigroup, getattr(u, "base", None), [u.values for u in universe])


def assert_rows_match(rows, universe, kernel):
    """``rows`` holds the value tuple of ``kernel`` of every ordered pair
    of ``universe``, in row-major order, with the kernel's very value
    objects."""
    rows = list(rows)
    assert len(rows) == len(universe)
    for f, row in zip(universe, rows):
        assert len(row) == len(universe)
        for g, got in zip(universe, row):
            expected = kernel(f, g).values
            assert type(got) is tuple and got == expected
            assert all(map(operator.is_, got, expected))


def fresh(u):
    """``u`` with every value held by a new, equal Fraction object."""
    return dataclasses.replace(u, values=tuple(Fraction(v.numerator, v.denominator)
                                               for v in u.values))


CLOSURE_40 = [(1, 2, 3, 0), (0, 0, 0, 3)]
CLOSURE_128 = [(1, 2, 3, 0), (0, 0, 2, 3)]
CLOSURE_12 = [(3, 1, 0, 3), (3, 3, 2, 0)]
FULL_TRANSFORMATIONS_2 = [(1, 0), (0, 0)]


class TestProductRows:
    @pytest.mark.parametrize("semigroups, k", [
        ("small_semigroups", 1), ("small_semigroups", 2), ("order2_semigroups", 4)])
    def test_every_pair_on_the_carrier_and_at_every_base(self, request, semigroups, k):
        chain = sf.make_chain(k)
        for sg in request.getfixturevalue(semigroups):
            universe = list(sf.enumerate_fuzzy_sets(sg, chain))
            assert_rows_match(product_rows(universe), universe, sf.convolve)
            for a in sg.elements:
                universe = list(sf.enumerate_restricted_sets(sg, a, chain))
                assert_rows_match(product_rows(universe), universe, sf.star_convolve)

    def test_equal_values_held_by_distinct_objects(self, mono31):
        # every member holds its own objects, zeros included, so no two
        # members share a value object and the kernel's 0 appears in none
        chain = sf.make_chain(2)
        for sg in (mono31, sf.catalog("full_transformation", 2)):
            universe = [fresh(u) for u in sf.enumerate_fuzzy_sets(sg, chain)]
            assert_rows_match(product_rows(universe), universe, sf.convolve)
            universe = [fresh(u) for u in sf.enumerate_restricted_sets(sg, sg.order - 1, chain)]
            assert_rows_match(product_rows(universe), universe, sf.star_convolve)

    def test_rows_are_settled_as_they_are_taken(self, mono31, monkeypatch):
        universe = list(sf.enumerate_fuzzy_sets(mono31, sf.make_chain(2)))
        settled = []
        real = fuzzy._settle_masks
        monkeypatch.setattr(fuzzy, "_settle_masks", lambda *args: settled.append(1) or real(*args))
        rows = product_rows(universe)
        assert settled == []
        next(rows)
        assert len(settled) == len(universe)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("generators", [CLOSURE_40, CLOSURE_128], ids=["closure40", "closure128"])
    def test_the_width_4_bases_of_the_wide_closures(self, generators, k):
        sg = sf.transformation_closure(generators)
        bases = [a for a, domain in enumerate(sg._divisor_domains) if len(domain) == 4]
        assert len(bases) == 4
        for a in bases:
            universe = list(sf.enumerate_restricted_sets(sg, a, sf.make_chain(k)))
            assert_rows_match(product_rows(universe), universe, sf.star_convolve)

    def test_the_widest_tables_allowed(self):
        # a 12-element carrier, one element of it no product, has tables of
        # 12 * 2**12 masks; each base's divisor set is narrower
        sg = sf.transformation_closure(CLOSURE_12)
        assert sg.order == 12 and len(sg.square_set()) == 11
        chain = sf.make_chain(16).values
        rng = random.Random(12)
        universe = [sf.FuzzySet(sg, tuple(rng.choice(chain) for _ in range(12))) for _ in range(20)]
        assert_rows_match(product_rows(universe), universe, sf.convolve)
        for a in range(sg.order):
            restricted = [sf.restrict(a, f) for f in universe]
            assert_rows_match(product_rows(restricted), restricted, sf.star_convolve)

    @pytest.mark.parametrize("star", [False, True])
    @pytest.mark.parametrize("side", ["row", "column"])
    def test_a_fault_planted_in_the_table_shows(self, side, star):
        # f is 1 on x alone and g is 1 everywhere, so f*g is 1 exactly on
        # row x of the table; with side "column", f and g trade places and
        # f*g is 1 on column x.  The kernel element 0 of the full
        # transformation monoid on two points has every element for a
        # divisor, so position t of a row is element t either way.  A
        # target planted out of that row or column must lose its value in
        # the rows, as it does in the table.
        sg = sf.transformation_closure(FULL_TRANSFORMATIONS_2)
        x = 2
        pair = [sf.characteristic(sg.subset([x])), sf.constant(sg, 1)]
        if side == "column":
            pair.reverse()
        if star:
            pair = [sf.restrict(0, f) for f in pair]
            assert len(pair[0].values) == sg.order
        t = sg.table[x][0] if side == "row" else sg.table[0][x]
        assert list(product_rows(pair))[0][1][t] == 1
        stand_in = (t + 1) % sg.order
        sg.__dict__["table"] = tuple(
            tuple(stand_in if u == t and (s if side == "row" else y) == x else u
                  for y, u in enumerate(line))
            for s, line in enumerate(sg.table))
        assert list(product_rows(pair))[0][1][t] == 0

    @pytest.mark.parametrize("star", [False, True])
    def test_a_domain_too_wide_for_the_tables_is_refused(self, star):
        sg = sf.catalog("null", 13)
        pair = [sf.constant(sg, 1), sf.constant(sg, "1/2")]
        if star:
            pair = [sf.restrict(0, f) for f in pair]
        start = time.perf_counter()
        with pytest.raises(ValueError, match="13 domain elements"):
            next(product_rows(pair))
        assert time.perf_counter() - start < 1


# ----------------------------------------------------------------------
# the batched rows and class codes behind the verifier's exhaustive
# agreement tests

def assert_agreement_rows_match(sg, universe):
    """At every base of ``sg``, ``agreement_rows`` holds
    ``agrees_on_divisors`` of every ordered pair of ``universe``."""
    for a in sg.elements:
        rows = list(decomposition.agreement_rows(sg, a.index, [u.values for u in universe]))
        assert rows == [[sf.agrees_on_divisors(a, f, g) for g in universe] for f in universe]
        assert all(type(ok) is bool for row in rows for ok in row)


def assert_agreement_classes_match(sg, universe):
    """At every base of ``sg``, two members of ``universe`` have equal
    ``agreement_classes`` codes exactly when ``agrees_on_divisors`` holds."""
    for a in sg.elements:
        classes = decomposition.agreement_classes(sg, a.index, [u.values for u in universe])
        assert all(type(c) is int for c in classes)
        assert [[c == d for d in classes] for c in classes] == [
            [sf.agrees_on_divisors(a, f, g) for g in universe] for f in universe]


class TestAgreementRows:
    match = staticmethod(assert_agreement_rows_match)

    @pytest.mark.parametrize("k", [1, 2])
    def test_every_pair_at_every_base(self, small_semigroups, k):
        chain = sf.make_chain(k)
        for sg in small_semigroups:
            self.match(sg, list(sf.enumerate_fuzzy_sets(sg, chain)))

    def test_the_embeddings_of_the_40_element_closure(self):
        sg = sf.transformation_closure(CLOSURE_40)
        assert sg.order == 40
        self.match(sg, [sf.embed_element(sg, e) for e in sg.elements])

    def test_equal_values_held_by_distinct_objects(self, mono31):
        # every other member holds its own objects, so equal values meet
        # both as shared and as distinct objects, within a member and across
        chain = sf.make_chain(2)
        for sg in (mono31, sf.catalog("full_transformation", 2)):
            universe = list(sf.enumerate_fuzzy_sets(sg, chain))
            self.match(sg, [fresh(u) for u in universe])
            self.match(sg, [fresh(u) if i % 2 else u for i, u in enumerate(universe)])


class TestAgreementClasses(TestAgreementRows):
    """The same cases, on the codes ``agreement_rows`` compares."""

    match = staticmethod(assert_agreement_classes_match)
