"""Construction, validation, and ideal structure of Cayley-table semigroups."""

import json
import os
import subprocess
import sys
from itertools import product

import pytest

from semifuzz import reference as oracles
import semifuzz as sf
from semifuzz.semigroups import _generators

CLOSURE_40 = [(1, 2, 3, 0), (0, 0, 0, 3)]
CLOSURE_128 = [(1, 2, 3, 0), (0, 0, 2, 3)]
ABC = ("a", "b", "c")


def all_order3_tables():
    for flat in product(range(3), repeat=9):
        yield tuple(flat[i:i + 3] for i in range(0, 9, 3))


def verdict(names, table):
    """The witness build_semigroup reports, as indices, or None if it accepts."""
    try:
        sf.build_semigroup(names, [[names[v] for v in row] for row in table])
    except sf.AssociativityError as exc:
        return tuple(names.index(name) for name in exc.witness)
    return None


@pytest.fixture(scope="module")
def wide_semigroups():
    return [sf.catalog("full_transformation", 3), sf.transformation_closure(CLOSURE_128)]


def names_of(element_set):
    return set(element_set.names())


class TestBuild:
    def test_left_zero_is_valid(self):
        sg = sf.build_semigroup(["a", "b"], [["a", "a"], ["b", "b"]])
        assert sg.order == 2
        assert sg.product("a", "b").name == "a"

    def test_null_is_valid(self):
        sg = sf.build_semigroup(["0", "a"], [["0", "0"], ["0", "0"]])
        assert sg.product("a", "a").name == "0"

    def test_single_element(self):
        sg = sf.build_semigroup(["x"], [["x"]])
        assert sg.order == 1

    def test_rejects_empty_carrier(self):
        with pytest.raises(ValueError, match="at least one"):
            sf.build_semigroup([], [])

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            sf.build_semigroup(["a", "a"], [["a", "a"], ["a", "a"]])

    def test_rejects_unknown_name(self):
        with pytest.raises(ValueError, match="'x'"):
            sf.build_semigroup(["a", "b"], [["a", "x"], ["b", "b"]])

    def test_rejects_ragged_table(self):
        with pytest.raises(ValueError, match="row 1"):
            sf.build_semigroup(["a", "b"], [["a", "a"], ["b"]])

    def test_rejects_wrong_row_count(self):
        with pytest.raises(ValueError, match="rows"):
            sf.build_semigroup(["a", "b"], [["a", "a"]])

    def test_reports_witness_triple(self):
        # brute-force scan of the raw table confirms (a, a, b) violates
        # associativity: (a*a)*b = b*b = a while a*(a*b) = a*a = b
        raw = [[1, 0], [0, 0]]
        assert oracles.first_nonassociative_triple(raw) == (0, 0, 1)
        with pytest.raises(sf.AssociativityError) as excinfo:
            sf.build_semigroup(["a", "b"], [["b", "a"], ["a", "a"]])
        assert excinfo.value.witness == ("a", "a", "b")

    def test_light_test_on_every_order3_table(self):
        accepted = 0
        for table in all_order3_tables():
            expected = oracles.first_nonassociative_triple(table)
            assert verdict(ABC, table) == expected, table
            accepted += expected is None
        assert accepted == 113

    @pytest.mark.parametrize("semigroup", [
        sf.catalog("full_transformation", 3), sf.transformation_closure(CLOSURE_40),
    ], ids=["full_transformation-3", "closure-40"])
    def test_light_test_on_single_cell_perturbations(self, semigroup):
        # several generators, so the test runs over more than one row
        # family; every cell moved to the next element, one at a time
        assert len(_generators(semigroup)) > 1
        names, table = semigroup.names, semigroup.table
        n = semigroup.order
        assert verdict(names, table) is None
        rejected = 0
        for x, y in product(range(n), repeat=2):
            rows = [list(row) for row in table]
            rows[x][y] = (rows[x][y] + 1) % n
            expected = oracles.first_nonassociative_triple(rows)
            assert verdict(names, rows) == expected, (x, y)
            rejected += expected is not None
        assert rejected > 0

    def test_element_coercion(self, mono31):
        e = mono31.element("c2")
        assert mono31.element(1) == e
        assert mono31.element(e) == e
        with pytest.raises(ValueError):
            mono31.element("nope")
        with pytest.raises(ValueError):
            mono31.element(7)
        with pytest.raises(TypeError):
            mono31.element(1.5)

    def test_foreign_element_rejected(self, mono31, null2):
        with pytest.raises(ValueError):
            mono31.element(null2.element("a"))

    def test_equal_element_objects_coerce_to_the_cached_one(self, mono31):
        own = mono31.elements[1]
        assert mono31.element(own) is own
        equal = sf.Element(1, "c2")
        assert equal is not own and equal == own
        assert mono31.element(equal) is own

    @pytest.mark.parametrize("ref", [
        sf.Element(3, "c"),   # past the end
        sf.Element(-1, "c3"),  # negative, even with the last element's name
        sf.Element(0, "c2"),  # in range, wrong name
    ])
    def test_out_of_range_or_misnamed_element_rejected(self, mono31, ref):
        with pytest.raises(ValueError, match="does not belong"):
            mono31.element(ref)


class TestProducts:
    def test_left_zero_product(self, left_zero2):
        assert left_zero2.product("a", "b") == left_zero2.element("a")

    def test_null_product(self, null2):
        assert null2.product("a", "a") == null2.element("0")

    def test_monogenic_product(self, mono31):
        # c^i * c^j = c^min(i+j, 3)
        assert mono31.product("c2", "c2") == mono31.element("c3")
        assert mono31.product("c", "c") == mono31.element("c2")
        assert mono31.product("c3", "c") == mono31.element("c3")


class TestSquares:
    def test_examples(self, null2, left_zero2, mono31):
        assert names_of(null2.square_set()) == {"0"}
        assert names_of(left_zero2.square_set()) == {"a", "b"}
        assert names_of(mono31.square_set()) == {"c2", "c3"}

    def test_matches_oracle(self, small_semigroups):
        for sg in small_semigroups:
            assert sg.square_set().indices == oracles.square_set(sg.table)


class TestFactorizations:
    def test_null_examples(self, null2):
        zero, a = null2.elements
        assert null2.factorizations("0") == ((zero, zero), (zero, a), (a, zero), (a, a))
        assert null2.factorizations("a") == ()

    def test_monogenic_example(self, mono31):
        c = mono31.element("c")
        assert mono31.factorizations("c2") == ((c, c),)

    def test_empty_iff_outside_squares(self, small_semigroups):
        for sg in small_semigroups:
            squares = sg.square_set()
            for s in sg.elements:
                assert (len(sg.factorizations(s)) == 0) == (s not in squares)


class TestPrincipalIdeals:
    def test_examples(self, null2, left_zero2):
        assert names_of(null2.principal_ideal("a")) == {"0", "a"}
        assert names_of(null2.principal_ideal("0")) == {"0"}
        assert names_of(left_zero2.principal_ideal("a")) == {"a", "b"}

    def test_monogenic(self, mono31):
        assert names_of(mono31.principal_ideal("c")) == {"c", "c2", "c3"}
        assert names_of(mono31.principal_ideal("c2")) == {"c2", "c3"}
        assert names_of(mono31.principal_ideal("c3")) == {"c3"}

    def test_matches_adjoined_identity_oracle(self, small_semigroups, catalog_roster):
        for sg in small_semigroups + catalog_roster:
            for s in range(sg.order):
                assert sg.principal_ideal(s).indices == oracles.principal_ideal(sg.table, s)

    def test_bitmasks_match_oracle_on_wide_semigroups(self, wide_semigroups):
        for sg in wide_semigroups:
            ideals = [oracles.principal_ideal(sg.table, s) for s in range(sg.order)]
            assert [sg.principal_ideal(s).indices for s in range(sg.order)] == ideals
            # oracles.divisor_set recomputes every ideal per call; reuse them
            for a in range(sg.order):
                expected = frozenset(s for s in range(sg.order) if a in ideals[s])
                assert sg.divisor_partition(a)[0].indices == expected
        sg = wide_semigroups[0]
        assert [sg.divisor_partition(a)[0].indices for a in range(sg.order)] == [
            oracles.divisor_set(sg.table, a) for a in range(sg.order)]

    def test_contains_generator(self, small_semigroups):
        for sg in small_semigroups:
            for s in sg.elements:
                assert s in sg.principal_ideal(s)


class TestDivisorPartition:
    def test_null_examples(self, null2):
        divisors, rest = null2.divisor_partition("a")
        assert names_of(divisors) == {"a"} and names_of(rest) == {"0"}
        divisors, rest = null2.divisor_partition("0")
        assert names_of(divisors) == {"0", "a"} and len(rest) == 0

    def test_monogenic_example(self, mono31):
        divisors, rest = mono31.divisor_partition("c2")
        assert names_of(divisors) == {"c", "c2"}
        assert names_of(rest) == {"c3"}

    def test_matches_oracle(self, small_semigroups, catalog_roster):
        for sg in small_semigroups + catalog_roster:
            for a in range(sg.order):
                divisors, rest = sg.divisor_partition(a)
                expected = oracles.divisor_set(sg.table, a)
                assert divisors.indices == expected
                assert rest.indices == frozenset(range(sg.order)) - expected

    def test_invariants(self, small_semigroups):
        for sg in small_semigroups:
            for a in sg.elements:
                divisors, rest = sg.divisor_partition(a)
                assert a in divisors
                assert len(rest) == 0 or rest.is_ideal()
                # a factorization of a divisor consists of divisors
                for x in sg.elements:
                    for y in sg.elements:
                        if sg.product(x, y) in divisors:
                            assert x in divisors and y in divisors


    # a*x = b*x = a, c*a = b, c*b = c, c*c = a.  J(c*a) = J(b) = {a, b, c}
    # is not inside J(a) = {a, b}: the non-divisors of c are {a}, and
    # c*a = b leaves them
    NOT_A_SEMIGROUP = (("a", "b", "c"), ((0, 0, 0), (0, 0, 0), (1, 2, 0)))

    def test_check_raises_on_direct_construction(self):
        sg = sf.Semigroup(*self.NOT_A_SEMIGROUP)
        with pytest.raises(sf.AssociativityError) as excinfo:
            sg.divisor_partition(0)
        witness = oracles.first_nonassociative_triple(self.NOT_A_SEMIGROUP[1])
        assert excinfo.value.witness == tuple(ABC[i] for i in witness)

    def test_check_survives_optimize_flag(self):
        script = (
            "import semifuzz as sf\n"
            f"sg = sf.Semigroup(*{self.NOT_A_SEMIGROUP!r})\n"
            "try:\n"
            "    sg.divisor_partition(0)\n"
            "except sf.AssociativityError:\n"
            "    raise SystemExit(3)\n"
        )
        src = os.path.dirname(os.path.dirname(sf.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 3, proc.stderr

    def test_check_fires_where_the_complement_is_not_an_ideal(self):
        # on every order-3 magma the once-per-semigroup check fires exactly
        # when some divisor complement, taken with the library's J(s) =
        # {s} | Ss | sS | S(sS), is neither empty nor an ideal
        fired = 0
        for table in all_order3_tables():
            ideals = [{s} | {table[x][s] for x in range(3)} | set(table[s])
                      | {table[x][y] for y in table[s] for x in range(3)} for s in range(3)]
            expected = any(
                rest and not oracles.is_ideal(table, rest)
                for rest in (frozenset(s for s in range(3) if a not in ideals[s])
                             for a in range(3)))
            sg = sf.Semigroup(ABC, table)
            try:
                sg.divisor_partition(0)
            except sf.AssociativityError:
                fires = True
            else:
                fires = False
            assert fires == expected, table
            fired += fires
        assert fired == 3006


class TestIdealsKernelCore:
    def test_is_ideal_examples(self, null2, left_zero2, mono31):
        assert null2.subset(["0"]).is_ideal()
        assert not left_zero2.subset(["a"]).is_ideal()
        for sg in (null2, left_zero2, mono31):
            assert sg.subset(sg.names).is_ideal()
        assert not null2.subset([]).is_ideal()

    def test_kernel_examples(self, null2, z2, mono31):
        assert names_of(null2.kernel()) == {"0"}
        assert names_of(z2.kernel()) == {"e", "g"}
        assert names_of(mono31.kernel()) == {"c3"}

    def test_kernel_matches_ideal_enumeration(self, small_semigroups, catalog_roster):
        for sg in small_semigroups + catalog_roster:
            assert sg.kernel().indices == oracles.least_ideal(sg.table)

    def test_zero_examples(self, null2, left_zero2, mono31):
        assert null2.zero_element().name == "0"
        assert left_zero2.zero_element() is None
        assert mono31.zero_element().name == "c3"

    def test_zero_matches_oracle(self, small_semigroups, catalog_roster):
        closures = [sf.transformation_closure(gens) for gens in (CLOSURE_40, CLOSURE_128)]
        for sg in small_semigroups + catalog_roster + closures:
            zero = sg.zero_element()
            assert (None if zero is None else zero.index) == oracles.zero_of(sg.table)

    def test_core_examples(self, null2, mono31, z2):
        assert names_of(null2.core()) == {"0", "a"}
        assert names_of(mono31.core()) == {"c2", "c3"}
        assert names_of(z2.core()) == {"e", "g"}

    def test_core_of_singleton_is_none(self):
        sg = sf.build_semigroup(["x"], [["x"]])
        assert sg.core() is None

    def test_null3_has_no_core(self):
        # two incomparable non-trivial principal ideals meeting in the zero
        sg = sf.catalog("null", 3)
        assert sg.core() is None
        assert oracles.least_ideal(sg.table, 2) is None

    def test_core_matches_ideal_enumeration(self, small_semigroups, catalog_roster):
        for sg in small_semigroups + catalog_roster:
            core = sg.core()
            expected = oracles.least_ideal(sg.table, 2)
            assert (None if core is None else core.indices) == expected

    def test_principal_ideal_oracle_matches_ideal_enumeration(self, small_semigroups,
                                                              catalog_roster):
        for sg in small_semigroups + catalog_roster:
            assert oracles.least_principal_ideal(sg.table) == oracles.least_ideal(sg.table)
            assert (oracles.least_principal_ideal(sg.table, 2)
                    == oracles.least_ideal(sg.table, 2))

    @pytest.mark.parametrize("generators", [CLOSURE_40, CLOSURE_128])
    def test_kernel_and_core_on_wide_closures(self, generators):
        # kernel() and core() check nothing per call, so check them here on
        # carriers too wide for subset enumeration
        sg = sf.transformation_closure(generators)
        assert sg.kernel().indices == oracles.least_principal_ideal(sg.table)
        core = sg.core()
        assert (None if core is None else core.indices) == oracles.least_principal_ideal(sg.table, 2)


class TestReesCongruence:
    def test_monogenic_classes(self, mono31):
        _, rest = mono31.divisor_partition("c")
        rel = mono31.rees_congruence(rest)
        assert [names_of(block) for block in rel.classes()] == [{"c"}, {"c2", "c3"}]

    def test_empty_set_gives_identity(self, mono31):
        rel = mono31.rees_congruence(mono31.subset([]))
        assert rel == sf.ElementRelation(mono31, frozenset((x, x) for x in range(mono31.order)))

    def test_singleton_ideal_collapses_nothing(self, null2):
        rel = null2.rees_congruence(null2.subset(["0"]))
        assert [names_of(block) for block in rel.classes()] == [{"0"}, {"a"}]

    def test_rejects_non_ideal(self, left_zero2):
        with pytest.raises(ValueError, match="not an ideal"):
            left_zero2.rees_congruence(left_zero2.subset(["a"]))

    def test_rejects_foreign_subset(self, left_zero2, null2):
        with pytest.raises(ValueError, match="different semigroup"):
            left_zero2.rees_congruence(null2.subset(["0"]))

    def test_is_congruence(self, small_semigroups):
        for sg in small_semigroups:
            for a in sg.elements:
                _, rest = sg.divisor_partition(a)
                rel = sg.rees_congruence(rest)
                assert rel.is_equivalence()
                assert rel.is_congruence()

    def test_is_congruence_on_the_40_element_closure(self):
        # rees_congruence no longer checks itself per call, so check it here
        # on a carrier with many distinct divisor complements
        sg = sf.transformation_closure(CLOSURE_40)
        for a in range(sg.order):
            rest = frozenset(range(sg.order)) - oracles.divisor_set(sg.table, a)
            rel = sg.rees_congruence(sg.subset(sorted(rest)))
            assert rel.pairs == ({(x, x) for x in range(sg.order)}
                                 | {(x, y) for x in rest for y in rest})
            assert rel.is_congruence()

    def test_membership_lookup(self, mono31):
        _, rest = mono31.divisor_partition("c")
        rel = mono31.rees_congruence(rest)
        assert ("c2", "c3") in rel
        assert ("c", "c2") not in rel


class TestJson:
    def test_round_trip_is_bit_exact(self, mono31):
        blob = sf.semigroup_to_json(mono31)
        again = sf.semigroup_from_json(json.loads(json.dumps(blob)))
        assert again == mono31
        assert sf.semigroup_to_json(again) == blob

    def test_element_order_preserved(self):
        obj = {"elements": ["b", "a"], "table": [["b", "b"], ["a", "a"]]}
        sg = sf.semigroup_from_json(obj)
        assert sg.names == ("b", "a")
        assert sf.semigroup_to_json(sg) == obj

    @pytest.mark.parametrize("broken, message", [
        ([], "must be an object"),
        ({"table": [["a"]]}, "elements"),
        ({"elements": ["a"]}, "table"),
        ({"elements": "a", "table": [["a"]]}, "array of strings"),
        ({"elements": ["a"], "table": "a"}, "array of arrays"),
    ])
    def test_schema_errors(self, broken, message):
        with pytest.raises(ValueError, match=message):
            sf.semigroup_from_json(broken)


class TestImmutability:
    def test_frozen_types(self, null2):
        with pytest.raises(AttributeError):
            null2.names = ("x",)
        subset = null2.subset(["0"])
        with pytest.raises(AttributeError):
            subset.indices = frozenset()

    def test_subset_validation(self, null2):
        with pytest.raises(ValueError):
            sf.ElementSet(null2, frozenset({5}))
