"""The verification engine: strategies, reports, case counts, rechecks."""

import dataclasses
import json
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from semifuzz import reference as oracles
import semifuzz as sf
from semifuzz import verification


@pytest.fixture
def chain2():
    return sf.make_chain(2)


@pytest.fixture(scope="module")
def ft2():
    return sf.catalog("full_transformation", 2)


class TestStrategyAndDispatch:
    def test_unknown_theorem(self, null2, chain2):
        with pytest.raises(ValueError, match="unknown theorem"):
            sf.verify_theorem(null2, "assoc", sf.Exhaustive(chain2))

    def test_invalid_chain(self):
        with pytest.raises(ValueError, match="positive"):
            sf.make_chain(0)
        with pytest.raises(ValueError, match="start at 0"):
            sf.Chain((sf.parse_value("1/2"), sf.parse_value("1")))

    def test_sample_count_must_be_positive(self, chain2):
        with pytest.raises(ValueError, match="positive"):
            sf.Sampled(chain2, 0)

    @pytest.mark.parametrize("count, seed, bad", [
        (1.5, 0, "count"), (True, 0, "count"), ("3", 0, "count"),
        (2, "x", "seed"), (2, 1.0, "seed"), (2, False, "seed"), (2, None, "seed"),
    ])
    def test_sample_count_and_seed_must_be_integers(self, chain2, count, seed, bad):
        value = count if bad == "count" else seed
        with pytest.raises(ValueError, match=f"sample {bad} .*got {re.escape(repr(value))}$"):
            sf.Sampled(chain2, count, seed)

    def test_strategy_type_checked(self, null2, chain2):
        with pytest.raises(TypeError):
            sf.verify_theorem(null2, "star-assoc", chain2)
        with pytest.raises(TypeError, match="not a chain"):
            sf.Exhaustive((0, 1))
        with pytest.raises(TypeError, match="not a chain"):
            sf.Sampled([0, 1], 5)

    @pytest.mark.parametrize("theorem", sf.THEOREMS)
    def test_every_theorem_passes_on_small_instances(self, theorem, null2, mono31, z2,
                                                     left_zero2, chain2):
        for sg in (null2, mono31, z2, left_zero2):
            report = sf.verify_theorem(sg, theorem, sf.Exhaustive(sf.make_chain(1)))
            assert report.passed, report.counterexample
            report = sf.verify_theorem(sg, theorem, sf.Sampled(chain2, 25, seed=3))
            assert report.passed, report.counterexample


def closed_form_cases(theorem, sg, k):
    """The exhaustive case count over the chain {0, 1/k, ..., 1}, from the
    oracle divisor sets: M = (k+1)**n sets, d = |D(a)| at each base a."""
    n = sg.order
    big_m = (k + 1) ** n
    widths = [len(oracles.divisor_set(sg.table, a)) for a in range(n)]
    if theorem == "star-assoc":
        return sum(((k + 1) ** d) ** 3 for d in widths)
    if theorem == "delta-congruence":
        return sum((big_m * (k + 1) ** (n - d)) ** 2 for d in widths)
    if theorem == "quotient-iso":
        return sum(2 * big_m ** 2 + (k + 1) ** d for d in widths)
    assert theorem == "subdirect"
    return big_m * (big_m - 1) // 2 + sum((k + 1) ** d for d in widths)


FUZZY_THEOREMS = ("star-assoc", "delta-congruence", "quotient-iso", "subdirect")


class TestCaseCounts:
    def test_star_assoc_exhaustive_count(self, null2, chain2):
        # sum over base elements of (chain size ** divisor count) cubed:
        # 9**3 for base 0 (both elements divide 0) plus 3**3 for base a
        report = sf.verify_theorem(null2, "star-assoc", sf.Exhaustive(chain2))
        assert report.passed and report.cases_checked == 756

    def test_delta_congruence_exhaustive_count(self, null2, chain2):
        # related pairs: all 9x9 at base 0 (agreement everywhere) gives 9,
        # agreement only at a gives 27; quadruples are their squares
        report = sf.verify_theorem(null2, "delta-congruence", sf.Exhaustive(chain2))
        assert report.passed and report.cases_checked == 81 + 729

    def test_distributivity_exhaustive_count(self, null2, chain2):
        # value lists of width 1..3 over the chain, times the spare operand
        report = sf.verify_theorem(null2, "distributivity", sf.Exhaustive(chain2))
        assert report.passed and report.cases_checked == (3 + 9 + 27) * 3

    def test_sampled_budget_is_respected(self, mono31, chain2):
        report = sf.verify_theorem(mono31, "star-assoc", sf.Sampled(chain2, 40, seed=1))
        assert report.cases_checked == 40

    def test_kernel_criterion_includes_cross_validation(self, mono31, chain2):
        report = sf.verify_theorem(mono31, "kernel-criterion", sf.Exhaustive(chain2))
        assert report.cases_checked == mono31.order + 1

    @pytest.mark.parametrize("theorem", FUZZY_THEOREMS)
    def test_every_semigroup_of_order_at_most_3_at_chain_1(self, theorem, small_semigroups):
        assert len(small_semigroups) == 122
        strategy = sf.Exhaustive(sf.make_chain(1))
        for sg in small_semigroups:
            report = sf.verify_theorem(sg, theorem, strategy)
            assert report.passed, report.counterexample
            assert report.cases_checked == closed_form_cases(theorem, sg, 1), sg.table

    @pytest.mark.parametrize("theorem", FUZZY_THEOREMS)
    def test_every_semigroup_of_order_at_most_2_at_chain_2(self, theorem, chain2):
        for sg in [s for n in (1, 2) for s in sf.enumerate_semigroups(n)]:
            report = sf.verify_theorem(sg, theorem, sf.Exhaustive(chain2))
            assert report.passed, report.counterexample
            assert report.cases_checked == closed_form_cases(theorem, sg, 2), sg.table


# ----------------------------------------------------------------------
# planted faults: a kernel (or the agreement test) that is wrong on one
# chosen input pair must be caught at the same case, with the same
# payload, as by the case-by-case loops written out below

def wrong_on(real, *bad):
    """``real``, except that its result on the arguments ``bad`` has its
    first value moved between 0 and 1, which keeps it chain-valued."""
    def kernel(*args):
        out = real(*args)
        if args == bad:
            first = Fraction(0) if out.values[0] == 1 else Fraction(1)
            out = dataclasses.replace(out, values=(first,) + out.values[1:])
        return out
    return kernel


def complemented_when_both_end_in_one(real):
    """``real``, except that a product of two operands whose last values
    are both 1 has every value v replaced by 1 - v."""
    def kernel(f, g):
        out = real(f, g)
        if f.values[-1] == g.values[-1] == 1:
            out = dataclasses.replace(out, values=tuple(1 - v for v in out.values))
        return out
    return kernel


def naive_divisors(sg, a):
    return sorted(oracles.divisor_set(sg.table, a.index))


def naive_agree(a, f, g):
    return all(f.values[s] == g.values[s] for s in naive_divisors(f.semigroup, a))


def loop_star_assoc(sg, chain, star):
    checked = 0
    for a in sg.elements:
        sets = list(sf.enumerate_restricted_sets(sg, a, chain))
        for f in sets:
            for g in sets:
                for h in sets:
                    checked += 1
                    lhs, rhs = star(star(f, g), h), star(f, star(g, h))
                    if lhs != rhs:
                        return checked, {
                            "base": a.name, "f": f.as_dict(), "g": g.as_dict(), "h": h.as_dict(),
                            "lhs": lhs.as_dict(), "rhs": rhs.as_dict(),
                        }
    return checked, None


def loop_delta_congruence(sg, chain, conv):
    fuzz = list(sf.enumerate_fuzzy_sets(sg, chain))
    checked = 0
    for a in sg.elements:
        related = [(f, g) for f in fuzz for g in fuzz if naive_agree(a, f, g)]
        for f1, g1 in related:
            for f2, g2 in related:
                checked += 1
                if not naive_agree(a, conv(f1, f2), conv(g1, g2)):
                    return checked, {
                        "base": a.name, "f1": f1.as_dict(), "g1": g1.as_dict(),
                        "f2": f2.as_dict(), "g2": g2.as_dict(),
                    }
    return checked, None


def loop_quotient_iso(sg, chain, conv, star, agree, extend=sf.extend_by_zero):
    fuzz = list(sf.enumerate_fuzzy_sets(sg, chain))
    checked = 0
    for a in sg.elements:
        domain = naive_divisors(sg, a)
        restrictions = [sf.RestrictedFuzzySet(sg, a.index, tuple(f.values[s] for s in domain))
                        for f in fuzz]
        for f, rf in zip(fuzz, restrictions):
            for g, rg in zip(fuzz, restrictions):
                checked += 1
                if agree(a, f, g) != (rf.values == rg.values):
                    return checked, {"property": "class-separation", "base": a.name,
                                     "f": f.as_dict(), "g": g.as_dict()}
        for target in sf.enumerate_restricted_sets(sg, a, chain):
            checked += 1
            extended = extend(target)
            if tuple(extended.values[s] for s in domain) != target.values:
                return checked, {"property": "surjectivity", "base": a.name,
                                 "target": target.as_dict()}
        for f, rf in zip(fuzz, restrictions):
            for g, rg in zip(fuzz, restrictions):
                checked += 1
                fg = conv(f, g)
                lhs = sf.RestrictedFuzzySet(sg, a.index, tuple(fg.values[s] for s in domain))
                rhs = star(rf, rg)
                if lhs.values != rhs.values:
                    return checked, {"property": "homomorphism", "base": a.name,
                                     "f": f.as_dict(), "g": g.as_dict(),
                                     "lhs": lhs.as_dict(), "rhs": rhs.as_dict()}
    return checked, None


def loop_restriction_rees(sg, agree):
    embeddings = [sf.embed_element(sg, e) for e in sg.elements]
    checked = 0
    for a in sg.elements:
        rest = frozenset(range(sg.order)) - oracles.divisor_set(sg.table, a.index)
        for s in sg.elements:
            for t in sg.elements:
                checked += 1
                related = agree(a, embeddings[s.index], embeddings[t.index])
                collapsed = s == t or (s.index in rest and t.index in rest)
                if related != collapsed:
                    return checked, {"base": a.name, "s": s.name, "t": t.name,
                                     "agree_on_divisors": related, "rees_related": collapsed}
    return checked, None


@pytest.fixture
def confirm_everything(monkeypatch):
    # a planted fault is no genuine counterexample, so the independent
    # recheck would refuse it; confirm it as test_failing_report_carries_counterexample does
    monkeypatch.setattr(verification, "recheck_counterexample", lambda sg, theorem, payload: True)


class TestPlantedFaults:
    CHAIN = sf.make_chain(1)

    def assert_caught(self, sg, theorem, expected):
        checked, payload = expected
        assert payload is not None, "the planted fault is invisible to the loop"
        report = sf.verify_theorem(sg, theorem, sf.Exhaustive(self.CHAIN))
        assert report.verdict == "fail"
        assert report.cases_checked == checked
        assert report.counterexample == payload

    @pytest.mark.parametrize("pair", [(0, 0), (5, 2), (7, 7)])
    def test_star_assoc(self, mono31, pair, monkeypatch, confirm_everything, rows_of):
        # the pair is taken at the base whose divisor set is the whole carrier
        sets = list(sf.enumerate_restricted_sets(mono31, "c3", self.CHAIN))
        kernel = wrong_on(sf.star_convolve, sets[pair[0]], sets[pair[1]])
        monkeypatch.setattr(verification, "star_convolve_rows", rows_of(kernel))
        self.assert_caught(mono31, "star-assoc", loop_star_assoc(mono31, self.CHAIN, kernel))

    @pytest.mark.parametrize("pair", [(0, 0), (3, 6), (7, 1)])
    def test_delta_congruence(self, mono31, pair, monkeypatch, confirm_everything, rows_of):
        fuzz = list(sf.enumerate_fuzzy_sets(mono31, self.CHAIN))
        kernel = wrong_on(sf.convolve, fuzz[pair[0]], fuzz[pair[1]])
        monkeypatch.setattr(verification, "convolve_rows", rows_of(kernel))
        self.assert_caught(mono31, "delta-congruence",
                           loop_delta_congruence(mono31, self.CHAIN, kernel))

    @pytest.mark.parametrize("faulty", ["convolve", "star_convolve"])
    def test_quotient_iso_homomorphism(self, mono31, faulty, monkeypatch, confirm_everything,
                                       rows_of):
        fuzz = list(sf.enumerate_fuzzy_sets(mono31, self.CHAIN))
        conv, star = sf.convolve, sf.star_convolve
        if faulty == "convolve":
            conv = wrong_on(conv, fuzz[6], fuzz[3])
        else:
            f, g = (sf.restrict("c2", fuzz[i]) for i in (6, 3))
            star = wrong_on(star, f, g)
        monkeypatch.setattr(verification, "convolve_rows", rows_of(conv))
        monkeypatch.setattr(verification, "star_convolve_rows", rows_of(star))
        expected = loop_quotient_iso(mono31, self.CHAIN, conv, star, sf.agrees_on_divisors)
        assert expected[1]["property"] == "homomorphism"
        self.assert_caught(mono31, "quotient-iso", expected)

    def test_quotient_iso_class_separation(self, mono31, monkeypatch, confirm_everything,
                                           agreement_rows_of):
        fuzz = list(sf.enumerate_fuzzy_sets(mono31, self.CHAIN))
        bad = (mono31.element("c2"), fuzz[5], fuzz[2])

        def agree(a, f, g):
            return (sf.agrees_on_divisors(a, f, g)
                    != ((mono31.element(a), f, g) == bad))

        monkeypatch.setattr(verification, "agreement_rows", agreement_rows_of(agree))
        expected = loop_quotient_iso(mono31, self.CHAIN, sf.convolve, sf.star_convolve, agree)
        assert expected[1]["property"] == "class-separation"
        self.assert_caught(mono31, "quotient-iso", expected)

    @pytest.mark.parametrize("bad", [0, 2, 3])
    def test_quotient_iso_surjectivity(self, mono31, bad, monkeypatch, confirm_everything):
        # D(c2) = {c, c2}, so moving the extension's value at c breaks its restriction
        target = list(sf.enumerate_restricted_sets(mono31, "c2", self.CHAIN))[bad]
        extend = wrong_on(sf.extend_by_zero, target)
        monkeypatch.setattr(verification, "extend_by_zero", extend)
        expected = loop_quotient_iso(mono31, self.CHAIN, sf.convolve, sf.star_convolve,
                                     sf.agrees_on_divisors, extend)
        assert expected[1] == {"property": "surjectivity", "base": "c2",
                               "target": target.as_dict()}
        self.assert_caught(mono31, "quotient-iso", expected)

    @pytest.mark.parametrize("sg_name, bad", [
        ("mono31", ("c", "c", "c")), ("mono31", ("c2", "c3", "c2")),
        ("mono31", ("c3", "c3", "c")), ("null2", ("a", "0", "a")),
    ])
    def test_restriction_rees(self, request, sg_name, bad, monkeypatch, confirm_everything):
        sg = request.getfixturevalue(sg_name)
        embeddings = [sf.embed_element(sg, e) for e in sg.elements]
        wrong = (sg.element(bad[0]), embeddings[sg.element(bad[1]).index],
                 embeddings[sg.element(bad[2]).index])

        def agree(a, f, g):
            return sf.agrees_on_divisors(a, f, g) != ((sg.element(a), f, g) == wrong)

        monkeypatch.setattr(verification, "agrees_on_divisors", agree)
        self.assert_caught(sg, "restriction-rees", loop_restriction_rees(sg, agree))

    # recorded from the hand-written sampled loops that the row generators
    # replaced; they pin each sampled stream per seed
    @pytest.mark.parametrize("sg_name, theorem, kernel, checked, payload", [
        ("mono31", "star-assoc", "star_convolve", 15, {"base": "c3",
            "f": {"base": "c3", "values": {"c": "1/3", "c2": "1", "c3": "1"}},
            "g": {"base": "c3", "values": {"c": "0", "c2": "1", "c3": "1"}},
            "h": {"base": "c3", "values": {"c": "1/3", "c2": "0", "c3": "2/3"}},
            "lhs": {"base": "c3", "values": {"c": "0", "c2": "1/3", "c3": "2/3"}},
            "rhs": {"base": "c3", "values": {"c": "0", "c2": "0", "c3": "2/3"}}}),
        ("mono31", "delta-congruence", "convolve", 9, {"base": "c2",
            "f1": {"c": "1", "c2": "1/3", "c3": "1/3"},
            "g1": {"c": "1", "c2": "1/3", "c3": "1"},
            "f2": {"c": "1", "c2": "1/3", "c3": "1/3"},
            "g2": {"c": "1", "c2": "1/3", "c3": "1"}}),
        ("mono31", "quotient-iso", "convolve", 30, {"property": "homomorphism",
            "base": "c3",
            "f": {"c": "1/3", "c2": "1", "c3": "1"},
            "g": {"c": "0", "c2": "1", "c3": "1"},
            "lhs": {"base": "c3", "values": {"c": "1", "c2": "1", "c3": "0"}},
            "rhs": {"base": "c3", "values": {"c": "0", "c2": "0", "c3": "1"}}}),
        ("mono31", "quotient-iso", "star_convolve", 3, {"property": "homomorphism",
            "base": "c2",
            "f": {"c": "1", "c2": "1", "c3": "1/3"},
            "g": {"c": "1/3", "c2": "1", "c3": "1/3"},
            "lhs": {"base": "c2", "values": {"c": "0", "c2": "1/3"}},
            "rhs": {"base": "c2", "values": {"c": "1", "c2": "2/3"}}}),
        ("ft2", "star-assoc", "star_convolve", 28, {"base": "t11",
            "f": {"base": "t11", "values": {"t11": "1", "t12": "0", "t21": "1/3", "t22": "1/3"}},
            "g": {"base": "t11", "values": {"t11": "2/3", "t12": "2/3", "t21": "1/3", "t22": "1"}},
            "h": {"base": "t11", "values": {"t11": "1/3", "t12": "0", "t21": "1", "t22": "1"}},
            "lhs": {"base": "t11", "values": {"t11": "0", "t12": "2/3", "t21": "2/3", "t22": "0"}},
            "rhs": {"base": "t11",
                    "values": {"t11": "2/3", "t12": "1/3", "t21": "1/3", "t22": "1/3"}}}),
        ("ft2", "delta-congruence", "convolve", 44, {"base": "t12",
            "f1": {"t11": "1/3", "t12": "2/3", "t21": "0", "t22": "0"},
            "g1": {"t11": "2/3", "t12": "2/3", "t21": "0", "t22": "1"},
            "f2": {"t11": "1/3", "t12": "1", "t21": "0", "t22": "0"},
            "g2": {"t11": "1", "t12": "1", "t21": "0", "t22": "1"}}),
        ("ft2", "quotient-iso", "convolve", 93, {"property": "homomorphism",
            "base": "t12",
            "f": {"t11": "0", "t12": "1", "t21": "1", "t22": "1"},
            "g": {"t11": "2/3", "t12": "1/3", "t21": "1", "t22": "1"},
            "lhs": {"base": "t12", "values": {"t12": "0", "t21": "0"}},
            "rhs": {"base": "t12", "values": {"t12": "1", "t21": "1"}}}),
        ("ft2", "quotient-iso", "star_convolve", 75, {"property": "homomorphism",
            "base": "t21",
            "f": {"t11": "2/3", "t12": "1/3", "t21": "1", "t22": "1/3"},
            "g": {"t11": "0", "t12": "1", "t21": "1", "t22": "1/3"},
            "lhs": {"base": "t21", "values": {"t12": "1", "t21": "1"}},
            "rhs": {"base": "t21", "values": {"t12": "0", "t21": "0"}}}),
    ])
    def test_sampled_streams(self, request, sg_name, theorem, kernel, checked, payload,
                             monkeypatch, confirm_everything):
        sg = request.getfixturevalue(sg_name)
        monkeypatch.setattr(verification, kernel,
                            complemented_when_both_end_in_one(getattr(sf, kernel)))
        report = sf.verify_theorem(sg, theorem, sf.Sampled(sf.make_chain(3), 500, seed=11))
        assert report.verdict == "fail"
        assert report.cases_checked == checked
        assert report.counterexample == payload

    @pytest.mark.parametrize("theorem, kernel", [
        ("star-assoc", "star_convolve"), ("delta-congruence", "convolve"),
        ("quotient-iso", "convolve"), ("quotient-iso", "star_convolve"),
    ])
    def test_product_outside_the_universe_is_an_inconsistency(self, mono31, theorem, kernel,
                                                               monkeypatch, rows_of):
        real = getattr(sf, kernel)

        def off_chain(f, g):
            out = real(f, g)
            return dataclasses.replace(out, values=(Fraction(1, 3),) + out.values[1:])

        monkeypatch.setattr(verification, f"{kernel}_rows", rows_of(off_chain))
        with pytest.raises(RuntimeError, match="outside the enumerated universe"):
            sf.verify_theorem(mono31, theorem, sf.Exhaustive(self.CHAIN))


def fresh_values(real):
    """``real``, with every value of its result replaced by an equal but
    distinct Fraction object."""
    def kernel(*args):
        out = real(*args)
        fresh = tuple(Fraction(v.numerator, v.denominator) for v in out.values)
        assert all(x is not y for x, y in zip(fresh, out.values))
        return dataclasses.replace(out, values=fresh)
    return kernel


class TestIdentityLookup:
    """Universe members are found by the identities of their value
    objects, with an exact lookup by value as the fallback."""

    def test_identical_values_take_the_identity_lookup(self, mono31, chain2):
        universe = list(sf.enumerate_fuzzy_sets(mono31, chain2))
        positions = verification._Positions(universe)
        for i, u in enumerate(universe):
            assert positions.locate(tuple(u.values)) == i
        assert positions.by_values is None

    def test_equal_values_take_the_exact_fallback(self, mono31, chain2):
        universe = list(sf.enumerate_fuzzy_sets(mono31, chain2))
        positions = verification._Positions(universe)
        copy = fresh_values(lambda f: f)(universe[17])
        assert positions.locate(copy.values) == 17
        assert positions.by_values is not None
        outside = (Fraction(1, 3),) * 3
        with pytest.raises(RuntimeError, match="outside the enumerated universe"):
            positions.locate(outside)

    @pytest.mark.parametrize("theorem", ["star-assoc", "delta-congruence", "quotient-iso"])
    def test_sweeps_agree_when_no_value_object_is_shared(self, mono31, theorem, monkeypatch,
                                                        rows_of):
        strategy = sf.Exhaustive(sf.make_chain(2))
        expected = sf.verify_theorem(mono31, theorem, strategy)
        # every divisor gather, behind restrict, agreement_rows and the
        # restricted positions of quotient-iso, returns new, equal objects
        monkeypatch.setitem(mono31.__dict__, "_divisor_gathers", tuple(
            lambda values, gather=gather: tuple(Fraction(v.numerator, v.denominator)
                                                for v in gather(values))
            for gather in mono31._divisor_gathers))
        for name in ("convolve", "star_convolve"):
            monkeypatch.setattr(verification, f"{name}_rows", rows_of(fresh_values(getattr(sf, name))))
        report = sf.verify_theorem(mono31, theorem, strategy)
        assert report.verdict == expected.verdict == "pass"
        assert report.cases_checked == expected.cases_checked


class TestUniverseLimit:
    def test_boundary(self):
        verification._require_small_universe(sf.make_chain(3), 6)  # 4**6 = 4096
        with pytest.raises(ValueError, match=r"2\*\*13 = 8192 fuzzy sets"):
            verification._require_small_universe(sf.make_chain(1), 13)

    def test_oversized_universes_are_refused_up_front(self, tmp_path):
        # run where the address space is capped, so that materializing a
        # 51**27-set universe fails the test instead of exhausting the machine
        path = tmp_path / "ft3.json"
        path.write_text(json.dumps(sf.semigroup_to_json(sf.catalog("full_transformation", 3))))
        script = (
            "import resource, sys\n"
            "cap = 1 << 30\n"
            "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
            "import semifuzz as sf\n"
            "from semifuzz import cli\n"
            "sg = sf.catalog('full_transformation', 3)\n"
            f"for theorem in {FUZZY_THEOREMS!r}:\n"
            "    try:\n"
            "        sf.verify_theorem(sg, theorem, sf.Exhaustive(sf.make_chain(50)))\n"
            "    except ValueError as exc:\n"
            "        print(theorem, 'refused:', exc)\n"
            f"sys.exit(cli.main(['verify', {str(path)!r}, '--chain', '50',"
            " '--theorem', 'delta-congruence']))\n"
        )
        src = os.path.dirname(os.path.dirname(sf.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2, proc.stderr
        lines = proc.stdout.splitlines()
        assert [line.split()[0] for line in lines] == list(FUZZY_THEOREMS)
        assert all("51**27 = " + str(51 ** 27) in line for line in lines)
        assert proc.stderr.startswith("error: ") and "51**27" in proc.stderr

    def test_element_checks_and_sampling_are_unaffected(self):
        sg = sf.catalog("full_transformation", 3)
        chain = sf.make_chain(50)
        assert sf.verify_theorem(sg, "phi-embedding", sf.Exhaustive(chain)).passed
        for theorem in FUZZY_THEOREMS:
            report = sf.verify_theorem(sg, theorem, sf.Sampled(chain, 2, seed=1))
            assert report.passed, report.counterexample


class TestReports:
    def test_report_fields(self, null2, chain2):
        report = sf.verify_theorem(null2, "subdirect", sf.Exhaustive(chain2))
        assert report.theorem == "subdirect"
        assert report.strategy == "exhaustive"
        assert report.seed is None
        assert report.counterexample is None
        assert report.instance["order"] == 2
        assert report.instance["chain"] == ["0", "1/2", "1"]
        assert report.instance["semigroup"]["elements"] == ["0", "a"]

    def test_report_json_round_trips(self, null2, chain2):
        report = sf.verify_theorem(null2, "phi-embedding", sf.Exhaustive(chain2))
        blob = report.to_json()
        assert json.loads(json.dumps(blob)) == blob
        assert blob["verdict"] == "pass"
        assert set(blob) == {"theorem", "instance", "strategy", "seed", "verdict",
                             "cases_checked", "counterexample"}

    def test_sampled_runs_are_reproducible(self, mono31, chain2):
        first = sf.verify_theorem(mono31, "quotient-iso", sf.Sampled(chain2, 60, seed=11))
        second = sf.verify_theorem(mono31, "quotient-iso", sf.Sampled(chain2, 60, seed=11))
        assert first == second
        assert first.seed == 11 and first.strategy == "sampled"

    def test_sampled_quotient_iso_restricts_each_operand_once(self, mono31, chain2, monkeypatch):
        # per draw: f and g once each, the surjectivity target's extension, and fg
        calls = []
        real = verification.restrict
        monkeypatch.setattr(verification, "restrict", lambda a, f: calls.append(a) or real(a, f))
        report = sf.verify_theorem(mono31, "quotient-iso", sf.Sampled(chain2, 60, seed=11))
        assert report.passed and report.cases_checked == 3 * 60
        assert len(calls) == 4 * 60

    def test_summary_line(self, null2, chain2):
        report = sf.verify_theorem(null2, "distributivity", sf.Sampled(chain2, 10, seed=2))
        assert "distributivity" in report.summary()
        assert "PASS" in report.summary()
        assert "seed 2" in report.summary()


class TestCoreCriterionEdges:
    def test_singleton_semigroup(self, chain2):
        sg = sf.build_semigroup(["x"], [["x"]])
        report = sf.verify_theorem(sg, "core-criterion", sf.Exhaustive(chain2))
        assert report.passed and report.cases_checked == 1

    def test_coreless_semigroup(self, chain2):
        # two non-trivial principal ideals meeting only in the zero:
        # no core, so no non-zero element may have a small non-divisor set
        sg = sf.catalog("null", 3)
        assert sg.core() is None
        report = sf.verify_theorem(sg, "core-criterion", sf.Exhaustive(chain2))
        assert report.passed

    def test_zero_divides_everything(self, mono31, chain2):
        _, rest = mono31.divisor_partition(mono31.zero_element())
        assert len(rest) == 0
        report = sf.verify_theorem(mono31, "core-criterion", sf.Exhaustive(chain2))
        assert report.passed


class TestRecheck:
    def test_fabricated_star_assoc_payload_rejected(self, mono31):
        flat = {"base": "c2", "values": {"c": "0", "c2": "0"}}
        payload = {"base": "c2", "f": flat, "g": flat, "h": flat, "lhs": {}, "rhs": {}}
        assert not sf.recheck_counterexample(mono31, "star-assoc", payload)

    def test_fabricated_delta_payload_with_false_hypotheses_rejected(self, null2):
        payload = {
            "base": "a",
            "f1": {"0": "0", "a": "1"}, "g1": {"0": "0", "a": "0"},
            "f2": {"0": "0", "a": "0"}, "g2": {"0": "0", "a": "0"},
        }
        assert not sf.recheck_counterexample(null2, "delta-congruence", payload)

    def test_fabricated_embedding_payload_rejected(self, null2):
        payload = {"property": "homomorphism", "s": "a", "t": "a", "lhs": {}, "rhs": {}}
        assert not sf.recheck_counterexample(null2, "phi-embedding", payload)
        payload = {"property": "injectivity", "s": "0", "t": "a"}
        assert not sf.recheck_counterexample(null2, "phi-embedding", payload)

    def test_fabricated_rees_payload_rejected(self, mono31):
        payload = {"base": "c2", "s": "c3", "t": "c3"}
        assert not sf.recheck_counterexample(mono31, "restriction-rees", payload)

    def test_fabricated_kernel_payload_rejected(self, mono31):
        assert not sf.recheck_counterexample(
            mono31, "kernel-criterion", {"element": "c3", "divisor_count": 3, "in_kernel": True})
        assert not sf.recheck_counterexample(
            mono31, "kernel-criterion",
            {"property": "cross-validation", "kernel": ["c3"], "least_ideal": ["c3"]})

    def test_fabricated_core_payload_rejected(self, mono31):
        assert not sf.recheck_counterexample(
            mono31, "core-criterion", {"element": "c", "nondivisor_count": 2, "in_core": False})
        assert not sf.recheck_counterexample(
            mono31, "core-criterion",
            {"property": "cross-validation", "core": ["c2", "c3"],
             "least_nontrivial_ideal": ["c2", "c3"]})

    def test_fabricated_distributivity_payload_rejected(self, null2):
        payload = {"law": "meet-over-join", "values": ["1/2", "1"], "b": "1/3"}
        assert not sf.recheck_counterexample(null2, "distributivity", payload)

    def test_verifier_refuses_unconfirmed_counterexamples(self, null2, chain2, monkeypatch):
        def lying_checker(sg, chain, rng, count):
            return 1, {"law": "meet-over-join", "values": ["1"], "b": "1"}

        monkeypatch.setitem(verification._CHECKERS, "distributivity", lying_checker)
        with pytest.raises(RuntimeError, match="recheck"):
            sf.verify_theorem(null2, "distributivity", sf.Exhaustive(chain2))

    def test_failing_report_carries_counterexample(self, null2, chain2, monkeypatch):
        # a genuinely violating payload cannot arise from the real checks, so
        # fabricate a checker whose payload the recheck does confirm: break
        # the distributivity payload by inverting the roles in the claim
        def checker(sg, chain, rng, count):
            return 5, {"law": "join-over-meet", "values": ["0", "1"], "b": "1/2"}

        def confirm(sg, theorem, payload):
            return True

        monkeypatch.setitem(verification._CHECKERS, "distributivity", checker)
        monkeypatch.setattr(verification, "recheck_counterexample", confirm)
        report = sf.verify_theorem(null2, "distributivity", sf.Exhaustive(chain2))
        assert not report.passed
        assert report.verdict == "fail"
        assert report.cases_checked == 5
        assert report.counterexample["values"] == ["0", "1"]
        blob = report.to_json()
        assert json.loads(json.dumps(blob))["counterexample"] == report.counterexample

    def test_distributivity_recheck_is_independent(self, mono31, chain2, monkeypatch):
        # a main-path evaluator that sees a violation everywhere must not
        # be able to confirm its own counterexample
        def always_violated(values, b):
            return {"law": "meet-over-join", "values": [str(v) for v in values], "b": str(b)}

        monkeypatch.setattr(verification, "_distributivity_violation", always_violated)
        with pytest.raises(RuntimeError, match="recheck"):
            sf.verify_theorem(mono31, "distributivity", sf.Exhaustive(chain2))

    def test_unknown_theorem_recheck(self, null2):
        with pytest.raises(ValueError, match="unknown theorem"):
            sf.recheck_counterexample(null2, "nope", {})


class TestPolynomialRecheck:
    """Above CROSS_VALIDATION_LIMIT the recheck reads principal ideals, never
    subset enumeration, which would visit 2**40 subsets on the 40-element
    closure and hang instead of reporting a library fault."""

    @pytest.fixture(autouse=True)
    def no_subset_enumeration(self, monkeypatch):
        def refuse(table):
            pytest.fail(f"subset enumeration over 2**{len(table)} subsets")
        monkeypatch.setattr(oracles, "all_ideals", refuse)

    @pytest.fixture(scope="class")
    def closure40(self):
        return sf.transformation_closure([(1, 2, 3, 0), (0, 0, 0, 3)])

    @pytest.mark.parametrize("method, theorem", [
        ("kernel", "kernel-criterion"), ("core", "core-criterion"),
    ])
    def test_planted_fault_is_an_inconsistency(self, closure40, method, theorem, monkeypatch):
        assert closure40.order > verification.CROSS_VALIDATION_LIMIT
        real = getattr(sf.Semigroup, method)
        # one element of the true kernel or core goes missing
        monkeypatch.setattr(sf.Semigroup, method,
                            lambda sg: sg.subset(sorted(real(sg).names())[1:]))
        with pytest.raises(sf.VerifierInconsistency, match="failed its independent recheck"):
            sf.verify_theorem(closure40, theorem, sf.Exhaustive(sf.make_chain(1)))

    def test_subdirect_separation_reads_divisor_sets_in_one_pass(self, mono31, monkeypatch):
        calls = []
        real = oracles.principal_ideals
        monkeypatch.setattr(oracles, "principal_ideals", lambda table: calls.append(1) or real(table))
        # f and g differ only at c3, which lies in the divisor set of c3 alone,
        # the last base a per-base recheck would read
        payload = {"property": "separation",
                   "f": {"c": "0", "c2": "0", "c3": "1"}, "g": {"c": "0", "c2": "0", "c3": "0"}}
        assert not sf.recheck_counterexample(mono31, "subdirect", payload)
        assert len(calls) == 1

    def test_divisor_sets_match_divisor_set(self, small_semigroups):
        for sg in small_semigroups:
            assert oracles.divisor_sets(sg.table) == [
                oracles.divisor_set(sg.table, a) for a in range(sg.order)]
