"""Acceptance criteria, one test per criterion, exact equality throughout.

Every test prints a single PASS/FAIL line (run with -s to see them on
success; pytest shows captured output for failures).  The identities are
equalities of exact rationals, so there is no tolerance anywhere: a
criterion passes only with zero counterexamples.
"""

import time

import pytest

from semifuzz import reference as oracles
import semifuzz as sf

CHAIN01 = sf.make_chain(1)
CHAIN012 = sf.make_chain(2)


def report(number, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {verdict} [{detail}]")
    assert ok, f"criterion {number} ({name}): {detail}"


def sweep(semigroups, theorem, chain):
    """Run one theorem over many semigroups; returns (failures, case count)."""
    failures = []
    cases = 0
    for sg in semigroups:
        rep = sf.verify_theorem(sg, theorem, sf.Exhaustive(chain))
        cases += rep.cases_checked
        if not rep.passed:
            failures.append(rep)
    return failures, cases


def test_criterion_1_star_associativity(order3_semigroups, order2_semigroups):
    start = time.monotonic()
    failures, cases = sweep(order3_semigroups, "star-assoc", CHAIN01)
    small = list(sf.enumerate_semigroups(1)) + order2_semigroups
    failures2, cases2 = sweep(small, "star-assoc", CHAIN012)
    elapsed = time.monotonic() - start
    ok = not failures and not failures2 and len(order3_semigroups) == 113 and elapsed < 60
    report(1, "star associativity", ok,
           f"{cases} order-3 cases + {cases2} small-order cases in {elapsed:.1f}s")


def test_criterion_2_delta_congruence(order2_semigroups):
    start = time.monotonic()
    failures, cases = sweep(order2_semigroups, "delta-congruence", CHAIN012)
    elapsed = time.monotonic() - start
    ok = not failures and len(order2_semigroups) == 8 and elapsed < 60
    report(2, "agreement relation is a congruence", ok,
           f"{cases} quadruples over 8 semigroups in {elapsed:.1f}s")


def test_criterion_3_quotient_isomorphism(small_semigroups):
    failures, cases = sweep(small_semigroups, "quotient-iso", CHAIN01)
    report(3, "restriction is an isomorphism", not failures,
           f"{cases} cases over {len(small_semigroups)} semigroups")


def test_criterion_4_subdirect_embedding(small_semigroups):
    failures, cases = sweep(small_semigroups, "subdirect", CHAIN01)
    report(4, "subdirect separation and surjectivity", not failures,
           f"{cases} cases over {len(small_semigroups)} semigroups")


def test_criterion_5_element_embedding(small_semigroups, catalog_roster):
    roster = small_semigroups + catalog_roster + [sf.catalog("full_transformation", 3)]
    failures, cases = sweep(roster, "phi-embedding", CHAIN01)
    report(5, "characteristic embedding", not failures,
           f"{cases} cases over {len(roster)} semigroups incl. 27 transformations")


def test_criterion_6_restriction_is_rees(small_semigroups, catalog_roster):
    # the divisor-set check (every complement empty or an ideal) runs once
    # per semigroup and raises; a sweep with zero failures means it never fired
    roster = small_semigroups + catalog_roster
    failures, cases = sweep(roster, "restriction-rees", CHAIN01)
    report(6, "restricted congruence equals Rees congruence", not failures,
           f"{cases} element pairs over {len(roster)} semigroups")


def test_criterion_7_kernel_criterion(small_semigroups):
    failures, cases = sweep(small_semigroups, "kernel-criterion", CHAIN01)
    mismatches = sum(
        1 for sg in small_semigroups
        if sg.kernel().indices != oracles.least_ideal(sg.table)
    )
    ok = not failures and mismatches == 0
    report(7, "kernel criterion", ok,
           f"{cases} cases; kernel matches subset-enumeration oracle on all "
           f"{len(small_semigroups)} semigroups")


def test_criterion_8_core_criterion(small_semigroups):
    failures, cases = sweep(small_semigroups, "core-criterion", CHAIN01)
    core_mismatches = 0
    zero_violations = 0
    for sg in small_semigroups:
        core = sg.core()
        expected = oracles.least_ideal(sg.table, 2)
        if (None if core is None else core.indices) != expected:
            core_mismatches += 1
        zero = sg.zero_element()
        if zero is not None and len(sg.divisor_partition(zero)[1]) != 0:
            zero_violations += 1
    ok = not failures and core_mismatches == 0 and zero_violations == 0
    report(8, "core criterion", ok,
           f"{cases} cases; core matches oracle everywhere; "
           f"zero element always divides everything")


def test_criterion_9_enumeration_counts(order2_semigroups, order3_semigroups):
    counts = (
        len(list(sf.enumerate_semigroups(1))),
        len(order2_semigroups),
        len(order3_semigroups),
    )
    naive = tuple(oracles.count_associative_tables(n) for n in (1, 2, 3))
    ok = counts == (1, 8, 113) and naive == (1, 8, 113)
    report(9, "labeled associative table counts", ok,
           f"stream {counts}, independent filter {naive}")


def test_criterion_10_worked_micro_examples(null2, mono31):
    # null-semigroup convolution, recomputed by the oracle and frozen
    f = sf.fuzzy_set(null2, {"0": "1/2", "a": "7/10"})
    g = sf.fuzzy_set(null2, {"0": "3/10", "a": "9/10"})
    got = sf.convolve(f, g)
    expected = oracles.convolve(null2.table, dict(enumerate(f.values)),
                                dict(enumerate(g.values)))
    convolution_ok = (
        got.as_dict() == {"0": "7/10", "a": "0"}
        and dict(enumerate(got.values)) == expected
    )

    divisors, _ = mono31.divisor_partition("c2")
    mono_ok = (
        set(divisors.names()) == {"c", "c2"}
        and divisors.indices == oracles.divisor_set(mono31.table, 1)
        and set(mono31.kernel().names()) == {"c3"}
        and mono31.kernel().indices == oracles.least_ideal(mono31.table)
        and set(mono31.core().names()) == {"c2", "c3"}
        and mono31.core().indices == oracles.least_ideal(mono31.table, 2)
    )
    report(10, "worked micro-examples", convolution_ok and mono_ok,
           "convolution 7/10 and monogenic divisor/kernel/core data reproduced")


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
