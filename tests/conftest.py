import pytest

import semifuzz as sf


@pytest.fixture(scope="session")
def null2():
    return sf.build_semigroup(["0", "a"], [["0", "0"], ["0", "0"]])


@pytest.fixture(scope="session")
def left_zero2():
    return sf.catalog("left_zero", 2)


@pytest.fixture(scope="session")
def mono31():
    return sf.catalog("monogenic", 3, 1)


@pytest.fixture(scope="session")
def z2():
    return sf.catalog("cyclic_group", 2)


@pytest.fixture(scope="session")
def order2_semigroups():
    return list(sf.enumerate_semigroups(2))


@pytest.fixture(scope="session")
def order3_semigroups():
    return list(sf.enumerate_semigroups(3))


@pytest.fixture(scope="session")
def small_semigroups(order2_semigroups, order3_semigroups):
    return list(sf.enumerate_semigroups(1)) + order2_semigroups + order3_semigroups


@pytest.fixture(scope="session")
def catalog_roster():
    """The named families up to order 6, plus the small transformation monoids."""
    roster = []
    for n in range(1, 7):
        for family in ("left_zero", "right_zero", "null", "cyclic_group"):
            roster.append(sf.catalog(family, n))
    for index in range(1, 7):
        for period in range(1, 8 - index):
            roster.append(sf.catalog("monogenic", index, period))
    roster.append(sf.catalog("full_transformation", 1))
    roster.append(sf.catalog("full_transformation", 2))
    return roster


@pytest.fixture(scope="session")
def rows_of():
    """Turn a per-pair kernel into a rows function like ``convolve_rows``.

    Row i holds the values of ``kernel(universe[i], g)`` for every g of
    the universe, so a fault planted in the kernel reaches the exhaustive
    product tables exactly as the per-pair kernel would produce it.
    """
    def rows_of(kernel):
        def rows(universe):
            for f in universe:
                yield [kernel(f, g).values for g in universe]
        return rows
    return rows_of


@pytest.fixture(scope="session")
def agreement_rows_of():
    """Turn a per-pair relation like ``agrees_on_divisors`` into a rows
    function like ``agreement_rows``.

    Row i holds ``agree(a, universe[i], g)`` for every g of the universe,
    so a fault planted in the relation reaches the exhaustive agreement
    matrices exactly as the per-pair relation would produce it.
    """
    def agreement_rows_of(agree):
        def rows(a, universe):
            for f in universe:
                yield [agree(a, f, g) for g in universe]
        return rows
    return agreement_rows_of
