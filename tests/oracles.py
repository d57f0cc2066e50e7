"""Brute-force reference implementations, independent of the library.

Everything here works on raw index tables (sequences of rows of ints)
and plain dicts keyed by element index; the package under test is never
imported.  Agreement between these functions and the package is what
the tests assert.  Deliberate route differences: the adjoined identity
is materialized here (the library never builds it), ideals come from
full subset enumeration, and the convolutions re-test square membership
instead of reusing factorization lists.
"""

from fractions import Fraction
from itertools import product


def adjoin_identity(table):
    n = len(table)
    rows = [list(row) + [x] for x, row in enumerate(table)]
    rows.append(list(range(n + 1)))
    return rows


def principal_ideal(table, s):
    n = len(table)
    t1 = adjoin_identity(table)
    return frozenset(t1[t1[x][s]][y] for x in range(n + 1) for y in range(n + 1))


def divisor_set(table, a):
    return frozenset(s for s in range(len(table)) if a in principal_ideal(table, s))


def square_set(table):
    return frozenset(v for row in table for v in row)


def is_ideal(table, members):
    if not members:
        return False
    n = len(table)
    return all(table[s][x] in members and table[x][s] in members
               for s in members for x in range(n))


def all_ideals(table):
    n = len(table)
    found = []
    for bits in product((0, 1), repeat=n):
        members = frozenset(i for i in range(n) if bits[i])
        if members and is_ideal(table, members):
            found.append(members)
    return found


def least_ideal(table):
    ideals = all_ideals(table)
    least = [a for a in ideals if all(a <= b for b in ideals)]
    return least[0] if least else None


def least_nontrivial_ideal(table):
    ideals = [a for a in all_ideals(table) if len(a) >= 2]
    least = [a for a in ideals if all(a <= b for b in ideals)]
    return least[0] if least else None


def principal_ideals(table):
    """J(s) for every s, from one materialized adjoined-identity table."""
    n = len(table)
    t1 = adjoin_identity(table)
    return [frozenset(t1[t1[x][s]][y] for x in range(n + 1) for y in range(n + 1))
            for s in range(n)]


def least_principal_ideal(table, min_size=1):
    """The least ideal with at least min_size elements, found among the
    principal ideals, for carriers too wide for subset enumeration.

    Every ideal contains the principal ideal of each of its members.  An
    ideal with two or more elements has a member that is not a zero, and
    the principal ideal of such a member has two or more elements.  So
    for min_size 1 or 2 the least such ideal, when it exists, is a
    principal ideal contained in every other one of that size.
    """
    ideals = [p for p in principal_ideals(table) if len(p) >= min_size]
    least = [p for p in ideals if all(p <= q for q in ideals) and is_ideal(table, p)]
    return least[0] if least else None


def zero_of(table):
    n = len(table)
    for z in range(n):
        if all(table[z][x] == z == table[x][z] for x in range(n)):
            return z
    return None


def first_nonassociative_triple(table):
    n = len(table)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if table[table[x][y]][z] != table[x][table[y][z]]:
                    return x, y, z
    return None


def convolve(table, f, g):
    n = len(table)
    squares = square_set(table)
    out = {}
    for s in range(n):
        if s in squares:
            out[s] = max(min(f[x], g[y])
                         for x in range(n) for y in range(n) if table[x][y] == s)
        else:
            out[s] = Fraction(0)
    return out


def star(table, domain, f, g):
    n = len(table)
    squares = square_set(table)
    out = {}
    for s in domain:
        if s in squares:
            out[s] = max(min(f[x], g[y])
                         for x in range(n) for y in range(n) if table[x][y] == s)
        else:
            out[s] = Fraction(0)
    return out


def triple_product(table, domain, f, g, h):
    """The flattened three-factor formula: max of min(f(u), g(v), h(y))
    over all ways to write s as a triple product, 0 outside those."""
    n = len(table)
    out = {}
    for s in domain:
        best = Fraction(0)
        for u in range(n):
            for v in range(n):
                uv = table[u][v]
                for y in range(n):
                    if table[uv][y] == s:
                        m = min(f[u], g[v], h[y])
                        if m > best:
                            best = m
        out[s] = best
    return out


def count_associative_tables(n):
    """Second filter implementation: dict-based tables, no early pruning."""
    count = 0
    cells = [(x, y) for x in range(n) for y in range(n)]
    for values in product(range(n), repeat=n * n):
        op = dict(zip(cells, values))
        if all(op[op[x, y], z] == op[x, op[y, z]]
               for x in range(n) for y in range(n) for z in range(n)):
            count += 1
    return count
