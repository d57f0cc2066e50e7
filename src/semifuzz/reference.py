"""Brute-force reference implementations, independent of the library.

Everything here works on raw index tables (sequences of rows of ints)
and plain dicts keyed by element index, and imports only the standard
library: loading this file by path does not import the package.  The
verifier's independent recheck of counterexamples and the test suite's
cross-checks both go through it.  The library itself reads two scans
here: the witness of a rejected table comes from
``first_nonassociative_triple``, called only once Light's test has
failed, and ``ElementSet.is_ideal`` is ``is_ideal``.  Deliberate route
differences from the library: the adjoined identity is materialized
here (the library never builds it), ideals come from full subset
enumeration, and the convolutions scan every factor pair instead of
reusing factorization lists or value ranks.
"""

from fractions import Fraction
from itertools import product


def adjoin_identity(table):
    n = len(table)
    rows = [list(row) + [x] for x, row in enumerate(table)]
    rows.append(list(range(n + 1)))
    return rows


def principal_ideal(table, s):
    """J(s), read off the materialized adjoined-identity table."""
    n = len(table)
    t1 = adjoin_identity(table)
    return frozenset(t1[t1[x][s]][y] for x in range(n + 1) for y in range(n + 1))


def principal_ideals(table):
    return [principal_ideal(table, s) for s in range(len(table))]


def divisor_set(table, a):
    return frozenset(s for s, ideal in enumerate(principal_ideals(table)) if a in ideal)


def divisor_sets(table):
    """D(a) for every a, from one pass over the principal ideals."""
    ideals = principal_ideals(table)
    return [frozenset(s for s, ideal in enumerate(ideals) if a in ideal)
            for a in range(len(table))]


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


def least_ideal(table, min_size=1):
    """The least ideal with at least min_size elements, or None.

    min_size 1 gives the kernel; min_size 2 gives the core, the least
    non-trivial ideal.
    """
    ideals = [a for a in all_ideals(table) if len(a) >= min_size]
    least = [a for a in ideals if all(a <= b for b in ideals)]
    return least[0] if least else None


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


def characteristic(n, s):
    return {x: Fraction(int(x == s)) for x in range(n)}


def star(table, domain, f, g):
    """max of min(f(x), g(y)) over all x*y == s, for every s in domain; 0
    where s has no factorization."""
    n = len(table)
    return {s: max((min(f[x], g[y]) for x in range(n) for y in range(n) if table[x][y] == s),
                   default=Fraction(0))
            for s in domain}


def convolve(table, f, g):
    return star(table, range(len(table)), f, g)


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


def meet_over_join(values, b):
    """b meet (the join of values) equals the join of the (b meet v)."""
    return min(b, max(values)) == max(min(b, v) for v in values)


def join_over_meet(values, b):
    """b join (the meet of values) equals the meet of the (b join v)."""
    return max(b, min(values)) == min(max(b, v) for v in values)


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
