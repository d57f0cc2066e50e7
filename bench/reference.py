"""Naive reference computations the benchmark checks library outputs against.

Works on raw index tables (rows of ints) and tuples of Fractions; nothing
from semifuzz is imported, so a library bug cannot confirm its own
output.  Everything here runs outside the timed sections.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import product

ZERO = Fraction(0)


def associative_tables(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every associative n-by-n table, by filtering all n**(n*n) candidates."""
    out = []
    for flat in product(range(n), repeat=n * n):
        t = [flat[i * n:(i + 1) * n] for i in range(n)]
        if all(t[t[x][y]][z] == t[x][t[y][z]]
               for x in range(n) for y in range(n) for z in range(n)):
            out.append(tuple(t))
    return out


def principal_ideals(table) -> list[frozenset[int]]:
    """S^1 s S^1 for every s: s, then everything reachable by multiplying on either side."""
    n = len(table)
    out = []
    for s in range(n):
        right = {s} | {table[s][y] for y in range(n)}
        out.append(frozenset(right | {table[x][r] for r in right for x in range(n)}))
    return out


def divisor_sets(table) -> list[frozenset[int]]:
    """D(a) = {s : a lies in the principal ideal of s}, for every a."""
    ideals = principal_ideals(table)
    n = len(table)
    return [frozenset(s for s in range(n) if a in ideals[s]) for a in range(n)]


def square_set(table) -> frozenset[int]:
    return frozenset(v for row in table for v in row)


def zero(table) -> int | None:
    n = len(table)
    for z in range(n):
        if all(table[z][x] == z and table[x][z] == z for x in range(n)):
            return z
    return None


def kernel(table) -> frozenset[int]:
    acc = frozenset(range(len(table)))
    for ideal in principal_ideals(table):
        acc &= ideal
    return acc


def core(table) -> frozenset[int] | None:
    """Least ideal with two or more elements: meet of the non-zero principal ideals."""
    z = zero(table)
    ideals = [p for s, p in enumerate(principal_ideals(table)) if s != z]
    if not ideals:
        return None
    acc = frozenset.intersection(*ideals)
    return acc if len(acc) >= 2 else None


def convolve(table, f, g) -> tuple[Fraction, ...]:
    """(f*g)(s) = max over x*y = s of min(f(x), g(y)); 0 without a factorization."""
    out = [ZERO] * len(table)
    for x, row in enumerate(table):
        fx = f[x]
        for y, s in enumerate(row):
            m = min(fx, g[y])
            if m > out[s]:
                out[s] = m
    return tuple(out)


def star(table, domain, f, g) -> tuple[Fraction, ...]:
    """The convolution on a divisor set; f, g and the result align with sorted(domain)."""
    dom = sorted(domain)
    pos = {s: i for i, s in enumerate(dom)}
    out = [ZERO] * len(dom)
    for x in dom:
        fx = f[pos[x]]
        for y in dom:
            s = table[x][y]
            if s in pos:
                m = min(fx, g[pos[y]])
                if m > out[pos[s]]:
                    out[pos[s]] = m
    return tuple(out)


def restrict(domain, f) -> tuple[Fraction, ...]:
    return tuple(f[s] for s in sorted(domain))


def extend_by_zero(n: int, domain, f) -> tuple[Fraction, ...]:
    pos = {s: i for i, s in enumerate(sorted(domain))}
    return tuple(f[pos[s]] if s in pos else ZERO for s in range(n))


def exhaustive_cases(theorem: str, table, k: int) -> int:
    """Closed-form case count of an exhaustive run over the chain {0, 1/k, ..., 1}.

    With K = k+1 values, n elements and d = |D(a)|: star-assoc checks
    every triple of restricted sets, delta-congruence every pair of
    related pairs, quotient-iso all pairs twice plus every restricted
    set, subdirect every unordered pair plus every restricted set.
    """
    n = len(table)
    big_k = k + 1
    widths = [len(d) for d in divisor_sets(table)]
    if theorem == "star-assoc":
        return sum(big_k ** (3 * d) for d in widths)
    if theorem == "delta-congruence":
        return sum(big_k ** (2 * (2 * n - d)) for d in widths)
    if theorem == "quotient-iso":
        return sum(2 * big_k ** (2 * n) + big_k ** d for d in widths)
    if theorem == "subdirect":
        m = big_k ** n
        return m * (m - 1) // 2 + sum(big_k ** d for d in widths)
    return element_cases(theorem, table)


def element_cases(theorem: str, table) -> int:
    """Case count of a check that sweeps carrier elements, whatever the strategy."""
    n = len(table)
    small = n <= 12  # the kernel/core cross-validations run up to 12 elements
    if theorem == "phi-embedding":
        return n * n + n * (n - 1) // 2
    if theorem == "restriction-rees":
        return n ** 3
    if theorem == "kernel-criterion":
        return n + small
    if theorem == "core-criterion":
        return 1 if n == 1 else n + small
    raise ValueError(f"no closed form for {theorem!r}")


def sampled_cases(theorem: str, table, count: int) -> int:
    """Case count of a Sampled run: one, three or two cases per draw."""
    per_draw = {"star-assoc": 1, "delta-congruence": 1, "quotient-iso": 3, "subdirect": 2}
    if theorem in per_draw:
        return per_draw[theorem] * count
    return element_cases(theorem, table)


def _set_text(names, members) -> str:
    return "{" + ", ".join(names[i] for i in sorted(members)) + "}"


def analyze_text(names, table) -> str:
    """What `semifuzz analyze` prints for this table."""
    n = len(table)
    z = zero(table)
    c = core(table)
    lines = [
        f"order: {n}",
        f"elements: {', '.join(names)}",
        f"squares (S*S): {_set_text(names, square_set(table))}",
        f"zero: {'(none)' if z is None else names[z]}",
        f"kernel: {_set_text(names, kernel(table))}",
        f"core: {'(none)' if c is None else _set_text(names, c)}",
        "divisors:",
    ]
    for a, d in enumerate(divisor_sets(table)):
        rest = frozenset(range(n)) - d
        note = "(empty)" if not rest else "(ideal)"
        lines.append(f"  {names[a]}: D = {_set_text(names, d)}, N = {_set_text(names, rest)} {note}")
    return "\n".join(lines) + "\n"


def convolve_text(names, table, f, g) -> str:
    """What `semifuzz convolve` prints."""
    h = convolve(table, f, g)
    return json.dumps({name: str(v) for name, v in zip(names, h)}, indent=2) + "\n"


def decompose_text(names, table, f) -> str:
    """What `semifuzz decompose` prints: the restriction at every base."""
    out = {}
    for a, d in enumerate(divisor_sets(table)):
        dom = sorted(d)
        out[names[a]] = {"base": names[a], "values": {names[s]: str(f[s]) for s in dom}}
    return json.dumps(out, indent=2) + "\n"
