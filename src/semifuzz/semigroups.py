"""Finite semigroups as Cayley tables, with the ideal-theoretic toolbox.

A semigroup lives entirely in its multiplication table over an ordered
carrier of named elements.  Identity adjunction is simulated inside the
ideal computations rather than by extending the carrier, so a single
immutable value represents one semigroup throughout a computation.

The table layer costs O(|A| * n^2) for a generating set A, not O(n^3):
:func:`build_semigroup` decides associativity by Light's test over a
greedily chosen A, principal ideals are bitmasks built from rows and
columns, and the fact that every principal ideal is an ideal and every
divisor complement is empty or an ideal is checked once per semigroup,
with a raise that survives -O, when the principal ideals are first
built.

Element identity is positional: names are presentation only.  All
operations are pure; nothing here mutates its inputs, so values can be
shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import compress
from operator import and_, itemgetter, or_
from typing import Iterator, Sequence

from . import reference


class AssociativityError(ValueError):
    """Raised when a proposed table violates (x*y)*z == x*(y*z).

    ``witness`` holds the violating triple of element names.
    """

    def __init__(self, message: str, witness: tuple[str, str, str]):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class Element:
    """One carrier element: a position in the carrier plus a display name."""

    index: int
    name: str

    def __repr__(self) -> str:
        return f"Element({self.index}, {self.name!r})"


@dataclass(frozen=True)
class Semigroup:
    """An associative multiplication table over named elements.

    ``table[i][j]`` is the index of ``names[i] * names[j]``.  Instances
    are normally produced by :func:`build_semigroup`, the catalog, or the
    enumeration stream, all of which guarantee associativity; direct
    construction skips that check.
    """

    names: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.names)

    def __repr__(self) -> str:
        return f"Semigroup(order={self.order}, elements=[{', '.join(self.names)}])"

    @cached_property
    def elements(self) -> tuple[Element, ...]:
        return tuple(Element(i, name) for i, name in enumerate(self.names))

    def element(self, ref: Element | str | int) -> Element:
        """Coerce a name, index, or Element into an element of this semigroup."""
        if isinstance(ref, Element):
            elements = self.elements
            if 0 <= ref.index < len(elements):
                own = elements[ref.index]
                # one of this semigroup's own Element objects needs no name check
                if own is ref or own.name == ref.name:
                    return own
            raise ValueError(f"{ref!r} does not belong to {self!r}")
        if isinstance(ref, bool):
            raise TypeError(f"cannot interpret {ref!r} as an element")
        if isinstance(ref, int):
            if 0 <= ref < self.order:
                return self.elements[ref]
            raise ValueError(f"element index {ref} out of range for {self!r}")
        if isinstance(ref, str):
            try:
                return self.elements[self.names.index(ref)]
            except ValueError:
                raise ValueError(f"unknown element name {ref!r}") from None
        raise TypeError(f"cannot interpret {ref!r} as an element")

    def product(self, x: Element | str | int, y: Element | str | int) -> Element:
        """The table entry x*y."""
        i = self.element(x).index
        j = self.element(y).index
        return self.elements[self.table[i][j]]

    # ------------------------------------------------------------------
    # factorization structure

    @cached_property
    def _factorizations(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        # per target index, all ordered (x, y) with x*y == target
        n = self.order
        facs: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for x in range(n):
            row = self.table[x]
            for y in range(n):
                facs[row[y]].append((x, y))
        return tuple(tuple(f) for f in facs)

    def factorizations(self, s: Element | str | int) -> tuple[tuple[Element, Element], ...]:
        """All ordered pairs (x, y) with x*y == s; empty iff s has no factorization."""
        idx = self.element(s).index
        elems = self.elements
        return tuple((elems[x], elems[y]) for x, y in self._factorizations[idx])

    def square_set(self) -> ElementSet:
        """The set of elements expressible as a product of two elements."""
        return ElementSet(self, frozenset(i for i in range(self.order) if self._factorizations[i]))

    @cached_property
    def _fibers(self) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...], list[int]]:
        # per target index: its left factors, its right factors (parallel,
        # so x*y == target for each aligned pair) and their count; the
        # sup-min kernel pulls from these once few targets are pending.
        # The counts are a list, whose __getitem__ the kernel maps faster
        # than a tuple's
        facs = self._factorizations
        lefts = tuple(tuple(map(itemgetter(0), f)) for f in facs)
        rights = tuple(tuple(map(itemgetter(1), f)) for f in facs)
        return lefts, rights, list(map(len, facs))

    @cached_property
    def _columns(self) -> tuple[tuple[int, ...], ...]:
        # _columns[y][x] == table[x][y]; the sup-min kernel reads products
        # of one new right factor with many left factors at a time
        return tuple(zip(*self.table))

    @cached_property
    def _sup_min_plans(self) -> dict:
        return {}

    def _sup_min_plan(self, base: int | None) -> tuple[tuple[int, ...], frozenset[int]]:
        """The sup-min kernel's domain and its targets, built on first use.

        The domain is the whole carrier when ``base`` is None, else the
        divisor set of ``base``, in canonical order; the targets are its
        elements that have a factorization.
        """
        plan = self._sup_min_plans.get(base)
        if plan is None:
            if base is None:
                plan = (tuple(range(self.order)), self.square_set().indices)
            else:
                domain = self._divisor_domains[base]
                plan = (domain, self._sup_min_plan(None)[1].intersection(domain))
            self._sup_min_plans[base] = plan
        return plan

    # ------------------------------------------------------------------
    # ideals

    @cached_property
    def _principal_ideal_masks(self) -> tuple[int, ...]:
        # bit t of entry s is set iff t lies in {s} | Ss | sS | SsS, the
        # principal ideal with the adjoined identity simulated: Ss and sS
        # are the column and row of s, and SsS is the union of the columns
        # of the elements of sS
        bits = [1 << i for i in range(self.order)]
        column_masks = [reduce(or_, map(bits.__getitem__, set(col))) for col in self._columns]
        masks = []
        for s, row in enumerate(self.table):
            right = set(row)
            masks.append(bits[s] | column_masks[s] | reduce(or_, map(bits.__getitem__, right))
                         | reduce(or_, map(column_masks.__getitem__, right)))
        return tuple(masks)

    @cached_property
    def _principal_ideals(self) -> tuple[frozenset[int], ...]:
        # checked once per semigroup, and by a raise so that -O keeps it:
        # s lies in J(s), and J(s*x) and J(x*s) lie inside J(s) for every
        # x.  Then every J(s) is an ideal (t in J(s) gives t*x in J(t*x),
        # inside J(t), inside J(s)), and a outside J(s) stays outside
        # J(s*x) and J(x*s), so the non-divisors of a are empty or an
        # ideal.  Every associative table passes, so a failure has a
        # non-associative triple.
        masks = self._principal_ideal_masks
        table = self.table
        for s, (mask, column) in enumerate(zip(masks, self._columns)):
            if not mask >> s & 1 or any(masks[u] | mask != mask for u in {*table[s], *column}):
                raise _associativity_error(self.names, table)
        n = self.order
        return tuple(_mask_members(mask, n) for mask in masks)

    def principal_ideal(self, s: Element | str | int) -> ElementSet:
        """The least ideal containing s, computed without extending the carrier."""
        return ElementSet(self, self._principal_ideals[self.element(s).index])

    @cached_property
    def _divisor_domains(self) -> tuple[tuple[int, ...], ...]:
        domains: list[list[int]] = [[] for _ in range(self.order)]
        for s, pidl in enumerate(self._principal_ideals):
            for a in pidl:
                domains[a].append(s)
        return tuple(map(tuple, domains))

    @cached_property
    def _divisor_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(map(frozenset, self._divisor_domains))

    @cached_property
    def _divisor_complements(self) -> tuple[frozenset[int], ...]:
        everything = frozenset(range(self.order))
        return tuple(everything - d for d in self._divisor_sets)

    @cached_property
    def _divisor_gathers(self) -> tuple:
        # per base, one gather of the divisor-set values from a carrier-aligned tuple
        return tuple(map(_gather, self._divisor_domains))

    def divisor_partition(self, a: Element | str | int) -> tuple[ElementSet, ElementSet]:
        """Split the carrier into the divisors of a and the rest.

        Returns (D, N) where D holds every s whose principal ideal
        contains a, and N is the complement.  a itself always lands in D,
        and N is empty or an ideal: both follow from a check made once
        per semigroup, when the principal ideals are built, which raises
        AssociativityError on a table that fails it.
        """
        idx = self.element(a).index
        return (ElementSet(self, self._divisor_sets[idx]),
                ElementSet(self, self._divisor_complements[idx]))

    @cached_property
    def _kernel(self) -> frozenset[int]:
        return reduce(and_, self._principal_ideals)

    def kernel(self) -> ElementSet:
        """The least ideal: the intersection of all principal ideals.

        Every ideal contains the principal ideal of each of its members,
        so it contains the intersection.  The intersection is an ideal by
        construction: it is non-empty (the product of all elements lies
        in every principal ideal), and an intersection of ideals that is
        non-empty is an ideal.  That the principal ideals are ideals is
        checked once per semigroup, with a raise, when they are first
        built; the kernel-criterion check cross-validates the result
        against ideal enumeration.
        """
        return ElementSet(self, self._kernel)

    def zero_element(self) -> Element | None:
        """The element z with z*x == x*z == z for all x, if one exists.

        A zero exists exactly when the kernel has one element: a zero z
        makes {z} an ideal, which lies inside every ideal, and a kernel
        {z} holds z*x and x*z for every x.
        """
        if len(self._kernel) != 1:
            return None
        (z,) = self._kernel
        return self.elements[z]

    def core(self) -> ElementSet | None:
        """The least ideal with more than one element, or None.

        Computed as the intersection of the principal ideals of all
        non-zero elements.  Any ideal with two or more elements contains
        a non-zero element, hence contains that intersection, so the
        intersection is the core exactly when it is itself non-trivial.
        A one-element ideal forces its element to be a zero, so
        "non-trivial" reduces to "more than one element".  The
        intersection is an ideal by construction, being a non-empty
        intersection of principal ideals, which are checked once per
        semigroup, with a raise, when they are first built; the
        core-criterion check cross-validates the result against ideal
        enumeration.  Only order 1 lacks a non-zero element, and there the
        intersection is the one-element carrier itself.
        """
        zero = self.zero_element()
        zero_idx = -1 if zero is None else zero.index
        acc = frozenset(range(self.order))
        for s in range(self.order):
            if s != zero_idx:
                acc &= self._principal_ideals[s]
        if len(acc) < 2:
            return None
        return ElementSet(self, acc)

    def subset(self, refs: Sequence[Element | str | int]) -> ElementSet:
        """An ElementSet over this carrier from names, indices, or Elements."""
        return ElementSet(self, frozenset(self.element(r).index for r in refs))

    def rees_congruence(self, collapsed: ElementSet) -> ElementRelation:
        """The congruence that collapses an ideal to a point.

        ``collapsed`` must be empty or an ideal; the empty set gives the
        identity relation.  Pairs are (x, x) for every x plus all pairs
        inside the collapsed set.  That makes the relation a congruence by
        construction: two distinct related elements both lie in the
        ideal, so do their products with any element on either side, and
        those products are related again.
        """
        if collapsed.semigroup != self:
            raise ValueError("subset belongs to a different semigroup")
        if len(collapsed) > 0 and not collapsed.is_ideal():
            raise ValueError(f"{collapsed} is not an ideal, cannot collapse it")
        pairs = {(x, x) for x in range(self.order)}
        pairs.update((x, y) for x in collapsed.indices for y in collapsed.indices)
        return ElementRelation(self, frozenset(pairs))


@dataclass(frozen=True)
class ElementSet:
    """An immutable subset of one semigroup's carrier."""

    semigroup: Semigroup
    indices: frozenset[int]

    def __post_init__(self):
        if self.indices and not 0 <= min(self.indices) <= max(self.indices) < self.semigroup.order:
            raise ValueError("subset contains indices outside the carrier")

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self) -> Iterator[Element]:
        elems = self.semigroup.elements
        return iter(elems[i] for i in sorted(self.indices))

    def __contains__(self, ref: Element | str | int) -> bool:
        return self.semigroup.element(ref).index in self.indices

    def __le__(self, other: ElementSet) -> bool:
        return self.semigroup == other.semigroup and self.indices <= other.indices

    def names(self) -> tuple[str, ...]:
        return tuple(e.name for e in self)

    def __str__(self) -> str:
        return "{" + ", ".join(self.names()) + "}"

    def is_ideal(self) -> bool:
        """True iff nonempty and closed under multiplication by the whole carrier."""
        return reference.is_ideal(self.semigroup.table, self.indices)


@dataclass(frozen=True)
class ElementRelation:
    """A set of ordered pairs over one semigroup's carrier."""

    semigroup: Semigroup
    pairs: frozenset[tuple[int, int]]

    def __contains__(self, pair) -> bool:
        x, y = pair
        sg = self.semigroup
        return (sg.element(x).index, sg.element(y).index) in self.pairs

    def __len__(self) -> int:
        return len(self.pairs)

    def is_equivalence(self) -> bool:
        n = self.semigroup.order
        pairs = self.pairs
        if any((x, x) not in pairs for x in range(n)):
            return False
        if any((y, x) not in pairs for x, y in pairs):
            return False
        by_left: dict[int, set[int]] = {}
        for x, y in pairs:
            by_left.setdefault(x, set()).add(y)
        return all((x, z) in pairs for x, y in pairs for z in by_left.get(y, ()))

    def is_congruence(self) -> bool:
        """Equivalence plus compatibility with the table on both sides."""
        if not self.is_equivalence():
            return False
        table = self.semigroup.table
        n = self.semigroup.order
        return all(
            (table[s][x], table[s][y]) in self.pairs and (table[x][s], table[y][s]) in self.pairs
            for x, y in self.pairs
            for s in range(n)
        )

    def classes(self) -> tuple[ElementSet, ...]:
        """The blocks of the relation, for equivalences, ordered by least member."""
        n = self.semigroup.order
        seen: set[int] = set()
        blocks = []
        for x in range(n):
            if x in seen:
                continue
            block = frozenset(y for y in range(n) if (x, y) in self.pairs)
            seen |= block
            blocks.append(ElementSet(self.semigroup, block))
        return tuple(blocks)


_DIGIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _gather(indices: Sequence[int]) -> itemgetter:
    # one C-level read of these positions, as a tuple; a slice keeps a
    # single position's result a tuple
    if len(indices) > 1:
        return itemgetter(*indices)
    return itemgetter(slice(indices[0], indices[0] + 1))


def _mask_members(mask: int, n: int) -> frozenset[int]:
    # the binary digits of mask, lowest first, mapped to bytes 0 and 1,
    # select the members from range(n)
    return frozenset(compress(range(n), f"{mask:0{n}b}"[::-1].encode().translate(_DIGIT_BYTES)))


def _associativity_error(names: Sequence[str], table: Sequence[Sequence[int]]) -> AssociativityError:
    # names the first violating triple in row-major order; only called on
    # tables already known not to be associative
    x, y, z = reference.first_nonassociative_triple(table)
    nx, ny, nz = names[x], names[y], names[z]
    lhs = names[table[table[x][y]][z]]
    rhs = names[table[x][table[y][z]]]
    return AssociativityError(
        f"not associative: ({nx}*{ny})*{nz} = {lhs} but {nx}*({ny}*{nz}) = {rhs}",
        (nx, ny, nz),
    )


def _generators(semigroup: Semigroup) -> list[int]:
    """A generating set, picked greedily from the largest principal ideals down.

    A candidate already in the subsemigroup generated so far is skipped.
    Each newly reached element is multiplied on both sides with every
    element reached before it, so each ordered pair is multiplied at most
    once: O(n^2) in all.
    """
    n = semigroup.order
    table, columns = semigroup.table, semigroup._columns
    masks = semigroup._principal_ideal_masks
    reached: list[int] = []
    seen: set[int] = set()
    done = 0
    generators = []
    for g in sorted(range(n), key=lambda s: masks[s].bit_count(), reverse=True):
        if g in seen:
            continue
        generators.append(g)
        seen.add(g)
        reached.append(g)
        while done < len(reached) < n:
            e = reached[done]
            done += 1
            before = reached[:done]
            new = set(map(table[e].__getitem__, before))
            new.update(map(columns[e].__getitem__, before))
            new -= seen
            seen |= new
            reached.extend(new)
        if len(reached) == n:
            break
    return generators


def _is_associative(semigroup: Semigroup) -> bool:
    """Light's associativity test over a generating set A.

    The table is associative iff (x*a)*y == x*(a*y) for every a in A and
    all x, y: the elements a that satisfy this for all x, y are closed
    under products, so when A satisfies it, so does everything A
    generates.  One tuple comparison per (a, x) checks a whole row of y.
    """
    table = semigroup.table
    if len(table) == 1:
        return True  # the one table of order 1; itemgetter needs two indices
    for a in _generators(semigroup):
        times_row_a = itemgetter(*table[a])
        for row_x in table:
            if table[row_x[a]] != times_row_a(row_x):
                return False
    return True


def build_semigroup(names: Sequence[str], table: Sequence[Sequence[str]]) -> Semigroup:
    """Validate and build a semigroup from element names and a name matrix.

    ``table[i][j]`` must name the product names[i]*names[j].  Raises
    ValueError for structural problems (duplicate or unknown names, shape
    mismatch) and AssociativityError, with the witnessing triple, when
    the table is not associative.  Associativity is decided by Light's
    test over a generating set, in O(|generators| * n^2); the witness of
    a rejected table comes from the first violating triple in row-major
    order.
    """
    names = tuple(names)
    if not names:
        raise ValueError("a semigroup needs at least one element")
    if len(set(names)) != len(names):
        dupes = sorted({x for x in names if names.count(x) > 1})
        raise ValueError(f"duplicate element names: {', '.join(dupes)}")
    n = len(names)
    index = {name: i for i, name in enumerate(names)}
    if len(table) != n:
        raise ValueError(f"table has {len(table)} rows, expected {n}")
    rows = []
    for i, row in enumerate(table):
        if len(row) != n:
            raise ValueError(f"table row {i} has {len(row)} entries, expected {n}")
        try:
            rows.append(tuple(map(index.__getitem__, row)))
        except (KeyError, TypeError):
            # only names are keys, so any other cell lands here
            for cell in row:
                if not isinstance(cell, str):
                    raise ValueError(f"table row {i} holds {cell!r}, expected an element name") from None
                if cell not in index:
                    raise ValueError(f"unknown element name {cell!r} in table row {i}") from None
            raise
    semigroup = Semigroup(names, tuple(rows))
    if not _is_associative(semigroup):
        raise _associativity_error(names, rows)
    return semigroup


def semigroup_to_json(semigroup: Semigroup) -> dict:
    """The interchange form: element names plus a row-major name matrix."""
    names = semigroup.names
    return {
        "elements": list(names),
        "table": [[names[v] for v in row] for row in semigroup.table],
    }


def semigroup_from_json(obj: object) -> Semigroup:
    """Parse the interchange form produced by :func:`semigroup_to_json`."""
    if not isinstance(obj, dict):
        raise ValueError("semigroup JSON must be an object")
    if "elements" not in obj:
        raise ValueError('semigroup JSON is missing the "elements" field')
    if "table" not in obj:
        raise ValueError('semigroup JSON is missing the "table" field')
    names = obj["elements"]
    if not isinstance(names, list) or not all(isinstance(x, str) for x in names):
        raise ValueError('"elements" must be an array of strings')
    table = obj["table"]
    if not isinstance(table, list) or not all(isinstance(row, list) for row in table):
        raise ValueError('"table" must be an array of arrays of element names')
    return build_semigroup(names, table)
