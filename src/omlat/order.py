"""Finite posets and bounded lattices as dense index tables.

Elements are dense integer ids 0..n-1 with display names kept alongside; all
computation runs on indices and every report renders names.  Join and meet are
precomputed n x n tables so every law in the package is a plain table scan.
The lattice laws are the `Law` rows of LATTICE_LAWS, which `verify_lattice`
checks in order.  Structures are frozen after construction and safe to share.

Structures over one lattice share their table rows.  `BoundedLattice.shared_row`
stores one copy of each distinct row that a complementation (`OrthoCandidate`)
or a product or residual table (`LrGroupoid`) over the lattice holds: a new
row is validated once by `check_unary_table`, the one row validator (n int
entries in 0..n-1), and a row seen before is handed back as its stored copy
once its entries are known to be ints (identical to the stored ones, or else
ints by type).  A `bytes` row, as the Sasaki tables are built, is looked up
by its bytes: it holds ints by type, so only a new one is converted and
validated.  So the Sasaki groupoids of every complementation of one lattice
hold one copy of each distinct row.  The stored rows live as long as the
lattice: a caller that builds many throwaway groupoids over one lattice
keeps their distinct rows, at most n^n of them.
The bool `leq` rows are never stored, since (True, False) == (1, 0).
A lattice also keeps lazily built byte mirrors, none of them a field: its
rows of leq, join and meet for the law scans, and the columns of join and
meet for the Sasaki tables.

Carriers hold at most MAX_CARRIER_SIZE = 256 elements, so every element id
fits in a byte.  `_closure` refuses a larger carrier before any mask work,
and a `BoundedLattice` built directly refuses one too, both with
SizeLimitExceededError.

Order computations work on bitmasks: `up_sets` turns the order matrix into
up-set masks (bit y of up[x] iff x <= y), `down_sets` gives the dual, and
`order_matrix` turns masks back into the matrix that the law rows read.  The
cover closure runs on masks, covers are the two-element intervals, and join
and meet come from up-set (down-set) intersection: the upper bounds of x and
y are up[x] & up[y], and x v y is the element whose up-set is exactly that.
Each join and meet row is one lookup per entry in the dict from masks to
elements; when a lookup fails, the error names the first pair in row-major
order that has no bound, join before meet.
A poset built from masks keeps them as `FinitePoset.up`; others compute it.
A lattice caches its down-set masks as `BoundedLattice.down`, not a field.
`join-is-lub` and `meet-is-glb` are stated on the masks: the join of x and y
is the upper bound in up[x] & up[y] below all the others.

The one canonical form is `canonical_certificate`.  It refines the elements of
a poset or lattice into an isomorphism-invariant partition on masks, takes the
least relabeled order (and unary table) over the permutations within its
cells, and writes it out as text.  Twins (same strict up-set and down-set)
keep their index order when no table is given, and a cell of one element
takes no arrangement work.  Enumeration certifies each candidate once, on its
masks, and uses the certificate both to deduplicate and to sort.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import factorial, prod
from operator import is_

from .errors import (
    CycleDetectedError,
    DuplicateNameError,
    NotALatticeError,
    NotBoundedError,
    SizeLimitExceededError,
    TableNotTotalError,
    UnknownElementError,
)
from .reports import Law, VerificationReport, byte_mirror, check_laws

ElementId = int

# Element ids fit in a byte: the law scans and Sasaki tables use bytes.translate.
MAX_CARRIER_SIZE = 256

# The certificate refuses structures whose refinement cells allow more than
# 8! permutations, counted before twins are collapsed.
_MAX_RELABELINGS = factorial(8)


@dataclass(frozen=True)
class FinitePoset:
    """Reflexive, antisymmetric, transitive order on named elements."""

    names: tuple[str, ...]
    leq: tuple[tuple[bool, ...], ...]

    @property
    def n(self) -> int:
        return len(self.names)

    @cached_property
    def up(self) -> tuple[int, ...]:
        """Up-set masks, bit y of up[x] iff x <= y; not a field, like `_rows`."""
        return up_sets(self.leq)

    def index(self, name: str) -> ElementId:
        try:
            return self.names.index(name)
        except ValueError:
            raise UnknownElementError(f"unknown element {name!r}") from None


@dataclass(frozen=True)
class BoundedLattice:
    """Poset with total join/meet tables and distinguished bottom/top."""

    poset: FinitePoset
    join: tuple[tuple[ElementId, ...], ...]
    meet: tuple[tuple[ElementId, ...], ...]
    bottom: ElementId
    top: ElementId

    def __post_init__(self) -> None:
        _check_carrier_size(self.poset.n)

    @property
    def n(self) -> int:
        return self.poset.n

    @property
    def names(self) -> tuple[str, ...]:
        return self.poset.names

    @property
    def leq(self) -> tuple[tuple[bool, ...], ...]:
        return self.poset.leq

    @property
    def up(self) -> tuple[int, ...]:
        return self.poset.up

    @cached_property
    def down(self) -> tuple[int, ...]:
        """Down-set masks, bit x of down[y] iff x <= y; not a field, like `_rows`."""
        return tuple(down_sets(self.up))

    @property
    def is_trivial(self) -> bool:
        """True for the one-element lattice (bottom equals top)."""
        return self.bottom == self.top

    def index(self, name: str) -> ElementId:
        return self.poset.index(name)

    def shared_row(self, row) -> tuple[ElementId, ...]:
        """The one stored copy of a table row over this lattice.

        A new row is checked by `check_unary_table` (n int entries in
        0..n-1) and stored; a row seen before is returned as its stored copy
        once its entries are known to be ints.  A `bytes` row holds ints by
        type and is looked up by its bytes, so only a new one is converted.
        Rows live as long as the lattice.
        """
        if type(row) is bytes:
            shared = self._rows.get(row)
            if shared is None:
                shared = self._rows[row] = self.shared_row(tuple(row))
            return shared
        row = tuple(row)
        try:
            shared = self._rows.get(row)
        except TypeError:  # an unhashable entry, refused below
            shared = None
        # A bool or float entry equals an int and hashes alike, so a found
        # row is taken only if its entries are the stored ints themselves
        # (the usual case: small ints are cached objects) or, failing that,
        # ints by type.
        if shared is None or not (all(map(is_, row, shared)) or _all_ints(row)):
            shared = self._rows[row] = check_unary_table(self.n, row)
        return shared

    @cached_property
    def _rows(self) -> dict[tuple[ElementId, ...] | bytes, tuple[ElementId, ...]]:
        # Not a field: equality, hash, repr and dataclasses.replace never see
        # it, and it is created when the first table row is stored.
        return {}

    @cached_property
    def _byte_mirror(self) -> dict[str, tuple[tuple[bytes, ...], tuple[bytes, ...]]]:
        # For the law scans' row checks; not a field, like `_rows`.
        return {t: byte_mirror(getattr(self, t)) for t in ("leq", "join", "meet")}

    @cached_property
    def _leq_indices(self) -> tuple[tuple[ElementId, ...], ...]:
        # Row x: the y with leq[x][y], increasing, read off leq itself, for
        # the guarded law scans; not a field, like `_rows`.
        return tuple(tuple(itertools.compress(range(self.n), row)) for row in self.leq)

    @cached_property
    def _column_mirror(self) -> tuple[tuple[tuple[bytes, ...], tuple[bytes, ...]], ...]:
        # The columns of join and meet, for the Sasaki tables.
        return byte_mirror(zip(*self.join)), byte_mirror(zip(*self.meet))


@dataclass(frozen=True)
class CanonicalCertificate:
    """The canonical form written out as text: the least relabeled order, plus
    the unary table when one is included.

    Certificates are equal iff the structures are isomorphic (as posets, as
    bounded lattices, or with a unary table when one is included).
    """

    data: bytes


def _all_ints(row) -> bool:
    """True iff every entry is an int; bool and float entries are not."""
    return {int}.issuperset(map(type, row))


def check_unary_table(n: int, u) -> tuple[ElementId, ...]:
    """`u` as a tuple of n int entries in 0..n-1, the one check of a table row.

    Raises TableNotTotalError otherwise; bool and float entries are refused.
    """
    u = tuple(u)
    if len(u) != n or not _all_ints(u) or (u and not 0 <= min(u) <= max(u) < n):
        raise TableNotTotalError(f"table row must hold {n} int entries in 0..{n - 1}")
    return u


def _check_carrier_size(n: int) -> None:
    """Raise SizeLimitExceededError for more than MAX_CARRIER_SIZE elements."""
    if n > MAX_CARRIER_SIZE:
        raise SizeLimitExceededError(
            f"carrier has {n} elements, the limit is {MAX_CARRIER_SIZE}"
        )


def _closure(names, covers) -> tuple[tuple[str, ...], tuple[int, ...], list[int]]:
    """Validated names and the up-set and down-set masks of the cover closure."""
    names = tuple(names)
    _check_carrier_size(len(names))
    seen: set[str] = set()
    for name in names:
        if not name:
            raise ValueError("element names must be nonempty strings")
        if name in seen:
            raise DuplicateNameError(f"duplicate element name {name!r}")
        seen.add(name)
    idx = {name: i for i, name in enumerate(names)}
    n = len(names)
    up = [1 << x for x in range(n)]
    for lo, hi in covers:
        if lo not in idx:
            raise UnknownElementError(f"unknown element {lo!r} in cover {lo}<{hi}")
        if hi not in idx:
            raise UnknownElementError(f"unknown element {hi!r} in cover {lo}<{hi}")
        up[idx[lo]] |= 1 << idx[hi]
    for k in range(n):
        bit, uk = 1 << k, up[k]
        for x in range(n):
            if up[x] & bit:
                up[x] |= uk
    down = down_sets(up)
    for x in range(n):
        # later elements both above and below x; the first one names the cycle
        cyclic = (up[x] & down[x]) >> (x + 1)
        if cyclic:
            y = x + (cyclic & -cyclic).bit_length()
            raise CycleDetectedError(
                f"cycle through {names[x]!r} and {names[y]!r}: input is not a partial order"
            )
    return names, tuple(up), down


def poset_from_covers(names, covers) -> FinitePoset:
    """Build the reflexive-transitive closure of a cover relation.

    `covers` is an iterable of (lower, upper) name pairs.  Rejects more than
    MAX_CARRIER_SIZE names, duplicate or empty names, unknown cover
    endpoints, and cyclic input.
    """
    names, up, _ = _closure(names, covers)
    return _poset_from_up(names, up)


def _poset_from_up(names: tuple[str, ...], up) -> FinitePoset:
    """The poset on `names` whose up-set masks are `up`, keeping the masks."""
    p = FinitePoset(names, order_matrix(up))
    object.__setattr__(p, "up", up)
    return p


def lattice_from_poset(p: FinitePoset) -> BoundedLattice:
    """Check that every pair has a unique lub/glb and precompute the tables.

    Bottom and top are discovered from the order; their absence raises
    NotBoundedError, a pair without a least upper (greatest lower) bound
    raises NotALatticeError naming the offending pair.
    """
    return _lattice_from_up(p, p.up, down_sets(p.up))


def _lattice_from_up(p: FinitePoset, up: tuple[int, ...], down: list[int]) -> BoundedLattice:
    """The lattice on p, whose up-set and down-set masks are `up` and `down`."""
    n = p.n
    if n == 0:
        raise NotBoundedError("empty carrier has no bottom element")
    everything = (1 << n) - 1
    if everything not in up:
        raise NotBoundedError("no bottom element")
    if everything not in down:
        raise NotBoundedError("no top element")
    # The upper bounds of x and y are up[x] & up[y]; the lub is the element
    # whose up-set is exactly that, and there is none when no element or, in
    # a relation that is not antisymmetric, several elements have it.
    by_up = {u: x for x, u in enumerate(up) if up.count(u) == 1}
    by_down = {d: x for x, d in enumerate(down) if down.count(d) == 1}
    try:
        join = tuple([tuple([by_up[ux & uy] for uy in up]) for ux in up])
        meet = tuple([tuple([by_down[dx & dy] for dy in down]) for dx in down])
    except KeyError:
        # the first missing bound in row-major order, join before meet
        x, y = next(
            (x, y)
            for x in range(n)
            for y in range(n)
            if up[x] & up[y] not in by_up or down[x] & down[y] not in by_down
        )
        kind = "join" if up[x] & up[y] not in by_up else "meet"
        bound = "least upper" if kind == "join" else "greatest lower"
        raise NotALatticeError(
            f"no {bound} bound for ({p.names[x]}, {p.names[y]})",
            pair=(p.names[x], p.names[y]),
            kind=kind,
        ) from None
    bottom, top = up.index(everything), down.index(everything)
    l = BoundedLattice(p, join, meet, bottom, top)
    object.__setattr__(l, "down", tuple(down))
    return l


def lattice_from_covers(names, covers) -> BoundedLattice:
    """`lattice_from_poset(poset_from_covers(names, covers))`, kept on masks."""
    names, up, down = _closure(names, covers)
    return _lattice_from_up(_poset_from_up(names, up), up, down)


def transitive_reduction(p: FinitePoset) -> tuple[tuple[ElementId, ElementId], ...]:
    """Cover pairs (x, y), x < y with no element strictly between, row-major."""
    up, down = p.up, down_sets(p.up)
    return tuple(
        (x, y)
        for x in range(p.n)
        for y in range(p.n)
        if x != y and up[x] & down[y] == (1 << x) | (1 << y)
    )


# On masks, U = up[x] & up[y] holds the upper bounds of x and y: the join is
# one of them (bit join[x][y] of U) and below every one (U & ~up[join[x][y]]
# is empty); the meet is the same on down-sets.
LATTICE_LAWS = (
    Law(
        "join-is-lub",
        "x,y",
        "(up[x] & up[y]) >> join[x][y] & 1 and not up[x] & up[y] & ~up[join[x][y]]",
    ),
    Law(
        "meet-is-glb",
        "x,y",
        "(down[x] & down[y]) >> meet[x][y] & 1"
        " and not down[x] & down[y] & ~down[meet[x][y]]",
    ),
    Law("bounded", "x", "leq[bottom][x] and leq[x][top]"),
    Law("idempotence", "x", "join[x][x] == x and meet[x][x] == x"),
    Law("commutativity", "x,y", "join[x][y] == join[y][x] and meet[x][y] == meet[y][x]"),
    Law(
        "associativity",
        "x,y,z",
        "join[join[x][y]][z] == join[x][join[y][z]]"
        " and meet[meet[x][y]][z] == meet[x][meet[y][z]]",
    ),
    Law("absorption", "x,y", "meet[x][join[x][y]] == x and join[x][meet[x][y]] == x"),
    Law(
        "order-agreement",
        "x,y",
        "leq[x][y] == (join[x][y] == y) and leq[x][y] == (meet[x][y] == x)",
    ),
)


def verify_lattice(l: BoundedLattice) -> VerificationReport:
    """Exhaustively check the join/meet tables against the order.

    Verifies that join/meet really are the unique lub/glb, that both are
    idempotent, commutative, associative and absorb each other, that the
    stated bounds bound, and that order and tables agree pointwise.
    """
    return VerificationReport(tuple(check_laws(LATTICE_LAWS, l)))


def relabel_lattice(l: BoundedLattice, perm) -> BoundedLattice:
    """Relabel elements by the bijection perm, where perm[old] = new index.

    Raises ValueError unless perm is a permutation of range(l.n).
    """
    n = l.n
    if sorted(perm) != list(range(n)):
        raise ValueError(f"relabeling must be a permutation of 0..{n - 1}, got {perm!r}")
    inv = [0] * n
    for old, new in enumerate(perm):
        inv[new] = old
    names = tuple(l.names[inv[i]] for i in range(n))
    leq = tuple(tuple(l.leq[inv[i]][inv[j]] for j in range(n)) for i in range(n))
    join = tuple(
        tuple(perm[l.join[inv[i]][inv[j]]] for j in range(n)) for i in range(n)
    )
    meet = tuple(
        tuple(perm[l.meet[inv[i]][inv[j]]] for j in range(n)) for i in range(n)
    )
    return BoundedLattice(
        FinitePoset(names, leq), join, meet, perm[l.bottom], perm[l.top]
    )


def up_sets(leq) -> tuple[int, ...]:
    """Up-set bitmasks from an order matrix: bit y of up[x] iff x <= y."""
    return tuple(sum(1 << y for y, v in enumerate(row) if v) for row in leq)


def order_matrix(up) -> tuple[tuple[bool, ...], ...]:
    """Order matrix from up-set bitmasks: leq[x][y] iff bit y of up[x]."""
    n = len(up)
    return tuple(tuple([(u >> y) & 1 == 1 for y in range(n)]) for u in up)


def down_sets(up) -> list[int]:
    """Down-set bitmasks from up-set bitmasks: bit x of down[y] iff x <= y."""
    down = [0] * len(up)
    for x, u in enumerate(up):
        while u:
            low = u & -u
            down[low.bit_length() - 1] |= 1 << x
            u ^= low
    return down


def _refinement_cells(up, down) -> list[list[ElementId]]:
    """Partition elements by an iso-invariant iterated signature.

    Colors start as (up-set size, down-set size).  A round recolors x by its
    color and the sorted colors strictly above and below it, each color c
    taken `(mask & class_mask[c]).bit_count()` times.  Rounds stop when no
    class splits or each is one element; cells come in color order.
    """
    n = len(up)
    color: list = [(u.bit_count(), d.bit_count()) for u, d in zip(up, down)]
    classes = len(set(color))
    while classes < n:
        masks: dict = {}
        for x, c in enumerate(color):
            masks[c] = masks.get(c, 0) | 1 << x
        palette = sorted(masks.items())

        def colors(mask):
            return tuple([c for c, m in palette for _ in range((mask & m).bit_count())])

        # an element alone in its class keeps its place by its color alone
        sigs = [
            (c, colors(up[x] ^ 1 << x), colors(down[x] ^ 1 << x))
            if masks[c] & (masks[c] - 1) else (c,)
            for x, c in enumerate(color)
        ]
        rank = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        color = [rank[sig] for sig in sigs]
        if len(rank) == classes:
            break
        classes = len(rank)
    cells: dict = {}
    for x, c in enumerate(color):
        cells.setdefault(c, []).append(x)
    return [cells[c] for c in sorted(cells)]


def _arrangements(cell, key) -> list[list[ElementId]]:
    """The orders of a cell in which elements with one key keep index order."""
    if len(cell) == 1:
        return [cell]
    first: dict = {}
    labels = [first.setdefault(key(x), x) for x in cell]
    orders = []
    for perm in dict.fromkeys(itertools.permutations(labels)):
        stacks: dict = {}
        for x, l in zip(reversed(cell), reversed(labels)):
            stacks.setdefault(l, []).append(x)
        orders.append([stacks[l].pop() for l in perm])
    return orders


def canonical_certificate(s, u=None) -> CanonicalCertificate:
    """The canonical form written out as text: `n=N|leq=...`, plus `|comp=...`.

    `s` is a `FinitePoset` or a `BoundedLattice`; only `s.n` and the up-set
    masks `s.up` are read, since in a lattice the order already fixes join
    and meet.  The refinement partition is isomorphism-invariant and its
    cells are laid out in an invariant order, so only permutations within
    cells are tried.  Swapping twins (same strict up-set and down-set) is an
    automorphism and keeps the relabeled rows, so without a table twins keep
    their index order.  The least (rows, table) is written out: character j
    of leq row i is 1 iff new element i <= new element j, and a unary table
    `u` takes part in the minimization as the relabeled `u`.  Certificates
    are therefore equal iff the structures are isomorphic.  Raises
    SizeLimitExceededError when the cells allow more than 8! permutations.
    """
    n = s.n
    if u is not None:
        u = check_unary_table(n, u)
    up, down = s.up, down_sets(s.up)
    cells = _refinement_cells(up, down)
    relabelings = prod(map(factorial, map(len, cells)))
    if relabelings > _MAX_RELABELINGS:
        raise SizeLimitExceededError(
            f"canonicalization needs {relabelings} relabelings, "
            f"the limit is {_MAX_RELABELINGS}"
        )
    # twins share a key; with a table no two elements do
    if u is None:
        def twin_key(x):
            return up[x] ^ 1 << x, down[x] ^ 1 << x
    else:
        def twin_key(x):
            return x
    members = [[y for y in range(n) if m >> y & 1] for m in up]
    bits = [1 << i for i in range(n)]
    best = None
    for parts in itertools.product(*[_arrangements(c, twin_key) for c in cells]):
        order = [x for part in parts for x in part]
        # row i ORs bit[y] = 1 << (new index of y) over the members y of up[order[i]]
        bit = dict(zip(order, bits)).__getitem__
        rows = tuple([sum(map(bit, members[x])) for x in order])
        if u is None:
            key = (rows, ())
        else:
            new = dict(zip(order, range(n)))
            key = (rows, tuple([new[u[x]] for x in order]))
        if best is None or key < best:
            best = key
    rows, table = best
    # binary digits least significant first: character j is bit j of the row
    text = f"n={n}|leq=" + ";".join(format(row, f"0{n}b")[::-1] for row in rows)
    if u is not None:
        text += "|comp=" + ",".join(map(str, table))
    return CanonicalCertificate(text.encode("ascii"))
