"""Enumeration of small bounded lattices and orthocomplementations.

Lattices are generated one isomorphism class at a time by growing
meet-semilattices element by element: a bounded lattice on n elements minus
its top is exactly a meet-semilattice on n-1 elements, and adjoining a fresh
maximal element with a chosen down-set extends one semilattice to the next
size.  Only order ideals are tried as down-sets, and an ideal that takes a
twin without its lower-indexed twins is skipped, since a smaller ideal of the
same parent gives an isomorphic candidate.  Each candidate is certified once,
on its up-set masks: its `canonical_certificate` is the dedup key, so each
class is kept exactly once (its first candidate, which the skipping never
removes), and the same bytes sort each size of the output.  Only the kept
classes are built as posets and lattices.
Orthocomplement search backtracks over involutions that pair each element
with one of its lattice complements, pruning by antitony as pairs are fixed.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

from .errors import SizeLimitExceededError, UnknownAxiomIdError
from .order import (
    BoundedLattice,
    _lattice_from_up,
    _poset_from_up,
    canonical_certificate,
    down_sets,
)
from .ortho import (
    ORTHO_LAWS,
    OrthoCandidate,
    UnaryTable,
    verify_oml,
    verify_ortholattice,
)
from .reports import Witness, first_violation
from .residuated import ALL_AXIOMS, LrGroupoid, verify_lrg

MAX_ENUMERATION_SIZE = 9

# what `canonical_certificate` reads of a candidate: its size and up-set masks
_Masks = namedtuple("_Masks", "n up")


@dataclass(frozen=True)
class EnumerationConfig:
    max_size: int

    def __post_init__(self):
        if self.max_size < 1:
            raise ValueError("max_size must be at least 1")


def enumerate_orthocomplements(
    l: BoundedLattice, require_omod: bool = False
) -> list[UnaryTable]:
    """All unary tables making the lattice an ortholattice (or an OML).

    Search space: involutions pairing every element with one of its lattice
    complements, with bottom and top pinned to each other; antitony is pruned
    incrementally and the surviving tables are filtered through the full
    checkers.  The result is duplicate-free and sorted.
    """
    n = l.n
    join, meet, leq = l.join, l.meet, l.leq
    bottom, top = l.bottom, l.top
    candidates = [
        [y for y in range(n) if join[x][y] == top and meet[x][y] == bottom]
        for x in range(n)
    ]
    if any(not c for c in candidates):
        return []

    check = verify_oml if require_omod else verify_ortholattice
    found: list[UnaryTable] = []
    comp: dict[int, int] = {}

    def antitone_with_assigned(x: int) -> bool:
        for u in comp:
            if u == x:
                continue
            if leq[u][x] and not leq[comp[x]][comp[u]]:
                return False
            if leq[x][u] and not leq[comp[u]][comp[x]]:
                return False
        return True

    def extend() -> None:
        x = next((v for v in range(n) if v not in comp), None)
        if x is None:
            table = tuple(comp[v] for v in range(n))
            if check(OrthoCandidate(l, table)).overall:
                found.append(table)
            return
        for y in candidates[x]:
            if y in comp:
                continue
            comp[x] = y
            comp[y] = x
            if antitone_with_assigned(x) and antitone_with_assigned(y):
                extend()
            del comp[x], comp[y]

    comp[bottom] = top
    comp[top] = bottom
    extend()
    return sorted(found)


def _adjoin(up: tuple[int, ...], mask: int) -> tuple[int, ...]:
    """Up-set rows of `up` with a new maximal element above the ones in `mask`."""
    new = 1 << len(up)
    return (*(u | new if (mask >> x) & 1 else u for x, u in enumerate(up)), new)


def _with_top(up: tuple[int, ...]) -> tuple[int, ...]:
    return _adjoin(up, (1 << len(up)) - 1)


def _semilattice_extensions(up: tuple[int, ...]) -> list[tuple[int, ...]]:
    """One-element extensions by a new maximal element, skipping twin images.

    The new element's strict down-set D is kept iff D meets every principal
    down-set in a principal down-set.  For x in D that says D is down-closed
    at x; for x outside D it says D and the down-set of x have a maximum,
    which becomes the meet of the new element with x.  D = {} passes only on
    the empty semilattice.  So D is an order ideal: the index order is a
    linear extension (`_adjoin` puts each new element above lower-indexed
    ones only), and x joins a mask only if everything strictly below x is in
    it.  Swapping twins (same strict up-set and down-set) is an automorphism,
    so a mask that holds a twin without every lower-indexed twin of its class
    has a smaller mask with an isomorphic extension; it is skipped.  Each
    pass appends masks with a bit above all earlier ones, so masks come in
    ascending order.
    """
    down = down_sets(up)
    principal = set(down)
    ideals = [0]
    lower_twins: dict[tuple[int, int], int] = {}
    for x, (u, d) in enumerate(zip(up, down)):
        bit = 1 << x
        key = (u ^ bit, d ^ bit)
        twins = lower_twins.get(key, 0)
        lower_twins[key] = twins | bit
        need = d ^ bit | twins
        ideals += [m | bit for m in ideals if m & need == need]
    return [
        _adjoin(up, mask)
        for mask in ideals
        if all(mask & d in principal for d in down)
    ]


def enumerate_bounded_lattices(cfg: EnumerationConfig) -> list[BoundedLattice]:
    """One representative per isomorphism class, sizes 1 through max_size.

    Output is sorted by (size, certificate bytes) and therefore reproducible.
    """
    if cfg.max_size > MAX_ENUMERATION_SIZE:
        raise SizeLimitExceededError(
            f"enumeration is supported up to size {MAX_ENUMERATION_SIZE}, "
            f"got {cfg.max_size}"
        )
    results: list[BoundedLattice] = []
    # meet-semilattices with k elements stand for lattices with k+1: adjoin a
    # top; the empty one stands for the one-element lattice.  Candidates are
    # generated lazily, so none are built beyond max_size.
    candidates = [()]
    for size in range(1, cfg.max_size + 1):
        names = tuple(f"e{i}" for i in range(size))
        # certificate -> the first semilattice certified with it
        level: dict[bytes, tuple[int, ...]] = {}
        for up in candidates:
            level.setdefault(canonical_certificate(_Masks(size, _with_top(up))).data, up)
        for up in map(level.get, sorted(level)):
            p = _poset_from_up(names, _with_top(up))
            results.append(_lattice_from_up(p, p.up, down_sets(p.up)))
        candidates = (ext for up in level.values() for ext in _semilattice_extensions(up))
    return results


def enumerate_omls(cfg: EnumerationConfig) -> list[OrthoCandidate]:
    """Every (lattice class, orthomodular complementation) pair up to max_size."""
    pairs: list[OrthoCandidate] = []
    for l in enumerate_bounded_lattices(cfg):
        for table in enumerate_orthocomplements(l, require_omod=True):
            pairs.append(OrthoCandidate(l, table))
    return pairs


# the two meta entries are judged over a whole suite, not scanned as a law
_ORTHO_META = ("de-morgan-derived", "orthomodularity-agreement")

ORTHO_AXIOM_IDS = frozenset([law.id for law in ORTHO_LAWS] + list(_ORTHO_META))

GROUPOID_AXIOM_IDS = frozenset(ALL_AXIOMS)


def find_counterexample(structure, axiom: str) -> Witness | None:
    """First witness violating the named axiom, or None when it holds.

    Dispatches on the structure: ortho candidates answer for the
    ortholattice/orthomodularity/Boolean vocabulary, groupoids for the
    residuation vocabulary.  Unknown ids raise UnknownAxiomIdError.
    """
    if isinstance(structure, OrthoCandidate):
        if axiom in _ORTHO_META:
            return verify_oml(structure).witness(axiom)
        for law in ORTHO_LAWS:
            if law.id == axiom:
                return first_violation(law, structure.lattice, comp=structure.comp)
        raise UnknownAxiomIdError(f"unknown axiom id {axiom!r} for an ortho candidate")
    if isinstance(structure, LrGroupoid):
        return verify_lrg(structure, (axiom,)).witness(axiom)
    raise TypeError(
        f"expected OrthoCandidate or LrGroupoid, got {type(structure).__name__}"
    )
