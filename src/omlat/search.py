"""Enumeration of small bounded lattices and orthocomplementations.

Lattices are generated one isomorphism class at a time by growing
meet-semilattices element by element: a bounded lattice on n elements minus
its top is exactly a meet-semilattice on n-1 elements, and adjoining a fresh
maximal element with a chosen down-set extends one semilattice to the next
size.  Candidate extensions are deduplicated with the key of
`order.canonical_labeling`, so each class is kept exactly once, and each size
is output sorted by `canonical_certificate`, that key written out as text.
Orthocomplement search backtracks over involutions that pair each element
with one of its lattice complements, pruning by antitony as pairs are fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SizeLimitExceededError, UnknownAxiomIdError
from .order import (
    BoundedLattice,
    FinitePoset,
    _lattice_from_up,
    canonical_certificate,
    canonical_labeling,
    down_sets,
    order_matrix,
)
from .ortho import (
    ORTHO_LAWS,
    OrthoCandidate,
    UnaryTable,
    check_orthomodularity,
    verify_oml,
    verify_ortholattice,
)
from .reports import Witness, first_violation
from .residuated import ALL_AXIOMS, LrGroupoid, verify_lrg

MAX_ENUMERATION_SIZE = 9


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


def _semilattice_extensions(up: tuple[int, ...], n: int) -> list[tuple[int, ...]]:
    """All one-element extensions by a new maximal element.

    The new element's strict down-set D must be down-closed and, for every
    x outside D, D intersected with the down-set of x must have a unique
    maximum (that maximum becomes the meet of the new element with x).
    """
    down = down_sets(up)
    out = []
    for mask in range(1, 1 << n):
        ok = True
        for d in range(n):
            if (mask >> d) & 1 and down[d] & mask != down[d]:
                ok = False
                break
        if not ok:
            continue
        for x in range(n):
            if (mask >> x) & 1:
                continue
            s = mask & down[x]
            has_max = False
            probe = s
            while probe:
                m = (probe & -probe).bit_length() - 1
                probe &= probe - 1
                if s & down[m] == s:
                    has_max = True
                    break
            if not has_max:
                ok = False
                break
        if not ok:
            continue
        new_up = [up[x] | (1 << n) if (mask >> x) & 1 else up[x] for x in range(n)]
        new_up.append(1 << n)
        out.append(tuple(new_up))
    return out


def _lattice_from_order_rows(up, n: int) -> BoundedLattice:
    names = tuple(f"e{i}" for i in range(n))
    return _lattice_from_up(FinitePoset(names, order_matrix(up)), up, down_sets(up))


def enumerate_bounded_lattices(cfg: EnumerationConfig) -> list[BoundedLattice]:
    """One representative per isomorphism class, sizes 1 through max_size.

    Output is sorted by (size, certificate bytes) and therefore reproducible.
    """
    if cfg.max_size > MAX_ENUMERATION_SIZE:
        raise SizeLimitExceededError(
            f"enumeration is supported up to size {MAX_ENUMERATION_SIZE}, "
            f"got {cfg.max_size}"
        )
    lattices_by_size: dict[int, list[BoundedLattice]] = {
        1: [_lattice_from_order_rows((1,), 1)]
    }
    # meet-semilattices with k elements stand for lattices with k+1: adjoin a top
    level: list[tuple[int, ...]] = [(1,)]
    for k in range(1, cfg.max_size):
        lattices_by_size[k + 1] = []
        for up in level:
            rows = [u | (1 << k) for u in up]
            rows.append(1 << k)
            lattices_by_size[k + 1].append(_lattice_from_order_rows(rows, k + 1))
        if k + 1 >= cfg.max_size:
            break
        nxt: dict[tuple, tuple[int, ...]] = {}
        for up in level:
            for ext in _semilattice_extensions(up, k):
                key = canonical_labeling(ext)
                if key not in nxt:
                    nxt[key] = ext
        level = list(nxt.values())
    results: list[BoundedLattice] = []
    for n in sorted(lattices_by_size):
        with_certs = [(canonical_certificate(l).data, l) for l in lattices_by_size[n]]
        with_certs.sort(key=lambda pair: pair[0])
        results.extend(l for _, l in with_certs)
    return results


def enumerate_omls(cfg: EnumerationConfig) -> list[OrthoCandidate]:
    """Every (lattice class, orthomodular complementation) pair up to max_size."""
    pairs: list[OrthoCandidate] = []
    for l in enumerate_bounded_lattices(cfg):
        for table in enumerate_orthocomplements(l, require_omod=True):
            pairs.append(OrthoCandidate(l, table))
    return pairs


# the two meta entries are judged over a whole suite, not scanned as a law
_ORTHO_META = {
    "de-morgan-derived": verify_ortholattice,
    "orthomodularity-agreement": check_orthomodularity,
}

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
            return _ORTHO_META[axiom](structure).witness(axiom)
        for law in ORTHO_LAWS:
            if law.id == axiom:
                return first_violation(law, structure.lattice, comp=structure.comp)
        raise UnknownAxiomIdError(f"unknown axiom id {axiom!r} for an ortho candidate")
    if isinstance(structure, LrGroupoid):
        return verify_lrg(structure, (axiom,)).witness(axiom)
    raise TypeError(
        f"expected OrthoCandidate or LrGroupoid, got {type(structure).__name__}"
    )
