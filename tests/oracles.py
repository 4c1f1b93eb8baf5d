"""Independent brute-force oracles used only by the test suite.

Everything here recomputes expected values from first principles with naive
exhaustive methods, deliberately sharing no logic with the package: posets are
generated by down-set backtracking, isomorphism classes by minimizing over
all n! relabelings, complementations by scanning all n^n unary maps, covers
by boolean matrix multiplication, and Boolean algebras from subset tables.
The exceptions are `reference_certificate`, a copy of the certificate's
first design, which the package's faster one must match byte for byte, and
`join_is_lub_violation` and `meet_is_glb_violation`, the first statements of
the two bound laws, which their statements on masks must match pair for pair.
Sasaki tables are computed cell by cell from the defining formulas.
"""

from __future__ import annotations

import itertools
from math import factorial

# ---------------------------------------------------------------------------
# labeled posets and lattices as tuples of strict-down-set bitmasks


def labeled_posets(n: int) -> list[tuple[int, ...]]:
    """All partial orders on n labeled points, as strict down-set vectors."""
    out: list[tuple[int, ...]] = []
    down = [0] * n

    def rec(x: int) -> None:
        if x == n:
            out.append(tuple(down))
            return
        for d in range(1 << n):
            if d & (1 << x):
                continue
            ok = True
            for y in range(x):
                if (d >> y) & 1 and down[y] & ~d:
                    ok = False
                    break
                if (down[y] >> x) & 1 and d & ~down[y]:
                    ok = False
                    break
            if ok:
                down[x] = d
                rec(x + 1)
        down[x] = 0

    rec(0)
    return out


def poset_leq_matrix(down: tuple[int, ...]) -> list[list[bool]]:
    n = len(down)
    return [[i == j or bool((down[j] >> i) & 1) for j in range(n)] for i in range(n)]


def is_labeled_lattice(down: tuple[int, ...]) -> bool:
    """Bounded plus unique lub/glb for every pair, checked by plain scans."""
    n = len(down)
    leq = poset_leq_matrix(down)
    if not any(all(leq[b][x] for x in range(n)) for b in range(n)):
        return False
    if not any(all(leq[x][t] for x in range(n)) for t in range(n)):
        return False
    for x in range(n):
        for y in range(n):
            ubs = [z for z in range(n) if leq[x][z] and leq[y][z]]
            if not any(all(leq[u][z] for z in ubs) for u in ubs):
                return False
            lbs = [z for z in range(n) if leq[z][x] and leq[z][y]]
            if not any(all(leq[z][u] for z in lbs) for u in lbs):
                return False
    return True


def labeled_lattices(n: int) -> list[tuple[int, ...]]:
    return [down for down in labeled_posets(n) if is_labeled_lattice(down)]


def _relabeled_key(down: tuple[int, ...], perm: tuple[int, ...]) -> tuple[int, ...]:
    n = len(down)
    rows = []
    for new in range(n):
        old = perm[new]
        row = 0
        for other in range(n):
            if (down[old] >> perm[other]) & 1:
                row |= 1 << other
        rows.append(row)
    return tuple(rows)


def iso_class_count(structures: list[tuple[int, ...]], n: int) -> int:
    """Quotient by isomorphism via minimization over all n! relabelings."""
    perms = list(itertools.permutations(range(n)))
    seen = set()
    for down in structures:
        seen.add(min(_relabeled_key(down, p) for p in perms))
    return len(seen)


def automorphisms(leq, n: int) -> list[tuple[int, ...]]:
    """Every order automorphism, found by trying all n! relabelings."""
    return [
        perm
        for perm in itertools.permutations(range(n))
        if all(leq[x][y] == leq[perm[x]][perm[y]] for x in range(n) for y in range(n))
    ]


def automorphism_count(leq, n: int) -> int:
    return len(automorphisms(leq, n))


def orbit_sum(leq_matrices, n: int) -> int:
    """Sum of orbit sizes n!/|Aut| over one representative per class."""
    total = 0
    for leq in leq_matrices:
        total += factorial(n) // automorphism_count(leq, n)
    return total


def reference_certificate(leq, u=None) -> bytes:
    """The canonical certificate by its first design, read off the matrix.

    Colors start as (up-set size, down-set size) and are refined by sorted
    tuples of the colors strictly above and below each element until the
    class count stops growing; every permutation within every cell is tried,
    twins included, and the least (rows, relabeled table) is written out as
    `n=N|leq=...`, plus `|comp=...` when a table is given.  There is no cap.
    """
    n = len(leq)
    color: list = [
        (sum(map(bool, leq[x])), sum(bool(row[x]) for row in leq)) for x in range(n)
    ]
    classes = len(set(color))
    while True:
        sigs = []
        for x in range(n):
            above = tuple(sorted(color[y] for y in range(n) if y != x and leq[x][y]))
            below = tuple(sorted(color[y] for y in range(n) if y != x and leq[y][x]))
            sigs.append((color[x], above, below))
        palette = sorted(set(sigs))
        color = [palette.index(sig) for sig in sigs]
        if len(palette) == classes:
            break
        classes = len(palette)
    cells = [[x for x in range(n) if color[x] == c] for c in sorted(set(color))]
    best = None
    for parts in itertools.product(*(itertools.permutations(c) for c in cells)):
        order = [x for part in parts for x in part]
        rows = tuple(
            sum(1 << j for j in range(n) if leq[order[i]][order[j]]) for i in range(n)
        )
        table = () if u is None else tuple(order.index(u[x]) for x in order)
        if best is None or (rows, table) < best:
            best = (rows, table)
    rows, table = best
    text = f"n={n}|leq=" + ";".join(
        "".join("1" if (row >> j) & 1 else "0" for j in range(n)) for row in rows
    )
    if u is not None:
        text += "|comp=" + ",".join(map(str, table))
    return text.encode("ascii")


# ---------------------------------------------------------------------------
# the bound laws as first stated, and the masks they are now stated on


def order_masks(leq) -> dict[str, list[int]]:
    """Up-set and down-set bitmasks read off an order matrix cell by cell:
    bit j of up[i] and bit i of down[j] are set iff leq[i][j]."""
    n = len(leq)
    up = [sum(1 << j for j in range(n) if leq[i][j]) for i in range(n)]
    down = [sum(1 << i for i in range(n) if leq[i][j]) for j in range(n)]
    return {"up": up, "down": down}


def join_is_lub_violation(leq, join) -> tuple[int, int] | None:
    """First (x, y) in row-major order failing join-is-lub as first stated."""
    N = range(len(leq))
    for x in N:
        for y in N:
            if not (
                leq[x][join[x][y]] and leq[y][join[x][y]]
                and all(leq[join[x][y]][z] for z in N if leq[x][z] and leq[y][z])
            ):
                return x, y
    return None


def meet_is_glb_violation(leq, meet) -> tuple[int, int] | None:
    """First (x, y) in row-major order failing meet-is-glb as first stated."""
    N = range(len(leq))
    for x in N:
        for y in N:
            if not (
                leq[meet[x][y]][x] and leq[meet[x][y]][y]
                and all(leq[z][meet[x][y]] for z in N if leq[z][x] and leq[z][y])
            ):
                return x, y
    return None


# ---------------------------------------------------------------------------
# Sasaki tables cell by cell


def sasaki_tables(join, meet, comp):
    """The Sasaki product x odot y = (x v y') ^ y and hook
    x imp y = (y ^ x) v x', each cell read off the defining formula."""
    n = len(comp)
    odot = tuple(
        tuple(meet[join[x][comp[y]]][y] for y in range(n)) for x in range(n)
    )
    imp = tuple(
        tuple(join[meet[y][x]][comp[x]] for y in range(n)) for x in range(n)
    )
    return odot, imp


# ---------------------------------------------------------------------------
# complementation search over all n^n unary maps


def brute_force_complement_tables(
    leq, join, meet, bottom: int, top: int, require_omod: bool
) -> list[tuple[int, ...]]:
    """Scan every unary map for the orthocomplementation axioms literally."""
    n = len(leq)
    found = []
    for u in itertools.product(range(n), repeat=n):
        if any(join[x][u[x]] != top for x in range(n)):
            continue
        if any(u[u[x]] != x for x in range(n)):
            continue
        if any(
            leq[x][y] and not leq[u[y]][u[x]] for x in range(n) for y in range(n)
        ):
            continue
        if any(meet[x][u[x]] != bottom for x in range(n)):
            continue
        if require_omod and any(
            leq[x][y] and join[x][meet[y][u[x]]] != y
            for x in range(n)
            for y in range(n)
        ):
            continue
        found.append(u)
    return found


# ---------------------------------------------------------------------------
# covers via boolean matrix multiplication


def cover_pairs_oracle(leq) -> set[tuple[int, int]]:
    """x covered by y iff x < y and the strict order squared misses (x, y)."""
    n = len(leq)
    lt = [[leq[x][y] and x != y for y in range(n)] for x in range(n)]
    lt2 = [
        [any(lt[x][z] and lt[z][y] for z in range(n)) for y in range(n)]
        for x in range(n)
    ]
    return {
        (x, y) for x in range(n) for y in range(n) if lt[x][y] and not lt2[x][y]
    }


# ---------------------------------------------------------------------------
# Boolean algebras from subset tables


def boolean_tables(k: int):
    """The Boolean algebra 2^k with classical operations, as index tables.

    Elements are the subsets of {0..k-1} in binary-counter order; returns
    (names, leq, join, meet, comp, odot, imp) where odot is intersection and
    imp is classical material implication (complement-of-x union y).
    """
    n = 1 << k
    names = tuple("{" + ",".join(str(i) for i in range(k) if (s >> i) & 1) + "}" for s in range(n))
    leq = [[(x & ~y) == 0 for y in range(n)] for x in range(n)]
    join = [[x | y for y in range(n)] for x in range(n)]
    meet = [[x & y for y in range(n)] for x in range(n)]
    full = n - 1
    comp = tuple(full & ~x for x in range(n))
    odot = [[x & y for y in range(n)] for x in range(n)]
    imp = [[(full & ~x) | y for y in range(n)] for x in range(n)]
    return names, leq, join, meet, comp, odot, imp
