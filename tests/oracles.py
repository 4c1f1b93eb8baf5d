"""Independent brute-force oracles used only by the test suite.

Everything here recomputes expected values from first principles with naive
exhaustive methods, deliberately sharing no logic with the package: posets are
generated by down-set backtracking, isomorphism classes by minimizing over
all n! relabelings, complementations by scanning all n^n unary maps, covers
by boolean matrix multiplication, and Boolean algebras from subset tables.
The exceptions are `reference_certificate`, a copy of the certificate's
first design, which the package's faster one must match byte for byte,
`join_is_lub_violation` and `meet_is_glb_violation`, the first statements of
the two bound laws, which their statements on masks must match pair for pair,
and `reference_extensions`, enumeration's first scan over every down-set mask,
of which the package's ideal walk must keep an ordered subsequence.
Sasaki tables are computed cell by cell from the defining formulas,
orthomodularity is checked by searching for the benzene ring O6, and
modularity and distributivity by searching for the pentagon N5 and the
diamond M3 over join and meet read off the order matrix.
`random_law_text` draws seeded law texts for a differential fuzz of the law
compiler.
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
# the semilattice extension scan and the missing-bound search as first written


def reference_extensions(up) -> list[tuple[int, ...]]:
    """Every extension of a meet-semilattice, given by its up-set masks, by a
    new maximal element, scanning all 2^k strict down-sets D in ascending
    order: D is kept iff it meets every principal down-set in a principal
    down-set.  The new element gets index k; twins are not pruned."""
    k = len(up)
    down = [sum(1 << x for x in range(k) if up[x] >> y & 1) for y in range(k)]
    principal = set(down)
    new = 1 << k
    return [
        (*(u | new if mask >> x & 1 else u for x, u in enumerate(up)), new)
        for mask in range(1 << k)
        if all(mask & d in principal for d in down)
    ]


def first_missing_bound(leq) -> tuple[tuple[int, int], str] | None:
    """The first pair in row-major order with no least upper bound ("join")
    or, checked next at the same pair, no greatest lower bound ("meet"),
    searching the bounds of each pair in the matrix; None for a lattice."""
    N = range(len(leq))
    for x in N:
        for y in N:
            upper = [z for z in N if leq[x][z] and leq[y][z]]
            if not any(all(leq[z][w] for w in upper) for z in upper):
                return (x, y), "join"
            lower = [z for z in N if leq[z][x] and leq[z][y]]
            if not any(all(leq[w][z] for w in lower) for z in lower):
                return (x, y), "meet"
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


# ---------------------------------------------------------------------------
# the benzene ring O6 as a sub-ortholattice


def has_o6(leq, join, meet, comp, bottom: int, top: int) -> bool:
    """True iff some x < y with x != 0, y != 1, x != y', x v y' = 1 and
    y ^ x' = 0: then {0, x, y, y', x', 1} is a sub-ortholattice isomorphic
    to O6, and an ortholattice is orthomodular iff it has none (Kalmbach,
    *Orthomodular Lattices*, 1983)."""
    N = range(len(comp))
    return any(
        leq[x][y] and x != y and x != bottom and y != top and x != comp[y]
        and join[x][comp[y]] == top and meet[y][comp[x]] == bottom
        for x in N
        for y in N
    )


# ---------------------------------------------------------------------------
# the pentagon N5 and the diamond M3 as sublattices


def _bound_tables(leq):
    """Join and meet read off an order matrix: the upper bound of x and y
    below every upper bound, and the lower bound above every lower bound."""
    N = range(len(leq))

    def least(bounds):
        return next(u for u in bounds if all(leq[u][v] for v in bounds))

    def greatest(bounds):
        return next(u for u in bounds if all(leq[v][u] for v in bounds))

    join = [[least([u for u in N if leq[x][u] and leq[y][u]]) for y in N] for x in N]
    meet = [[greatest([u for u in N if leq[u][x] and leq[u][y]]) for y in N] for x in N]
    return join, meet


def has_n5(leq) -> bool:
    """True iff some a < b and c have a v c = b v c and a ^ c = b ^ c: then
    {a ^ c, a, b, c, a v c} is a sublattice isomorphic to the pentagon N5,
    and a lattice is modular iff it has none (Dedekind)."""
    join, meet = _bound_tables(leq)
    N = range(len(leq))
    return any(
        leq[a][b] and a != b and join[a][c] == join[b][c] and meet[a][c] == meet[b][c]
        for a in N
        for b in N
        for c in N
    )


def has_m3(leq) -> bool:
    """True iff three distinct x, y, z have one pairwise join and one pairwise
    meet: then {x ^ y, x, y, z, x v y} is a sublattice isomorphic to the
    diamond M3, and a lattice is distributive iff it has neither M3 nor N5
    (Birkhoff)."""
    join, meet = _bound_tables(leq)
    return any(
        join[x][y] == join[x][z] == join[y][z] and meet[x][y] == meet[x][z] == meet[y][z]
        for x, y, z in itertools.combinations(range(len(leq)), 3)
    )


# ---------------------------------------------------------------------------
# random law texts for a differential fuzz of the law compiler


def random_order(rng, n: int) -> tuple[tuple[bool, ...], ...]:
    """A random partial order on n points: random pairs along a random linear
    order, closed transitively."""
    N = range(n)
    rank, density = rng.sample(N, n), rng.random()
    leq = [[x == y or (rank[x] < rank[y] and rng.random() < density) for y in N] for x in N]
    for k in N:
        for x in N:
            if leq[x][k]:
                leq[x] = [a or b for a, b in zip(leq[x], leq[k])]
    return tuple(map(tuple, leq))


def _term(rng, vs: list[str], depth: int) -> str:
    """A random element term: a variable, bottom, top, comp[t] or T[t][t]."""
    r = rng.random()
    if depth == 0 or r < 0.35:
        return rng.choice(("bottom", "top")) if rng.random() < 0.15 else rng.choice(vs)
    if r < 0.5:
        return f"comp[{_term(rng, vs, depth - 1)}]"
    table = rng.choice(("join", "meet", "odot", "imp"))
    return f"{table}[{_term(rng, vs, depth - 1)}][{_term(rng, vs, depth - 1)}]"


def _formula(rng, vs: list[str], depth: int) -> str:
    """A random test from ==, leq[t][t], and, or and not."""
    r = rng.random()
    if depth == 0 or r < 0.5:
        a, b = _term(rng, vs, rng.randint(0, 2)), _term(rng, vs, rng.randint(0, 2))
        return f"{a} == {b}" if rng.random() < 0.6 else f"leq[{a}][{b}]"
    if r < 0.55:
        return f"not ({_formula(rng, vs, depth - 1)})"
    op = rng.choice(("and", "or"))
    return f"({_formula(rng, vs, depth - 1)}) {op} ({_formula(rng, vs, depth - 1)})"


def _guarded(rng, vs: list[str]) -> str:
    """`not leq[a][z] or Q`, with z innermost and a outer, or a near miss: the
    guard reversed, not first, on a variable that is not innermost, without
    `not`, or followed by two disjuncts."""
    z, a = vs[-1], rng.choice(vs[:-1])
    guard, q = f"not leq[{a}][{z}]", _formula(rng, vs, 2)
    variant = rng.randrange(6)
    if variant == 1:
        guard = f"not leq[{z}][{a}]"
    elif variant == 2:
        return f"({q}) or {guard}"
    elif variant == 3 and len(vs) == 3:
        guard = "not leq[x][y]"
    elif variant == 4:
        guard = f"leq[{a}][{z}]"
    elif variant == 5:
        return f"{guard} or ({q}) or ({_formula(rng, vs, 1)})"
    return f"{guard} or ({q})"


def _row_equalities(rng, vs: list[str]) -> str:
    """Equalities between rows indexed by the innermost variable z, as the
    row check reads them: R[z] and A[B[z]], with A or B a table row at outer
    terms or comp, and now and then A[B[w]] with w an outer variable."""
    z, outer = vs[-1], vs[:-1]

    def row(tables=("join", "meet", "odot", "imp")) -> str:
        return f"{rng.choice(tables)}[{_term(rng, outer, 1)}]"

    def side() -> str:
        if rng.random() < 0.4:
            return f"{row(('leq', 'join', 'meet', 'odot', 'imp'))}[{z}]"
        # leq rows hold bools, so they index nothing
        inner = "comp" if rng.random() < 0.3 else row()
        a = "comp" if rng.random() < 0.3 else row(("leq", "join", "meet", "odot", "imp"))
        w = z if rng.random() < 0.85 else rng.choice(outer)
        return f"{a}[{inner}[{w}]]"

    return " and ".join(f"{side()} == {side()}" for _ in range(rng.randint(1, 3)))


def random_law_text(rng, shape: str) -> tuple[str, str]:
    """A seeded random law as (vars, holds) over x, y and z.

    "plain" draws any test over leq, join, meet, comp, odot, imp, bottom and
    top with ==, and, or and not; "guard" draws the guard shape and its near
    misses; "rows" draws the row-check shapes.  The last two take two or
    three variables.
    """
    vs = ["x", "y", "z"][: rng.randint(1 if shape == "plain" else 2, 3)]
    if shape == "guard":
        holds = _guarded(rng, vs)
    elif shape == "rows":
        holds = _row_equalities(rng, vs)
    else:
        holds = _formula(rng, vs, 2)
    return ",".join(vs), holds
