"""Reference checks that share no code with omlat.

The benchmark judges omlat's outputs with these: its own reader for the
structure file format, brute-force order and lattice tables, and the
orthocomplement and orthomodular laws written out directly.
"""

from __future__ import annotations

# Unlabeled lattices on 1..8 elements, OEIS A006966 (Heitzig & Reinhold,
# "Counting finite lattices", Algebra Universalis 2002).
A006966 = (1, 1, 1, 2, 5, 15, 53, 222)

# Orthomodular (lattice class, orthocomplementation) pairs by carrier size up
# to 8; odd sizes above 1 have none, since x = x' would force 0 = 1.
OML_PAIRS = {1: 1, 2: 1, 4: 1, 6: 3, 8: 16}

# All orthocomplemented (lattice class, table) pairs up to size 8.
ORTHO_PAIRS = 27


def read_structure(text: str) -> dict:
    """The `kind`, `elements`, `covers` and `comp` sections of a structure file."""
    out: dict = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        key, sep, rest = line.partition(":")
        key = key.strip()
        if not sep or key not in ("kind", "elements", "covers", "comp"):
            continue
        words = rest.split()
        if key == "kind":
            out[key] = rest.strip()
        elif key == "elements":
            out[key] = words
        elif key == "covers":
            out[key] = [tuple(w.split("<")) for w in words]
        else:
            out[key] = dict(w.split("=") for w in words)
    return out


def lattice_tables(names, covers):
    """(leq, join, meet) over the indices of `names`, or None if not a lattice.

    Raises ValueError for covers naming unknown elements or forming a cycle.
    """
    n = len(names)
    idx = {name: i for i, name in enumerate(names)}
    leq = [[x == y for y in range(n)] for x in range(n)]
    for lo, hi in covers:
        leq[idx[lo]][idx[hi]] = True
    for k in range(n):
        for x in range(n):
            if leq[x][k]:
                for y in range(n):
                    if leq[k][y]:
                        leq[x][y] = True
    if any(leq[x][y] and leq[y][x] for x in range(n) for y in range(n) if x != y):
        raise ValueError("covers form a cycle")

    def extremum(bounds, below):
        best = [b for b in bounds if all(below(b, c) for c in bounds)]
        return best[0] if best else None

    join = [[0] * n for _ in range(n)]
    meet = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            j = extremum(
                [z for z in range(n) if leq[x][z] and leq[y][z]], lambda a, b: leq[a][b]
            )
            m = extremum(
                [z for z in range(n) if leq[z][x] and leq[z][y]], lambda a, b: leq[b][a]
            )
            if j is None or m is None:
                return None
            join[x][y], meet[x][y] = j, m
    return leq, join, meet


def is_orthocomplement(leq, join, meet, comp) -> bool:
    """comp is an antitone involution sending each x to a lattice complement."""
    n = len(comp)
    top = next(t for t in range(n) if all(leq[x][t] for x in range(n)))
    bottom = next(b for b in range(n) if all(leq[b][x] for x in range(n)))
    return all(
        comp[comp[x]] == x and join[x][comp[x]] == top and meet[x][comp[x]] == bottom
        for x in range(n)
    ) and all(
        leq[comp[y]][comp[x]] for x in range(n) for y in range(n) if leq[x][y]
    )


def is_orthomodular(leq, join, meet, comp) -> bool:
    """x <= y implies y = x join (y meet x')."""
    n = len(comp)
    return all(
        join[x][meet[y][comp[x]]] == y for x in range(n) for y in range(n) if leq[x][y]
    )
