"""Every law report over a fixed corpus, pinned by one SHA-256 digest.

The corpus holds every lattice up to size 7 and a copy of each with one
seeded `join` cell corrupted; every orthocomplementation of each lattice up
to size 6 plus seeded random unary tables; and the Sasaki groupoid of every
such candidate plus a copy with one seeded `odot` cell changed.  The digest
covers the rendered reports (entry order, verdicts, witnesses and notes), the
groupoid profiles, `is_boolean`, and `find_counterexample` for every axiom id,
so any change to a law, its scan order or its report layout shows here.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random

from omlat import (
    ALL_AXIOMS,
    CORE_AXIOMS,
    GROUPOID_AXIOM_IDS,
    ORTHO_AXIOM_IDS,
    RECOVERY_AXIOMS,
    ROUND_TRIP_AXIOMS,
    EnumerationConfig,
    LrGroupoid,
    OrthoCandidate,
    check_orthomodularity,
    enumerate_bounded_lattices,
    enumerate_orthocomplements,
    find_counterexample,
    is_boolean,
    sasaki_groupoid,
    verify_lattice,
    verify_lrg,
    verify_ortholattice,
)

PINNED_REPORTS = (
    6808,
    8628,
    "e7fd9d9d17fb6a7873f7207b2595c83fb86f446ec245e93fddfb44ebcc1e7cbe",
)
RANDOM_TABLES_PER_LATTICE = 6


def _other_value(rng: random.Random, n: int, value: int) -> int:
    return (value + 1 + rng.randrange(n - 1)) % n


def _corrupt_join(l, rng: random.Random):
    x, y = rng.randrange(l.n), rng.randrange(l.n)
    join = [list(row) for row in l.join]
    join[x][y] = _other_value(rng, l.n, join[x][y])
    return dataclasses.replace(l, join=tuple(tuple(row) for row in join))


def _corrupt_odot(g: LrGroupoid, rng: random.Random) -> LrGroupoid:
    n = g.lattice.n
    x, y = rng.randrange(n), rng.randrange(n)
    odot = [list(row) for row in g.odot]
    odot[x][y] = _other_value(rng, n, odot[x][y])
    return LrGroupoid(g.lattice, odot, g.imp)


def _corpus_lines():
    rng = random.Random(20180517)
    lattices = enumerate_bounded_lattices(EnumerationConfig(7))
    for l in lattices:
        yield verify_lattice(l).render("lattice")
        if l.n > 1:
            yield verify_lattice(_corrupt_join(l, rng)).render("corrupted join")
    for l in lattices:
        if l.n > 6:
            continue
        tables = list(enumerate_orthocomplements(l))
        tables += [
            tuple(rng.randrange(l.n) for _ in range(l.n))
            for _ in range(RANDOM_TABLES_PER_LATTICE)
        ]
        for comp in tables:
            c = OrthoCandidate(l, comp)
            yield verify_ortholattice(c).render("ortholattice")
            yield check_orthomodularity(c).render("orthomodularity")
            yield f"is_boolean {is_boolean(c)!r}"
            for axiom in sorted(ORTHO_AXIOM_IDS):
                yield f"{axiom} {find_counterexample(c, axiom)!r}"
            g = sasaki_groupoid(c, override=True)
            groupoids = [g]
            if l.n > 1:
                groupoids.append(_corrupt_odot(g, rng))
            for h in groupoids:
                yield verify_lrg(h).render("groupoid")
                for name, profile in (
                    ("core", CORE_AXIOMS),
                    ("thm1", ALL_AXIOMS),
                    ("thm2", RECOVERY_AXIOMS),
                    ("thm3", ROUND_TRIP_AXIOMS),
                ):
                    yield verify_lrg(h, profile).render(name)
                for axiom in sorted(GROUPOID_AXIOM_IDS):
                    yield f"{axiom} {find_counterexample(h, axiom)!r}"


def test_law_reports_are_pinned():
    digest = hashlib.sha256()
    lines = 0
    failing = 0
    for line in _corpus_lines():
        digest.update(line.encode("utf-8") + b"\n")
        lines += 1
        failing += line.count("FAIL  ")
    assert (lines, failing, digest.hexdigest()) == PINNED_REPORTS
