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
import itertools
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
from omlat.order import LATTICE_LAWS, BoundedLattice, FinitePoset
from omlat.ortho import ORTHO_LAWS
from omlat.reports import bind, first_violation
from omlat.residuated import GROUPOID_LAWS

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


NAIVE_TRIALS = 400


def _random_tables(rng: random.Random, n: int) -> dict:
    """Total tables on n elements with no lattice structure assumed."""
    density = rng.random()

    def square(values):
        return tuple(tuple(values() for _ in range(n)) for _ in range(n))

    return {
        "leq": square(lambda: rng.random() < density),
        "join": square(lambda: rng.randrange(n)),
        "meet": square(lambda: rng.randrange(n)),
        "bottom": rng.randrange(n),
        "top": rng.randrange(n),
        "comp": tuple(rng.randrange(n) for _ in range(n)),
        "odot": square(lambda: rng.randrange(n)),
        "imp": square(lambda: rng.randrange(n)),
    }


def _naive_first_violation(law, tables: dict, n: int):
    """First tuple in row-major order where `law.holds` evaluates false."""
    code = compile(law.holds, law.id, "eval")
    vs = law.vars.split(",")
    for elems in itertools.product(range(n), repeat=len(vs)):
        if not eval(code, tables | {"N": range(n)} | dict(zip(vs, elems))):
            return elems
    return None


def test_compiled_scans_match_naive_evaluation():
    rng = random.Random(20261018)
    laws = LATTICE_LAWS + ORTHO_LAWS + GROUPOID_LAWS
    assert len(laws) == 27
    witnesses = 0
    for _ in range(NAIVE_TRIALS):
        n = rng.randint(1, 6)
        tables = _random_tables(rng, n)
        names = tuple(f"e{i}" for i in range(n))
        lattice = BoundedLattice(
            FinitePoset(names, tables["leq"]),
            tables["join"],
            tables["meet"],
            tables["bottom"],
            tables["top"],
        )
        ops = {k: tables[k] for k in ("comp", "odot", "imp")}
        for law in laws:
            hit = _naive_first_violation(law, tables, n)
            want = None if hit is None else bind(law.vars, names, hit)
            assert first_violation(law, lattice, **ops) == want, (law.id, tables)
            witnesses += hit is not None
    # both outcomes are exercised
    assert 0 < witnesses < NAIVE_TRIALS * len(laws)
