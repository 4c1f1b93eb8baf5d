"""Every law report over a fixed corpus, pinned by one SHA-256 digest.

The corpus holds every lattice up to size 7 and a copy of each with one
seeded `join` cell corrupted; every orthocomplementation of each lattice up
to size 6 plus seeded random unary tables; and the Sasaki groupoid of every
such candidate plus a copy with one seeded `odot` cell changed.  The digest
covers the rendered reports (entry order, verdicts, witnesses and notes), the
groupoid profiles, `is_boolean`, and `find_counterexample` for every axiom id,
so any change to a law, its scan order or its report layout shows here.

A second corpus, pinned by its own digest, aims at the failing side: every
lattice up to size 7 with one seeded `meet` cell, its bottom or its top
corrupted, the ortholattice suites over the corrupted `meet`, and every Sasaki
groupoid up to size 6 with one seeded `imp` cell changed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import random
import re

import oracles
from conftest import make_boolean, make_mo
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
    verify_oml,
    verify_ortholattice,
)
from omlat.order import LATTICE_LAWS, BoundedLattice, FinitePoset, lattice_from_covers
from omlat.ortho import ORTHO_LAWS, ORTHOLATTICE_LAWS, ORTHOMODULAR_LAWS
from omlat.reports import Law, _suite, bind, check_laws, first_violation
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


def _corrupt_meet(l, rng: random.Random):
    x, y = rng.randrange(l.n), rng.randrange(l.n)
    value = _other_value(rng, l.n, l.meet[x][y])
    return dataclasses.replace(l, meet=_with_cell(l.meet, x, y, value))


def _corrupt_imp(g: LrGroupoid, rng: random.Random) -> LrGroupoid:
    n = g.lattice.n
    x, y = rng.randrange(n), rng.randrange(n)
    value = _other_value(rng, n, g.imp[x][y])
    return LrGroupoid(g.lattice, g.odot, _with_cell(g.imp, x, y, value))


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


PINNED_CORRUPTED_REPORTS = (
    4281,
    5352,
    "6250ccf9d59e1e889b08ef35715584275b309c8f9b80f053cdcc6f188f0ae82f",
)


def _groupoid_lines(g: LrGroupoid):
    yield verify_lrg(g).render("groupoid")
    for name, profile in (
        ("core", CORE_AXIOMS),
        ("thm1", ALL_AXIOMS),
        ("thm2", RECOVERY_AXIOMS),
        ("thm3", ROUND_TRIP_AXIOMS),
    ):
        yield verify_lrg(g, profile).render(name)
    for axiom in sorted(GROUPOID_AXIOM_IDS):
        yield f"{axiom} {find_counterexample(g, axiom)!r}"


def _corrupted_corpus_lines():
    rng = random.Random(20261020)
    for l in enumerate_bounded_lattices(EnumerationConfig(7)):
        if l.n == 1:
            continue
        bad_meet = _corrupt_meet(l, rng)
        yield verify_lattice(bad_meet).render("corrupted meet")
        for bound in ("bottom", "top"):
            value = _other_value(rng, l.n, getattr(l, bound))
            yield verify_lattice(dataclasses.replace(l, **{bound: value})).render(bound)
        if l.n > 6:
            continue
        tables = list(enumerate_orthocomplements(l))
        tables += [
            tuple(rng.randrange(l.n) for _ in range(l.n))
            for _ in range(RANDOM_TABLES_PER_LATTICE)
        ]
        for comp in tables:
            c = OrthoCandidate(bad_meet, comp)
            yield verify_oml(c).render("ortholattice over corrupted meet")
            for axiom in sorted(ORTHO_AXIOM_IDS):
                yield f"{axiom} {find_counterexample(c, axiom)!r}"
            g = sasaki_groupoid(OrthoCandidate(l, comp), override=True)
            yield from _groupoid_lines(_corrupt_imp(g, rng))


def test_corrupted_law_reports_are_pinned():
    digest = hashlib.sha256()
    lines = 0
    failing = 0
    for line in _corrupted_corpus_lines():
        digest.update(line.encode("utf-8") + b"\n")
        lines += 1
        failing += line.count("FAIL  ")
    assert (lines, failing, digest.hexdigest()) == PINNED_CORRUPTED_REPORTS


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
    """First tuple in row-major order where `law.holds` evaluates false, with
    the masks up and down read off `tables["leq"]`."""
    code = compile(law.holds, law.id, "eval")
    vs = law.vars.split(",")
    scope = tables | oracles.order_masks(tables["leq"]) | {"N": range(n)}
    for elems in itertools.product(range(n), repeat=len(vs)):
        if not eval(code, scope | dict(zip(vs, elems))):
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


FILTERED_LAWS = {
    "associativity",
    "de-morgan-join",
    "de-morgan-meet",
    "distributivity",
    "left-adjointness",
}
MUTATIONS_PER_TABLE = 10


def _passing_structures():
    """Orthomodular candidates of sizes 1, 2, 8 and 12 whose Sasaki groupoid
    passes every groupoid law, so the row filter sees mostly equal rows."""
    yield from (make_boolean(k) for k in (0, 1, 3))
    for k in (3, 5):
        l = make_mo(k)
        yield OrthoCandidate(l, next(iter(enumerate_orthocomplements(l))))


def _scan_tables(c: OrthoCandidate, g: LrGroupoid) -> dict:
    l = c.lattice
    return {
        "leq": l.leq, "join": l.join, "meet": l.meet, "bottom": l.bottom,
        "top": l.top, "comp": c.comp, "odot": g.odot, "imp": g.imp,
    }


def _with_cell(table, x: int, y: int, value: int):
    rows = [list(row) for row in table]
    rows[x][y] = value
    return tuple(map(tuple, rows))


def _assert_scans_match(tables: dict, names: tuple[str, ...]) -> int:
    """Compare every law's compiled scan with naive evaluation; count the
    filtered laws whose first failing tuple has x past the first element."""
    n = len(names)
    lattice = BoundedLattice(
        FinitePoset(names, tables["leq"]),
        tables["join"],
        tables["meet"],
        tables["bottom"],
        tables["top"],
    )
    ops = {k: tables[k] for k in ("comp", "odot", "imp")}
    hits = 0
    for law in LATTICE_LAWS + ORTHO_LAWS + GROUPOID_LAWS:
        hit = _naive_first_violation(law, tables, n)
        want = None if hit is None else bind(law.vars, names, hit)
        assert first_violation(law, lattice, **ops) == want, law.id
        hits += law.id in FILTERED_LAWS and hit is not None and hit[0] > 0
    return hits


def test_compiled_scans_match_naive_evaluation_on_passing_structures():
    """Structures that pass take the equal-rows path of the row filter; one
    changed odot, imp, join or meet cell makes a late row differ, and the
    exact innermost loop must then find the same first failing tuple.  So
    must one changed comp cell and one flipped leq cell."""
    rng = random.Random(20261019)
    sizes, late_hits = [], 0
    for c in _passing_structures():
        g, names, n = sasaki_groupoid(c), c.names, c.lattice.n
        tables = _scan_tables(c, g)
        sizes.append(n)
        assert verify_lattice(c.lattice).overall and verify_lrg(g).overall
        _assert_scans_match(tables, names)
        if n == 1:
            continue
        for key in ("odot", "imp", "join", "meet"):
            cells = [(n - 1, n - 1)] + [
                (rng.randrange(n), rng.randrange(n)) for _ in range(MUTATIONS_PER_TABLE)
            ]
            for x, y in cells:
                value = _other_value(rng, n, tables[key][x][y])
                late_hits += _assert_scans_match(
                    tables | {key: _with_cell(tables[key], x, y, value)}, names
                )
        cells = [(n - 1, n - 1)] + [
            (rng.randrange(n), rng.randrange(n)) for _ in range(MUTATIONS_PER_TABLE)
        ]
        for x, y in cells:
            comp = list(tables["comp"])
            comp[x] = _other_value(rng, n, comp[x])
            late_hits += _assert_scans_match(tables | {"comp": tuple(comp)}, names)
            leq = _with_cell(tables["leq"], x, y, not tables["leq"][x][y])
            late_hits += _assert_scans_match(tables | {"leq": leq}, names)
    assert sizes == [1, 2, 8, 8, 12]
    assert late_hits


def _one_law_sources(laws) -> dict[str, str]:
    """Each law's one-law suite source, by law id."""
    return {law.id: _suite(((law.vars, law.holds),)).source for law in laws}


def test_row_filter_covers_three_variable_equalities_only():
    """Left adjointness, associativity, distributivity and both de Morgan laws
    compare whole rows as bytes before their innermost loop, composing rows
    with bytes.translate; no other law does, and no law builds getter lists.
    Left adjointness reads leq and imp, converting imp per scan; the de
    Morgan laws read join, meet and comp; the other two join and meet."""
    laws = LATTICE_LAWS + ORTHO_LAWS + GROUPOID_LAWS
    sources = _one_law_sources(laws)
    # the row check is the one `if` comparing bytes rows, `_bT[i]` or `_bcomp`
    filtered = {
        law_id for law_id, source in sources.items() if re.search(r"^ +if _b\w", source, re.M)
    }
    assert filtered == FILTERED_LAWS
    assert all(".translate(" in sources[law_id] for law_id in filtered)
    assert not any("_itemgetter" in source for source in sources.values())
    read = {
        law_id: set(re.findall(r"\b_[bt](leq|join|meet|comp|odot|imp)\b", source))
        for law_id, source in sources.items()
        if law_id in filtered
    }
    assert read == {
        "left-adjointness": {"leq", "imp"},
        "associativity": {"join", "meet"},
        "distributivity": {"join", "meet"},
        "de-morgan-join": {"join", "meet", "comp"},
        "de-morgan-meet": {"join", "meet", "comp"},
    }
    assert "_bimp = [*map(bytes, imp)]" in sources["left-adjointness"]


GUARDED_LAWS = {"antitony", "orthomodularity", "orthomodularity-dual"}


def test_only_the_guarded_laws_loop_over_guard_rows():
    """Antitony (in both suites), orthomodularity and orthomodularity-dual
    loop their innermost variable over the rows of `_leq_indices`, in the
    one-law scans and in every compiled suite; no other law reads them."""
    laws = LATTICE_LAWS + ORTHO_LAWS + GROUPOID_LAWS
    guarded = [
        law.id
        for law in laws
        if "for y in _leq_indices[x]:" in _suite(((law.vars, law.holds),)).source
    ]
    assert sorted(guarded) == sorted(["antitony", "antitony", *GUARDED_LAWS - {"antitony"}])
    for suite in (LATTICE_LAWS, ORTHOLATTICE_LAWS, ORTHOMODULAR_LAWS, GROUPOID_LAWS):
        source = _suite(tuple((law.vars, law.holds) for law in suite)).source
        want = sum(law.id in GUARDED_LAWS for law in suite)
        assert source.count("in _leq_indices[") == want
        assert ("_leq_indices = lattice._leq_indices" in source) == (want > 0)


def test_row_checked_and_guarded_laws_on_a_256_element_chain():
    """On the largest carrier, the 256-element chain with comp x -> 255 - x,
    entries reach 255, the top byte of the translate tables.  Both de Morgan
    laws pass; with one corrupted comp cell they, antitony and both
    orthomodular laws fail at the first tuple that evaluating them finds,
    alone and in their suites."""
    n = 256
    names = tuple(f"c{i}" for i in range(n))
    l = lattice_from_covers(names, zip(names, names[1:]))
    comp = tuple(n - 1 - x for x in range(n))
    suites = {law.id: suite for suite in (ORTHOLATTICE_LAWS, ORTHOMODULAR_LAWS) for law in suite}
    de_morgan = {law_id for law_id in suites if law_id.startswith("de-morgan")}
    assert len(de_morgan) == 2 and set(suites) >= GUARDED_LAWS
    bad = comp[:100] + (7,) + comp[101:]
    tables = {
        "leq": l.leq, "join": l.join, "meet": l.meet, "bottom": l.bottom,
        "top": l.top, "comp": bad, "odot": None, "imp": None,
    }
    for law_id in sorted(de_morgan | GUARDED_LAWS):
        suite = suites[law_id]
        law = next(law for law in suite if law.id == law_id)
        if law_id in de_morgan:
            assert first_violation(law, l, comp=comp) is None
        hit = _naive_first_violation(law, tables, n)
        assert hit is not None
        want = bind(law.vars, names, hit)
        assert first_violation(law, l, comp=bad) == want
        assert next(r for r in check_laws(suite, l, comp=bad) if r.axiom == law_id).witness == want
    assert "_byte_mirror" in vars(l)


FUZZ_TRIALS = 160


def test_compiled_suites_match_naive_evaluation_on_random_law_texts():
    """A differential fuzz of the law compiler.  Each trial draws four law
    texts (oracles.random_law_text: plain, guard-shaped with its near misses,
    or row-check shaped) and total tables on 1-5 elements, with `leq` a
    random bool table in half the trials and a partial order in the rest.
    Each text is compiled as a suite of one and a random suite of 2-4 of
    them as one scan: 160 trials, 640 one-law suites and 160 mixed suites,
    every first failing tuple against row-major evaluation."""
    rng = random.Random(20261022)
    scans = guarded = filtered = witnesses = 0
    for trial in range(FUZZ_TRIALS):
        n = rng.randint(1, 5)
        tables = _random_tables(rng, n)
        if trial % 2:
            tables["leq"] = oracles.random_order(rng, n)
        names = tuple(f"e{i}" for i in range(n))
        lattice = BoundedLattice(
            FinitePoset(names, tables["leq"]),
            tables["join"],
            tables["meet"],
            tables["bottom"],
            tables["top"],
        )
        ops = {k: tables[k] for k in ("comp", "odot", "imp")}
        texts = [
            oracles.random_law_text(rng, rng.choice(("plain", "guard", "rows")))
            for _ in range(4)
        ]
        want = [_naive_first_violation(Law("fuzz", *text), tables, n) for text in texts]
        witnesses += sum(hit is not None for hit in want)
        for text, hit in zip(texts, want):
            scan = _suite.__wrapped__((text,))
            assert scan(lattice, **ops) == (hit,), (text, tables)
            scans += 1
            guarded += "in _leq_indices[" in scan.source
            filtered += ".translate(" in scan.source
        picks = rng.sample(range(4), rng.randint(2, 4))
        suite = _suite.__wrapped__(tuple(texts[i] for i in picks))
        got = suite(lattice, **ops)
        assert got == tuple(want[i] for i in picks), ([texts[i] for i in picks], tables)
    assert scans == 4 * FUZZ_TRIALS
    # every path runs: 96 guard loops, 61 row checks, 444 of 640 texts failing
    assert guarded > 80 and filtered > 40 and 0 < witnesses < 4 * FUZZ_TRIALS


def _assert_bound_laws_match_first_statement(l) -> int:
    """join-is-lub and meet-is-glb on masks against their first statements;
    the number of the two that fail."""
    join_is_lub, meet_is_glb = LATTICE_LAWS[:2]
    failing = 0
    for law, hit in (
        (join_is_lub, oracles.join_is_lub_violation(l.leq, l.join)),
        (meet_is_glb, oracles.meet_is_glb_violation(l.leq, l.meet)),
    ):
        want = None if hit is None else bind(law.vars, l.names, hit)
        assert first_violation(law, l) == want, (law.id, l)
        failing += hit is not None
    return failing


def test_bound_laws_on_masks_match_their_first_statement(monkeypatch):
    """join-is-lub and meet-is-glb read up-set and down-set masks.  On every
    lattice that both pinned corpora check, and on copies of lattices up to
    size 12 with one leq cell flipped, they fail at the same first pair as
    their first statements, kept in tests/oracles.py."""
    checked, check = [], verify_lattice

    def spy(l):
        checked.append(l)
        return check(l)

    monkeypatch.setitem(globals(), "verify_lattice", spy)
    for _ in itertools.chain(_corpus_lines(), _corrupted_corpus_lines()):
        pass
    monkeypatch.undo()
    # the 78 lattices to size 7, one corrupted join of each but the first,
    # and a corrupted meet, bottom and top of each but the first
    assert len(checked) == 78 + 77 + 3 * 77
    failing = sum(map(_assert_bound_laws_match_first_statement, checked))
    # a flipped cell goes to a copy whose masks are read afresh
    rng = random.Random(20261021)
    lattices = enumerate_bounded_lattices(EnumerationConfig(7))
    lattices += [c.lattice for c in _passing_structures()]
    flips = 0
    for l in lattices:
        cells = [(l.n - 1, 0)] + [
            (rng.randrange(l.n), rng.randrange(l.n)) for _ in range(MUTATIONS_PER_TABLE)
        ]
        for x, y in cells:
            leq = _with_cell(l.leq, x, y, not l.leq[x][y])
            flipped = dataclasses.replace(l, poset=FinitePoset(l.names, leq))
            flips += _assert_bound_laws_match_first_statement(flipped)
    assert failing and flips


def test_no_benzene_ring_iff_orthomodular(monkeypatch):
    """An ortholattice is orthomodular iff it has no sub-ortholattice O6.
    The search for one (oracles.has_o6) shares no code with the law rows,
    and "no O6" is the verify_oml verdict on every ortho pair up to size 8,
    on all 945 of MO5's complementations, and on every candidate of both
    pinned corpora whose lattice and ortholattice suites pass."""
    seen = []
    for name in ("verify_ortholattice", "verify_oml"):
        check = globals()[name]
        monkeypatch.setitem(globals(), name, lambda c, check=check: seen.append(c) or check(c))
    for _ in itertools.chain(_corpus_lines(), _corrupted_corpus_lines()):
        pass
    monkeypatch.undo()
    corpus = [
        c for c in seen if verify_lattice(c.lattice).overall and verify_ortholattice(c).overall
    ]
    pairs = [
        OrthoCandidate(l, comp)
        for l in enumerate_bounded_lattices(EnumerationConfig(8))
        for comp in enumerate_orthocomplements(l)
    ]
    mo5 = make_mo(5)
    mo5_pairs = [OrthoCandidate(mo5, comp) for comp in enumerate_orthocomplements(mo5)]
    assert len(mo5_pairs) == 945
    verdicts = {}
    for part, candidates in (("corpus", corpus), ("pairs", pairs), ("MO5", mo5_pairs)):
        for c in candidates:
            l = c.lattice
            o6 = oracles.has_o6(l.leq, l.join, l.meet, c.comp, l.bottom, l.top)
            assert o6 != verify_oml(c).overall, (part, c)
            verdicts[part, o6] = verdicts.get((part, o6), 0) + 1
    # (part, has O6) -> candidates; the corpora hold 13 OMLs and O6 itself
    assert verdicts == {
        ("corpus", False): 13, ("corpus", True): 1,
        ("pairs", False): 22, ("pairs", True): 5,
        ("MO5", False): 945,
    }


def test_only_the_bound_laws_read_the_masks():
    """The masks are read from the lattice by the two laws naming them and by
    no other law; no law has a generator, and the down-sets are cached on a
    lattice only once a law reads them."""
    laws = LATTICE_LAWS + ORTHO_LAWS + GROUPOID_LAWS
    sources = _one_law_sources(laws)
    reads = {
        law_id: re.findall(r"\b(up|down) = lattice\.\1\n", source)
        for law_id, source in sources.items()
    }
    assert {law_id: masks for law_id, masks in reads.items() if masks} == {
        "join-is-lub": ["up"],
        "meet-is-glb": ["down"],
    }
    assert not any(" for " in law.holds for law in laws)
    c = make_boolean(2)
    l = BoundedLattice(c.lattice.poset, c.lattice.join, c.lattice.meet, 0, 3)
    assert verify_oml(OrthoCandidate(l, c.comp)).overall
    assert "down" not in vars(l)
    assert verify_lattice(l).overall and l.down == c.lattice.down
