"""End-to-end acceptance gate.

Each test exercises one shipping requirement end to end, prints exactly one
`CRITERION <n> PASS/FAIL: <detail>` line, and asserts it.  The corpus used
throughout is produced by the real CLI `enumerate` command, parsed back from
the files it writes.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import sys
import time

import pytest

import oracles
from conftest import DATA_DIR, make_boolean, make_o6
from omlat import (
    ALL_AXIOMS,
    CORE_AXIOMS,
    RECOVERY_AXIOMS,
    EnumerationConfig,
    LrGroupoid,
    NotOrthomodularError,
    OrthoCandidate,
    check_orthomodularity,
    derived_negation,
    enumerate_bounded_lattices,
    enumerate_orthocomplements,
    find_counterexample,
    induced_oml,
    parse_structure,
    round_trip_check,
    sasaki_groupoid,
    serialize_structure,
    transitive_reduction,
    verify_lrg,
    verify_ortholattice,
)
from omlat.cli import main

MO2_PATH = DATA_DIR / "mo2.ortho"

# golden 6x6 operation tables for MO2, row = left operand, in element order
# 0 a a' b b' 1
MO2_ODOT = {
    "0": ["0", "0", "0", "0", "0", "0"],
    "a": ["0", "a", "0", "b", "b'", "a"],
    "a'": ["0", "0", "a'", "b", "b'", "a'"],
    "b": ["0", "a", "a'", "b", "0", "b"],
    "b'": ["0", "a", "a'", "0", "b'", "b'"],
    "1": ["0", "a", "a'", "b", "b'", "1"],
}
MO2_IMP = {
    "0": ["1", "1", "1", "1", "1", "1"],
    "a": ["a'", "1", "a'", "a'", "a'", "1"],
    "a'": ["a", "a", "1", "a", "a", "1"],
    "b": ["b'", "b'", "b'", "1", "b'", "1"],
    "b'": ["b", "b", "b", "b", "1", "1"],
    "1": ["0", "a", "a'", "b", "b'", "1"],
}


def conclude(capsys, num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"CRITERION {num} {status}: {detail}", file=sys.stderr)
    assert ok, f"criterion {num}: {detail}"


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """CLI-enumerated OML corpus up to size 8, parsed back from its files."""
    out_dir = tmp_path_factory.mktemp("corpus")
    start = time.perf_counter()
    code, out = run_cli(["enumerate", "--max-size", "8", "--omod", "--out", str(out_dir)])
    elapsed = time.perf_counter() - start
    assert code == 0
    paths = out.splitlines()
    candidates = [parse_structure(open(p, encoding="utf-8").read()) for p in paths]
    return {"paths": paths, "candidates": candidates, "elapsed": elapsed}


def test_criterion_1_golden_mo2_tables(capsys):
    start = time.perf_counter()
    code, out = run_cli(["build", "a-of-l", str(MO2_PATH)])
    elapsed = time.perf_counter() - start
    assert code == 0
    g = parse_structure(out)
    names = g.lattice.names
    mismatches = 0
    for x, row in enumerate(g.odot):
        for y, v in enumerate(row):
            if names[v] != MO2_ODOT[names[x]][y]:
                mismatches += 1
    for x, row in enumerate(g.imp):
        for y, v in enumerate(row):
            if names[v] != MO2_IMP[names[x]][y]:
                mismatches += 1
    ok = mismatches == 0 and elapsed < 1.0
    conclude(
        capsys,
        1,
        ok,
        f"built MO2 groupoid matches the 36+36 golden table entries with "
        f"{mismatches} mismatches in {elapsed:.3f}s (budget 1s)",
    )


def test_criterion_2_groupoid_law_suite(capsys, corpus):
    start = time.perf_counter()
    structures = list(corpus["candidates"])
    structures.append(parse_structure(MO2_PATH.read_text()))
    structures.extend(make_boolean(k) for k in (1, 2, 3))
    violations = 0
    for c in structures:
        g = sasaki_groupoid(c)
        report = verify_lrg(g, ALL_AXIOMS)
        violations += len(report.failures)
        if derived_negation(g) != c.comp:
            violations += 1
    elapsed = corpus["elapsed"] + (time.perf_counter() - start)
    ok = violations == 0 and len(corpus["candidates"]) == 22 and elapsed < 60.0
    conclude(
        capsys,
        2,
        ok,
        f"full groupoid law suite (unit laws, adjointness over all triples, "
        f"divisibility, antitony, double negation, both operation identities, "
        f"join absorption, derived negation = complement) on "
        f"{len(structures)} structures: {violations} violations in "
        f"{elapsed:.1f}s (budget 60s)",
    )


def test_criterion_3_round_trips_bit_exact(capsys, corpus):
    structures = list(corpus["candidates"])
    structures.append(parse_structure(MO2_PATH.read_text()))
    structures.extend(make_boolean(k) for k in (1, 2, 3))
    mismatches = 0
    for c in structures:
        back = induced_oml(sasaki_groupoid(c), RECOVERY_AXIOMS)
        if back.lattice.leq != c.lattice.leq or back.comp != c.comp:
            mismatches += 1
        if not round_trip_check(c).overall:
            mismatches += 1
        g = sasaki_groupoid(c)
        again = sasaki_groupoid(induced_oml(g, RECOVERY_AXIOMS))
        if again.odot != g.odot or again.imp != g.imp:
            mismatches += 1
        if not round_trip_check(g).overall:
            mismatches += 1
    conclude(
        capsys,
        3,
        mismatches == 0,
        f"lattice->groupoid->lattice and groupoid->lattice->groupoid are "
        f"bit-exact on all {len(structures)} corpus structures "
        f"({mismatches} mismatches)",
    )


def test_criterion_4_recovered_structures_are_orthomodular(capsys):
    keep = CORE_AXIOMS + ("join-absorption",)
    maps = survivors = violations = 0
    for l in enumerate_bounded_lattices(EnumerationConfig(6)):
        n, names = l.n, l.names
        join, meet, leq = l.join, l.meet, l.leq
        for u in itertools.product(range(n), repeat=n):
            if any(u[u[x]] != x for x in range(n)):
                continue
            if any(
                leq[x][y] and not leq[u[y]][u[x]]
                for x in range(n)
                for y in range(n)
            ):
                continue
            maps += 1
            odot = tuple(
                tuple(meet[join[x][u[y]]][y] for y in range(n)) for x in range(n)
            )
            imp = tuple(
                tuple(join[meet[y][x]][u[x]] for y in range(n)) for x in range(n)
            )
            g = LrGroupoid(l, odot, imp)
            if not verify_lrg(g, keep).overall:
                continue
            survivors += 1
            try:
                c = induced_oml(g, RECOVERY_AXIOMS)
            except NotOrthomodularError:
                violations += 1
                continue
            merged = verify_ortholattice(c).merged(check_orthomodularity(c))
            if not merged.overall:
                violations += 1
    ok = maps == 31 and survivors == 6 and violations == 0
    conclude(
        capsys,
        4,
        ok,
        f"lattices up to size 6 paired with every antitone involutive unary "
        f"map: {maps} maps, {survivors} groupoids kept by unit+adjointness+"
        f"join-absorption, every induced structure orthomodular "
        f"({violations} violations)",
    )


def test_criterion_5_negative_controls_on_o6(capsys):
    start = time.perf_counter()
    runs = []
    for _ in range(2):
        o6 = make_o6()
        omod = find_counterexample(o6, "orthomodularity")
        g = sasaki_groupoid(o6, override=True)
        adj = find_counterexample(g, "left-adjointness")
        div = find_counterexample(g, "divisibility")
        runs.append((omod, adj, div))
    elapsed = time.perf_counter() - start
    omod, adj, div = runs[0]
    ok = (
        runs[0] == runs[1]
        and omod == (("x", "x"), ("y", "y"))
        and adj == (("x", "x"), ("y", "y"), ("z", "x"))
        and div == (("x", "y"), ("y", "x"))
        and elapsed < 1.0
    )
    conclude(
        capsys,
        5,
        ok,
        f"O6 fails orthomodularity at {omod}, adjointness at {adj}, "
        f"divisibility at {div}, reproduced identically twice in "
        f"{elapsed:.3f}s (budget 1s)",
    )


def test_criterion_6_meta_properties(capsys, corpus):
    discrepancies = checked = 0
    # non-vacuous instances: every corpus member satisfies the premises
    for c in corpus["candidates"]:
        report = verify_ortholattice(c).merged(check_orthomodularity(c))
        for axiom in ("de-morgan-derived", "orthomodularity-agreement"):
            checked += 1
            if not report.passed(axiom):
                discrepancies += 1
    # adversarial sweep: every involution on every lattice up to size 6,
    # antitone or not, complement or not; the two implication rows must
    # never report a failure
    for l in enumerate_bounded_lattices(EnumerationConfig(6)):
        for perm in itertools.permutations(range(l.n)):
            if any(perm[perm[x]] != x for x in range(l.n)):
                continue
            c = OrthoCandidate(l, perm)
            report = verify_ortholattice(c).merged(check_orthomodularity(c))
            for axiom in ("de-morgan-derived", "orthomodularity-agreement"):
                checked += 1
                if not report.passed(axiom):
                    discrepancies += 1
    conclude(
        capsys,
        6,
        discrepancies == 0 and checked > 1000,
        f"de Morgan laws follow from antitony+involution and both "
        f"orthomodular-law forms agree under the complement laws on "
        f"{checked} structure/meta-law combinations ({discrepancies} "
        f"discrepancies)",
    )


def test_criterion_7_oracle_equivalence(capsys):
    package_counts = {}
    for l in enumerate_bounded_lattices(EnumerationConfig(5)):
        package_counts[l.n] = package_counts.get(l.n, 0) + 1
    oracle_counts = {
        n: oracles.iso_class_count(oracles.labeled_lattices(n), n)
        for n in range(1, 6)
    }
    mo2 = parse_structure(MO2_PATH.read_text()).lattice
    o6 = make_o6().lattice
    comp_results = []
    for l in (mo2, o6):
        for omod in (False, True):
            got = enumerate_orthocomplements(l, require_omod=omod)
            expected = sorted(
                oracles.brute_force_complement_tables(
                    l.leq, l.join, l.meet, l.bottom, l.top, omod
                )
            )
            comp_results.append(got == expected)
    ok = package_counts == oracle_counts and all(comp_results)
    conclude(
        capsys,
        7,
        ok,
        f"lattice class counts up to size 5 {sorted(package_counts.items())} "
        f"and MO2/O6 complement searches match the independent labeled "
        f"brute-force oracle exactly",
    )


def test_criterion_8_format_round_trip(capsys, corpus):
    files = list(corpus["paths"])
    files.extend(
        str(DATA_DIR / f)
        for f in (
            "mo2.ortho",
            "o6.ortho",
            "bool2.ortho",
            "bool4.ortho",
            "bool8.ortho",
            "mo2_sasaki.groupoid",
        )
    )
    non_identity = 0
    for path in files:
        text = open(path, encoding="utf-8").read()
        if serialize_structure(parse_structure(text)) != text:
            non_identity += 1
    code, dot = run_cli(["dot", str(MO2_PATH)])
    assert code == 0
    mo2 = parse_structure(MO2_PATH.read_text())
    names = mo2.lattice.names
    expected_edges = {
        (names[x], names[y]) for x, y in transitive_reduction(mo2.lattice.poset)
    }
    got_edges = set()
    for line in dot.splitlines():
        if "->" in line and "dashed" not in line:
            lhs, rhs = line.strip().rstrip(";").split(" -> ")
            got_edges.add((lhs.strip('"'), rhs.strip('"')))
    ok = non_identity == 0 and got_edges == expected_edges and len(got_edges) == 8
    conclude(
        capsys,
        8,
        ok,
        f"parse-serialize is the identity on all {len(files)} corpus files "
        f"and DOT emits exactly the {len(got_edges)}-edge transitive "
        f"reduction for MO2",
    )
