"""Groupoid axiom checks: units, adjointness, and the extra identities."""

from __future__ import annotations

import dataclasses
import gc
import itertools
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_mo, make_mo2, make_o6
from omlat import (
    ALL_AXIOMS,
    CORE_AXIOMS,
    RECOVERY_AXIOMS,
    ROUND_TRIP_AXIOMS,
    EnumerationConfig,
    LrGroupoid,
    OrthoCandidate,
    TableNotTotalError,
    UnknownAxiomIdError,
    derived_negation,
    enumerate_omls,
    enumerate_orthocomplements,
    lattice_from_covers,
    sasaki_groupoid,
    verify_lattice,
    verify_lrg,
    verify_oml,
)

GROUPOIDS = [sasaki_groupoid(c) for c in enumerate_omls(EnumerationConfig(6))]

# every groupoid law outside CORE_AXIOMS
EXTRA_AXIOMS = (
    "divisibility",
    "antitony",
    "double-negation",
    "sasaki-product",
    "sasaki-hook",
    "join-absorption",
)


def two_chain_groupoid() -> LrGroupoid:
    """The 2-element Boolean algebra with meet product and classical arrow."""
    l = lattice_from_covers(["0", "1"], [("0", "1")])
    odot = ((0, 0), (0, 1))
    imp = ((1, 1), (0, 1))
    return LrGroupoid(l, odot, imp)


def test_tables_must_be_total():
    l = lattice_from_covers(["0", "1"], [("0", "1")])
    with pytest.raises(TableNotTotalError):
        LrGroupoid(l, ((0,), (0, 1)), ((1, 1), (0, 1)))
    with pytest.raises(TableNotTotalError):
        LrGroupoid(l, ((0, 0), (0, 1)), ((1, 5), (0, 1)))


VALID_ODOT = ((0, 0), (0, 1))
VALID_IMP = ((1, 1), (0, 1))

# each replaces one valid table of the two-chain groupoid; the float and bool
# rows equal the valid row (0, 1) and hash like it
FLAWED_TABLES = {
    "short row": ((0,), (0, 1)),
    "long row": ((0, 0, 0), (0, 1)),
    "out of range": ((0, 0), (0, 2)),
    "negative": ((0, 0), (-1, 1)),
    "float entry": ((0, 0), (0.0, 1)),
    "bool entry": ((0, 0), (False, True)),
    "too few rows": ((0, 0),),
    "too many rows": ((0, 0), (0, 1), (0, 1)),
}


@pytest.mark.parametrize("pooled", [False, True], ids=["fresh", "pooled"])
@pytest.mark.parametrize("name", ["odot", "imp"])
@pytest.mark.parametrize("flaw", FLAWED_TABLES)
def test_flawed_table_rejected(flaw, name, pooled):
    """Rejected on a fresh lattice and on one whose rows already hold every
    valid row, including the int twins of the float and bool rows."""
    l = lattice_from_covers(["0", "1"], [("0", "1")])
    if pooled:
        g = LrGroupoid(l, VALID_ODOT, VALID_IMP)
        assert l.shared_row((0, 1)) is g.odot[1] is g.imp[1]
    tables = {"odot": VALID_ODOT, "imp": VALID_IMP, name: FLAWED_TABLES[flaw]}
    with pytest.raises(TableNotTotalError):
        LrGroupoid(l, **tables)


@pytest.mark.parametrize("flaw", ["float entry", "bool entry"])
def test_rejected_rows_are_not_stored(flaw):
    l = lattice_from_covers(["0", "1"], [("0", "1")])
    with pytest.raises(TableNotTotalError):
        LrGroupoid(l, FLAWED_TABLES[flaw], VALID_IMP)
    g = LrGroupoid(l, VALID_ODOT, VALID_IMP)
    assert all(type(v) is int for table in (g.odot, g.imp) for row in table for v in row)


@pytest.mark.parametrize("flaw", ["too short", "too long", "out of range"])
def test_flawed_bytes_rows_rejected_and_not_stored(flaw):
    """A bytes row holds ints by type, but its length and range are checked
    when it is new; a rejected one is rejected again."""
    l = lattice_from_covers(["0", "1"], [("0", "1")])
    row = {"too short": b"\x00", "too long": b"\x00\x01\x01", "out of range": b"\x00\x02"}
    for _ in range(2):
        with pytest.raises(TableNotTotalError):
            l.shared_row(row[flaw])


def test_bytes_rows_share_the_tuple_rows():
    l = lattice_from_covers(["0", "1"], [("0", "1")])
    seen = l.shared_row((0, 1))
    assert l.shared_row(b"\x00\x01") is seen
    new = l.shared_row(b"\x01\x01")
    assert new == (1, 1) and all(type(v) is int for v in new)
    assert l.shared_row((1, 1)) is new and l.shared_row(b"\x01\x01") is new


class TestSharedRows:
    def test_equal_rows_are_one_object(self):
        l = make_mo(4)
        candidates = [OrthoCandidate(l, comp) for comp in enumerate_orthocomplements(l)]
        groupoids = [sasaki_groupoid(c) for c in candidates]
        assert len(groupoids) == 105
        rows = [row for g in groupoids for row in g.odot + g.imp]
        rows += [c.comp for c in candidates]
        # the complementations induced back from the groupoids are new tuples
        rows += [OrthoCandidate(l, derived_negation(g)).comp for g in groupoids]
        assert len({id(row) for row in rows}) == len(set(rows)) < len(rows)

    def test_lattice_looks_the_same_after_tables_are_stored(self):
        l, twin = make_mo(2), make_mo(2)
        before = (repr(l), hash(l))
        for comp in enumerate_orthocomplements(l):
            sasaki_groupoid(OrthoCandidate(l, comp))
        assert (repr(l), hash(l)) == before
        assert l == twin and twin == l and hash(twin) == hash(l)

    def test_lattice_looks_the_same_after_its_rows_are_read_as_bytes(self):
        l, twin = make_mo(2), make_mo(2)
        before = (repr(l), hash(l))
        c = OrthoCandidate(l, enumerate_orthocomplements(l)[0])
        assert verify_lattice(l).overall and verify_oml(c).overall
        assert verify_lrg(sasaki_groupoid(c)).overall
        assert "_byte_mirror" in vars(l)  # the row checks built the mirror
        assert (repr(l), hash(l)) == before
        assert l == twin and twin == l and hash(twin) == hash(l)

    def test_replaced_tables_are_read_afresh(self):
        """A copy with one corrupted join cell fails associativity with the
        naive witness, although the original, whose byte rows are built,
        passed."""
        l = make_mo(2)
        assert verify_lattice(l).passed("associativity")
        join = [list(row) for row in l.join]
        join[1][2] = 3  # a v a' = 1 becomes b
        bad = dataclasses.replace(l, join=tuple(map(tuple, join)))
        result = verify_lattice(bad).result("associativity")
        j, m = bad.join, bad.meet
        x, y, z = next(
            (x, y, z)
            for x, y, z in itertools.product(range(l.n), repeat=3)
            if j[j[x][y]][z] != j[x][j[y][z]] or m[m[x][y]][z] != m[x][m[y][z]]
        )
        assert not result.passed
        assert result.witness == (("x", l.names[x]), ("y", l.names[y]), ("z", l.names[z]))

    def test_replace_starts_with_no_rows(self):
        l = make_mo(2)
        comp = enumerate_orthocomplements(l)[0]
        g = sasaki_groupoid(OrthoCandidate(l, comp))
        copy = dataclasses.replace(l, bottom=l.bottom)
        h = sasaki_groupoid(OrthoCandidate(copy, comp))
        assert h.odot == g.odot and h.imp == g.imp
        assert not any(a is b for a, b in zip(h.odot + h.imp, g.odot + g.imp))

    def test_memory_kept_by_mo5_groupoids(self):
        """tracemalloc figure for MO5's 945 Sasaki groupoids and their rows:
        3,443,060 bytes with a copy of every row per groupoid, 383,468 with
        shared rows (Python 3.11); the bound lies halfway."""
        l = make_mo(5)
        tables = enumerate_orthocomplements(l)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            groupoids = [sasaki_groupoid(OrthoCandidate(l, t), override=True) for t in tables]
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(groupoids) == 945
        assert kept < 1_913_264


def test_profile_requires_a_flag():
    with pytest.raises(ValueError):
        verify_lrg(two_chain_groupoid(), ())


def test_profile_reports_in_registry_order():
    report = verify_lrg(two_chain_groupoid(), ("join-absorption", "unit-left"))
    assert [r.axiom for r in report.results] == ["unit-left", "join-absorption"]


def test_profile_rejects_unknown_ids():
    with pytest.raises(UnknownAxiomIdError):
        verify_lrg(two_chain_groupoid(), ("unit-left", "unit"))


class TestCore:
    def test_mo2_sasaki_passes(self):
        g = sasaki_groupoid(make_mo2())
        report = verify_lrg(g, CORE_AXIOMS)
        assert report.overall
        assert [r.axiom for r in report.results] == [
            "unit-left",
            "unit-right",
            "left-adjointness",
        ]

    def test_two_chain_classical(self):
        assert verify_lrg(two_chain_groupoid(), CORE_AXIOMS).overall

    def test_o6_fails_adjointness(self):
        g = sasaki_groupoid(make_o6(), override=True)
        report = verify_lrg(g, CORE_AXIOMS)
        assert not report.passed("left-adjointness")
        assert report.witness("left-adjointness") == (
            ("x", "x"),
            ("y", "y"),
            ("z", "x"),
        )

    def test_unit_failure_witnessed(self):
        l = lattice_from_covers(["0", "1"], [("0", "1")])
        g = LrGroupoid(l, ((0, 0), (0, 0)), ((1, 1), (0, 1)))
        report = verify_lrg(g, CORE_AXIOMS)
        assert not report.passed("unit-left")
        assert report.witness("unit-left") == (("x", "1"),)
        assert not report.passed("unit-right")


class TestExtras:
    def test_mo2_divisibility_example(self):
        mo2 = make_mo2()
        g = sasaki_groupoid(mo2)
        l = g.lattice
        a, b = l.index("a"), l.index("b")
        # (a imp b) odot a reduces through a' to the meet of a and b
        assert g.imp[a][b] == l.index("a'")
        assert g.odot[g.imp[a][b]][a] == l.meet[a][b] == l.bottom
        assert verify_lrg(g, EXTRA_AXIOMS).overall

    def test_mo2_join_absorption_example(self):
        g = sasaki_groupoid(make_mo2())
        l = g.lattice
        a, b = l.index("a"), l.index("b")
        assert l.join[a][b] == l.top
        assert g.odot[a][l.join[a][b]] == a

    def test_o6_divisibility_fails_with_pair(self):
        g = sasaki_groupoid(make_o6(), override=True)
        report = verify_lrg(g, EXTRA_AXIOMS)
        assert not report.passed("divisibility")
        assert report.witness("divisibility") == (("x", "y"), ("y", "x"))

    def test_profile_selects_checks(self):
        g = sasaki_groupoid(make_mo2())
        only_div = verify_lrg(g, ("divisibility",))
        assert [r.axiom for r in only_div.results] == ["divisibility"]
        recovery = verify_lrg(g, RECOVERY_AXIOMS)
        assert [r.axiom for r in recovery.results] == [
            "unit-left",
            "unit-right",
            "left-adjointness",
            "antitony",
            "double-negation",
            "sasaki-product",
            "join-absorption",
        ]
        strict = verify_lrg(g, ALL_AXIOMS)
        assert {r.axiom for r in strict.results} == {
            "unit-left",
            "unit-right",
            "left-adjointness",
            "divisibility",
            "antitony",
            "double-negation",
            "sasaki-product",
            "sasaki-hook",
            "join-absorption",
        }
        core_only = verify_lrg(g, CORE_AXIOMS)
        assert len(core_only.results) == 3


class TestDerivedNegation:
    def test_mo2_values(self):
        mo2 = make_mo2()
        g = sasaki_groupoid(mo2)
        l = g.lattice
        neg = derived_negation(g)
        assert neg[l.index("a")] == l.index("a'")
        assert neg[l.index("1")] == l.index("0")
        assert neg[l.index("0")] == l.index("1")
        assert neg == mo2.comp

    @pytest.mark.parametrize("g", GROUPOIDS, ids=lambda g: f"n{g.lattice.n}")
    def test_corpus_negation_is_imp_to_bottom(self, g):
        assert derived_negation(g) == tuple(
            g.imp[x][g.lattice.bottom] for x in range(g.lattice.n)
        )


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_adjointness_gives_left_monotonicity(data):
    """Whenever adjointness holds, the product is monotone on the left."""
    g = data.draw(st.sampled_from(GROUPOIDS))
    n, leq, odot = g.lattice.n, g.lattice.leq, g.odot
    x1 = data.draw(st.integers(0, n - 1))
    x2 = data.draw(st.integers(0, n - 1))
    y = data.draw(st.integers(0, n - 1))
    if leq[x1][x2]:
        assert leq[odot[x1][y]][odot[x2][y]]


@pytest.mark.parametrize("g", GROUPOIDS, ids=lambda g: f"n{g.lattice.n}")
def test_both_sasaki_identities_pin_down_the_tables(g):
    """A groupoid with both operation identities equals the rebuilt one."""
    report = verify_lrg(g, ROUND_TRIP_AXIOMS)
    assert report.overall
    neg = derived_negation(g)
    l = g.lattice
    rebuilt_odot = tuple(
        tuple(l.meet[l.join[x][neg[y]]][y] for y in range(l.n)) for x in range(l.n)
    )
    rebuilt_imp = tuple(
        tuple(l.join[l.meet[y][x]][neg[x]] for y in range(l.n)) for x in range(l.n)
    )
    assert rebuilt_odot == g.odot
    assert rebuilt_imp == g.imp
