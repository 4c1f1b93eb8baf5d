"""Groupoid axiom checks: units, adjointness, and the extra identities."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_mo2, make_o6
from omlat import (
    ALL_AXIOMS,
    CORE_AXIOMS,
    RECOVERY_AXIOMS,
    ROUND_TRIP_AXIOMS,
    EnumerationConfig,
    LrGroupoid,
    TableNotTotalError,
    UnknownAxiomIdError,
    derived_negation,
    enumerate_omls,
    lattice_from_covers,
    sasaki_groupoid,
    verify_lrg,
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
