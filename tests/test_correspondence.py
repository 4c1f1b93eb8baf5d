"""Both construction directions and the bit-exact round trips."""

from __future__ import annotations

import itertools
import sys

import pytest

import oracles
from conftest import make_boolean, make_mo
import omlat
from omlat import (
    ALL_AXIOMS,
    RECOVERY_AXIOMS,
    EnumerationConfig,
    FinitePoset,
    HypothesisViolatedError,
    LrGroupoid,
    NotOrthomodularError,
    OrthoCandidate,
    derived_negation,
    enumerate_omls,
    enumerate_orthocomplements,
    induced_oml,
    lattice_from_covers,
    lattice_from_poset,
    round_trip_check,
    sasaki_groupoid,
    verify_lrg,
)

# golden MO2 operation tables, element order 0 a a' b b' 1 (36 entries each)
MO2_ODOT = (
    ("0", "0", "0", "0", "0", "0"),
    ("0", "a", "0", "b", "b'", "a"),
    ("0", "0", "a'", "b", "b'", "a'"),
    ("0", "a", "a'", "b", "0", "b"),
    ("0", "a", "a'", "0", "b'", "b'"),
    ("0", "a", "a'", "b", "b'", "1"),
)
MO2_IMP = (
    ("1", "1", "1", "1", "1", "1"),
    ("a'", "1", "a'", "a'", "a'", "1"),
    ("a", "a", "1", "a", "a", "1"),
    ("b'", "b'", "b'", "1", "b'", "1"),
    ("b", "b", "b", "b", "1", "1"),
    ("0", "a", "a'", "b", "b'", "1"),
)


class TestSasakiGroupoid:
    def test_mo2_golden_tables_every_entry(self, mo2):
        g = sasaki_groupoid(mo2)
        names = g.names
        got_odot = tuple(tuple(names[v] for v in row) for row in g.odot)
        got_imp = tuple(tuple(names[v] for v in row) for row in g.imp)
        assert got_odot == MO2_ODOT
        assert got_imp == MO2_IMP

    def test_two_chain(self):
        l = lattice_from_covers(["0", "1"], [("0", "1")])
        g = sasaki_groupoid(OrthoCandidate(l, (1, 0)))
        assert g.odot == ((0, 0), (0, 1))  # product is meet
        assert g.imp[0][0] == 1 and g.imp[1][0] == 0 and g.imp[0][1] == 1

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_boolean_matches_classical_tables(self, k):
        names, leq, join, meet, comp, odot, imp = oracles.boolean_tables(k)
        n = 1 << k
        l = lattice_from_poset(FinitePoset(names, tuple(tuple(r) for r in leq)))
        g = sasaki_groupoid(OrthoCandidate(l, comp))
        assert g.odot == tuple(tuple(row) for row in odot)
        assert g.imp == tuple(tuple(row) for row in imp)
        assert all(g.odot[x][y] == l.meet[x][y] for x in range(n) for y in range(n))

    def test_rejects_non_orthomodular_input(self, o6):
        with pytest.raises(NotOrthomodularError) as exc:
            sasaki_groupoid(o6)
        assert exc.value.report is not None
        assert not exc.value.report.overall

    def test_override_builds_failing_tables(self, o6):
        g = sasaki_groupoid(o6, override=True)
        report = verify_lrg(g, ALL_AXIOMS)
        assert not report.passed("left-adjointness")
        assert not report.passed("divisibility")

    def test_rejects_non_ortholattice_comp(self):
        l = make_boolean(2).lattice
        with pytest.raises(NotOrthomodularError):
            sasaki_groupoid(OrthoCandidate(l, tuple(range(4))))


class TestInducedOml:
    def test_recovers_mo2_complement(self, mo2):
        g = sasaki_groupoid(mo2)
        back = induced_oml(g)
        assert back.comp == mo2.comp
        assert back.lattice is g.lattice

    def test_two_chain_comp_swaps_bounds(self):
        l = lattice_from_covers(["0", "1"], [("0", "1")])
        g = sasaki_groupoid(OrthoCandidate(l, (1, 0)))
        assert induced_oml(g).comp == (1, 0)

    def test_double_negation_violation_raises(self):
        # 3-chain with meet product and relative pseudocomplement: core and
        # antitony hold but (m imp 0) imp 0 lands on 1, not back on m
        l = lattice_from_covers(["0", "m", "1"], [("0", "m"), ("m", "1")])
        odot = tuple(tuple(l.meet[x][y] for y in range(3)) for x in range(3))
        imp = ((2, 2, 2), (0, 2, 2), (0, 1, 2))
        g = LrGroupoid(l, odot, imp)
        with pytest.raises(HypothesisViolatedError) as exc:
            induced_oml(g, RECOVERY_AXIOMS)
        assert exc.value.axiom == "double-negation"
        assert exc.value.witness == (("x", "m"),)

    def test_carries_failing_axiom_and_witness(self, o6):
        g = sasaki_groupoid(o6, override=True)
        with pytest.raises(HypothesisViolatedError) as exc:
            induced_oml(g, RECOVERY_AXIOMS)
        assert exc.value.axiom == "left-adjointness"
        assert exc.value.witness == (("x", "x"), ("y", "y"), ("z", "x"))


class TestRoundTrip:
    def test_mo2_both_directions(self, mo2):
        lattice_side = round_trip_check(mo2)
        assert lattice_side.overall
        assert [r.axiom for r in lattice_side.results] == [
            "roundtrip-order",
            "roundtrip-complement",
        ]
        groupoid_side = round_trip_check(sasaki_groupoid(mo2))
        assert groupoid_side.overall
        assert [r.axiom for r in groupoid_side.results] == [
            "roundtrip-odot",
            "roundtrip-imp",
        ]

    def test_two_chain(self):
        l = lattice_from_covers(["0", "1"], [("0", "1")])
        c = OrthoCandidate(l, (1, 0))
        assert round_trip_check(c).overall
        assert round_trip_check(sasaki_groupoid(c)).overall

    @pytest.mark.parametrize(
        "c", enumerate_omls(EnumerationConfig(6)), ids=lambda c: f"n{c.lattice.n}"
    )
    def test_enumerated_corpus(self, c):
        assert round_trip_check(c).overall
        assert round_trip_check(sasaki_groupoid(c)).overall

    def test_groupoid_failing_profile_is_rejected(self, o6):
        g = sasaki_groupoid(o6, override=True)
        with pytest.raises(HypothesisViolatedError) as info:
            round_trip_check(g)
        assert info.value.axiom == "left-adjointness"
        assert info.value.witness == (("x", "x"), ("y", "y"), ("z", "x"))

    def test_broken_hook_is_caught_on_left_adjointness(self, monkeypatch):
        """`roundtrip-order` compares the input's lattice with itself and
        cannot fail; a broken hook is caught before it.  MO3's Sasaki
        groupoid with one imp cell changed, swapped into the round trip,
        fails left adjointness with the naive first witness."""
        l = make_mo(3)
        c = OrthoCandidate(l, enumerate_orthocomplements(l)[0])
        g = sasaki_groupoid(c)
        imp = [list(row) for row in g.imp]
        imp[2][5] = (imp[2][5] + 1) % l.n
        broken = LrGroupoid(l, g.odot, imp)
        monkeypatch.setattr(
            "omlat.correspondence.sasaki_groupoid", lambda c, override=False: broken
        )
        with pytest.raises(HypothesisViolatedError) as info:
            round_trip_check(c)
        leq, odot, imp = l.leq, broken.odot, broken.imp
        want = next(
            (x, y, z)
            for x, y, z in itertools.product(range(l.n), repeat=3)
            if leq[odot[x][y]][z] != leq[x][imp[y][z]]
        )
        assert info.value.axiom == "left-adjointness"
        assert info.value.witness == tuple(zip("xyz", (l.names[e] for e in want)))

    def test_ortholattice_suite_runs_once_per_construction(self, mo2, monkeypatch):
        calls = []
        original = omlat.ortho.verify_ortholattice

        def counted(c):
            calls.append(c)
            return original(c)

        g = sasaki_groupoid(mo2)
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("omlat") and (
                getattr(module, "verify_ortholattice", None) is original
            ):
                monkeypatch.setattr(module, "verify_ortholattice", counted)
        round_trip_check(mo2)
        assert len(calls) == 2  # the sasaki_groupoid gate and induced_oml
        calls.clear()
        round_trip_check(g)
        assert len(calls) == 1  # induced_oml only

    def test_wrong_type(self):
        with pytest.raises(TypeError):
            round_trip_check(42)

    def test_mismatch_reporting_helpers(self):
        from omlat.correspondence import _table_mismatch, _unary_mismatch

        names = ("p", "q")
        hit = _table_mismatch(names, ((0, 0), (1, 1)), ((0, 1), (1, 1)), "roundtrip-odot")
        assert not hit.passed
        assert hit.witness == (("x", "p"), ("y", "q"))
        miss = _unary_mismatch(names, (1, 0), (1, 0), "roundtrip-complement")
        assert miss.passed and miss.witness is None


@pytest.mark.parametrize(
    "c", enumerate_omls(EnumerationConfig(6)), ids=lambda c: f"n{c.lattice.n}"
)
def test_full_axiom_suite_on_enumerated_corpus(c):
    g = sasaki_groupoid(c)
    assert verify_lrg(g, ALL_AXIOMS).overall
    assert derived_negation(g) == c.comp


def test_divisibility_holds_on_every_round_trip_profile_instance():
    """Empirical sweep: the bit-exact-round-trip profile omits divisibility,
    yet every generated instance passing it satisfies divisibility anyway.

    Instances are all groupoids built from a lattice of size at most 6 and an
    antitone involution, with both operation tables defined by the Sasaki
    formulas over that involution.
    """
    import itertools

    from omlat import ROUND_TRIP_AXIOMS, enumerate_bounded_lattices

    survivors = 0
    for l in enumerate_bounded_lattices(EnumerationConfig(6)):
        n, join, meet, leq = l.n, l.join, l.meet, l.leq
        for u in itertools.permutations(range(n)):
            if any(u[u[x]] != x for x in range(n)):
                continue
            if any(
                leq[x][y] and not leq[u[y]][u[x]]
                for x in range(n)
                for y in range(n)
            ):
                continue
            odot = tuple(
                tuple(meet[join[x][u[y]]][y] for y in range(n)) for x in range(n)
            )
            imp = tuple(
                tuple(join[meet[y][x]][u[x]] for y in range(n)) for x in range(n)
            )
            g = LrGroupoid(l, odot, imp)
            if not verify_lrg(g, ROUND_TRIP_AXIOMS).overall:
                continue
            survivors += 1
            assert verify_lrg(g, ALL_AXIOMS).overall
    assert survivors == 6
