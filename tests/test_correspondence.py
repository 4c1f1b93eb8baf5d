"""Both construction directions and the bit-exact round trips."""

from __future__ import annotations

import dataclasses
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
    MAX_CARRIER_SIZE,
    AxiomResult,
    NotOrthomodularError,
    OrthoCandidate,
    SizeLimitExceededError,
    VerificationReport,
    derived_negation,
    enumerate_bounded_lattices,
    enumerate_omls,
    enumerate_orthocomplements,
    induced_oml,
    lattice_from_covers,
    lattice_from_poset,
    round_trip_check,
    sasaki_groupoid,
    verify_lrg,
    verify_oml,
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
        assert len(calls) == 1  # the sasaki_groupoid gate only
        calls.clear()
        round_trip_check(g)
        assert len(calls) == 1  # induced_oml only

    def test_wrong_type(self):
        with pytest.raises(TypeError):
            round_trip_check(42)


def _count_verify_oml(monkeypatch) -> list:
    """The candidates the two constructions hand to verify_oml, from now on."""
    calls, original = [], omlat.correspondence.verify_oml

    def counted(c):
        calls.append(c)
        return original(c)

    monkeypatch.setattr(omlat.correspondence, "verify_oml", counted)
    return calls


class TestOneScanPerRoundTrip:
    """round_trip_check(c) scans the OML once, in the sasaki_groupoid gate:
    recovering c's own stored row on c's lattice needs no second scan.  Every
    other recovered complement is verified, with the parent's outcome."""

    def test_lattice_side_scans_once(self, mo2, monkeypatch):
        calls = _count_verify_oml(monkeypatch)
        assert round_trip_check(mo2).overall
        assert calls == [mo2]

    def test_induced_oml_verifies_its_conclusion(self, mo2, monkeypatch):
        g = sasaki_groupoid(mo2)
        calls = _count_verify_oml(monkeypatch)
        back = induced_oml(g)
        assert calls == [back] and back.comp is mo2.comp

    def test_groupoid_side_scans_once(self, mo2, monkeypatch):
        g = sasaki_groupoid(mo2)
        calls = _count_verify_oml(monkeypatch)
        assert round_trip_check(g).overall
        assert calls == [mo2]

    def test_another_orthocomplement_is_verified_and_reported(self, mo2, monkeypatch):
        other = next(t for t in enumerate_orthocomplements(mo2.lattice) if t != mo2.comp)
        monkeypatch.setattr("omlat.correspondence.derived_negation", lambda g: other)
        calls = _count_verify_oml(monkeypatch)
        report = round_trip_check(mo2)
        assert calls == [mo2, OrthoCandidate(mo2.lattice, other)]
        x = next(x for x in range(mo2.lattice.n) if other[x] != mo2.comp[x])
        assert report == VerificationReport((
            AxiomResult("roundtrip-order", True),
            AxiomResult("roundtrip-complement", False, (("x", mo2.names[x]),)),
        ))

    def test_a_row_failing_the_oml_suite_raises(self, mo2, monkeypatch):
        identity = tuple(range(mo2.lattice.n))
        monkeypatch.setattr("omlat.correspondence.derived_negation", lambda g: identity)
        calls = _count_verify_oml(monkeypatch)
        with pytest.raises(NotOrthomodularError) as info:
            round_trip_check(mo2)
        want = verify_oml(OrthoCandidate(mo2.lattice, identity))
        assert info.value.report == want and not want.overall
        failed = ", ".join(r.axiom for r in want.failures)
        assert str(info.value) == (
            f"induced structure is not an orthomodular lattice (failing: {failed})"
        )
        assert len(calls) == 2

    def test_the_same_row_on_an_equal_lattice_is_verified(self, mo2, monkeypatch):
        copy = dataclasses.replace(mo2.lattice)
        g = sasaki_groupoid(OrthoCandidate(copy, mo2.comp))
        monkeypatch.setattr(
            "omlat.correspondence.sasaki_groupoid", lambda c, override=False: g
        )
        calls = _count_verify_oml(monkeypatch)
        assert round_trip_check(mo2).overall
        assert calls == [OrthoCandidate(copy, mo2.comp)]
        assert calls[0].lattice is copy


def _assert_matches_the_formulas(c: OrthoCandidate, override: bool) -> None:
    l = c.lattice
    g = sasaki_groupoid(c, override=override)
    assert (g.odot, g.imp) == oracles.sasaki_tables(l.join, l.meet, c.comp)
    assert all(type(v) is int for row in g.odot + g.imp for v in row)


class TestSasakiTablesAgainstTheFormulas:
    """The tables come from bytes.translate over the columns of join and meet
    and equal the defining formulas read cell by cell."""

    def test_every_ortho_pair_up_to_size_8(self):
        pairs = orthomodular = 0
        for l in enumerate_bounded_lattices(EnumerationConfig(8)):
            for comp in enumerate_orthocomplements(l):
                c = OrthoCandidate(l, comp)
                om = verify_oml(c).overall
                _assert_matches_the_formulas(c, override=not om)
                pairs, orthomodular = pairs + 1, orthomodular + om
        assert pairs > orthomodular > 0

    def test_every_mo5_pair(self):
        l = make_mo(5)
        tables = enumerate_orthocomplements(l)
        assert len(tables) == 945
        for comp in tables:
            _assert_matches_the_formulas(OrthoCandidate(l, comp), override=False)

    @pytest.mark.parametrize("table", ["join", "meet"])
    def test_a_copy_with_one_non_commutative_cell(self, table):
        """Columns are read from the transposes, and a copy's columns are
        read afresh: the original's are built first."""
        l = make_mo(3)
        comp = enumerate_orthocomplements(l)[0]
        _assert_matches_the_formulas(OrthoCandidate(l, comp), override=False)
        assert "_column_mirror" in vars(l)
        x, y = 1, 3  # a0 v a2 = 1 and a0 ^ a2 = 0, as are y, x
        rows = [list(row) for row in getattr(l, table)]
        rows[x][y] = l.names.index("a4")
        bad = dataclasses.replace(l, **{table: tuple(map(tuple, rows))})
        assert getattr(bad, table)[x][y] != getattr(bad, table)[y][x]
        c = OrthoCandidate(bad, comp)
        _assert_matches_the_formulas(c, override=True)
        g = sasaki_groupoid(c, override=True)
        assert (g.odot, g.imp) != oracles.sasaki_tables(l.join, l.meet, comp)

    def test_mo127_fills_the_largest_carrier(self):
        """MO127 has 256 elements, the cap: its entries reach 255, the top
        byte of the translate tables.  MO128, with 258, is refused."""
        l = make_mo(127)
        assert l.n == MAX_CARRIER_SIZE == 256
        # 0 and 1 swap, and atom a(2i) pairs with a(2i+1)
        comp = (l.n - 1, *(x + 1 if x % 2 else x - 1 for x in range(1, l.n - 1)), 0)
        _assert_matches_the_formulas(OrthoCandidate(l, comp), override=True)
        assert "_column_mirror" in vars(l)
        with pytest.raises(SizeLimitExceededError):
            make_mo(128)

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
