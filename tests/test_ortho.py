"""Ortholattice axioms, orthomodularity, derived laws, and Boolean tests."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MO2_COVERS, MO2_NAMES, make_boolean, make_mo2, make_o6, permute_candidate
from omlat import (
    EnumerationConfig,
    OrthoCandidate,
    TableNotTotalError,
    check_orthomodularity,
    enumerate_bounded_lattices,
    enumerate_orthocomplements,
    is_boolean,
    lattice_from_covers,
    verify_oml,
    verify_ortholattice,
)

CORPUS = enumerate_bounded_lattices(EnumerationConfig(6))
ORTHO_PAIRS = [
    OrthoCandidate(l, comp)
    for l in CORPUS
    for comp in enumerate_orthocomplements(l, require_omod=False)
]


def test_candidate_requires_total_table():
    l = make_mo2().lattice
    with pytest.raises(TableNotTotalError):
        OrthoCandidate(l, (0, 1, 2))
    with pytest.raises(TableNotTotalError):
        OrthoCandidate(l, (0, 1, 2, 3, 4, 9))


# MO2's complementation is (5, 2, 1, 4, 3, 0); each flaw below replaces it,
# and the float and bool tables equal it and hash like it
FLAWED_COMPS = {
    "short row": (5, 2, 1, 4, 3),
    "long row": (5, 2, 1, 4, 3, 0, 0),
    "out of range": (5, 2, 1, 4, 3, 6),
    "negative": (5, 2, 1, 4, 3, -1),
    "float entry": (5.0, 2, 1, 4, 3, 0),
    "bool entry": (5, 2, True, 4, 3, False),
    "rows instead of entries": ((5, 2, 1, 4, 3, 0),),
    "unhashable entry": (5, 2, [1], 4, 3, 0),
}


@pytest.mark.parametrize("pooled", [False, True], ids=["fresh", "pooled"])
@pytest.mark.parametrize("flaw", FLAWED_COMPS)
def test_flawed_comp_rejected(flaw, pooled):
    """Rejected on a fresh lattice and on one that already stores the valid
    complementation, the int twin of the float and bool tables."""
    if pooled:
        c = make_mo2()
        l = c.lattice
        assert l.shared_row((5, 2, 1, 4, 3, 0)) is c.comp
    else:
        l = lattice_from_covers(MO2_NAMES, MO2_COVERS)
    with pytest.raises(TableNotTotalError):
        OrthoCandidate(l, FLAWED_COMPS[flaw])


def test_float_comp_is_not_stored():
    l = lattice_from_covers(MO2_NAMES, MO2_COVERS)
    with pytest.raises(TableNotTotalError):
        OrthoCandidate(l, FLAWED_COMPS["float entry"])
    assert [type(v) for v in OrthoCandidate(l, (5, 2, 1, 4, 3, 0)).comp] == [int] * 6


class TestVerifyOrtholattice:
    def test_mo2_all_pass(self, mo2):
        report = verify_ortholattice(mo2)
        assert report.overall
        assert [r.axiom for r in report.results] == [
            "complement-join",
            "antitony",
            "involution",
            "complement-meet",
            "de-morgan-join",
            "de-morgan-meet",
            "de-morgan-derived",
        ]

    def test_identity_comp_fails_complement_join(self):
        c = make_boolean(2)
        bad = OrthoCandidate(c.lattice, tuple(range(4)))
        report = verify_ortholattice(bad)
        assert not report.passed("complement-join")
        # first failing element in scan order is the bottom itself
        assert report.witness("complement-join") == (("x", "0"),)

    def test_o6_is_an_ortholattice(self, o6):
        assert verify_ortholattice(o6).overall

    def test_antitony_failure_witnessed(self):
        l = make_o6().lattice
        # reverse one chain, fix the other pointwise: involution holds but
        # y' <= x' no longer maps order-reversingly
        comp = tuple(l.index(t) for t in ["1", "y", "x", "y'", "x'", "0"])
        report = verify_ortholattice(OrthoCandidate(l, comp))
        assert report.passed("involution")
        assert not report.passed("antitony")
        assert report.witness("antitony") == (("x", "y'"), ("y", "x'"))

    def test_de_morgan_meta_not_applicable_when_involution_fails(self):
        l = make_boolean(2).lattice
        comp = (3, 2, 2, 0)  # not an involution
        report = verify_ortholattice(OrthoCandidate(l, comp))
        assert not report.passed("involution")
        meta = report.result("de-morgan-derived")
        assert meta.passed and "not applicable" in meta.note

    @pytest.mark.parametrize("c", ORTHO_PAIRS, ids=lambda c: f"n{c.lattice.n}")
    def test_derived_laws_follow_on_corpus(self, c):
        report = verify_ortholattice(c)
        assert report.overall
        assert report.passed("de-morgan-derived")


class TestCheckOrthomodularity:
    def test_mo2_both_forms_pass(self, mo2):
        report = check_orthomodularity(mo2)
        assert report.overall
        assert report.passed("orthomodularity")
        assert report.passed("orthomodularity-dual")
        assert report.passed("orthomodularity-agreement")

    def test_o6_fails_with_witness(self, o6):
        report = check_orthomodularity(o6)
        assert not report.passed("orthomodularity")
        assert report.witness("orthomodularity") == (("x", "x"), ("y", "y"))
        assert not report.passed("orthomodularity-dual")
        assert report.passed("orthomodularity-agreement")

    def test_boolean_passes_by_distributivity(self):
        assert check_orthomodularity(make_boolean(2)).overall

    def test_conditional_note_on_non_ortholattice(self):
        l = make_boolean(2).lattice
        report = check_orthomodularity(OrthoCandidate(l, tuple(range(4))))
        assert "conditional" in report.result("orthomodularity").note

    @pytest.mark.parametrize("c", ORTHO_PAIRS, ids=lambda c: f"n{c.lattice.n}")
    def test_agreement_meta_on_corpus(self, c):
        assert check_orthomodularity(c).passed("orthomodularity-agreement")


class TestIsBoolean:
    def test_mo2_fails_distributivity(self, mo2):
        ok, witness = is_boolean(mo2)
        assert not ok
        assert witness == (("x", "a"), ("y", "a'"), ("z", "b"))

    def test_boolean_four(self):
        ok, witness = is_boolean(make_boolean(2))
        assert ok and witness is None

    def test_two_chain(self):
        l = lattice_from_covers(["0", "1"], [("0", "1")])
        ok, witness = is_boolean(OrthoCandidate(l, (1, 0)))
        assert ok and witness is None

    def test_distributive_but_bad_complement(self):
        l = lattice_from_covers(["0", "1"], [("0", "1")])
        ok, witness = is_boolean(OrthoCandidate(l, (0, 1)))
        assert not ok
        assert witness == (("x", "0"),)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_verification_is_isomorphism_invariant(data):
    c = data.draw(st.sampled_from([make_mo2(), make_o6(), make_boolean(3)]))
    perm = data.draw(st.permutations(range(c.lattice.n)))
    image = permute_candidate(c, list(perm))
    original = verify_ortholattice(c).merged(check_orthomodularity(c))
    permuted = verify_ortholattice(image).merged(check_orthomodularity(image))
    assert [(r.axiom, r.passed) for r in original.results] == [
        (r.axiom, r.passed) for r in permuted.results
    ]


def test_verify_oml_equals_the_merged_pair():
    rng = random.Random(5)
    candidates = list(ORTHO_PAIRS)
    for l in CORPUS:
        for _ in range(6):
            candidates.append(OrthoCandidate(l, [rng.randrange(l.n) for _ in range(l.n)]))
    for c in candidates:
        assert verify_oml(c) == verify_ortholattice(c).merged(check_orthomodularity(c))
    assert not all(verify_oml(c).overall for c in candidates)


def test_trivial_candidate_passes_everything():
    l = lattice_from_covers(["e"], [])
    c = OrthoCandidate(l, (0,))
    assert verify_ortholattice(c).overall
    assert check_orthomodularity(c).overall


def test_de_morgan_meta_holds_for_all_involutions_on_mo2():
    """Any antitone involution passing (iii)+(iv) must satisfy de Morgan."""
    l = make_mo2().lattice
    for perm in itertools.permutations(range(6)):
        if any(perm[perm[x]] != x for x in range(6)):
            continue
        report = verify_ortholattice(OrthoCandidate(l, perm))
        assert report.passed("de-morgan-derived")
