"""Enumeration completeness, complement search, and witness lookup."""

from __future__ import annotations

import hashlib
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_boolean, make_mo2, make_o6
from omlat import (
    EnumerationConfig,
    SizeLimitExceededError,
    UnknownAxiomIdError,
    canonical_certificate,
    check_orthomodularity,
    enumerate_bounded_lattices,
    enumerate_omls,
    enumerate_orthocomplements,
    find_counterexample,
    sasaki_groupoid,
    verify_ortholattice,
)
from omlat.ortho import ORTHO_LAWS
from omlat.reports import first_violation
from omlat.search import _Masks, _semilattice_extensions

# class counts per size, frozen from the enumeration run, cross-checked
# against the labeled brute-force oracle below for sizes 1-6 and equal to
# OEIS A006966 throughout
EXPECTED_CLASS_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 5, 6: 15, 7: 53, 8: 222, 9: 1078}

# SHA-256 of the order rows of the representatives up to size 8, in output
# order; any change to the certificate or to the sort order changes it
EXPECTED_ORDER_DIGEST = (
    "72e5801d6d9e837ab3144bedfb896f6c5aa8f8d5a68065fdedc85d5f23f8b1de"
)

# the same digest over the 1,078 representatives of size 9, in output order
EXPECTED_ORDER_DIGEST_AT_NINE = (
    "a79b629d64f0718d17fa4f0da3262d58c7600355fa415218e62c7ed6dbf24a0a"
)

CORPUS9 = enumerate_bounded_lattices(EnumerationConfig(9))
CORPUS8 = [l for l in CORPUS9 if l.n <= 8]


def counts_by_size(lattices) -> dict[int, int]:
    out: dict[int, int] = {}
    for l in lattices:
        out[l.n] = out.get(l.n, 0) + 1
    return out


class TestEnumerationConfig:
    def test_max_size_must_be_positive(self):
        with pytest.raises(ValueError):
            EnumerationConfig(0)

    def test_size_cap(self):
        with pytest.raises(SizeLimitExceededError):
            enumerate_bounded_lattices(EnumerationConfig(10))


class TestEnumerateBoundedLattices:
    def test_frozen_class_counts(self):
        assert counts_by_size(CORPUS9) == EXPECTED_CLASS_COUNTS

    def test_frozen_output_order(self):
        rows = "\n".join(
            ";".join("".join("1" if v else "0" for v in row) for row in l.leq)
            for l in CORPUS8
        )
        digest = hashlib.sha256(rows.encode("ascii")).hexdigest()
        assert digest == EXPECTED_ORDER_DIGEST

    def test_frozen_output_order_at_nine(self):
        nine = [l for l in CORPUS9 if l.n == 9]
        assert len(nine) == 1078
        rows = "\n".join(
            ";".join("".join("1" if v else "0" for v in row) for row in l.leq)
            for l in nine
        )
        digest = hashlib.sha256(rows.encode("ascii")).hexdigest()
        assert digest == EXPECTED_ORDER_DIGEST_AT_NINE

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_counts_match_labeled_oracle(self, n):
        labeled = oracles.labeled_lattices(n)
        assert oracles.iso_class_count(labeled, n) == sum(
            1 for l in CORPUS8 if l.n == n
        )

    def test_count_at_six_matches_oracle_by_orbit_sum(self):
        """n = 6 classes vs the labeled oracle via the orbit-size identity.

        Each class contributes n!/|Aut| labeled copies, so the orbit sizes of
        the returned representatives must add up to the oracle's labeled
        count exactly; any missed or duplicated class breaks the sum.
        """
        labeled = oracles.labeled_lattices(6)
        reps = [l.leq for l in CORPUS8 if l.n == 6]
        assert oracles.orbit_sum(reps, 6) == len(labeled)

    def test_no_duplicate_certificates(self):
        certs = [canonical_certificate(l).data for l in CORPUS8]
        assert len(certs) == len(set(certs))

    def test_all_are_valid_lattices(self):
        from omlat import verify_lattice

        for l in CORPUS8:
            assert verify_lattice(l).overall

    def test_deterministic_output(self):
        again = enumerate_bounded_lattices(EnumerationConfig(6))
        prefix = [l for l in CORPUS8 if l.n <= 6]
        assert [l.leq for l in again] == [l.leq for l in prefix]

    def test_certificate_calls_per_size(self, monkeypatch):
        # one call per candidate; twin pruning keeps 540 of the 696
        # candidates up to size 8, and a refactor dropping it shows here
        calls: Counter = Counter()

        def counted(s, *args):
            calls[s.n] += 1
            return canonical_certificate(s, *args)

        monkeypatch.setattr("omlat.search.canonical_certificate", counted)
        enumerate_bounded_lattices(EnumerationConfig(8))
        assert calls == dict(zip(range(1, 9), [1, 1, 1, 2, 6, 21, 89, 419]))

    def test_extensions_keep_the_reference_scan_up_to_twins(self):
        """On every semilattice class up to size 8 (each lattice up to size 9
        minus its top, which enumeration adjoined last), the extensions are
        an ordered subsequence of the scan over every mask, and each dropped
        extension is isomorphic to an earlier kept one of the same parent.
        Twin pruning drops 3,970 of the reference's 20,303 extensions."""
        pruned = 0
        for l in CORPUS9:
            top = 1 << (l.n - 1)
            up = tuple(u ^ top for u in l.up[:-1])
            kept = _semilattice_extensions(up)
            reference = oracles.reference_extensions(up)
            remaining = iter(reference)
            assert all(ext in remaining for ext in kept)
            if len(kept) == len(reference):
                continue
            kept, seen = set(kept), set()
            for ext in reference:
                cert = canonical_certificate(_Masks(len(ext), ext)).data
                if ext in kept:
                    seen.add(cert)
                else:
                    assert cert in seen
                    pruned += 1
        assert pruned == 3970

    def test_lattices_admitting_an_oml(self):
        pairs = enumerate_omls(EnumerationConfig(6))
        distinct = {c.lattice.leq: c.lattice for c in pairs}
        assert counts_by_size(distinct.values()) == {1: 1, 2: 1, 4: 1, 6: 1}


# distributive and modular lattices per size, OEIS A006982 and A006981
DISTRIBUTIVE_CLASS_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 5, 7: 8, 8: 15, 9: 26}
MODULAR_CLASS_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 4, 6: 8, 7: 16, 8: 34, 9: 72}


def test_dedekind_and_birkhoff_on_every_lattice_up_to_nine():
    """A lattice is modular iff it has no sublattice N5, and distributive iff
    it has neither N5 nor M3.  The searches (oracles.has_n5, has_m3) read
    only the order; the `distributivity` law agrees with them on all 1,378
    lattices up to size 9, and both counts per size match OEIS."""
    distributivity = next(law for law in ORTHO_LAWS if law.id == "distributivity")
    modular, distributive = [], []
    for l in CORPUS9:
        n5, m3 = oracles.has_n5(l.leq), oracles.has_m3(l.leq)
        passes = first_violation(distributivity, l) is None
        assert passes == (not n5 and not m3), l
        if not n5:
            modular.append(l)
        if passes:
            distributive.append(l)
    assert counts_by_size(modular) == MODULAR_CLASS_COUNTS
    assert counts_by_size(distributive) == DISTRIBUTIVE_CLASS_COUNTS


class TestEnumerateOrthocomplements:
    def test_boolean_four_unique(self):
        tables = enumerate_orthocomplements(make_boolean(2).lattice)
        assert tables == [(3, 2, 1, 0)]

    def test_mo2_matches_brute_force_oracle(self):
        l = make_mo2().lattice
        expected = oracles.brute_force_complement_tables(
            l.leq, l.join, l.meet, l.bottom, l.top, require_omod=False
        )
        got = enumerate_orthocomplements(l)
        assert got == sorted(expected)
        assert len(got) == 3
        # on MO2 every ortholattice complementation is orthomodular
        assert enumerate_orthocomplements(l, require_omod=True) == got

    def test_o6_has_one_ortho_and_no_omod(self):
        l = make_o6().lattice
        assert enumerate_orthocomplements(l) == [(5, 4, 3, 2, 1, 0)]
        assert enumerate_orthocomplements(l, require_omod=True) == []
        oracle = oracles.brute_force_complement_tables(
            l.leq, l.join, l.meet, l.bottom, l.top, require_omod=True
        )
        assert oracle == []

    def test_four_chain_has_none(self):
        from omlat import lattice_from_covers

        l = lattice_from_covers(
            ["0", "p", "q", "1"], [("0", "p"), ("p", "q"), ("q", "1")]
        )
        assert enumerate_orthocomplements(l) == []

    @pytest.mark.parametrize(
        "l", enumerate_bounded_lattices(EnumerationConfig(5)), ids=lambda l: f"n{l.n}"
    )
    def test_small_corpus_matches_oracle(self, l):
        for omod in (False, True):
            expected = sorted(
                oracles.brute_force_complement_tables(
                    l.leq, l.join, l.meet, l.bottom, l.top, omod
                )
            )
            assert enumerate_orthocomplements(l, require_omod=omod) == expected

    def test_omod_subset_of_ortho(self):
        for l in CORPUS8:
            everything = enumerate_orthocomplements(l)
            omod = enumerate_orthocomplements(l, require_omod=True)
            assert set(omod) <= set(everything)


class TestEnumerateOmls:
    def test_pair_counts(self):
        pairs = enumerate_omls(EnumerationConfig(8))
        sizes = counts_by_size(c.lattice for c in pairs)
        assert sizes == {1: 1, 2: 1, 4: 1, 6: 3, 8: 16}

    def test_pipeline_property_small(self):
        from omlat import ALL_AXIOMS, derived_negation, round_trip_check, verify_lrg

        for c in enumerate_omls(EnumerationConfig(6)):
            assert verify_ortholattice(c).overall
            assert check_orthomodularity(c).overall
            g = sasaki_groupoid(c)
            assert verify_lrg(g, ALL_AXIOMS).overall
            assert derived_negation(g) == c.comp
            assert round_trip_check(c).overall


class TestFindCounterexample:
    def test_o6_orthomodularity_pair(self, o6):
        assert find_counterexample(o6, "orthomodularity") == (
            ("x", "x"),
            ("y", "y"),
        )

    def test_mo2_distributivity_triple(self, mo2):
        assert find_counterexample(mo2, "distributivity") == (
            ("x", "a"),
            ("y", "a'"),
            ("z", "b"),
        )

    def test_mo2_orthomodularity_none(self, mo2):
        assert find_counterexample(mo2, "orthomodularity") is None

    def test_complementation_id(self, mo2):
        assert find_counterexample(mo2, "complementation") is None

    def test_groupoid_ids(self, o6):
        g = sasaki_groupoid(o6, override=True)
        assert find_counterexample(g, "left-adjointness") == (
            ("x", "x"),
            ("y", "y"),
            ("z", "x"),
        )
        assert find_counterexample(g, "divisibility") == (("x", "y"), ("y", "x"))
        assert find_counterexample(g, "unit-left") is None

    def test_unknown_id_raises(self, mo2, o6):
        with pytest.raises(UnknownAxiomIdError):
            find_counterexample(mo2, "left-adjointness")
        with pytest.raises(UnknownAxiomIdError):
            find_counterexample(sasaki_groupoid(o6, override=True), "distributivity")
        with pytest.raises(UnknownAxiomIdError):
            find_counterexample(mo2, "bogus")

    def test_wrong_type(self):
        with pytest.raises(TypeError):
            find_counterexample("nope", "antitony")

    def test_witness_matches_report(self, o6):
        report = check_orthomodularity(o6)
        assert find_counterexample(o6, "orthomodularity") == report.witness(
            "orthomodularity"
        )


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_enumerated_representatives_are_canonical_forms(data):
    """Certificates of relabeled copies match the representative's."""
    from omlat import relabel_lattice

    l = data.draw(st.sampled_from([x for x in CORPUS8 if x.n <= 6]))
    perm = data.draw(st.permutations(range(l.n)))
    assert (
        canonical_certificate(relabel_lattice(l, list(perm))).data
        == canonical_certificate(l).data
    )
