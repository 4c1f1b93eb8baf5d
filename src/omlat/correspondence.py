"""The two constructions tying orthomodular lattices to residuated groupoids.

sasaki_groupoid equips an orthomodular lattice with the Sasaki product
x odot y = (x v y') ^ y and hook x imp y = (y ^ x) v x'.  induced_oml goes the
other way, recovering a complementation from a qualifying groupoid as the
derived negation x imp 0.  round_trip_check verifies that composing the two
reproduces the original structure bit-exactly, table by table, not merely up
to isomorphism: both constructions keep the carrier fixed.

The Sasaki tables are bytes rows composed with bytes.translate from the
lattice's column mirror of join and meet, and the lattice interns them by
their bytes.  A round trip scans the orthomodular lattice once: from a
lattice, the Sasaki gate has just verified it, so recovering its own stored
row on its own lattice is not verified again, while any other recovered row
is.
"""

from __future__ import annotations

from .errors import HypothesisViolatedError, NotOrthomodularError
from .ortho import OrthoCandidate, verify_oml
from .reports import AxiomResult, VerificationReport, bind
from .residuated import (
    RECOVERY_AXIOMS,
    ROUND_TRIP_AXIOMS,
    LrGroupoid,
    derived_negation,
    verify_lrg,
)


def sasaki_groupoid(c: OrthoCandidate, override: bool = False) -> LrGroupoid:
    """Build the groupoid with the Sasaki product and hook tables.

    Requires the input to pass the full ortholattice and orthomodularity
    suites; `override` skips that gate so non-orthomodular inputs can be
    pushed through the defining equations for counterexample studies.
    """
    if not override:
        report = verify_oml(c)
        if not report.overall:
            failed = ", ".join(r.axiom for r in report.failures)
            raise NotOrthomodularError(
                f"input is not an orthomodular lattice (failing: {failed})",
                report=report,
            )
    l, comp, n = c.lattice, c.comp, c.lattice.n
    # Bytes rows of the transposed tables: column y of odot is column comp[y]
    # of join translated through column y of meet, and row x of imp is
    # column x of meet translated through column comp[x] of join.
    (join_cols, join_tr), (meet_cols, meet_tr) = l._column_mirror
    flat = b"".join([join_cols[cy].translate(meet_tr[y]) for y, cy in enumerate(comp)])
    odot = [flat[x::n] for x in range(n)]
    imp = [meet_cols[x].translate(join_tr[cx]) for x, cx in enumerate(comp)]
    return LrGroupoid(l, odot, imp)


def induced_oml(
    g: LrGroupoid, profile: tuple[str, ...] = RECOVERY_AXIOMS
) -> OrthoCandidate:
    """Recover an orthomodular lattice from a qualifying groupoid.

    The groupoid must pass the given profile, a tuple of law ids (the
    default is the recovery hypothesis set); violations raise
    HypothesisViolatedError carrying the failing axiom and witness.  The
    conclusion is then verified, never assumed: the candidate with
    comp = derived negation must pass the full ortholattice and
    orthomodularity suites.
    """
    return _induced_oml(g, profile, None)


def _induced_oml(g: LrGroupoid, profile, verified: OrthoCandidate | None) -> OrthoCandidate:
    """induced_oml, whose conclusion is taken as verified when the recovered
    complement is the stored row of `verified`, a candidate on g's lattice
    that has just passed verify_oml."""
    hypothesis = verify_lrg(g, profile)
    if not hypothesis.overall:
        first = hypothesis.failures[0]
        raise HypothesisViolatedError(
            f"groupoid violates {first.axiom}",
            axiom=first.axiom,
            witness=first.witness,
        )
    candidate = OrthoCandidate(g.lattice, derived_negation(g))
    if verified and verified.lattice is g.lattice and verified.comp is candidate.comp:
        return candidate
    conclusion = verify_oml(candidate)
    if not conclusion.overall:
        failed = ", ".join(r.axiom for r in conclusion.failures)
        raise NotOrthomodularError(
            f"induced structure is not an orthomodular lattice (failing: {failed})",
            report=conclusion,
        )
    return candidate


def _table_mismatch(names, got, want, axiom: str) -> AxiomResult:
    for x, (got_row, want_row) in enumerate(zip(got, want)):
        if got_row == want_row:
            continue
        for y, (g, w) in enumerate(zip(got_row, want_row)):
            if g != w:
                return AxiomResult(axiom, False, bind("x,y", names, (x, y)))
    return AxiomResult(axiom, True)


def _unary_mismatch(names, got, want, axiom: str) -> AxiomResult:
    for x in range(len(names)):
        if got[x] != want[x]:
            return AxiomResult(axiom, False, bind("x", names, (x,)))
    return AxiomResult(axiom, True)


def round_trip_check(structure) -> VerificationReport:
    """Verify the one-to-one correspondence on a single structure.

    For an orthomodular lattice L: rebuild L from its Sasaki groupoid and
    compare order and complement tables cell by cell; L is scanned once, by
    the Sasaki gate, unless another complement is recovered.  For a groupoid A
    passing the round-trip profile: rebuild A from its induced lattice and
    compare the product and residual tables.  Mismatches are report entries
    carrying the first differing cell, never exceptions.  `roundtrip-order`
    compares the input's lattice with itself and cannot fail; a broken hook
    fails left adjointness in `induced_oml` first (HypothesisViolatedError).
    """
    if isinstance(structure, OrthoCandidate):
        c = structure
        g = sasaki_groupoid(c)
        # sasaki_groupoid has just verified c: recovering c's own row on c's
        # lattice needs no second scan
        back = _induced_oml(g, ROUND_TRIP_AXIOMS, c)
        results = (
            _table_mismatch(c.names, back.lattice.leq, c.lattice.leq, "roundtrip-order"),
            _unary_mismatch(c.names, back.comp, c.comp, "roundtrip-complement"),
        )
        return VerificationReport(results)
    if isinstance(structure, LrGroupoid):
        g = structure
        candidate = induced_oml(g, ROUND_TRIP_AXIOMS)
        # induced_oml has just verified that candidate is an OML
        back = sasaki_groupoid(candidate, override=True)
        results = (
            _table_mismatch(g.names, back.odot, g.odot, "roundtrip-odot"),
            _table_mismatch(g.names, back.imp, g.imp, "roundtrip-imp"),
        )
        return VerificationReport(results)
    raise TypeError(f"expected OrthoCandidate or LrGroupoid, got {type(structure).__name__}")
