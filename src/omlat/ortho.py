"""Orthocomplementation laws on a bounded lattice.

An OrthoCandidate is a lattice plus a candidate complementation table; nothing
about the table is assumed.  The laws are `Law` rows over the table `comp`:
ORTHOLATTICE_LAWS (three axioms and three derived laws), ORTHOMODULAR_LAWS
(the orthomodular law and its dual, over comparable pairs) and BOOLEAN_LAWS
(distributivity and complementation).  The checkers scan every row, never
abort on a failure, and report each law independently, so a single run fully
characterizes a structure.  Witnesses are the first failing tuple in row-major
index order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .order import BoundedLattice, ElementId
from .reports import AxiomResult, Law, VerificationReport, Witness, check_laws, first_violation

# total map ElementId -> ElementId, as a dense tuple
UnaryTable = tuple[ElementId, ...]


@dataclass(frozen=True)
class OrthoCandidate:
    """Bounded lattice with a candidate complementation (checked, not assumed).

    `comp` is stored as the lattice's shared copy of that row.
    """

    lattice: BoundedLattice
    comp: UnaryTable

    def __post_init__(self):
        object.__setattr__(self, "comp", self.lattice.shared_row(self.comp))

    @property
    def names(self) -> tuple[str, ...]:
        return self.lattice.names


ORTHOLATTICE_LAWS = (
    Law("complement-join", "x", "join[x][comp[x]] == top"),
    Law("antitony", "x,y", "not leq[x][y] or leq[comp[y]][comp[x]]"),
    Law("involution", "x", "comp[comp[x]] == x"),
    Law("complement-meet", "x", "meet[x][comp[x]] == bottom", "derived law"),
    Law("de-morgan-join", "x,y", "comp[join[x][y]] == meet[comp[x]][comp[y]]", "derived law"),
    Law("de-morgan-meet", "x,y", "comp[meet[x][y]] == join[comp[x]][comp[y]]", "derived law"),
)

ORTHOMODULAR_LAWS = (
    Law("orthomodularity", "x,y", "not leq[x][y] or join[x][meet[y][comp[x]]] == y"),
    Law("orthomodularity-dual", "x,y", "not leq[x][y] or meet[y][join[x][comp[y]]] == x"),
)

BOOLEAN_LAWS = (
    Law("distributivity", "x,y,z", "meet[x][join[y][z]] == join[meet[x][y]][meet[x][z]]"),
    Law("complementation", "x", "join[x][comp[x]] == top and meet[x][comp[x]] == bottom"),
)

ORTHO_LAWS = ORTHOLATTICE_LAWS + ORTHOMODULAR_LAWS + BOOLEAN_LAWS


def verify_ortholattice(c: OrthoCandidate) -> VerificationReport:
    """Check complement-join, antitony, involution, and the derived laws.

    Derived entries: complement-meet (x and x' meet at bottom) and both
    de Morgan laws, plus the meta assertion that antitony with involution
    forces the de Morgan laws.
    """
    results = check_laws(ORTHOLATTICE_LAWS, c.lattice, comp=c.comp)

    by_id = {r.axiom: r for r in results}
    applicable = by_id["antitony"].passed and by_id["involution"].passed
    dm_ok = by_id["de-morgan-join"].passed and by_id["de-morgan-meet"].passed
    if not applicable:
        meta = AxiomResult(
            "de-morgan-derived",
            True,
            note="not applicable: antitony or involution fails",
        )
    else:
        bad = by_id["de-morgan-join"] if not by_id["de-morgan-join"].passed else by_id["de-morgan-meet"]
        meta = AxiomResult(
            "de-morgan-derived",
            dm_ok,
            None if dm_ok else bad.witness,
            note="antitony and involution must force both de Morgan laws",
        )
    results.append(meta)

    return VerificationReport(tuple(results))


def check_orthomodularity(c: OrthoCandidate) -> VerificationReport:
    """Check the orthomodular law, its dual form, and their agreement.

    Both forms are scanned over comparable pairs only.  The agreement entry
    asserts that whenever complement-join, antitony, and involution all hold,
    the two forms pass or fail together; when those prerequisites fail, the
    main entries are still computed but marked conditional.
    """
    return _orthomodularity(c, verify_ortholattice(c))


def verify_oml(c: OrthoCandidate) -> VerificationReport:
    """The ortholattice suite followed by the orthomodularity checks.

    Equal to verify_ortholattice(c).merged(check_orthomodularity(c)), but the
    ortholattice laws are scanned once.
    """
    ortho = verify_ortholattice(c)
    return ortho.merged(_orthomodularity(c, ortho))


def _orthomodularity(c: OrthoCandidate, ortho: VerificationReport) -> VerificationReport:
    """The check_orthomodularity report, given c's ortholattice report."""
    results = check_laws(ORTHOMODULAR_LAWS, c.lattice, comp=c.comp)
    if not ortho.overall:
        note = "conditional: ortholattice axioms do not all hold"
        results = [replace(r, note=note) for r in results]

    applicable = (
        ortho.passed("complement-join")
        and ortho.passed("antitony")
        and ortho.passed("involution")
    )
    if not applicable:
        meta = AxiomResult(
            "orthomodularity-agreement",
            True,
            note="not applicable: an ortholattice axiom fails",
        )
    else:
        meta = AxiomResult(
            "orthomodularity-agreement",
            results[0].passed == results[1].passed,
            note="the two orthomodularity forms must agree on ortholattices",
        )
    results.append(meta)

    return VerificationReport(tuple(results))


def is_boolean(c: OrthoCandidate) -> tuple[bool, Witness | None]:
    """True iff the lattice is distributive and comp is a complementation."""
    for law in BOOLEAN_LAWS:
        witness = first_violation(law, c.lattice, comp=c.comp)
        if witness is not None:
            return False, witness
    return True, None
