"""Left residuated l-groupoid laws on a bounded lattice.

An LrGroupoid carries two total binary tables (odot for the product, imp for
the residual); the laws are checked, never assumed.  They are the `Law` rows
of GROUPOID_LAWS: the two unit laws, left adjointness, divisibility, antitony
and double negation, the two Sasaki operation identities, and join
absorption.  Laws that read `comp` see the derived negation x -> bottom, so
every identity stays self-contained on a bare groupoid.  A profile is a tuple
of law ids; CORE_AXIOMS, RECOVERY_AXIOMS, ROUND_TRIP_AXIOMS and ALL_AXIOMS
name the paper's hypothesis sets.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import TableNotTotalError, UnknownAxiomIdError
from .order import BoundedLattice, ElementId
from .ortho import UnaryTable
from .reports import Law, VerificationReport, check_laws

# total n x n table of ElementId, row-major (table[x][y])
BinOpTable = tuple[tuple[ElementId, ...], ...]


@dataclass(frozen=True)
class LrGroupoid:
    """Bounded lattice with product and residual tables (checked, not assumed).

    Each row is the lattice's shared copy, so groupoids over one lattice
    store each distinct row once.
    """

    lattice: BoundedLattice
    odot: BinOpTable
    imp: BinOpTable

    def __post_init__(self):
        l = self.lattice
        for name in ("odot", "imp"):
            rows = tuple(getattr(self, name))
            if len(rows) != l.n:
                raise TableNotTotalError(f"{name} table must have {l.n} rows")
            object.__setattr__(self, name, tuple(map(l.shared_row, rows)))

    @property
    def names(self) -> tuple[str, ...]:
        return self.lattice.names


GROUPOID_LAWS = (
    Law("unit-left", "x", "odot[top][x] == x"),
    Law("unit-right", "x", "odot[x][top] == x"),
    Law("left-adjointness", "x,y,z", "leq[odot[x][y]][z] == leq[x][imp[y][z]]"),
    Law("divisibility", "x,y", "odot[imp[x][y]][x] == meet[x][y]"),
    Law("antitony", "x,y", "not leq[x][y] or leq[comp[y]][comp[x]]"),
    Law("double-negation", "x", "comp[comp[x]] == x"),
    Law("sasaki-product", "x,y", "odot[x][y] == meet[join[x][comp[y]]][y]"),
    Law("sasaki-hook", "x,y", "imp[x][y] == join[meet[y][x]][comp[x]]"),
    Law("join-absorption", "x,y", "odot[x][join[x][y]] == x"),
)

ALL_AXIOMS = tuple(law.id for law in GROUPOID_LAWS)

CORE_AXIOMS = ("unit-left", "unit-right", "left-adjointness")

# hypothesis set under which the induced complementation must yield an
# orthomodular lattice: core plus antitony, double negation, the product
# identity, and join absorption
RECOVERY_AXIOMS = CORE_AXIOMS + (
    "antitony",
    "double-negation",
    "sasaki-product",
    "join-absorption",
)

# hypothesis set for the two-way round trip: recovery plus the hook identity
ROUND_TRIP_AXIOMS = RECOVERY_AXIOMS + ("sasaki-hook",)


def derived_negation(g: LrGroupoid) -> UnaryTable:
    """The map x -> (x imp bottom), the negation induced by the residual."""
    bottom = g.lattice.bottom
    return tuple([row[bottom] for row in g.imp])


def verify_lrg(g: LrGroupoid, profile: tuple[str, ...] = ALL_AXIOMS) -> VerificationReport:
    """Check the laws named by the profile, reported in GROUPOID_LAWS order.

    Left adjointness is scanned over all n^3 triples as a literal
    biconditional: (x odot y) <= z iff x <= (y imp z).  An empty profile
    raises ValueError and an unknown id raises UnknownAxiomIdError.
    """
    laws = _profile_laws(tuple(profile))
    results = check_laws(laws, g.lattice, comp=derived_negation(g), odot=g.odot, imp=g.imp)
    return VerificationReport(tuple(results))


@functools.cache
def _profile_laws(profile: tuple[str, ...]) -> tuple[Law, ...]:
    """The laws a profile names, in GROUPOID_LAWS order: one tuple per profile."""
    if not profile:
        raise ValueError("a profile must name at least one axiom")
    unknown = sorted(set(profile).difference(ALL_AXIOMS))
    if unknown:
        raise UnknownAxiomIdError(f"unknown axiom id {unknown[0]!r} for a groupoid")
    return tuple(law for law in GROUPOID_LAWS if law.id in profile)
