"""Laws as data, one scan primitive, and per-axiom pass/fail reports.

Every axiom in the toolkit is a :class:`Law` row: an id, its variables and a
Python expression that must hold for every tuple.  :func:`first_violation`
scans the tuples in row-major order and returns the first failing one as a
variable-to-element binding, which keeps witnesses deterministic and
golden-testable.  Every checker returns a :class:`VerificationReport` instead
of raising on failure, so one run fully characterizes a structure.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

# ((variable, element name), ...) bindings, e.g. (("x", "a"), ("y", "b"))
Witness = tuple[tuple[str, str], ...]


def bind(variables: str, names: tuple[str, ...], elems: tuple[int, ...]) -> Witness:
    """Bind scan variables (comma-separated) to the named elements."""
    vs = [v.strip() for v in variables.split(",")]
    return tuple((v, names[e]) for v, e in zip(vs, elems))


@dataclass(frozen=True)
class Law:
    """A named law: `holds` must be true for every binding of `vars`.

    `vars` lists the scan variables, comma-separated, outermost first.
    `holds` is a Python expression over those variables and the table names
    leq, join, meet, bottom, top, comp, odot and imp.  It is a module
    constant of the package, never built from input.
    """

    id: str
    vars: str
    holds: str
    note: str = ""


@functools.cache
def _scanner(variables: str, holds: str):
    """Compile a law once into nested loops returning its first failing tuple.

    The compiled loops run like hand-written ones: no Python call per tuple.
    """
    vs = variables.split(",")
    lines = ["def scan(N, leq, join, meet, bottom, top, comp, odot, imp):"]
    for depth, v in enumerate(vs, 1):
        lines.append("    " * depth + f"for {v} in N:")
    lines.append("    " * (len(vs) + 1) + f"if not ({holds}):")
    lines.append("    " * (len(vs) + 2) + f"return ({', '.join(vs)},)")
    namespace: dict = {}
    exec("\n".join(lines), namespace)
    return namespace["scan"]


def _scan_args(lattice, comp=None, odot=None, imp=None) -> tuple:
    return (
        range(lattice.n), lattice.leq, lattice.join, lattice.meet,
        lattice.bottom, lattice.top, comp, odot, imp,
    )


def _violation(law: Law, names, args: tuple) -> Witness | None:
    hit = _scanner(law.vars, law.holds)(*args)
    return None if hit is None else bind(law.vars, names, hit)


def first_violation(law: Law, lattice, **tables) -> Witness | None:
    """First tuple in row-major order where the law fails, bound to names.

    The lattice supplies leq, join, meet, bottom and top; `tables` supplies
    any of comp, odot and imp that the law reads.
    """
    return _violation(law, lattice.names, _scan_args(lattice, **tables))


def check_laws(laws, lattice, **tables) -> list[AxiomResult]:
    """One result per law, in the given order."""
    names, args = lattice.names, _scan_args(lattice, **tables)
    results = []
    for law in laws:
        witness = _violation(law, names, args)
        results.append(AxiomResult(law.id, witness is None, witness, law.note))
    return results


def format_witness(witness: Witness | None) -> str:
    if not witness:
        return "-"
    return ",".join(f"{v}={e}" for v, e in witness)


@dataclass(frozen=True)
class AxiomResult:
    axiom: str
    passed: bool
    witness: Witness | None = None
    note: str = ""

    def describe(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = f"{status}  {self.axiom}"
        if self.witness:
            line += "  witness: " + ", ".join(f"{v}={e}" for v, e in self.witness)
        if self.note:
            line += f"  ({self.note})"
        return line


@dataclass(frozen=True)
class VerificationReport:
    results: tuple[AxiomResult, ...]

    @property
    def overall(self) -> bool:
        return all(r.passed for r in self.results)

    def __bool__(self) -> bool:
        return self.overall

    @property
    def failures(self) -> tuple[AxiomResult, ...]:
        return tuple(r for r in self.results if not r.passed)

    def result(self, axiom: str) -> AxiomResult:
        for r in self.results:
            if r.axiom == axiom:
                return r
        raise KeyError(axiom)

    def passed(self, axiom: str) -> bool:
        return self.result(axiom).passed

    def witness(self, axiom: str) -> Witness | None:
        return self.result(axiom).witness

    def merged(self, other: "VerificationReport") -> "VerificationReport":
        return VerificationReport(self.results + other.results)

    def render(self, title: str = "") -> str:
        lines = []
        if title:
            lines.append(title)
        lines.extend("  " + r.describe() for r in self.results)
        lines.append("overall: " + ("PASS" if self.overall else "FAIL"))
        return "\n".join(lines)
