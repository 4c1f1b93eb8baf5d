"""Laws as data, one scan primitive, and per-axiom pass/fail reports.

Every axiom in the toolkit is a :class:`Law` row: an id, its variables and a
Python expression that must hold for every tuple.  :func:`first_violation`
scans the tuples in row-major order and returns the first failing one as a
variable-to-element binding, which keeps witnesses deterministic and
golden-testable.  Each law compiles once into nested loops in which every
table row is looked up in the outermost loop that fixes it.  Every checker
returns a :class:`VerificationReport` instead of raising on failure, so one
run fully characterizes a structure.
"""

from __future__ import annotations

import ast
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
    constant of the package, never built from input.  A generator inside it
    binds a name of its own, never a scan variable.
    """

    id: str
    vars: str
    holds: str
    note: str = ""


# The tables a law indexes.  All are total: comp, odot and imp are checked on
# construction and leq, join and meet come from lattice_from_poset, so a
# lookup moved ahead of a short-circuit cannot raise.
_TABLES = frozenset(("leq", "join", "meet", "comp", "odot", "imp"))


def _hoist(vs: list[str], holds: str) -> tuple[str, list[list[str]]]:
    """Move each table lookup to the outermost loop that binds its variables.

    Returns the innermost test and, per loop depth (0 before the first loop),
    the temporaries to assign there.  A chain such as leq[odot[x][y]] that
    reads only x and y is computed once per (x, y), not once per (x, y, z);
    inside a generator, whose own variable the scan does not bind, chains
    free of that variable move to the innermost loop.
    """
    depth_of = {v: d for d, v in enumerate(vs, 1)}
    depth_of.update(dict.fromkeys(_TABLES | {"bottom", "top"}, 0))
    assigns: list[list[str]] = [[] for _ in range(len(vs) + 1)]
    temps: dict[str, str] = {}
    depth: dict[int, int | None] = {}

    def measure(node) -> int | None:
        """Innermost loop depth the node reads, or None if it reads another name."""
        ds = [measure(child) for child in ast.iter_child_nodes(node)]
        if isinstance(node, ast.Name):
            d = depth_of.get(node.id)
        else:
            d = None if None in ds else max(ds, default=0)
        depth[id(node)] = d
        return d

    def is_chain(node) -> bool:
        """A lookup such as leq[x] or join[x][comp[y]] into one of the tables."""
        if not isinstance(node, ast.Subscript):
            return False
        while isinstance(node, ast.Subscript):
            node = node.value
        return isinstance(node, ast.Name) and node.id in _TABLES

    def rewrite(node, limit: int):
        """Replace each chain reading only loops above `limit` by a temporary."""
        if isinstance(node, ast.GeneratorExp):
            limit = len(vs) + 1
        if is_chain(node):
            d = depth[id(node)]
            if d is not None and d < limit:
                source = ast.unparse(rewrite_fields(node, d))
                if source not in temps:
                    temps[source] = f"_h{len(temps)}"
                    assigns[d].append(f"{temps[source]} = {source}")
                return ast.Name(temps[source], ast.Load())
        return rewrite_fields(node, limit)

    def rewrite_fields(node, limit: int):
        for field, value in ast.iter_fields(node):
            if isinstance(value, ast.AST):
                setattr(node, field, rewrite(value, limit))
            elif isinstance(value, list):
                setattr(
                    node,
                    field,
                    [rewrite(v, limit) if isinstance(v, ast.AST) else v for v in value],
                )
        return node

    tree = ast.parse(holds, mode="eval").body
    measure(tree)
    test = rewrite(tree, len(vs))
    return ast.unparse(test), assigns


@functools.cache
def _scanner(variables: str, holds: str):
    """Compile a law once into nested loops returning its first failing tuple.

    The compiled loops run like hand-written ones: no Python call per tuple,
    and every table row is looked up in the outermost loop that fixes it.
    """
    vs = variables.split(",")
    test, assigns = _hoist(vs, holds)
    lines = ["def scan(N, leq, join, meet, bottom, top, comp, odot, imp):"]
    lines += ["    " + a for a in assigns[0]]
    for depth, v in enumerate(vs, 1):
        lines.append("    " * depth + f"for {v} in N:")
        lines += ["    " * (depth + 1) + a for a in assigns[depth]]
    lines.append("    " * (len(vs) + 1) + f"if not ({test}):")
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
