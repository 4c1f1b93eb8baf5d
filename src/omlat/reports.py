"""Laws as data, one scan primitive, and per-axiom pass/fail reports.

Every axiom in the toolkit is a :class:`Law` row: an id, its variables and a
Python expression that must hold for every tuple.  :func:`first_violation`
scans the tuples in row-major order and returns the first failing one as a
variable-to-element binding, which keeps witnesses deterministic and
golden-testable.  Each law compiles once, in one pass over its expression,
into nested loops in which every table row is looked up in the outermost loop
that fixes it.  A law with three or more variables whose innermost test
equates rows indexed by the innermost variable (left adjointness,
associativity, distributivity) first compares the whole rows, a composed row
`A[B[z]]` read as `_gT[i](A)` from a list of one C-level getter per row of
B's table T, and runs the innermost loop only when they differ; equal rows
mean every innermost value passes, so the first failing tuple cannot change.
Every checker returns a :class:`VerificationReport` instead of raising on
failure, so one run fully characterizes a structure; a passing law's result
is one shared object.
"""

from __future__ import annotations

import ast
import functools
import operator
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


@functools.cache
def _scanner(variables: str, holds: str):
    """Compile a law once into nested loops returning its first failing tuple.

    The compiled loops run like hand-written ones: no Python call per tuple,
    and every table lookup moves to the outermost loop that binds its
    variables.  A chain such as leq[odot[x][y]] that reads only x and y
    becomes a temporary computed once per (x, y), not once per (x, y, z);
    inside a generator, whose own variable the scan does not bind, chains
    free of that variable move to the innermost loop.

    With three or more variables, an innermost test that is a conjunction of
    equalities whose every side is a row indexed by the innermost variable
    `z` (`R[z]`, column R) or a row composed with a row (`A[B[z]]` with B a
    temporary holding row i of table T, column `_gT[i](A)`) is first checked
    on whole columns, and the innermost loop is skipped when they are equal.
    The check reads the hoisted chains directly, and `_gT` lists a getter
    for every row of T, built once before the first loop.  No law equates
    `z` itself, so a bare `z` side does not qualify.  Equal columns make
    every `z` pass: the tables hold ints and bools, whose equality is
    reflexive, so tuple equality is `==` on every entry, and the first
    failing tuple is the same.  For n = 1 a getter returns a scalar, a row
    never equals it, and the exact loop runs.  One or two variables keep
    plain loops: at n = 12, building the getters costs what the comparison
    saves.  The generated source is kept as the function's `source`.
    """
    vs = variables.split(",")
    depth_of = {v: d for d, v in enumerate(vs, 1)}
    depth_of.update(dict.fromkeys(_TABLES | {"bottom", "top"}, 0))
    # Per loop depth (0 before the first loop), the lines to run there.
    assigns: list[list[str]] = [[] for _ in range(len(vs) + 1)]
    temps: dict[str, str] = {}  # chain source -> temporary
    chains: dict[str, ast.Subscript] = {}  # temporary -> its chain node

    def measure(node) -> int | None:
        """Innermost loop depth the node reads, or None if it reads another name."""
        if isinstance(node, ast.Name):
            return depth_of.get(node.id)
        ds = [measure(child) for child in ast.iter_child_nodes(node)]
        return None if None in ds else max(ds, default=0)

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
        depth = measure(node) if is_chain(node) else None
        hoisted = depth is not None and depth < limit
        if hoisted:
            limit = depth
        for field, value in ast.iter_fields(node):
            if isinstance(value, ast.AST):
                value = rewrite(value, limit)
            elif isinstance(value, list):
                value = [rewrite(v, limit) if isinstance(v, ast.AST) else v for v in value]
            setattr(node, field, value)
        if not hoisted:
            return node
        source = ast.unparse(node)
        if source not in temps:
            temps[source] = f"_h{len(temps)}"
            chains[temps[source]] = node
            assigns[limit].append(f"{temps[source]} = {source}")
        return ast.Name(temps[source], ast.Load())

    z = vs[-1]
    getters: dict[str, None] = {}  # tables whose row getters the check reads

    def column(side) -> str | None:
        """One expression for the values of `side` over every `z`, or None."""
        if not (isinstance(side, ast.Subscript) and isinstance(side.value, ast.Name)):
            return None
        outer, index = side.value.id, side.slice
        if isinstance(index, ast.Name) and index.id == z:
            return outer
        row = chains.get(column(index))  # A[B[z]] with B a temporary
        table = row.value if row else None
        if not (isinstance(table, ast.Name) and table.id in _TABLES):
            return None
        getters[table.id] = None
        return f"_g{table.id}[{ast.unparse(row.slice)}]({outer})"

    test = rewrite(ast.parse(holds, mode="eval").body, len(vs))
    if len(vs) >= 3:
        is_and = isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And)
        terms = test.values if is_and else [test]
        sides = [
            (column(t.left), column(t.comparators[0]))
            for t in terms
            if isinstance(t, ast.Compare) and [type(op) for op in t.ops] == [ast.Eq]
        ]
        if len(sides) == len(terms) and all(None not in pair for pair in sides):
            assigns[0] += [f"_g{t} = [_itemgetter(*_r) for _r in {t}]" for t in getters]
            check = " and ".join(f"{a} == {b}" for a, b in sides)
            assigns[-2] += [f"if {check}:", "    continue"]
    lines = ["def scan(N, leq, join, meet, bottom, top, comp, odot, imp):"]
    lines += ["    " + a for a in assigns[0]]
    for depth, v in enumerate(vs, 1):
        lines.append("    " * depth + f"for {v} in N:")
        lines += ["    " * (depth + 1) + a for a in assigns[depth]]
    lines.append("    " * (len(vs) + 1) + f"if not ({ast.unparse(test)}):")
    lines.append("    " * (len(vs) + 2) + f"return ({', '.join(vs)},)")
    source = "\n".join(lines)
    namespace: dict = {"_itemgetter": operator.itemgetter}
    exec(source, namespace)
    namespace["scan"].source = source
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


@functools.cache
def _passing(axiom: str, note: str) -> AxiomResult:
    """The one shared passing result of a law."""
    return AxiomResult(axiom, True, None, note)


def check_laws(laws, lattice, **tables) -> list[AxiomResult]:
    """One result per law, in the given order.

    A passing law gets its one shared result; a failing law a new one
    carrying its witness.
    """
    names, args = lattice.names, _scan_args(lattice, **tables)
    results = []
    for law in laws:
        witness = _violation(law, names, args)
        results.append(
            _passing(law.id, law.note)
            if witness is None
            else AxiomResult(law.id, False, witness, law.note)
        )
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
