"""Laws as data, one scan primitive, and per-axiom pass/fail reports.

Every axiom in the toolkit is a :class:`Law` row: an id, its variables and a
Python expression that must hold for every tuple.  :func:`first_violation`
scans the tuples in row-major order and returns the first failing one as a
variable-to-element binding, which keeps witnesses deterministic and
golden-testable.  Each law compiles once into nested loops in which every
table row is looked up in the outermost loop that fixes it.  A law with three
or more variables whose innermost test equates rows indexed by the innermost
variable (left adjointness, associativity, distributivity) first compares the
whole rows, each built by one C-level getter call, and runs the innermost
loop only when they differ; equal rows mean every innermost value passes, so
the first failing tuple cannot change.  Every checker returns a
:class:`VerificationReport` instead of raising on failure, so one run fully
characterizes a structure; a passing law's result is one shared object.
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


def _row_filter(z: str, test: str, assigns: list[list[str]]):
    """Lines to add per loop depth and a whole-row test that implies `test`
    for every `z`, or None.

    Applies when `test` is a conjunction of equalities whose every side is
    `z` (column `tuple(N)`), a row indexed by it (`R[z]`, column R) or a row
    composed with a row (`A[B[z]]` with B a temporary holding a row of table
    T, column `itemgetter(*B)(A)`).  The getters for every row of T are built
    once at depth 0, and B's getter is taken in the loop that assigns B.
    Equal columns make every `z` pass: the tables hold ints and bools, whose
    equality is reflexive, so tuple equality is `==` on every entry.  For
    n = 1 a getter returns a scalar, a row never equals it, and the exact
    loop runs.
    """
    placed = {}
    for depth, level in enumerate(assigns):
        for a in level:
            name, source = a.split(" = ", 1)
            placed[name] = depth, source
    extra: list[list[str]] = [[] for _ in assigns]

    def add(depth: int, line: str, first: bool = False) -> None:
        if line not in extra[depth]:
            extra[depth].insert(0 if first else len(extra[depth]), line)

    def column(side) -> str | None:
        if isinstance(side, ast.Name) and side.id == z:
            add(0, "_N = tuple(N)", first=True)
            return "_N"
        if not (isinstance(side, ast.Subscript) and isinstance(side.value, ast.Name)):
            return None
        outer, index = side.value.id, side.slice
        if outer == z:
            return None
        if isinstance(index, ast.Name) and index.id == z:
            return outer
        if not (
            isinstance(index, ast.Subscript)
            and isinstance(index.value, ast.Name)
            and index.value.id in placed
            and isinstance(index.slice, ast.Name)
            and index.slice.id == z
        ):
            return None
        depth, source = placed[index.value.id]
        row = ast.parse(source, mode="eval").body
        if not (isinstance(row.value, ast.Name) and row.value.id in _TABLES):
            return None
        table, getter = row.value.id, f"_g{index.value.id}"
        add(0, f"_g{table} = [_itemgetter(*_r) for _r in {table}]", first=True)
        add(depth, f"{getter} = _g{table}[{ast.unparse(row.slice)}]")
        return f"{getter}({outer})"

    node = ast.parse(test, mode="eval").body
    terms = node.values if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.And) else [node]
    checks = []
    for term in terms:
        if not (
            isinstance(term, ast.Compare)
            and len(term.ops) == 1
            and isinstance(term.ops[0], ast.Eq)
        ):
            return None
        sides = [column(term.left), column(term.comparators[0])]
        if None in sides:
            return None
        checks.append(" == ".join(sides))
    return extra, " and ".join(checks)


@functools.cache
def _scanner(variables: str, holds: str):
    """Compile a law once into nested loops returning its first failing tuple.

    The compiled loops run like hand-written ones: no Python call per tuple,
    and every table row is looked up in the outermost loop that fixes it.  A
    law with three or more variables whose innermost test `_row_filter`
    accepts first compares whole rows and skips the innermost loop when they
    are equal; since then every innermost value passes, the first failing
    tuple is the same.  One or two variables keep plain loops: at n = 12,
    building the getters costs what the comparison saves.  The generated
    source is kept as the function's `source`.
    """
    vs = variables.split(",")
    test, assigns = _hoist(vs, holds)
    rows = _row_filter(vs[-1], test, assigns) if len(vs) >= 3 else None
    if rows is not None:
        extra, check = rows
        for level, more in zip(assigns, extra):
            level += more
        assigns[-2] += [f"if {check}:", "    continue"]
    lines = ["def scan(N, leq, join, meet, bottom, top, comp, odot, imp):"]
    lines += ["    " + a for a in assigns[0]]
    for depth, v in enumerate(vs, 1):
        lines.append("    " * depth + f"for {v} in N:")
        lines += ["    " * (depth + 1) + a for a in assigns[depth]]
    lines.append("    " * (len(vs) + 1) + f"if not ({test}):")
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
