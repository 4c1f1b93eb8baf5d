"""Laws as data, compiled law suites, and per-axiom pass/fail reports.

Every axiom in the toolkit is a :class:`Law` row: an id, its variables and a
Python expression that must hold for every tuple.  A law's witness is its
first failing tuple in row-major order, bound to element names, which keeps
witnesses deterministic and golden-testable.  :func:`check_laws` scans a
suite (a tuple of laws) with one function compiled once: its preamble reads
each table and converts each row to bytes once, and each law's nested loops
follow inline, every table row looked up in the outermost loop fixing it.
:func:`first_violation` scans one law as a suite of one.  Two shortcuts keep
the first failing tuple:

- A guarded law, `not leq[a][z] or Q` with `z` innermost and `a` an outer
  variable, loops `z` only where row `a` of `leq` holds and tests `Q`
  alone; every skipped tuple passes the guard.  Antitony (both suites),
  `orthomodularity` and `orthomodularity-dual` have this form.
- A law whose innermost test equates rows indexed by the innermost variable
  (left adjointness, associativity, distributivity, both de Morgan laws)
  first compares whole rows as bytes, `A[B[z]]` as `B.translate(A)` with A
  padded to 256 bytes, and loops only when they differ.  Element ids are
  bytes, since carriers hold at most 256 elements (`order.MAX_CARRIER_SIZE`).

Every checker returns a :class:`VerificationReport` instead of raising on
failure, so one run fully characterizes a structure; a passing law's result
is one shared object.
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
    leq, join, meet, bottom, top, comp, odot and imp, and the lattice's
    up-set and down-set masks up and down.  It is a module constant of the
    package, never built from input.
    """

    id: str
    vars: str
    holds: str
    note: str = ""


# The tables a law indexes.  All are total: comp, odot and imp are checked on
# construction and leq, join, meet, up and down come from lattice_from_poset,
# so a lookup moved ahead of a short-circuit cannot raise.
_TABLES = frozenset(("leq", "join", "meet", "comp", "odot", "imp", "up", "down"))

# What a scan reads from `lattice`; comp, odot and imp are its arguments.
_LATTICE_READS = ("leq", "join", "meet", "bottom", "top", "up", "down")


def byte_mirror(table) -> tuple[tuple[bytes, ...], tuple[bytes, ...]]:
    """A table's rows as bytes, and each padded to a 256-byte translate table."""
    rows = tuple(map(bytes, table))
    return rows, tuple(r.ljust(256, b"\0") for r in rows)


# How a scan reads a table's bytes (`_bT`) and translate tables (`_tT`) for its
# row check: the lattice's from its `_byte_mirror`, comp, odot and imp anew.
_BYTE_READS = {
    **{t: f"_b{t}, _t{t} = lattice._byte_mirror[{t!r}]" for t in ("leq", "join", "meet")},
    "comp": '_bcomp = bytes(comp); _tcomp = _bcomp.ljust(256, b"\\0")',
    **{t: f"_b{t} = [*map(bytes, {t})]" for t in ("odot", "imp")},
}


def _law_block(variables: str, holds: str) -> tuple[list[str], list[str], str]:
    """One law compiled into nested loops: (reads, loops, hit).

    `reads` are the preamble lines the law needs, `loops` its loops down to
    the innermost `if not (test):`, indented for a function body, and `hit`
    the failing tuple to record under that `if`.  No Python call runs per
    tuple, and every table lookup moves to the outermost loop that binds its
    variables: leq[odot[x][y]] becomes a temporary computed once per (x, y),
    not once per (x, y, z).  Tables, masks and guard rows are read from
    `lattice` only by a law naming them.

    A test `not leq[a][z] or Q`, with `z` innermost and `a` an outer
    variable, loops `z` over `lattice._leq_indices[a]`, the indices where
    row `a` of `leq` holds in increasing order, and tests `Q` alone.

    With two or more variables, an innermost test that is a conjunction of
    equalities between rows indexed by the innermost variable `z` is first
    checked on whole rows as bytes, and equal rows skip the innermost loop,
    since every `z` passes: `R[z]` (R a temporary holding row i of table T)
    reads `_bT[i]`, `A[B[z]]` reads `_bT[i].translate(_tU[j])`, and A or B
    may be `comp` itself; no law equates `z` itself.  The check reads no
    temporary of its own loop, so it runs before them.
    """
    vs = variables.split(",")
    depth_of = {v: d for d, v in enumerate(vs, 1)}
    depth_of.update(dict.fromkeys(_TABLES | {"bottom", "top"}, 0))
    # Per loop depth (0 before the first loop), the lines to run there.
    assigns: list[list[str]] = [[] for _ in range(len(vs) + 1)]
    temps: dict[str, str] = {}  # chain source -> temporary
    chains: dict[str, ast.Subscript] = {}  # temporary -> its chain node

    def measure(node) -> int:
        """Innermost loop depth the node reads."""
        if isinstance(node, ast.Name):
            return depth_of[node.id]
        return max(map(measure, ast.iter_child_nodes(node)), default=0)

    def is_chain(node) -> bool:
        """A lookup such as leq[x] or join[x][comp[y]] into one of the tables."""
        if not isinstance(node, ast.Subscript):
            return False
        while isinstance(node, ast.Subscript):
            node = node.value
        return isinstance(node, ast.Name) and node.id in _TABLES

    def rewrite(node, limit: int):
        """Replace each chain reading only loops above `limit` by a temporary."""
        depth = measure(node) if is_chain(node) else limit
        hoisted = depth < limit
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
    reads: dict[str, None] = {}  # tables whose bytes the check reads

    def as_bytes(node, kind: str) -> str | None:
        """`comp` or a temporary holding row i of a table as bytes (kind "b")
        or a translate table ("t"), if _BYTE_READS defines that name."""
        row = chains.get(getattr(node, "id", None))
        if isinstance(node, ast.Name) and node.id == "comp":
            table, index = "comp", ""
        elif row and isinstance(row.value, ast.Name) and row.value.id != "comp":
            table, index = row.value.id, f"[{ast.unparse(row.slice)}]"
        else:
            return None
        if f"_{kind}{table}" not in _BYTE_READS[table]:
            return None
        reads[table] = None
        return f"_{kind}{table}{index}"

    def column(side) -> str | None:
        """One bytes expression for the values of `side` over every `z`, or None."""
        if not isinstance(side, ast.Subscript):
            return None
        index = side.slice
        if isinstance(index, ast.Name) and index.id == z:  # R[z]
            return as_bytes(side.value, "b")
        if not (isinstance(index, ast.Subscript) and ast.unparse(index.slice) == z):
            return None
        inner, outer = as_bytes(index.value, "b"), as_bytes(side.value, "t")
        return inner and outer and f"{inner}.translate({outer})"  # A[B[z]]

    tree = ast.parse(holds, mode="eval").body
    loops = ["N"] * len(vs)
    # the guard loops of `not leq[a][z] or Q`, by the text of leq[a][z]
    guards = {f"leq[{a}][{z}]": f"_leq_indices[{a}]" for a in vs[:-1]}
    match tree:
        case ast.BoolOp(ast.Or(), [ast.UnaryOp(ast.Not(), guard), *rest]) if (
            ast.unparse(guard) in guards
        ):
            loops[-1] = guards[ast.unparse(guard)]
            tree = rest[0] if len(rest) == 1 else ast.BoolOp(ast.Or(), rest)
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    lines = ["N = range(lattice.n)"]
    lines += [f"{t} = lattice.{t}" for t in _LATTICE_READS if t in names]
    if loops[-1] != "N":
        lines.append("_leq_indices = lattice._leq_indices")
    test = rewrite(tree, len(vs))
    if len(vs) >= 2:
        is_and = isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And)
        terms = test.values if is_and else [test]
        sides = [
            (column(t.left), column(t.comparators[0]))
            for t in terms
            if isinstance(t, ast.Compare) and [type(op) for op in t.ops] == [ast.Eq]
        ]
        if len(sides) == len(terms) and all(None not in pair for pair in sides):
            lines += [_BYTE_READS[t] for t in reads]
            check = " and ".join(f"{a} == {b}" for a, b in sides)
            assigns[-2][:0] = [f"if {check}:", "    continue"]
    body = ["    " + a for a in assigns[0]]
    for depth, (v, loop) in enumerate(zip(vs, loops), 1):
        body.append("    " * depth + f"for {v} in {loop}:")
        body += ["    " * (depth + 1) + a for a in assigns[depth]]
    body.append("    " * (len(vs) + 1) + f"if not ({ast.unparse(test)}):")
    return ["    " + line for line in lines], body, f"({', '.join(vs)},)"


@functools.cache
def _suite(laws: tuple[tuple[str, str], ...]):
    """A suite of (vars, holds) pairs compiled into one scan returning each
    law's first failing tuple or None, in order, with its source kept as
    `source`.

    The preamble holds each law's reads once.  Each law's loops follow in
    turn; its first failing tuple is stored in h<i>, and a `for ... else:
    continue` / `break` chain leaves all of its loops at once.
    """
    reads: dict[str, None] = {}
    lines = []
    for i, (variables, holds) in enumerate(laws):
        law_reads, loops, hit = _law_block(variables, holds)
        reads.update(dict.fromkeys(law_reads))
        depth = variables.count(",") + 1
        lines += loops
        lines += ["    " * (depth + 2) + f"h{i} = {hit}", "    " * (depth + 2) + "break"]
        for d in range(depth, 1, -1):
            lines += ["    " * d + "else:", "    " * (d + 1) + "continue", "    " * d + "break"]
    hits = [f"h{i}" for i in range(len(laws))]
    source = "\n".join([
        "def scan(lattice, comp=None, odot=None, imp=None):",
        *reads,
        f"    {' = '.join(hits)} = None",
        *lines,
        f"    return {', '.join(hits)},",
    ])
    namespace: dict = {}
    exec(source, namespace)
    namespace["scan"].source = source
    return namespace["scan"]


def first_violation(law: Law, lattice, **tables) -> Witness | None:
    """First tuple in row-major order where the law fails, bound to names.

    The lattice supplies leq, join, meet, bottom and top; `tables` supplies
    any of comp, odot and imp that the law reads.
    """
    (hit,) = _suite(((law.vars, law.holds),))(lattice, **tables)
    return None if hit is None else bind(law.vars, lattice.names, hit)


@functools.cache
def _passing(axiom: str, note: str) -> AxiomResult:
    """The one shared passing result of a law."""
    return AxiomResult(axiom, True, None, note)


# id(laws) -> (laws, compiled suite, passing results)
_SUITES: dict[int, tuple] = {}


def check_laws(laws: tuple[Law, ...], lattice, **tables) -> list[AxiomResult]:
    """One result per law, in the given order.

    `laws` is a tuple that lives as long as the program, such as a module
    constant: its compiled suite is found by the tuple's identity, so no
    call hashes a `Law`, and the cache keeps the tuple.  A passing law gets
    its one shared result; a failing law a new one carrying its witness.
    """
    entry = _SUITES.get(id(laws))
    if entry is None or entry[0] is not laws:
        texts = tuple((law.vars, law.holds) for law in laws)
        passing = tuple(_passing(law.id, law.note) for law in laws)
        entry = _SUITES[id(laws)] = (laws, _suite(texts), passing)
    _, scan, passing = entry
    names = lattice.names
    return [
        ok if hit is None else AxiomResult(law.id, False, bind(law.vars, names, hit), law.note)
        for law, ok, hit in zip(laws, passing, scan(lattice, **tables))
    ]


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
