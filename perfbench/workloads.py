"""The benchmark's workloads: inputs, operations and oracles.

Each workload has a `build` step that makes its inputs with omlat (timed as
set-up) and a `prepare` step that judges those inputs with the reference
checks in `oracle`, writes files and returns the operations (not timed).
Every operation returns a result that its `check` compares with an expected
value fixed by where the input came from, never by omlat's own verdict.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import random
import shutil
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import oracle


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    # None when the result agrees with the oracle, else what went wrong
    check: Callable[[object], "str | None"]


@dataclass
class Workload:
    why: str
    build: Callable  # (seed) -> raw inputs
    prepare: Callable  # (raw, seed, work dir) -> (ops, set-up errors)


def _call_cli(cli, argv) -> object:
    """Exit code of one in-process CLI call, with its output captured."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
        io.StringIO()
    ):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code


def _expect(expected):
    return lambda got: None if got == expected else f"got {got!r}, expected {expected!r}"


# --- enumerate-8 -------------------------------------------------------------


def _build_enumerate(seed):
    return importlib.import_module("omlat.cli")


def _check_enumeration(files: dict[str, bytes]) -> str | None:
    sizes: Counter = Counter()
    for name, data in sorted(files.items()):
        try:
            s = oracle.read_structure(data.decode("utf-8"))
            tables = s["kind"] == "lattice" and oracle.lattice_tables(
                s["elements"], s.get("covers", [])
            )
        except (KeyError, ValueError):
            tables = None
        if not tables:
            return f"{name} does not parse back as a lattice"
        sizes[len(s["elements"])] += 1
    counts = tuple(sizes[n] for n in range(1, 9))
    if counts != oracle.A006966 or sum(counts) != len(files):
        return f"class counts {counts}, expected A006966 {oracle.A006966}"
    return None


def _prepare_enumerate(cli, seed, work):
    runs = itertools.count()
    first: dict[str, bytes] = {}

    def run():
        out = work / f"enumerate-{next(runs)}"
        return out, _call_cli(cli, ["enumerate", "--max-size", "8", "--out", str(out)])

    def check(result):
        out, code = result
        files = {p.name: p.read_bytes() for p in out.iterdir()} if out.is_dir() else {}
        shutil.rmtree(out, ignore_errors=True)
        if code != 0:
            return f"exit {code!r}, expected 0"
        # Output is deterministic: check the first run fully, then compare.
        if first:
            return None if files == first else "files differ from the first run"
        error = _check_enumeration(files)
        if error is None:
            first.update(files)
        return error

    return [Op("enumerate --max-size 8", run, check)], []


# --- cli-corpus-8 ------------------------------------------------------------

MALFORMED = {
    # not UTF-8: at the seed a UnicodeDecodeError escapes cli.main
    "non_utf8.lattice": b"kind: lattice\nelements: 0 \xff 1\ncovers: 0<\xff \xff<1\n",
    "cyclic.lattice": "kind: lattice\nelements: 0 a b 1\ncovers: 0<a a<b b<a b<1\n",
    "bowtie.lattice": (
        "kind: lattice\nelements: 0 a b c d 1\n"
        "covers: 0<a 0<b a<c a<d b<c b<d c<1 d<1\n"
    ),
    "unknown.lattice": "kind: lattice\nelements: 0 a 1\ncovers: 0<a a<z z<1\n",
}


def shuffle_elements(text: str, rng: random.Random) -> str:
    """The same structure with its elements, covers and table rows reordered."""
    lines = text.splitlines()
    names = next(l.split(":", 1)[1].split() for l in lines if l.startswith("elements:"))
    order = rng.sample(names, len(names))
    columns = [names.index(name) for name in order]
    out: list[str] = []
    table: dict[str, list[str]] = {}

    def flush():
        for name in order:
            if name in table:
                out.append(f"  {name}: " + " ".join(table[name][c] for c in columns))
        table.clear()

    for line in lines:
        key, _, rest = line.partition(":")
        key = key.strip()
        if line.startswith(" "):
            table[key] = rest.split()
            continue
        flush()
        if key == "elements":
            out.append("elements: " + " ".join(order))
        elif key in ("covers", "comp"):
            words = rest.split()
            rng.shuffle(words)
            out.append(f"{key}: {' '.join(words)}".rstrip())
        else:
            out.append(line)
    flush()
    return "\n".join(out) + "\n"


def _build_cli_corpus(seed):
    api = importlib.import_module("omlat")
    cli = importlib.import_module("omlat.cli")
    lattices = api.enumerate_bounded_lattices(api.EnumerationConfig(8))
    pairs = []
    for lattice in lattices:
        for table in api.enumerate_orthocomplements(lattice):
            c = api.OrthoCandidate(lattice, table)
            try:
                g = api.sasaki_groupoid(c)
            except api.NotOrthomodularError:
                g = api.sasaki_groupoid(c, override=True)
            pairs.append((api.serialize_structure(c), api.serialize_structure(g)))
    return cli, [api.serialize_structure(l) for l in lattices], pairs


def _classify_ortho(text: str) -> tuple[int, bool] | None:
    """(size, orthomodular) of an ortho file, or None if it is no ortholattice."""
    try:
        s = oracle.read_structure(text)
        names = s["elements"]
        tables = oracle.lattice_tables(names, s.get("covers", []))
        comp = [names.index(s["comp"][name]) for name in names]
    except (KeyError, ValueError):
        return None
    if tables is None or not oracle.is_orthocomplement(*tables, comp):
        return None
    return len(names), oracle.is_orthomodular(*tables, comp)


def _prepare_cli_corpus(raw, seed, work):
    cli, lattice_texts, pairs = raw
    rng = random.Random(seed)
    errors = []
    sizes = Counter(len(oracle.read_structure(t).get("elements", ())) for t in lattice_texts)
    counts = tuple(sizes[n] for n in range(1, 9))
    if counts != oracle.A006966:
        errors.append(f"lattice counts {counts}, expected A006966 {oracle.A006966}")
    oml_sizes: Counter = Counter()
    # (file name, contents, expected exit code of check, of roundtrip or None)
    files = [(f"lattice_{i:03d}.lattice", t, 0, None) for i, t in enumerate(lattice_texts)]
    for i, (ortho_text, groupoid_text) in enumerate(pairs):
        verdict = _classify_ortho(ortho_text)
        if verdict is None:
            errors.append(f"ortho pair {i} is not an orthocomplemented lattice")
            continue
        size, orthomodular = verdict
        oml_sizes[size] += orthomodular
        code = 0 if orthomodular else 1
        files.append((f"ortho_{i:02d}.ortho", ortho_text, code, code))
        files.append((f"sasaki_{i:02d}.groupoid", groupoid_text, code, code))
    if len(pairs) != oracle.ORTHO_PAIRS or {
        n: k for n, k in oml_sizes.items() if k
    } != oracle.OML_PAIRS:
        errors.append(
            f"{len(pairs)} ortho pairs with OML sizes {dict(oml_sizes)}, expected "
            f"{oracle.ORTHO_PAIRS} with {oracle.OML_PAIRS}"
        )
    files += [(name, data, 2, None) for name, data in MALFORMED.items()]

    corpus = work / "corpus"
    shutil.rmtree(corpus, ignore_errors=True)
    corpus.mkdir(parents=True)
    ops = []
    for name, data, check_code, roundtrip_code in files:
        path = corpus / name
        if isinstance(data, bytes):
            path.write_bytes(data)
        else:
            path.write_text(shuffle_elements(data, rng), encoding="utf-8")
        ops.append(_cli_op(cli, ["check", str(path)], check_code))
        if roundtrip_code is not None:
            ops.append(_cli_op(cli, ["roundtrip", str(path)], roundtrip_code))
    # at the seed EnumerationConfig's ValueError escapes cli.main
    ops.append(
        _cli_op(cli, ["enumerate", "--max-size", "0", "--out", str(work / "enum0")], 2)
    )
    return ops, errors


def _cli_op(cli, argv, expected) -> Op:
    label = " ".join(a.rsplit("/", 1)[-1] for a in argv)
    return Op(label, lambda: _call_cli(cli, argv), _expect(expected))


# --- sasaki-dozen ------------------------------------------------------------


def _mo(k):
    atoms = [f"a{i}" for i in range(2 * k)]
    return ["0", *atoms, "1"], [("0", a) for a in atoms] + [(a, "1") for a in atoms]


def _product(p, q):
    (pn, pc), (qn, qc) = p, q
    names = [f"{x}.{y}" for x in pn for y in qn]
    covers = [(f"{a}.{y}", f"{b}.{y}") for a, b in pc for y in qn]
    covers += [(f"{x}.{a}", f"{x}.{b}") for x in pn for a, b in qc]
    return names, covers


_TWO = (["0", "1"], [("0", "1")])
_O6 = (
    ["0", "x", "y", "v", "u", "1"],
    [("0", "x"), ("x", "y"), ("y", "1"), ("0", "v"), ("v", "u"), ("u", "1")],
)

# (name, (elements, covers), orthomodular, orthocomplementations).  MOk has
# (2k-1)!! of them, one per pairing of its 2k atoms; a product has the
# products of its factors' (2 and 2^3 one each, MO2 three, O6 one).
SASAKI_LATTICES = (
    ("MO4", _mo(4), True, 105),
    ("MO5", _mo(5), True, 945),
    ("2xMO2", _product(_TWO, _mo(2)), True, 3),
    ("2^3", _product(_TWO, _product(_TWO, _TWO)), True, 1),
    ("2xO6", _product(_TWO, _O6), False, 1),
)


def _build_sasaki(seed):
    api = importlib.import_module("omlat")
    rng = random.Random(seed)
    built = []
    for name, (names, covers), orthomodular, count in SASAKI_LATTICES:
        lattice = api.lattice_from_covers(
            rng.sample(names, len(names)), rng.sample(covers, len(covers))
        )
        groupoids = []
        for table in api.enumerate_orthocomplements(lattice):
            c = api.OrthoCandidate(lattice, table)
            groupoids.append((c, api.sasaki_groupoid(c, override=not orthomodular)))
        built.append((name, lattice, orthomodular, count, groupoids))
    return api, built


def _prepare_sasaki(raw, seed, work):
    api, built = raw
    rng = random.Random(seed)
    errors, ops = [], []
    for name, lattice, orthomodular, count, groupoids in built:
        if len(groupoids) != count:
            errors.append(f"{name}: {len(groupoids)} orthocomplementations, expected {count}")
        ops.append(_search_op(api, name, lattice, count))
        for i, (c, g) in enumerate(groupoids):
            mutant = _mutant(api, g, rng)
            ops.append(_pair_op(api, f"{name} pair {i}", c, orthomodular, mutant))
    return ops, errors


def _search_op(api, name, lattice, count) -> Op:
    def check(tables):
        if len(set(tables)) != len(tables) or len(tables) != count:
            return f"{len(tables)} tables, {len(set(tables))} distinct, expected {count}"
        return None

    return Op(f"{name} search", lambda: api.enumerate_orthocomplements(lattice), check)


def _pair_op(api, label, c, orthomodular, mutant) -> Op:
    def run():
        seen = [
            api.verify_ortholattice(c).overall,
            api.check_orthomodularity(c).overall,
        ]
        g = api.sasaki_groupoid(c, override=not orthomodular)
        seen.append(api.verify_lrg(g).overall)
        if orthomodular:
            seen.append(api.induced_oml(g).comp == c.comp)
            seen.append(api.round_trip_check(c).overall)
            seen.append(api.round_trip_check(g).overall)
        seen.append(api.verify_lrg(mutant).passed("left-adjointness"))
        return seen

    # A non-orthomodular ortholattice's Sasaki groupoid is never residuated.
    expected = [True] * 6 if orthomodular else [True, False, False]
    return Op(label, run, _expect(expected + [False]))


def _mutant(api, g, rng):
    """The groupoid with one odot cell changed.

    Given imp, left adjointness fixes odot, so the mutant fails it whichever
    cell and value the seed picks; the one non-orthomodular groupoid already
    fails it in 32 cells, more than one change can repair.
    """
    n = g.lattice.n
    x, y = rng.randrange(n), rng.randrange(n)
    value = rng.choice([v for v in range(n) if v != g.odot[x][y]])
    odot = [list(row) for row in g.odot]
    odot[x][y] = value
    return api.LrGroupoid(g.lattice, tuple(map(tuple, odot)), g.imp)


WORKLOADS = {
    "enumerate-8": Workload(
        "canonical_certificate dominates enumeration up to size 8 while law "
        "suites, parsing and the Sasaki constructions stay idle.",
        _build_enumerate,
        _prepare_enumerate,
    ),
    "cli-corpus-8": Workload(
        "Per-call CLI overhead, parsing and lattice construction over the "
        "size-8 corpus, mixing passing scans, failing witnesses and bad input, "
        "with no canonicalization or enumeration.",
        _build_cli_corpus,
        _prepare_cli_corpus,
    ),
    "sasaki-dozen": Workload(
        "The law suites and both Sasaki constructions at the top carrier size "
        "of 12, passing and failing, with no CLI, parsing or certificates.",
        _build_sasaki,
        _prepare_sasaki,
    ),
}
