"""Command-line interface.

Machine-readable output (axiom lines, emitted structure files, DOT text,
witness tuples) goes to standard output; human-readable prose goes to
standard error unless --report writes it to a file.  Exit codes: 0 all
requested checks pass, 1 an axiom fails, 2 bad input.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .correspondence import induced_oml, round_trip_check, sasaki_groupoid
from .errors import (
    HypothesisViolatedError,
    NotOrthomodularError,
    OmlatError,
    ParseError,
)
from .formats import export_dot, parse_structure, serialize_structure
from .order import BoundedLattice, verify_lattice
from .ortho import OrthoCandidate, verify_oml, verify_ortholattice
from .reports import VerificationReport, format_witness
from .residuated import (
    ALL_AXIOMS,
    CORE_AXIOMS,
    RECOVERY_AXIOMS,
    ROUND_TRIP_AXIOMS,
    LrGroupoid,
    verify_lrg,
)
from .search import EnumerationConfig, enumerate_omls, enumerate_bounded_lattices, find_counterexample

_GROUPOID_PROFILES = {
    "core": CORE_AXIOMS,
    "thm1": ALL_AXIOMS,
    "thm2": RECOVERY_AXIOMS,
    "thm3": ROUND_TRIP_AXIOMS,
}


def _read_structure(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    structure = parse_structure(text)
    lattice = structure if isinstance(structure, BoundedLattice) else structure.lattice
    if lattice.is_trivial:
        print(
            f"warning: {path}: bottom equals top (one-element lattice)",
            file=sys.stderr,
        )
    return structure


def _emit_report(report: VerificationReport, title: str, report_path: str | None) -> None:
    for r in report.results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}\t{r.axiom}\t{format_witness(r.witness)}")
    print("OVERALL\t" + ("PASS" if report.overall else "FAIL"))
    prose = report.render(title)
    if report_path:
        Path(report_path).write_text(prose + "\n", encoding="utf-8")
    else:
        print(prose, file=sys.stderr)


def _cmd_check(args) -> int:
    structure = _read_structure(args.file)
    if isinstance(structure, BoundedLattice):
        report = verify_lattice(structure)
    elif isinstance(structure, OrthoCandidate):
        if args.profile == "core":
            report = verify_ortholattice(structure)
        else:
            report = verify_oml(structure)
    else:
        report = verify_lrg(structure, _GROUPOID_PROFILES[args.profile])
    _emit_report(report, f"{args.file} ({args.profile})", args.report)
    return 0 if report.overall else 1


def _cmd_build(args) -> int:
    structure = _read_structure(args.file)
    if args.direction == "a-of-l":
        if not isinstance(structure, OrthoCandidate):
            print("build a-of-l requires an ortho file", file=sys.stderr)
            return 2
        result = sasaki_groupoid(structure, override=args.override)
    else:
        if not isinstance(structure, LrGroupoid):
            print("build l-of-a requires a groupoid file", file=sys.stderr)
            return 2
        result = induced_oml(structure, _GROUPOID_PROFILES[args.profile])
    sys.stdout.write(serialize_structure(result))
    return 0


def _cmd_roundtrip(args) -> int:
    structure = _read_structure(args.file)
    if isinstance(structure, BoundedLattice):
        print("roundtrip requires an ortho or groupoid file", file=sys.stderr)
        return 2
    report = round_trip_check(structure)
    _emit_report(report, f"{args.file} (round trip)", args.report)
    return 0 if report.overall else 1


def _cmd_enumerate(args) -> int:
    cfg = EnumerationConfig(args.max_size)
    if args.omod:
        structures, prefix, ext = enumerate_omls(cfg), "oml", "ortho"
    else:
        structures, prefix, ext = enumerate_bounded_lattices(cfg), "lattice", "lattice"
    # after enumeration, so that a refused size leaves no directory behind
    os.makedirs(args.out, exist_ok=True)
    written: list[str] = []
    counters: dict[int, int] = {}
    for structure in structures:
        n = getattr(structure, "lattice", structure).n
        k = counters.get(n, 0)
        counters[n] = k + 1
        path = os.path.join(args.out, f"{prefix}_n{n}_{k:03d}.{ext}")
        Path(path).write_text(serialize_structure(structure), encoding="utf-8")
        written.append(path)
    for path in written:
        print(path)
    print(f"wrote {len(written)} structure files to {args.out}", file=sys.stderr)
    return 0


def _cmd_witness(args) -> int:
    structure = _read_structure(args.file)
    if isinstance(structure, BoundedLattice):
        print("witness requires an ortho or groupoid file", file=sys.stderr)
        return 2
    witness = find_counterexample(structure, args.axiom)
    if witness is None:
        print("NONE")
        return 0
    print(format_witness(witness))
    return 1


def _cmd_dot(args) -> int:
    structure = _read_structure(args.file)
    if isinstance(structure, OrthoCandidate):
        sys.stdout.write(export_dot(structure.lattice, structure.comp))
    elif isinstance(structure, LrGroupoid):
        sys.stdout.write(export_dot(structure.lattice))
    else:
        sys.stdout.write(export_dot(structure))
    return 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omlat",
        description=(
            "Verify, build, and enumerate finite orthomodular lattices and "
            "left residuated l-groupoids."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "check",
        help="run the axiom suite for a structure file",
        description=(
            "Lattice files get the lattice-law suite.  Ortho files get the "
            "ortholattice suite, plus orthomodularity unless --profile core.  "
            "Groupoid files get the profile's axiom set: core (unit laws and "
            "left adjointness), thm2 (core plus antitony, double negation, "
            "the product identity, join absorption), thm3 (thm2 plus the hook "
            "identity), thm1 (everything, divisibility included)."
        ),
    )
    p.add_argument("file")
    p.add_argument(
        "--profile",
        choices=sorted(_GROUPOID_PROFILES),
        default="thm1",
        help="axiom subset to check (default: thm1, the full suite)",
    )
    p.add_argument("--report", metavar="FILE", help="write the prose report here")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("build", help="construct one structure from the other")
    bsub = p.add_subparsers(dest="direction", required=True)
    b = bsub.add_parser(
        "a-of-l", help="Sasaki groupoid of an orthomodular lattice (ortho file in)"
    )
    b.add_argument("file")
    b.add_argument(
        "--override",
        action="store_true",
        help="build the tables even when the input fails the OML checks",
    )
    b.set_defaults(func=_cmd_build)
    b = bsub.add_parser(
        "l-of-a", help="induced orthomodular lattice of a groupoid (groupoid file in)"
    )
    b.add_argument("file")
    b.add_argument(
        "--profile",
        choices=["thm2", "thm3"],
        default="thm2",
        help="hypothesis profile the groupoid must pass (default: thm2)",
    )
    b.set_defaults(func=_cmd_build)

    p = sub.add_parser(
        "roundtrip", help="rebuild the structure through the correspondence and compare"
    )
    p.add_argument("file")
    p.add_argument("--report", metavar="FILE", help="write the prose report here")
    p.set_defaults(func=_cmd_roundtrip)

    p = sub.add_parser(
        "enumerate", help="write one structure file per isomorphism class"
    )
    p.add_argument("--max-size", type=_positive_int, required=True, metavar="N")
    p.add_argument(
        "--omod",
        action="store_true",
        help="emit every (lattice, orthomodular complementation) pair as an ortho file",
    )
    p.add_argument("--out", required=True, metavar="DIR", help="output directory")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("witness", help="print the first witness violating an axiom")
    p.add_argument("file")
    p.add_argument("--axiom", required=True, metavar="ID")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("dot", help="emit the Hasse diagram as DOT text")
    p.add_argument("file")
    p.set_defaults(func=_cmd_dot)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (NotOrthomodularError, HypothesisViolatedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OmlatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
