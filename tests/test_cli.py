"""Command-line interface behavior: exit codes, stdout/stderr split, files."""

from __future__ import annotations

import io
import os
import re
import shutil
import subprocess
import sys
import time
from importlib.metadata import EntryPoint
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import omlat
from conftest import DATA_DIR, make_o6
from omlat import OmlatError, parse_structure, sasaki_groupoid, serialize_structure
from omlat.cli import main
from omlat.residuated import LrGroupoid

MO2 = str(DATA_DIR / "mo2.ortho")
O6 = str(DATA_DIR / "o6.ortho")
GROUPOID = str(DATA_DIR / "mo2_sasaki.groupoid")
BOWTIE = str(DATA_DIR / "bowtie.lattice")
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
O6_WITNESS_ARGS = ["witness", O6, "--axiom", "orthomodularity"]


@pytest.fixture
def lattice_file(tmp_path):
    path = tmp_path / "diamond.lattice"
    path.write_text("kind: lattice\nelements: 0 p q 1\ncovers: 0<p 0<q p<1 q<1\n")
    return str(path)


@pytest.fixture
def bad_groupoid_file(tmp_path):
    text = serialize_structure(sasaki_groupoid(make_o6(), override=True))
    path = tmp_path / "o6_sasaki.groupoid"
    path.write_text(text)
    return str(path)


class TestCheck:
    def test_mo2_passes(self, capsys):
        assert main(["check", MO2]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[-1] == "OVERALL\tPASS"
        assert "PASS\tcomplement-join\t-" in lines
        assert "PASS\torthomodularity\t-" in lines
        assert not any(ln.startswith("FAIL") for ln in lines)

    def test_o6_fails_orthomodularity(self, capsys):
        assert main(["check", O6]) == 1
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert "FAIL\torthomodularity\tx=x,y=y" in lines
        assert "FAIL\torthomodularity-dual\tx=x,y=y" in lines
        assert lines[-1] == "OVERALL\tFAIL"

    def test_o6_core_profile_skips_orthomodularity(self, capsys):
        assert main(["check", O6, "--profile", "core"]) == 0
        out = capsys.readouterr().out
        assert "orthomodularity" not in out
        assert out.splitlines()[-1] == "OVERALL\tPASS"

    def test_groupoid_full_profile(self, capsys):
        assert main(["check", GROUPOID]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "PASS\tleft-adjointness\t-" in lines
        assert "PASS\tdivisibility\t-" in lines

    def test_groupoid_core_profile(self, capsys):
        assert main(["check", GROUPOID, "--profile", "core"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:-1] == [
            "PASS\tunit-left\t-",
            "PASS\tunit-right\t-",
            "PASS\tleft-adjointness\t-",
        ]

    def test_lattice_file(self, capsys, lattice_file):
        assert main(["check", lattice_file]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "OVERALL\tPASS"

    def test_prose_on_stderr(self, capsys):
        main(["check", MO2])
        err = capsys.readouterr().err
        assert "overall: PASS" in err
        assert "PASS  complement-join" in err

    def test_report_file(self, capsys, tmp_path):
        report = tmp_path / "report.txt"
        assert main(["check", O6, "--report", str(report)]) == 1
        text = report.read_text()
        assert text.splitlines()[0] == f"{O6} (thm1)"
        assert "FAIL  orthomodularity  witness: x=x, y=y" in text
        assert text.rstrip().endswith("overall: FAIL")
        assert "overall" not in capsys.readouterr().err

    def test_trivial_lattice_warns(self, capsys, tmp_path):
        path = tmp_path / "point.lattice"
        path.write_text("kind: lattice\nelements: z\ncovers:\n")
        assert main(["check", str(path)]) == 0
        assert "bottom equals top" in capsys.readouterr().err


class TestBuild:
    def test_a_of_l_matches_golden_groupoid(self, capsys):
        assert main(["build", "a-of-l", MO2]) == 0
        out = capsys.readouterr().out
        assert out == (DATA_DIR / "mo2_sasaki.groupoid").read_text()

    def test_a_of_l_rejects_non_oml(self, capsys):
        assert main(["build", "a-of-l", O6]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err
        assert "orthomodularity" in captured.err

    def test_a_of_l_override(self, capsys):
        assert main(["build", "a-of-l", O6, "--override"]) == 0
        out = capsys.readouterr().out
        g = parse_structure(out)
        assert isinstance(g, LrGroupoid)

    def test_l_of_a_matches_golden_ortho(self, capsys):
        assert main(["build", "l-of-a", GROUPOID]) == 0
        out = capsys.readouterr().out
        assert out == (DATA_DIR / "mo2.ortho").read_text()

    def test_l_of_a_thm3_profile(self, capsys):
        assert main(["build", "l-of-a", GROUPOID, "--profile", "thm3"]) == 0
        assert capsys.readouterr().out == (DATA_DIR / "mo2.ortho").read_text()

    def test_l_of_a_rejects_bad_hypotheses(self, capsys, bad_groupoid_file):
        assert main(["build", "l-of-a", bad_groupoid_file]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "left-adjointness" in err

    def test_a_of_l_wrong_kind(self, capsys, lattice_file):
        assert main(["build", "a-of-l", lattice_file]) == 2
        assert "requires an ortho file" in capsys.readouterr().err

    def test_l_of_a_wrong_kind(self, capsys):
        assert main(["build", "l-of-a", MO2]) == 2
        assert "requires a groupoid file" in capsys.readouterr().err


class TestRoundtrip:
    def test_ortho_file(self, capsys):
        assert main(["roundtrip", MO2]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "PASS\troundtrip-order\t-" in lines
        assert "PASS\troundtrip-complement\t-" in lines
        assert lines[-1] == "OVERALL\tPASS"

    def test_groupoid_file(self, capsys):
        assert main(["roundtrip", GROUPOID]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "PASS\troundtrip-odot\t-" in lines
        assert "PASS\troundtrip-imp\t-" in lines

    def test_lattice_file_rejected(self, capsys, lattice_file):
        assert main(["roundtrip", lattice_file]) == 2
        assert "requires an ortho or groupoid" in capsys.readouterr().err

    def test_non_oml_input(self, capsys):
        assert main(["roundtrip", O6]) == 1
        assert "error:" in capsys.readouterr().err


class TestEnumerate:
    def test_lattices_up_to_four(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        assert main(["enumerate", "--max-size", "4", "--out", str(out_dir)]) == 0
        captured = capsys.readouterr()
        paths = captured.out.splitlines()
        names = sorted(p.rsplit("/", 1)[-1] for p in paths)
        assert names == [
            "lattice_n1_000.lattice",
            "lattice_n2_000.lattice",
            "lattice_n3_000.lattice",
            "lattice_n4_000.lattice",
            "lattice_n4_001.lattice",
        ]
        assert "wrote 5 structure files" in captured.err
        for p in paths:
            structure = parse_structure(open(p).read())
            assert structure.n <= 4

    def test_omls_up_to_four(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        assert (
            main(["enumerate", "--max-size", "4", "--omod", "--out", str(out_dir)])
            == 0
        )
        captured = capsys.readouterr()
        names = sorted(p.rsplit("/", 1)[-1] for p in captured.out.splitlines())
        assert names == ["oml_n1_000.ortho", "oml_n2_000.ortho", "oml_n4_000.ortho"]

    def test_enumerated_files_pass_check(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        main(["enumerate", "--max-size", "6", "--omod", "--out", str(out_dir)])
        paths = capsys.readouterr().out.splitlines()
        assert len(paths) == 6
        for p in paths:
            assert main(["check", p]) == 0
            capsys.readouterr()

    def test_size_cap(self, capsys, tmp_path):
        code = main(["enumerate", "--max-size", "12", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_refused_size_creates_no_directory(self, capsys, tmp_path):
        out_dir = tmp_path / "d"
        assert main(["enumerate", "--max-size", "10", "--out", str(out_dir)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_max_size_zero_rejected(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--max-size", "0", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


class TestWitness:
    def test_o6_orthomodularity(self, capsys):
        assert main(["witness", O6, "--axiom", "orthomodularity"]) == 1
        assert capsys.readouterr().out == "x=x,y=y\n"

    def test_mo2_orthomodularity_none(self, capsys):
        assert main(["witness", MO2, "--axiom", "orthomodularity"]) == 0
        assert capsys.readouterr().out == "NONE\n"

    def test_mo2_distributivity(self, capsys):
        assert main(["witness", MO2, "--axiom", "distributivity"]) == 1
        assert capsys.readouterr().out == "x=a,y=a',z=b\n"

    def test_groupoid_axiom(self, capsys, bad_groupoid_file):
        assert main(["witness", bad_groupoid_file, "--axiom", "left-adjointness"]) == 1
        assert capsys.readouterr().out == "x=x,y=y,z=x\n"

    def test_unknown_axiom(self, capsys):
        assert main(["witness", MO2, "--axiom", "modularity"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_lattice_file_rejected(self, capsys, lattice_file):
        assert main(["witness", lattice_file, "--axiom", "orthomodularity"]) == 2


class TestDot:
    def test_ortho_includes_complements(self, capsys):
        assert main(["dot", MO2]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph lattice {")
        assert '  "0" -> "a";' in out
        assert '  "0" -> "1" [style=dashed, dir=none];' in out

    def test_lattice_plain(self, capsys, lattice_file):
        assert main(["dot", lattice_file]) == 0
        out = capsys.readouterr().out
        assert out.count("->") == 4
        assert "dashed" not in out

    def test_groupoid_uses_order_only(self, capsys):
        assert main(["dot", GROUPOID]) == 0
        out = capsys.readouterr().out
        assert "dashed" not in out
        assert out.count("->") == 8


class TestErrorPaths:
    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent/path.ortho"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_parse_failure(self, capsys, tmp_path):
        path = tmp_path / "broken.ortho"
        path.write_text("kind: ortho\nelements: 0 1\n")
        assert main(["check", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_non_utf8_file(self, capsys, tmp_path):
        path = tmp_path / "binary.lattice"
        path.write_bytes(b"kind: lattice\nelements: 0 \xff 1\ncovers: 0<\xff \xff<1\n")
        assert main(["check", str(path)]) == 2
        assert "not UTF-8" in capsys.readouterr().err

    def test_not_a_lattice(self, capsys):
        assert main(["check", BOWTIE]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "least upper bound" in err


def _chain_file(tmp_path, n: int) -> str:
    names = [f"c{i}" for i in range(n)]
    covers = " ".join(f"{a}<{b}" for a, b in zip(names, names[1:]))
    path = tmp_path / f"chain{n}.lattice"
    path.write_text(f"kind: lattice\nelements: {' '.join(names)}\ncovers: {covers}\n")
    return str(path)


class TestCarrierCap:
    """Files with more than MAX_CARRIER_SIZE = 256 elements exit 2."""

    @pytest.mark.parametrize(
        "command",
        [
            ["check"],
            ["build", "a-of-l"],
            ["build", "l-of-a"],
            ["roundtrip"],
            ["witness", "--axiom", "orthomodularity"],
            ["dot"],
        ],
        ids="_".join,
    )
    def test_every_subcommand_refuses_257_elements(self, capsys, tmp_path, command):
        assert main([*command, _chain_file(tmp_path, 257)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: carrier has 257 elements, the limit is 256\n"

    def test_256_elements_pass(self, capsys, tmp_path):
        assert main(["check", _chain_file(tmp_path, 256)]) == 0
        assert capsys.readouterr().out.endswith("OVERALL\tPASS\n")

    def test_a_20000_element_chain_is_refused_before_the_closure(self, capsys, tmp_path):
        path = _chain_file(tmp_path, 20_000)
        start = time.perf_counter()
        assert main(["check", path]) == 2
        # the cover closure alone would take hours at this size
        assert time.perf_counter() - start < 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: carrier has 20000 elements")


DATA_TEXTS = [p.read_text(encoding="utf-8") for p in sorted(DATA_DIR.iterdir())]
FUZZ_AXIOMS = ("orthomodularity", "distributivity", "left-adjointness", "bogus")


@st.composite
def edited_data_files(draw) -> str:
    """A data file with one drawn edit: a truncated line, a deleted line, or
    two tokens swapped in place."""
    lines = draw(st.sampled_from(DATA_TEXTS)).splitlines()
    edit = draw(st.sampled_from(["truncate", "delete", "swap"]))
    i = draw(st.integers(0, len(lines) - 1))
    if edit == "truncate":
        lines[i] = lines[i][: draw(st.integers(0, len(lines[i])))]
    elif edit == "delete":
        del lines[i]
    else:
        # odd positions of each split are the whitespace runs, kept as they are
        parts = [re.split(r"(\s+)", line) for line in lines]
        tokens = [(r, k) for r, p in enumerate(parts) for k in range(0, len(p), 2) if p[k]]
        (r1, k1), (r2, k2) = draw(st.lists(st.sampled_from(tokens), min_size=2, max_size=2))
        parts[r1][k1], parts[r2][k2] = parts[r2][k2], parts[r1][k1]
        lines = ["".join(p) for p in parts]
    return "\n".join(lines) + "\n"


@given(text=edited_data_files(), axiom=st.sampled_from(FUZZ_AXIOMS))
@settings(max_examples=200, deadline=None)
def test_exit_codes_on_edited_data_files(tmp_path_factory, text, axiom):
    """Every subcommand returns 0, 1 or 2 and raises nothing; 2 on unparsable text."""
    try:
        parse_structure(text)
        rejected = False
    except OmlatError:
        rejected = True
    path = tmp_path_factory.mktemp("fuzz") / "edited"
    path.write_text(text, encoding="utf-8")
    f = str(path)
    commands = [["check", f, "--profile", p] for p in ("core", "thm1", "thm2", "thm3")]
    commands += [
        ["roundtrip", f],
        ["witness", f, "--axiom", axiom],
        ["dot", f],
        ["build", "a-of-l", f],
        ["build", "l-of-a", f],
    ]
    for argv in commands:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 1, 2), argv
        if rejected:
            assert code == 2, argv


FUZZ_SUBCOMMANDS = ("check", "roundtrip", "witness", "dot", "a-of-l", "l-of-a", "enumerate")


@pytest.mark.parametrize("subcommand", FUZZ_SUBCOMMANDS)
@given(data=st.data())
@settings(max_examples=3, deadline=None)
def test_subprocess_exit_codes_on_edited_data_files(tmp_path_factory, subcommand, data):
    """`python -m omlat` exits 0, 1 or 2 and prints no traceback; 2 on
    unparsable text.  `enumerate` reads no file, so its size is a token of
    the edited text."""
    text = data.draw(edited_data_files())
    work = tmp_path_factory.mktemp("fuzz")
    path = work / "edited"
    path.write_text(text, encoding="utf-8")
    f = str(path)
    if subcommand == "enumerate":
        size = data.draw(st.sampled_from(text.split() or [""]))
        argv = ["enumerate", "--max-size", size, "--out", str(work / "out")]
        argv += data.draw(st.sampled_from([[], ["--omod"]]))
    elif subcommand == "check":
        profile = data.draw(st.sampled_from(["core", "thm1", "thm2", "thm3"]))
        argv = ["check", f, "--profile", profile]
    elif subcommand == "witness":
        argv = ["witness", f, "--axiom", data.draw(st.sampled_from(FUZZ_AXIOMS))]
    elif subcommand in ("a-of-l", "l-of-a"):
        argv = ["build", subcommand, f]
    else:
        argv = [subcommand, f]
    proc = subprocess.run(
        [sys.executable, "-m", "omlat", *argv],
        capture_output=True,
        text=True,
        env=_imported_omlat_env(),
        timeout=60,
    )
    assert proc.returncode in (0, 1, 2), argv
    assert "Traceback" not in proc.stderr, argv
    if subcommand == "enumerate":
        if not size.isdecimal():
            assert proc.returncode == 2, argv
    else:
        try:
            parse_structure(text)
        except OmlatError:
            assert proc.returncode == 2, argv


def _imported_omlat_env() -> dict[str, str]:
    """Environment whose PYTHONPATH puts the omlat this suite imported first,
    so a subprocess runs the same package and never a stale installed one."""
    source_root = str(Path(omlat.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (source_root, env.get("PYTHONPATH")) if p
    )
    return env


class TestInstalledEntryPoints:
    def test_python_m_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "omlat", "check", MO2],
            capture_output=True,
            text=True,
            env=_imported_omlat_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[-1] == "OVERALL\tPASS"

    def test_console_script(self, tmp_path):
        """The declared `omlat` entry point, run through the wrapper script an
        installer generates for it, needs no install."""
        tomllib = pytest.importorskip("tomllib")
        with PYPROJECT.open("rb") as f:
            target = tomllib.load(f)["project"]["scripts"]["omlat"]
        entry = EntryPoint(name="omlat", value=target, group="console_scripts")
        assert callable(entry.load())
        exe = tmp_path / "omlat"
        exe.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {entry.module} import {entry.attr}\n"
            f"sys.exit({entry.attr}())\n"
        )
        exe.chmod(0o755)
        proc = subprocess.run(
            [str(exe), *O6_WITNESS_ARGS],
            capture_output=True,
            text=True,
            env=_imported_omlat_env(),
        )
        assert proc.returncode == 1
        assert proc.stdout == "x=x,y=y\n"

    @pytest.mark.skipif(
        shutil.which("omlat") is None,
        reason="no installed omlat console script on PATH",
    )
    def test_installed_console_script(self):
        proc = subprocess.run(
            [shutil.which("omlat"), *O6_WITNESS_ARGS],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert proc.stdout == "x=x,y=y\n"
