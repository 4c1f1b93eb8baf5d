"""Structure file parsing, normalized serialization, and DOT export."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DATA_DIR, make_boolean
from omlat import (
    BoundedLattice,
    EnumerationConfig,
    LrGroupoid,
    NotALatticeError,
    OmlatError,
    OrthoCandidate,
    ParseError,
    TableNotTotalError,
    UnknownElementError,
    check_orthomodularity,
    enumerate_bounded_lattices,
    export_dot,
    lattice_from_covers,
    parse_structure,
    sasaki_groupoid,
    serialize_structure,
    transitive_reduction,
    verify_lattice,
    verify_lrg,
    verify_ortholattice,
)

MO2_TEXT = (DATA_DIR / "mo2.ortho").read_text()

NORMALIZED_FILES = [
    "mo2.ortho",
    "o6.ortho",
    "bool2.ortho",
    "bool4.ortho",
    "bool8.ortho",
    "mo2_sasaki.groupoid",
]


class TestParseStructure:
    def test_mo2_parses_to_verified_candidate(self):
        c = parse_structure(MO2_TEXT)
        assert isinstance(c, OrthoCandidate)
        assert c.lattice.names == ("0", "a", "a'", "b", "b'", "1")
        assert c.comp == (5, 2, 1, 4, 3, 0)
        assert verify_ortholattice(c).overall
        assert check_orthomodularity(c).overall

    def test_lattice_kind(self):
        text = "kind: lattice\nelements: 0 1\ncovers: 0<1\n"
        l = parse_structure(text)
        assert isinstance(l, BoundedLattice)
        assert verify_lattice(l).overall

    def test_groupoid_kind(self, data_dir):
        g = parse_structure((data_dir / "mo2_sasaki.groupoid").read_text())
        assert isinstance(g, LrGroupoid)
        assert verify_lrg(g).overall

    def test_comments_and_blank_lines_ignored(self):
        text = (
            "# a two element chain\n\n"
            "kind: lattice  # trailing comment\n"
            "elements: 0 1\n"
            "   \n"
            "covers: 0<1 # top edge\n"
        )
        l = parse_structure(text)
        assert l.names == ("0", "1")

    def test_single_element_lattice_empty_covers(self):
        l = parse_structure("kind: lattice\nelements: z\ncovers:\n")
        assert l.n == 1 and l.is_trivial

    def test_bowtie_fixture_is_rejected(self, data_dir):
        with pytest.raises(NotALatticeError) as exc:
            parse_structure((data_dir / "bowtie.lattice").read_text())
        assert exc.value.pair == ("a", "b")
        assert exc.value.kind == "join"


class TestParseErrors:
    def test_missing_kind(self):
        with pytest.raises(ParseError, match="missing 'kind'"):
            parse_structure("elements: 0 1\ncovers: 0<1\n")

    def test_bad_kind(self):
        with pytest.raises(ParseError, match="kind must be one of"):
            parse_structure("kind: heyting\nelements: 0 1\ncovers: 0<1\n")

    def test_missing_elements(self):
        with pytest.raises(ParseError, match="missing 'elements'"):
            parse_structure("kind: lattice\ncovers: 0<1\n")

    def test_empty_elements(self):
        with pytest.raises(ParseError, match="elements line is empty"):
            parse_structure("kind: lattice\nelements:\ncovers: 0<1\n")

    def test_missing_covers(self):
        with pytest.raises(ParseError, match="missing 'covers'"):
            parse_structure("kind: lattice\nelements: 0 1\n")

    def test_unknown_section_key(self):
        with pytest.raises(ParseError, match="expected one of"):
            parse_structure("kind: lattice\nsize: 2\n")

    def test_line_without_colon(self):
        with pytest.raises(ParseError) as exc:
            parse_structure("kind: lattice\nelements 0 1\n")
        assert exc.value.line == 2

    def test_duplicate_section(self):
        text = "kind: lattice\nelements: 0 1\nelements: 0 1\ncovers: 0<1\n"
        with pytest.raises(ParseError, match="duplicate section"):
            parse_structure(text)

    @pytest.mark.parametrize("tok", ["0-1", "0<1<2", "<1", "0<"])
    def test_bad_cover_token(self, tok):
        with pytest.raises(ParseError, match="bad cover"):
            parse_structure(f"kind: lattice\nelements: 0 1 2\ncovers: {tok}\n")

    def test_reserved_element_name(self):
        with pytest.raises(ParseError, match="reserved word"):
            parse_structure("kind: lattice\nelements: 0 covers\ncovers: 0<covers\n")

    @pytest.mark.parametrize("name", ["a=b", "a:b"])
    def test_forbidden_name_characters(self, name):
        with pytest.raises(ParseError, match="forbidden character"):
            parse_structure(f"kind: lattice\nelements: 0 {name}\ncovers:\n")

    def test_section_not_allowed_for_kind(self):
        with pytest.raises(ParseError, match="not allowed in a lattice file"):
            parse_structure("kind: lattice\nelements: 0 1\ncovers: 0<1\ncomp: 0=1 1=0\n")
        with pytest.raises(ParseError, match="not allowed in an? ortho file"):
            parse_structure(
                "kind: ortho\nelements: 0 1\ncovers: 0<1\ncomp: 0=1 1=0\n"
                "odot:\n  0: 0 0\n  1: 0 1\n"
            )

    def test_parse_error_records_line(self):
        with pytest.raises(ParseError) as exc:
            parse_structure("kind: lattice\n\nelements: 0 kind\ncovers:\n")
        assert exc.value.line == 3
        assert "line 3" in str(exc.value)


class TestCompParsing:
    BASE = "kind: ortho\nelements: 0 1\ncovers: 0<1\n"

    def test_missing_comp_section(self):
        with pytest.raises(ParseError, match="requires a 'comp'"):
            parse_structure(self.BASE)

    def test_bad_entry_token(self):
        with pytest.raises(ParseError, match="bad comp entry"):
            parse_structure(self.BASE + "comp: 0=1 1\n")

    def test_element_assigned_twice(self):
        with pytest.raises(ParseError, match="assigned twice"):
            parse_structure(self.BASE + "comp: 0=1 0=0 1=0\n")

    def test_partial_map(self):
        with pytest.raises(TableNotTotalError, match="missing element '1'"):
            parse_structure(self.BASE + "comp: 0=1\n")

    def test_unknown_target(self):
        with pytest.raises(UnknownElementError, match="unknown element 'x'"):
            parse_structure(self.BASE + "comp: 0=x 1=0\n")

    def test_unknown_source(self):
        with pytest.raises(UnknownElementError, match="unknown element 'x'"):
            parse_structure(self.BASE + "comp: 0=1 1=0 x=0\n")


class TestGroupoidParsing:
    BASE = "kind: groupoid\nelements: 0 1\ncovers: 0<1\n"
    ODOT = "odot:\n  0: 0 0\n  1: 0 1\n"
    IMP = "imp:\n  0: 1 1\n  1: 0 1\n"

    def test_two_chain_groupoid(self):
        g = parse_structure(self.BASE + self.ODOT + self.IMP)
        assert g.odot == ((0, 0), (0, 1))
        assert g.imp == ((1, 1), (0, 1))
        assert verify_lrg(g).overall

    def test_missing_table(self):
        with pytest.raises(TableNotTotalError, match="requires an 'imp' table"):
            parse_structure(self.BASE + self.ODOT)

    def test_missing_row(self):
        with pytest.raises(TableNotTotalError, match="missing the row for '1'"):
            parse_structure(self.BASE + "odot:\n  0: 0 0\n" + self.IMP)

    def test_short_row(self):
        with pytest.raises(TableNotTotalError, match="has 1 entries, expected 2"):
            parse_structure(self.BASE + "odot:\n  0: 0 0\n  1: 0\n" + self.IMP)

    def test_unknown_row_name(self):
        with pytest.raises(UnknownElementError, match="unknown element 'q'"):
            parse_structure(self.BASE + "odot:\n  0: 0 0\n  1: 0 1\n  q: 0 0\n" + self.IMP)

    def test_unknown_entry(self):
        with pytest.raises(UnknownElementError, match="in odot row for '1'"):
            parse_structure(self.BASE + "odot:\n  0: 0 0\n  1: 0 q\n" + self.IMP)

    def test_duplicate_row(self):
        with pytest.raises(ParseError, match="duplicate table row"):
            parse_structure(self.BASE + "odot:\n  0: 0 0\n  0: 0 0\n  1: 0 1\n" + self.IMP)

    def test_inline_value_on_table_header(self):
        with pytest.raises(ParseError, match="takes no inline value"):
            parse_structure(self.BASE + "odot: 0 0\n" + self.IMP)

    def test_row_without_colon(self):
        with pytest.raises(ParseError, match="table row"):
            parse_structure(self.BASE + "odot:\n  0 0 0\n" + self.IMP)


class TestSerializeStructure:
    @pytest.mark.parametrize("fname", NORMALIZED_FILES)
    def test_parse_serialize_identity_on_data_files(self, data_dir, fname):
        text = (data_dir / fname).read_text()
        assert serialize_structure(parse_structure(text)) == text

    def test_serialize_parse_reproduces_structure(self, mo2):
        again = parse_structure(serialize_structure(mo2))
        assert again.lattice.names == mo2.lattice.names
        assert again.lattice.leq == mo2.lattice.leq
        assert again.comp == mo2.comp
        g = sasaki_groupoid(mo2)
        g2 = parse_structure(serialize_structure(g))
        assert (g2.odot, g2.imp) == (g.odot, g.imp)

    def test_serialize_parse_roundtrip_on_enumerated_corpus(self):
        for l in enumerate_bounded_lattices(EnumerationConfig(6)):
            again = parse_structure(serialize_structure(l))
            assert again.leq == l.leq
            assert again.join == l.join

    def test_unnamed_kind_rejected(self):
        with pytest.raises(TypeError):
            serialize_structure({"not": "a structure"})

    def test_unserializable_name_rejected(self):
        l = lattice_from_covers(["bot", "has space"], [("bot", "has space")])
        with pytest.raises(ValueError, match="cannot be serialized"):
            serialize_structure(l)

    def test_normalized_layout(self, mo2):
        lines = serialize_structure(mo2).splitlines()
        assert lines[0] == "kind: ortho"
        assert lines[1] == "elements: 0 a a' b b' 1"
        assert lines[2] == "covers: 0<a 0<a' 0<b 0<b' a<1 a'<1 b<1 b'<1"
        assert lines[3] == "comp: 0=1 a=a' a'=a b=b' b'=b 1=0"


class TestExportDot:
    def test_mo2_shape(self, mo2):
        dot = export_dot(mo2.lattice, mo2.comp)
        lines = dot.splitlines()
        assert lines[0] == "digraph lattice {"
        assert lines[1] == "  rankdir=BT;"
        assert lines[-1] == "}"
        nodes = [ln for ln in lines if ln.endswith('";') and "->" not in ln]
        assert len(nodes) == 6
        solid = [ln for ln in lines if "->" in ln and "dashed" not in ln]
        dashed = [ln for ln in lines if "dashed" in ln]
        assert len(solid) == 8
        assert len(dashed) == 3
        assert '  "0" -> "1" [style=dashed, dir=none];' in dashed

    def test_two_chain(self):
        l = lattice_from_covers(["0", "1"], [("0", "1")])
        dot = export_dot(l)
        assert '  "0" -> "1";' in dot
        assert "dashed" not in dot

    def test_edge_count_matches_transitive_reduction(self):
        for l in enumerate_bounded_lattices(EnumerationConfig(6)):
            dot = export_dot(l)
            arrows = [ln for ln in dot.splitlines() if "->" in ln]
            assert len(arrows) == len(transitive_reduction(l.poset))

    def test_quoting(self):
        l = lattice_from_covers(['lo"w', "hi"], [('lo"w', "hi")])
        dot = export_dot(l)
        assert '"lo\\"w"' in dot

    def test_boolean_cube_edges(self):
        b3 = make_boolean(3)
        dot = export_dot(b3.lattice, b3.comp)
        solid = [ln for ln in dot.splitlines() if "->" in ln and "dashed" not in ln]
        dashed = [ln for ln in dot.splitlines() if "dashed" in ln]
        assert len(solid) == 12
        assert len(dashed) == 4


# element names for generated files: valid ones, and reserved words or names
# with a forbidden character
CLEAN_NAMES = ("0", "1", "a", "b", "c", "a'", "x1", "\u00e9")
BAD_NAMES = ("kind", "comp", "odot", "p<q", "r=s", "t:u", "v#w")
FLAWS = (None, "name", "kind", "covers", "section", "width", "order", "drop")


@st.composite
def near_valid_files(draw) -> str:
    """A valid structure file, or one with a single drawn flaw."""
    kind = draw(st.sampled_from(["lattice", "ortho", "groupoid"]))
    names = draw(st.lists(st.sampled_from(CLEAN_NAMES), min_size=1, max_size=6, unique=True))
    flaw = draw(st.sampled_from(FLAWS))
    if flaw == "name":
        i = draw(st.integers(0, len(names) - 1))
        names[i] = draw(st.sampled_from(BAD_NAMES + CLEAN_NAMES))
    if flaw == "kind":
        kind = draw(st.sampled_from(["poset", "", "Lattice", "ortho groupoid"]))
    pick = st.sampled_from(names)
    covers = list(zip(names, names[1:]))  # a chain, so always a lattice
    if flaw == "covers":
        covers = draw(st.lists(st.tuples(pick, pick), max_size=8))
    lines = [
        f"kind: {kind}",
        "elements: " + " ".join(names),
        "covers: " + " ".join(f"{lo}<{hi}" for lo, hi in covers),
    ]
    with_comp, with_tables = kind == "ortho", kind == "groupoid"
    if flaw == "section":
        if draw(st.booleans()):
            with_comp = not with_comp
        else:
            with_tables = not with_tables
    if with_comp:
        lines.append("comp: " + " ".join(f"{x}={draw(pick)}" for x in names))
    if with_tables:
        for key in ("odot", "imp"):
            lines.append(f"{key}:")
            for row in names:
                width = len(names)
                if flaw == "width":
                    width += draw(st.sampled_from([-1, 0, 1]))
                entries = draw(st.lists(pick, min_size=width, max_size=width))
                lines.append(f"  {row}: " + " ".join(entries))
    if flaw == "order":
        lines = draw(st.permutations(lines))
    if flaw == "drop":
        del lines[draw(st.integers(0, len(lines) - 1))]
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "  # note\n"]))


def _parse_rejects_or_round_trips(text: str) -> None:
    try:
        structure = parse_structure(text)
    except OmlatError:
        return
    out = serialize_structure(structure)
    assert parse_structure(out) == structure
    assert serialize_structure(parse_structure(out)) == out


class TestParserFuzz:
    @given(st.text())
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_text(self, text):
        _parse_rejects_or_round_trips(text)

    @given(near_valid_files())
    @settings(max_examples=300, deadline=None)
    def test_near_valid_files(self, text):
        _parse_rejects_or_round_trips(text)
