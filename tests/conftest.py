"""Shared fixtures: golden structures, data files, and the enumerated corpus."""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from omlat import (
    BoundedLattice,
    EnumerationConfig,
    OrthoCandidate,
    enumerate_bounded_lattices,
    enumerate_omls,
    lattice_from_covers,
    relabel_lattice,
)

DATA_DIR = Path(__file__).parent / "data"

MO2_NAMES = ["0", "a", "a'", "b", "b'", "1"]
MO2_COVERS = [
    ("0", "a"), ("0", "a'"), ("0", "b"), ("0", "b'"),
    ("a", "1"), ("a'", "1"), ("b", "1"), ("b'", "1"),
]
MO2_COMP = ["1", "a'", "a", "b'", "b", "0"]

O6_NAMES = ["0", "x", "y", "y'", "x'", "1"]
O6_COVERS = [
    ("0", "x"), ("x", "y"), ("y", "1"),
    ("0", "y'"), ("y'", "x'"), ("x'", "1"),
]
O6_COMP = ["1", "x'", "y'", "y", "x", "0"]


def make_mo2() -> OrthoCandidate:
    l = lattice_from_covers(MO2_NAMES, MO2_COVERS)
    return OrthoCandidate(l, tuple(l.index(t) for t in MO2_COMP))


def make_o6() -> OrthoCandidate:
    l = lattice_from_covers(O6_NAMES, O6_COVERS)
    return OrthoCandidate(l, tuple(l.index(t) for t in O6_COMP))


def make_mo(k: int) -> BoundedLattice:
    """MOk as a bare lattice: 0, 2k atoms a0..a(2k-1), and 1."""
    atoms = [f"a{i}" for i in range(2 * k)]
    return lattice_from_covers(
        ["0", *atoms, "1"], [("0", a) for a in atoms] + [(a, "1") for a in atoms]
    )


def make_boolean(k: int) -> OrthoCandidate:
    """The Boolean algebra 2^k built from covers, elements in bitmask order."""
    n = 1 << k
    names = [f"s{v}" if 0 < v < n - 1 else ("0" if v == 0 else "1") for v in range(n)]
    if k == 0:
        names = ["0"]
    covers = []
    for v in range(n):
        for i in range(k):
            if not (v >> i) & 1:
                covers.append((names[v], names[v | (1 << i)]))
    l = lattice_from_covers(names, covers)
    comp = tuple(l.index(names[(n - 1) & ~v]) for v in range(n))
    return OrthoCandidate(l, comp)


def permute_candidate(c: OrthoCandidate, perm) -> OrthoCandidate:
    """Relabel a candidate by perm (perm[old] = new)."""
    l = relabel_lattice(c.lattice, perm)
    comp = [0] * l.n
    for old in range(l.n):
        comp[perm[old]] = perm[c.comp[old]]
    return OrthoCandidate(l, tuple(comp))


@pytest.fixture
def mo2() -> OrthoCandidate:
    return make_mo2()


@pytest.fixture
def o6() -> OrthoCandidate:
    return make_o6()


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def lattices6():
    return enumerate_bounded_lattices(EnumerationConfig(6))


@pytest.fixture(scope="session")
def corpus8():
    """(elapsed seconds, every OML pair with at most 8 elements)."""
    start = time.perf_counter()
    pairs = enumerate_omls(EnumerationConfig(8))
    return time.perf_counter() - start, pairs
