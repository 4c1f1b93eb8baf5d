"""Posets, lattices, tables, covers, and canonical certificates."""

from __future__ import annotations

import dataclasses
import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_boolean, make_mo2, make_o6, permute_candidate
from omlat import (
    MAX_CARRIER_SIZE,
    BoundedLattice,
    CycleDetectedError,
    DuplicateNameError,
    EnumerationConfig,
    FinitePoset,
    NotALatticeError,
    NotBoundedError,
    OrthoCandidate,
    SizeLimitExceededError,
    TableNotTotalError,
    UnknownElementError,
    canonical_certificate,
    enumerate_bounded_lattices,
    enumerate_orthocomplements,
    lattice_from_covers,
    lattice_from_poset,
    poset_from_covers,
    relabel_lattice,
    transitive_reduction,
    verify_lattice,
)
from omlat.order import up_sets

CORPUS = enumerate_bounded_lattices(EnumerationConfig(6))


class TestPosetFromCovers:
    def test_mo2_poset_shape(self):
        p = make_mo2().lattice.poset
        mids = [1, 2, 3, 4]
        for m in mids:
            assert p.leq[0][m] and p.leq[m][5]
        for x, y in itertools.combinations(mids, 2):
            assert not p.leq[x][y] and not p.leq[y][x]

    def test_two_chain(self):
        p = poset_from_covers(["0", "1"], [("0", "1")])
        assert p.leq == ((True, True), (False, True))

    def test_transitive_closure(self):
        p = poset_from_covers(["0", "m", "1"], [("0", "m"), ("m", "1")])
        assert p.leq[0][2]

    def test_cycle_rejected(self):
        with pytest.raises(CycleDetectedError):
            poset_from_covers(["p", "q"], [("p", "q"), ("q", "p")])

    def test_duplicate_name(self):
        with pytest.raises(DuplicateNameError):
            poset_from_covers(["p", "p"], [])

    def test_unknown_cover_endpoint(self):
        with pytest.raises(UnknownElementError):
            poset_from_covers(["p"], [("p", "q")])

    def test_empty_name(self):
        with pytest.raises(ValueError):
            poset_from_covers(["p", ""], [])

    def test_index_lookup(self):
        p = make_mo2().lattice.poset
        assert p.index("a'") == 2
        with pytest.raises(UnknownElementError):
            p.index("zz")


class TestLatticeFromPoset:
    def test_mo2_tables(self):
        l = make_mo2().lattice
        a, b = l.index("a"), l.index("b")
        assert l.join[a][b] == l.top
        assert l.meet[a][b] == l.bottom
        assert (l.bottom, l.top) == (0, 5)

    def test_two_chain_min_max(self):
        l = lattice_from_covers(["0", "1"], [("0", "1")])
        assert l.join[0][1] == 1 and l.meet[0][1] == 0

    def test_bowtie_not_a_lattice(self):
        with pytest.raises(NotALatticeError) as exc:
            lattice_from_covers(
                ["0", "a", "b", "c", "d", "1"],
                [("0", "a"), ("0", "b"), ("a", "c"), ("a", "d"),
                 ("b", "c"), ("b", "d"), ("c", "1"), ("d", "1")],
            )
        assert exc.value.pair == ("a", "b")
        assert exc.value.kind == "join"

    def test_no_bottom(self):
        p = poset_from_covers(["p", "q"], [])
        with pytest.raises(NotBoundedError):
            lattice_from_poset(p)

    def test_empty_carrier(self):
        with pytest.raises(NotBoundedError):
            lattice_from_poset(FinitePoset((), ()))

    def test_trivial_lattice_flagged(self):
        l = lattice_from_covers(["e"], [])
        assert l.is_trivial
        assert not make_mo2().lattice.is_trivial

    def test_bounds_discovered_not_assumed(self):
        # top listed first: discovery must not depend on element order
        l = lattice_from_covers(["1", "0"], [("0", "1")])
        assert l.names[l.bottom] == "0" and l.names[l.top] == "1"

    def test_relation_that_is_not_antisymmetric_rejected(self):
        # p and q share their up-set, so no pair has a unique lub
        p = FinitePoset(("p", "q"), ((True, True), (True, True)))
        with pytest.raises(NotALatticeError) as exc:
            lattice_from_poset(p)
        assert (exc.value.pair, exc.value.kind) == (("p", "p"), "join")

    def test_accepts_exactly_the_labeled_lattices(self):
        # every labeled poset on 1..5 points (1 + 3 + 19 + 219 + 4231 = 4473),
        # each also with a new bottom and top adjoined: on 5 points or fewer
        # every bounded poset is a lattice, so only those name a missing bound
        outcomes: Counter = Counter()
        for n in range(1, 6):
            for poset in oracles.labeled_posets(n):
                bounded = (*(d | 1 << n for d in poset), 0, (1 << n + 1) - 1)
                for down in (poset, bounded):
                    names = tuple(f"e{i}" for i in range(len(down)))
                    leq = tuple(tuple(row) for row in oracles.poset_leq_matrix(down))
                    try:
                        l = lattice_from_poset(FinitePoset(names, leq))
                    except NotBoundedError:
                        assert not oracles.is_labeled_lattice(down)
                        outcomes["unbounded"] += 1
                        continue
                    except NotALatticeError as exc:
                        assert not oracles.is_labeled_lattice(down)
                        # the first missing bound of a naive row-major scan
                        (x, y), kind = oracles.first_missing_bound(leq)
                        bound = "least upper" if kind == "join" else "greatest lower"
                        assert (exc.pair, exc.kind) == ((names[x], names[y]), kind)
                        assert str(exc) == f"no {bound} bound for ({names[x]}, {names[y]})"
                        outcomes[kind] += 1
                        continue
                    assert oracles.is_labeled_lattice(down)
                    assert verify_lattice(l).overall
                    outcomes["lattice"] += 1
        assert outcomes == {"lattice": 4422, "unbounded": 4048, "join": 238, "meet": 238}


def _built(build, *args):
    """What `build(*args)` returns, or its error's type, message, pair and kind."""
    try:
        return build(*args)
    except Exception as exc:
        return (
            type(exc),
            str(exc),
            getattr(exc, "pair", None),
            getattr(exc, "kind", None),
        )


def _in_two_steps(names, covers):
    return lattice_from_poset(poset_from_covers(names, covers))


class TestLatticeFromCovers:
    def test_equals_the_two_step_construction_on_every_labeled_poset(self):
        for n in range(0, 6):
            names = tuple(f"e{i}" for i in range(n))
            for down in oracles.labeled_posets(n) if n else [()]:
                leq = oracles.poset_leq_matrix(down)
                covers = [
                    (names[x], names[y])
                    for x in range(n)
                    for y in range(n)
                    if x != y and leq[x][y]
                ]
                assert _built(lattice_from_covers, names, covers) == _built(
                    _in_two_steps, names, covers
                )

    def test_equals_the_two_step_construction_on_random_covers(self):
        rng = random.Random(5)
        outcomes = set()
        for _ in range(3000):
            n = rng.randrange(0, 10)
            names = [f"v{i}" for i in range(n)]
            rng.shuffle(names)
            covers = []
            for _ in range(rng.randrange(0, 3 * n + 1)):
                r = rng.random()
                if r < 0.05:
                    covers.append((rng.choice(names), "stranger"))
                elif r < 0.1:
                    v = rng.choice(names)
                    covers.append((v, v))
                else:
                    # mostly upward in list order, so that most are acyclic
                    a, b = sorted(rng.sample(range(n), 2)) if n > 1 else (0, 0)
                    if r < 0.2:
                        a, b = b, a
                    covers.append((names[a], names[b]))
            if n > 1 and rng.random() < 0.6:
                # a bottom and a top around everything: bounded, not always a lattice
                covers += [(names[0], v) for v in names[1:]]
                covers += [(v, names[-1]) for v in names[:-1]]
                rng.shuffle(covers)
            got = _built(lattice_from_covers, names, covers)
            assert got == _built(_in_two_steps, names, covers)
            outcomes.add(got[0] if isinstance(got, tuple) else "lattice")
        assert outcomes == {
            "lattice",
            CycleDetectedError,
            NotALatticeError,
            NotBoundedError,
            UnknownElementError,
        }


class TestCarrierCap:
    """Carriers hold at most MAX_CARRIER_SIZE = 256 elements."""

    @pytest.mark.parametrize("build", [lattice_from_covers, poset_from_covers])
    def test_one_more_name_is_refused(self, build):
        names = [f"c{i}" for i in range(MAX_CARRIER_SIZE + 1)]
        with pytest.raises(SizeLimitExceededError, match="257 elements, the limit is 256"):
            build(names, zip(names, names[1:]))

    def test_a_lattice_built_directly_is_refused(self):
        n = MAX_CARRIER_SIZE + 1
        names = tuple(f"c{i}" for i in range(n))
        leq = tuple(tuple(x <= y for y in range(n)) for x in range(n))
        join = tuple(tuple(max(x, y) for y in range(n)) for x in range(n))
        meet = tuple(tuple(min(x, y) for y in range(n)) for x in range(n))
        with pytest.raises(SizeLimitExceededError):
            BoundedLattice(FinitePoset(names, leq), join, meet, 0, n - 1)


class TestVerifyLattice:
    @pytest.mark.parametrize("l", CORPUS, ids=lambda l: f"n{l.n}")
    def test_corpus_passes(self, l):
        assert verify_lattice(l).overall

    def test_corrupted_join_table_caught(self):
        l = make_mo2().lattice
        join = [list(r) for r in l.join]
        join[1][3] = 1  # a v b must be 1, not a
        bad = type(l)(l.poset, tuple(tuple(r) for r in join), l.meet, l.bottom, l.top)
        report = verify_lattice(bad)
        assert not report.overall
        assert not report.passed("join-is-lub")

    def test_order_agreement_on_golden(self):
        for c in (make_mo2(), make_o6(), make_boolean(3)):
            l = c.lattice
            for x in range(l.n):
                for y in range(l.n):
                    assert l.leq[x][y] == (l.join[x][y] == y) == (l.meet[x][y] == x)


class TestTransitiveReduction:
    @pytest.mark.parametrize(
        "candidate,count",
        [(make_mo2(), 8), (make_o6(), 6), (make_boolean(3), 12)],
        ids=["mo2", "o6", "bool8"],
    )
    def test_against_matrix_oracle(self, candidate, count):
        l = candidate.lattice
        covers = transitive_reduction(l.poset)
        assert set(covers) == oracles.cover_pairs_oracle(l.leq)
        assert len(covers) == count

    @pytest.mark.parametrize("l", CORPUS, ids=lambda l: f"n{l.n}")
    def test_corpus_against_oracle(self, l):
        assert set(transitive_reduction(l.poset)) == oracles.cover_pairs_oracle(l.leq)


class TestCanonicalCertificate:
    def test_relabelings_agree(self):
        l = make_mo2().lattice
        base = canonical_certificate(l).data
        for perm in itertools.islice(itertools.permutations(range(6)), 0, 720, 77):
            assert canonical_certificate(relabel_lattice(l, perm)).data == base

    def test_mo2_distinct_from_o6(self):
        assert (
            canonical_certificate(make_mo2().lattice).data
            != canonical_certificate(make_o6().lattice).data
        )

    def test_two_chain_fixed_point(self):
        l = lattice_from_covers(["0", "1"], [("0", "1")])
        assert canonical_certificate(l).data == canonical_certificate(l).data

    def test_unary_table_distinguishes(self):
        mo2 = make_mo2()
        other = (5, 3, 4, 1, 2, 0)  # a second valid complementation on MO2
        with_first = canonical_certificate(mo2.lattice, mo2.comp).data
        with_other = canonical_certificate(mo2.lattice, other).data
        # isomorphic as lattices-with-unary-op: a<->b relabeling maps one to the other
        assert with_first == with_other
        without = canonical_certificate(mo2.lattice).data
        assert with_first != without

    def test_one_large_cell_exceeds_relabeling_cap(self):
        # MO10: the 10 atoms form one refinement cell, 10! > 8! relabelings
        atoms = [f"a{i}" for i in range(10)]
        l = lattice_from_covers(
            ["0", *atoms, "1"], [("0", a) for a in atoms] + [(a, "1") for a in atoms]
        )
        with pytest.raises(SizeLimitExceededError):
            canonical_certificate(l)

    @given(st.permutations(range(12)))
    @settings(max_examples=20, deadline=None)
    def test_twelve_elements_with_small_cells(self, perm):
        # 2 x MO2: twelve elements, the largest cells are two sets of 4 atoms
        mo2 = make_mo2().lattice
        names = [f"{x}.{y}" for x in mo2.names for y in "01"]
        covers = [
            (f"{mo2.names[a]}.{y}", f"{mo2.names[b]}.{y}")
            for a, b in transitive_reduction(mo2.poset)
            for y in "01"
        ]
        covers += [(f"{x}.0", f"{x}.1") for x in mo2.names]
        l = lattice_from_covers(names, covers)
        assert l.n == 12
        assert (
            canonical_certificate(relabel_lattice(l, list(perm))).data
            == canonical_certificate(l).data
        )

    def test_partial_unary_table_rejected(self):
        l = make_mo2().lattice
        with pytest.raises(TableNotTotalError):
            canonical_certificate(l, (0, 1, 2))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_permutation_invariance_property(self, data):
        l = data.draw(st.sampled_from(CORPUS))
        perm = data.draw(st.permutations(range(l.n)))
        assert (
            canonical_certificate(relabel_lattice(l, list(perm))).data
            == canonical_certificate(l).data
        )


class TestCertificateOfPosets:
    """Certificates of posets that need not be lattices, against brute force."""

    def test_equal_exactly_when_the_minimal_relabeled_keys_are(self):
        counts = []
        for n in range(6):
            perms = list(itertools.permutations(range(n)))
            names = tuple(f"p{i}" for i in range(n))
            pairs = set()
            for down in oracles.labeled_posets(n):
                leq = tuple(map(tuple, oracles.poset_leq_matrix(down)))
                key = min(oracles._relabeled_key(down, p) for p in perms)
                pairs.add((canonical_certificate(FinitePoset(names, leq)).data, key))
            certs = {c for c, _ in pairs}
            assert len(certs) == len({k for _, k in pairs}) == len(pairs)
            counts.append(len(certs))
        assert counts == [1, 1, 2, 5, 16, 63]  # OEIS A000112

    @pytest.mark.parametrize("l", CORPUS, ids=lambda l: f"n{l.n}")
    def test_lattice_and_its_poset_certify_alike(self, l):
        assert canonical_certificate(l.poset) == canonical_certificate(l)


class TestCertificateWithUnaryTable:
    """Certificates of a lattice with a unary table against brute force."""

    @pytest.mark.parametrize("i", range(len(CORPUS)), ids=lambda i: f"n{CORPUS[i].n}_{i}")
    def test_equal_exactly_when_an_automorphism_carries_the_tables(self, i):
        l = CORPUS[i]
        n = l.n
        rng = random.Random(i)
        autos = oracles.automorphisms(l.leq, n)
        tables = enumerate_orthocomplements(l)
        for _ in range(6):
            t = tuple(rng.randrange(n) for _ in range(n))
            # and its image under a drawn automorphism, which must certify alike
            p = rng.choice(autos)
            image = [0] * n
            for x in range(n):
                image[p[x]] = p[t[x]]
            tables += [t, tuple(image)]
        certs = [canonical_certificate(l, t).data for t in tables]
        for (t, ct), (v, cv) in itertools.product(zip(tables, certs), repeat=2):
            carried = any(all(v[p[x]] == p[t[x]] for x in range(n)) for p in autos)
            assert (ct == cv) == carried
        for t, ct in zip(tables, certs):
            c = permute_candidate(OrthoCandidate(l, t), rng.sample(range(n), n))
            assert canonical_certificate(c.lattice, c.comp).data == ct


def _matrix(up) -> tuple[tuple[bool, ...], ...]:
    return tuple(tuple(bool(m >> y & 1) for y in range(len(up))) for m in up)


def _random_order(rng: random.Random, n: int) -> tuple[tuple[bool, ...], ...]:
    """A random partial order on n points: random edges upward in index order,
    closed transitively, then relabeled at random."""
    density = rng.uniform(0.15, 0.6)
    up = [1 << x for x in range(n)]
    for x in reversed(range(n)):
        for y in range(x + 1, n):
            if rng.random() < density:
                up[x] |= up[y]
    perm = rng.sample(range(n), n)
    moved = [0] * n
    for x in range(n):
        moved[perm[x]] = sum(1 << perm[y] for y in range(n) if up[x] >> y & 1)
    return _matrix(moved)


def test_certificate_matches_the_reference_byte_for_byte():
    """Against the first design, which tries twins in every order.

    The 6-point poset 0 < 1, 0 < 5, 2 < 3, 2 < 4 has a cell {1, 3, 4, 5} in
    which all four share a strict up-set but only 1, 5 and 3, 4 are twins.
    """
    rng = random.Random(14)
    orders = [_matrix([35, 2, 28, 8, 16, 32])]
    orders += [_random_order(rng, rng.randint(5, 8)) for _ in range(2000)]
    for leq in orders:
        p = FinitePoset(tuple(f"p{i}" for i in range(len(leq))), leq)
        got = canonical_certificate(p).data
        assert got == oracles.reference_certificate(leq), up_sets(leq)
    lattices = enumerate_bounded_lattices(EnumerationConfig(9))
    for l in lattices:
        moved = relabel_lattice(l, rng.sample(range(l.n), l.n))
        assert canonical_certificate(moved).data == oracles.reference_certificate(moved.leq)
    pairs = [(l, t) for l in lattices for t in enumerate_orthocomplements(l)]
    assert len(pairs) == 27
    for l, t in pairs:
        assert canonical_certificate(l, t).data == oracles.reference_certificate(l.leq, t)


class TestUpSetMasks:
    def test_equal_up_sets_of_the_matrix(self):
        from_covers = poset_from_covers(["0", "a", "b"], [("0", "a"), ("0", "b")])
        from_matrix = FinitePoset(("a", "b", "c"), _matrix([0b011, 0b010, 0b100]))
        for p in (from_covers, from_matrix):
            assert p.up == up_sets(p.leq)
        lattice = make_boolean(3).lattice
        assert lattice.up == lattice.poset.up == up_sets(lattice.leq)

    def test_poset_looks_the_same_with_its_masks(self):
        kept = make_mo2().lattice.poset
        computed = FinitePoset(kept.names, kept.leq)
        assert "up" in vars(kept) and computed.up == kept.up
        plain = FinitePoset(kept.names, kept.leq)
        assert "up" not in vars(plain)
        for p in (kept, computed):
            assert p == plain and plain == p
            assert (repr(p), hash(p)) == (repr(plain), hash(plain))

    def test_replace_recomputes_the_masks(self):
        p = poset_from_covers(["0", "a", "1"], [("0", "a"), ("a", "1")])
        assert p.up == (0b111, 0b110, 0b100)
        copy = dataclasses.replace(p)
        assert "up" not in vars(copy) and copy.up == p.up
        upside_down = dataclasses.replace(p, leq=_matrix([0b001, 0b011, 0b111]))
        assert upside_down.up == (0b001, 0b011, 0b111)


class TestRelabel:
    def test_round_trip(self):
        l = make_mo2().lattice
        perm = [3, 5, 1, 0, 4, 2]
        inverse = [0] * 6
        for old, new in enumerate(perm):
            inverse[new] = old
        assert relabel_lattice(relabel_lattice(l, perm), inverse) == l

    def test_preserves_laws(self):
        l = make_boolean(3).lattice
        perm = [7, 0, 3, 1, 6, 2, 5, 4]
        assert verify_lattice(relabel_lattice(l, perm)).overall

    @pytest.mark.parametrize(
        "perm", [[0, 0, 1, 2], [3, 2, 1, -1], [0, 1, 2], [0, 1, 2, 3, 4], [1, 2, 3, 4]]
    )
    def test_rejects_a_non_permutation(self, perm):
        l = make_boolean(2).lattice
        with pytest.raises(ValueError, match="permutation"):
            relabel_lattice(l, perm)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_order_join_meet_agreement_property(data):
    l = data.draw(st.sampled_from(CORPUS))
    x = data.draw(st.integers(0, l.n - 1))
    y = data.draw(st.integers(0, l.n - 1))
    assert l.leq[x][y] == (l.join[x][y] == y) == (l.meet[x][y] == x)
    assert l.meet[x][l.join[x][y]] == x
    assert l.join[x][l.meet[x][y]] == x


def test_reading_order_back_from_tables_reproduces_poset():
    for l in CORPUS:
        derived = tuple(
            tuple(l.join[x][y] == y for y in range(l.n)) for x in range(l.n)
        )
        assert derived == l.leq
