"""Po-relation primitives against brute-force oracles and known goldens."""

from __future__ import annotations

import itertools
import random
import time

import pytest

from conftest import (
    brute_extensions,
    brute_max_antichain,
    brute_min_ia_cardinality,
    brute_worlds,
    is_ia_class,
    random_poset,
)
from ordlattice.core import (
    canonical_extension,
    ia_partition,
    index_bounds,
    is_linear_extension,
    linear_extensions,
    possible_ranks,
    possible_worlds,
    rank_witness,
    validate_po_relation,
    width_and_chain_partition,
    world_of,
)
from ordlattice.errors import (
    ArityError,
    ComparableError,
    CycleError,
    DomainError,
    NotPermutationError,
    RankError,
    WorldLimitError,
)


def two_chain():
    return validate_po_relation([1, 2], {1: ("G", "8"), 2: ("TA", "5")}, [(1, 2)])


def restaurant_types():
    # six restaurants labeled by cuisine, partially ranked
    labels = {0: ("fr",), 1: ("it",), 2: ("fr",), 3: ("it",), 4: ("jp",), 5: ("jp",)}
    pairs = [(0, 2), (1, 2), (2, 4), (3, 4), (3, 5)]
    return validate_po_relation(range(6), labels, pairs)


class TestValidation:
    def test_two_element_chain(self):
        r = two_chain()
        assert r.size == 2 and r.arity == 2
        assert r.less(1, 2) and not r.less(2, 1)
        assert r.hasse_edges() == ((1, 2),)

    def test_empty_relation(self):
        r = validate_po_relation([], {}, [])
        assert r.size == 0
        assert list(linear_extensions(r)) == [()]
        assert possible_worlds(r) == {()}

    def test_two_cycle_rejected(self):
        with pytest.raises(CycleError):
            validate_po_relation([1, 2], {1: ("a",), 2: ("b",)}, [(1, 2), (2, 1)])

    def test_self_loop_rejected(self):
        with pytest.raises(CycleError):
            validate_po_relation([1], {1: ("a",)}, [(1, 1)])

    def test_longer_cycle_reported(self):
        with pytest.raises(CycleError) as exc:
            validate_po_relation(range(3), {i: ("x",) for i in range(3)}, [(0, 1), (1, 2), (2, 0)])
        assert len(exc.value.cycle) == 3

    def test_mixed_arities_rejected(self):
        with pytest.raises(ArityError):
            validate_po_relation([1, 2], {1: ("a",), 2: ("b", "c")}, [])

    def test_pairs_are_closed(self):
        r = validate_po_relation(range(3), {i: ("x",) for i in range(3)}, [(0, 1), (1, 2)])
        assert r.less(0, 2)
        assert r.hasse_edges() == ((0, 1), (1, 2))

    def test_bad_values_rejected(self):
        with pytest.raises(DomainError):
            validate_po_relation([0], {0: (-3,)}, [])
        with pytest.raises(DomainError):
            validate_po_relation([0], {0: (1.5,)}, [])

    def test_naturals_and_strings_never_equal(self):
        r = validate_po_relation([0, 1], {0: (12,), 1: ("12",)}, [])
        assert r.label(0) != r.label(1)


class TestLinearExtensions:
    def test_antichain_has_both_orders(self):
        r = validate_po_relation([10, 20], {10: ("a",), 20: ("b",)}, [])
        assert list(linear_extensions(r)) == [(10, 20), (20, 10)]

    def test_chain_has_single_extension(self):
        r = validate_po_relation(range(4), {i: (i,) for i in range(4)}, [(i, i + 1) for i in range(3)])
        assert list(linear_extensions(r)) == [(0, 1, 2, 3)]

    def test_two_disjoint_chains_interleave(self):
        labels = {0: ("a",), 1: ("b",), 2: ("c",), 3: ("d",)}
        r = validate_po_relation(range(4), labels, [(0, 1), (2, 3)])
        assert len(list(linear_extensions(r))) == 6

    def test_matches_bruteforce_on_random_posets(self):
        rnd = random.Random(101)
        for _ in range(40):
            r = random_poset(rnd, rnd.randint(0, 6), edge_prob=0.35)
            got = list(linear_extensions(r))
            assert sorted(got) == sorted(brute_extensions(r))
            assert len(set(got)) == len(got)
            for seq in got:
                assert is_linear_extension(r, seq)

    def test_deterministic_tie_break(self):
        r = validate_po_relation([3, 1, 2], {1: ("x",), 2: ("x",), 3: ("x",)}, [])
        first = next(iter(linear_extensions(r)))
        assert first == (1, 2, 3)
        assert canonical_extension(r) == (1, 2, 3)


class TestPossibleWorlds:
    def test_duplicate_labels_collapse(self):
        r = validate_po_relation([0, 1], {0: ("x",), 1: ("x",)}, [])
        assert possible_worlds(r) == {(("x",), ("x",))}

    def test_restaurant_type_worlds(self):
        r = restaurant_types()
        worlds = possible_worlds(r)
        flat = {tuple(v for (v,) in w) for w in worlds}
        assert ("it", "fr", "jp", "it", "fr", "jp") in flat
        assert ("it", "fr", "fr", "it", "jp", "jp") in flat
        assert all(len(w) == 6 for w in flat)

    def test_limit_enforced(self):
        r = validate_po_relation(range(5), {i: (i,) for i in range(5)}, [])
        with pytest.raises(WorldLimitError):
            possible_worlds(r, limit=10)
        with pytest.raises(OverflowError):
            possible_worlds(r, limit=10)

    def test_limit_counts_extensions_not_worlds(self):
        # 16 equal rows around an ordered pair: 153 worlds, about 3e15 extensions
        labels = {i: ("x",) for i in range(16)}
        labels.update({16: ("a",), 17: ("b",)})
        r = validate_po_relation(range(18), labels, [(16, 17)])
        start = time.perf_counter()
        with pytest.raises(WorldLimitError):
            possible_worlds(r, limit=10_000)
        assert time.perf_counter() - start < 1.0

    def test_matches_bruteforce(self):
        rnd = random.Random(55)
        for _ in range(30):
            r = random_poset(rnd, rnd.randint(0, 6), edge_prob=0.3)
            assert possible_worlds(r) == brute_worlds(r)


class TestIsLinearExtension:
    def test_known_witness(self):
        r = restaurant_types()
        assert is_linear_extension(r, (3, 0, 5, 1, 2, 4))

    def test_reversed_chain_rejected(self):
        r = validate_po_relation([0, 1], {0: ("a",), 1: ("b",)}, [(0, 1)])
        assert not is_linear_extension(r, (1, 0))

    def test_any_order_on_antichain(self):
        r = validate_po_relation(range(3), {i: (i,) for i in range(3)}, [])
        for perm in itertools.permutations(r.ids):
            assert is_linear_extension(r, perm)

    def test_non_permutation_rejected(self):
        r = validate_po_relation([0, 1], {0: ("a",), 1: ("b",)}, [])
        with pytest.raises(NotPermutationError):
            is_linear_extension(r, (0, 0))
        with pytest.raises(NotPermutationError):
            is_linear_extension(r, (0,))


class TestWidth:
    def test_total_order(self):
        r = validate_po_relation(range(5), {i: (i,) for i in range(5)}, [(i, i + 1) for i in range(4)])
        width, partition = width_and_chain_partition(r)
        assert width == 1 and len(partition.chains) == 1

    def test_unordered(self):
        r = validate_po_relation(range(4), {i: (i,) for i in range(4)}, [])
        width, partition = width_and_chain_partition(r)
        assert width == 4 and len(partition.chains) == 4

    def test_against_antichain_oracle(self):
        rnd = random.Random(77)
        for _ in range(60):
            r = random_poset(rnd, rnd.randint(1, 7), edge_prob=0.35)
            width, partition = width_and_chain_partition(r)
            assert width == brute_max_antichain(r)
            assert width == len(partition.chains)
            # the chains partition the ids and ascend in the order
            seen = [i for chain in partition.chains for i in chain]
            assert sorted(seen) == sorted(r.ids)
            for chain in partition.chains:
                for x, y in zip(chain, chain[1:]):
                    assert r.less(x, y)


class TestIaPartition:
    def test_unordered_single_class(self):
        r = validate_po_relation(range(4), {i: (i,) for i in range(4)}, [])
        assert ia_partition(r).cardinality == 1

    def test_complete_bipartite_two_classes(self):
        pairs = [(u, v) for u in (0, 1) for v in (2, 3)]
        r = validate_po_relation(range(4), {i: (i,) for i in range(4)}, pairs)
        classes = ia_partition(r).classes
        assert set(classes) == {frozenset({0, 1}), frozenset({2, 3})}

    def test_chain_all_singletons(self):
        r = validate_po_relation(range(4), {i: (i,) for i in range(4)}, [(i, i + 1) for i in range(3)])
        assert ia_partition(r).cardinality == 4

    def test_against_partition_oracle(self):
        rnd = random.Random(31)
        for _ in range(40):
            r = random_poset(rnd, rnd.randint(1, 6), edge_prob=0.35)
            partition = ia_partition(r)
            for cls in partition.classes:
                assert is_ia_class(r, cls)
            assert sorted(i for c in partition.classes for i in c) == sorted(r.ids)
            assert partition.cardinality == brute_min_ia_cardinality(r)


class TestRanks:
    def test_two_antichain(self):
        r = validate_po_relation([0, 1], {0: ("a",), 1: ("b",)}, [])
        assert possible_ranks(r, 0, 1) == (1, 2)

    def test_shared_ancestor(self):
        r = validate_po_relation(range(3), {i: (i,) for i in range(3)}, [(0, 1), (0, 2)])
        assert possible_ranks(r, 1, 2) == (2, 3)

    def test_comparable_rejected(self):
        r = validate_po_relation([0, 1], {0: ("a",), 1: ("b",)}, [(0, 1)])
        with pytest.raises(ComparableError):
            possible_ranks(r, 0, 1)

    def test_interval_has_two_consecutive_positions(self):
        rnd = random.Random(5)
        for _ in range(40):
            r = random_poset(rnd, rnd.randint(2, 7), edge_prob=0.3)
            for x, y in itertools.combinations(r.ids, 2):
                if r.comparable(x, y):
                    continue
                lo, hi = possible_ranks(r, x, y)
                assert hi >= lo + 1

    def test_every_rank_achieved(self):
        rnd = random.Random(8)
        for _ in range(25):
            r = random_poset(rnd, rnd.randint(2, 6), edge_prob=0.3)
            extensions = brute_extensions(r)
            for x, y in itertools.combinations(r.ids, 2):
                if r.comparable(x, y):
                    continue
                lo, hi = possible_ranks(r, x, y)
                achieved = {seq.index(x) + 1 for seq in extensions} | {seq.index(y) + 1 for seq in extensions}
                assert set(range(lo, hi + 1)) <= achieved


class TestRankWitness:
    def test_antichain_orders(self):
        r = validate_po_relation([0, 1], {0: ("a",), 1: ("b",)}, [])
        assert rank_witness(r, 0, 1, 1, 2) == (0, 1)
        assert rank_witness(r, 0, 1, 2, 1) == (1, 0)

    def test_bad_positions_rejected(self):
        r = validate_po_relation([0, 1], {0: ("a",), 1: ("b",)}, [])
        with pytest.raises(RankError):
            rank_witness(r, 0, 1, 1, 1)
        with pytest.raises(RankError):
            rank_witness(r, 0, 1, 0, 1)

    def test_witnesses_are_extensions_with_requested_positions(self):
        rnd = random.Random(12)
        for _ in range(30):
            r = random_poset(rnd, 5, edge_prob=0.3)
            for x, y in itertools.combinations(r.ids, 2):
                if r.comparable(x, y):
                    continue
                lo, hi = possible_ranks(r, x, y)
                for p, q in itertools.permutations(range(lo, hi + 1), 2):
                    seq = rank_witness(r, x, y, p, q)
                    assert is_linear_extension(r, seq)
                    assert seq.index(x) + 1 == p and seq.index(y) + 1 == q


class TestIndexBounds:
    def test_chain_positions_fixed(self):
        r = validate_po_relation(range(4), {i: (i,) for i in range(4)}, [(i, i + 1) for i in range(3)])
        for k, ident in enumerate(r.ids, start=1):
            assert index_bounds(r, ident) == (k, k)

    def test_antichain_full_interval(self):
        r = validate_po_relation(range(3), {i: (i,) for i in range(3)}, [])
        for ident in r.ids:
            assert index_bounds(r, ident) == (1, 3)

    def test_endpoints_achieved(self):
        rnd = random.Random(21)
        for _ in range(30):
            r = random_poset(rnd, rnd.randint(1, 7), edge_prob=0.35)
            extensions = brute_extensions(r)
            for ident in r.ids:
                lo, hi = index_bounds(r, ident)
                achieved = {seq.index(ident) + 1 for seq in extensions}
                assert achieved == set(range(lo, hi + 1))

    def test_contains_possible_ranks_projection(self):
        # the joint interval for (x, y) projects into x's own achievable interval
        rnd = random.Random(33)
        for _ in range(25):
            r = random_poset(rnd, rnd.randint(2, 7), edge_prob=0.3)
            for x in r.ids:
                lo, hi = index_bounds(r, x)
                for y in r.ids:
                    if y == x or r.comparable(x, y):
                        continue
                    plo, phi = possible_ranks(r, x, y)
                    assert lo <= plo and phi <= hi


class TestEquality:
    def test_structure_vs_worlds(self):
        a = validate_po_relation([0, 1], {0: ("x",), 1: ("x",)}, [(0, 1)])
        b = validate_po_relation([0, 1], {0: ("x",), 1: ("x",)}, [])
        assert not a.structure_equals(b)
        assert a.same_possible_worlds(b)

    def test_stream_count_matches_bruteforce_on_8(self):
        rnd = random.Random(99)
        r = random_poset(rnd, 8, edge_prob=0.25)
        assert len(list(linear_extensions(r))) == len(brute_extensions(r))


def test_world_of_roundtrip():
    r = restaurant_types()
    seq = canonical_extension(r)
    assert world_of(r, seq) == tuple(r.label(i) for i in seq)
