"""Accumulators, monoid laws, and the finite-monoid dynamic programs."""

from __future__ import annotations

import itertools
import json
import random

import pytest

from conftest import LETTERS, brute_worlds, random_bounded_width_poset, random_low_ia_poset, random_poset
from ordlattice.accum import (
    _bounded_width_table,
    _noprod_union_table,
    PRECEDES_NEUTRAL,
    PRECEDES_NO,
    PRECEDES_YES,
    Accumulator,
    GroupByAccumulator,
    accumulate_list,
    accumulator_from_spec,
    concat_accumulator,
    count_accumulator,
    dfa_accumulator,
    group_by_results,
    precedes_accumulator,
    results_bounded_width,
    results_bruteforce,
    results_noprod_union,
    select_at_accumulator,
    sum_accumulator,
    topk_accumulator,
)
from ordlattice.algebra import po_union
from ordlattice.core import ia_partition, is_linear_extension, validate_po_relation, world_of
from ordlattice.errors import (
    ArityError,
    NotFiniteError,
    NotPositionInvariantError,
    ParseError,
)

TOGGLE_MACHINE = {
    "states": ["q0", "q1"],
    "symbol_attr": 1,
    "transitions": {
        "q0": {"a": "q1", "b": "q0", "c": "q0"},
        "q1": {"a": "q0", "b": "q0", "c": "q1"},
    },
}


def toggle_accumulator() -> Accumulator:
    """A small order-sensitive finite accumulator (state-machine composition)."""
    return dfa_accumulator(dict(TOGGLE_MACHINE))


def brute_results(acc, r) -> set:
    return {accumulate_list(acc, world) for world in brute_worlds(r)}


def assert_witness_table(acc, r, table):
    """The keys are every result, and each witness is an extension of ``r`` folding to its key."""
    assert set(table) == results_bruteforce(acc, r)
    for value, witness in table.items():
        assert is_linear_extension(r, witness)
        assert accumulate_list(acc, world_of(r, witness)) == value


class TestMonoidLaws:
    @pytest.mark.parametrize(
        "factory",
        [concat_accumulator, count_accumulator, lambda: topk_accumulator(2), toggle_accumulator,
         lambda: precedes_accumulator(("a",), ("b",))],
    )
    def test_identity_and_associativity_sampled(self, factory):
        acc = factory()
        monoid = acc.monoid
        rows = [("a",), ("b",), ("c",)]
        samples = [acc.map.fn(row, pos) for row in rows for pos in (1, 2, 3)]
        for x in samples:
            assert monoid.combine(monoid.neutral, x) == x
            assert monoid.combine(x, monoid.neutral) == x
        for x, y, z in itertools.product(samples[:5], repeat=3):
            assert monoid.combine(monoid.combine(x, y), z) == monoid.combine(x, monoid.combine(y, z))

    def test_cancellative_samples(self):
        acc = concat_accumulator()
        combine = acc.monoid.combine
        elems = [(("a",),), (("b",),), (("a",), ("b",))]
        for a, b, c in itertools.product(elems, repeat=3):
            if combine(a, b) == combine(a, c):
                assert b == c
            if combine(b, a) == combine(c, a):
                assert b == c

    def test_finite_monoids_enumerate_their_elements(self):
        acc = toggle_accumulator()
        assert acc.monoid.is_finite
        closure = set(acc.monoid.elements)
        for f, g in itertools.product(closure, repeat=2):
            assert acc.monoid.combine(f, g) in closure


class TestAccumulateList:
    def test_concat_is_identity(self):
        acc = concat_accumulator()
        world = (("a", 1), ("b", 2), ("a", 1))
        assert accumulate_list(acc, world) == world
        assert accumulate_list(acc, ()) == ()

    def test_topk_keeps_prefix(self):
        acc = topk_accumulator(2)
        assert accumulate_list(acc, (("a",), ("b",), ("c",))) == (("a",), ("b",))

    def test_select_at_picks_one(self):
        acc = select_at_accumulator(2)
        assert accumulate_list(acc, (("a",), ("b",), ("c",))) == (("b",),)

    def test_sum_of_ratings(self):
        acc = sum_accumulator()
        assert accumulate_list(acc, ((3,), (5,))) == 8

    def test_count(self):
        acc = count_accumulator()
        assert accumulate_list(acc, (("x",),) * 5) == 5

    def test_precedence_truth_table(self):
        acc = precedes_accumulator(("a",), ("b",))
        combine = acc.monoid.combine
        assert combine(PRECEDES_YES, PRECEDES_YES) == PRECEDES_YES
        assert combine(PRECEDES_YES, PRECEDES_NO) == PRECEDES_YES
        assert combine(PRECEDES_NO, PRECEDES_NO) == PRECEDES_NO
        assert combine(PRECEDES_NO, PRECEDES_YES) == PRECEDES_NO
        assert accumulate_list(acc, (("c",), ("a",), ("b",))) == PRECEDES_YES
        assert accumulate_list(acc, (("b",), ("a",))) == PRECEDES_NO
        assert accumulate_list(acc, (("c",),)) == PRECEDES_NEUTRAL

    def test_arity_checked(self):
        acc = precedes_accumulator(("a",), ("b",))
        with pytest.raises(ArityError):
            accumulate_list(acc, (("a", "b"),))

    def test_dfa_runs_words(self):
        acc = toggle_accumulator()
        # "aa" toggles twice: identity on states
        fn = accumulate_list(acc, (("a",), ("a",)))
        assert fn == tuple(range(2))
        # "ab" resets to q0 regardless
        fn = accumulate_list(acc, (("a",), ("b",)))
        assert fn == (0, 0)


class TestResultsBruteforce:
    def test_empty_relation_neutral(self):
        r = validate_po_relation([], {}, [])
        assert results_bruteforce(concat_accumulator(), r) == {()}

    def test_diamond_concat_gives_both_worlds(self):
        labels = {0: ("g", "m"), 1: ("g", "b"), 2: ("t", "m"), 3: ("t", "b")}
        pairs = [(0, 1), (0, 2), (1, 3), (2, 3)]
        r = validate_po_relation(range(4), labels, pairs)
        results = results_bruteforce(concat_accumulator(), r)
        assert len(results) == 2

    def test_dfa_results_match_per_world_runs(self):
        rnd = random.Random(3)
        acc = toggle_accumulator()
        for _ in range(20):
            r = random_poset(rnd, rnd.randint(0, 6), edge_prob=0.4)
            assert results_bruteforce(acc, r) == brute_results(acc, r)


class TestBoundedWidthDP:
    def test_chain_single_value(self):
        r = validate_po_relation(range(3), {i: ("a",) for i in range(3)}, [(0, 1), (1, 2)])
        acc = toggle_accumulator()
        assert results_bounded_width(acc, r) == results_bruteforce(acc, r)
        assert len(results_bounded_width(acc, r)) == 1

    def test_requires_finite_monoid(self):
        r = validate_po_relation([0], {0: ("a",)}, [])
        with pytest.raises(NotFiniteError):
            results_bounded_width(concat_accumulator(), r)

    def test_parallel_chains_parity_style(self):
        labels = {i: ("a",) for i in range(10)}
        pairs = [(i, i + 1) for i in range(4)] + [(i, i + 1) for i in range(5, 9)]
        r = validate_po_relation(range(10), labels, pairs)
        acc = toggle_accumulator()
        assert results_bounded_width(acc, r) == brute_results(acc, r)

    def test_matches_bruteforce_on_random_instances(self):
        rnd = random.Random(13)
        accs = [toggle_accumulator(), precedes_accumulator(("a",), ("b",))]
        for trial in range(300):
            acc = accs[trial % 2]
            n = rnd.randint(0, 7)
            r = random_bounded_width_poset(rnd, n, width=rnd.randint(1, 3))
            assert results_bounded_width(acc, r) == brute_results(acc, r)

    def test_position_dependent_map_supported(self):
        # keep only the first two rows, or only the second; finite because
        # tuples over a 1-letter alphabet of length <= 2 are finitely many
        monoid_elements = tuple(
            tuple(w) for k in range(3) for w in itertools.product((("a",), ("b",), ("c",)), repeat=k)
        )
        from ordlattice.accum import AccumMap, Monoid

        monoid = Monoid("short-concat", (), lambda a, b: (a + b)[:2], is_finite=True, elements=monoid_elements)
        accs = [
            Accumulator("first-two", monoid, AccumMap(lambda row, pos: (row,) if pos <= 2 else ())),
            Accumulator("second", monoid, AccumMap(lambda row, pos: (row,) if pos == 2 else ())),
        ]
        rnd = random.Random(29)
        for trial in range(40):
            acc = accs[trial // 2 % 2]
            r = random_bounded_width_poset(rnd, rnd.randint(0, 6), width=2 + trial % 2)
            assert results_bounded_width(acc, r) == brute_results(acc, r)
            assert_witness_table(acc, r, _bounded_width_table(acc, r))


class TestNoprodUnionDP:
    def test_empty_ia_side_reduces_to_bounded_width(self):
        rnd = random.Random(37)
        acc = toggle_accumulator()
        empty = validate_po_relation([], {}, [], arity=1)
        for _ in range(20):
            r = random_bounded_width_poset(rnd, rnd.randint(0, 6), width=2)
            assert results_noprod_union(acc, r, empty) == results_bounded_width(acc, r)

    def test_unordered_ia_side_alone(self):
        rnd = random.Random(39)
        acc = toggle_accumulator()
        empty = validate_po_relation([], {}, [], arity=1)
        for _ in range(25):
            r = random_poset(rnd, rnd.randint(0, 6), edge_prob=0.0)
            got = results_noprod_union(acc, empty, r)
            assert got == brute_results(acc, po_union(empty, r))

    def test_requires_position_invariance(self):
        import dataclasses

        acc = topk_accumulator(1)
        finite = dataclasses.replace(
            acc, monoid=dataclasses.replace(acc.monoid, is_finite=True, elements=((),))
        )
        r = validate_po_relation([0], {0: ("a",)}, [])
        with pytest.raises(NotPositionInvariantError):
            results_noprod_union(finite, r, r)

    def test_matches_bruteforce_on_mixed_instances(self):
        rnd = random.Random(41)
        accs = [toggle_accumulator(), precedes_accumulator(("a",), ("b",))]
        repeated = 0
        for trial in range(300):
            acc = accs[trial % 2]
            r_w = random_bounded_width_poset(rnd, rnd.randint(0, 5), width=2)
            # two letters, so ia-classes often hold several rows with one map value
            r_ia = random_low_ia_poset(rnd, rnd.randint(0, 4), classes=2, values=("a", "b") if trial % 3 else LETTERS)
            got = results_noprod_union(acc, r_w, r_ia)
            assert got == brute_results(acc, po_union(r_w, r_ia))
            assert_witness_table(acc, po_union(r_w, r_ia), _noprod_union_table(acc, r_w, r_ia))
            repeated += any(
                len(members) > len({acc.map.fn(r_ia.label(i), 1) for i in members})
                for members in ia_partition(r_ia).classes
            )
        assert repeated >= 50


class TestOrderInsensitive:
    def test_commutative_position_invariant_is_singleton(self):
        rnd = random.Random(47)
        for factory in (count_accumulator, sum_accumulator):
            acc = factory()
            for _ in range(20):
                values = {i: (rnd.randint(0, 5),) for i in range(rnd.randint(1, 5))}
                r = validate_po_relation(range(len(values)), values, [], arity=1)
                assert len(results_bruteforce(acc, r)) == 1


class TestGroupBy:
    def test_single_group_wraps_plain_results(self):
        r = validate_po_relation(range(3), {0: ("g", "x"), 1: ("g", "y"), 2: ("g", "z")}, [(0, 1)], arity=2)
        gacc = GroupByAccumulator(concat_accumulator(), (1,))
        got = group_by_results(gacc, r)
        plain = results_bruteforce(concat_accumulator(), r)
        assert got == {frozenset({(("g",), v)}) for v in plain}

    def test_groups_sever_cross_order(self):
        r = validate_po_relation(range(2), {0: ("g1", "x"), 1: ("g2", "y")}, [], arity=2)
        gacc = GroupByAccumulator(concat_accumulator(), (1,))
        assert len(group_by_results(gacc, r)) == 1

    def test_positions_count_within_groups(self):
        r = validate_po_relation(range(2), {0: ("g", "x"), 1: ("h", "y")}, [(0, 1)], arity=2)
        gacc = GroupByAccumulator(select_at_accumulator(1), (1,))
        (only,) = group_by_results(gacc, r)
        assert only == frozenset({(("g",), (("g", "x"),)), (("h",), (("h", "y"),))})

    def test_matches_per_world_oracle(self):
        rnd = random.Random(53)
        gacc = GroupByAccumulator(concat_accumulator(), (1,))
        for _ in range(40):
            r = random_poset(rnd, rnd.randint(0, 6), edge_prob=0.35, arity=2)
            expected = set()
            for world in brute_worlds(r):
                groups: dict = {}
                for row in world:
                    groups.setdefault((row[0],), []).append(row)
                expected.add(frozenset((k, tuple(rows)) for k, rows in groups.items()))
            assert group_by_results(gacc, r) == expected

    def test_attr_out_of_range(self):
        r = validate_po_relation([0], {0: ("a",)}, [])
        with pytest.raises(ArityError):
            group_by_results(GroupByAccumulator(concat_accumulator(), (2,)), r)


class TestRegistry:
    def test_simple_specs(self):
        assert accumulator_from_spec("concat").is_list_identity
        assert accumulator_from_spec("topk(2)").name == "topk(2)"
        assert accumulator_from_spec("select_at(3)").name == "select_at(3)"
        acc = accumulator_from_spec('precedes(["a"],["b"])')
        assert acc.monoid.is_finite

    def test_dfa_from_file(self, tmp_path):
        path = tmp_path / "machine.json"
        path.write_text(json.dumps(TOGGLE_MACHINE))
        acc = accumulator_from_spec(f'dfa("{path}")')
        assert acc.monoid.is_finite
        assert accumulate_list(acc, (("a",),)) == (1, 0)

    def test_dfa_relative_to_base_dir(self, tmp_path):
        (tmp_path / "m.json").write_text(json.dumps(TOGGLE_MACHINE))
        acc = accumulator_from_spec('dfa("m.json")', base_dir=tmp_path)
        assert acc.monoid.is_finite

    def test_value_codecs(self):
        acc = accumulator_from_spec("concat")
        assert acc.parse_value('[["a", 1]]') == (("a", 1),)
        assert acc.format_value((("a", 1),)) == '[["a", 1]]'
        acc = accumulator_from_spec("sum")
        assert acc.parse_value("12") == 12

    def test_errors(self):
        with pytest.raises(ParseError):
            accumulator_from_spec("nope")
        with pytest.raises(ParseError):
            accumulator_from_spec("topk(0)")
        with pytest.raises(ParseError):
            accumulator_from_spec("precedes(1, 2)")
        with pytest.raises(ParseError):
            accumulator_from_spec('precedes(["a"],["a"])')
        with pytest.raises(ParseError):
            accumulator_from_spec("topk(")
