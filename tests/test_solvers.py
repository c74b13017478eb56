"""Solver goldens, dispatch behavior, witnesses and oracle agreement."""

from __future__ import annotations

import random

import pytest

from conftest import (
    brute_worlds,
    random_bounded_width_poset,
    random_low_ia_poset,
    random_poset,
)
from ordlattice.accum import (
    AccumMap,
    Accumulator,
    GroupByAccumulator,
    Monoid,
    accumulate_list,
    concat_accumulator,
    count_accumulator,
    group_by_results,
    precedes_accumulator,
    sum_accumulator,
    topk_accumulator,
)
from ordlattice.algebra import (
    Attr,
    ChainConst,
    Cmp,
    Const,
    DirProduct,
    DupElim,
    LexProduct,
    PoDatabase,
    Projection,
    RelName,
    Selection,
    SingletonConst,
    Union,
    evaluate,
    po_union,
)
from ordlattice.core import (
    is_linear_extension,
    validate_po_relation,
    world_of,
)
from ordlattice.errors import (
    NotCancellativeError,
    PositionError,
    ResourceExceeded,
)
from ordlattice.solvers import (
    DispatchPolicy,
    PrecedenceAnswer,
    cert,
    cert_accum,
    cert_group_by,
    cert_safe_swaps,
    poss,
    poss_accum,
    poss_backtracking,
    poss_bounded_width_dp,
    poss_cert_dedup,
    poss_group_by,
    poss_union_width_iawidth,
    select_at_k,
    top_k,
    tuple_precedence,
)
from test_accum import toggle_accumulator
from test_algebra import restaurants_db


def weighted_sum_accumulator() -> Accumulator:
    """Position-weighted integer sum: cancellative but position-dependent."""
    return Accumulator(
        "weighted-sum",
        Monoid("integer-sum", 0, lambda a, b: a + b, is_cancellative=True),
        AccumMap(lambda row, pos: row[0] * pos),
    )


def cuisines_db() -> PoDatabase:
    labels = {
        0: ("Gagnaire", "fr"),
        1: ("Italia", "it"),
        2: ("TourArgent", "fr"),
        3: ("Verdi", "it"),
        4: ("Tsukizi", "jp"),
        5: ("Sola", "jp"),
    }
    pairs = [(0, 2), (1, 2), (2, 4), (3, 4), (3, 5)]
    return PoDatabase({"Menu": validate_po_relation(range(6), labels, pairs, arity=2)})


def unwrap(values):
    return tuple(v for (v,) in values)


class TestListGoldens:
    def test_cuisine_projection_poss(self):
        q = Projection((2,), RelName("Menu"))
        target = tuple((v,) for v in ("it", "fr", "jp", "it", "fr", "jp"))
        verdict = poss(q, cuisines_db(), target)
        assert verdict.answer
        assert is_linear_extension(verdict.relation, verdict.witness)
        assert world_of(verdict.relation, verdict.witness) == target

    def test_cuisine_projection_cert_fails_with_counterexample(self):
        q = Projection((2,), RelName("Menu"))
        db = cuisines_db()
        target = tuple((v,) for v in ("it", "fr", "jp", "it", "fr", "jp"))
        verdict = cert(q, db, target)
        assert not verdict.answer
        counter = verdict.witness
        assert counter is not None and counter != target
        assert poss(q, db, counter).answer
        # the other published ordering is possible too
        other = tuple((v,) for v in ("it", "fr", "fr", "it", "jp", "jp"))
        assert poss(q, db, other).answer

    def test_same_district_join_is_certain(self):
        db = restaurants_db()
        q = Selection(Cmp(Attr(2), Attr(4)), DirProduct(RelName("Rest"), RelName("Hotel2")))
        world = (("Gagnaire", "8", "Balzac", "8"), ("TourArgent", "5", "Mercure", "5"))
        assert cert(q, db, world).answer
        assert poss(q, db, world).answer
        swapped = (world[1], world[0])
        verdict = cert(q, db, swapped)
        assert not verdict.answer and verdict.witness == world

    def test_chain_unique_world(self):
        q = ChainConst(4)
        world = ((1,), (2,), (3,), (4,))
        assert poss(q, {}, world).answer
        assert cert(q, {}, world).answer

    def test_shuffle_of_two_equal_chains(self):
        a = validate_po_relation([0, 1], {0: ("a",), 1: ("b",)}, [(0, 1)])
        db = {"A": a, "B": a}
        q = Union(RelName("A"), RelName("B"))
        bad = (("b",), ("a",), ("a",), ("b",))
        good = (("a",), ("b",), ("a",), ("b",))
        assert not poss(q, db, bad).answer
        assert poss(q, db, good).answer

    def test_empty_candidates(self):
        q = Selection(Cmp(Attr(1), Const("nope")), RelName("Rest"))
        db = restaurants_db()
        assert poss(q, db, ()).answer
        assert cert(q, db, ()).answer

    def test_complete_failure_is_vacuously_false(self):
        db = restaurants_db()
        q = DupElim(Projection((1,), RelName("Hotel")))
        assert not poss(q, db, (("Mercure",), ("Balzac",))).answer
        assert not cert(q, db, (("Mercure",), ("Balzac",))).answer
        assert poss(q, db, ()).method == "complete_failure"


class TestDedupSolver:
    def test_merged_rankings(self):
        db = restaurants_db().relations
        db["Rest2"] = validate_po_relation([0, 1], {0: ("Tsukizi",), 1: ("Gagnaire",)}, [(0, 1)])
        q = DupElim(Union(Projection((1,), RelName("Rest")), RelName("Rest2")))
        world = (("Tsukizi",), ("Gagnaire",), ("TourArgent",))
        poss_v, cert_v = poss_cert_dedup(q, db, world)
        assert poss_v.answer and cert_v.answer
        assert poss_v.method == "dedup"

    def test_wrong_multiset_rejected(self):
        q = DupElim(Projection((1,), RelName("Rest")))
        db = restaurants_db()
        poss_v, cert_v = poss_cert_dedup(q, db, (("Gagnaire",), ("Gagnaire",)))
        assert not poss_v.answer and not cert_v.answer

    def test_requires_duplicate_free(self):
        db = {"A": validate_po_relation([0, 1], {0: ("x",), 1: ("x",)}, [])}
        with pytest.raises(ValueError):
            poss_cert_dedup(RelName("A"), db, (("x",), ("x",)))

    def test_dispatcher_picks_dedup(self):
        verdict = poss(RelName("Rest"), restaurants_db(), (("Gagnaire", "8"), ("TourArgent", "5")))
        assert verdict.answer and verdict.method == "dedup"

    def test_random_dup_free_instances(self):
        rnd = random.Random(301)
        for _ in range(60):
            n = rnd.randint(0, 7)
            labels = {i: (i,) for i in range(n)}
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rnd.random() < 0.3]
            r = validate_po_relation(range(n), labels, pairs)
            db = {"R": r}
            worlds = brute_worlds(r)
            candidates = set(list(worlds)[:2])
            rows = list(r.rows_by_position())
            rnd.shuffle(rows)
            candidates.add(tuple(rows))
            for cand in candidates:
                poss_v, cert_v = poss_cert_dedup(RelName("R"), db, cand)
                assert poss_v.answer == (cand in worlds)
                assert cert_v.answer == (worlds == {cand})


class TestBoundedWidthDP:
    def test_single_chain(self):
        r = validate_po_relation(range(3), {i: ("x", i) for i in range(3)}, [(0, 1), (1, 2)])
        world = tuple(r.label(i) for i in (0, 1, 2))
        assert poss_bounded_width_dp(r, world).answer

    def test_diamond_worlds(self):
        db = restaurants_db()
        q = DirProduct(RelName("Rest"), Selection(Cmp(Attr(2), Const("12"), negated=True), RelName("Hotel")))
        r = evaluate(q, db)
        worlds = sorted(brute_worlds(r))
        assert len(worlds) == 2
        for world in worlds:
            assert poss_bounded_width_dp(r, world).answer
        import itertools

        rows = r.rows_by_position()
        for perm in itertools.permutations(range(4)):
            candidate = tuple(rows[i] for i in perm)
            assert poss_bounded_width_dp(r, candidate).answer == (candidate in worlds)

    def test_matches_backtracking_on_random_instances(self):
        rnd = random.Random(303)
        policy = DispatchPolicy()
        for _ in range(80):
            r = random_bounded_width_poset(rnd, rnd.randint(0, 8), width=rnd.randint(1, 4), values=("a", "b"))
            worlds = brute_worlds(r)
            candidates = list(worlds)[:2]
            rows = list(r.rows_by_position())
            rnd.shuffle(rows)
            candidates.append(tuple(rows))
            for cand in candidates:
                got = poss_bounded_width_dp(r, cand)
                assert got.answer == (cand in worlds)
                assert got.answer == poss_backtracking(r, cand, policy).answer
                if got.answer:
                    assert is_linear_extension(r, got.witness)
                    assert world_of(r, got.witness) == cand

    def test_dispatcher_uses_width_dp_for_low_bound_queries(self):
        a = validate_po_relation(range(3), {0: ("x",), 1: ("x",), 2: ("y",)}, [(0, 1), (1, 2)])
        db = {"A": a, "B": a}
        q = Union(RelName("A"), RelName("B"))
        candidate = tuple(a.rows_by_position()) * 2
        verdict = poss(q, db, candidate)
        assert verdict.method == "width_dp"

    def test_dispatcher_measures_only_referenced_relations(self, monkeypatch):
        from ordlattice import solvers

        measured = []
        real = solvers.width_and_chain_partition
        monkeypatch.setattr(solvers, "width_and_chain_partition", lambda r: measured.append(r.size) or real(r))
        a = validate_po_relation(range(3), {0: ("x",), 1: ("x",), 2: ("y",)}, [(0, 1)])
        db = {"A": a, "Unused": validate_po_relation(range(9), {i: ("z",) for i in range(9)}, [])}
        candidate = (("x",), ("y",), ("x",))
        assert poss(RelName("A"), db, candidate).method == "width_dp"
        assert poss_accum(concat_accumulator(), RelName("A"), db, candidate).method == "width_dp"
        assert measured and 9 not in measured

    def test_dispatcher_uses_width_dp_on_low_width_products(self):
        # the direct product has no static width bound, but a chain times a
        # chain of two has measured width at most 2
        rnd = random.Random(309)
        checked = 0
        for _ in range(40):
            n = rnd.randint(2, 4)
            dup = validate_po_relation(range(n), {i: (rnd.choice("ab"),) for i in range(n)}, [(i, i + 1) for i in range(n - 1)])
            pair = validate_po_relation(range(2), {0: ("p",), 1: ("q",)}, [(0, 1)] if rnd.random() < 0.5 else [])
            db = {"Dup": dup, "Pair": pair}
            q = DirProduct(RelName("Dup"), RelName("Pair"))
            r = evaluate(q, db)
            if len(set(r.rows_by_position())) == r.size:
                continue
            worlds = brute_worlds(r)
            rows = list(r.rows_by_position())
            rnd.shuffle(rows)
            for cand in list(worlds)[:2] + [tuple(rows)]:
                verdict = poss(q, db, cand)
                assert verdict.method == "width_dp"
                assert verdict.answer == (cand in worlds)
                if verdict.answer:
                    assert is_linear_extension(r, verdict.witness)
                    assert world_of(r, verdict.witness) == cand
                checked += 1
        assert checked > 60


class TestUnionWidthIaDP:
    def test_ia_only_multiset_permutations(self):
        empty = validate_po_relation([], {}, [], arity=1)
        r_ia = validate_po_relation(range(3), {i: ("x",) for i in range(3)}, [])
        world = (("x",),) * 3
        assert poss_union_width_iawidth(empty, r_ia, world).answer

    def test_empty_ia_reduces_to_width_dp(self):
        rnd = random.Random(305)
        empty = validate_po_relation([], {}, [], arity=1)
        for _ in range(20):
            r = random_bounded_width_poset(rnd, rnd.randint(0, 6), width=2)
            worlds = brute_worlds(r)
            for cand in list(worlds)[:2]:
                assert poss_union_width_iawidth(r, empty, cand).answer
                assert poss_union_width_iawidth(r, empty, cand).answer == poss_bounded_width_dp(r, cand).answer

    def test_matches_enumeration_on_mixed_instances(self):
        rnd = random.Random(307)
        for _ in range(60):
            r_w = random_bounded_width_poset(rnd, rnd.randint(0, 5), width=2)
            r_ia = random_low_ia_poset(rnd, rnd.randint(0, 5), classes=2)
            union_rel = po_union(r_w, r_ia)
            worlds = brute_worlds(union_rel)
            candidates = list(worlds)[:2]
            rows = list(union_rel.rows_by_position())
            rnd.shuffle(rows)
            candidates.append(tuple(rows))
            for cand in candidates:
                got = poss_union_width_iawidth(r_w, r_ia, cand)
                assert got.answer == (cand in worlds)
                if got.answer:
                    assert is_linear_extension(got.relation, got.witness)
                    assert world_of(got.relation, got.witness) == cand

    def test_finishing_order_cap(self):
        empty = validate_po_relation([], {}, [], arity=1)
        r_ia = validate_po_relation(range(4), {i: (i,) for i in range(4)}, [(i, i + 1) for i in range(3)])
        with pytest.raises(ResourceExceeded):
            poss_union_width_iawidth(empty, r_ia, ((0,), (1,), (2,), (3,)), DispatchPolicy(finishing_classes_limit=2))

    def test_dispatcher_uses_union_dp(self):
        chain = validate_po_relation(range(2), {0: ("x",), 1: ("x",)}, [(0, 1)])
        cloud = validate_po_relation(range(6), {i: ("y",) for i in range(6)}, [])
        db = {"C": chain, "U": cloud}
        q = Union(RelName("C"), RelName("U"))
        candidate = (("x",), ("x",)) + (("y",),) * 6
        verdict = poss(q, db, candidate)
        assert verdict.answer and verdict.method == "union_dp"

    def test_dispatcher_never_uses_union_dp_with_products(self):
        cloud = validate_po_relation(range(5), {i: ("y",) for i in range(5)}, [])
        db = {"U": cloud}
        q = LexProduct(RelName("U"), SingletonConst(("z",)))
        world = tuple(sorted(brute_worlds(evaluate(q, db)))[0])
        verdict = poss(q, db, world)
        assert verdict.method == "backtracking"
        q2 = DirProduct(RelName("U"), SingletonConst(("z",)))
        verdict = poss(q2, db, world)
        assert verdict.method == "backtracking"


class TestBacktracking:
    def test_cap_raises(self):
        r = validate_po_relation(range(15), {i: ("x",) for i in range(15)}, [])
        with pytest.raises(ResourceExceeded):
            poss_backtracking(r, (("x",),) * 15, DispatchPolicy(brute_elements_limit=14))

    def test_agrees_with_enumeration(self):
        rnd = random.Random(309)
        for _ in range(40):
            r = random_poset(rnd, rnd.randint(0, 7), edge_prob=0.3)
            worlds = brute_worlds(r)
            cands = list(worlds)[:2]
            rows = list(r.rows_by_position())
            rnd.shuffle(rows)
            cands.append(tuple(rows))
            for cand in cands:
                got = poss_backtracking(r, cand)
                assert got.answer == (cand in worlds)
                if got.answer:
                    assert is_linear_extension(r, got.witness)
                    assert world_of(r, got.witness) == cand


class TestCertSafeSwaps:
    def test_equal_incomparable_tuples_certain(self):
        r = validate_po_relation([0, 1], {0: ("x",), 1: ("x",)}, [])
        acc = concat_accumulator()
        verdict = cert_safe_swaps(acc, r, (("x",), ("x",)))
        assert verdict.answer

    def test_distinct_incomparable_tuples_not_certain(self):
        r = validate_po_relation([0, 1], {0: ("x",), 1: ("y",)}, [])
        acc = concat_accumulator()
        verdict = cert_safe_swaps(acc, r, (("x",), ("y",)))
        assert not verdict.answer
        assert verdict.witness in brute_results(acc, r)

    def test_requires_cancellative(self):
        r = validate_po_relation([0], {0: ("a",)}, [])
        with pytest.raises(NotCancellativeError):
            cert_safe_swaps(precedes_accumulator(("a",), ("b",)), r, "top")

    def test_matches_bruteforce_with_position_weights(self):
        rnd = random.Random(311)
        acc = weighted_sum_accumulator()
        for _ in range(60):
            r = random_poset(rnd, rnd.randint(1, 7), edge_prob=0.4, values=(1, 2, 3))
            results = brute_results(acc, r)
            value = sorted(results)[0]
            verdict = cert_safe_swaps(acc, r, value)
            assert verdict.answer == (results == {value})
            missing = max(results) + 1
            assert not cert_safe_swaps(acc, r, missing).answer

    def test_position_invariant_concat_random(self):
        rnd = random.Random(313)
        acc = concat_accumulator()
        for _ in range(40):
            r = random_poset(rnd, rnd.randint(0, 6), edge_prob=0.4)
            results = brute_results(acc, r)
            for value in list(results)[:2]:
                assert cert_safe_swaps(acc, r, value).answer == (results == {value})


def brute_results(acc, r):
    return {accumulate_list(acc, world) for world in brute_worlds(r)}


class TestPositionProblems:
    def test_select_at_on_chain(self):
        q = ChainConst(3)
        assert select_at_k(q, {}, (2,), 2) == (True, True)
        assert select_at_k(q, {}, (1,), 2) == (False, False)

    def test_select_at_on_antichain(self):
        db = {"A": validate_po_relation([0, 1], {0: ("a",), 1: ("b",)}, [])}
        assert select_at_k(RelName("A"), db, ("a",), 1) == (True, False)
        assert select_at_k(RelName("A"), db, ("b",), 1) == (True, False)

    def test_select_at_bad_position(self):
        with pytest.raises(PositionError):
            select_at_k(ChainConst(2), {}, (1,), 3)

    def test_select_at_matches_enumeration(self):
        rnd = random.Random(317)
        for _ in range(60):
            r = random_poset(rnd, rnd.randint(1, 7), edge_prob=0.35)
            db = {"R": r}
            worlds = brute_worlds(r)
            k = rnd.randint(1, r.size)
            for row in {w[k - 1] for w in worlds} | {("zzz",)}:
                got = select_at_k(RelName("R"), db, row, k)
                expected_poss = any(w[k - 1] == row for w in worlds)
                expected_cert = all(w[k - 1] == row for w in worlds)
                assert got == (expected_poss, expected_cert)

    def test_top1_diamond_unique_minimum(self):
        db = restaurants_db()
        q = DirProduct(RelName("Rest"), Selection(Cmp(Attr(2), Const("12"), negated=True), RelName("Hotel")))
        best = ("Gagnaire", "8", "Mercure", "5")
        assert top_k(q, db, (best,), 1) == (True, True)

    def test_topk_full_length_reduces_to_world_check(self):
        q = ChainConst(3)
        world = ((1,), (2,), (3,))
        assert top_k(q, {}, world, 3, DispatchPolicy(topk_limit=3)) == (True, True)

    def test_topk_cap(self):
        with pytest.raises(ResourceExceeded):
            top_k(ChainConst(5), {}, ((1,), (2,), (3,), (4,)), 4)

    def test_topk_matches_enumeration(self):
        rnd = random.Random(319)
        for _ in range(60):
            r = random_poset(rnd, rnd.randint(1, 7), edge_prob=0.35)
            db = {"R": r}
            worlds = brute_worlds(r)
            k = rnd.randint(1, min(3, r.size))
            prefixes = {w[:k] for w in worlds}
            candidates = set(list(prefixes)[:2])
            candidates.add((("zzz",),) * k)
            for cand in candidates:
                got = top_k(RelName("R"), db, cand, k)
                assert got == (cand in prefixes, prefixes == {cand})

    def test_topk_k1_agrees_with_select_at_1(self):
        rnd = random.Random(323)
        for _ in range(30):
            r = random_poset(rnd, rnd.randint(1, 6), edge_prob=0.35)
            db = {"R": r}
            values = set(r.rows_by_position())
            for row in values:
                assert top_k(RelName("R"), db, (row,), 1) == select_at_k(RelName("R"), db, row, 1)

    def test_precedence_chain_and_antichain(self):
        chain = validate_po_relation([0, 1], {0: ("a",), 1: ("b",)}, [(0, 1)])
        assert tuple_precedence(RelName("R"), {"R": chain}, ("a",), ("b",)) == PrecedenceAnswer(True, True, False)
        anti = validate_po_relation([0, 1], {0: ("a",), 1: ("b",)}, [])
        assert tuple_precedence(RelName("R"), {"R": anti}, ("a",), ("b",)) == PrecedenceAnswer(True, False, False)

    def test_precedence_vacuous(self):
        r = validate_po_relation([0], {0: ("a",)}, [])
        got = tuple_precedence(RelName("R"), {"R": r}, ("a",), ("zz",))
        assert got.vacuous and got.poss and got.cert
        got = tuple_precedence(RelName("R"), {"R": r}, ("zz",), ("a",))
        assert got.vacuous and not got.poss and not got.cert

    def test_precedence_matches_enumeration(self):
        rnd = random.Random(329)
        for _ in range(60):
            r = random_poset(rnd, rnd.randint(2, 7), edge_prob=0.3, values=("a", "b", "c"))
            db = {"R": r}
            worlds = brute_worlds(r)
            for t1, t2 in ((("a",), ("b",)), (("b",), ("c",))):
                got = tuple_precedence(RelName("R"), db, t1, t2)
                if got.vacuous:
                    continue

                def leads(world):
                    first = world.index(t1) if t1 in world else None
                    return first is not None and all(i > first for i, row in enumerate(world) if row == t2)

                expected_poss = any(leads(w) for w in worlds)
                expected_cert = all(leads(w) for w in worlds)
                assert (got.poss, got.cert) == (expected_poss, expected_cert)


class TestAccumSolvers:
    def test_concat_reduces_to_list_problems(self):
        db = cuisines_db()
        q = Projection((2,), RelName("Menu"))
        acc = concat_accumulator()
        target = tuple((v,) for v in ("it", "fr", "jp", "it", "fr", "jp"))
        assert poss_accum(acc, q, db, target).answer == poss(q, db, target).answer
        assert cert_accum(acc, q, db, target).answer == cert(q, db, target).answer

    def test_commutative_monoid_certain(self):
        db = cuisines_db()
        acc = sum_accumulator()
        q = Projection((2,), RelName("Menu"))
        # strings are not summable: use a numeric projection instead
        num = validate_po_relation(range(3), {i: (i + 1,) for i in range(3)}, [])
        verdict = cert_accum(acc, RelName("N"), {"N": num}, 6)
        assert verdict.answer and verdict.method == "safe_swaps"

    def test_cancellative_poss_from_safe_swaps(self):
        # every world folds to one value, so POSS is an equality test at any size
        nums = validate_po_relation(range(20), {i: (i % 7,) for i in range(20)}, [(0, 5), (3, 9)])
        for acc, value in ((count_accumulator(), 20), (sum_accumulator(), sum(i % 7 for i in range(20)))):
            yes = poss_accum(acc, RelName("N"), {"N": nums}, value)
            assert yes.answer and yes.method == "safe_swaps"
            assert is_linear_extension(yes.relation, yes.witness)
            assert accumulate_list(acc, world_of(yes.relation, yes.witness)) == value
            no = poss_accum(acc, RelName("N"), {"N": nums}, value + 1)
            assert not no.answer and no.method == "safe_swaps"
        rnd = random.Random(347)
        for _ in range(30):
            r = random_poset(rnd, rnd.randint(0, 6), edge_prob=0.3, values=(0, 1, 2))
            for acc in (count_accumulator(), sum_accumulator()):
                (only,) = brute_results(acc, r)
                for value in (only, only + 1):
                    assert poss_accum(acc, RelName("R"), {"R": r}, value).answer == (value == only)
        # the first two of several labels are not one value: the old path still refuses
        mixed = validate_po_relation(range(15), {i: ("ab"[i % 2],) for i in range(15)}, [])
        with pytest.raises(ResourceExceeded):
            poss_accum(topk_accumulator(2), RelName("R"), {"R": mixed}, (("a",), ("b",)))

    def test_finite_bounded_width_dp_used(self):
        rnd = random.Random(331)
        acc = toggle_accumulator()
        for _ in range(40):
            r = random_bounded_width_poset(rnd, rnd.randint(0, 7), width=2)
            db = {"R": r}
            results = brute_results(acc, r)
            for value in list(results)[:2] + [("bogus",)]:
                got_p = poss_accum(acc, RelName("R"), db, value)
                got_c = cert_accum(acc, RelName("R"), db, value)
                assert got_p.answer == (value in results)
                assert got_c.answer == (results == {value})
                if r.size and got_p.method != "complete_failure":
                    assert got_p.method == "bounded_width_accum"
                if got_p.answer:
                    assert accumulate_list(acc, world_of(got_p.relation, got_p.witness)) == value

    def test_finite_noprod_union_dp_used(self):
        rnd = random.Random(337)
        acc = toggle_accumulator()
        policy = DispatchPolicy(width_limit=1)
        for _ in range(30):
            r_w = random_bounded_width_poset(rnd, rnd.randint(1, 4), width=1)
            r_ia = random_low_ia_poset(rnd, rnd.randint(1, 4), classes=2)
            db = {"W": r_w, "U": r_ia}
            q = Union(RelName("W"), RelName("U"))
            union_rel = po_union(r_w, r_ia)
            results = brute_results(acc, union_rel)
            for value in list(results)[:2]:
                got = poss_accum(acc, q, db, value, policy)
                assert got.answer
                if got.method == "noprod_union_accum":
                    assert is_linear_extension(got.relation, got.witness)
                    assert accumulate_list(acc, world_of(got.relation, got.witness)) == value
                got_c = cert_accum(acc, q, db, value, policy)
                assert got_c.answer == (results == {value})

    def test_bruteforce_fallback_and_caps(self):
        # position-dependent map disables the ia fast path, and two labels
        # give more than one value, so safe swaps cannot answer either; the
        # wide relation then exceeds the brute-force cap
        import dataclasses

        from ordlattice.accum import select_at_accumulator

        base = select_at_accumulator(1)
        acc = dataclasses.replace(
            base, monoid=dataclasses.replace(base.monoid, is_finite=True, elements=((), (("a",),), (("b",),)))
        )
        big = validate_po_relation(range(15), {i: ("ab"[i % 2],) for i in range(15)}, [])
        with pytest.raises(ResourceExceeded):
            poss_accum(acc, RelName("R"), {"R": big}, (("a",),), DispatchPolicy(width_limit=1))

    def test_position_dependent_finite_falls_back_to_bruteforce(self):
        rnd = random.Random(341)
        from ordlattice.accum import select_at_accumulator
        import dataclasses

        base = select_at_accumulator(1)
        rows = ((), (("a",),), (("b",),), (("c",),))
        acc = dataclasses.replace(base, monoid=dataclasses.replace(base.monoid, is_finite=True, elements=rows))
        for _ in range(20):
            r = random_low_ia_poset(rnd, rnd.randint(1, 4), classes=2)
            db = {"R": r}
            q = Union(RelName("R"), RelName("R"))
            union_rel = po_union(r, r)
            results = brute_results(acc, union_rel)
            policy = DispatchPolicy(width_limit=1)
            for value in list(results)[:2]:
                got = poss_accum(acc, q, db, value, policy)
                # a cancellative monoid with a single value is answered by safe swaps
                assert got.answer and got.method == ("safe_swaps" if len(results) == 1 else "bruteforce")


class TestGroupBySolvers:
    def test_single_group_matches_cert_accum(self):
        r = validate_po_relation(range(3), {i: ("g", i) for i in range(3)}, [(0, 1), (1, 2)], arity=2)
        gacc = GroupByAccumulator(concat_accumulator(), (1,))
        world = tuple(r.label(i) for i in range(3))
        verdict = cert_group_by(gacc, RelName("R"), {"R": r}, [(("g",), world)])
        assert verdict.answer

    def test_cross_group_incomparability_still_certain(self):
        labels = {0: ("g1", "x"), 1: ("g2", "y")}
        r = validate_po_relation(range(2), labels, [], arity=2)
        gacc = GroupByAccumulator(concat_accumulator(), (1,))
        candidate = [(("g1",), (("g1", "x"),)), (("g2",), (("g2", "y"),))]
        assert cert_group_by(gacc, RelName("R"), {"R": r}, candidate).answer

    def test_wrong_groups_rejected(self):
        r = validate_po_relation(range(2), {0: ("g1", "x"), 1: ("g2", "y")}, [], arity=2)
        gacc = GroupByAccumulator(concat_accumulator(), (1,))
        assert not cert_group_by(gacc, RelName("R"), {"R": r}, [(("g1",), (("g1", "x"),))]).answer

    def test_matches_group_results_oracle(self):
        rnd = random.Random(347)
        gacc = GroupByAccumulator(concat_accumulator(), (1,))
        for _ in range(40):
            r = random_poset(rnd, rnd.randint(0, 6), edge_prob=0.35, arity=2)
            db = {"R": r}
            results = group_by_results(gacc, r)
            for outcome in list(results)[:2]:
                candidate = sorted(outcome)
                got_c = cert_group_by(gacc, RelName("R"), db, candidate)
                assert got_c.answer == (results == {outcome})
                got_p = poss_group_by(gacc, RelName("R"), db, candidate)
                assert got_p.answer

    def test_poss_group_by_rejects_non_results(self):
        r = validate_po_relation(range(2), {0: ("g", "x"), 1: ("g", "y")}, [], arity=2)
        gacc = GroupByAccumulator(concat_accumulator(), (1,))
        bogus = [(("g",), (("g", "zzz"),))]
        assert not poss_group_by(gacc, RelName("R"), {"R": r}, bogus).answer


class TestVerdictInvariants:
    def test_cert_implies_poss(self):
        rnd = random.Random(353)
        for _ in range(40):
            r = random_poset(rnd, rnd.randint(0, 6), edge_prob=0.4)
            db = {"R": r}
            worlds = brute_worlds(r)
            for cand in list(worlds)[:2]:
                if cert(RelName("R"), db, cand).answer:
                    assert poss(RelName("R"), db, cand).answer
                    assert worlds == {cand}

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            DispatchPolicy(width_limit=0)
        with pytest.raises(ValueError):
            DispatchPolicy(world_limit=-1)
