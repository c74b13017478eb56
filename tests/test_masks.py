"""The descendant/ancestor mask invariant of every constructor, and the
mask-based kernels checked against pair-by-pair oracles.

Every :class:`PoRelation` stores its closed order twice: ``_desc[i]`` has
bit ``j`` exactly when ``_anc[j]`` has bit ``i``.  The oracles here work on
the raw pairs (a Warshall closure, nested pair loops) instead.
"""

from __future__ import annotations

import itertools
import random

import pytest

from conftest import random_bounded_width_poset, random_low_ia_poset, random_poset
from ordlattice.algebra import (
    ChainConst,
    Cmp,
    Attr,
    Const,
    _extension_forcing,
    dup_elim,
    evaluate,
    po_concat,
    po_dirprod,
    po_lexprod,
    po_projection,
    po_selection,
    po_union,
)
from ordlattice.core import (
    PoRelation,
    _find_cycle,
    is_linear_extension,
    validate_po_relation,
)
from ordlattice import solvers
from ordlattice.accum import (
    AccumMap,
    Accumulator,
    Monoid,
    concat_accumulator,
    count_accumulator,
    sum_accumulator,
    topk_accumulator,
)
from ordlattice.algebra import RelName
from ordlattice.core import possible_ranks
from ordlattice.errors import CycleError
from ordlattice.solvers import _dedup_pair, _unequal_incomparable_pairs, _unsafe_swap


def assert_masks_consistent(r: PoRelation):
    """``_anc`` is the transpose of ``_desc``, which is closed and irreflexive."""
    n = r.size
    assert len(r._desc) == len(r._anc) == n
    for i in range(n):
        assert not r._desc[i] >> i & 1
        for j in range(n):
            assert (r._anc[j] >> i & 1) == (r._desc[i] >> j & 1), (i, j)
            if r._desc[i] >> j & 1:
                assert r._desc[j] & ~r._desc[i] == 0, (i, j)


def warshall(n: int, succ: list) -> list:
    closed = list(succ)
    for k in range(n):
        for i in range(n):
            if closed[i] >> k & 1:
                closed[i] |= closed[k]
    return closed


def random_relations(rnd: random.Random):
    n = rnd.randint(0, 7)
    yield random_poset(rnd, n, edge_prob=rnd.random())
    yield random_bounded_width_poset(rnd, n, rnd.randint(1, 3))
    yield random_low_ia_poset(rnd, n, rnd.randint(1, 3))


class TestMaskInvariant:
    def test_validate(self):
        rnd = random.Random(11)
        for _ in range(60):
            for r in random_relations(rnd):
                assert_masks_consistent(r)

    def test_binary_operators(self):
        rnd = random.Random(12)
        for _ in range(40):
            left = rnd.choice(list(random_relations(rnd)))
            right = rnd.choice(list(random_relations(rnd)))
            for op in (po_union, po_concat, po_dirprod, po_lexprod):
                assert_masks_consistent(op(left, right))

    def test_products_match_their_definitions(self):
        rnd = random.Random(13)
        for _ in range(30):
            left, right = random_poset(rnd, rnd.randint(0, 5)), random_poset(rnd, rnd.randint(0, 5))
            n2 = right.size
            for op, less in (
                (po_dirprod, lambda i, j, i2, j2: (i, j) != (i2, j2) and (i == i2 or left._desc[i] >> i2 & 1)
                 and (j == j2 or right._desc[j] >> j2 & 1)),
                (po_lexprod, lambda i, j, i2, j2: left._desc[i] >> i2 & 1 or (i == i2 and right._desc[j] >> j2 & 1)),
            ):
                r = op(left, right)
                for (i, j), (i2, j2) in itertools.product(itertools.product(range(left.size), range(n2)), repeat=2):
                    assert bool(r._desc[i * n2 + j] >> (i2 * n2 + j2) & 1) == bool(less(i, j, i2, j2))

    def test_unary_operators(self):
        rnd = random.Random(14)
        for _ in range(60):
            r = random_poset(rnd, rnd.randint(0, 8), edge_prob=rnd.random(), arity=2)
            keep_a = Cmp(Attr(1), Const(rnd.choice("abc")), negated=rnd.random() < 0.5)
            for derived in (
                po_selection(keep_a, r),
                po_projection((2,), r),
                r.reindexed(),
                r.restrict(rnd.sample(r.ids, rnd.randint(0, r.size))),
            ):
                assert_masks_consistent(derived)
            result = dup_elim(po_projection((1,), r))
            if isinstance(result, PoRelation):
                assert_masks_consistent(result)

    def test_chain_constant(self):
        for n in range(6):
            r = evaluate(ChainConst(n), {})
            assert_masks_consistent(r)
            assert all(r.less(i, j) for i in range(n) for j in range(i + 1, n))

    def test_extension_forcing(self):
        rnd = random.Random(15)
        for _ in range(40):
            r = random_poset(rnd, rnd.randint(2, 7), edge_prob=0.3)
            pairs = [(x, y) for x, y in itertools.permutations(r.ids, 2) if not r.comparable(x, y)]
            if not pairs:
                continue
            before, after = rnd.choice(pairs)
            ext = _extension_forcing(r, before=before, after=after)
            assert is_linear_extension(r, ext)
            assert ext.index(before) < ext.index(after)


class TestClosure:
    def test_matches_warshall_and_reports_the_same_cycle(self):
        rnd = random.Random(21)
        cyclic = 0
        for _ in range(400):
            n = rnd.randint(1, 8)
            ids = rnd.sample(range(3 * n), n)
            pairs = [(rnd.choice(ids), rnd.choice(ids)) for _ in range(rnd.randint(0, 2 * n))]
            id_list = sorted(ids)
            index = {ident: pos for pos, ident in enumerate(id_list)}
            succ = [0] * n
            for x, y in pairs:
                succ[index[x]] |= 1 << index[y]
            closed = warshall(n, succ)
            first_cyclic = next((i for i in range(n) if closed[i] >> i & 1), None)
            labels = {ident: ("v",) for ident in ids}
            if first_cyclic is None:
                r = validate_po_relation(ids, labels, pairs)
                assert list(r._desc) == closed
                assert_masks_consistent(r)
            else:
                cyclic += 1
                with pytest.raises(CycleError) as exc:
                    validate_po_relation(ids, labels, pairs)
                assert exc.value.cycle == _find_cycle(id_list, succ, first_cyclic)
        assert cyclic > 100

    def test_cycle_below_a_long_downstream_chain(self):
        # positions 0..n-3 are only reached from the 2-cycle on the top two ids
        n = 200
        pairs = [(n - 1, n - 2), (n - 2, n - 1), (n - 1, 0)] + [(i, i + 1) for i in range(n - 3)]
        with pytest.raises(CycleError) as exc:
            validate_po_relation(range(n), {i: ("v",) for i in range(n)}, pairs)
        assert exc.value.cycle == (n - 2, n - 1)


def _random_extension(rnd: random.Random, r: PoRelation) -> list:
    used, out = 0, []
    while len(out) < r.size:
        ready = [p for p in range(r.size) if not used >> p & 1 and not r._anc[p] & ~used]
        p = rnd.choice(ready)
        used |= 1 << p
        out.append(r.ids[p])
    return out


class TestMatchingKernels:
    def test_dedup_poss_agrees_with_linear_extension_check(self):
        rnd = random.Random(31)
        planted_no = 0
        for _ in range(150):
            base = random_poset(rnd, rnd.randint(1, 8), edge_prob=rnd.random())
            r = validate_po_relation(base.ids, {i: (f"t{i}",) for i in base.ids}, base.order_pairs())
            yes = _random_extension(rnd, r)
            candidates = {True: yes, None: rnd.sample(list(r.ids), r.size)}
            comparable = [(a, b) for a, b in itertools.combinations(range(r.size), 2) if r.comparable(yes[a], yes[b])]
            if comparable:
                a, b = rnd.choice(comparable)
                no = list(yes)
                no[a], no[b] = no[b], no[a]
                candidates[False] = no
                planted_no += 1
            for planted, seq in candidates.items():
                verdict = _dedup_pair(r, tuple(r.label(i) for i in seq))
                assert verdict.answer == is_linear_extension(r, seq)
                assert verdict.answer == planted or planted is None
                assert verdict.witness == (tuple(seq) if verdict.answer else None)
        assert planted_no > 50

    def test_unequal_incomparable_pairs_scan_in_ascending_order(self):
        rnd = random.Random(32)
        for _ in range(100):
            r = random_poset(rnd, rnd.randint(0, 8), edge_prob=rnd.random())
            expected = [
                (i, j)
                for i, x in enumerate(r.ids)
                for j, y in enumerate(r.ids)
                if i < j and not r.comparable(x, y) and r.label(x) != r.label(y)
            ]
            assert list(_unequal_incomparable_pairs(r)) == expected


def _relabelled(rnd: random.Random, r: PoRelation):
    """``r`` with its ids shuffled, reversed and kept, so positions stop following the order."""
    n = r.size
    shuffled = list(range(n))
    rnd.shuffle(shuffled)
    for new_id in (shuffled, list(range(n - 1, -1, -1)), list(range(n))):
        pairs = [(new_id[x], new_id[y]) for x, y in r.order_pairs()]
        yield validate_po_relation(new_id, {new_id[i]: r.label(i) for i in r.ids}, pairs)


class TestHasseCoverWalk:
    def test_covers_match_their_definition(self):
        rnd = random.Random(33)
        for _ in range(120):
            n = rnd.randint(0, 14)
            bases = [
                random_poset(rnd, n, edge_prob=rnd.random()),
                random_bounded_width_poset(rnd, n, rnd.randint(1, 4)),
                random_low_ia_poset(rnd, n, rnd.randint(1, 4)),
                po_dirprod(random_poset(rnd, rnd.randint(0, 4)), random_poset(rnd, rnd.randint(0, 4))),
            ]
            for base in bases:
                for r in _relabelled(rnd, base.reindexed()):
                    closure = r.order_pairs()
                    covers = {
                        (x, y)
                        for x, y in closure
                        if not any((x, z) in closure and (z, y) in closure for z in r.ids)
                    }
                    assert r.hasse_edges() == tuple(sorted(covers))

    def test_long_chains_in_both_id_orders(self):
        n = 300
        for ids in (list(range(n)), list(range(n - 1, -1, -1))):
            r = validate_po_relation(ids, {i: ("v",) for i in ids}, list(zip(ids, ids[1:])))
            assert r.hasse_edges() == tuple(sorted(zip(ids, ids[1:])))


def _label_scan_unsafe_swap(acc, r: PoRelation):
    """The first unsafe ``(x, y, p)`` by a scan of differently labelled pairs."""
    combine, h = acc.monoid.combine, acc.map.fn
    for i, j in _unequal_incomparable_pairs(r):
        x, y = r.ids[i], r.ids[j]
        t1, t2 = r.label(x), r.label(y)
        lo, hi = possible_ranks(r, x, y)
        for p in (lo,) if acc.map.is_position_invariant else range(lo, hi):
            if combine(h(t1, p), h(t2, p + 1)) != combine(h(t2, p), h(t1, p + 1)):
                return x, y, p
    return None


class TestValueKeyedSafeSwaps:
    def test_matches_label_scan(self):
        # first-attribute concat and sum give distinct labels a shared map value
        first_concat = Accumulator(
            "concat(1)",
            Monoid("concat", neutral=(), combine=lambda a, b: a + b, is_cancellative=True),
            AccumMap(lambda row, pos: (row[0],), is_position_invariant=True),
        )
        accs = [first_concat, sum_accumulator(), concat_accumulator(), count_accumulator(), topk_accumulator(2)]
        rnd = random.Random(34)
        unsafe = 0
        for _ in range(150):
            n = rnd.randint(0, 9)
            for r in (
                random_poset(rnd, n, edge_prob=rnd.random(), arity=2, values=(0, 1, 2)),
                random_low_ia_poset(rnd, n, rnd.randint(1, 3), arity=2, values=(0, 1, 2)),
            ):
                for acc in accs:
                    expected = _label_scan_unsafe_swap(acc, r)
                    assert _unsafe_swap(acc, r) == expected
                    unsafe += expected is not None
        assert unsafe > 200


class TestMatchingSkipsCert:
    def test_dup_free_poss_builds_no_cert_verdict(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("POSS on a duplicate-free result built a CERT verdict")

        monkeypatch.setattr(solvers, "_cert_list", refuse)
        rnd = random.Random(35)
        for _ in range(60):
            base = random_poset(rnd, rnd.randint(1, 8), edge_prob=rnd.random())
            r = validate_po_relation(base.ids, {i: (f"t{i}",) for i in base.ids}, base.order_pairs())
            db = {"R": r}
            for seq in (_random_extension(rnd, r), rnd.sample(list(r.ids), r.size)):
                world = tuple(r.label(i) for i in seq)
                for verdict in (solvers.poss(RelName("R"), db, world), solvers.poss_accum(concat_accumulator(), RelName("R"), db, world)):
                    assert verdict.method == "dedup"
                    assert verdict.answer == is_linear_extension(r, seq)
