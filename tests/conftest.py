"""Shared generators and independent oracles for the test suite.

The oracles here deliberately avoid the algorithms under test: they
enumerate permutations, subsets and set partitions directly from the raw
order pairs of a relation.  Property loops use seeded ``random.Random``
instances so every run is reproducible.
"""

from __future__ import annotations

import itertools
import random

from ordlattice.algebra import (
    ChainConst,
    Cmp,
    Attr,
    Concat,
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
)
from ordlattice.core import PoRelation, validate_po_relation
from ordlattice.errors import CycleError

LETTERS = ("a", "b", "c")


# -- random relations ---------------------------------------------------------


def random_poset(rnd: random.Random, n: int, edge_prob: float = 0.3, arity: int = 1, values=LETTERS) -> PoRelation:
    """A random po-relation on ``n`` ids with labels drawn from a small pool."""
    labels = {i: tuple(rnd.choice(values) for _ in range(arity)) for i in range(n)}
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rnd.random() < edge_prob]
    return validate_po_relation(range(n), labels, pairs, arity=arity)


def random_bounded_width_poset(rnd: random.Random, n: int, width: int, arity: int = 1, values=LETTERS) -> PoRelation:
    """A random relation built from ``width`` chains plus consistent cross edges."""
    chains = [[] for _ in range(width)]
    for i in range(n):
        chains[rnd.randrange(width)].append(i)
    pairs = []
    for chain in chains:
        pairs.extend(zip(chain, chain[1:]))
    # cross edges always point from an earlier chain position to a later id,
    # keeping acyclicity; width may drop below the requested value
    for _ in range(n // 2):
        c1, c2 = rnd.randrange(width), rnd.randrange(width)
        if not chains[c1] or not chains[c2] or c1 == c2:
            continue
        x = rnd.choice(chains[c1])
        later = [y for y in chains[c2] if y > x]
        if later:
            pairs.append((x, rnd.choice(later)))
    labels = {i: tuple(rnd.choice(values) for _ in range(arity)) for i in range(n)}
    return validate_po_relation(range(n), labels, pairs, arity=arity)


def random_low_ia_poset(rnd: random.Random, n: int, classes: int, arity: int = 1, values=LETTERS) -> PoRelation:
    """A random relation whose ia-width is at most ``classes``.

    Build a small random poset on class indexes, then blow each index up
    into an unordered block; blocks inherit the class-level order.
    """
    sizes = [0] * classes
    for _ in range(n):
        sizes[rnd.randrange(classes)] += 1
    class_pairs = [(i, j) for i in range(classes) for j in range(i + 1, classes) if rnd.random() < 0.4]
    members = []
    start = 0
    for c in range(classes):
        members.append(list(range(start, start + sizes[c])))
        start += sizes[c]
    pairs = []
    for ci, cj in class_pairs:
        for x in members[ci]:
            for y in members[cj]:
                pairs.append((x, y))
    labels = {i: tuple(rnd.choice(values) for _ in range(arity)) for i in range(start)}
    return validate_po_relation(range(start), labels, pairs, arity=arity)


# -- independent oracles --------------------------------------------------------


def brute_extensions(r: PoRelation) -> list:
    """Every permutation of the ids that respects the raw order pairs.

    A depth-first search over prefixes, in the order of
    ``itertools.permutations(r.ids)``: a prefix grows only by an id whose
    predecessors in the pairs are all placed, so no dead prefix is extended.
    """
    preds = {ident: set() for ident in r.ids}
    for x, y in r.order_pairs():
        preds[y].add(x)
    out = []
    prefix = []
    placed = set()

    def extend():
        if len(prefix) == len(r.ids):
            out.append(tuple(prefix))
            return
        for ident in r.ids:
            if ident not in placed and preds[ident] <= placed:
                prefix.append(ident)
                placed.add(ident)
                extend()
                placed.discard(ident)
                prefix.pop()

    extend()
    return out


def brute_worlds(r: PoRelation) -> set:
    return {tuple(r.label(i) for i in seq) for seq in brute_extensions(r)}


def brute_max_antichain(r: PoRelation) -> int:
    """Largest pairwise-incomparable subset, by subset enumeration."""
    pairs = r.order_pairs()
    comparable = pairs | {(y, x) for x, y in pairs}
    best = 0
    ids = list(r.ids)
    for size in range(len(ids), 0, -1):
        for subset in itertools.combinations(ids, size):
            if all((x, y) not in comparable for x, y in itertools.combinations(subset, 2)):
                return size
    return best


def is_ia_class(r: PoRelation, cls) -> bool:
    """Definition-level predicate: antichain + indistinguishable set."""
    pairs = r.order_pairs()
    comparable = pairs | {(y, x) for x, y in pairs}
    cls = list(cls)
    for x, y in itertools.combinations(cls, 2):
        if (x, y) in comparable:
            return False
    outside = [z for z in r.ids if z not in cls]
    for x, y in itertools.combinations(cls, 2):
        for z in outside:
            if ((x, z) in pairs) != ((y, z) in pairs):
                return False
            if ((z, x) in pairs) != ((z, y) in pairs):
                return False
    return True


def set_partitions(items):
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in set_partitions(rest):
        for k in range(len(partition)):
            yield partition[:k] + [partition[k] + [first]] + partition[k + 1 :]
        yield partition + [[first]]


def brute_min_ia_cardinality(r: PoRelation) -> int:
    best = r.size
    for partition in set_partitions(r.ids):
        if all(is_ia_class(r, cls) for cls in partition):
            best = min(best, len(partition) if partition else 0)
    return best if r.size else 0


# -- random queries ---------------------------------------------------------------


def random_database(rnd: random.Random, max_relations: int = 2, max_size: int = 4, arity: int = 1) -> PoDatabase:
    relations = {}
    for k in range(rnd.randint(1, max_relations)):
        n = rnd.randint(0, max_size)
        relations[f"R{k}"] = random_poset(rnd, n, edge_prob=0.4, arity=arity)
    return PoDatabase(relations)


def random_query(
    rnd: random.Random,
    schema: dict,
    depth: int = 2,
    allow_dir: bool = True,
    allow_lex: bool = True,
    allow_concat: bool = True,
    allow_dedup: bool = True,
):
    """A random well-arity query over the given schema."""
    names = sorted(schema)

    def leaf():
        if names and rnd.random() < 0.7:
            name = rnd.choice(names)
            return RelName(name), schema[name]
        if rnd.random() < 0.5:
            n = rnd.randint(1, 3)
            return ChainConst(n), 1
        row = tuple(rnd.choice(LETTERS) for _ in range(1))
        return SingletonConst(row), 1

    def predicate(arity: int):
        attr = Attr(rnd.randint(1, arity))
        if rnd.random() < 0.5:
            other = Attr(rnd.randint(1, arity))
        else:
            other = Const(rnd.choice(LETTERS + (1, 2)))
        return Cmp(attr, other, negated=rnd.random() < 0.5)

    def build(d: int):
        if d == 0:
            return leaf()
        roll = rnd.random()
        sub, arity = build(d - 1)
        if roll < 0.2 and arity >= 1:
            return Selection(predicate(arity), sub), arity
        if roll < 0.35 and arity >= 1:
            k = rnd.randint(1, arity + 1)
            attrs = tuple(rnd.randint(1, arity) for _ in range(min(k, arity)))
            return Projection(attrs, sub), len(attrs)
        if roll < 0.45 and allow_dedup:
            return DupElim(sub), arity
        other, other_arity = build(d - 1)
        if roll < 0.7:
            if arity == other_arity:
                return Union(sub, other), arity
            return sub, arity
        if roll < 0.8 and allow_concat:
            if arity == other_arity:
                return Concat(sub, other), arity
            return sub, arity
        if roll < 0.9 and allow_lex:
            return LexProduct(sub, other), arity + other_arity
        if allow_dir:
            return DirProduct(sub, other), arity + other_arity
        return sub, arity

    query, _ = build(depth)
    return query


def bag_eval(q, db) -> "dict | None":
    """Independent bag-semantics evaluator (returns None on complete failure).

    Bags are dicts row -> count; the order is never consulted.
    """
    from collections import Counter

    if isinstance(q, RelName):
        rel = db[q.name]
        return Counter(rel.rows_by_position())
    if isinstance(q, SingletonConst):
        return Counter({q.row: 1})
    if isinstance(q, ChainConst):
        return Counter({(i + 1,): 1 for i in range(q.n)})
    if isinstance(q, Selection):
        sub = bag_eval(q.sub, db)
        if sub is None:
            return None
        return Counter({row: c for row, c in sub.items() if q.predicate.holds(row)})
    if isinstance(q, Projection):
        sub = bag_eval(q.sub, db)
        if sub is None:
            return None
        out = Counter()
        for row, c in sub.items():
            out[tuple(row[a - 1] for a in q.attrs)] += c
        return out
    if isinstance(q, (Union, Concat)):
        left, right = bag_eval(q.left, db), bag_eval(q.right, db)
        if left is None or right is None:
            return None
        return left + right
    if isinstance(q, (DirProduct, LexProduct)):
        left, right = bag_eval(q.left, db), bag_eval(q.right, db)
        if left is None or right is None:
            return None
        out = Counter()
        for r1, c1 in left.items():
            for r2, c2 in right.items():
                out[r1 + r2] += c1 * c2
        return out
    raise TypeError(q)  # DupElim is out of scope for the bag commutation law
