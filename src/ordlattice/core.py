"""Partially ordered relations and their order-theoretic primitives.

A :class:`PoRelation` is a finite set of integer identifiers, each labeled
with a same-arity tuple of values, together with a strict partial order on
the identifiers.  It represents the set of list relations obtained from its
linear extensions (its *possible worlds*).

The order is stored as per-identifier ancestor/descendant bitsets over dense
positions (the full transitive closure), so comparability checks are O(1).
The two mask lists are transposes of each other: bit ``i`` of ``_anc[j]`` is
set exactly when bit ``j`` of ``_desc[i]`` is.  Every constructor builds
both lists with whole-mask operations (shifts, ORs along a topological
order, carry-free multiplies) rather than by visiting ordered pairs.

The Hasse reduction is computed once and cached, by a cover walk: for each
position, descend from a remaining descendant to a minimal one (a cover),
then clear that cover's whole up-set from the remaining descendants.  Every
descendant is visited at most once per position, and usually the cost is a
few mask operations per covering pair instead of one per ordered pair.

Instances are immutable after construction and safe to share across
threads; the generators returned by :func:`linear_extensions` are
single-consumer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    ArityError,
    ComparableError,
    CycleError,
    DomainError,
    NotPermutationError,
    RankError,
    WorldLimitError,
)

Value = int | str
Row = tuple  # tuple of Value
World = tuple  # tuple of Row

DEFAULT_WORLD_LIMIT = 10**6


def check_value(value):
    """Validate a single domain value: a natural number or a string token."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise DomainError(f"values must be naturals or strings, got {value!r}")
    if isinstance(value, int) and value < 0:
        raise DomainError(f"integer values must be natural numbers, got {value!r}")
    return value


def make_row(values: Iterable) -> tuple:
    """Build a validated tuple of domain values."""
    return tuple(check_value(v) for v in values)


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class PoRelation:
    """Identifiers + tuple labeling + strict partial order.

    Do not call the constructor directly: use :func:`validate_po_relation`
    (which closes and checks an arbitrary pair relation) or the internal
    :meth:`from_closure` (whose input must already be transitively closed
    and irreflexive).
    """

    __slots__ = ("ids", "arity", "_index", "_rows", "_anc", "_desc", "_hasse")

    def __init__(self, ids, arity, index, rows, anc, desc):
        self.ids: tuple = ids
        self.arity: int = arity
        self._index: dict = index
        self._rows: tuple = rows
        self._anc: tuple = anc      # per position: bitmask of strict ancestors
        self._desc: tuple = desc    # per position: bitmask of strict descendants
        self._hasse = None

    # -- construction -----------------------------------------------------

    @classmethod
    def from_closure(
        cls,
        ids: Sequence[int],
        rows: Sequence[tuple],
        desc_masks: Sequence[int],
        anc_masks: Sequence[int],
        arity: int | None = None,
    ) -> "PoRelation":
        """Build from already transitively closed, irreflexive order masks.

        ``ids`` must be sorted ascending; ``rows[i]`` labels ``ids[i]``;
        ``desc_masks[i]`` holds the positions strictly above position ``i``
        and ``anc_masks[i]`` those strictly below it.  The caller guarantees
        the invariant: bit ``i`` of ``anc_masks[j]`` is set exactly when bit
        ``j`` of ``desc_masks[i]`` is.
        """
        ids = tuple(ids)
        rows = tuple(rows)
        if arity is None:
            arity = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != arity:
                raise ArityError(f"labels mix arities: expected {arity}, got {len(row)}")
        index = {ident: pos for pos, ident in enumerate(ids)}
        return cls(ids, arity, index, rows, tuple(anc_masks), tuple(desc_masks))

    # -- basic accessors ---------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.ids)

    def label(self, ident: int) -> tuple:
        return self._rows[self._index[ident]]

    @property
    def labels(self) -> dict:
        return {ident: self._rows[pos] for pos, ident in enumerate(self.ids)}

    def rows_by_position(self) -> tuple:
        """Labels indexed by dense position (the order of ``self.ids``)."""
        return self._rows

    def position(self, ident: int) -> int:
        return self._index[ident]

    def less(self, x: int, y: int) -> bool:
        """True iff ``x`` is strictly below ``y``."""
        return bool(self._desc[self._index[x]] >> self._index[y] & 1)

    def comparable(self, x: int, y: int) -> bool:
        return self.less(x, y) or self.less(y, x)

    def ancestor_mask(self, ident: int) -> int:
        return self._anc[self._index[ident]]

    def descendant_mask(self, ident: int) -> int:
        return self._desc[self._index[ident]]

    def ancestors_of(self, ident: int) -> frozenset:
        return frozenset(self.ids[p] for p in _bits(self._anc[self._index[ident]]))

    def descendants_of(self, ident: int) -> frozenset:
        return frozenset(self.ids[p] for p in _bits(self._desc[self._index[ident]]))

    def order_pairs(self) -> set:
        """All strictly ordered id pairs (the transitive closure)."""
        return {(self.ids[i], self.ids[j]) for i in range(self.size) for j in _bits(self._desc[i])}

    def hasse_edges(self) -> tuple:
        """Covering pairs of the order, sorted; cached after first call."""
        if self._hasse is None:
            anc, desc, ids = self._anc, self._desc, self.ids
            edges = []
            for i in range(self.size):
                rest = desc[i]  # descendants of i not yet above a found cover
                while rest:
                    # walk down to a minimal element of rest, i.e. a cover of i:
                    # a descendant strictly between them would be above an
                    # earlier cover, and would have been cleared with it
                    j = (rest & -rest).bit_length() - 1
                    below = anc[j] & rest
                    while below:
                        j = below.bit_length() - 1
                        below = anc[j] & rest
                    edges.append((ids[i], ids[j]))
                    rest &= ~(desc[j] | 1 << j)
            self._hasse = tuple(sorted(edges))
        return self._hasse

    # -- derived relations -------------------------------------------------

    def restrict(self, keep: Iterable[int]) -> "PoRelation":
        """Sub-relation induced on ``keep``; order is the restriction of the closure."""
        keep_sorted = sorted(keep)
        old_pos = [self._index[i] for i in keep_sorted]
        # kept positions as maximal runs: (first old position, run mask, first new position)
        runs = []
        for q, p in enumerate(old_pos):
            if runs and p == runs[-1][0] + runs[-1][1]:
                runs[-1][1] += 1
            else:
                runs.append([p, 1, q])
        runs = [(start, (1 << length) - 1, target) for start, length, target in runs]

        def compress(mask: int) -> int:
            out = 0
            for start, run_mask, target in runs:
                out |= (mask >> start & run_mask) << target
            return out

        desc = [compress(self._desc[p]) for p in old_pos]
        anc = [compress(self._anc[p]) for p in old_pos]
        rows = tuple(self._rows[p] for p in old_pos)
        return PoRelation.from_closure(tuple(keep_sorted), rows, desc, anc, self.arity)

    def reindexed(self) -> "PoRelation":
        """Copy with dense identifiers 0..n-1 assigned in ascending id order."""
        return PoRelation.from_closure(tuple(range(self.size)), self._rows, self._desc, self._anc, self.arity)

    # -- equality notions --------------------------------------------------

    def structure_equals(self, other: "PoRelation") -> bool:
        """Equality on concrete identifiers, labels and order."""
        return (
            self.ids == other.ids
            and self.arity == other.arity
            and self._rows == other._rows
            and self._desc == other._desc
        )

    def same_possible_worlds(self, other: "PoRelation", limit: int = DEFAULT_WORLD_LIMIT) -> bool:
        """Value-level equality: identical possible-world sets (small relations only)."""
        if self.arity != other.arity:
            return False
        return possible_worlds(self, limit) == possible_worlds(other, limit)

    def __repr__(self):
        return f"PoRelation(size={self.size}, arity={self.arity})"


@dataclass(frozen=True)
class ChainPartition:
    """A partition of the identifiers into chains, each ascending in the order."""

    chains: tuple

    @property
    def width(self) -> int:
        return len(self.chains)


@dataclass(frozen=True)
class IaPartition:
    """A partition into indistinguishable antichains (classes of identifiers)."""

    classes: tuple

    @property
    def cardinality(self) -> int:
        return len(self.classes)


def validate_po_relation(ids: Iterable[int], labels: Mapping[int, Sequence], order_pairs: Iterable[tuple], arity: int | None = None) -> PoRelation:
    """Close an arbitrary pair relation into a po-relation.

    ``order_pairs`` may be any binary relation on ``ids``; the result's order
    is its transitive closure.  Raises :class:`CycleError` when the closure
    is not irreflexive and :class:`ArityError` when labels mix arities.
    """
    id_list = sorted(set(ids))
    index = {ident: pos for pos, ident in enumerate(id_list)}
    n = len(id_list)
    rows = []
    for ident in id_list:
        if ident not in labels:
            raise ArityError(f"identifier {ident} has no label")
        rows.append(make_row(labels[ident]))
    if rows:
        arities = {len(r) for r in rows}
        if len(arities) > 1:
            raise ArityError(f"labels mix arities: {sorted(arities)}")
        if arity is not None and arities != {arity}:
            raise ArityError(f"labels have arity {arities.pop()}, expected {arity}")

    succ = [0] * n
    pred = [0] * n
    for x, y in order_pairs:
        if x not in index or y not in index:
            raise NotPermutationError(f"order pair ({x}, {y}) mentions unknown identifiers")
        px, py = index[x], index[y]
        succ[px] |= 1 << py
        pred[py] |= 1 << px

    closed = transitive_closure(succ, pred)
    if closed is None:
        # a position on a cycle is reached from one and reaches one, so it
        # survives Kahn's peeling in both directions; report the smallest
        peeled = set(_topological_order(succ, pred)) | set(_topological_order(pred, succ))
        for i in range(n):
            if i not in peeled:
                cycle = _find_cycle(id_list, succ, i)
                if cycle is not None:
                    raise CycleError(cycle)
    desc, anc = closed
    return PoRelation.from_closure(tuple(id_list), tuple(rows), desc, anc, arity)


def _topological_order(succ: Sequence[int], pred: Sequence[int]) -> list:
    """Kahn's order of a graph given by successor and predecessor masks.

    Covers every node exactly when the graph is acyclic; otherwise it stops
    short of the nodes on a cycle and those reached from one.
    """
    indeg = [m.bit_count() for m in pred]
    order = [v for v in range(len(succ)) if not indeg[v]]
    for v in order:  # grows while it is walked
        for s in _bits(succ[v]):
            indeg[s] -= 1
            if not indeg[s]:
                order.append(s)
    return order


def transitive_closure(succ: Sequence[int], pred: Sequence[int]):
    """Descendant and ancestor masks of the closure of a graph, or ``None`` if cyclic.

    ``succ[i]`` and ``pred[i]`` are the direct successor and predecessor
    masks of node ``i`` (each the transpose of the other).  Along a Kahn
    order, descendant masks are ORed up from the sinks and ancestor masks
    down from the sources: one big-int OR per edge, and the two results
    are transposes of each other.  A self-loop counts as a cycle.
    """
    n = len(succ)
    order = _topological_order(succ, pred)
    if len(order) < n:
        return None
    desc = [0] * n
    for v in reversed(order):
        mask = succ[v]
        for s in _bits(succ[v]):
            mask |= desc[s]
        desc[v] = mask
    anc = [0] * n
    for v in order:
        mask = pred[v]
        for p in _bits(pred[v]):
            mask |= anc[p]
        anc[v] = mask
    return desc, anc


def _find_cycle(ids, succ, start_pos):
    """One explicit cycle through ``start_pos`` (shortest, by BFS), or ``None``."""
    parent = {start_pos: None}
    frontier = [start_pos]
    while frontier:
        nxt = []
        for p in frontier:
            for q in _bits(succ[p]):
                if q == start_pos:
                    path = []
                    node = p
                    while node is not None:
                        path.append(node)
                        node = parent[node]
                    path.reverse()
                    return tuple(ids[x] for x in path)
                if q not in parent:
                    parent[q] = p
                    nxt.append(q)
        frontier = nxt
    return None


def linear_extensions(r: PoRelation) -> Iterator[tuple]:
    """Yield every linear extension exactly once, as id sequences.

    Deterministic: at each choice point the smallest available identifier is
    emitted first, so the stream is lexicographic in dense positions.  The
    stream may be exponentially long; callers bound consumption.
    """
    n = r.size
    if n == 0:
        yield ()
        return
    anc = r._anc
    ids = r.ids
    full = (1 << n) - 1
    prefix = []

    def extend(used: int):
        if used == full:
            yield tuple(prefix)
            return
        remaining = full & ~used
        for p in _bits(remaining):
            if anc[p] & ~used:
                continue
            prefix.append(ids[p])
            yield from extend(used | (1 << p))
            prefix.pop()

    yield from extend(0)


def canonical_extension(r: PoRelation) -> tuple:
    """The smallest-id-first topological sort (first element of the stream)."""
    return tuple(_sub_extension(r, (1 << r.size) - 1))


def world_of(r: PoRelation, seq: Sequence[int]) -> tuple:
    """The value sequence of an id sequence."""
    return tuple(r.label(i) for i in seq)


def is_linear_extension(r: PoRelation, seq: Sequence[int]) -> bool:
    """True iff ``seq`` is a permutation of the ids respecting every ordered pair."""
    if len(seq) != r.size or set(seq) != set(r.ids):
        raise NotPermutationError("sequence is not a permutation of the relation's identifiers")
    pos = {ident: k for k, ident in enumerate(seq)}
    for i, ident in enumerate(r.ids):
        for j in _bits(r._desc[i]):
            if pos[ident] > pos[r.ids[j]]:
                return False
    return True


def possible_worlds(r: PoRelation, limit: int = DEFAULT_WORLD_LIMIT) -> set:
    """The set of value sequences of all linear extensions, deduplicated.

    Raises :class:`WorldLimitError` once more than ``limit`` linear
    extensions have been visited.  That also caps the distinct worlds, which
    never outnumber the extensions, and it bounds the cost when many
    extensions share a few worlds (equal rows swapped among themselves).
    """
    worlds = set()
    for visited, seq in enumerate(linear_extensions(r), start=1):
        if visited > limit:
            raise WorldLimitError(f"more than {limit} linear extensions")
        worlds.add(world_of(r, seq))
    return worlds


def width_and_chain_partition(r: PoRelation) -> tuple:
    """Poset width and a witnessing minimal chain partition.

    Width equals the minimum number of chains covering the poset, computed as
    ``n`` minus a maximum bipartite matching on the transitive closure; by
    Dilworth's theorem it also equals the maximum antichain size.
    """
    n = r.size
    adj = [list(_bits(r._desc[i])) for i in range(n)]
    match_right = [-1] * n   # right position -> left position
    match_left = [-1] * n

    def augment(u: int, seen: list) -> bool:
        for v in adj[u]:
            if seen[v]:
                continue
            seen[v] = True
            if match_right[v] == -1 or augment(match_right[v], seen):
                match_right[v] = u
                match_left[u] = v
                return True
        return False

    matched = 0
    for u in range(n):
        if augment(u, [False] * n):
            matched += 1

    chains = []
    starts = [v for v in range(n) if match_right[v] == -1]
    for start in starts:
        chain = []
        p = start
        while p != -1:
            chain.append(r.ids[p])
            p = match_left[p]
        chains.append(tuple(chain))
    chains.sort(key=lambda c: c[0])
    return n - matched, ChainPartition(tuple(chains))


def ia_partition(r: PoRelation) -> IaPartition:
    """A minimal partition into indistinguishable antichains.

    Two identifiers can share a class iff they have identical ancestor and
    descendant sets in the closure (identical signatures also force them to
    be incomparable); grouping by that signature is exactly the fixpoint of
    greedily merging mergeable classes, hence minimal.
    """
    groups: dict = {}
    for pos, ident in enumerate(r.ids):
        groups.setdefault((r._anc[pos], r._desc[pos]), []).append(ident)
    classes = sorted(groups.values(), key=lambda g: g[0])
    return IaPartition(tuple(frozenset(g) for g in classes))


def possible_ranks(r: PoRelation, x: int, y: int) -> tuple:
    """The interval of positions either of two incomparable ids may occupy.

    Returns ``(a + 1, n - d)`` where ``a`` counts ids below ``x`` or ``y``
    and ``d`` counts ids above either, excluding ``x`` and ``y`` themselves.
    """
    if r.comparable(x, y):
        raise ComparableError(f"identifiers {x} and {y} are comparable")
    px, py = r._index[x], r._index[y]
    a = (r._anc[px] | r._anc[py]).bit_count()
    d = (r._desc[px] | r._desc[py]).bit_count()
    return a + 1, r.size - d


def rank_witness(r: PoRelation, x: int, y: int, p: int, q: int) -> tuple:
    """A linear extension placing ``x`` at position ``p`` and ``y`` at ``q``.

    Ancestors of either id come first, then the incomparable filler ids with
    ``x`` and ``y`` spliced in at the requested offsets, then descendants.
    """
    if r.comparable(x, y):
        raise RankError(f"identifiers {x} and {y} are comparable")
    lo, hi = possible_ranks(r, x, y)
    if p == q or not (lo <= p <= hi and lo <= q <= hi):
        raise RankError(f"positions ({p}, {q}) not achievable; possible ranks are [{lo}, {hi}]")
    px, py = r._index[x], r._index[y]
    anc_mask = r._anc[px] | r._anc[py]
    desc_mask = r._desc[px] | r._desc[py]
    xy_mask = (1 << px) | (1 << py)
    filler_mask = ((1 << r.size) - 1) & ~(anc_mask | desc_mask | xy_mask)

    front = _sub_extension(r, anc_mask)
    fillers = _sub_extension(r, filler_mask)
    back = _sub_extension(r, desc_mask)

    middle = list(fillers)
    a = lo - 1
    first, second = (x, y) if p < q else (y, x)
    fp, sp = min(p, q) - a, max(p, q) - a
    middle.insert(fp - 1, first)
    middle.insert(sp - 1, second)
    return tuple(front) + tuple(middle) + tuple(back)


def _sub_extension(r: PoRelation, mask: int) -> list:
    """Smallest-id-first topological order of the positions in ``mask``."""
    anc, ids = r._anc, r.ids
    out = []
    rest = mask
    while rest:
        scan = rest
        low = scan & -scan
        while anc[low.bit_length() - 1] & rest:
            scan ^= low
            low = scan & -scan
        out.append(ids[low.bit_length() - 1])
        rest ^= low
    return out


def index_bounds(r: PoRelation, x: int) -> tuple:
    """Earliest and latest achievable 1-based position of ``x``.

    Every value in the interval is achieved by some linear extension.
    """
    pos = r._index[x]
    return r._anc[pos].bit_count() + 1, r.size - r._desc[pos].bit_count()
