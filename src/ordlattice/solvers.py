"""Possibility and certainty decision procedures with algorithm dispatch.

POSS asks whether a candidate is one possible result; CERT whether it is
the only one.  The public entry points take a query and a database,
evaluate once, then pick an algorithm:

- duplicate-free results go to the polynomial matching solver;
- direct-product-free queries whose static width bound fits the policy go
  to the chain-partition dynamic program;
- product-free queries whose union terms split into low-width and
  low-ia-width parts go to the finishing-order dynamic program;
- any other result whose measured width fits the policy goes to the chain
  dynamic program, direct products included;
- everything else falls back to memoized backtracking, capped by the
  policy (:class:`ResourceExceeded` is raised rather than guessing).

CERT for plain list candidates is always polynomial: with concatenation as
the accumulation monoid, a swap of two incomparable tuples changes the
world iff the tuples differ, so the result is certain iff every
incomparable pair carries equal values and the canonical extension matches
the candidate.  The same safe-swaps scan decides accumulation in any
cancellative monoid: when every swap is safe, every world folds to one
value, so both POSS and CERT compare that value with the candidate.  For a
position-invariant map the scan is keyed by map value rather than label,
so rows sharing a value are never visited as a pair (``count`` scans no
pair at all) and a pair is unsafe iff its two values do not commute.
"""

from __future__ import annotations

import itertools
import logging
from collections import Counter
from dataclasses import dataclass
from functools import reduce

from . import algebra
from .accum import (
    Accumulator,
    GroupByAccumulator,
    _bounded_width_table,
    _noprod_union_table,
    _unwind,
    accumulate_list,
    group_by_results,
)
from .algebra import (
    CompleteFailure,
    DirProduct,
    PoDatabase,
    bag_of,
    contains_node,
    evaluate,
    po_union,
    relation_names,
    union_terms,
    width_bounds,
)
from .core import (
    PoRelation,
    _bits,
    canonical_extension,
    ia_partition,
    index_bounds,
    linear_extensions,
    possible_ranks,
    rank_witness,
    width_and_chain_partition,
    world_of,
)
from .errors import ArityError, NotCancellativeError, PositionError, ResourceExceeded

logger = logging.getLogger("ordlattice.solvers")


@dataclass(frozen=True)
class DispatchPolicy:
    """Caps and thresholds steering algorithm selection.

    These are configuration, not semantics: answers never depend on them,
    only which algorithm runs and whether :class:`ResourceExceeded` is
    raised instead of an exponential search.
    """

    width_limit: int = 4
    ia_limit: int = 4
    finishing_classes_limit: int = 6
    brute_elements_limit: int = 14
    topk_limit: int = 3
    world_limit: int = 10**6

    def __post_init__(self):
        for name in ("width_limit", "ia_limit", "finishing_classes_limit", "brute_elements_limit", "topk_limit", "world_limit"):
            if getattr(self, name) <= 0:
                raise ValueError(f"policy cap {name} must be positive")


DEFAULT_POLICY = DispatchPolicy()


@dataclass(frozen=True)
class Verdict:
    """A POSS/CERT answer with provenance.

    For a positive POSS answer ``witness`` is a linear extension (an id
    sequence into ``relation``); for a negative CERT answer it is a
    counterexample world or accumulation value.
    """

    answer: bool
    method: str
    witness: object = None
    relation: object = None

    def __bool__(self):
        return self.answer


@dataclass(frozen=True)
class PrecedenceAnswer:
    """Tuple-precedence verdicts; ``vacuous`` flags absent tuples."""

    poss: bool
    cert: bool
    vacuous: bool = False


def _as_world(candidate) -> tuple:
    return tuple(tuple(row) for row in candidate)


def _dup_free(r: PoRelation) -> bool:
    counts = Counter(r.rows_by_position())
    return all(c == 1 for c in counts.values())


# -- list-candidate POSS ------------------------------------------------------


def poss(q, db, candidate, policy: DispatchPolicy | None = None) -> Verdict:
    """Is the candidate list relation a possible world of the query result?"""
    policy = policy or DEFAULT_POLICY
    db = algebra._as_db(db)
    r = evaluate(q, db)
    candidate = _as_world(candidate)
    if isinstance(r, CompleteFailure):
        logger.debug("poss: complete failure, vacuously false")
        return Verdict(False, "complete_failure")
    return _poss_list(r, candidate, policy, query=q, db=db)


def _poss_list(r: PoRelation, candidate: tuple, policy: DispatchPolicy, query=None, db=None) -> Verdict:
    if len(candidate) != r.size or Counter(candidate) != bag_of(r):
        logger.debug("poss: candidate multiset differs from result bag")
        return Verdict(False, "multiset_check", relation=r)

    if _dup_free(r):
        logger.debug("poss: duplicate-free result, matching solver")
        return _dedup_pair(r, candidate)

    if query is not None and db is not None and not contains_node(query, DirProduct):
        bound = _static_width_bound(query, db)
        if bound <= policy.width_limit:
            logger.debug("poss: static width bound %s within %s, chain DP", bound, policy.width_limit)
            return poss_bounded_width_dp(r, candidate)

    if query is not None and db is not None:
        split = _split_by_width_ia(query, db, policy)
        if split is not None:
            r_w, r_ia = split
            if ia_partition(r_ia).cardinality <= policy.finishing_classes_limit:
                logger.debug("poss: product-free width/ia split, finishing-order DP")
                return poss_union_width_iawidth(r_w, r_ia, candidate, policy)

    if width_and_chain_partition(r)[0] <= policy.width_limit:
        logger.debug("poss: low actual width, chain DP")
        return poss_bounded_width_dp(r, candidate)

    logger.debug("poss: falling back to memoized backtracking")
    return poss_backtracking(r, candidate, policy)


def _static_width_bound(query, db) -> float:
    """The query's static width bound from the relations it reads (no others)."""
    widths = {}
    ias = {}
    for name in relation_names(query):
        rel = db[name]
        widths[name], _ = width_and_chain_partition(rel)
        ias[name] = ia_partition(rel).cardinality
    bound, _ = width_bounds(query, widths, ias)
    return bound


def _split_by_width_ia(query, db, policy: DispatchPolicy):
    """Evaluate the union terms of a product-free query and bucket them.

    Returns (low-width union, low-ia-width union), or ``None`` when the
    rewriting is blocked or some term fits neither bucket.
    """
    terms = union_terms(query)
    if terms is None:
        return None
    arity = algebra.arity_of(query, db.schema)
    w_parts = []
    ia_parts = []
    for term in terms:
        rel = evaluate(term, db)
        w, _ = width_and_chain_partition(rel)
        if w <= policy.width_limit:
            w_parts.append(rel)
        elif ia_partition(rel).cardinality <= policy.ia_limit:
            ia_parts.append(rel)
        else:
            return None
    empty = PoRelation.from_closure((), (), [], [], arity)
    r_w = reduce(po_union, w_parts) if w_parts else empty
    r_ia = reduce(po_union, ia_parts) if ia_parts else empty
    return r_w, r_ia


def poss_backtracking(r: PoRelation, candidate, policy: DispatchPolicy | None = None) -> Verdict:
    """Exact search over matching prefixes, memoized on the set of used ids.

    Sound and complete; worst-case exponential.  Refuses relations larger
    than the policy's brute-force cap.
    """
    policy = policy or DEFAULT_POLICY
    candidate = _as_world(candidate)
    if r.size > policy.brute_elements_limit:
        raise ResourceExceeded(
            f"backtracking cap: relation has {r.size} elements, cap is {policy.brute_elements_limit}"
        )
    if len(candidate) != r.size or Counter(candidate) != bag_of(r):
        return Verdict(False, "backtracking", relation=r)
    n = r.size
    anc = r._anc
    rows = r.rows_by_position()
    full = (1 << n) - 1
    failed: set = set()
    prefix: list = []

    def search(used: int, depth: int) -> bool:
        if used == full:
            return True
        if used in failed:
            return False
        want = candidate[depth]
        for p in _bits(full & ~used):
            if rows[p] != want or (anc[p] & ~used):
                continue
            prefix.append(r.ids[p])
            if search(used | (1 << p), depth + 1):
                return True
            prefix.pop()
        failed.add(used)
        return False

    if search(0, 0):
        return Verdict(True, "backtracking", witness=tuple(prefix), relation=r)
    return Verdict(False, "backtracking", relation=r)


# -- duplicate-free matching ---------------------------------------------------


def _dedup_pair(r: PoRelation, candidate: tuple) -> Verdict:
    """POSS verdict for a duplicate-free relation.

    Each candidate row matches exactly one id; the candidate is possible
    iff that id sequence is a linear extension, i.e. every id's ancestors
    are all placed before it.
    """
    rows = r.rows_by_position()
    pos_by_row = {row: pos for pos, row in enumerate(rows)}
    if len(set(candidate)) != len(candidate) or set(candidate) != set(pos_by_row):
        return Verdict(False, "dedup", relation=r)
    order = [pos_by_row[row] for row in candidate]
    anc = r._anc
    placed = 0
    for pos in order:
        if anc[pos] & ~placed:
            return Verdict(False, "dedup", relation=r)
        placed |= 1 << pos
    return Verdict(True, "dedup", witness=tuple(r.ids[pos] for pos in order), relation=r)


def poss_cert_dedup(q, db, candidate, policy: DispatchPolicy | None = None) -> tuple:
    """(POSS, CERT) for a query whose result carries no duplicate values.

    CERT holds iff the relation is a total order matching the candidate.
    """
    r = evaluate(q, db)
    candidate = _as_world(candidate)
    if isinstance(r, CompleteFailure):
        return Verdict(False, "complete_failure"), Verdict(False, "complete_failure")
    if not _dup_free(r):
        raise ValueError("poss_cert_dedup requires a duplicate-free result (apply dedup in the query)")
    return _dedup_pair(r, candidate), _cert_list(r, candidate, method="dedup")


# -- list-candidate CERT -------------------------------------------------------


def cert(q, db, candidate, policy: DispatchPolicy | None = None) -> Verdict:
    """Is the candidate the only possible world?  Always polynomial."""
    db = algebra._as_db(db)
    r = evaluate(q, db)
    candidate = _as_world(candidate)
    if isinstance(r, CompleteFailure):
        logger.debug("cert: complete failure, vacuously false")
        return Verdict(False, "complete_failure")
    return _cert_list(r, candidate)


def _cert_list(r: PoRelation, candidate: tuple, method: str = "swap_concat") -> Verdict:
    pair = next(_unequal_incomparable_pairs(r), None)
    if pair is not None:
        x, y = r.ids[pair[0]], r.ids[pair[1]]
        lo, _ = possible_ranks(r, x, y)
        w1 = world_of(r, rank_witness(r, x, y, lo, lo + 1))
        w2 = world_of(r, rank_witness(r, x, y, lo + 1, lo))
        counterexample = w1 if w1 != candidate else w2
        return Verdict(False, method, witness=counterexample, relation=r)
    world = world_of(r, canonical_extension(r))
    if world == candidate:
        return Verdict(True, method, relation=r)
    return Verdict(False, method, witness=world, relation=r)


def _unequal_incomparable_pairs(r: PoRelation, keys=None):
    """Position pairs ``i < j`` that are incomparable and differently keyed.

    ``keys`` holds one hashable key per position and defaults to the labels.
    Ascending in ``i``, then ``j``; since ids ascend with positions this is
    also ascending id order.  Each ``i`` costs a few whole-mask operations
    plus one step per yielded pair.
    """
    keys = r.rows_by_position() if keys is None else keys
    same_key: dict = {}
    for pos, key in enumerate(keys):
        same_key[key] = same_key.get(key, 0) | 1 << pos
    full = (1 << r.size) - 1
    for i in range(r.size):
        later = full >> (i + 1) << (i + 1)
        for j in _bits(later & ~(r._desc[i] | r._anc[i] | same_key[keys[i]])):
            yield i, j


# -- cancellative-monoid certainty ----------------------------------------------


def cert_safe_swaps(acc: Accumulator, r: PoRelation, value) -> Verdict:
    """Certainty of an accumulation value in a cancellative monoid.

    The result set is a singleton iff every incomparable pair of distinct
    tuples swaps safely at every pair of consecutive achievable ranks;
    certainty then reduces to comparing one canonical fold against the
    candidate value.
    """
    if not acc.monoid.is_cancellative:
        raise NotCancellativeError(f"accumulator {acc.name!r} is not cancellative")
    unsafe = _unsafe_swap(acc, r)
    if unsafe is not None:
        x, y, p = unsafe
        v1 = accumulate_list(acc, world_of(r, rank_witness(r, x, y, p, p + 1)))
        v2 = accumulate_list(acc, world_of(r, rank_witness(r, x, y, p + 1, p)))
        other = v1 if v1 != value else v2
        return Verdict(False, "safe_swaps", witness=other, relation=r)
    folded = accumulate_list(acc, world_of(r, canonical_extension(r)))
    if folded == value:
        return Verdict(True, "safe_swaps", relation=r)
    return Verdict(False, "safe_swaps", witness=folded, relation=r)


def _unsafe_swap(acc: Accumulator, r: PoRelation):
    """The first ``(x, y, p)`` whose swap at ranks ``p, p + 1`` changes the fold.

    ``None`` when every swap is safe: in a cancellative monoid every world
    then folds to the same value.  A position-invariant map is scanned by
    map value instead of label: rows with one value always swap safely, and
    any other pair is unsafe iff its two values do not commute.
    """
    combine = acc.monoid.combine
    h = acc.map.fn
    rows = r.rows_by_position()
    if acc.map.is_position_invariant:
        values = [h(row, 1) for row in rows]
        for i, j in _unequal_incomparable_pairs(r, values):
            if combine(values[i], values[j]) != combine(values[j], values[i]):
                x, y = r.ids[i], r.ids[j]
                return x, y, possible_ranks(r, x, y)[0]
        return None
    for i, j in _unequal_incomparable_pairs(r):
        x, y = r.ids[i], r.ids[j]
        t1, t2 = rows[i], rows[j]
        lo, hi = possible_ranks(r, x, y)
        for p in range(lo, hi):
            if combine(h(t1, p), h(t2, p + 1)) != combine(h(t2, p), h(t1, p + 1)):
                return x, y, p
    return None


# -- bounded-width POSS DP -------------------------------------------------------


def poss_bounded_width_dp(r: PoRelation, candidate) -> Verdict:
    """Membership of a candidate world via the chain-partition dynamic program.

    States are order ideals as position bitmasks; a state is reachable iff
    the candidate prefix of its size can be realized by that ideal, and it
    grows by the next row of some chain whose ancestors it holds.
    Polynomial for fixed width.
    """
    candidate = _as_world(candidate)
    if len(candidate) != r.size or Counter(candidate) != bag_of(r):
        return Verdict(False, "width_dp", relation=r)
    _, partition = width_and_chain_partition(r)
    chains = [_group(r.position(ident) for ident in chain) for chain in partition.chains]
    rows = r.rows_by_position()
    anc = r._anc
    frontier = {0: None}
    for want in candidate:
        nxt = {}
        for mask, cell in frontier.items():
            for chain, chain_mask in chains:
                p = _next_member(mask, chain, chain_mask)
                if p is None or rows[p] != want or anc[p] & ~mask:
                    continue
                state = mask | 1 << p
                if state not in nxt:
                    nxt[state] = (p, cell)
        frontier = nxt
        if not frontier:
            break
    full = (1 << r.size) - 1
    if full in frontier:
        return Verdict(True, "width_dp", witness=_unwind(frontier[full], r.ids), relation=r)
    return Verdict(False, "width_dp", relation=r)


def _group(positions) -> tuple:
    """A consumption group: its positions in order, and their mask."""
    positions = tuple(positions)
    return positions, sum(1 << p for p in positions)


def _next_member(mask: int, members: tuple, group_mask: int):
    """The first member of a group outside ``mask``; groups are used in prefix order."""
    used = (mask & group_mask).bit_count()
    return members[used] if used < len(members) else None


# -- union width/ia POSS DP --------------------------------------------------------


def poss_union_width_iawidth(r_w: PoRelation, r_ia: PoRelation, candidate, policy: DispatchPolicy | None = None) -> Verdict:
    """Membership of a candidate world of ``r_w`` unioned with ``r_ia``.

    Enumerates finishing orders of the ia-classes; for each, runs the chain
    dynamic program extended with the deterministic greedy consumption of
    the ia part (open/blocked/exhausted classes, per-label members used).
    States are ideals of the union as position bitmasks, and the witness
    indexes into the parallel composition of the two inputs (left ids
    first).
    """
    policy = policy or DEFAULT_POLICY
    candidate = _as_world(candidate)
    union_rel = po_union(r_w, r_ia)
    if len(candidate) != union_rel.size or Counter(candidate) != bag_of(union_rel):
        return Verdict(False, "union_dp", relation=union_rel)

    classes = ia_partition(r_ia).classes
    if len(classes) > policy.finishing_classes_limit:
        raise ResourceExceeded(
            f"finishing-order cap: {len(classes)} ia-classes, cap is {policy.finishing_classes_limit}"
        )
    members = [sorted(r_w.size + r_ia.position(ident) for ident in c) for c in classes]
    class_masks = [sum(1 << p for p in mem) for mem in members]
    anc = union_rel._anc
    # members of a class share their ancestors, which are whole classes
    anc_classes = [[cj for cj, mask in enumerate(class_masks) if mask & anc[mem[0]]] for mem in members]
    rows = union_rel.rows_by_position()
    # per class: label -> its members, in id order
    label_groups = []
    for mem in members:
        by_label: dict = {}
        for p in mem:
            by_label.setdefault(rows[p], []).append(p)
        label_groups.append({label: _group(ps) for label, ps in by_label.items()})
    _, partition = width_and_chain_partition(r_w)
    chains = [_group(r_w.position(ident) for ident in chain) for chain in partition.chains]

    n_classes = len(members)
    for order in itertools.permutations(range(n_classes)):
        rank = {ci: k_ for k_, ci in enumerate(order)}
        # a class cannot finish before an ancestor class has finished
        if any(rank[ci] < rank[cj] for ci in range(n_classes) for cj in anc_classes[ci]):
            continue
        witness = _union_dp_once(candidate, union_rel, chains, members, class_masks, label_groups, order)
        if witness is not None:
            return Verdict(True, "union_dp", witness=witness, relation=union_rel)
    return Verdict(False, "union_dp", relation=union_rel)


def _union_dp_once(candidate, u: PoRelation, chains, members, class_masks, label_groups, order):
    rows = u.rows_by_position()
    anc = u._anc
    frontier = {0: None}
    for want in candidate:
        nxt = {}
        for mask, cell in frontier.items():
            for chain, chain_mask in chains:
                p = _next_member(mask, chain, chain_mask)
                if p is None or rows[p] != want or anc[p] & ~mask:
                    continue
                state = mask | 1 << p
                if state not in nxt:
                    nxt[state] = (p, cell)
            # greedy move in the ia part: the first open class in the
            # finishing order holding an unused member with the wanted label
            done_before = sum(1 for cm in class_masks if not cm & ~mask)
            for ci in order:
                if not class_masks[ci] & ~mask or anc[members[ci][0]] & ~mask:
                    continue  # exhausted, or an ancestor class is still open
                group = label_groups[ci].get(want)
                p = None if group is None else _next_member(mask, *group)
                if p is None:
                    continue
                state = mask | 1 << p
                if not class_masks[ci] & ~state and order[done_before] != ci:
                    break  # finishing order violated; no other ia move allowed
                if state not in nxt:
                    nxt[state] = (p, cell)
                break  # the greedy choice is forced
        frontier = nxt
        if not frontier:
            return None
    full = (1 << u.size) - 1
    return _unwind(frontier[full], u.ids) if full in frontier else None


# -- position-based problems -----------------------------------------------------


def select_at_k(q, db, row, k: int, policy: DispatchPolicy | None = None) -> tuple:
    """(possible, certain) that the result has value ``row`` at position ``k``.

    Certainty is possibility plus absence of any differently-labeled id that
    can occupy ``k``; since every position is occupied in every extension,
    the absence of a conflict already implies possibility.
    """
    r = evaluate(q, db)
    row = tuple(row)
    if isinstance(r, CompleteFailure):
        return False, False
    if not 1 <= k <= r.size:
        raise PositionError(f"position {k} outside 1..{r.size}")
    possible = False
    conflict = False
    for ident in r.ids:
        lo, hi = index_bounds(r, ident)
        if lo <= k <= hi:
            if r.label(ident) == row:
                possible = True
            else:
                conflict = True
    return possible, possible and not conflict


def top_k(q, db, candidate, k: int, policy: DispatchPolicy | None = None) -> tuple:
    """(possible, certain) that the first ``k`` values are exactly the candidate.

    Enumerates feasible length-``k`` prefixes (each id's ancestors among its
    predecessors); ``k`` is capped by the policy.
    """
    policy = policy or DEFAULT_POLICY
    candidate = _as_world(candidate)
    if len(candidate) != k:
        raise PositionError(f"candidate has {len(candidate)} rows, expected k={k}")
    if k > policy.topk_limit:
        raise ResourceExceeded(f"top-k cap: k={k}, cap is {policy.topk_limit}")
    r = evaluate(q, db)
    if isinstance(r, CompleteFailure):
        return False, False
    depth = min(k, r.size)

    anc = r._anc
    rows = r.rows_by_position()
    n = r.size

    def match_search(used: int, i: int) -> bool:
        if i == depth:
            return True
        for p in range(n):
            if used >> p & 1 or (anc[p] & ~used):
                continue
            if rows[p] != candidate[i]:
                continue
            if match_search(used | (1 << p), i + 1):
                return True
        return False

    def deviation_search(used: int, i: int) -> bool:
        if i == depth:
            return depth < k  # shorter top list never equals the candidate
        for p in range(n):
            if used >> p & 1 or (anc[p] & ~used):
                continue
            if depth < k or rows[p] != candidate[i]:
                return True
            if deviation_search(used | (1 << p), i + 1):
                return True
        return False

    possible = depth == k and match_search(0, 0)
    certain = possible and not deviation_search(0, 0)
    if depth < k:
        certain = False
    return possible, certain


def tuple_precedence(q, db, first, second, policy: DispatchPolicy | None = None) -> PrecedenceAnswer:
    """(possible, certain) that the first occurrence of ``first`` precedes
    every occurrence of ``second``; flags vacuous instances."""
    first = tuple(first)
    second = tuple(second)
    if first == second:
        raise ValueError("tuple_precedence requires two distinct tuple values")
    r = evaluate(q, db)
    if isinstance(r, CompleteFailure):
        return PrecedenceAnswer(False, False, vacuous=False)
    firsts = [ident for ident in r.ids if r.label(ident) == first]
    seconds = [ident for ident in r.ids if r.label(ident) == second]
    if not firsts or not seconds:
        present = bool(firsts)
        return PrecedenceAnswer(present, present, vacuous=True)

    def can_lead(leaders, blockers) -> bool:
        blocker_mask = 0
        for ident in blockers:
            blocker_mask |= 1 << r.position(ident)
        return any(not (r.ancestor_mask(ident) & blocker_mask) for ident in leaders)

    possible = can_lead(firsts, seconds)
    certain = not can_lead(seconds, firsts)
    return PrecedenceAnswer(possible, certain, vacuous=False)


# -- accumulation POSS/CERT ---------------------------------------------------------


def poss_accum(acc: Accumulator, q, db, value, policy: DispatchPolicy | None = None) -> Verdict:
    """Is ``value`` one possible accumulation result of the query?"""
    return _accum_entry(acc, q, db, value, policy, want_cert=False)


def cert_accum(acc: Accumulator, q, db, value, policy: DispatchPolicy | None = None) -> Verdict:
    """Is ``value`` the only possible accumulation result of the query?"""
    return _accum_entry(acc, q, db, value, policy, want_cert=True)


def _accum_entry(acc, q, db, value, policy, want_cert: bool) -> Verdict:
    policy = policy or DEFAULT_POLICY
    db = algebra._as_db(db)
    r = evaluate(q, db)
    if isinstance(r, CompleteFailure):
        logger.debug("accum: complete failure, vacuously false")
        return Verdict(False, "complete_failure")
    hints = _dispatch_hints(q, db, policy)
    return _accum_solve(acc, r, value, policy, want_cert, hints, query=q, db=db)


@dataclass(frozen=True)
class _Hints:
    width_bound: object = None   # static bound when the query avoids the direct product
    split: object = None         # (low-width union, low-ia union) for product-free queries


def _dispatch_hints(q, db, policy: DispatchPolicy) -> _Hints:
    bound = None
    if not contains_node(q, DirProduct):
        bound = _static_width_bound(q, db)
    split = _split_by_width_ia(q, db, policy)
    return _Hints(width_bound=bound, split=split)


def _accum_solve(acc, r, value, policy, want_cert: bool, hints: _Hints, query=None, db=None) -> Verdict:
    if want_cert and acc.monoid.is_cancellative:
        logger.debug("accum cert: cancellative monoid, safe swaps")
        return cert_safe_swaps(acc, r, value)

    if not want_cert and acc.is_list_identity:
        logger.debug("accum poss: identity encoding, list solver")
        return _poss_list(r, _as_world(value), policy, query=query, db=db)

    if not want_cert and acc.monoid.is_cancellative and _unsafe_swap(acc, r) is None:
        logger.debug("accum poss: cancellative monoid, one value by safe swaps")
        seq = canonical_extension(r)
        if accumulate_list(acc, world_of(r, seq)) == value:
            return Verdict(True, "safe_swaps", witness=seq, relation=r)
        return Verdict(False, "safe_swaps", relation=r)

    if acc.monoid.is_finite:
        if hints.width_bound is not None and hints.width_bound <= policy.width_limit:
            logger.debug("accum: finite monoid, bounded-width value DP")
            table = _bounded_width_table(acc, r)
            return _verdict_from_table(table, value, want_cert, "bounded_width_accum", r)
        if hints.split is not None and acc.map.is_position_invariant:
            r_w, r_ia = hints.split
            if ia_partition(r_ia).cardinality <= policy.ia_limit:
                logger.debug("accum: finite position-invariant, union value DP")
                table = _noprod_union_table(acc, r_w, r_ia)
                return _verdict_from_table(table, value, want_cert, "noprod_union_accum", po_union(r_w, r_ia))

    logger.debug("accum: brute force under caps")
    return _accum_bruteforce(acc, r, value, policy, want_cert)


def _verdict_from_table(table: dict, value, want_cert: bool, method: str, relation) -> Verdict:
    if not want_cert:
        if value in table:
            return Verdict(True, method, witness=table[value], relation=relation)
        return Verdict(False, method, relation=relation)
    others = [v for v in table if v != value]
    if others:
        counterexample = min(others, key=repr)
        return Verdict(False, method, witness=counterexample, relation=relation)
    return Verdict(value in table, method, relation=relation)


def _accum_bruteforce(acc, r: PoRelation, value, policy: DispatchPolicy, want_cert: bool) -> Verdict:
    if r.size > policy.brute_elements_limit:
        raise ResourceExceeded(
            f"brute-force cap: relation has {r.size} elements, cap is {policy.brute_elements_limit}"
        )
    examined = 0
    seen_value = False
    for seq in linear_extensions(r):
        examined += 1
        if examined > policy.world_limit:
            raise ResourceExceeded(f"brute-force cap: more than {policy.world_limit} linear extensions")
        folded = accumulate_list(acc, world_of(r, seq))
        if want_cert:
            if folded != value:
                return Verdict(False, "bruteforce", witness=folded, relation=r)
            seen_value = True
        elif folded == value:
            return Verdict(True, "bruteforce", witness=seq, relation=r)
    if want_cert:
        return Verdict(seen_value, "bruteforce", relation=r)
    return Verdict(False, "bruteforce", relation=r)


# -- group-by -------------------------------------------------------------------------


def cert_group_by(gacc: GroupByAccumulator, q, db, candidate, policy: DispatchPolicy | None = None) -> Verdict:
    """Certainty of an unordered (group, value) relation.

    Splits the evaluated relation by group value and requires certainty of
    each group's accumulation; order across groups is forgotten, so no
    cross-group reasoning is needed.
    """
    policy = policy or DEFAULT_POLICY
    db = algebra._as_db(db)
    r = evaluate(q, db)
    if isinstance(r, CompleteFailure):
        return Verdict(False, "complete_failure")
    for a in gacc.attrs:
        if not 1 <= a <= r.arity:
            raise ArityError(f"group-by attribute .{a} out of range for arity {r.arity}")
    pairs = [(tuple(group), value) for group, value in candidate]
    candidate = {}
    for group, value in pairs:
        if group in candidate and candidate[group] != value:
            return Verdict(False, "groupby", relation=r)  # two values for one group
        candidate[group] = value
    picked = tuple(a - 1 for a in gacc.attrs)
    groups: dict = {}
    for ident in r.ids:
        key = tuple(r.label(ident)[i] for i in picked)
        groups.setdefault(key, []).append(ident)
    if set(groups) != set(candidate):
        return Verdict(False, "groupby", relation=r)

    hints = _dispatch_hints(q, db, policy)
    for key in sorted(groups, key=repr):
        sub = r.restrict(groups[key]).reindexed()
        sub_hints = hints
        if hints.split is not None:
            r_w, r_ia = hints.split
            sub_hints = _Hints(
                width_bound=hints.width_bound,
                split=(
                    _restrict_to_group(r_w, picked, key),
                    _restrict_to_group(r_ia, picked, key),
                ),
            )
        inner = _accum_solve(gacc.accumulator, sub, candidate[key], policy, True, sub_hints)
        if not inner.answer:
            return Verdict(False, f"groupby+{inner.method}", witness=(key, inner.witness), relation=r)
    return Verdict(True, "groupby", relation=r)


def _restrict_to_group(rel: PoRelation, picked: tuple, key: tuple) -> PoRelation:
    keep = [ident for ident in rel.ids if tuple(rel.label(ident)[i] for i in picked) == key]
    return rel.restrict(keep).reindexed()


def poss_group_by(gacc: GroupByAccumulator, q, db, candidate, policy: DispatchPolicy | None = None) -> Verdict:
    """Possibility of an unordered (group, value) relation, by enumeration.

    No fast path exists for this problem; the search is brute force under
    the policy caps.
    """
    from .errors import WorldLimitError

    policy = policy or DEFAULT_POLICY
    r = evaluate(q, db)
    if isinstance(r, CompleteFailure):
        return Verdict(False, "complete_failure")
    if r.size > policy.brute_elements_limit:
        raise ResourceExceeded(
            f"brute-force cap: relation has {r.size} elements, cap is {policy.brute_elements_limit}"
        )
    target = frozenset((tuple(group), value) for group, value in candidate)
    try:
        results = group_by_results(gacc, r, policy.world_limit)
    except WorldLimitError as exc:
        raise ResourceExceeded(str(exc)) from None
    return Verdict(target in results, "bruteforce", relation=r)
