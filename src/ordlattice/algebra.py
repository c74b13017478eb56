"""Positive relational algebra over po-relations.

Queries are immutable ASTs evaluated bottom-up against a
:class:`PoDatabase`.  Every operator follows the bag semantics on
identifiers: selection restricts ids and order, projection relabels, union
is the parallel composition of the two orders, the direct product orders a
pair iff both coordinates compare, the lexicographic product orders by the
first coordinate then the second, and concatenation is the series
composition.  Duplicate elimination quotients by value equality and may
*completely fail*, in which case evaluation yields a :class:`CompleteFailure`
marker (an empty set of possible worlds) instead of raising, so queries
containing it compose.

Fresh identifiers are assigned deterministically: base relations are
re-densified in ascending id order, union numbers the left operand's ids
before the right's, and products pair row-major.  Regression output is
therefore byte-stable.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Mapping

from .core import PoRelation, _bits, canonical_extension, make_row, transitive_closure
from .errors import ArityError, UnboundRelationError

INF = float("inf")


# -- tuple predicates ------------------------------------------------------


@dataclass(frozen=True)
class Attr:
    """A 1-based attribute position, written ``.i`` in the query language."""

    position: int

    def value(self, row):
        if not 1 <= self.position <= len(row):
            raise ArityError(f"attribute .{self.position} out of range for arity {len(row)}")
        return row[self.position - 1]

    def max_attr(self) -> int:
        return self.position


@dataclass(frozen=True)
class Const:
    literal: object

    def value(self, row):
        return self.literal

    def max_attr(self) -> int:
        return 0


@dataclass(frozen=True)
class Cmp:
    """Equality or disequality between two attribute/constant terms."""

    left: object
    right: object
    negated: bool = False

    def holds(self, row) -> bool:
        eq = self.left.value(row) == self.right.value(row)
        return not eq if self.negated else eq

    def max_attr(self) -> int:
        return max(self.left.max_attr(), self.right.max_attr())


@dataclass(frozen=True)
class And:
    parts: tuple

    def holds(self, row) -> bool:
        return all(p.holds(row) for p in self.parts)

    def max_attr(self) -> int:
        return max((p.max_attr() for p in self.parts), default=0)


@dataclass(frozen=True)
class Or:
    parts: tuple

    def holds(self, row) -> bool:
        return any(p.holds(row) for p in self.parts)

    def max_attr(self) -> int:
        return max((p.max_attr() for p in self.parts), default=0)


@dataclass(frozen=True)
class Not:
    part: object

    def holds(self, row) -> bool:
        return not self.part.holds(row)

    def max_attr(self) -> int:
        return self.part.max_attr()


# -- query AST -------------------------------------------------------------


@dataclass(frozen=True)
class RelName:
    name: str


@dataclass(frozen=True)
class SingletonConst:
    row: tuple

    def __post_init__(self):
        object.__setattr__(self, "row", make_row(self.row))


@dataclass(frozen=True)
class ChainConst:
    n: int


@dataclass(frozen=True)
class Selection:
    predicate: object
    sub: object


@dataclass(frozen=True)
class Projection:
    attrs: tuple
    sub: object


@dataclass(frozen=True)
class Union:
    left: object
    right: object


@dataclass(frozen=True)
class DirProduct:
    left: object
    right: object


@dataclass(frozen=True)
class LexProduct:
    left: object
    right: object


@dataclass(frozen=True)
class Concat:
    left: object
    right: object


@dataclass(frozen=True)
class DupElim:
    sub: object


@dataclass(frozen=True)
class CompleteFailure:
    """Result marker for evaluations whose set of possible worlds is empty."""

    arity: int


class PoDatabase:
    """Named po-relations with their arities."""

    def __init__(self, relations: Mapping[str, PoRelation]):
        self.relations = dict(relations)

    def __getitem__(self, name: str) -> PoRelation:
        try:
            return self.relations[name]
        except KeyError:
            raise UnboundRelationError(f"unknown relation {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self.relations

    @property
    def schema(self) -> dict:
        return {name: rel.arity for name, rel in self.relations.items()}

    def names(self):
        return sorted(self.relations)


def _as_db(db) -> PoDatabase:
    return db if isinstance(db, PoDatabase) else PoDatabase(db)


# -- relation-level operators ----------------------------------------------


def po_union(left: PoRelation, right: PoRelation) -> PoRelation:
    """Parallel composition; left ids are numbered before right ids."""
    if left.arity != right.arity:
        raise ArityError(f"union operands have arities {left.arity} and {right.arity}")
    n1, n2 = left.size, right.size
    rows = left.rows_by_position() + right.rows_by_position()
    desc = left._desc + tuple(m << n1 for m in right._desc)
    anc = left._anc + tuple(m << n1 for m in right._anc)
    return PoRelation.from_closure(tuple(range(n1 + n2)), rows, desc, anc, left.arity)


def po_concat(left: PoRelation, right: PoRelation) -> PoRelation:
    """Series composition: every left id below every right id."""
    if left.arity != right.arity:
        raise ArityError(f"concat operands have arities {left.arity} and {right.arity}")
    n1, n2 = left.size, right.size
    rows = left.rows_by_position() + right.rows_by_position()
    all_left = (1 << n1) - 1
    all_right = ((1 << n2) - 1) << n1
    desc = tuple(m | all_right for m in left._desc) + tuple(m << n1 for m in right._desc)
    anc = left._anc + tuple(m << n1 | all_left for m in right._anc)
    return PoRelation.from_closure(tuple(range(n1 + n2)), rows, desc, anc, left.arity)


def _spread(mask: int, stride: int) -> int:
    """Move bit ``k`` of ``mask`` to bit ``k * stride``.

    Products number the pair (i, j) as position i * n2 + j.  Multiplying a
    left mask spread by n2 with an n2-bit right mask lays one copy of the
    right mask into the n2-bit block of each left bit; the copies never
    overlap, so the product cannot carry and each cell's mask costs one
    multiply.
    """
    out = 0
    for k in _bits(mask):
        out |= 1 << (k * stride)
    return out


def po_dirprod(left: PoRelation, right: PoRelation) -> PoRelation:
    """Direct product: pairs compare iff both coordinates compare weakly, strict overall."""
    n1, n2 = left.size, right.size
    rows = tuple(a + b for a in left.rows_by_position() for b in right.rows_by_position())
    up_right = [m | 1 << j for j, m in enumerate(right._desc)]
    down_right = [m | 1 << j for j, m in enumerate(right._anc)]
    desc = []
    anc = []
    for i in range(n1):
        up = _spread(left._desc[i] | 1 << i, n2)
        down = _spread(left._anc[i] | 1 << i, n2)
        for j in range(n2):
            self_bit = 1 << (i * n2 + j)
            desc.append(up * up_right[j] ^ self_bit)
            anc.append(down * down_right[j] ^ self_bit)
    return PoRelation.from_closure(tuple(range(n1 * n2)), rows, desc, anc, left.arity + right.arity)


def po_lexprod(left: PoRelation, right: PoRelation) -> PoRelation:
    """Lexicographic (ordinal) product: first coordinate decides, ties by the second."""
    n1, n2 = left.size, right.size
    rows = tuple(a + b for a in left.rows_by_position() for b in right.rows_by_position())
    full_right = (1 << n2) - 1
    desc = []
    anc = []
    for i in range(n1):
        above = _spread(left._desc[i], n2) * full_right
        below = _spread(left._anc[i], n2) * full_right
        shift = i * n2
        for j in range(n2):
            desc.append(above | right._desc[j] << shift)
            anc.append(below | right._anc[j] << shift)
    return PoRelation.from_closure(tuple(range(n1 * n2)), rows, desc, anc, left.arity + right.arity)


def po_selection(predicate, r: PoRelation) -> PoRelation:
    if predicate.max_attr() > r.arity:
        raise ArityError(f"predicate uses attribute .{predicate.max_attr()} but arity is {r.arity}")
    keep = [ident for ident in r.ids if predicate.holds(r.label(ident))]
    return r.restrict(keep).reindexed()


def po_projection(attrs, r: PoRelation) -> PoRelation:
    for a in attrs:
        if not 1 <= a <= r.arity:
            raise ArityError(f"projection attribute .{a} out of range for arity {r.arity}")
    picked = tuple(a - 1 for a in attrs)
    return PoRelation.from_closure(
        r.ids, tuple(tuple(row[k] for k in picked) for row in r.rows_by_position()), r._desc, r._anc, len(attrs)
    )


def dup_elim(r: PoRelation):
    """Quotient by value equality, or :class:`CompleteFailure`.

    Classes are the sets of ids sharing one tuple value; the quotient graph
    has an edge between distinct classes whenever some cross pair is
    comparable.  A cyclic quotient means duplicate consolidation fails in
    every possible world; otherwise the result keeps one id per class with
    the transitive closure of the quotient edges.
    """
    groups: dict = {}
    for pos, row in enumerate(r.rows_by_position()):
        groups.setdefault(row, []).append(pos)
    classes = list(groups.values())  # ordered by first member's position
    class_of = {}
    member_masks = []
    for c, members in enumerate(classes):
        mask = 0
        for pos in members:
            class_of[pos] = c
            mask |= 1 << pos
        member_masks.append(mask)

    def quotient_edges(masks):
        """Per class, the mask of other classes that ``masks`` reach from it."""
        edges = []
        for c, members in enumerate(classes):
            reach = 0
            for pos in members:
                reach |= masks[pos]
            reach &= ~member_masks[c]
            out = 0
            while reach:
                d = class_of[(reach & -reach).bit_length() - 1]
                out |= 1 << d
                reach &= ~member_masks[d]
            edges.append(out)
        return edges

    closed = transitive_closure(quotient_edges(r._desc), quotient_edges(r._anc))
    if closed is None:
        return CompleteFailure(r.arity)
    desc, anc = closed
    rows = tuple(r.rows_by_position()[members[0]] for members in classes)
    return PoRelation.from_closure(tuple(range(len(classes))), rows, desc, anc, r.arity)


# -- evaluation ------------------------------------------------------------


def arity_of(q, schema: Mapping[str, int]) -> int:
    """Static arity of a query; raises for unbound names and arity misuse."""
    if isinstance(q, RelName):
        if q.name not in schema:
            raise UnboundRelationError(f"unknown relation {q.name!r}")
        return schema[q.name]
    if isinstance(q, SingletonConst):
        return len(q.row)
    if isinstance(q, ChainConst):
        return 1
    if isinstance(q, Selection):
        arity = arity_of(q.sub, schema)
        if q.predicate.max_attr() > arity:
            raise ArityError(f"predicate uses attribute .{q.predicate.max_attr()} but arity is {arity}")
        return arity
    if isinstance(q, Projection):
        arity = arity_of(q.sub, schema)
        for a in q.attrs:
            if not 1 <= a <= arity:
                raise ArityError(f"projection attribute .{a} out of range for arity {arity}")
        return len(q.attrs)
    if isinstance(q, (Union, Concat)):
        a1, a2 = arity_of(q.left, schema), arity_of(q.right, schema)
        if a1 != a2:
            raise ArityError(f"operands of {type(q).__name__.lower()} have arities {a1} and {a2}")
        return a1
    if isinstance(q, (DirProduct, LexProduct)):
        return arity_of(q.left, schema) + arity_of(q.right, schema)
    if isinstance(q, DupElim):
        return arity_of(q.sub, schema)
    raise TypeError(f"not a query node: {q!r}")


def evaluate(q, db):
    """Evaluate a query to a :class:`PoRelation` or :class:`CompleteFailure`."""
    db = _as_db(db)
    if isinstance(q, RelName):
        return db[q.name].reindexed()
    if isinstance(q, SingletonConst):
        return PoRelation.from_closure((0,), (q.row,), [0], [0], len(q.row))
    if isinstance(q, ChainConst):
        n = q.n
        full = (1 << n) - 1
        desc = [(full >> (i + 1)) << (i + 1) for i in range(n)]
        anc = [(1 << i) - 1 for i in range(n)]
        return PoRelation.from_closure(tuple(range(n)), tuple((i + 1,) for i in range(n)), desc, anc, 1)
    if isinstance(q, Selection):
        sub = evaluate(q.sub, db)
        if isinstance(sub, CompleteFailure):
            if q.predicate.max_attr() > sub.arity:
                raise ArityError(f"predicate uses attribute .{q.predicate.max_attr()} but arity is {sub.arity}")
            return sub
        return po_selection(q.predicate, sub)
    if isinstance(q, Projection):
        sub = evaluate(q.sub, db)
        if isinstance(sub, CompleteFailure):
            for a in q.attrs:
                if not 1 <= a <= sub.arity:
                    raise ArityError(f"projection attribute .{a} out of range for arity {sub.arity}")
            return CompleteFailure(len(q.attrs))
        return po_projection(q.attrs, sub)
    if isinstance(q, (Union, DirProduct, LexProduct, Concat)):
        left = evaluate(q.left, db)
        right = evaluate(q.right, db)
        a1 = left.arity
        a2 = right.arity
        if isinstance(q, (Union, Concat)) and a1 != a2:
            raise ArityError(f"operands of {type(q).__name__.lower()} have arities {a1} and {a2}")
        if isinstance(left, CompleteFailure) or isinstance(right, CompleteFailure):
            combined = a1 + a2 if isinstance(q, (DirProduct, LexProduct)) else a1
            return CompleteFailure(combined)
        op = {Union: po_union, DirProduct: po_dirprod, LexProduct: po_lexprod, Concat: po_concat}[type(q)]
        return op(left, right)
    if isinstance(q, DupElim):
        sub = evaluate(q.sub, db)
        if isinstance(sub, CompleteFailure):
            return sub
        return dup_elim(sub)
    raise TypeError(f"not a query node: {q!r}")


# -- static bound estimation -----------------------------------------------


def width_bounds(q, input_widths: Mapping[str, int], input_iawidths: Mapping[str, int]) -> tuple:
    """Static (width, ia-width) bounds on the evaluated query, or ``inf``.

    The width bound becomes infinite as soon as a direct product appears;
    the ia-width bound becomes infinite under either product (products do
    not preserve ia-width, even from unordered inputs).  Duplicate
    elimination preserves the width bound but voids the ia-width bound.
    """
    if isinstance(q, RelName):
        if q.name not in input_widths:
            raise UnboundRelationError(f"unknown relation {q.name!r}")
        return input_widths[q.name], input_iawidths[q.name]
    if isinstance(q, SingletonConst):
        return 1, 1
    if isinstance(q, ChainConst):
        return 1, max(q.n, 1)
    if isinstance(q, (Selection, Projection)):
        return width_bounds(q.sub, input_widths, input_iawidths)
    if isinstance(q, DupElim):
        w, _ = width_bounds(q.sub, input_widths, input_iawidths)
        return w, INF
    w1, i1 = width_bounds(q.left, input_widths, input_iawidths)
    w2, i2 = width_bounds(q.right, input_widths, input_iawidths)
    if isinstance(q, Union):
        return w1 + w2, i1 + i2
    if isinstance(q, Concat):
        return max(w1, w2), i1 + i2
    if isinstance(q, LexProduct):
        return w1 * w2, INF
    if isinstance(q, DirProduct):
        return INF, INF
    raise TypeError(f"not a query node: {q!r}")


# -- shape predicates used by the solver dispatcher -------------------------


def contains_node(q, kinds) -> bool:
    if isinstance(q, kinds):
        return True
    if isinstance(q, (Selection, Projection, DupElim)):
        return contains_node(q.sub, kinds)
    if isinstance(q, (Union, DirProduct, LexProduct, Concat)):
        return contains_node(q.left, kinds) or contains_node(q.right, kinds)
    return False


def relation_names(q) -> set:
    """Names of the database relations a query reads."""
    if isinstance(q, RelName):
        return {q.name}
    if isinstance(q, (Selection, Projection, DupElim)):
        return relation_names(q.sub)
    if isinstance(q, (Union, DirProduct, LexProduct, Concat)):
        return relation_names(q.left) | relation_names(q.right)
    return set()


def union_terms(q):
    """Flatten a product-, concat- and dupElim-free query into union terms.

    Selections and projections distribute over union, so any such query is a
    union of projections of selections of leaves.  Returns ``None`` when the
    query contains an operator that blocks the rewriting.
    """
    if contains_node(q, (DirProduct, LexProduct, Concat, DupElim)):
        return None
    return _union_terms(q)


def _union_terms(q):
    if isinstance(q, Union):
        return _union_terms(q.left) + _union_terms(q.right)
    if isinstance(q, Selection):
        return [Selection(q.predicate, t) for t in _union_terms(q.sub)]
    if isinstance(q, Projection):
        return [Projection(q.attrs, t) for t in _union_terms(q.sub)]
    return [q]


# -- bag semantics ----------------------------------------------------------


def bag_of(r: PoRelation) -> Counter:
    """The underlying bag: tuple multiplicities, order forgotten."""
    return Counter(r.rows_by_position())


# -- constant-query synthesis ------------------------------------------------


def synthesize_constant_query(r: PoRelation):
    """A query with no inputs whose evaluation has the same possible worlds.

    Uses a realizer with one linear extension per ordered incomparable pair
    (forcing that pair's reversal) and intersects the extensions one direct
    product at a time: after each product with a position chain, a selection
    keeps only the pairs matching some element's positions in the two
    adjacent extensions, so intermediate relations never exceed n² elements.
    A final join with a union of singleton constants restores the labels.
    """
    n = r.size
    m = r.arity
    if n == 0:
        empty = Selection(Cmp(Attr(1), Attr(1), negated=True), SingletonConst((1,)))
        return Projection((1,) * m, empty)

    extensions = []
    for x, y in itertools.permutations(r.ids, 2):
        if not r.comparable(x, y):
            extensions.append(_extension_forcing(r, before=y, after=x))
    extensions = list(dict.fromkeys(extensions))
    if not extensions:
        extensions.append(canonical_extension(r))
    d = len(extensions)
    # 1-based position of every id in each extension; injective per extension
    pos = [{ident: k + 1 for k, ident in enumerate(ext)} for ext in extensions]

    skeleton = ChainConst(n)
    for k in range(1, d):
        matches = Or(
            tuple(
                And((Cmp(Attr(k), Const(pos[k - 1][ident])), Cmp(Attr(k + 1), Const(pos[k][ident]))))
                for ident in r.ids
            )
        )
        skeleton = Selection(matches, DirProduct(skeleton, ChainConst(n)))

    relabel = None
    for ident in r.ids:
        piece = SingletonConst((pos[0][ident],) + r.label(ident))
        relabel = piece if relabel is None else Union(relabel, piece)

    joined = Selection(Cmp(Attr(1), Attr(d + 1)), LexProduct(skeleton, relabel))
    return Projection(tuple(range(d + 2, d + 2 + m)), joined)


def _extension_forcing(r: PoRelation, before: int, after: int) -> tuple:
    """A linear extension of the order extended with ``before < after``."""
    pb, pa = r.position(before), r.position(after)
    extra_low = r.ancestor_mask(before) | (1 << pb)
    extra_high = r.descendant_mask(after) | (1 << pa)
    desc = list(r._desc)
    anc = list(r._anc)
    for p in _bits(extra_low):
        desc[p] |= extra_high & ~(1 << p)
    for p in _bits(extra_high):
        anc[p] |= extra_low & ~(1 << p)
    forced = PoRelation.from_closure(r.ids, r.rows_by_position(), desc, anc, r.arity)
    return canonical_extension(forced)
