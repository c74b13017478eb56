"""Order-aware monoid accumulation over po-relations.

An :class:`Accumulator` pairs a monoid with an accumulation map taking a
tuple and its 1-based position.  Folding a list relation gives one monoid
element; folding a po-relation gives the set of elements over its possible
worlds.  Three computations are provided: brute force over worlds, a
dynamic program for finite monoids on bounded-width relations, and one for
unions of a bounded-width part and a bounded-ia-width part (finite,
position-invariant maps).  Both dynamic programs run one engine over the
lattice of order ideals, with ideals as position bitmasks; they differ only
in how the rows are grouped for consumption (chains, or ia-class members
with one map value).  The engine keeps one witness extension per reachable
value so solvers can report how a value arises.

The registry at the bottom exposes the built-in accumulators by name for
the command-line interface: ``concat``, ``sum``, ``count``, ``topk(k)``,
``select_at(k)``, ``precedes(t1,t2)`` and ``dfa(machine.json)``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

from .algebra import po_union
from .core import (
    DEFAULT_WORLD_LIMIT,
    PoRelation,
    ia_partition,
    make_row,
    possible_worlds,
    width_and_chain_partition,
)
from .errors import (
    ArityError,
    DomainError,
    NotFiniteError,
    NotPositionInvariantError,
    ParseError,
)


@dataclass(frozen=True)
class Monoid:
    """A monoid with hashable elements.

    ``elements`` enumerates the carrier when ``is_finite`` is set; the
    dynamic programs require it.  ``is_cancellative`` asserts that
    ``a + b == a + c`` implies ``b == c`` and symmetrically.
    """

    name: str
    neutral: object
    combine: Callable
    is_finite: bool = False
    elements: tuple | None = None
    is_cancellative: bool = False


@dataclass(frozen=True)
class AccumMap:
    """Maps (tuple, 1-based position) to a monoid element."""

    fn: Callable
    is_position_invariant: bool = False

    def __call__(self, row, position):
        return self.fn(row, position)


@dataclass(frozen=True)
class Accumulator:
    """Monoid plus accumulation map, with CLI value codecs.

    ``arity`` restricts the accepted tuple arity when set.  ``is_list_identity``
    marks the accumulator whose fold is the input list itself, letting solvers
    reduce its POSS/CERT problems to the list-relation problems.
    """

    name: str
    monoid: Monoid
    map: AccumMap
    arity: int | None = None
    is_list_identity: bool = False
    parse_value: Callable = field(default=None, repr=False)
    format_value: Callable = field(default=None, repr=False)


@dataclass(frozen=True)
class GroupByAccumulator:
    """An accumulator applied per group of equal values at some attributes."""

    accumulator: Accumulator
    attrs: tuple


def _check_arity(acc: Accumulator, rows: Iterable[tuple]):
    for row in rows:
        if acc.arity is not None and len(row) != acc.arity:
            raise ArityError(f"accumulator {acc.name!r} expects arity {acc.arity}, got {len(row)}")


def accumulate_list(acc: Accumulator, rows) -> object:
    """Fold ``h(t1, 1) + ... + h(tn, n)``; the neutral element on empty input."""
    _check_arity(acc, rows)
    value = acc.monoid.neutral
    combine = acc.monoid.combine
    h = acc.map.fn
    for position, row in enumerate(rows, start=1):
        value = combine(value, h(row, position))
    return value


def results_bruteforce(acc: Accumulator, r: PoRelation, limit: int = DEFAULT_WORLD_LIMIT) -> set:
    """Accumulation over every possible world, by enumeration."""
    return {accumulate_list(acc, world) for world in possible_worlds(r, limit)}


# -- the ideal-lattice value engine ---------------------------------------------


def _unwind(cell, ids) -> tuple:
    """The id sequence of a ``(position, previous)`` witness chain, oldest first."""
    seq = []
    while cell is not None:
        pos, cell = cell
        seq.append(ids[pos])
    return tuple(reversed(seq))


def _ideal_value_table(acc: Accumulator, r: PoRelation, groups) -> dict:
    """Map each accumulation value over ``r`` to one witness extension.

    A state is an order ideal of ``r`` as a position bitmask; states are
    expanded layer by layer and the map sees ``layer + 1`` as the position.
    ``groups`` are position sequences partitioning ``r``, each consumed in
    its own order.  From a state, each group in turn offers at most one
    successor: its next unused member, when that member's ancestors all lie
    in the ideal.  Monoid values are interned to ints with a lazily filled
    product table, and witnesses are ``(position, previous)`` cells; every
    value keeps the first witness found.
    """
    combine = acc.monoid.combine
    h = acc.map.fn
    invariant = acc.map.is_position_invariant
    rows = r.rows_by_position()
    anc = r._anc
    values = [acc.monoid.neutral]
    ident_of = {acc.monoid.neutral: 0}

    def intern(value) -> int:
        v = ident_of.get(value)
        if v is None:
            v = ident_of[value] = len(values)
            values.append(value)
        return v

    # per group: (position, its ancestors, its bit) of each member, and the group's mask
    groups = [(tuple((p, anc[p], 1 << p) for p in g), sum(1 << p for p in g)) for g in groups]
    products: dict = {}  # element id -> {value id: product id}
    element_of: dict = {}  # position -> element id (this layer's, unless invariant)
    column_of: dict = {}  # position -> products of its element
    frontier = {0: {0: None}}
    for layer in range(r.size):
        if not invariant:
            element_of, column_of = {}, {}
        nxt: dict = {}
        for mask, table in frontier.items():
            for members, group_mask in groups:
                used = (mask & group_mask).bit_count()
                if used == len(members):
                    continue
                p, p_anc, bit = members[used]
                if p_anc & ~mask:
                    continue
                column = column_of.get(p)
                if column is None:
                    e = element_of[p] = intern(h(rows[p], layer + 1))
                    column = column_of[p] = products.setdefault(e, {})
                state = mask | bit
                slot = nxt.get(state)
                if slot is None:
                    slot = nxt[state] = {}
                for v, cell in table.items():
                    product = column.get(v)
                    if product is None:
                        product = column[v] = intern(combine(values[v], values[element_of[p]]))
                    if product not in slot:
                        slot[product] = (p, cell)
        frontier = nxt
    (final,) = frontier.values()
    return {values[v]: _unwind(cell, r.ids) for v, cell in final.items()}


def _bounded_width_table(acc: Accumulator, r: PoRelation) -> dict:
    """Map each achievable accumulation value to one witness extension.

    The groups are the chains of a minimum chain partition, so the states
    number at most the product of (chain length + 1).
    """
    if not acc.monoid.is_finite:
        raise NotFiniteError(f"accumulator {acc.name!r} does not have a finite monoid")
    _check_arity(acc, r.rows_by_position())
    _, partition = width_and_chain_partition(r)
    chains = [[r.position(ident) for ident in chain] for chain in partition.chains]
    return _ideal_value_table(acc, r, chains)


def results_bounded_width(acc: Accumulator, r: PoRelation) -> set:
    """Possible accumulation values via the chain-partition dynamic program.

    Polynomial for fixed width and monoid; equal to
    :func:`results_bruteforce` on any input.
    """
    return set(_bounded_width_table(acc, r))


# -- union of bounded width and bounded ia-width ------------------------------


def _noprod_union_table(acc: Accumulator, r_width: PoRelation, r_ia: PoRelation) -> dict:
    """Witness table for accumulation over the union of the two relations.

    Witnesses are id sequences of ``po_union(r_width, r_ia)``.  The groups
    are the chains of ``r_width``, then, per ia-class of ``r_ia``, its
    members with one map value: members of a class share their ancestors,
    so only the count used from each group matters.
    """
    if not acc.monoid.is_finite:
        raise NotFiniteError(f"accumulator {acc.name!r} does not have a finite monoid")
    if not acc.map.is_position_invariant:
        raise NotPositionInvariantError(f"accumulator {acc.name!r} is not position-invariant")
    if r_width.arity != r_ia.arity:
        raise ArityError(f"union operands have arities {r_width.arity} and {r_ia.arity}")
    _check_arity(acc, r_width.rows_by_position())
    _check_arity(acc, r_ia.rows_by_position())

    _, partition = width_and_chain_partition(r_width)
    groups = [[r_width.position(ident) for ident in chain] for chain in partition.chains]
    h = acc.map.fn
    for members in ia_partition(r_ia).classes:
        by_value: dict = {}
        for ident in sorted(members):
            by_value.setdefault(h(r_ia.label(ident), 1), []).append(r_width.size + r_ia.position(ident))
        groups.extend(by_value.values())
    return _ideal_value_table(acc, po_union(r_width, r_ia), groups)


def results_noprod_union(acc: Accumulator, r_width: PoRelation, r_ia: PoRelation) -> set:
    """Accumulation values of ``r_width`` unioned with ``r_ia``.

    Polynomial for fixed width, ia-width and monoid; requires a finite
    monoid and a position-invariant map.
    """
    return set(_noprod_union_table(acc, r_width, r_ia))


# -- group-by ------------------------------------------------------------------


def group_by_results(gacc: GroupByAccumulator, r: PoRelation, limit: int = DEFAULT_WORLD_LIMIT) -> set:
    """Per-world grouped accumulation: sets of unordered (group, value) relations.

    Within a world, each group's value is the fold of the subsequence of
    rows matching the group, positions counted inside that subsequence;
    order across groups is forgotten.
    """
    for a in gacc.attrs:
        if not 1 <= a <= r.arity:
            raise ArityError(f"group-by attribute .{a} out of range for arity {r.arity}")
    picked = tuple(a - 1 for a in gacc.attrs)
    out = set()
    for world in possible_worlds(r, limit):
        groups: dict = {}
        for row in world:
            key = tuple(row[i] for i in picked)
            groups.setdefault(key, []).append(row)
        out.add(
            frozenset(
                (key, accumulate_list(gacc.accumulator, rows)) for key, rows in groups.items()
            )
        )
    return out


# -- built-in accumulators ------------------------------------------------------


def _parse_world_text(text: str):
    data = json.loads(text)
    if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
        raise ParseError("expected a JSON array of tuples")
    return tuple(make_row(row) for row in data)


def _format_world(value) -> str:
    return json.dumps([list(row) for row in value])


def concat_accumulator() -> Accumulator:
    """Identity encoding: each world accumulates to itself."""
    monoid = Monoid("concat", neutral=(), combine=lambda a, b: a + b, is_cancellative=True)
    return Accumulator(
        "concat",
        monoid,
        AccumMap(lambda row, pos: (row,), is_position_invariant=True),
        is_list_identity=True,
        parse_value=_parse_world_text,
        format_value=_format_world,
    )


def topk_accumulator(k: int) -> Accumulator:
    """Keeps the first ``k`` rows of the world, drops the rest."""
    if k < 1:
        raise ParseError("topk(k) requires k >= 1")
    monoid = Monoid("concat", neutral=(), combine=lambda a, b: a + b, is_cancellative=True)
    return Accumulator(
        f"topk({k})",
        monoid,
        AccumMap(lambda row, pos: (row,) if pos <= k else ()),
        parse_value=_parse_world_text,
        format_value=_format_world,
    )


def select_at_accumulator(k: int) -> Accumulator:
    """Keeps only the row at position ``k``."""
    if k < 1:
        raise ParseError("select_at(k) requires k >= 1")
    monoid = Monoid("concat", neutral=(), combine=lambda a, b: a + b, is_cancellative=True)
    return Accumulator(
        f"select_at({k})",
        monoid,
        AccumMap(lambda row, pos: (row,) if pos == k else ()),
        parse_value=_parse_world_text,
        format_value=_format_world,
    )


def sum_accumulator(attr: int = 1) -> Accumulator:
    """Sum of the values at one attribute (all weights 1)."""

    def h(row, pos):
        value = row[attr - 1] if 1 <= attr <= len(row) else None
        if not isinstance(value, int) or isinstance(value, bool):
            raise DomainError(f"sum needs natural values at attribute .{attr}, got {value!r}")
        return value

    monoid = Monoid("integer-sum", neutral=0, combine=lambda a, b: a + b, is_cancellative=True)
    return Accumulator(
        f"sum({attr})" if attr != 1 else "sum",
        monoid,
        AccumMap(h, is_position_invariant=True),
        parse_value=lambda text: int(text),
        format_value=str,
    )


def count_accumulator() -> Accumulator:
    monoid = Monoid("integer-sum", neutral=0, combine=lambda a, b: a + b, is_cancellative=True)
    return Accumulator(
        "count",
        monoid,
        AccumMap(lambda row, pos: 1, is_position_invariant=True),
        parse_value=lambda text: int(text),
        format_value=str,
    )


PRECEDES_NEUTRAL = "neutral"
PRECEDES_YES = "top"
PRECEDES_NO = "bottom"


def precedes_accumulator(first: tuple, second: tuple) -> Accumulator:
    """Whether the first occurrence of ``first`` precedes every ``second``.

    The fold keeps the first non-neutral mark: ``top`` if a ``first`` row
    shows up before any ``second`` row, ``bottom`` otherwise.
    """
    first = tuple(first)
    second = tuple(second)
    if first == second:
        raise ParseError("precedes(t1, t2) requires two distinct tuples")
    if len(first) != len(second):
        raise ParseError("precedes(t1, t2) requires tuples of equal arity")

    def combine(a, b):
        return a if a != PRECEDES_NEUTRAL else b

    def h(row, pos):
        if row == first:
            return PRECEDES_YES
        if row == second:
            return PRECEDES_NO
        return PRECEDES_NEUTRAL

    monoid = Monoid(
        "first-mark",
        neutral=PRECEDES_NEUTRAL,
        combine=combine,
        is_finite=True,
        elements=(PRECEDES_NEUTRAL, PRECEDES_YES, PRECEDES_NO),
    )

    def parse(text: str):
        token = text.strip().lower()
        if token not in (PRECEDES_NEUTRAL, PRECEDES_YES, PRECEDES_NO):
            raise ParseError(f"precedes value must be top, bottom or neutral, got {text!r}")
        return token

    return Accumulator(
        f"precedes({json.dumps(list(first))},{json.dumps(list(second))})",
        monoid,
        AccumMap(h, is_position_invariant=True),
        arity=len(first),
        parse_value=parse,
        format_value=str,
    )


def dfa_accumulator(machine, symbol_attr: int | None = None) -> Accumulator:
    """Transition monoid of a deterministic automaton.

    ``machine`` is a mapping (or path to a JSON file) with keys ``states``,
    ``transitions`` (state -> symbol -> state) and optional ``symbol_attr``
    (1-based attribute read as the input letter, default 1).  Elements are
    state-to-state maps; combining applies the left function first.
    """
    if isinstance(machine, (str, Path)):
        with open(machine, "r", encoding="utf-8") as fh:
            machine = json.load(fh)
    states = list(machine["states"])
    attr = symbol_attr or int(machine.get("symbol_attr", 1))
    index = {s: i for i, s in enumerate(states)}
    n = len(states)
    transitions = machine["transitions"]

    letters: dict = {}
    for state in states:
        if state not in transitions:
            raise ParseError(f"automaton is missing transitions for state {state!r}")
    symbols = set()
    for state in states:
        symbols.update(transitions[state])
    for symbol in sorted(symbols, key=str):
        fn = []
        for state in states:
            if symbol not in transitions[state]:
                raise ParseError(f"automaton is not deterministic: no {symbol!r} move from {state!r}")
            fn.append(index[transitions[state][symbol]])
        letters[symbol] = tuple(fn)

    identity = tuple(range(n))

    def combine(f, g):
        return tuple(g[f[s]] for s in range(n))

    # close the generated submonoid for the finite-element enumeration
    elements = {identity}
    frontier = [identity]
    while frontier:
        f = frontier.pop()
        for g in letters.values():
            for candidate in (combine(f, g), combine(g, f)):
                if candidate not in elements:
                    elements.add(candidate)
                    frontier.append(candidate)

    def h(row, pos):
        symbol = row[attr - 1] if 1 <= attr <= len(row) else None
        if symbol not in letters:
            raise DomainError(f"automaton has no transitions for symbol {symbol!r}")
        return letters[symbol]

    def parse(text: str):
        data = json.loads(text)
        if not isinstance(data, dict) or set(data) != set(states):
            raise ParseError("dfa value must be a JSON object mapping every state to a state")
        return tuple(index[data[s]] for s in states)

    def fmt(value) -> str:
        return json.dumps({states[i]: states[value[i]] for i in range(n)})

    monoid = Monoid(
        "dfa-transition",
        neutral=identity,
        combine=combine,
        is_finite=True,
        elements=tuple(sorted(elements)),
    )
    return Accumulator(
        "dfa",
        monoid,
        AccumMap(h, is_position_invariant=True),
        parse_value=parse,
        format_value=fmt,
    )


REGISTRY = {
    "concat": concat_accumulator,
    "sum": sum_accumulator,
    "count": count_accumulator,
    "topk": topk_accumulator,
    "select_at": select_at_accumulator,
    "precedes": precedes_accumulator,
    "dfa": dfa_accumulator,
}


def accumulator_from_spec(spec: str, base_dir: str | Path | None = None) -> Accumulator:
    """Build a built-in accumulator from registry syntax like ``topk(2)``.

    Arguments inside the parentheses are parsed as JSON values; ``dfa`` takes
    a file path resolved against ``base_dir``.
    """
    spec = spec.strip()
    if "(" in spec:
        if not spec.endswith(")"):
            raise ParseError(f"malformed accumulator spec {spec!r}")
        name, _, inner = spec.partition("(")
        inner = inner[:-1]
        try:
            args = json.loads(f"[{inner}]")
        except json.JSONDecodeError as exc:
            raise ParseError(f"malformed accumulator arguments in {spec!r}: {exc}") from None
    else:
        name, args = spec, []
    name = name.strip()
    if name not in REGISTRY:
        raise ParseError(f"unknown accumulator {name!r}; known: {', '.join(sorted(REGISTRY))}")
    factory = REGISTRY[name]
    if name == "dfa":
        if len(args) != 1 or not isinstance(args[0], str):
            raise ParseError("dfa takes one argument: a path to an automaton file")
        path = Path(args[0])
        if base_dir is not None and not path.is_absolute():
            path = Path(base_dir) / path
        return factory(path)
    if name == "precedes":
        if len(args) != 2 or not all(isinstance(a, list) for a in args):
            raise ParseError("precedes takes two JSON array arguments")
        return factory(tuple(args[0]), tuple(args[1]))
    try:
        return factory(*args)
    except TypeError as exc:
        raise ParseError(f"bad arguments for {name!r}: {exc}") from None
