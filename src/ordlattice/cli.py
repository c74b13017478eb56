"""File formats, query-language parser and the ``ordlattice`` command.

Database documents are JSON::

    {"relations": {"Rest": {"arity": 2,
                            "rows": [["Gagnaire", 8], ["TourArgent", 5]],
                            "order": [[0, 1]]}}}

Rows hold naturals (JSON numbers) and string tokens; ``order`` lists
0-based row-index pairs and need not be transitively closed.  Candidate
worlds are JSON arrays of tuples.  Accumulation candidate values use the
per-accumulator encodings described by the registry (a JSON array of
tuples for ``concat``/``topk``/``select_at``, an integer for ``sum``/
``count``, ``top``/``bottom``/``neutral`` for ``precedes``, a JSON state
map for ``dfa``).

Query grammar::

    Q    := NAME | [v1, ..., vn] | chain(n)
          | sel(PRED, Q) | proj(i1, ..., ik, Q)
          | union(Q, Q) | dirprod(Q, Q) | lexprod(Q, Q) | concat(Q, Q)
          | dedup(Q)
    PRED := .i = .j | .i = CONST | .i != .j | .i != CONST
          | PRED and PRED | PRED or PRED | not PRED | (PRED)

with an optional outermost ``accum(NAME, Q)`` or ``groupby(i1, ..., ik,
NAME, Q)``.

Exit codes: 0 = yes/success, 1 = no, 2 = error, 3 = resource exceeded.
``ORDLATTICE_LOG=debug`` enables method-trace logging.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import logging
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from .accum import GroupByAccumulator, accumulator_from_spec
from .algebra import (
    Attr,
    ChainConst,
    Cmp,
    CompleteFailure,
    Concat,
    Const,
    DirProduct,
    DupElim,
    LexProduct,
    Not,
    Or,
    And,
    PoDatabase,
    Projection,
    RelName,
    Selection,
    SingletonConst,
    Union,
    arity_of,
    evaluate,
    width_bounds,
)
from .core import (
    PoRelation,
    ia_partition,
    make_row,
    possible_worlds,
    validate_po_relation,
    width_and_chain_partition,
    world_of,
)
from .errors import (
    CycleError,
    DomainError,
    OrdLatticeError,
    ParseError,
    ResourceExceeded,
    WorldLimitError,
)
from .solvers import (
    DispatchPolicy,
    cert,
    cert_accum,
    cert_group_by,
    poss,
    poss_accum,
    poss_group_by,
)

EXIT_YES = 0
EXIT_NO = 1
EXIT_ERROR = 2
EXIT_RESOURCE = 3


# -- documents ---------------------------------------------------------------


def load_database(path) -> PoDatabase:
    """Load and validate a JSON database document.

    The loader closes the order pairs transitively; cycles are reported
    with the relation name and one offending cycle.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read database {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"database {path!r} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("relations"), dict):
        raise ParseError(f"database {path!r} must be an object with a 'relations' object")
    relations = {}
    for name, spec in doc["relations"].items():
        relations[name] = _relation_from_spec(name, spec)
    return PoDatabase(relations)


def _relation_from_spec(name: str, spec) -> PoRelation:
    if not isinstance(spec, dict):
        raise ParseError(f"relation {name!r} must be an object")
    rows = spec.get("rows", [])
    arity = spec.get("arity")
    order = spec.get("order", [])
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ParseError(f"relation {name!r}: 'rows' must be an array of arrays")
    if arity is not None and (isinstance(arity, bool) or not isinstance(arity, int) or arity < 0):
        raise ParseError(f"relation {name!r}: 'arity' must be a non-negative integer")
    if arity is None:
        arity = len(rows[0]) if rows else 0
    for idx, row in enumerate(rows):
        if len(row) != arity:
            raise ParseError(f"relation {name!r}: row {idx} has {len(row)} values, declared arity is {arity}")
        for v in row:
            if isinstance(v, bool) or not isinstance(v, (int, str)):
                raise ParseError(f"relation {name!r}: row {idx} holds {v!r}; values are naturals or strings")
            if isinstance(v, int) and v < 0:
                raise ParseError(f"relation {name!r}: row {idx} holds negative {v!r}")
    pairs = []
    for pair in order:
        if not (isinstance(pair, list) and len(pair) == 2 and all(isinstance(x, int) for x in pair)):
            raise ParseError(f"relation {name!r}: order pairs must be [from, to] row indexes")
        a, b = pair
        if not (0 <= a < len(rows) and 0 <= b < len(rows)):
            raise ParseError(f"relation {name!r}: order pair {pair} out of range")
        pairs.append((a, b))
    try:
        return validate_po_relation(range(len(rows)), {i: tuple(r) for i, r in enumerate(rows)}, pairs, arity=arity)
    except CycleError as exc:
        raise CycleError(exc.cycle, relation=name) from None


def relation_document(r) -> dict:
    """The document form of a relation (round-trips through the loader)."""
    if isinstance(r, CompleteFailure):
        return {"relations": {"result": {"arity": r.arity, "rows": [], "order": [], "complete_failure": True}}}
    ids = list(r.ids)
    pos = {ident: k for k, ident in enumerate(ids)}
    return {
        "relations": {
            "result": {
                "arity": r.arity,
                "rows": [list(r.label(i)) for i in ids],
                "order": [[pos[a], pos[b]] for a, b in r.hasse_edges()],
            }
        }
    }


def load_candidate_world(text_or_path: str):
    """Candidate world from a file path or inline JSON array of tuples."""
    text = _maybe_file_text(text_or_path)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"candidate is neither a readable file nor valid JSON: {exc}") from None
    if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
        raise ParseError("candidate must be a JSON array of tuples")
    try:
        return tuple(make_row(row) for row in data)
    except DomainError as exc:
        raise ParseError(f"candidate holds a value outside the domain: {exc}") from None


def _maybe_file_text(text_or_path: str) -> str:
    path = Path(text_or_path)
    try:
        if path.is_file():
            return path.read_text(encoding="utf-8")
    except OSError:
        pass
    return text_or_path


# -- query parsing -------------------------------------------------------------


_PUNCT = ("!=", "(", ")", "[", "]", ",", "=", ".")
_OPERATORS = {"sel", "proj", "union", "dirprod", "lexprod", "concat", "dedup", "chain"}


@dataclass
class _Token:
    kind: str  # name | number | string | punct | end
    text: str
    line: int
    column: int


def _tokenize(text: str):
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if text.startswith("!=", i):
            tokens.append(_Token("punct", "!=", line, col))
            i += 2
            col += 2
            continue
        if ch in "()[],=.":
            tokens.append(_Token("punct", ch, line, col))
            i += 1
            col += 1
            continue
        if ch == '"':
            j = i + 1
            out = []
            while j < len(text) and text[j] != '"':
                if text[j] == "\\" and j + 1 < len(text):
                    out.append(text[j + 1])
                    j += 2
                else:
                    out.append(text[j])
                    j += 1
            if j >= len(text):
                raise ParseError("unterminated string literal", line, col)
            tokens.append(_Token("string", "".join(out), line, col))
            col += j + 1 - i
            i = j + 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(_Token("number", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: _Token | None = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.column)

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok.text != text or tok.kind == "string":
            self.fail(f"expected {text!r}, found {tok.text!r}", tok)
        return tok

    # query := outer | plain
    def parse_top(self):
        tok = self.peek()
        if tok.kind == "name" and tok.text in ("accum", "groupby") and self.tokens[self.pos + 1].text == "(":
            node = self.parse_outer(tok.text)
        else:
            node = self.parse_query()
        end = self.next()
        if end.kind != "end":
            self.fail(f"unexpected trailing input {end.text!r}", end)
        return node

    def parse_outer(self, which: str):
        self.next()  # accum | groupby
        self.expect("(")
        attrs = ()
        if which == "groupby":
            attrs = self.parse_attr_list()
        spec = self.parse_accumulator_spec()
        self.expect(",")
        sub = self.parse_query()
        self.expect(")")
        if which == "accum":
            return AccumQuery(spec, sub)
        return GroupByQuery(attrs, spec, sub)

    def parse_attr_list(self):
        attrs = []
        while self.peek().kind == "number":
            attrs.append(int(self.next().text))
            self.expect(",")
        if not attrs:
            self.fail("groupby needs at least one attribute position")
        return tuple(attrs)

    def parse_accumulator_spec(self) -> str:
        tok = self.next()
        if tok.kind != "name":
            self.fail("expected an accumulator name", tok)
        name = tok.text
        if self.peek().text != "(":
            return name
        self.next()
        parts = []
        depth = 1
        while depth:
            tok = self.next()
            if tok.kind == "end":
                self.fail("unterminated accumulator arguments", tok)
            if tok.text == "(" and tok.kind == "punct":
                depth += 1
            elif tok.text == ")" and tok.kind == "punct":
                depth -= 1
                if depth == 0:
                    break
            parts.append(json.dumps(tok.text) if tok.kind == "string" else tok.text)
        return f"{name}({''.join(parts)})"

    def parse_query(self):
        tok = self.next()
        if tok.kind == "punct" and tok.text == "[":
            return self.parse_singleton()
        if tok.kind != "name":
            self.fail(f"expected a query, found {tok.text!r}", tok)
        name = tok.text
        if self.peek().text != "(" or name not in _OPERATORS:
            if name in ("accum", "groupby") and self.peek().text == "(":
                self.fail("accum/groupby are only allowed outermost", tok)
            return RelName(name)
        self.next()  # (
        if name == "chain":
            count = self.next()
            if count.kind != "number":
                self.fail("chain(n) needs a natural number", count)
            self.expect(")")
            return ChainConst(int(count.text))
        if name == "sel":
            predicate = self.parse_predicate()
            self.expect(",")
            sub = self.parse_query()
            self.expect(")")
            return Selection(predicate, sub)
        if name == "proj":
            attrs = []
            while self.peek().kind == "number":
                attrs.append(int(self.next().text))
                self.expect(",")
            if not attrs:
                self.fail("proj needs at least one attribute position")
            sub = self.parse_query()
            self.expect(")")
            return Projection(tuple(attrs), sub)
        if name == "dedup":
            sub = self.parse_query()
            self.expect(")")
            return DupElim(sub)
        left = self.parse_query()
        self.expect(",")
        right = self.parse_query()
        self.expect(")")
        ctor = {"union": Union, "dirprod": DirProduct, "lexprod": LexProduct, "concat": Concat}[name]
        return ctor(left, right)

    def parse_singleton(self):
        values = []
        if self.peek().text == "]":
            self.next()
            return SingletonConst(())
        while True:
            values.append(self.parse_value())
            tok = self.next()
            if tok.text == "]":
                break
            if tok.text != ",":
                self.fail("expected ',' or ']' in tuple", tok)
        return SingletonConst(tuple(values))

    def parse_value(self):
        tok = self.next()
        if tok.kind == "number":
            return int(tok.text)
        if tok.kind == "string":
            return tok.text
        if tok.kind == "name":
            return tok.text  # bare token, treated as a string value
        self.fail(f"expected a value, found {tok.text!r}", tok)

    # predicates
    def parse_predicate(self):
        return self.parse_or()

    def parse_or(self):
        parts = [self.parse_and()]
        while self.peek().kind == "name" and self.peek().text == "or":
            self.next()
            parts.append(self.parse_and())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def parse_and(self):
        parts = [self.parse_not()]
        while self.peek().kind == "name" and self.peek().text == "and":
            self.next()
            parts.append(self.parse_not())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def parse_not(self):
        if self.peek().kind == "name" and self.peek().text == "not":
            self.next()
            return Not(self.parse_not())
        if self.peek().text == "(" and self.peek().kind == "punct":
            self.next()
            inner = self.parse_or()
            self.expect(")")
            return inner
        return self.parse_comparison()

    def parse_comparison(self):
        left = self.parse_term()
        op = self.next()
        if op.text not in ("=", "!="):
            self.fail(f"expected '=' or '!=', found {op.text!r}", op)
        right = self.parse_term()
        return Cmp(left, right, negated=op.text == "!=")

    def parse_term(self):
        tok = self.next()
        if tok.text == "." and tok.kind == "punct":
            num = self.next()
            if num.kind != "number":
                self.fail("attribute position expected after '.'", num)
            return Attr(int(num.text))
        if tok.kind == "number":
            return Const(int(tok.text))
        if tok.kind == "string" or tok.kind == "name":
            return Const(tok.text)
        self.fail(f"expected an attribute or constant, found {tok.text!r}", tok)


@dataclass(frozen=True)
class AccumQuery:
    accumulator_spec: str
    sub: object


@dataclass(frozen=True)
class GroupByQuery:
    attrs: tuple
    accumulator_spec: str
    sub: object


def parse_query(text: str):
    """Parse query text to an AST; raises :class:`ParseError` with position."""
    return _Parser(text).parse_top()


def type_check(node, db: PoDatabase) -> int:
    """Arity-check a parsed query against a database; returns the arity."""
    if isinstance(node, (AccumQuery, GroupByQuery)):
        return arity_of(node.sub, db.schema)
    return arity_of(node, db.schema)


# -- command implementations ------------------------------------------------------


def _policy_from_args(pairs) -> DispatchPolicy:
    overrides = {}
    valid = {f.name for f in dataclasses.fields(DispatchPolicy)}
    for item in pairs or ():
        key, sep, value = item.partition("=")
        if not sep or key not in valid:
            raise ParseError(f"--policy expects key=value with key in {sorted(valid)}, got {item!r}")
        try:
            overrides[key] = int(value)
        except ValueError:
            raise ParseError(f"--policy {key} needs an integer, got {value!r}") from None
    return DispatchPolicy(**overrides)


def _print_relation(r, show_edges: bool = True, only_edges: bool = False):
    if isinstance(r, CompleteFailure):
        print(f"complete failure: no possible worlds (arity {r.arity})")
        return
    pos = {ident: k for k, ident in enumerate(r.ids)}
    edges = [(pos[a], pos[b]) for a, b in r.hasse_edges()]
    if not only_edges:
        print(f"relation: {r.size} tuples, arity {r.arity}")
        for k, ident in enumerate(r.ids):
            print(f"{k}: {json.dumps(list(r.label(ident)))}")
    if show_edges or only_edges:
        print("edges: " + " ".join(f"{a}<{b}" for a, b in edges))


def _cmd_eval(args, policy) -> int:
    db = load_database(args.database)
    node = parse_query(args.query)
    if isinstance(node, (AccumQuery, GroupByQuery)):
        raise ParseError("eval takes a plain relational query; use the accum command instead")
    type_check(node, db)
    result = evaluate(node, db)
    if args.json:
        print(json.dumps(relation_document(result), sort_keys=True))
        return EXIT_YES
    if args.worlds is not None:
        if isinstance(result, CompleteFailure):
            print("complete failure: no possible worlds")
            return EXIT_YES
        try:
            worlds = possible_worlds(result, limit=max(policy.world_limit, args.worlds))
        except WorldLimitError as exc:
            raise ResourceExceeded(str(exc)) from None
        for world in sorted(worlds, key=json.dumps)[: args.worlds]:
            print(json.dumps([list(row) for row in world]))
        return EXIT_YES
    _print_relation(result, only_edges=args.hasse)
    return EXIT_YES


def _verdict_exit(answer: bool) -> int:
    return EXIT_YES if answer else EXIT_NO


def _cmd_poss_cert(args, policy, want_cert: bool) -> int:
    db = load_database(args.database)
    node = parse_query(args.query)
    type_check(node, db)
    base_dir = Path(args.database).resolve().parent
    if isinstance(node, AccumQuery):
        acc = accumulator_from_spec(node.accumulator_spec, base_dir=base_dir)
        value = (acc.parse_value or (lambda t: t))(_maybe_file_text(args.candidate))
        verdict = (cert_accum if want_cert else poss_accum)(acc, node.sub, db, value, policy)
        _report_accum(verdict, acc, want_cert)
        return _verdict_exit(verdict.answer)
    if isinstance(node, GroupByQuery):
        acc = accumulator_from_spec(node.accumulator_spec, base_dir=base_dir)
        gacc = GroupByAccumulator(acc, node.attrs)
        candidate = _parse_groupby_candidate(args.candidate, acc)
        verdict = (cert_group_by if want_cert else poss_group_by)(gacc, node.sub, db, candidate, policy)
        print(f"{'cert' if want_cert else 'poss'}: {'yes' if verdict.answer else 'no'}")
        print(f"method: {verdict.method}")
        return _verdict_exit(verdict.answer)
    candidate = load_candidate_world(args.candidate)
    verdict = (cert if want_cert else poss)(node, db, candidate, policy)
    _report_list(verdict, want_cert)
    return _verdict_exit(verdict.answer)


def _report_list(verdict, want_cert: bool):
    print(f"{'cert' if want_cert else 'poss'}: {'yes' if verdict.answer else 'no'}")
    print(f"method: {verdict.method}")
    if not want_cert and verdict.answer and verdict.witness is not None:
        print(f"witness ids: {json.dumps(list(verdict.witness))}")
        if verdict.relation is not None:
            world = world_of(verdict.relation, verdict.witness)
            print(f"witness world: {json.dumps([list(row) for row in world])}")
    if want_cert and not verdict.answer and verdict.witness is not None:
        print(f"counterexample world: {json.dumps([list(row) for row in verdict.witness])}")


def _report_accum(verdict, acc, want_cert: bool):
    fmt = acc.format_value or repr
    print(f"{'cert' if want_cert else 'poss'}: {'yes' if verdict.answer else 'no'}")
    print(f"method: {verdict.method}")
    if not want_cert and verdict.answer and verdict.witness is not None:
        print(f"witness ids: {json.dumps(list(verdict.witness))}")
    if want_cert and not verdict.answer and verdict.witness is not None:
        witness = verdict.witness
        try:
            print(f"counterexample value: {fmt(witness)}")
        except Exception:
            print(f"counterexample value: {witness!r}")


def _parse_groupby_candidate(text_or_path: str, acc):
    text = _maybe_file_text(text_or_path)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"group-by candidate is not valid JSON: {exc}") from None
    if not isinstance(data, list):
        raise ParseError("group-by candidate must be a JSON array of [group, value] pairs")
    out = []
    parse = acc.parse_value or (lambda t: t)
    for item in data:
        if not (isinstance(item, list) and len(item) == 2 and isinstance(item[0], list)):
            raise ParseError("each group-by candidate entry must be [group-array, value]")
        group, raw = item
        value = parse(raw if isinstance(raw, str) else json.dumps(raw))
        try:
            out.append((make_row(group), value))
        except DomainError as exc:
            raise ParseError(f"group key holds a value outside the domain: {exc}") from None
    return out


def _cmd_accum(args, policy) -> int:
    db = load_database(args.database)
    node = parse_query(args.query)
    if isinstance(node, (AccumQuery, GroupByQuery)):
        raise ParseError("pass a plain query to accum; the accumulator comes from --op")
    type_check(node, db)
    base_dir = Path(args.database).resolve().parent
    acc = accumulator_from_spec(args.op, base_dir=base_dir)
    value = (acc.parse_value or (lambda t: t))(_maybe_file_text(args.value))
    runner = cert_accum if args.mode == "cert" else poss_accum
    verdict = runner(acc, node, db, value, policy)
    _report_accum(verdict, acc, args.mode == "cert")
    return _verdict_exit(verdict.answer)


def _cmd_analyze(args, policy) -> int:
    db = load_database(args.database)
    widths = {}
    ias = {}
    for name in db.names():
        rel = db[name]
        width, chains = width_and_chain_partition(rel)
        classes = ia_partition(rel)
        widths[name] = width
        ias[name] = classes.cardinality
        print(f"relation {name}: size {rel.size}, arity {rel.arity}, width {width}, ia-width {classes.cardinality}")
        print(f"  chains: {json.dumps([list(c) for c in chains.chains])}")
        print(f"  ia-classes: {json.dumps([sorted(c) for c in classes.classes])}")
    if args.query:
        node = parse_query(args.query)
        if isinstance(node, (AccumQuery, GroupByQuery)):
            node = node.sub
        type_check(node, db)
        wb, ib = width_bounds(node, widths, ias)
        result = evaluate(node, db)
        print(f"query: static width bound {wb}, static ia-width bound {ib}")
        if isinstance(result, CompleteFailure):
            print("result: complete failure (no possible worlds)")
        else:
            width, chains = width_and_chain_partition(result)
            classes = ia_partition(result)
            print(f"result: size {result.size}, arity {result.arity}, width {width}, ia-width {classes.cardinality}")
            print(f"  chains: {json.dumps([list(c) for c in chains.chains])}")
            print(f"  ia-classes: {json.dumps([sorted(c) for c in classes.classes])}")
    return EXIT_YES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordlattice",
        description="Evaluate order-aware queries and decide possibility/certainty of candidate answers.",
    )
    parser.add_argument("--policy", action="append", metavar="KEY=VALUE", help="override a solver cap (repeatable)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a query and print the result relation or its worlds")
    p_eval.add_argument("database")
    p_eval.add_argument("query")
    p_eval.add_argument("--worlds", type=int, metavar="N", help="print up to N possible worlds instead")
    p_eval.add_argument("--hasse", action="store_true", help="print only the transitive-reduction edges")
    p_eval.add_argument("--json", action="store_true", help="print the result as a database document")

    for name, help_text in (("poss", "is the candidate a possible result?"), ("cert", "is the candidate the only result?")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("database")
        p.add_argument("query")
        p.add_argument("candidate", help="candidate file or inline JSON")

    p_accum = sub.add_parser("accum", help="decide possibility/certainty of an accumulation value")
    p_accum.add_argument("database")
    p_accum.add_argument("query")
    p_accum.add_argument("--op", required=True, help="accumulator registry spec, e.g. concat or topk(2)")
    p_accum.add_argument("--value", required=True, help="candidate value (file or inline encoding)")
    p_accum.add_argument("--mode", choices=("poss", "cert"), default="poss")

    p_an = sub.add_parser("analyze", help="print widths, partitions and static bounds")
    p_an.add_argument("database")
    p_an.add_argument("query", nargs="?")

    return parser


# argparse parsers are cyclic and slow to build; parse_args leaves them unchanged
_parser = functools.cache(build_parser)


def run(argv) -> int:
    """Run the command line; returns the exit status."""
    if os.environ.get("ORDLATTICE_LOG", "").lower() == "debug":
        logging.basicConfig(level=logging.DEBUG, format="%(name)s: %(message)s")
    args = _parser().parse_args(argv)
    try:
        policy = _policy_from_args(args.policy)
        if args.command == "eval":
            return _cmd_eval(args, policy)
        if args.command == "poss":
            return _cmd_poss_cert(args, policy, want_cert=False)
        if args.command == "cert":
            return _cmd_poss_cert(args, policy, want_cert=True)
        if args.command == "accum":
            return _cmd_accum(args, policy)
        if args.command == "analyze":
            return _cmd_analyze(args, policy)
        raise AssertionError(f"unhandled command {args.command}")
    except ResourceExceeded as exc:
        print(f"resource exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except OrdLatticeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
