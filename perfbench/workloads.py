"""Seeded workload generators with answers fixed at generation time.

Each generator builds database documents and a pool of questions from a
seed and the parameters in ``traffic.json``.  A question's expected answer
comes from the structure the generator planted, never from
``ordlattice.solvers``:

- planted yes: the world of a random linear extension the generator built
  (a random interleaving of chains, or a rank-sum order of a product);
- planted no: unique marker rows placed against a forced order (``mA``
  before ``mB`` in one log; ``x < y`` in a product), then swapped.

Every positive POSS witness is re-checked with ``core.is_linear_extension``
and ``core.world_of``.  A checker returns ``None`` when the result is right
and a message otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from ordlattice import accum, cli, solvers
from ordlattice.algebra import evaluate
from ordlattice.core import is_linear_extension, world_of
from ordlattice.errors import ResourceExceeded

TRAFFIC = json.loads((Path(__file__).with_name("traffic.json")).read_text(encoding="utf-8"))


@dataclass
class Question:
    qid: int
    kind: str         # poss | cert | accum | position | eval
    scenario: str     # document the question reads
    query: str        # query text; the evaluated relation gives the trace counters
    ask: Callable     # (databases) -> raw result; the only timed call
    check: Callable   # (raw result, databases) -> None or a message
    size: int         # rows of the evaluated result: the question's size bucket
    sweep: bool = False  # part of a scaling sweep (fixed width, varying n)


@dataclass
class Workload:
    name: str
    documents: dict   # file name -> JSON document
    questions: list


# -- oracle helpers ---------------------------------------------------------------


def _rows_json(world) -> str:
    return json.dumps([list(row) for row in world])


def check_poss(expected: bool, candidate):
    verified = set()

    def check(verdict, _dbs):
        if verdict.answer != expected:
            return f"poss answered {verdict.answer}, expected {expected}"
        if verdict.answer and tuple(verdict.witness) not in verified:
            if not is_linear_extension(verdict.relation, verdict.witness):
                return "poss witness is not a linear extension"
            if world_of(verdict.relation, verdict.witness) != tuple(candidate):
                return "poss witness world differs from the candidate"
            verified.add(tuple(verdict.witness))
        return None

    return check


def check_cert(expected: bool, candidate):
    def check(verdict, _dbs):
        if verdict.answer != expected:
            return f"cert answered {verdict.answer}, expected {expected}"
        if not verdict.answer and verdict.witness is not None and tuple(verdict.witness) == tuple(candidate):
            return "cert counterexample equals the candidate"
        return None

    return check


def check_accum(expected: bool, value, fold, want_cert: bool):
    """Accumulation verdicts; a POSS witness must fold to ``value`` by ``fold``."""
    verified = set()

    def check(verdict, _dbs):
        if verdict.answer != expected:
            return f"accum answered {verdict.answer}, expected {expected}"
        if want_cert and not verdict.answer and verdict.witness == value:
            return "accum counterexample equals the candidate value"
        if not want_cert and verdict.answer:
            if tuple(verdict.witness) not in verified:
                if not is_linear_extension(verdict.relation, verdict.witness):
                    return "accum witness is not a linear extension"
                if fold(world_of(verdict.relation, verdict.witness)) != value:
                    return "accum witness does not fold to the value"
                verified.add(tuple(verdict.witness))
        return None

    return check


def check_equal(expected):
    def check(result, _dbs):
        got = tuple(result) if not hasattr(result, "poss") else (result.poss, result.cert, result.vacuous)
        return None if got == tuple(expected) else f"answered {got}, expected {tuple(expected)}"

    return check


def fold_precedes(first, second):
    def fold(world):
        for row in world:
            if tuple(row) == first:
                return accum.PRECEDES_YES
            if tuple(row) == second:
                return accum.PRECEDES_NO
        return accum.PRECEDES_NEUTRAL

    return fold


def fold_dfa(machine):
    states = machine["states"]
    index = {s: i for i, s in enumerate(states)}
    moves = machine["transitions"]

    def fold(world):
        ends = []
        for start in states:
            state = start
            for row in world:
                state = moves[state][row[0]]
            ends.append(index[state])
        return tuple(ends)

    return fold


# -- merged logs ----------------------------------------------------------------------


def _interleave(rng, chains):
    """A uniformly random interleaving of the chains: a random linear extension."""
    left = [len(c) for c in chains]
    pos = [0] * len(chains)
    out = []
    total = sum(left)
    while total:
        pick = rng.randrange(total)
        for c, n in enumerate(left):
            if pick < n:
                break
            pick -= n
        out.append(chains[c][pos[c]])
        pos[c] += 1
        left[c] -= 1
        total -= 1
    return out


def _swap(world, a, b):
    world = list(world)
    i, j = world.index(a), world.index(b)
    world[i], world[j] = world[j], world[i]
    return tuple(world)


def _chain_doc(rows):
    return {"arity": len(rows[0]), "rows": [list(r) for r in rows], "order": [[i, i + 1] for i in range(len(rows) - 1)]}


def _layered_doc(layers):
    rows = [row for layer in layers for row in layer]
    order, start = [], 0
    for lower, upper in zip(layers, layers[1:]):
        top = start + len(lower)
        order += [[a, b] for a in range(start, top) for b in range(top, top + len(upper))]
        start = top
    return {"arity": len(rows[0]), "rows": [list(r) for r in rows], "order": order}


def marker_dfa(alphabet, logs):
    """Phase (which of mA/mB came first) times the parity of ``e0`` events."""
    symbols = list(alphabet) + [f"boot{c}" for c in range(logs)] + ["mA", "mB", "mC"]
    states = [f"{phase}{parity}" for phase in "nab" for parity in "01"]
    transitions = {}
    for state in states:
        phase, parity = state
        row = {}
        for sym in symbols:
            new_phase = phase if phase != "n" else {"mA": "a", "mB": "b"}.get(sym, "n")
            new_parity = str(int(parity) ^ (sym == "e0"))
            row[sym] = new_phase + new_parity
        transitions[state] = row
    return {"states": states, "transitions": transitions, "symbol_attr": 1}


def union_text(terms):
    query = terms[-1]
    for term in reversed(terms[:-1]):
        query = f"union({term}, {query})"
    return query


def build_logs(rng, logs, lengths, alphabet, debug_share, batch=None, names=None):
    """One scenario: relation documents, union terms, kept chains, a planted world.

    Log 0 carries ``mA`` before ``mB`` (a forced order) at 1/2 and 3/4 of its
    length; log 1 carries ``mC`` (incomparable with both) at 1/2.  Fixed
    marker positions keep the depth at which a swapped candidate fails
    steady across seeds.  Every log starts with its own ``boot<c>`` row
    and has exactly ``round(debug_share * length)`` debug rows; odd logs are
    read through ``sel(.2 = "info", ...)``, so result sizes are fixed by the
    lengths and the seed moves labels and positions only.
    """
    names = names or [f"L{c}" for c in range(logs)]
    relations, terms, chains = {}, [], []
    for c in range(logs):
        length = lengths[c]
        rows = [(f"boot{c}", "info")] + [(rng.choice(alphabet), "info") for _ in range(length - 1)]
        fixed = {0}
        if c == 0:
            a, b = length // 2, (3 * length) // 4
            rows[a], rows[b] = ("mA", "info"), ("mB", "info")
            fixed |= {a, b}
        elif c == 1:
            rows[length // 2] = ("mC", "info")
            fixed.add(length // 2)
        free = [i for i in range(length) if i not in fixed]
        for i in rng.sample(free, round(debug_share * length)):
            rows[i] = (rows[i][0], "debug")
        relations[names[c]] = _chain_doc(rows)
        if c % 2:
            terms.append(f'proj(1, sel(.2 = "info", {names[c]}))')
            rows = [r for r in rows if r[1] == "info"]
        else:
            terms.append(f"proj(1, {names[c]})")
        chains.append([(r[0],) for r in rows])
    layers = None
    if batch:
        # each layer cycles through the alphabet, so its label groups (and the
        # finishing-order and value DP states) have a fixed size for every seed
        layers = [[(alphabet[i % len(alphabet)], "info") for i in rng.sample(range(size), size)] for size in batch]
        relations["B"] = _layered_doc(layers)
        terms.append("proj(1, B)")
    planted_chains = list(chains)
    if layers:
        planted_chains.append([(r[0],) for layer in layers for r in rng.sample(layer, len(layer))])
    world = tuple(_interleave(rng, planted_chains))
    ideals = 1
    for chain in chains:
        ideals *= len(chain) + 1
    for size in batch or ():
        ideals *= size + 1
    return relations, terms, chains, world, ideals


def merged_logs(seed: int, workdir: Path) -> Workload:
    params = TRAFFIC["merged-logs"]
    rng = random.Random(seed)
    documents, questions = {}, []

    def add(kind, sid, query, ask, check, size):
        sweep = sid.startswith(params["sweep"])
        questions.append(Question(len(questions), kind, sid, query, ask, check, size, sweep))

    index = 0
    for stratum in params["scenarios"]:
        for length in stratum["lengths"]:
            sid = f"{stratum['tag']}-{index}"
            logs = stratum["logs"]
            alphabet = [f"e{i}" for i in range(stratum["alphabet"])]
            relations, terms, chains, world, ideals = build_logs(
                rng, logs, [length] * logs, alphabet, params["debug_share"], stratum["batch"]
            )
            documents[f"{sid}.json"] = {"relations": relations}
            text = union_text(terms)
            q = cli.parse_query(text)
            n = len(world)
            swapped = _swap(world, ("mA",), ("mB",))

            add("poss", sid, text, lambda d, q=q, s=sid, w=world: solvers.poss(q, d[s], w), check_poss(True, world), n)
            add("poss", sid, text, lambda d, q=q, s=sid, w=swapped: solvers.poss(q, d[s], w), check_poss(False, swapped), n)
            # every boot row can come first; mA < mB is forced, mC is free
            for boot in ("boot0", "boot1"):
                add("position", sid, text, lambda d, q=q, s=sid, r=(boot,): solvers.select_at_k(q, d[s], r, 1),
                    check_equal((True, False)), n)
            add("position", sid, text, lambda d, q=q, s=sid: solvers.tuple_precedence(q, d[s], ("mA",), ("mB",)),
                check_equal((True, True, False)), n)
            add("position", sid, text, lambda d, q=q, s=sid: solvers.tuple_precedence(q, d[s], ("mC",), ("mA",)),
                check_equal((True, False, False)), n)
            add("position", sid, text, lambda d, q=q, s=sid, w=world[:2]: solvers.top_k(q, d[s], w, 2),
                check_equal((True, False)), n)
            # mB sits at chain position 3 or later, so it is never among the first two
            add("position", sid, text, lambda d, q=q, s=sid, w=(("boot0",), ("mB",)): solvers.top_k(q, d[s], w, 2),
                check_equal((False, False)), n)
            add("cert", sid, text, lambda d, q=q, s=sid, w=world: solvers.cert(q, d[s], w), check_cert(False, world), n)
            if index == 0:
                # a single kept log is a chain: its only world is certain
                sq = cli.parse_query(terms[0])
                add("cert", sid, terms[0], lambda d, q=sq, s=sid, w=tuple(chains[0]): solvers.cert(q, d[s], w),
                    check_cert(True, tuple(chains[0])), len(chains[0]))
            if ideals <= params["ideal_cap"]:
                ab = accum.precedes_accumulator(("mA",), ("mB",))
                ac = accum.precedes_accumulator(("mA",), ("mC",))
                machine = marker_dfa(alphabet, logs)
                dfa = accum.dfa_accumulator(machine)
                fold = fold_dfa(machine)
                add("accum", sid, text, lambda d, q=q, s=sid, a=ab: solvers.poss_accum(a, q, d[s], accum.PRECEDES_NO),
                    check_accum(False, accum.PRECEDES_NO, fold_precedes(("mA",), ("mB",)), False), n)
                add("accum", sid, text, lambda d, q=q, s=sid, a=ac: solvers.cert_accum(a, q, d[s], accum.PRECEDES_YES),
                    check_accum(False, accum.PRECEDES_YES, fold_precedes(("mA",), ("mC",)), True), n)
                add("accum", sid, text, lambda d, q=q, s=sid, a=dfa, v=fold(world): solvers.poss_accum(a, q, d[s], v),
                    check_accum(True, fold(world), fold, False), n)
                add("accum", sid, text, lambda d, q=q, s=sid, a=dfa, v=fold(swapped): solvers.poss_accum(a, q, d[s], v),
                    check_accum(False, fold(swapped), fold, False), n)
            index += 1
    return Workload("merged-logs", documents, questions)


# -- rank join ------------------------------------------------------------------------


def ranking(rng, n, name, attr, tier_sizes, total):
    """A ranking with ties: tiers of distinct ``(name_i, attr_k)`` rows.

    Tier sizes cycle through ``tier_sizes`` and exactly ``n // 5`` rows carry
    ``attr0``, so selections on it keep a fixed number of rows.
    """
    marked = set(rng.sample(range(n), n // 5))
    attrs = [f"{attr}0" if j in marked else f"{attr}{rng.randint(1, 4)}" for j in range(n)]
    tiers, i = [], 0
    while i < n:
        size = 1 if total else min(tier_sizes[len(tiers) % len(tier_sizes)], n - i)
        tiers.append([(f"{name}{j}", attrs[j]) for j in range(i, i + size)])
        i += size
    return tiers


class Product:
    """Oracle for ``dirprod``/``lexprod`` of two rankings with ties.

    Elements are index pairs ``(i, j)`` into the flattened tiers; the order,
    index bounds and covering pairs follow from the tier numbers alone.
    """

    def __init__(self, kind, left_tiers, right_tiers):
        self.kind = kind
        self.left = [(row, t) for t, tier in enumerate(left_tiers) for row in tier]
        self.right = [(row, t) for t, tier in enumerate(right_tiers) for row in tier]
        self.lsizes = [len(t) for t in left_tiers]
        self.rsizes = [len(t) for t in right_tiers]
        self.elements = [(i, j) for i in range(len(self.left)) for j in range(len(self.right))]
        self.n = len(self.elements)

    def row(self, x):
        return self.left[x[0]][0] + self.right[x[1]][0]

    def less(self, x, y):
        (i, j), (i2, j2) = x, y
        li, li2 = self.left[i][1], self.left[i2][1]
        rj, rj2 = self.right[j][1], self.right[j2][1]
        if self.kind == "lexprod":
            return li < li2 or (i == i2 and rj < rj2)
        return (i == i2 or li < li2) and (j == j2 or rj < rj2) and x != y

    def _below_above(self, x):
        lt, rt = self.left[x[0]][1], self.right[x[1]][1]
        lb, la = sum(self.lsizes[:lt]), sum(self.lsizes[lt + 1:])
        rb, ra = sum(self.rsizes[:rt]), sum(self.rsizes[rt + 1:])
        if self.kind == "lexprod":
            m = len(self.right)
            return lb * m + rb, la * m + ra
        return (lb + 1) * (rb + 1) - 1, (la + 1) * (ra + 1) - 1

    def bounds(self, x):
        """Earliest and latest 1-based position; every position between is achieved."""
        below, above = self._below_above(x)
        return below + 1, self.n - above

    def world(self, rng):
        """A random linear extension: rank sum (dirprod) or lexicographic tiers."""
        def key(x):
            lt, rt = self.left[x[0]][1], self.right[x[1]][1]
            return (lt + rt,) if self.kind == "dirprod" else (lt, rt)

        order = sorted(self.elements, key=lambda x: key(x) + (rng.random(),))
        return order

    def occupants(self, k):
        return [x for x in self.elements if self.bounds(x)[0] <= k <= self.bounds(x)[1]]

    def is_total(self):
        return max(self.lsizes + self.rsizes) == 1 and (self.kind == "lexprod" or min(len(self.left), len(self.right)) == 1)

    def hasse(self):
        """Covering pairs as (row, row)."""
        def covers(side):
            return [(a, b) for a, (_, ta) in enumerate(side) for b, (_, tb) in enumerate(side) if tb == ta + 1]

        lc, rc = covers(self.left), covers(self.right)
        edges = {(self.row((i, a)), self.row((i, b))) for i in range(len(self.left)) for a, b in rc}
        if self.kind == "dirprod":
            edges |= {(self.row((a, j)), self.row((b, j))) for j in range(len(self.right)) for a, b in lc}
        else:
            top = [j for j, (_, t) in enumerate(self.right) if t == len(self.rsizes) - 1]
            bottom = [j for j, (_, t) in enumerate(self.right) if t == 0]
            edges |= {(self.row((a, j)), self.row((b, j2))) for a, b in lc for j in top for j2 in bottom}
        return edges


def check_document(product):
    rows = sorted(product.row(x) for x in product.elements)
    edges = product.hasse()

    def check(doc, _dbs):
        result = doc["relations"]["result"]
        got_rows = [tuple(r) for r in result["rows"]]
        if sorted(got_rows) != rows:
            return "document rows differ from the product"
        got = {(got_rows[a], got_rows[b]) for a, b in result["order"]}
        return None if got == edges else f"document has {len(got)} Hasse edges, expected {len(edges)}"

    return check


def rank_join(seed: int, workdir: Path) -> Workload:
    params = TRAFFIC["rank-join"]
    rng = random.Random(seed)
    documents, questions = {}, []

    def add(kind, sid, query, ask, check, size):
        questions.append(Question(len(questions), kind, sid, query, ask, check, size, sweep=True))

    for index, sc in enumerate(params["scenarios"]):
        sid = f"{sc['tag']}-{index}"
        n1, n2 = sc["sizes"]
        left = ranking(rng, n1, "r", "c", params["tier_sizes"], sc["total"])
        right = ranking(rng, n2, "h", "d", params["tier_sizes"], sc["total"])
        documents[f"{sid}.json"] = {"relations": {"R": _layered_doc(left), "H": _layered_doc(right)}}
        kind = "lexprod" if sc["query"] == "lexprod" else "dirprod"
        if sc["query"] == "sel-dirprod":
            text = 'sel(.2 != "c0", dirprod(R, H))'
            left = [t for t in ([r for r in tier if r[1] != "c0"] for tier in left) if t]
        elif sc["query"] == "dedup-dirprod":
            # dedup(H ∪ a re-sent slice of H) consolidates back to H
            text = 'dirprod(R, dedup(union(H, sel(.2 = "d0", H))))'
        else:
            text = f"{kind}(R, H)"
        product = Product(kind, left, right)
        q = cli.parse_query(text)
        n = product.n
        order = product.world(rng)
        world = tuple(product.row(x) for x in order)
        # x < y in the product: y placed first is impossible
        x = rng.choice(order[: n // 2])
        y = next(e for e in order[order.index(x) + 1:] if product.less(x, e))
        swapped = _swap(world, product.row(x), product.row(y))

        add("poss", sid, text, lambda d, q=q, s=sid, w=world: solvers.poss(q, d[s], w), check_poss(True, world), n)
        k = 1 if index % 2 == 0 else rng.randint(2, n - 1)
        target = order[k - 1]
        occupants = product.occupants(k)
        add("position", sid, text, lambda d, q=q, s=sid, r=product.row(target), k=k: solvers.select_at_k(q, d[s], r, k),
            check_equal((True, occupants == [target])), n)
        if n > params["full_rows"]:
            continue  # the largest results get the two questions above, so a pass stays short
        add("poss", sid, text, lambda d, q=q, s=sid, w=swapped: solvers.poss(q, d[s], w), check_poss(False, swapped), n)
        add("cert", sid, text, lambda d, q=q, s=sid, w=world: solvers.cert(q, d[s], w),
            check_cert(product.is_total(), world), n)
        a, b = rng.sample(product.elements, 2)
        add("position", sid, text,
            lambda d, q=q, s=sid, a=product.row(a), b=product.row(b): solvers.tuple_precedence(q, d[s], a, b),
            check_equal((not product.less(b, a), product.less(a, b), False)), n)
        k = 2 + index % 2
        if index % 3 == 2:
            top = (world[-1],) + world[: k - 1]
            expected = (False, False)
        else:
            top = world[:k]
            expected = (True, all(len(product.occupants(p)) == 1 for p in range(1, k + 1)))
        add("position", sid, text, lambda d, q=q, s=sid, w=top, k=k: solvers.top_k(q, d[s], w, k), check_equal(expected), n)
        value, answer = (world, True) if index % 2 == 0 else (swapped, False)
        add("accum", sid, text, lambda d, q=q, s=sid, v=value: solvers.poss_accum(accum.concat_accumulator(), q, d[s], v),
            check_accum(answer, value, tuple, False), n)
        if n <= params["document_rows"]:
            add("eval", sid, text, lambda d, q=q, s=sid: cli.relation_document(evaluate(q, d[s])), check_document(product), n)
        if n <= params["count_rows"]:
            add("accum", sid, text, lambda d, q=q, s=sid, v=n: solvers.cert_accum(accum.count_accumulator(), q, d[s], v),
                check_accum(True, n, None, True), n)
    return Workload("rank-join", documents, questions)


# -- cli session ----------------------------------------------------------------------


def run_cli(argv):
    """``cli.run`` in-process with captured output; exit 3 is a refusal."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    if code == cli.EXIT_RESOURCE:
        raise ResourceExceeded(err.getvalue().strip())
    return code, out.getvalue(), err.getvalue()


def _field(out, prefix):
    for line in out.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    return None


def check_cli(code, first_line, verify=None):
    def check(result, dbs):
        got, out, err = result
        if got != code:
            return f"exit {got}, expected {code}: {err.strip()[:200]}"
        if not out.startswith(first_line):
            return f"output starts {out[:40]!r}, expected {first_line!r}"
        return verify(out, dbs) if verify else None

    return check


def verify_witness(query, value, fold):
    """Witness ids must be a linear extension of the result folding to ``value``."""
    verified = set()

    def verify(out, dbs):
        ids = tuple(json.loads(_field(out, "witness ids:")))
        if ids not in verified:
            relation = evaluate(cli.parse_query(query), dbs["session"])
            if not is_linear_extension(relation, ids):
                return "cli witness is not a linear extension"
            if fold(world_of(relation, ids)) != value:
                return "cli witness does not match the candidate"
            verified.add(ids)
        return None

    return verify


def verify_counterexample(candidate):
    def verify(out, _dbs):
        other = tuple(tuple(r) for r in json.loads(_field(out, "counterexample world:")))
        if other == candidate or sorted(other) != sorted(candidate):
            return "cli counterexample is not another arrangement of the candidate"
        return None

    return verify


def cli_session(seed: int, workdir: Path) -> Workload:
    params = TRAFFIC["cli-session"]
    rng = random.Random(seed)
    alphabet = [f"e{i}" for i in range(params["logs"]["alphabet"])]
    names = ["Web", "Db", "Cache"][: params["logs"]["count"]]
    lengths = [params["logs"]["length"]] * len(names)
    relations, terms, chains, world, _ = build_logs(rng, len(names), lengths, alphabet, 0.2, names=names)
    archive = [(f"a{rng.randrange(8)}", rng.choice(("info", "debug")))
               for _ in range(params["archive"]["chains"] * params["archive"]["length"])]
    length = params["archive"]["length"]
    relations["Archive"] = {"arity": 2, "rows": [list(r) for r in archive],
                            "order": [[i, i + 1] for i in range(len(archive) - 1) if (i + 1) % length]}
    left = ranking(rng, params["rankings"]["size"], "r", "c", [1, 1, 2], False)
    right = ranking(rng, params["rankings"]["size"], "h", "d", [1, 1, 2], False)
    relations["Rest"], relations["Hotel"] = _layered_doc(left), _layered_doc(right)
    dup = [("x",), ("y",)] * 4
    relations["Dup"] = _chain_doc(dup)
    relations["Pair"] = {"arity": 1, "rows": [["p"], ["q"]], "order": []}
    machine = marker_dfa(alphabet, len(names))
    documents = {"session.json": {"relations": relations}, "machine.json": machine}
    db = str(workdir / "session.json")

    logs = union_text(terms)
    n = len(world)
    swapped = _swap(world, ("mA",), ("mB",))
    product = Product("dirprod", left, right)
    porder = product.world(rng)
    pworld = tuple(product.row(x) for x in porder)
    below = next(e for e in porder[1:] if product.less(porder[0], e))
    pswapped = _swap(pworld, product.row(porder[0]), product.row(below))
    # dirprod of a chain with a 2-antichain: two chains of duplicate-labelled rows
    pairs = tuple(_interleave(rng, [[(r[0], "p") for r in dup], [(r[0], "q") for r in dup]]))
    web = tuple(chains[0])
    fold = fold_dfa(machine)

    calls = [
        ("poss", ["poss", db, logs, _rows_json(world)], check_cli(0, "poss: yes", verify_witness(logs, world, tuple)), n),
        ("poss", ["poss", db, logs, _rows_json(swapped)], check_cli(1, "poss: no"), n),
        ("poss", ["poss", db, "dirprod(Rest, Hotel)", _rows_json(pworld)],
         check_cli(0, "poss: yes", verify_witness("dirprod(Rest, Hotel)", pworld, tuple)), product.n),
        ("poss", ["poss", db, "dirprod(Rest, Hotel)", _rows_json(pswapped)], check_cli(1, "poss: no"), product.n),
        ("poss", ["poss", db, "dirprod(Dup, Pair)", _rows_json(pairs)],
         check_cli(0, "poss: yes", verify_witness("dirprod(Dup, Pair)", pairs, tuple)), len(pairs)),
        ("cert", ["cert", db, logs, _rows_json(world)], check_cli(1, "cert: no", verify_counterexample(world)), n),
        ("cert", ["cert", db, terms[0], _rows_json(web)], check_cli(0, "cert: yes"), len(web)),
        ("cert", ["cert", db, "dirprod(Rest, Hotel)", _rows_json(pworld)],
         check_cli(1, "cert: no", verify_counterexample(pworld)), product.n),
        ("accum", ["accum", db, logs, "--op", 'precedes(["mA"],["mB"])', "--value", "bottom"], check_cli(1, "poss: no"), n),
        ("accum", ["accum", db, logs, "--op", 'precedes(["mA"],["mC"])', "--value", "top", "--mode", "cert"],
         check_cli(1, "cert: no"), n),
        ("accum", ["accum", db, logs, "--op", 'dfa("machine.json")', "--value", json.dumps(
            {s: machine["states"][i] for s, i in zip(machine["states"], fold(world))})],
         check_cli(0, "poss: yes", verify_witness(logs, fold(world), fold)), n),
        ("accum", ["accum", db, logs, "--op", "count", "--value", str(n)], check_cli(0, "poss: yes"), n),
        ("accum", ["accum", db, logs, "--op", "count", "--value", str(n), "--mode", "cert"], check_cli(0, "cert: yes"), n),
        ("position", ["accum", db, logs, "--op", "topk(2)", "--value", _rows_json(world[:2])], check_cli(0, "poss: yes"), n),
        ("position", ["accum", db, logs, "--op", "select_at(1)", "--value", '[["boot0"]]', "--mode", "cert"],
         check_cli(1, "cert: no"), n),
        ("position", ["accum", db, logs, "--op", "topk(1)", "--value", '[["boot1"]]', "--mode", "cert"],
         check_cli(1, "cert: no"), n),
        ("eval", ["eval", db, "dirprod(Rest, Hotel)", "--json"],
         check_cli(0, "{", lambda out, dbs, check=check_document(product): check(json.loads(out), dbs)), product.n),
        ("eval", ["analyze", db, logs],
         check_cli(0, "relation", lambda out, _d: None if f"result: size {n}, arity 1, width {len(names)}," in out
                   else "analyze reports another size or width for the merged logs"), n),
    ]
    questions = [
        Question(qid, kind, "session", argv[2], lambda _d, argv=argv: run_cli(argv), check, size)
        for qid, (kind, argv, check, size) in enumerate(calls)
    ]
    return Workload("cli-session", documents, questions)


GENERATORS = {"merged-logs": merged_logs, "rank-join": rank_join, "cli-session": cli_session}
