"""Document loading, query parsing, and black-box command behavior."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from ordlattice.algebra import (
    ChainConst,
    Concat,
    DirProduct,
    DupElim,
    LexProduct,
    Projection,
    RelName,
    Selection,
    Union,
)
from ordlattice.cli import (
    AccumQuery,
    GroupByQuery,
    load_candidate_world,
    load_database,
    parse_query,
    relation_document,
    run,
    type_check,
)
from ordlattice.core import possible_worlds, width_and_chain_partition
from ordlattice.algebra import evaluate
from ordlattice.errors import ArityError, CycleError, ParseError

DATA = Path(__file__).parent / "data" / "restaurants.json"


@pytest.fixture
def db_path(tmp_path):
    return str(DATA)


def write_json(tmp_path, name, payload) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestLoadDatabase:
    def test_fixture_loads_with_unit_widths(self):
        db = load_database(DATA)
        for name in ("Rest", "Hotel", "Hotel2", "Rest2"):
            assert width_and_chain_partition(db[name])[0] == 1
        assert db["Rest"].arity == 2

    def test_empty_document(self, tmp_path):
        path = write_json(tmp_path, "empty.json", {"relations": {}})
        db = load_database(path)
        assert db.names() == []

    def test_reflexive_pair_cycles(self, tmp_path):
        path = write_json(
            tmp_path, "bad.json", {"relations": {"R": {"arity": 1, "rows": [["x"]], "order": [[0, 0]]}}}
        )
        with pytest.raises(CycleError) as exc:
            load_database(path)
        assert exc.value.relation == "R"

    def test_order_closed_by_loader(self, tmp_path):
        payload = {"relations": {"R": {"arity": 1, "rows": [["a"], ["b"], ["c"]], "order": [[0, 1], [1, 2]]}}}
        db = load_database(write_json(tmp_path, "chain.json", payload))
        assert db["R"].less(0, 2)

    @pytest.mark.parametrize(
        "spec",
        [
            {"arity": 2, "rows": [["a"]], "order": []},
            {"rows": [[True]], "order": []},
            {"rows": [[-1]], "order": []},
            {"rows": [["a"]], "order": [[0, 5]]},
            {"rows": [["a"]], "order": [["x", 0]]},
        ],
    )
    def test_malformed_documents(self, tmp_path, spec):
        path = write_json(tmp_path, "bad.json", {"relations": {"R": spec}})
        with pytest.raises(ParseError):
            load_database(path)

    def test_missing_file(self):
        with pytest.raises(ParseError):
            load_database("no-such-file.json")


class TestParseQuery:
    def test_pair_query(self):
        q = parse_query('dirprod(Rest, sel(.2 != "12", Hotel))')
        assert isinstance(q, DirProduct)
        assert isinstance(q.right, Selection)
        assert q.right.predicate.negated

    def test_chain(self):
        assert parse_query("chain(3)") == ChainConst(3)

    def test_all_operators(self):
        q = parse_query('dedup(union(proj(1, A), concat(lexprod(B, [1, "x"]), C)))')
        assert isinstance(q, DupElim)
        assert isinstance(q.sub, Union)
        assert isinstance(q.sub.right, Concat)
        assert isinstance(q.sub.right.left, LexProduct)

    def test_predicate_combinators(self):
        q = parse_query('sel(not (.1 = "a" or .1 = .2) and .2 != 3, R)')
        assert isinstance(q, Selection)

    def test_outer_accum(self):
        q = parse_query("accum(topk(2), proj(1, R))")
        assert isinstance(q, AccumQuery)
        assert q.accumulator_spec == "topk(2)"
        assert isinstance(q.sub, Projection)

    def test_outer_groupby(self):
        q = parse_query("groupby(1, 2, concat, R)")
        assert isinstance(q, GroupByQuery)
        assert q.attrs == (1, 2)
        assert q.accumulator_spec == "concat"

    def test_accum_with_tuple_arguments(self):
        q = parse_query('accum(precedes(["a"], ["b"]), R)')
        assert isinstance(q, AccumQuery)
        assert q.accumulator_spec == 'precedes(["a"],["b"])'

    def test_nested_accum_rejected(self):
        with pytest.raises(ParseError):
            parse_query("union(accum(concat, R), S)")

    def test_position_in_errors(self):
        with pytest.raises(ParseError) as exc:
            parse_query("sel(.1 = , R)")
        assert exc.value.line == 1 and exc.value.column is not None
        with pytest.raises(ParseError) as exc:
            parse_query("union(R,\n  lexprod(S,)")
        assert exc.value.line == 2

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_query("chain(2) chain(3)")

    def test_type_check_arity(self):
        db = load_database(DATA)
        with pytest.raises(ArityError):
            type_check(parse_query("sel(.5 = .1, Rest)"), db)
        assert type_check(parse_query("proj(1, Rest)"), db) == 1


class TestCandidates:
    def test_inline_json(self):
        assert load_candidate_world('[["a", 1]]') == (("a", 1),)

    def test_from_file(self, tmp_path):
        path = write_json(tmp_path, "cand.json", [["a"], ["b"]])
        assert load_candidate_world(path) == (("a",), ("b",))

    def test_bad_candidate(self):
        with pytest.raises(ParseError):
            load_candidate_world("not json at all")

    def test_candidate_values_outside_domain_rejected(self):
        # JSON true would otherwise compare equal to the natural 1
        with pytest.raises(ParseError):
            load_candidate_world("[[true]]")
        with pytest.raises(ParseError):
            load_candidate_world("[[1.5]]")
        with pytest.raises(ParseError):
            load_candidate_world("[[-2]]")


class TestCommands:
    def test_eval_prints_canonical_relation(self, db_path, capsys):
        code = run(["eval", db_path, 'dirprod(Rest, sel(.2 != "12", Hotel))'])
        out = capsys.readouterr().out
        assert code == 0
        assert "relation: 4 tuples, arity 4" in out
        assert "edges: 0<1 0<2 1<3 2<3" in out

    def test_eval_is_byte_stable(self, db_path, capsys):
        run(["eval", db_path, 'dirprod(Rest, sel(.2 != "12", Hotel))'])
        first = capsys.readouterr().out
        run(["eval", db_path, 'dirprod(Rest, sel(.2 != "12", Hotel))'])
        assert capsys.readouterr().out == first

    def test_eval_worlds(self, db_path, capsys):
        code = run(["eval", db_path, 'dirprod(Rest, sel(.2 != "12", Hotel))', "--worlds", "10"])
        out = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert len(out) == 2
        assert all(json.loads(line) for line in out)

    def test_eval_json_roundtrips(self, db_path, tmp_path, capsys):
        code = run(["eval", db_path, "union(Rest, Hotel)", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        reloaded_path = tmp_path / "result.json"
        reloaded_path.write_text(out)
        db = load_database(reloaded_path)
        original = evaluate(parse_query("union(Rest, Hotel)"), load_database(db_path))
        assert db["result"].same_possible_worlds(original)

    def test_eval_complete_failure(self, db_path, capsys):
        code = run(["eval", db_path, "dedup(proj(1, Hotel))"])
        out = capsys.readouterr().out
        assert code == 0 and "complete failure" in out

    def test_eval_hasse_only(self, db_path, capsys):
        code = run(["eval", db_path, 'dirprod(Rest, sel(.2 != "12", Hotel))', "--hasse"])
        out = capsys.readouterr().out.strip()
        assert code == 0
        assert out == "edges: 0<1 0<2 1<3 2<3"

    def test_accum_value_from_file(self, db_path, tmp_path, capsys):
        value = write_json(tmp_path, "value.json", [["it"]])
        code = run(["accum", db_path, "proj(2, Menu)", "--op", "topk(1)", "--value", value, "--mode", "poss"])
        assert code == 0

    def test_poss_yes_prints_witness(self, db_path, tmp_path, capsys):
        cand = write_json(
            tmp_path, "cand.json", [["it"], ["fr"], ["jp"], ["it"], ["fr"], ["jp"]]
        )
        code = run(["poss", db_path, "proj(2, Menu)", cand])
        out = capsys.readouterr().out
        assert code == 0
        assert "poss: yes" in out and "witness ids:" in out and "witness world:" in out

    def test_cert_no_prints_counterexample(self, db_path, tmp_path, capsys):
        cand = write_json(tmp_path, "cand.json", [["it"], ["fr"], ["jp"], ["it"], ["fr"], ["jp"]])
        code = run(["cert", db_path, "proj(2, Menu)", cand])
        out = capsys.readouterr().out
        assert code == 1
        assert "cert: no" in out and "counterexample world:" in out

    def test_cert_yes(self, db_path, capsys):
        candidate = json.dumps([["Gagnaire", "8", "Balzac", "8"], ["TourArgent", "5", "Mercure", "5"]])
        code = run(["cert", db_path, "sel(.2 = .4, dirprod(Rest, Hotel2))", candidate])
        assert code == 0
        assert "cert: yes" in capsys.readouterr().out

    def test_poss_no_exit_one(self, db_path, capsys):
        candidate = json.dumps([["TourArgent", "5"], ["Gagnaire", "8"]])
        assert run(["poss", db_path, "Rest", candidate]) == 1

    def test_accum_command(self, db_path, capsys):
        code = run(["accum", db_path, "proj(2, Menu)", "--op", "topk(1)", "--value", '[["it"]]', "--mode", "poss"])
        out = capsys.readouterr().out
        assert code == 0 and "poss: yes" in out
        code = run(["accum", db_path, "proj(2, Menu)", "--op", "topk(1)", "--value", '[["jp"]]', "--mode", "poss"])
        assert code == 1

    def test_accum_precedes(self, db_path, capsys):
        code = run(
            ["accum", db_path, "proj(2, Menu)", "--op", 'precedes(["it"], ["jp"])', "--value", "top", "--mode", "cert"]
        )
        out = capsys.readouterr().out
        assert code == 0 and "cert: yes" in out

    def test_accum_query_form(self, db_path, capsys):
        candidate = json.dumps([["it"]])
        code = run(["poss", db_path, "accum(topk(1), proj(2, Menu))", candidate])
        assert code == 0

    def test_groupby_query_form(self, db_path, capsys):
        candidate = json.dumps([[["fr"], [["fr"], ["fr"]]], [["it"], [["it"], ["it"]]], [["jp"], [["jp"], ["jp"]]]])
        code = run(["cert", db_path, "groupby(1, concat, proj(2, Menu))", candidate])
        assert code == 0
        out = capsys.readouterr().out
        assert "cert: yes" in out
        assert run(["cert", db_path, "groupby(2, concat, proj(2, Menu))", candidate]) == 2

    def test_analyze(self, db_path, capsys):
        code = run(["analyze", db_path, "union(Rest, Rest)"])
        out = capsys.readouterr().out
        assert code == 0
        assert "relation Rest: size 2, arity 2, width 1, ia-width 2" in out
        assert "static width bound 2" in out

    def test_parse_error_exit_two(self, db_path, capsys):
        assert run(["eval", db_path, "sel(.1 = , R)"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unbound_relation_exit_two(self, db_path, capsys):
        assert run(["eval", db_path, "Nope"]) == 2

    def test_resource_exceeded_exit_three(self, tmp_path, capsys):
        payload = {
            "relations": {
                "Big": {"arity": 1, "rows": [["x"]] * 16 + [["y"]] * 2, "order": [[16, 17]]}
            }
        }
        path = write_json(tmp_path, "big.json", payload)
        candidate = json.dumps([["x"]] * 16 + [["y"]] * 2)
        code = run(["--policy", "width_limit=1", "--policy", "ia_limit=1", "poss", path, "Big", candidate])
        assert code == 3
        assert "resource exceeded" in capsys.readouterr().err

    def test_runs_do_not_share_arguments(self, tmp_path, monkeypatch, capsys):
        # the parser is built once per process; every run parses into a fresh namespace
        from ordlattice import cli

        seen = []
        for name in ("_cmd_eval", "_cmd_poss_cert"):

            def spy(args, *rest, original=getattr(cli, name), **kwargs):
                seen.append(dict(vars(args)))
                return original(args, *rest, **kwargs)

            monkeypatch.setattr(cli, name, spy)
        payload = {"relations": {"Big": {"arity": 1, "rows": [["x"]] * 16 + [["y"]] * 2, "order": [[16, 17]]}}}
        path = write_json(tmp_path, "big.json", payload)
        candidate = json.dumps([["x"]] * 16 + [["y"]] * 2)
        assert run(["--policy", "width_limit=1", "--policy", "ia_limit=1", "poss", path, "Big", candidate]) == 3
        assert run(["--policy", "brute_elements_limit=20", "eval", path, "Big", "--hasse"]) == 0
        assert run(["poss", path, "Big", candidate]) == 0  # decided once the caps are back to their defaults
        assert [s["policy"] for s in seen] == [["width_limit=1", "ia_limit=1"], ["brute_elements_limit=20"], None]
        assert "hasse" not in seen[2] and "candidate" not in seen[1]

    def test_policy_flag_validation(self, db_path, capsys):
        assert run(["--policy", "nonsense=1", "analyze", db_path]) == 2
        assert run(["--policy", "width_limit=abc", "analyze", db_path]) == 2

    def test_debug_logging_env(self, db_path, tmp_path, monkeypatch, capsys):
        import os
        import subprocess
        import sys

        candidate = json.dumps([["Gagnaire", "8"], ["TourArgent", "5"]])
        env = {"ORDLATTICE_LOG": "debug", "PATH": "/usr/bin:/bin"}
        if "PYTHONPATH" in os.environ:  # the package may be importable only from there
            env["PYTHONPATH"] = os.environ["PYTHONPATH"]
        proc = subprocess.run(
            [sys.executable, "-m", "ordlattice", "poss", db_path, "Rest", candidate],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "duplicate-free" in proc.stderr


def test_relation_document_shape(db_path):
    db = load_database(db_path)
    doc = relation_document(db["Rest"])
    assert doc["relations"]["result"]["rows"] == [["Gagnaire", "8"], ["TourArgent", "5"]]
    assert doc["relations"]["result"]["order"] == [[0, 1]]
