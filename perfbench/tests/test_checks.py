"""Each answer check of the benchmark rejects a planted wrong answer.

The instance is the paper's Example 9 database (λ = 3 and exactly four
walks for ``h* s (h | s)*`` from Alix to Bob); the correct answers come
from the engine, then one fault at a time is planted into them.
"""

from __future__ import annotations

import pytest

from perfbench.checks import (
    CheckFailed,
    Checker,
    check_annotation_entries,
    check_answer_set,
    check_recovered,
    recovered_edges,
)
from perfbench.inputs import record_of
from repro.api import Database
from repro.workloads.fraud import example9_graph

QUERY = "h* s (h | s)*"


@pytest.fixture
def graph():
    return example9_graph()


@pytest.fixture
def checker(graph):
    return Checker(record_of(graph))


def _pair(graph, query=QUERY, source="Alix", target="Bob"):
    op = {"kind": "pair", "q": query, "s": source, "t": target}
    rs = Database(graph).query(query).from_(source).to(target).run()
    return op, {"lam": rs.lam, "rows": [list(r.edges) for r in rs]}


def test_correct_answer_passes(graph, checker):
    op, result = _pair(graph)
    assert result["lam"] == 3 and len(result["rows"]) == 4
    checker.read(0, op, result)


def test_duplicate_row_is_rejected(graph, checker):
    op, result = _pair(graph)
    result["rows"][1] = list(result["rows"][0])
    with pytest.raises(CheckFailed, match="duplicate"):
        checker.read(0, op, result)


def test_row_one_edge_longer_than_lam_is_rejected(graph, checker):
    op, result = _pair(graph)
    result["rows"][0] = result["rows"][0] + [result["rows"][0][-1]]
    with pytest.raises(CheckFailed, match="4 edges, λ=3"):
        checker.read(0, op, result)


def test_walk_the_query_rejects_is_rejected(graph, checker):
    # Alix -h-> Cassie -s-> Eve -h,s-> Bob is a walk of λ = 3 edges,
    # but "h h h" cannot read the s-only middle edge.
    op, result = _pair(graph, query="h h h")
    assert result["lam"] == 3
    result["rows"][0] = [2, 5, 6]
    with pytest.raises(CheckFailed, match="not an accepted walk"):
        checker.read(0, op, result)


def test_row_count_short_of_dp_count_is_rejected(graph, checker):
    op, result = _pair(graph)
    result["rows"].pop()
    with pytest.raises(CheckFailed, match="expected 4"):
        checker.read(0, op, result)


def test_short_page_is_rejected(graph, checker):
    op, result = _pair(graph)
    op["limit"] = 3
    result["rows"] = result["rows"][:2]
    with pytest.raises(CheckFailed, match="expected 3"):
        checker.read(0, op, result)


def test_wrong_lam_is_rejected(graph, checker):
    op, result = _pair(graph)
    result["lam"] = 4
    with pytest.raises(CheckFailed, match="oracle λ=3"):
        checker.read(0, op, result)


def test_row_set_differing_from_the_oracle_is_rejected(graph, checker):
    op, result = _pair(graph)
    expected = checker.answer_set(QUERY, checker.record.ids["Alix"],
                                  checker.record.ids["Bob"])
    check_answer_set(result["rows"], expected, "engine")
    with pytest.raises(CheckFailed, match="differs"):
        check_answer_set(result["rows"][:-1] + [[0, 3, 6]], expected,
                         "planted")


def test_to_all_page_with_wrong_row_lam_is_rejected(graph, checker):
    op = {"kind": "to_all", "q": QUERY, "s": "Alix", "limit": 5}
    rs = Database(graph).query(QUERY).from_("Alix").to_all().limit(5).run()
    rows = [[r.target, r.lam, list(r.edges)] for r in rs]
    checker.read(0, op, {"lam": None, "rows": rows})
    rows[0][1] += 1
    with pytest.raises(CheckFailed):
        checker.read(1, op, {"lam": None, "rows": rows})


def test_record_follows_writes(graph, checker):
    # After a write the record, not the generated graph, is the truth:
    # the answer computed before the write is now wrong.
    op, result = _pair(graph)
    alix, bob = "Alix", "Bob"
    checker.write({"ops": [{"op": "add_edge", "src": alix, "tgt": bob,
                            "labels": ["s"]}], "compact": False})
    with pytest.raises(CheckFailed, match="oracle λ=1"):
        checker.read(0, op, result)


def test_recovery_missing_an_acknowledged_write_is_rejected(
    graph, checker, tmp_path
):
    wal = str(tmp_path / "wal")
    op = {"ops": [{"op": "add_edge", "src": "Bob", "tgt": "Eve",
                   "labels": ["h"]}], "compact": False}
    db = Database.open(wal, graph=graph, sync="always")
    db.mutate(op["ops"], compact=False)
    db.close()
    checker.write(op)
    acknowledged = checker.record.live_edge_set()
    check_recovered(recovered_edges(wal), acknowledged)
    # Lose the acknowledged batch: cut the log's last frame.
    log = tmp_path / "wal" / "wal.log"
    frames = log.read_bytes().splitlines(keepends=True)
    log.write_bytes(b"".join(frames[:-1]))
    with pytest.raises(CheckFailed, match="1 missing"):
        check_recovered(recovered_edges(wal), acknowledged)


def test_annotation_entries_checks():
    check_annotation_entries(5, 9, 100, "ok")
    with pytest.raises(CheckFailed):
        check_annotation_entries(10, 9, 100, "early stop larger")
    with pytest.raises(CheckFailed):
        check_annotation_entries(5, 101, 100, "above Remark 17 bound")

