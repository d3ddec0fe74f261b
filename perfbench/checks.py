"""Answer checks, made apart from the engine and outside the timing.

Every read is checked against the workload's :class:`RecordGraph` at
the moment the read ran — the generated edges plus the writes applied
before it — using :mod:`repro.baselines.oracle` (a BFS over vertex ×
automaton-state-set pairs and brute-force walk enumeration) and the
DP count on a graph rebuilt from the record.  Each check raises
:class:`CheckFailed`; ``tests/test_checks.py`` plants a wrong answer
for each one and sees it rejected.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.automata.nfa import ANY
from repro.baselines.oracle import (
    oracle_answer_set,
    oracle_lam,
    oracle_walk_matches,
)
from repro.query.rpq import RPQ

#: Reads whose DP count is at most this are small enough for the
#: brute-force answer-set oracle, which checks every ANSWER_SET_EVERY-th
#: operation of the (seeded) list.
ANSWER_SET_MAX = 64
ANSWER_SET_EVERY = 7


class CheckFailed(AssertionError):
    """A wrong answer."""


def check_lam(lam: Optional[int], expected: Optional[int], what: str) -> None:
    if lam != expected:
        raise CheckFailed(f"{what}: λ={lam}, oracle λ={expected}")


def check_distinct(rows: Sequence[Sequence[int]], what: str) -> None:
    if len({tuple(r) for r in rows}) != len(rows):
        raise CheckFailed(f"{what}: duplicate rows")


def check_walks(record, nfa, rows, source: int, target: int,
                lam: Optional[int], what: str) -> None:
    """Every row is an accepted walk from ``source`` to ``target`` of
    exactly λ edges in the record (its live edges only)."""
    for row in rows:
        if len(row) != lam:
            raise CheckFailed(f"{what}: row {row} has {len(row)} edges, λ={lam}")
        if not all(record.is_live(e) for e in row):
            raise CheckFailed(f"{what}: row {row} uses a dead or unknown edge")
        if not oracle_walk_matches(record, nfa, row, source, target):
            raise CheckFailed(f"{what}: row {row} is not an accepted walk")


def check_count(n_rows: int, count: int, limit: Optional[int], what: str) -> None:
    expected = count if limit is None else min(limit, count)
    if n_rows != expected:
        raise CheckFailed(
            f"{what}: {n_rows} rows, expected {expected} (DP count {count}, "
            f"limit {limit})"
        )


def check_answer_set(rows, expected, what: str) -> None:
    if sorted(tuple(r) for r in rows) != sorted(tuple(r) for r in expected):
        raise CheckFailed(f"{what}: row set differs from the oracle's")


def check_recovered(recovered: Iterable, record_edges: Iterable) -> None:
    got, want = sorted(recovered), sorted(record_edges)
    if got != want:
        missing = len([e for e in want if e not in set(got)])
        raise CheckFailed(
            f"recovery: {len(got)} live edges recovered, {len(want)} "
            f"acknowledged ({missing} missing)"
        )


def recovered_edges(wal_dir: str) -> List:
    """The live edges ``Database.recover`` gives back from ``wal_dir``,
    by vertex name (the form of :meth:`RecordGraph.live_edge_set`)."""
    from repro.api import Database

    state = Database.recover(wal_dir).live()
    return [
        (
            str(state.vertex_name(state.src(e))),
            str(state.vertex_name(state.tgt(e))),
            tuple(sorted(state.label_names_of(e))),
        )
        for e in state.live_edges()
    ]


def check_annotation_entries(pair: int, saturate: int, bound: int,
                             what: str) -> None:
    if not pair <= saturate <= bound:
        raise CheckFailed(
            f"{what}: annotation entries pair={pair}, saturate={saturate}, "
            f"|E|×|Δ|={bound}"
        )


class Checker:
    """Replays a workload's writes on the record and checks each read
    against the record as it stood when the read ran."""

    def __init__(self, record) -> None:
        self.record = record
        self._nfa: Dict[str, Any] = {}
        self._memo: Dict[Any, Any] = {}
        self._seen = set()

    def nfa(self, q: str):
        # Glushkov's ε-free automaton: the engine runs Thompson's, and
        # the oracle's state-set steps are cheaper without ε-closures.
        if q not in self._nfa:
            self._nfa[q] = RPQ(q, method="glushkov").automaton
        return self._nfa[q]

    def _state(self, q: str):
        """The part of the record ``q``'s answers depend on: writes that
        touched a label the query reads, and edge renumberings."""
        nfa = self.nfa(q)
        labels = {
            a for p in nfa.states() for a, _ in nfa.transitions_from(p)
        }
        if ANY in labels:
            return self.record.version
        writes = self.record.label_writes
        return (self.record.edit_epoch,) + tuple(
            writes.get(a, 0) for a in sorted(labels)
        )

    def _memo_get(self, key, build):
        key = (self._state(key[1]),) + key
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def lam(self, q: str, s: int, t: int) -> Optional[int]:
        return self._memo_get(
            ("lam", q, s, t), lambda: oracle_lam(self.record, self.nfa(q), s, t)
        )

    def count(self, q: str, s: int, t: int, lam: Optional[int]) -> int:
        """``count(method="dp")`` of the pair on a graph rebuilt from
        the record's edges that a λ-walk from the source can use."""
        from repro.core.engine import DistinctShortestWalks

        def build():
            if lam is None:
                return 0
            record = self.record
            sub = record.subgraph(
                record.product_edges(self.nfa(q), s, lam), (s, t)
            )
            engine = DistinctShortestWalks(
                sub, self.nfa(q), record.names[s], record.names[t]
            )
            return engine.count(method="dp")

        return self._memo_get(("count", q, s, t), build)

    def count_to_all(self, q: str, s: int) -> int:
        """``count(method="dp")`` of ``from_(s).to_all()`` on a graph
        rebuilt from the record's edges reachable in the product."""
        from repro.api import Database

        def build():
            record = self.record
            sub = record.subgraph(record.product_edges(self.nfa(q), s), (s,))
            db = Database(sub, annotation_cache_size=1)
            return db.query(q).from_(record.names[s]).to_all().count(
                method="dp"
            )

        return self._memo_get(("count_all", q, s), build)

    def answer_set(self, q: str, s: int, t: int):
        return self._memo_get(
            ("set", q, s, t),
            lambda: oracle_answer_set(self.record, self.nfa(q), s, t),
        )

    # -- per operation -----------------------------------------------------

    def write(self, op: Dict[str, Any]) -> None:
        for w in op["ops"]:
            self.record.apply(w)
        if op["compact"]:
            self.record.compact()

    def read(self, index: int, op: Dict[str, Any], result: Dict[str, Any]) -> None:
        what = f"op {index} {op['kind']} {op['q']!r} {op['s']}→{op.get('t', '*')}"
        record, nfa = self.record, self.nfa(op["q"])
        s = record.ids[op["s"]]
        rows: List = result["rows"]
        if op["kind"] == "to_all":
            self._to_all(op, result, s, what)
            return
        t = record.ids[op["t"]]
        lam = self.lam(op["q"], s, t)
        check_lam(result["lam"], lam, what)
        # Rows already found distinct and valid stay so until a write
        # removes, relabels or renumbers an edge.
        seen = (record.edit_epoch, op["q"], s, t, lam,
                hash(tuple(map(tuple, rows))))
        if seen not in self._seen:
            check_distinct(rows, what)
            check_walks(record, nfa, rows, s, t, lam, what)
            self._seen.add(seen)
        if op["kind"] == "any":
            check_count(len(rows), 0 if lam is None else 1, None, what)
            return
        count = self.count(op["q"], s, t, lam)
        limit = op.get("limit")
        check_count(len(rows), count, limit, what)
        if (
            index % ANSWER_SET_EVERY == 0
            and count <= ANSWER_SET_MAX
            and (limit is None or count <= limit)
        ):
            check_answer_set(rows, self.answer_set(op["q"], s, t), what)

    def _to_all(self, op, result, s: int, what: str) -> None:
        record, nfa = self.record, self.nfa(op["q"])
        rows = result["rows"]
        check_distinct([edges for _, _, edges in rows], what)
        for target, lam, edges in rows:
            t = record.ids[target]
            check_lam(lam, self.lam(op["q"], s, t), f"{what} ({target})")
            check_walks(record, nfa, [edges], s, t, lam, f"{what} ({target})")
        check_count(len(rows), self.count_to_all(op["q"], s),
                    op["limit"], what)
