"""The benchmark's own record of a workload's graph.

The checks never ask the engine what the graph is: they rebuild it
from this record — the generated edges plus every write the benchmark
applied — and hand it to :mod:`repro.baselines.oracle`.  The record
mirrors the engine's documented edge-id contract (``repro.live``):
new edges take the next id, removed edges keep their id as a
tombstone, and a compaction renumbers the live edges in ascending
old-id order.  ``out_edges`` / ``src`` / ``tgt`` / ``label_names_of``
are the accessors the oracle functions read, so a record is passed to
them directly.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Tuple


class RecordGraph:
    """Edges as plain lists; vertex ids are interned by name."""

    def __init__(
        self,
        vertices: Sequence[Hashable],
        edges: Sequence[Tuple[Hashable, Hashable, Sequence[str]]],
    ) -> None:
        self.names: List[Hashable] = []
        self.ids: Dict[Hashable, int] = {}
        for name in vertices:
            self.vertex(name)
        self._src: List[int] = []
        self._tgt: List[int] = []
        self._labels: List[Tuple[str, ...]] = []
        self._alive: List[bool] = []
        self._out: Dict[int, List[int]] = {}
        for src, tgt, labels in edges:
            self.add_edge(src, tgt, labels)
        #: Bumped by every write; the checks key their memos on it.
        self.version = 0
        #: Bumped only by writes that can break an existing walk (a
        #: removal, a relabel, a renumbering compaction).
        self.edit_epoch = 0
        #: Per label, the number of writes that touched an edge carrying
        #: it; an answer can only change when a label the query reads
        #: was touched (or edge ids were renumbered).
        self.label_writes: Dict[str, int] = {}

    # -- the accessors the oracle reads -----------------------------------

    def out_edges(self, v: int) -> List[int]:
        return [e for e in self._out.get(v, ()) if self._alive[e]]

    def src(self, e: int) -> int:
        return self._src[e]

    def tgt(self, e: int) -> int:
        return self._tgt[e]

    def label_names_of(self, e: int) -> Tuple[str, ...]:
        return self._labels[e]

    # -- bookkeeping -------------------------------------------------------

    def vertex(self, name: Hashable) -> int:
        vid = self.ids.get(name)
        if vid is None:
            vid = self.ids[name] = len(self.names)
            self.names.append(name)
        return vid

    def is_live(self, e: int) -> bool:
        return 0 <= e < len(self._alive) and self._alive[e]

    @property
    def edge_count(self) -> int:
        """Size of the edge-id space, tombstones included."""
        return len(self._src)

    def live_edges(self) -> List[int]:
        return [e for e, alive in enumerate(self._alive) if alive]

    def live_edge_set(self) -> List[Tuple[Hashable, Hashable, Tuple[str, ...]]]:
        """The live edges by vertex name, sorted: what recovery must
        give back."""
        return sorted(
            (
                str(self.names[self._src[e]]),
                str(self.names[self._tgt[e]]),
                tuple(sorted(self._labels[e])),
            )
            for e in self.live_edges()
        )

    def add_edge(self, src: Hashable, tgt: Hashable, labels: Sequence[str]) -> int:
        e = len(self._src)
        s, t = self.vertex(src), self.vertex(tgt)
        self._src.append(s)
        self._tgt.append(t)
        self._labels.append(tuple(sorted(labels)))
        self._alive.append(True)
        self._out.setdefault(s, []).append(e)
        return e

    def _touch(self, labels) -> None:
        for a in labels:
            self.label_writes[a] = self.label_writes.get(a, 0) + 1

    def apply(self, op: dict) -> None:
        """Apply one wire-form write op (``repro.live.delta`` vocabulary)."""
        kind = op["op"]
        if kind == "add_edge":
            self.add_edge(op["src"], op["tgt"], op["labels"])
            self._touch(op["labels"])
        elif kind == "remove_edge":
            self._alive[op["edge"]] = False
            self._touch(self._labels[op["edge"]])
            self.edit_epoch += 1
        elif kind == "set_edge_labels":
            self._touch(self._labels[op["edge"]])
            self._labels[op["edge"]] = tuple(sorted(op["labels"]))
            self._touch(op["labels"])
            self.edit_epoch += 1
        elif kind == "add_vertex":
            self.vertex(op["name"])
        else:
            raise ValueError(f"unknown op {kind!r}")
        self.version += 1

    def compact(self) -> None:
        """Close tombstone slots: live edges renumbered in id order."""
        live = self.live_edges()
        if len(live) != len(self._src):
            self.edit_epoch += 1
        self._src = [self._src[e] for e in live]
        self._tgt = [self._tgt[e] for e in live]
        self._labels = [self._labels[e] for e in live]
        self._alive = [True] * len(live)
        self._out = {}
        for e, s in enumerate(self._src):
            self._out.setdefault(s, []).append(e)
        self.version += 1

    def subgraph(self, edges: Sequence[int], extra: Sequence[int] = ()):
        """A ``repro`` :class:`Graph` of ``edges`` (plus the vertices
        ``extra``), for the DP count."""
        from repro.graph.database import Graph

        vids = sorted(
            {self._src[e] for e in edges} | {self._tgt[e] for e in edges}
            | set(extra)
        )
        local = {v: i for i, v in enumerate(vids)}
        label_names = sorted({a for e in edges for a in self._labels[e]})
        lid = {a: i for i, a in enumerate(label_names)}
        return Graph(
            vertex_names=[self.names[v] for v in vids],
            label_names=label_names,
            src=[local[self._src[e]] for e in edges],
            tgt=[local[self._tgt[e]] for e in edges],
            labels=[tuple(lid[a] for a in self._labels[e]) for e in edges],
        )

    def product_edges(self, nfa, source: int, depth: Optional[int] = None):
        """The live edges a matching walk from ``source`` can use within
        ``depth`` edges (all of them when ``None``): a BFS over vertex ×
        automaton-state-set pairs, as in :mod:`repro.baselines.oracle`.
        Every accepted walk of at most ``depth`` edges from ``source``
        lies in this edge set, so counts over it equal counts over the
        whole record."""
        start = (source, nfa.eps_closure(nfa.initial))
        seen = {start}
        frontier = [start]
        used = set()
        level = 0
        while frontier and (depth is None or level < depth):
            level += 1
            nxt = []
            for v, states in frontier:
                for e in self.out_edges(v):
                    moved = step_states(nfa, states, self._labels[e])
                    if not moved:
                        continue
                    used.add(e)
                    node = (self._tgt[e], moved)
                    if node not in seen:
                        seen.add(node)
                        nxt.append(node)
            frontier = nxt
        return sorted(used)


def step_states(nfa, states, labels: Sequence[str]) -> frozenset:
    """One edge move of ``nfa`` over an edge carrying ``labels``."""
    from repro.automata.nfa import ANY

    nxt = set()
    for q in states:
        for a in labels:
            nxt.update(nfa.delta(q, a))
        nxt.update(nfa.delta(q, ANY))
    return nfa.eps_closure(nxt) if nxt else frozenset()


def guided_target(
    record: RecordGraph, nfa, source: int, length: int, rng
) -> Optional[int]:
    """End of a random walk of ``length`` edges from ``source`` that
    the query accepts, or ``None`` when the walk dead-ends.  Used to
    pick read targets with a short λ (λ ≤ ``length``)."""
    states = nfa.eps_closure(nfa.initial)
    v = source
    for _ in range(length):
        moves = []
        for e in record.out_edges(v):
            nxt = step_states(nfa, states, record.label_names_of(e))
            if nxt:
                moves.append((e, nxt))
        if not moves:
            return None
        e, states = moves[rng.randrange(len(moves))]
        v = record.tgt(e)
    return v if states & nfa.final else None
