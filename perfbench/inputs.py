"""Seeded inputs of the three workloads.

:func:`make_inputs` turns ``(workload, seed, seconds)`` into a graph
file (what the program loads), the benchmark's own edge record (what
the checks rebuild the graph from) and a fixed list of operations.
The same arguments always give the same inputs.  The number of rounds
is a fixed function of ``seconds``, never of elapsed time, so every
run with the same arguments times exactly the same work.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List

from perfbench.record import RecordGraph, guided_target

WORKLOADS = ("cold-pairs", "warm-serve", "live-mixed")

#: Rounds per second of ``--seconds``, measured on a 2-core x86 box so
#: that one run measures roughly ``--seconds`` of operations.
ROUNDS_PER_SECOND = {"cold-pairs": 0.5, "warm-serve": 1.0, "live-mixed": 6.0}

COLD = {
    "vertices": 10_000,
    "edges": 100_000,
    "alphabet": ("a", "b", "c", "d", "e", "f"),
    # Star queries reach most of the graph, so saturating them is most
    # of a read; the bounded queries reach a few hundred product nodes.
    # Star reads are ~3/4 of all reads, so p50 and p90 both fall
    # inside the star reads' latency band, never between the bands.
    "queries": ("a b* c", "(a|b) c* d", "e f* a"),
    "bounded_queries": ("a (b|c) d", "d e? f"),
    "annotation_cache": 8,
    "to_all_limit": 10,
    # One round: 8 star and 1 bounded pair reads, 1 to_all page of a
    # bounded query, 1 any-walk read, and 2 one-edge writes labelled b
    # (read by a b* c, (a|b) c* d and a (b|c) d), placed after the 4th
    # and the 11th read.
    "star_reads": 8,
    "write_after": (4, 12),
    "write_label": "b",
}

SERVE = {
    "layers": 8,
    "width": 16,
    "density": 0.5,
    "alphabet": ("a", "b", "c", "d"),
    "queries": ("(a|b|c|d)+", "(a|b)+ (c|d)*", "(a|c) (a|b|c|d)* (b|d)"),
    "small_query": "(a|b) (c|d)",
    "sources": 2,
    "workers": 2,
    "annotation_cache": 32,
    "page": 200,
    # One round: 42 page reads (3 passes over the 14-read working set),
    # then 1 write on a label no query reads.
    "reads": 42,
    "outside_label": "z",
}

LIVE = {
    "vertices": 2_000,
    "edges": 10_000,
    "alphabet": ("a", "b", "c", "d", "e", "f"),
    "queries": ("a b* c", "(a|b)+ d", "c (a|d)*"),
    "sources": 8,
    "sync": "always",
    "compact_every": 12,
    # One round: 2 pair reads, 1 write batch.
    "reads": 2,
}


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds * ROUNDS_PER_SECOND[workload]))


def record_of(graph) -> RecordGraph:
    """The benchmark's record of a generated graph; the checks replay
    the operation list against a fresh one."""
    return RecordGraph(
        [graph.vertex_name(v) for v in graph.vertices()],
        [
            (
                graph.vertex_name(graph.src(e)),
                graph.vertex_name(graph.tgt(e)),
                graph.label_names_of(e),
            )
            for e in graph.edges()
        ],
    )


def _pair_target(record, nfa, rng, candidates, max_len):
    """A source from ``candidates`` and a target reached by a short
    accepted walk (so λ ≤ ``max_len``)."""
    for _ in range(200):
        s = candidates[rng.randrange(len(candidates))]
        t = guided_target(
            record, nfa, record.ids[s], rng.randint(2, max_len), rng
        )
        if t is not None:
            return s, record.names[t]
    raise RuntimeError("no accepted short walk found")


def make_inputs(workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    """Build the workload's graph and operation list.

    Returns ``{"graph": Graph, "ops": [...], "warm": [...],
    "config": {...}}``: ``warm`` are the set-up reads, ``config`` the
    workload's constants.  The caller saves the graph to a file.
    """
    from repro.query.rpq import RPQ

    rounds = rounds_for(workload, seconds)
    rng = random.Random(f"{workload}/{seed}")
    if workload == "cold-pairs":
        return _cold_pairs(seed, rounds, rng, RPQ)
    if workload == "warm-serve":
        return _warm_serve(seed, rounds, rng, RPQ)
    if workload == "live-mixed":
        return _live_mixed(seed, rounds, rng, RPQ)
    raise ValueError(f"unknown workload {workload!r}")


def _random_labels(rng, alphabet, k_max=2) -> List[str]:
    return sorted(rng.sample(list(alphabet), rng.randint(1, k_max)))


def _cold_pairs(seed, rounds, rng, RPQ) -> Dict[str, Any]:
    from repro.graph.generators import random_multilabel

    c = COLD
    graph = random_multilabel(
        c["vertices"], c["edges"], alphabet=c["alphabet"],
        max_labels_per_edge=2, seed=seed,
    )
    record = record_of(graph)
    every = c["queries"] + c["bounded_queries"]
    nfas = {q: RPQ(q, method="glushkov").automaton for q in every}
    names = list(record.names)
    # Every read takes a fresh (query, source) key: the annotation
    # cache never hits, and the keys outnumber its capacity.
    unused = {q: rng.sample(names, len(names)) for q in every}

    def fresh(q):
        while True:
            s = unused[q].pop()
            if record.out_edges(record.ids[s]):
                return s

    def fresh_pair(q):
        for _ in range(100):
            s = fresh(q)
            for _ in range(5):
                t = guided_target(
                    record, nfas[q], record.ids[s], rng.randint(2, 4), rng
                )
                if t is not None:
                    return s, record.names[t]
        raise RuntimeError(f"no accepted short walk for {q!r}")

    queries = list(c["queries"])
    # Warm-up: one read per query text, so the plan cache is warm.
    warm = []
    for q in every:
        s, t = fresh_pair(q)
        warm.append({"kind": "pair", "q": q, "s": s, "t": t})
    ops: List[Dict[str, Any]] = []
    for r in range(rounds):
        round_ops: List[Dict[str, Any]] = []
        star = c["star_reads"]
        reads = [queries[(r * star + i) % len(queries)] for i in range(star)]
        reads.append(c["bounded_queries"][r % 2])
        for q in reads:
            s, t = fresh_pair(q)
            round_ops.append({"kind": "pair", "q": q, "s": s, "t": t})
        q = c["bounded_queries"][(r + 1) % 2]
        round_ops.append(
            {"kind": "to_all", "q": q, "s": fresh(q),
             "limit": c["to_all_limit"]}
        )
        q = queries[(r + 1) % len(queries)]
        s, t = fresh_pair(q)
        round_ops.append({"kind": "any", "q": q, "s": s, "t": t})
        # Writes at fixed places, each evicting the cached entries of
        # the queries that read its label: the same eviction work, and
        # the same reads paying the overlay's view rebuild, every run.
        for at in c["write_after"]:
            u, v = rng.sample(names, 2)
            op = {"op": "add_edge", "src": u, "tgt": v,
                  "labels": [c["write_label"]]}
            record.apply(op)
            round_ops.insert(at, {"kind": "write", "ops": [op],
                                  "compact": False})
        ops.extend(round_ops)
    return {
        "graph": graph,
        "ops": ops,
        "warm": warm,
        "config": dict(c),
    }


def _warm_serve(seed, rounds, rng, RPQ) -> Dict[str, Any]:
    from repro.graph.generators import layered

    c = SERVE
    graph = layered(
        c["layers"], c["width"], alphabet=c["alphabet"],
        density=c["density"], seed=seed,
    )
    record = record_of(graph)
    last = c["layers"] - 1
    sources = ["source"] + [
        f"l0_{j}" for j in rng.sample(range(c["width"]), c["sources"] - 1)
    ]
    working: List[Dict[str, Any]] = []
    for q in c["queries"]:
        for s in sources:
            for t in ("sink", f"l{last}_{rng.randrange(c['width'])}"):
                working.append({"kind": "page", "q": q, "s": s, "t": t,
                                "limit": c["page"]})
    # Two low-fan-out reads whose whole answer set fits one page: the
    # sample the brute-force answer-set oracle can afford.
    small = RPQ(c["small_query"], method="glushkov").automaton
    mid = [f"l3_{j}" for j in range(c["width"])]
    for _ in range(2):
        s, t = _pair_target(record, small, rng, mid, max_len=2)
        working.append({"kind": "page", "q": c["small_query"], "s": s,
                        "t": t, "limit": c["page"]})
    names = list(record.names)
    ops: List[Dict[str, Any]] = []
    for _ in range(rounds):
        # Each round reads every working-set entry the same number of
        # times, in a seeded order.
        for _ in range(c["reads"] // len(working)):
            ops.extend(dict(op) for op in rng.sample(working, len(working)))
        u, v = rng.sample(names, 2)
        op = {"op": "add_edge", "src": u, "tgt": v,
              "labels": [c["outside_label"]]}
        ops.append({"kind": "write", "ops": [op], "compact": True})
    return {
        "graph": graph,
        "ops": ops,
        "warm": working,
        "config": dict(c),
    }


def _live_mixed(seed, rounds, rng, RPQ) -> Dict[str, Any]:
    from repro.graph.generators import random_multilabel

    c = LIVE
    graph = random_multilabel(
        c["vertices"], c["edges"], alphabet=c["alphabet"],
        max_labels_per_edge=2, seed=seed,
    )
    record = record_of(graph)
    names = list(record.names)
    working: List[Dict[str, Any]] = []
    for q in c["queries"]:
        nfa = RPQ(q, method="glushkov").automaton
        for _ in range(c["sources"]):
            s, t = _pair_target(record, nfa, rng, names, max_len=3)
            working.append({"kind": "pair", "q": q, "s": s, "t": t})
    # Labels the queries mention vs labels no query reads: writes fall
    # on both sides of the read footprints.
    inside = sorted({a for q in c["queries"] for a in q if a.isalpha()})
    outside = [a for a in c["alphabet"] if a not in inside]
    ops: List[Dict[str, Any]] = []
    writes = 0
    order: List[Dict[str, Any]] = []
    for _ in range(rounds):
        # Reads cycle through seeded permutations of the working set, so
        # every entry is read equally often.
        for _ in range(c["reads"]):
            if not order:
                order = rng.sample(working, len(working))
            ops.append(dict(order.pop()))
        # Ids of edges added by this batch are not addressable by it.
        addressable = record.edge_count
        batch = []
        for _ in range(rng.randint(1, 3)):
            labels = _random_labels(
                rng, inside if rng.random() < 0.5 else outside
            )
            roll = rng.random()
            live = None
            if roll >= 0.5:
                for _ in range(50):
                    e = rng.randrange(addressable)
                    if record.is_live(e):
                        live = e
                        break
            if live is None:
                u, v = rng.sample(names, 2)
                op = {"op": "add_edge", "src": u, "tgt": v,
                      "labels": labels}
            elif roll < 0.75:
                op = {"op": "remove_edge", "edge": live}
            else:
                op = {"op": "set_edge_labels", "edge": live,
                      "labels": labels}
            record.apply(op)
            batch.append(op)
        writes += 1
        compact = writes % c["compact_every"] == 0
        if compact:
            record.compact()
        ops.append({"kind": "write", "ops": batch, "compact": compact})
    return {
        "graph": graph,
        "ops": ops,
        "warm": working,
        "config": dict(c, inside=inside, outside=outside),
    }

