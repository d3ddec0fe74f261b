"""Per-layer metrics of the traced run.

Each metric is timed (or counted) by the benchmark around a call into
one layer's public functions, on a seeded sample of the workload's own
reads (``spec["probe"]``) and writes.  Every workload reports every
metric; where the workload's operation loop already exercises a layer
(the serve pool of ``warm-serve``, the ``Database.mutate`` writes of
``cold-pairs`` and ``live-mixed``) the metric is taken from that loop.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import Any, Dict, List, Tuple

perf = time.perf_counter


def _ms(seconds: float) -> float:
    return seconds * 1e3


def _transitions(cq) -> int:
    """|Δ| of the compiled automaton: its (state, label, state) triples."""
    return sum(len(ts) for row in cq.delta for ts in row.values())


def layer_probes(spec, out, pool, tracer) -> Tuple[Dict[str, float], List]:
    from repro.api import Database
    from repro.core.annotate import annotate
    from repro.core.compile import compile_query
    from repro.core.engine import DistinctShortestWalks
    from repro.core.trim import trim
    from repro.graph.io import load_json
    from repro.live import LiveGraph
    from repro.live.delta import ops_from_dicts
    from repro.query.rpq import RPQ
    from repro.service import QueryRequest, QueryService
    from repro.wal.writer import WalWriter

    m: Dict[str, float] = {}
    checks: List[Dict[str, Any]] = []
    sample = spec["probe"]["reads"]
    writes = spec["probe"]["writes"]

    # repro.graph: load and index.
    with tracer.span("probe.graph.load"):
        t0 = perf()
        graph = load_json(spec["graph_file"])
        m["graph.load_s"] = perf() - t0
    db = Database()
    with tracer.span("probe.graph.index"):
        t0 = perf()
        db.register("default", graph)
        m["graph.index_s"] = perf() - t0

    # repro.automata / repro.query: plans.
    plans = {}
    build = []
    for q in sorted({r["q"] for r in sample}):
        with tracer.span("probe.plan.build", query=q):
            t0 = perf()
            rpq = RPQ(q)
            cq = compile_query(graph, rpq.automaton)
            build.append(perf() - t0)
        plans[q] = (rpq, cq)
    m["plan.build_ms"] = _ms(statistics.median(build))

    # repro.core (+ datastructures.packed): Annotate -> Trim -> Enumerate.
    pair_s, sat_s, trim_s = [], [], []
    pair_n = sat_n = items = 0
    enum_s, enum_rows = 0.0, 0
    overhead = []
    for r in sample:
        rpq, cq = plans[r["q"]]
        s, t = graph.resolve_vertex(r["s"]), graph.resolve_vertex(r["t"])
        with tracer.span("probe.core.annotate_pair"):
            t0 = perf()
            ann = annotate(cq, s, t)
            pair_s.append(perf() - t0)
        with tracer.span("probe.core.annotate_saturate"):
            t0 = perf()
            sat = annotate(cq, s, saturate=True)
            sat_s.append(perf() - t0)
        with tracer.span("probe.core.trim"):
            t0 = perf()
            trimmed = trim(graph, ann)
            trim_s.append(perf() - t0)
        pair_n += ann.annotation_entries()
        sat_n += sat.annotation_entries()
        items += trimmed.total_items()
        checks.append({
            "read": r,
            "pair_entries": ann.annotation_entries(),
            "saturate_entries": sat.annotation_entries(),
            "bound": graph.edge_count * _transitions(cq),
        })
        cap = r.get("limit") or 2000
        engine = DistinctShortestWalks(
            graph, rpq.automaton, r["s"], r["t"], compiled=cq
        ).preprocess()
        with tracer.span("probe.core.enumerate"):
            t0 = perf()
            rows = len(engine.first(cap))
            enum_s += perf() - t0
        enum_rows += rows
        # repro.api: the façade's first read of a (query, source) key
        # against the core engine on the same read (plan already cached
        # on both sides).
        db.query(r["q"]).from_(r["t"]).to(r["s"]).limit(1).run().all()
        with tracer.span("probe.api.read"):
            t0 = perf()
            db.query(r["q"]).from_(r["s"]).to(r["t"]).limit(cap).run().all()
            facade = perf() - t0
        with tracer.span("probe.core.engine"):
            t0 = perf()
            DistinctShortestWalks(
                graph, rpq.automaton, r["s"], r["t"], compiled=cq
            ).first(cap)
            core = perf() - t0
        overhead.append(facade - core)
    m["core.annotate_pair_ms"] = _ms(statistics.median(pair_s))
    m["core.annotate_saturate_ms"] = _ms(statistics.median(sat_s))
    m["core.trim_ms"] = _ms(statistics.median(trim_s))
    m["core.annotation_entries_pair"] = pair_n / len(sample)
    m["core.annotation_entries_saturate"] = sat_n / len(sample)
    m["core.saturate_waste_ratio"] = sat_n / max(1, pair_n)
    m["core.trimmed_items"] = items / len(sample)
    m["core.enumerate_us_per_row"] = enum_s * 1e6 / max(1, enum_rows)
    m["api.overhead_ms"] = _ms(statistics.median(overhead))
    m["api.annotation_hit_rate"] = out.get("api_hit_rate")

    # repro.service: a warm request in-process, then the same request
    # over the serve tier's transport.
    service = QueryService()
    service.register_graph("default", graph)
    execute, transport, hits = [], [], []
    own_pool = pool is None
    if own_pool:
        from perfbench.driver import ServePool

        with tracer.span("probe.serve.boot"):
            t0 = perf()
            pool = ServePool(spec["graph_file"], 1, 128)
            m["serve.boot_s"] = perf() - t0
    else:
        m["serve.boot_s"] = out["serve_boot_s"]
    from perfbench.driver import serve_payload

    for r in sample:
        payload = serve_payload(dict(r, limit=r.get("limit") or 2000))
        request = QueryRequest.from_dict(payload)
        service.execute(request)
        with tracer.span("probe.service.execute"):
            t0 = perf()
            service.execute(request)
            ex = perf() - t0
        hits.append(pool.client.request(payload).get("cached", {}))
        with tracer.span("probe.serve.request"):
            t0 = perf()
            hits.append(pool.client.request(payload).get("cached", {}))
            rt = perf() - t0
        execute.append(ex)
        transport.append(rt - ex)
    m["service.execute_ms"] = _ms(statistics.median(execute))
    m["serve.transport_ms"] = _ms(statistics.median(transport))
    if own_pool:
        serve_writes = []
        for op in writes:
            with tracer.span("probe.serve.mutate"):
                t0 = perf()
                resp = pool.client.mutate([op])
                serve_writes.append(perf() - t0)
            if resp.get("status") != "ok":
                raise RuntimeError(f"serve probe write failed: {resp}")
        m["serve.write_ms"] = _ms(statistics.median(serve_writes))
        m["serve.annotation_hit_rate"] = (
            sum(bool(h.get("annotation")) for h in hits) / len(hits)
        )
        pool.close()
    else:
        m["serve.write_ms"] = _ms(statistics.median(
            o["lat"] for o, op in zip(out["ops"], spec["ops"])
            if op["kind"] == "write" and "lat" in o
        ))
        loop = [o["hit"] for o in out["ops"] if "hit" in o]
        m["serve.annotation_hit_rate"] = sum(loop) / len(loop)
        m["api.annotation_hit_rate"] = m["serve.annotation_hit_rate"]

    # repro.live: apply on the overlay, annotate over it, compact.
    live = LiveGraph(graph)
    apply_s = []
    for op in writes:
        parsed = ops_from_dicts([op])
        with tracer.span("probe.live.apply"):
            t0 = perf()
            live.apply(parsed)
            apply_s.append(perf() - t0)
    m["live.apply_ms"] = _ms(statistics.median(apply_s))
    compacted = live.to_graph()
    overlay_s = compact_s = 0.0
    for r in sample:
        automaton = plans[r["q"]][0].automaton
        cq_live = compile_query(live, automaton)
        cq_base = compile_query(compacted, automaton)
        s = live.resolve_vertex(r["s"])
        with tracer.span("probe.live.annotate_overlay"):
            t0 = perf()
            annotate(cq_live, s, saturate=True)
            overlay_s += perf() - t0
        with tracer.span("probe.live.annotate_compacted"):
            t0 = perf()
            annotate(cq_base, s, saturate=True)
            compact_s += perf() - t0
    m["live.overlay_annotate_ratio"] = overlay_s / compact_s
    with tracer.span("probe.live.compact"):
        t0 = perf()
        live.compact()
        m["live.compact_ms"] = _ms(perf() - t0)

    loop_writes = [
        o for o, op in zip(out["ops"], spec["ops"])
        if op["kind"] == "write" and "evicted" in o
    ]
    if loop_writes:
        m["live.evictions_per_write"] = (
            sum(o["evicted"] for o in loop_writes) / len(loop_writes)
        )
    else:
        # The serve tier drops every cache on a write; what a
        # footprint-precise eviction would drop for the same writes:
        probe_db = Database(LiveGraph(graph))
        for r in sample:
            probe_db.query(r["q"]).from_(r["s"]).to(r["t"]).limit(1).run().all()
        loop = [op for op in spec["ops"] if op["kind"] == "write"]
        evicted = [
            probe_db.mutate(op["ops"]).evicted_annotations
            for op in loop[: len(writes)]
        ]
        m["live.evictions_per_write"] = sum(evicted) / len(evicted)

    # repro.wal: framed append + the workload's sync policy.
    wal_dir = os.path.join(spec["work_dir"], "wal-probe")
    writer = WalWriter(wal_dir, sync=spec["config"].get("sync", "always"))
    append_s = []
    size0 = os.path.getsize(writer.path)
    for op in writes:
        parsed = ops_from_dicts([op])
        with tracer.span("probe.wal.append"):
            t0 = perf()
            writer.append_batch(parsed)
            append_s.append(perf() - t0)
    writer.close()
    m["wal.append_ms"] = _ms(statistics.median(append_s))
    m["wal.bytes_per_write"] = (
        (os.path.getsize(writer.path) - size0) / len(writes)
    )
    return m, checks
