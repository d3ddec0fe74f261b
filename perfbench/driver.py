"""The measured process: set-up, the fixed operation list, layer probes.

``run.py`` starts this module as a child process, so the set-up it
times is a cold one from the process's start and its peak RSS holds
the program and its client only, not the checks.  It writes every
timing and every answer to a JSON file; ``run.py`` checks the answers
after this process has ended.

With ``--trace 1`` the operations run under spans recorded around each
call into a layer, followed by the layer probes (``probes.py``): direct
calls into ``repro.graph``, ``repro.query``, ``repro.core``,
``repro.api``, ``repro.service``, ``repro.serve``, ``repro.live`` and
``repro.wal`` on a seeded sample of the workload's own reads and
writes.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

perf = time.perf_counter


class Tracer:
    """In-memory spans around the benchmark's calls into each layer;
    written out once, when the run ends."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []

    def span(self, name: str, **tags: Any):
        return _Span(self, name, tags)


class _Span:
    def __init__(self, tracer: Tracer, name: str, tags: Dict[str, Any]):
        self.tracer, self.name, self.tags = tracer, name, tags

    def __enter__(self):
        if self.tracer.enabled:
            t = self.tracer
            self.index = len(t.spans)
            parent = t._stack[-1] if t._stack else None
            t.spans.append({"name": self.name, "parent": parent,
                            "start": perf(), **self.tags})
            t._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        if self.tracer.enabled:
            self.tracer.spans[self.index]["end"] = perf()
            self.tracer._stack.pop()
        return False


def _vm_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def _children(pid: int) -> List[int]:
    kids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            kids.append(int(entry))
    return kids


# -- in-process reads and writes (repro.api) ---------------------------------


def _query_of(db, op):
    q = db.query(op["q"]).from_(op["s"])
    if op["kind"] == "to_all":
        return q.to_all().limit(op["limit"])
    q = q.to(op["t"])
    if op["kind"] == "any":
        q = q.any_walk()
    if op.get("limit") is not None:
        q = q.limit(op["limit"])
    return q


def db_read(db, op, tracer):
    """One read; returns (latency, time to first row, answer)."""
    with tracer.span("api.read", kind=op["kind"]):
        t0 = perf()
        rs = _query_of(db, op).run()
        it = iter(rs)
        first = next(it, None)
        t1 = perf()
        rows = [] if first is None else [first]
        rows.extend(it)
        t2 = perf()
    if op["kind"] == "to_all":
        answer = [[r.target, r.lam, list(r.edges)] for r in rows]
    else:
        answer = [list(r.edges) for r in rows]
    return t2 - t0, (t1 - t0) if rows else None, {"lam": rs.lam,
                                                   "rows": answer}


def db_write(db, op, tracer):
    with tracer.span("api.mutate"):
        t0 = perf()
        result = db.mutate(op["ops"], compact=op["compact"])
        lat = perf() - t0
    return lat, {"evicted": result.evicted_annotations,
                 "compacted": result.compacted}


# -- the serving tier (repro.serve) -------------------------------------------


class ServePool:
    """``python -m repro serve`` as a subprocess plus one client."""

    def __init__(self, graph_file: str, workers: int, cache: int) -> None:
        from repro.serve.client import ServeClient

        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", graph_file,
             "--workers", str(workers), "--routing", "affinity",
             "--annotation-cache", str(cache)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("listening on "):
            self.close()
            raise RuntimeError(f"serve did not boot: {line!r}")
        host, port = line.split()[-1].rsplit(":", 1)
        self.client = ServeClient(host, int(port))

    def rss_mb(self) -> float:
        pids = [self.proc.pid] + _children(self.proc.pid)
        return sum(_vm_hwm_mb(pid) for pid in pids)

    def close(self) -> None:
        client = getattr(self, "client", None)
        if client is not None:
            client.close()
            self.client = None
        if self.proc.returncode is not None:
            return
        self.proc.terminate()
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def serve_payload(op):
    return {"query": op["q"], "source": op["s"], "target": op["t"],
            "limit": op["limit"]}


def serve_read(pool, op, tracer):
    with tracer.span("serve.request"):
        t0 = perf()
        resp = pool.client.request(serve_payload(op))
        lat = perf() - t0
    if resp.get("status") not in ("ok", "empty"):
        raise RuntimeError(f"serve read failed: {resp}")
    rows = [w["edges"] for w in resp["walks"]]
    # The response's own cache flag: worker-side counters restart with
    # every write (each reload rebuilds the worker's service).
    hit = bool(resp.get("cached", {}).get("annotation"))
    return lat, lat if rows else None, {"lam": resp["lam"], "rows": rows,
                                        "hit": hit}


def serve_write(pool, op, tracer):
    with tracer.span("serve.mutate"):
        t0 = perf()
        resp = pool.client.mutate(op["ops"])
        lat = perf() - t0
    if resp.get("status") != "ok":
        raise RuntimeError(f"serve write failed: {resp}")
    return lat, {}


# -- the run -----------------------------------------------------------------


def run(spec: Dict[str, Any], trace: bool, t_spawn: float) -> Dict[str, Any]:
    tracer = Tracer(trace)
    pool: Optional[ServePool] = None
    try:
        if spec["workload"] == "warm-serve":
            with tracer.span("setup"), tracer.span("serve.boot"):
                t0 = perf()
                cfg = spec["config"]
                pool = ServePool(spec["graph_file"], cfg["workers"],
                                 cfg["annotation_cache"])
                boot_s = perf() - t0
            out = _measure(spec, tracer, t_spawn, serve_read, serve_write, pool)
            out["serve_boot_s"] = boot_s
            out["rss_mb"] = pool.rss_mb()
        else:
            db = _open_database(spec, tracer)
            out = _measure(spec, tracer, t_spawn, db_read, db_write, db)
            out["rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            )
            stats = db.cache_stats()["annotation_cache"]
            out["api_hit_rate"] = (
                stats["hits"] / max(1, stats["hits"] + stats["misses"])
            )
            db.close()
        if trace:
            from perfbench.probes import layer_probes

            out["layers"], out["layer_checks"] = layer_probes(
                spec, out, pool, tracer
            )
            out["spans"] = tracer.spans
        return out
    finally:
        if pool is not None:
            pool.close()


def _open_database(spec, tracer):
    from repro.api import Database
    from repro.graph.io import load_json

    cfg = spec["config"]
    with tracer.span("setup"):
        with tracer.span("graph.load"):
            graph = load_json(spec["graph_file"])
        with tracer.span("graph.index"):
            if spec["workload"] == "live-mixed":
                return Database.open(spec["wal_dir"], graph=graph,
                                     sync=cfg["sync"])
            return Database(graph,
                            annotation_cache_size=cfg["annotation_cache"])


def _measure(spec, tracer, t_spawn, read, write, target) -> Dict[str, Any]:
    """Warm up, stamp the end of set-up, then run the operation list."""
    with tracer.span("warmup"):
        for op in spec["warm"]:
            read(target, op, tracer)
    out: Dict[str, Any] = {"setup_s": time.monotonic() - t_spawn, "ops": []}
    for op in spec["ops"]:
        try:
            if op["kind"] == "write":
                lat, info = write(target, op, tracer)
                out["ops"].append({"lat": lat, **info})
            else:
                lat, first, answer = read(target, op, tracer)
                out["ops"].append({"lat": lat, "first": first, **answer})
        except Exception as exc:  # noqa: BLE001 — counted, then reported.
            out["ops"].append({"error": f"{type(exc).__name__}: {exc}"})
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spec", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--t-spawn", type=float, required=True)
    args = parser.parse_args(argv)
    with open(args.spec) as fh:
        spec = json.load(fh)
    result = run(spec, bool(args.trace), args.t_spawn)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
