"""Run one workload of the benchmark and print its metrics.

    python3 perfbench/run.py --workload cold-pairs --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from
``src/``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``).
Scratch files go to ``.perfbench/`` in the checkout; the traced run
leaves its spans in ``.perfbench/traces/``.  See README.md.
"""

import time

T_START = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = os.getcwd()
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "read_p50_ms": "ms",
    "read_p90_ms": "ms",
    "read_rps": "1/s",
    "first_row_p50_ms": "ms",
    "rows_per_s": "1/s",
    "write_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "graph.load_s": "s",
    "graph.index_s": "s",
    "plan.build_ms": "ms",
    "core.annotate_pair_ms": "ms",
    "core.annotate_saturate_ms": "ms",
    "core.trim_ms": "ms",
    "core.annotation_entries_pair": "count",
    "core.annotation_entries_saturate": "count",
    "core.saturate_waste_ratio": "ratio",
    "core.trimmed_items": "count",
    "core.enumerate_us_per_row": "us",
    "api.overhead_ms": "ms",
    "api.annotation_hit_rate": "ratio",
    "service.execute_ms": "ms",
    "serve.transport_ms": "ms",
    "serve.annotation_hit_rate": "ratio",
    "serve.write_ms": "ms",
    "serve.boot_s": "s",
    "live.apply_ms": "ms",
    "live.compact_ms": "ms",
    "wal.append_ms": "ms",
    "wal.bytes_per_write": "bytes",
    "live.evictions_per_write": "count",
    "live.overlay_annotate_ratio": "ratio",
}

#: Reads the traced run probes layer by layer (distinct keys).
PROBE_READS = 6
PROBE_WRITES = 8


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def end_to_end(out, ops):
    reads = [(o, op) for o, op in zip(out["ops"], ops)
             if op["kind"] != "write" and "error" not in o]
    writes = [o["lat"] for o, op in zip(out["ops"], ops)
              if op["kind"] == "write" and "error" not in o]
    lat = [o["lat"] for o, _ in reads]
    firsts = [o["first"] for o, _ in reads if o["first"] is not None]
    read_s = sum(lat)
    rows = sum(len(o["rows"]) for o, _ in reads)
    values = {
        "setup_s": out["setup_s"],
        "read_p50_ms": statistics.median(lat) * 1e3,
        "read_p90_ms": statistics.quantiles(lat, n=10)[-1] * 1e3,
        "read_rps": len(lat) / read_s,
        "first_row_p50_ms": statistics.median(firsts) * 1e3,
        "rows_per_s": rows / read_s,
        "write_p50_ms": statistics.median(writes) * 1e3,
        "peak_rss_mb": out["rss_mb"],
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def probe_sample(ops, seed):
    """A seeded sample of reads with distinct (query, source) keys, and
    the first write batches in operation order (valid in sequence on
    the generated graph)."""
    rng = random.Random(seed)
    seen, reads = set(), []
    candidates = [op for op in ops if op["kind"] in ("pair", "page")]
    for op in rng.sample(candidates, len(candidates)):
        if (op["q"], op["s"]) not in seen:
            seen.add((op["q"], op["s"]))
            reads.append(op)
        if len(reads) == PROBE_READS:
            break
    writes = [w for op in ops if op["kind"] == "write" for w in op["ops"]
              if w["op"] == "add_edge"][:PROBE_WRITES]
    return {"reads": reads, "writes": writes}


def check(workload, graph, ops, out, wal_dir):
    from perfbench.checks import (
        Checker,
        check_annotation_entries,
        check_recovered,
        recovered_edges,
    )
    from perfbench.inputs import record_of

    checker = Checker(record_of(graph))
    for i, (op, o) in enumerate(zip(ops, out["ops"])):
        if op["kind"] == "write":
            checker.write(op)  # failed writes are counted, not replayed
        elif "error" not in o:
            checker.read(i, op, o)
    if workload == "live-mixed":
        check_recovered(recovered_edges(wal_dir), checker.record.live_edge_set())
    for c in out.get("layer_checks", ()):
        check_annotation_entries(
            c["pair_entries"], c["saturate_entries"], c["bound"],
            f"traced read {c['read']['q']!r} {c['read']['s']}",
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        return fail(f"no program source at {src}; run from a checkout root")
    sys.path[:0] = [src, ROOT]
    from perfbench.inputs import WORKLOADS, make_inputs

    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; one of {WORKLOADS}")
    from repro.graph.io import save_json

    base = os.path.join(ROOT, ".perfbench")
    work = os.path.join(base, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        inputs = make_inputs(args.workload, args.seed, args.seconds)
        graph_file = os.path.join(work, "graph.json")
        save_json(inputs["graph"], graph_file)
        wal_dir = os.path.join(work, "wal")
        spec = {
            "workload": args.workload,
            "graph_file": graph_file,
            "wal_dir": wal_dir,
            "work_dir": work,
            "config": inputs["config"],
            "warm": inputs["warm"],
            "ops": inputs["ops"],
            "probe": probe_sample(inputs["ops"], args.seed),
        }
        t_inputs = time.monotonic() - T_START
        spec_file = os.path.join(work, "spec.json")
        out_file = os.path.join(work, "out.json")
        with open(spec_file, "w") as fh:
            json.dump(spec, fh)
        # A fixed hash seed: set and dict layouts, and so allocation
        # and peak RSS, repeat from run to run.
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, ROOT]),
                   PYTHONHASHSEED="0")
        t_spawn = time.monotonic()
        # Own process group: a timed-out run takes the serve pool down
        # with the measured process.
        child = subprocess.Popen(
            [sys.executable, os.path.join(ROOT, "perfbench", "driver.py"),
             "--spec", spec_file, "--out", out_file,
             "--trace", str(args.trace), "--t-spawn", repr(t_spawn)],
            env=env, start_new_session=True,
        )
        try:
            child.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
            return fail(f"measured process ran over {CHILD_TIMEOUT_S} s")
        if child.returncode != 0:
            return fail(f"measured process exited with {child.returncode}")
        t_child = time.monotonic() - t_spawn
        with open(out_file) as fh:
            out = json.load(fh)
        ops = spec["ops"]
        failed = sum(1 for o in out["ops"] if "error" in o)
        for o in out["ops"]:
            if "error" in o:
                print(f"perfbench: failed op: {o['error']}", file=sys.stderr)
        correct = True
        t0 = time.monotonic()
        try:
            check(args.workload, inputs["graph"], ops, out, wal_dir)
        except AssertionError as exc:
            correct = False
            print(f"perfbench: wrong answer: {exc}", file=sys.stderr)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            # An answer naming a vertex or edge the record does not
            # have, or shaped unlike any answer, cannot be right.
            correct = False
            print(f"perfbench: unreadable answer: {type(exc).__name__}: "
                  f"{exc}", file=sys.stderr)
        print(
            f"perfbench: inputs {t_inputs:.1f} s, measured process "
            f"{t_child:.1f} s, checks {time.monotonic() - t0:.1f} s",
            file=sys.stderr,
        )
        if args.trace:
            traces = os.path.join(base, "traces")
            os.makedirs(traces, exist_ok=True)
            with open(os.path.join(
                traces, f"{args.workload}-{args.seed}.json"), "w"
            ) as fh:
                json.dump({"spans": out["spans"], "layers": out["layers"]}, fh)
            metrics = {
                k: {"value": out["layers"][k], "unit": unit}
                for k, unit in PER_LAYER.items()
            }
            # The traced loop's end-to-end figures, against an untraced
            # run of the same seed: the tracing overhead.
            traced = {k: round(v["value"], 4)
                      for k, v in end_to_end(out, ops).items()}
            print(f"perfbench: traced loop {json.dumps(traced)}",
                  file=sys.stderr)
        else:
            metrics = end_to_end(out, ops)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
