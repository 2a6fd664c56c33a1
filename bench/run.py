"""espunct benchmark: grid, prep and serve workloads.

Run from the repository root:

    python3 bench/run.py --workload grid --seed 1 --seconds 30 --trace 0

Inputs come from the seed alone.  The program is imported from ./src,
so nothing needs installing.  Human-readable lines go first; the last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones listed in BENCHMARK.json, with --trace 1 the per-layer
ones.  See bench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Re-anchor baseline rows of ROADMAP.md under the per-layer names, so the
# trajectory continues from that table.  Those were measured on other
# inputs (rule corpus, 12k LDC utterances), so compare trends, not digits.
BASELINE = {
    "corpus.normalize_lines_per_s": 82_000.0,
    "selection.score_pool_utts_per_s": 34_700.0,
    "augment.source_utts_per_s": 59_000.0,
    "tagger.train_token_updates_per_s": 34_900.0,
    "tagger.predict_tok_per_s": 38_600.0,
    "pipeline.handle_request_p50_ms": 0.19,
    "pipeline.handle_request_p99_ms": 1.28,
}

_CHILD_TIMEOUT_S = 170.0
# One connection: at most one thread of the benchmark and the server is
# runnable at a time, so the loop does not measure the scheduler.
SERVE_CONNECTIONS = 1
SERVE_SEGMENTS = 5


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def machine_context(tag: str) -> None:
    print(
        f"context {tag}: cpu_count={os.cpu_count()} python={platform.python_version()} "
        f"loadavg_1m={os.getloadavg()[0]:.2f}",
        flush=True,
    )


@dataclass
class Outcome:
    attempted: int
    failures: list[str]
    metrics: dict[str, float]
    notes: list[str] = field(default_factory=list)


def run_worker(spec: dict, work: Path) -> dict:
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    done = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(spec_path)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=_CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"worker exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_units(workload: str, seed: int, seconds: float, trace: bool, sizes, work: Path) -> Outcome:
    """grid or prep: write the inputs, then let a worker child run units."""
    from workloads import write_grid_inputs, write_prep_inputs

    spec = {"workload": workload, "dir": str(work), "seconds": seconds, "trace": trace,
            "min_units": sizes.min_units, "setup_starts": sizes.setup_starts, "probe_config": None}
    if workload == "grid":
        spec["config"] = write_grid_inputs(seed, sizes, work)
        config_path = work / "config.json"
        config_path.write_text(json.dumps(spec["config"]), encoding="utf-8")
        spec["probe_config"] = str(config_path)
    else:
        spec["facts"] = write_prep_inputs(seed, sizes, work)
    res = run_worker(spec, work)
    if "units" not in res:  # the warm-up unit failed, so nothing was measured
        return Outcome(res["attempted"], res["failures"], {})
    units = res["units"]
    notes = [
        f"units={len(units)} unit_s median={statistics.median(units):.3f} "
        f"min={min(units):.3f} max={max(units):.3f}; setup starts={len(res['setup'])}"
    ]
    if trace:
        traced, untraced = statistics.median(res["traced_units"]), statistics.median(units)
        layers = dict(res["layers"])
        layers["bench.untraced_wall_s"] = untraced
        layers["bench.traced_wall_s"] = traced
        layers["bench.trace_overhead_ratio"] = traced / untraced
        return Outcome(res["attempted"], res["failures"], layers, notes)
    metrics = {
        "wall_s": statistics.fmean(units),
        "quality": res["quality"],
        "peak_rss_mb": res["peak_rss_mb"],
        "setup_s": statistics.median(res["setup"]),
    }
    return Outcome(res["attempted"], res["failures"], metrics, notes)


def _inprocess_pass(model, texts: list[str], expected) -> tuple[list[float], list[str]]:
    """Single-threaded handle_request_line over every request: latencies
    (ms) and parity failures."""
    from espunct.pipeline import handle_request_line
    from serve import check_response

    latencies, failures = [], []
    for i, text in enumerate(texts):
        line = json.dumps({"id": f"p{i}", "text": text}, ensure_ascii=False)
        t0 = time.perf_counter()
        response = handle_request_line(model, line)
        latencies.append((time.perf_counter() - t0) * 1000.0)
        problem = check_response(response.encode("utf-8"), f"p{i}", expected[i])
        if problem:
            failures.append(problem)
    return latencies, failures


def _serve_layers(model_path: Path, model, texts, expected, notes) -> tuple[dict, int, list[str]]:
    """The traced part of serve: model load time and an in-process pass
    over the request sequence, once plain and once with spans."""
    from espunct.tagger import TaggerModel
    from tracing import TimedModel, Tracer, layer_metrics, repair_account

    loads = []
    for _ in range(5):
        t0 = time.perf_counter()
        TaggerModel.load(model_path)
        loads.append(time.perf_counter() - t0)
    plain, failures = _inprocess_pass(model, texts, expected)
    tracer = Tracer()
    tracer.wrap("espunct.pipeline", "tokenize_for_restore")
    tracer.wrap("espunct.pipeline", "repair_pairing", repair_account)
    tracer.wrap("espunct.pipeline", "render")
    try:
        traced, traced_failures = _inprocess_pass(TimedModel(model, tracer), texts, expected)
    finally:
        tracer.restore()
    # Time inside handle_request_line only, without the parity checks.
    plain_wall, traced_wall = sum(plain) / 1000.0, sum(traced) / 1000.0
    layers = layer_metrics(tracer)
    layers.update({
        "tagger.model_load_s": statistics.median(loads),
        "pipeline.handle_request_p50_ms": percentile(plain, 0.50),
        "pipeline.handle_request_p99_ms": percentile(plain, 0.99),
        "bench.untraced_wall_s": plain_wall,
        "bench.traced_wall_s": traced_wall,
        "bench.trace_overhead_ratio": traced_wall / plain_wall,
    })
    notes.append(f"in-process pass: {len(plain)} requests, {plain_wall:.3f} s plain, {traced_wall:.3f} s traced")
    return layers, 2 * len(texts), failures + traced_failures


def run_serve(seed: int, seconds: float, trace: bool, sizes, work: Path) -> Outcome:
    from espunct.corpus import PunctClass
    from espunct.crosslingual import anglicize_to_spanish_conventions
    from espunct.pipeline import restore
    from espunct.tagger import Strategy, TaggerModel, TrainConfig, run_strategy
    from serve import LoopResult, ServerProcess, closed_loop
    from workloads import micro_f1, serve_data

    es, en, requests = serve_data(seed, sizes)
    work.mkdir(parents=True, exist_ok=True)
    model_path = work / "model.json"
    en_converted = [anglicize_to_spanish_conventions(u) for u in en]
    run_strategy(Strategy.JOINT, es, en_converted, TrainConfig(epochs=3, seed=0)).save(model_path)
    model = TaggerModel.load(model_path)
    texts = [text for text, _ in requests]
    expected = []
    for text in texts:
        rendered, labels = restore(model, text)
        expected.append((rendered, [lab.name for lab in labels]))

    notes: list[str] = []
    attempted = 0
    failures: list[str] = []
    layers: dict[str, float] = {}
    loop = LoopResult()
    # The measured server and this client share one CPU.  In a closed loop
    # of one connection only one of them runs at a time, and a wake-up on
    # the same CPU costs a context switch, not a cross-CPU interrupt whose
    # delay depends on what else the host is running.
    all_cpus = os.sched_getaffinity(0)
    loop_cpus = {max(all_cpus)}
    server = ServerProcess(ROOT, model_path, loop_cpus)
    startups = [server.startup_s]
    try:
        if trace:
            layers, attempted, failures = _serve_layers(model_path, model, texts, expected, notes)
        # The loop runs in segments with further server starts between
        # them, so setup_s samples the same stretch of time as the loop.
        # The starts count against --seconds, so the run length is fixed.
        deadline = time.perf_counter() + (seconds / 2 if trace else seconds)
        for segment in range(SERVE_SEGMENTS):
            for _ in range(math.ceil((sizes.setup_starts - 1) / SERVE_SEGMENTS)):
                extra = ServerProcess(ROOT, model_path)
                startups.append(extra.startup_s)
                extra.stop()
            warmup = min(1.0, seconds / 10) if segment == 0 else 0.0
            left = (deadline - time.perf_counter()) / (SERVE_SEGMENTS - segment)
            loop_seconds = max(0.05, left - warmup)
            os.sched_setaffinity(0, loop_cpus)
            try:
                closed_loop(server.port, texts, expected, SERVE_CONNECTIONS, warmup, loop_seconds, loop)
            finally:
                os.sched_setaffinity(0, all_cpus)
        peak_rss = server.peak_rss_mb() if server.proc.poll() is None else 0.0
    finally:
        server.stop()
    attempted += loop.sent
    failures += loop.failures
    lat = [ms for segment in loop.segments for ms in segment]
    if not peak_rss or not all(loop.segments):
        failures.append("the server stopped answering before the loop ended")
        return Outcome(attempted, failures, {}, notes)
    rps = len(lat) / loop.measured_s
    p50 = percentile(lat, 0.50)
    # The median of the segments' p99s, so that one segment hit by a burst
    # of load from outside the benchmark does not set the run's tail.
    p99 = statistics.median(percentile(segment, 0.99) for segment in loop.segments)
    notes.append(
        f"closed loop over {SERVE_CONNECTIONS} connections: {len(lat)} measured requests "
        f"({loop.sent} with warm-up), {rps:.1f} req/s, p50 {p50:.3f} ms, "
        f"p99 of all {percentile(lat, 0.99):.3f} ms, segment p99s "
        f"{' '.join(f'{percentile(s, 0.99):.2f}' for s in loop.segments)} ms, "
        f"failures {len(loop.failures)}; setup starts={len(startups)}"
    )
    if trace:
        layers.update({
            "pipeline.tcp_p50_ms": p50,
            "pipeline.tcp_overhead_p50_ms": p50 - layers["pipeline.handle_request_p50_ms"],
            "pipeline.tcp_p99_ms": p99,
            "pipeline.requests_sent": loop.sent,
            "pipeline.requests_ok": loop.sent - len(loop.failures),
            "pipeline.requests_failed": len(loop.failures),
        })
        return Outcome(attempted, failures, layers, notes)
    pairs = [
        (requests[i][1], [PunctClass[x] for x in labels]) for i, labels in loop.answers.items()
    ]
    metrics = {
        "wall_s": loop.measured_s / (len(lat) / 1000.0),
        "quality": micro_f1(pairs),
        "peak_rss_mb": peak_rss,
        "setup_s": statistics.median(startups),
    }
    return Outcome(attempted, failures, metrics, notes)


WORKLOADS = {
    "grid": functools.partial(run_units, "grid"),
    "prep": functools.partial(run_units, "prep"),
    "serve": run_serve,
}


def metric_specs(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer"] if trace else spec["end_to_end"]


def result_line(outcome: Outcome, trace: bool) -> dict:
    """The final JSON object: every metric named in BENCHMARK.json for this
    mode, with its unit.  A layer that did no work in this workload reads 0."""
    metrics = {}
    for m in metric_specs(trace):
        metrics[m["name"]] = {"value": float(outcome.metrics.get(m["name"], 0.0)), "unit": m["unit"]}
    return {
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": metrics,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, sizes) -> dict:
    """Run one workload in a scratch directory and return the result object."""
    work = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        outcome = WORKLOADS[workload](seed, seconds, trace, sizes, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass
    for note in outcome.notes:
        print(f"{workload}: {note}")
    for problem in outcome.failures[:20]:
        print(f"{workload}: FAILED {problem}")
    result = result_line(outcome, trace)
    for name, m in result["metrics"].items():
        line = f"{workload}: {name} = {m['value']:.6g} {m['unit']}"
        if trace and name in BASELINE:
            line += f"  (re-anchor baseline {BASELINE[name]:g})"
        print(line)
    error_rate = result["failed"] / max(1, result["attempted"])
    print(f"{workload}: error_rate = {error_rate:.6g} ({result['failed']}/{result['attempted']})")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "espunct" / "__init__.py").is_file():
        print(f"error: program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import FULL

    # Turn a termination request into SystemExit so that the cleanup in
    # finally blocks stops the server and worker children.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    machine_context("start")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), FULL)
    machine_context("end")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
