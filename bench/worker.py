"""Child process that runs the grid or prep workload against the program.

Usage: python3 bench/worker.py SPEC.json

The spec names the workload, its input directory, the seconds to
measure and whether to trace.  Running the program in its own process
keeps the benchmark's input generation out of the peak-RSS figure.  The
result is the last line of standard output.
"""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from espunct.augment import distribution_distance, histogram  # noqa: E402
from espunct.cli import main as cli_main  # noqa: E402
from espunct.errors import PunctError  # noqa: E402
from espunct.pipeline import config_from_dict, run_experiment  # noqa: E402
from espunct.tagger import Strategy  # noqa: E402

from tracing import TimedModel, Tracer, layer_metrics, repair_account  # noqa: E402
from workloads import (  # noqa: E402
    GRID_ROWS,
    PREP_COMMANDS,
    artifact_mismatches,
    check_prep_command,
    digest_dir,
    prep_commands,
    selection_precision,
)

# Public names each workload's caller module looks up, wrapped when tracing.
_SHARED_NAMES = (
    "read_jsonl",
    "write_jsonl",
    "normalize_punctuation",
    "extract_labels",
    "train_ngram",
    "score_pool",
    "select_lowest_perplexity",
    "write_selection_report",
    "augment_to_distribution",
    "histogram",
    "write_histogram_report",
    "anglicize_to_spanish_conventions",
)
_PIPELINE_ONLY = ("render", "split_corpus", "oversample", "run_strategy", "evaluate")
_PROBES_PER_UNIT = 1


def _tokens(corpus) -> int:
    return sum(len(u.tokens) for u in corpus) if corpus else 0


# Counts recorded per wrapped call, computed after its span ends.
_ACCOUNTS = {
    "train_ngram": lambda r, corpus, *a, **k: {"utts": len(corpus)},
    "score_pool": lambda r, model, pool, *a, **k: {"utts": len(pool)},
    "select_lowest_perplexity": lambda r, *a, **k: {"selected": len(r)},
    "augment_to_distribution": lambda r, source, target, *a, **k: {
        "source": len(source),
        "out": len(r),
        "l1_after": distribution_distance(histogram(r), target),
    },
    "run_strategy": lambda r, strategy, es, en, config, *a, **k: {
        "token_updates": config.epochs
        * (_tokens(es) + (0 if Strategy(strategy) is Strategy.ES_ONLY else _tokens(en)))
    },
    "evaluate": lambda r, *a, **k: {"tokens": r.token_count},
}


def install_tracer(workload: str) -> Tracer:
    tracer = Tracer()
    module = "espunct.pipeline" if workload == "grid" else "espunct.cli"
    names = _SHARED_NAMES + (_PIPELINE_ONLY if workload == "grid" else ())
    for name in names:
        tracer.wrap(module, name, _ACCOUNTS.get(name))
    if workload == "grid":
        # Models returned to the pipeline time their own predict calls,
        # and evaluate's repair calls are timed where evaluate looks them up.
        import espunct.pipeline as pipeline

        timed_run_strategy = pipeline.run_strategy
        pipeline.run_strategy = lambda *a, **k: TimedModel(timed_run_strategy(*a, **k), tracer)
        tracer.wrap("espunct.evaluate", "repair_pairing", repair_account)
    return tracer


def probe(config: str | None) -> float:
    """Seconds from spawning a fresh interpreter until it has imported the
    program (and, for grid, loaded and validated the experiment config)."""
    argv = [sys.executable, str(Path(__file__).with_name("probe.py"))] + ([config] if config else [])
    started = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        proc.wait(60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"start-up probe failed with exit code {proc.returncode}")
    return elapsed


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class GridRunner:
    def __init__(self, spec: dict):
        self.work = Path(spec["dir"])
        self.config_obj = spec["config"]
        self.out = self.work / self.config_obj["output_dir"]
        self.reference: dict[str, str] | None = None
        self.quality = 0.0
        self.last_split: dict[str, float] = {}

    def unit(self) -> tuple[float, list[str]]:
        """One run_experiment; returns its wall time and failures."""
        if self.out.exists():
            shutil.rmtree(self.out)
        config = config_from_dict(self.config_obj, self.work)
        started = time.perf_counter()
        try:
            reports = run_experiment(config)
        except PunctError as exc:
            return time.perf_counter() - started, [f"run_experiment: {exc}"]
        elapsed = time.perf_counter() - started
        if self.reference is None:
            self.reference = digest_dir(self.out)
            self.quality = statistics.fmean(r.micro_f1_non_none for r in reports)
            return elapsed, []
        return elapsed, [f"artifact differs: {n}" for n in artifact_mismatches(self.reference, self.out)]

    def untraced_extras(self, splits) -> dict[str, float]:
        return {}

    def layer_extras(self, tracer: Tracer, wall: float) -> dict[str, float]:
        rows = tracer.durations("tagger.run_strategy")
        extras = {f"tagger.run_strategy_s.{row}": s for row, s in zip(GRID_ROWS, rows)}
        extras["pipeline.self_s"] = wall - tracer.top_level_total()
        return extras


class PrepRunner:
    # Output files each command writes, for the determinism check.
    OUTPUTS = {
        "normalize": ("pool_norm.jsonl",),
        "extract": ("pool_labeled.jsonl",),
        "select": ("selected.jsonl", "selection.tsv"),
        "augment": ("ldc_aug.jsonl", "hist.tsv"),
        "convert": ("en_converted.jsonl",),
    }

    def __init__(self, spec: dict):
        self.work = Path(spec["dir"])
        self.facts = spec["facts"]
        self.out = self.work / "out"
        self.reference: dict[str, str] | None = None
        self.quality = 0.0
        self.last_split: dict[str, float] = {}

    def unit(self) -> tuple[float, list[str]]:
        """One pass of the five commands; returns their summed wall time
        and failures.  Each command is one attempted operation."""
        if self.out.exists():
            shutil.rmtree(self.out)
        self.out.mkdir(parents=True)
        total = 0.0
        failures: list[str] = []
        for name, argv in prep_commands(self.work, self.out, self.facts["k"]):
            started = time.perf_counter()
            code = cli_main(argv)
            elapsed = time.perf_counter() - started
            total += elapsed
            self.last_split[name] = elapsed
            if code != 0:
                failures.append(f"{name} exited {code}")
                break
            problem = check_prep_command(name, self.out, self.facts)
            if problem:
                failures.append(problem)
        digests = digest_dir(self.out)
        if self.reference is None:
            self.reference = digests
            if not failures:
                self.quality = selection_precision(self.out)
        else:
            for name, files in self.OUTPUTS.items():
                if any(digests.get(f) != self.reference.get(f) for f in files):
                    failures.append(f"{name} output differs from the first pass")
        return total, failures

    def layer_extras(self, tracer: Tracer, wall: float) -> dict[str, float]:
        return {}

    def untraced_extras(self, splits: list[dict[str, float]]) -> dict[str, float]:
        """cli.<command>_s: median wall of each command over untraced passes."""
        return {
            f"cli.{name}_s": statistics.median(s[name] for s in splits if name in s)
            for name in PREP_COMMANDS
        }


def run(spec: dict) -> dict:
    runner = GridRunner(spec) if spec["workload"] == "grid" else PrepRunner(spec)
    ops_per_unit = 1 if spec["workload"] == "grid" else len(PREP_COMMANDS)
    seconds = spec["seconds"]
    failures: list[str] = []
    attempted = 0

    def one() -> float:
        nonlocal attempted
        elapsed, problems = runner.unit()
        attempted += ops_per_unit
        failures.extend(problems)
        return elapsed

    # The first unit warms caches and fixes the reference artifacts.
    one()
    if failures:
        return {"attempted": attempted, "failures": failures}
    untraced: list[float] = []
    setup: list[float] = []
    splits: list[dict[str, float]] = []
    traced: list[float] = []
    layers: list[dict[str, float]] = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(untraced) < spec["min_units"]:
        untraced.append(one())
        splits.append(dict(runner.last_split))
        if not spec["trace"]:
            # Start-up probes between units sample the same stretch of
            # time as the units themselves.
            setup.extend(probe(spec["probe_config"]) for _ in range(_PROBES_PER_UNIT))
        else:
            # Traced units alternate with untraced ones, so both see the
            # same machine conditions and their ratio is the overhead.
            tracer = install_tracer(spec["workload"])
            try:
                wall = one()
            finally:
                tracer.restore()
            traced.append(wall)
            metrics = layer_metrics(tracer)
            metrics.update(runner.layer_extras(tracer, wall))
            layers.append(metrics)
    while not spec["trace"] and len(setup) < spec["setup_starts"]:
        setup.append(probe(spec["probe_config"]))
    result = {
        "attempted": attempted,
        "failures": failures,
        "units": untraced,
        "setup": setup,
        "traced_units": traced,
        "quality": runner.quality,
        "peak_rss_mb": _rss_mb(),
        "layers": {k: statistics.median(m[k] for m in layers) for k in (layers[0] if layers else {})},
    }
    result["layers"].update(runner.untraced_extras(splits))
    return result


if __name__ == "__main__":
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    print(json.dumps(run(spec)), flush=True)
