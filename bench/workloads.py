"""Seeded inputs and correctness checks for the three benchmark workloads.

Everything here is derived from the workload seed through
``espunct.synthetic`` plus this file's own seeded noise, so one seed
always gives the same files.  The program never sees the seed, only the
files.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from espunct.corpus import PunctClass, RawUtterance, render, write_jsonl
from espunct.postprocess import validate_pairing
from espunct.synthetic import transfer_benchmark

# Row names of the grid, in config order.  The per-layer metric
# tagger.run_strategy_s.<row> uses them.
GRID_ROWS = ("es_only", "joint", "es_then_en", "en_then_es", "aug_es_only")
PREP_COMMANDS = ("normalize", "extract", "select", "augment", "convert")


@dataclass(frozen=True)
class Sizes:
    """Input sizes for one scale of the benchmark."""

    # grid
    grid_es: int
    grid_ldc: int
    grid_pool: int
    grid_en: int
    grid_k: int
    grid_epochs: int
    # prep
    prep_pool: int
    prep_ldc: int
    prep_en: int
    prep_k: int
    prep_indomain: int
    # serve
    serve_train_es: int
    serve_train_en: int
    serve_requests: int
    # all workloads
    setup_starts: int
    min_units: int


FULL = Sizes(
    grid_es=400, grid_ldc=300, grid_pool=600, grid_en=300, grid_k=200, grid_epochs=3,
    prep_pool=9_000, prep_ldc=3_000, prep_en=3_000, prep_k=3_000, prep_indomain=1_000,
    serve_train_es=600, serve_train_en=900, serve_requests=2_000, setup_starts=15, min_units=3,
)

# Small enough for the self-test to run every workload in seconds.
TINY = Sizes(
    grid_es=60, grid_ldc=30, grid_pool=45, grid_en=30, grid_k=15, grid_epochs=1,
    prep_pool=60, prep_ldc=30, prep_en=30, prep_k=20, prep_indomain=30,
    serve_train_es=40, serve_train_en=40, serve_requests=60, setup_starts=2, min_units=1,
)


def _raw(utterances) -> list[RawUtterance]:
    return [RawUtterance(render(u), source=u.source, lang=u.lang) for u in utterances]


def _pool_split(n: int) -> tuple[int, int]:
    good = n // 3
    return good, n - good


# --- grid -------------------------------------------------------------------


def write_grid_inputs(seed: int, sizes: Sizes, work: Path) -> dict:
    """Raw in-domain ES, labeled LDC, raw subtitle pool (1/3 good, 2/3
    alien) and raw EN, plus the five-row experiment config."""
    good, alien = _pool_split(sizes.grid_pool)
    half = sizes.grid_es // 2
    bench = transfer_benchmark(
        seed,
        es_train_size=half,
        es_test_size=sizes.grid_es - half,
        ldc_size=sizes.grid_ldc,
        pool_good=good,
        pool_alien=alien,
        en_size=sizes.grid_en,
    )
    work.mkdir(parents=True, exist_ok=True)
    write_jsonl(_raw(bench.es_train + bench.es_test), work / "es.jsonl")
    write_jsonl(bench.ldc, work / "ldc.jsonl")
    write_jsonl(bench.os_pool, work / "pool.jsonl")
    write_jsonl(_raw(bench.en), work / "en.jsonl")
    return {
        "schema_version": 1,
        "datasets": {
            "es_indomain": "es.jsonl",
            "ldc": "ldc.jsonl",
            "opensubtitle_pool": "pool.jsonl",
            "en_indomain": "en.jsonl",
        },
        "selection": {"k": sizes.grid_k, "order": 4},
        "augmentation": {"seed": 0, "max_tokens": 200},
        "strategies": [
            {"name": "es_only", "strategy": "ES_ONLY", "spanish_sources": ["indomain"]},
            {"name": "joint", "strategy": "JOINT", "spanish_sources": ["indomain"]},
            {"name": "es_then_en", "strategy": "ES_THEN_EN", "spanish_sources": ["indomain"]},
            {"name": "en_then_es", "strategy": "EN_THEN_ES", "spanish_sources": ["indomain"]},
            {
                "name": "aug_es_only",
                "strategy": "ES_ONLY",
                "spanish_sources": ["indomain", "ldc", "opensubtitle"],
                "augment": True,
            },
        ],
        "train": {"epochs": sizes.grid_epochs, "seed": 0, "shuffle": True},
        "eval": {"repair": True, "seed": 0},
        "output_dir": "out",
    }


def digest_dir(path: Path) -> dict[str, str]:
    """sha256 of every file directly in path, by file name."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.iterdir())
        if p.is_file()
    }


def artifact_mismatches(reference: dict[str, str], path: Path) -> list[str]:
    """Names of files that differ from, are missing from, or are extra
    to the reference digests.  Empty means byte-identical artifacts."""
    current = digest_dir(path)
    names = sorted(set(reference) | set(current))
    return [n for n in names if reference.get(n) != current.get(n)]


# --- prep -------------------------------------------------------------------

_QUOTES = (("«", "»"), ('"', '"'), ("“", "”"))


def _noisy(text: str, rng: random.Random) -> str:
    """Add marks that normalization must remove or rewrite: quotes and
    guillemets around a word, colons or semicolons for commas, and
    ellipses for periods."""
    words = text.split()
    out = []
    for word in words:
        lead = word[0] if word[0] in "¿¡" else ""
        trail = word[-1] if word[-1] in ",.?!" else ""
        core = word[len(lead): len(word) - len(trail)]
        draw = rng.random()
        if draw < 0.08:
            opening, closing = rng.choice(_QUOTES)
            core = opening + core + closing
        if trail == "," and rng.random() < 0.4:
            trail = rng.choice((":", ";"))
        elif trail == "." and rng.random() < 0.3:
            trail = rng.choice(("...", "…"))
        out.append(lead + core + trail)
    return " ".join(out)


def write_prep_inputs(seed: int, sizes: Sizes, work: Path) -> dict:
    """A noisy raw pool, labeled LDC, labeled close-only EN and a small
    labeled in-domain corpus.  Returns what the checks need."""
    good, alien = _pool_split(sizes.prep_pool)
    bench = transfer_benchmark(
        seed,
        es_train_size=sizes.prep_indomain,
        es_test_size=0,
        ldc_size=sizes.prep_ldc,
        pool_good=good,
        pool_alien=alien,
        en_size=sizes.prep_en,
    )
    rng = random.Random(seed ^ 0x5EED)
    pool = [
        RawUtterance(_noisy(r.text, rng), source=r.source, lang=r.lang)
        for r in bench.os_pool
    ]
    work.mkdir(parents=True, exist_ok=True)
    write_jsonl(pool, work / "pool_raw.jsonl")
    write_jsonl(bench.ldc, work / "ldc.jsonl")
    write_jsonl(bench.en, work / "en.jsonl")
    write_jsonl(bench.es_train, work / "indomain.jsonl")
    return {
        "pool_size": len(pool),
        "k": sizes.prep_k,
        "ldc_tokens": dict(Counter(t for u in bench.ldc for t in u.tokens)),
        "ldc_labels": dict(Counter(lab.name for u in bench.ldc for lab in u.labels)),
        "en_size": len(bench.en),
    }


def prep_commands(work: Path, out: Path, k: int) -> list[tuple[str, list[str]]]:
    """The five corpus-shaping commands of one pass, file in, file out."""
    return [
        ("normalize", ["normalize", "--in", str(work / "pool_raw.jsonl"),
                       "--out", str(out / "pool_norm.jsonl")]),
        ("extract", ["extract", "--in", str(out / "pool_norm.jsonl"),
                     "--out", str(out / "pool_labeled.jsonl")]),
        ("select", ["select", "--model-corpus", str(work / "indomain.jsonl"),
                    "--pool", str(out / "pool_norm.jsonl"), "--k", str(k),
                    "--out", str(out / "selected.jsonl"),
                    "--report", str(out / "selection.tsv")]),
        ("augment", ["augment", "--source", str(work / "ldc.jsonl"),
                     "--target-corpus", str(work / "indomain.jsonl"),
                     "--out", str(out / "ldc_aug.jsonl"),
                     "--report", str(out / "hist.tsv")]),
        ("convert", ["convert", "--in", str(work / "en.jsonl"),
                     "--out", str(out / "en_converted.jsonl")]),
    ]


def _records(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def check_prep_command(name: str, out: Path, facts: dict) -> str | None:
    """Invariant of one command's output; None when it holds, else why not."""
    if name == "normalize":
        n = len(_records(out / "pool_norm.jsonl"))
        return None if n == facts["pool_size"] else f"normalize wrote {n} records"
    if name == "extract":
        recs = _records(out / "pool_labeled.jsonl")
        if len(recs) != facts["pool_size"] or any("labels" not in r for r in recs):
            return "extract did not label every pool record"
        return None
    if name == "select":
        n = len(_records(out / "selected.jsonl"))
        return None if n == facts["k"] else f"select wrote {n} records, want {facts['k']}"
    if name == "augment":
        recs = _records(out / "ldc_aug.jsonl")
        tokens = Counter(t for r in recs for t in r["tokens"])
        labels = Counter(lab for r in recs for lab in r["labels"])
        if tokens != Counter(facts["ldc_tokens"]) or labels != Counter(facts["ldc_labels"]):
            return "augment changed the source's token or label multiset"
        return None
    if name == "convert":
        recs = _records(out / "en_converted.jsonl")
        if len(recs) != facts["en_size"]:
            return f"convert wrote {len(recs)} records"
        for r in recs:
            if not validate_pairing([PunctClass[x] for x in r["labels"]]):
                return "convert output fails validate_pairing"
        return None
    raise ValueError(f"unknown prep command {name!r}")


def selection_precision(out: Path) -> float:
    """Share of selected pool records that came from the good subtitle
    lines rather than the alien ones."""
    recs = _records(out / "selected.jsonl")
    return sum(r.get("source") == "os-good" for r in recs) / len(recs)


# --- serve ------------------------------------------------------------------


def serve_data(seed: int, sizes: Sizes):
    """Training corpora for the served JOINT model, and the request mix:
    80% single conversational turns and 20% texts of 80-100 tokens, all
    lowercased and unpunctuated like ASR output.  Each request carries
    its gold labels for the quality metric."""
    bench = transfer_benchmark(
        seed,
        es_train_size=sizes.serve_train_es,
        es_test_size=max(sizes.serve_requests, 50),
        ldc_size=0,
        pool_good=0,
        pool_alien=0,
        en_size=sizes.serve_train_en,
    )
    rng = random.Random(seed ^ 0xC0FFEE)
    turns = bench.es_test
    requests = []
    for i in range(sizes.serve_requests):
        # Exactly every fifth request is long, so the work per request
        # does not vary with the seed beyond the texts themselves.
        if i % 5:
            parts = [turns[i % len(turns)]]
        else:
            want = rng.randint(80, 100)
            parts, total = [], 0
            while True:
                u = rng.choice(turns)
                if total + len(u.tokens) > want:
                    break
                parts.append(u)
                total += len(u.tokens)
        tokens = [t.lower() for u in parts for t in u.tokens]
        gold = [lab for u in parts for lab in u.labels]
        requests.append((" ".join(tokens), gold))
    return bench.es_train, bench.en, requests


def micro_f1(pairs) -> float:
    """Micro-F1 over non-NONE labels for (gold, predicted) label lists."""
    tp = pred = gold_n = 0
    for gold, predicted in pairs:
        for g, p in zip(gold, predicted):
            if g is not PunctClass.NONE:
                gold_n += 1
                tp += g is p
            if p is not PunctClass.NONE:
                pred += 1
    if not tp:
        return 0.0
    precision, recall = tp / pred, tp / gold_n
    return 2 * precision * recall / (precision + recall)
