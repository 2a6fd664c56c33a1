"""Spans around calls into the program's public functions.

The tracer replaces a public name in the module that looks it up (for
example ``espunct.pipeline.score_pool``) with a wrapper that records a
span: name, start, end and the span that was open when it started.
Nothing inside the program is changed, and private helpers are never
wrapped, so their cost shows up as the caller's self time.  Spans stay
in memory until the run ends.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for wrapped callables; ``restore`` undoes every wrap."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    def timed(
        self,
        name: str,
        fn: Callable,
        account: Callable[..., dict[str, float]] | None = None,
    ) -> Callable:
        """fn wrapped in a span.  account(result, *args, **kwargs) returns
        counts for the span; it runs after the span has ended."""

        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if account is not None:
                span.counts = account(result, *args, **kwargs)
            return result

        return wrapper

    def wrap(
        self,
        module_name: str,
        attr: str,
        account: Callable[..., dict[str, float]] | None = None,
    ) -> None:
        """Replace module.attr, the name its callers look up, with a timed
        wrapper.  The span is named after the module that defines the
        function, so espunct.cli.score_pool records "selection.score_pool"."""
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        span_name = f"{original.__module__.rsplit('.', 1)[-1]}.{attr}"
        setattr(module, attr, self.timed(span_name, original, account))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def total(self, name: str) -> float:
        """Summed duration of every span with this name."""
        return sum(s.duration for s in self.spans if s.name == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def count(self, name: str, key: str) -> float:
        """Summed count `key` over spans with this name."""
        return sum(s.counts.get(key, 0) for s in self.spans if s.name == name)

    def top_level_total(self) -> float:
        """Time covered by spans that no other span encloses."""
        return sum(s.duration for s in self.spans if s.parent is None)

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]


class TimedModel:
    """Proxy that times ``predict`` on a wrapped model and forwards the rest."""

    def __init__(self, model, tracer: Tracer):
        self._model = model
        self.predict = tracer.timed(
            "tagger.predict", model.predict, lambda result, tokens: {"tokens": len(tokens)}
        )

    def __getattr__(self, attr):
        return getattr(self._model, attr)


def repair_account(result, labels, *args, **kwargs) -> dict[str, float]:
    """Counts for a repair_pairing span: whether repair changed the labels."""
    return {"changed": int(list(labels) != list(result))}


def rate(count: float, seconds: float) -> float:
    """count per second; 0 when the layer did no work."""
    return count / seconds if seconds > 0 else 0.0


def _last(tracer: Tracer, name: str, key: str) -> float:
    values = [s.counts[key] for s in tracer.spans if s.name == name and key in s.counts]
    return values[-1] if values else 0.0


def layer_metrics(t: Tracer) -> dict[str, float]:
    """Per-layer metrics derivable from the spans alone; a layer that did
    no work in this workload reads 0."""
    repair_calls = t.calls("postprocess.repair_pairing")
    return {
        "corpus.normalize_lines_per_s": rate(
            t.calls("corpus.normalize_punctuation"), t.total("corpus.normalize_punctuation")
        ),
        "corpus.normalize_lines": t.calls("corpus.normalize_punctuation"),
        "corpus.extract_utts_per_s": rate(
            t.calls("corpus.extract_labels"), t.total("corpus.extract_labels")
        ),
        "corpus.extract_utts": t.calls("corpus.extract_labels"),
        "corpus.read_jsonl_s": t.total("corpus.read_jsonl"),
        "corpus.write_jsonl_s": t.total("corpus.write_jsonl"),
        "selection.train_ngram_s": t.total("selection.train_ngram"),
        "selection.score_pool_utts_per_s": rate(
            t.count("selection.score_pool", "utts"), t.total("selection.score_pool")
        ),
        "selection.pool_utts": t.count("selection.score_pool", "utts"),
        "selection.selected_utts": t.count("selection.select_lowest_perplexity", "selected"),
        "augment.source_utts_per_s": rate(
            t.count("augment.augment_to_distribution", "source"),
            t.total("augment.augment_to_distribution"),
        ),
        "augment.source_utts": t.count("augment.augment_to_distribution", "source"),
        "augment.out_utts": t.count("augment.augment_to_distribution", "out"),
        "augment.l1_after": _last(t, "augment.augment_to_distribution", "l1_after"),
        "crosslingual.convert_utts_per_s": rate(
            t.calls("crosslingual.anglicize_to_spanish_conventions"),
            t.total("crosslingual.anglicize_to_spanish_conventions"),
        ),
        "crosslingual.convert_utts": t.calls("crosslingual.anglicize_to_spanish_conventions"),
        "tagger.train_token_updates_per_s": rate(
            t.count("tagger.run_strategy", "token_updates"), t.total("tagger.run_strategy")
        ),
        "tagger.train_token_updates": t.count("tagger.run_strategy", "token_updates"),
        "tagger.predict_tok_per_s": rate(
            t.count("tagger.predict", "tokens"), t.total("tagger.predict")
        ),
        "tagger.predict_tokens": t.count("tagger.predict", "tokens"),
        "postprocess.repair_s": t.total("postprocess.repair_pairing"),
        "postprocess.repair_changed_ratio": (
            t.count("postprocess.repair_pairing", "changed") / repair_calls
            if repair_calls
            else 0.0
        ),
        "evaluate.s": t.total("evaluate.evaluate"),
        "evaluate.tok_per_s": rate(
            t.count("evaluate.evaluate", "tokens"), t.total("evaluate.evaluate")
        ),
        "pipeline.tokenize_for_restore_s": t.total("pipeline.tokenize_for_restore"),
        "pipeline.render_s": t.total("corpus.render"),
    }
