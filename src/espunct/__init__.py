"""Punctuation restoration for Spanish conversational transcripts.

Token-level punctuation tagging with the data-side machinery around it:
normalization, perplexity-based data selection, histogram-matching
augmentation, English-to-Spanish convention conversion, pairing repair,
evaluation, and an experiment/serving pipeline.
"""

from .augment import (
    TerminalHistogram,
    augment_to_distribution,
    distribution_distance,
    histogram,
)
from .corpus import (
    LabeledUtterance,
    PunctClass,
    RawUtterance,
    extract_labels,
    normalize_punctuation,
    read_jsonl,
    render,
    terminal_count,
    write_jsonl,
)
from .crosslingual import anglicize_to_spanish_conventions
from .errors import PunctError
from .evaluate import EvalReport, evaluate, split_corpus
from .pipeline import ExperimentConfig, load_config, restore, run_experiment
from .postprocess import repair_pairing, validate_pairing
from .selection import select_lowest_perplexity, train_ngram
from .tagger import (
    Strategy,
    TaggerModel,
    TrainConfig,
    continue_train,
    oversample,
    run_strategy,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "EvalReport",
    "ExperimentConfig",
    "LabeledUtterance",
    "PunctClass",
    "PunctError",
    "RawUtterance",
    "Strategy",
    "TaggerModel",
    "TerminalHistogram",
    "TrainConfig",
    "anglicize_to_spanish_conventions",
    "augment_to_distribution",
    "continue_train",
    "distribution_distance",
    "evaluate",
    "extract_labels",
    "histogram",
    "load_config",
    "normalize_punctuation",
    "oversample",
    "read_jsonl",
    "render",
    "repair_pairing",
    "restore",
    "run_experiment",
    "run_strategy",
    "select_lowest_perplexity",
    "split_corpus",
    "terminal_count",
    "train",
    "train_ngram",
    "validate_pairing",
    "write_jsonl",
    "__version__",
]
