"""Exception types shared across the toolkit.

Everything raised on purpose derives from PunctError so callers can
catch toolkit failures without swallowing programming errors.
"""


class PunctError(Exception):
    """Base class for all toolkit errors; exit_code is the CLI's exit status."""
    exit_code = 3


class MalformedRecord(PunctError):
    """A JSONL line could not be parsed into a corpus record."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number
        self.reason = message

    def __reduce__(self):
        # Exception pickling re-calls __init__ with self.args, the formatted message.
        return type(self), (self.line_number, self.reason)


class IoFailure(PunctError):
    """Reading or writing a corpus or model file failed at the OS level."""


class UnsupportedPunctuation(PunctError):
    """A boundary punctuation mark cannot be expressed by any label."""


class ConflictingMarks(PunctError):
    """A single token carries marks that map to more than one label."""


class EmptyCorpus(PunctError):
    """An operation that needs at least one utterance received none."""


class EmptyTestSet(PunctError):
    """Evaluation received no test utterances."""


class PredictionLengthMismatch(PunctError):
    """A model returned a different number of labels than it got tokens."""


class KTooLarge(PunctError):
    """Selection size k exceeds the candidate pool."""


class ZeroTerminalSource(PunctError):
    """A source utterance has no terminating punctuation, so concatenation
    toward a terminal-count target can never make progress with it."""


class ZeroTerminalTarget(PunctError, ValueError):
    """An augmentation target wants utterances with no terminator."""


class AlreadySpanishConvention(PunctError):
    """Labels already contain opening or full marks."""


class MissingEnglishData(PunctError):
    """The chosen training strategy needs English data but none was given."""


class UnconvertedEnglish(PunctError):
    """English training data still has unpaired, English-convention marks."""


class TargetTooSmall(PunctError):
    """Oversampling target is smaller than the corpus itself."""


class BadFractions(PunctError):
    """Split fractions are negative or do not sum to one."""


class MalformedRequest(PunctError):
    """A serving request is missing required fields or has no usable text."""


class ModelLoadError(PunctError):
    """A model file is unreadable or has an incompatible format."""
    exit_code = 2


class ConfigError(PunctError):
    """An experiment configuration is invalid."""
    exit_code = 2


class PipelineError(PunctError):
    """A pipeline stage failed; carries the stage name and the cause, and
    exits as the cause does (3 for one that is not a toolkit error)."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r}: {cause}")
        self.stage = stage
        self.cause = cause
        self.exit_code = cause.exit_code if isinstance(cause, PunctError) else 3

    def __reduce__(self):
        return type(self), (self.stage, self.cause)


class DataLeakageError(PunctError):
    """A test utterance was found in an assembled training corpus."""


class WorkerLost(PunctError):
    """A forked worker process could not start, or ended without handing
    back its result, say because it was killed."""
