"""Exception types shared across the package.

Every error raised on purpose derives from OovForgeError so callers can
distinguish expected failures from bugs. The CLI exit codes live here too:
a class with an ``exit_code`` gives that code; the others (None) fall back
to the code of the command that failed. ``eval`` reports every failure as 6.
Exit codes: 0 success, 2 ingestion or format, 3 training, 4 adaptation,
5 inference, 6 evaluation, 1 unexpected fault.
"""


class OovForgeError(Exception):
    """Base class for all errors this package raises deliberately."""

    exit_code: int | None = None


class ShapeError(OovForgeError):
    """Operands have incompatible shapes; message carries both shapes."""


class NumericError(OovForgeError):
    """Non-finite values or degenerate numeric input (zero norms, NaN)."""


class GraphError(OovForgeError):
    """Misuse of the autodiff tape (e.g. backward on a non-scalar)."""


class InputError(OovForgeError):
    """A model or episode received input outside its contract."""


class IngestionError(OovForgeError):
    """Corpus or embedding file could not be read or parsed."""

    exit_code = 2


class FormatError(OovForgeError):
    """A serialized artifact (checkpoint, TSV, report) is malformed."""

    exit_code = 2


class EpisodeError(OovForgeError):
    """Episode construction failed (e.g. missing oracle vector)."""


class TrainingError(OovForgeError):
    """Training aborted (divergence, bad data)."""

    exit_code = 3


class AdaptationError(OovForgeError):
    """Adaptation could not run (e.g. no eligible target words)."""

    exit_code = 4


class InferenceError(OovForgeError):
    """Single-word inference failed (e.g. word absent from contexts)."""

    exit_code = 5


class EvaluationError(OovForgeError):
    """Benchmark evaluation failed (e.g. undefined correlation)."""

    exit_code = 6
