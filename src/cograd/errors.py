"""Exception types shared across the package.

Every package error is an ``InputError`` or a ``RunError``, and the CLI
maps them to exit codes 2 and 3.
"""


class CogradError(Exception):
    """Base class for all package errors."""


class InputError(CogradError):
    """Invalid config, data, checkpoint or operands; the CLI exits 2."""


class RunError(CogradError):
    """A run failed on valid input; the CLI exits 3."""


class ConfigError(InputError):
    """Invalid configuration value; message names the offending field."""


class LayoutError(InputError):
    """Inconsistent parameter layout (e.g. duplicate tensor name)."""


class DimensionError(InputError):
    """Operands with incompatible shapes or lengths."""


class DataError(InputError):
    """Invalid dataset content (shapes, features, labels, rates)."""


class CsvParseError(DataError):
    """Malformed CSV row; message names the 1-based line number."""


class OracleError(RunError):
    """A finite-difference oracle hit a non-finite evaluation."""


class EvaluationError(RunError):
    """A model or loss evaluation produced non-finite values."""


class DegenerateGradientError(RunError):
    """A gradient-modification step requires a nonzero norm it did not get."""


class UndefinedMetricError(RunError):
    """Metric undefined for the given labels (e.g. single-class AUC)."""


class ProbeError(RunError):
    """The harmonization probe failed to converge."""


class DivergenceError(RunError):
    """Training produced a non-finite loss; message names the step."""
