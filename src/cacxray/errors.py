"""Exception types shared across the package.

Every structured failure mode raised by the library maps to one of these, so
callers (and the command-line front end) can distinguish bad input files, bad
configuration, degenerate data, and numerical failure without string matching.

Each error belongs to one of four categories, and the category carries the
command-line exit code and the label printed in front of the message:
ConfigError (2), TrainingError (3), UnreadableInputError (4) and
DegenerateDataError (5).

A binary file that ends inside an element or record raises
TruncatedFileError, a kind of MalformedFileError, whichever format it is:
both formats read through the one bounds-checked ``framing.Reader``.
"""

from __future__ import annotations


class CacXrayError(Exception):
    """Base class for all library errors. Each is built from its message."""
    exit_code = 5
    label = "error"

    def in_file(self, name: str) -> CacXrayError:
        """This error, of the same class, with the file ``name`` in front of its message."""
        return type(self)(f"{name}: {self}")


class ConfigError(CacXrayError):
    """The run's settings are unusable."""
    exit_code = 2
    label = "configuration error"


class TrainingError(CacXrayError):
    """Training could not produce a model."""
    exit_code = 3
    label = "training failed"


class UnreadableInputError(CacXrayError):
    """An input file is missing, damaged or in an unsupported format."""
    exit_code = 4
    label = "i/o error"


class DegenerateDataError(CacXrayError):
    """The data admit no answer (one class, no events, zero variance, ...)."""
    exit_code = 5
    label = "degenerate data"


# --- file formats ------------------------------------------------------------

class MalformedFileError(UnreadableInputError):
    """Bytes or text that do not parse as their format: a DICOM part-10 file
    (bad magic, inconsistent fields, invalid pixel payload), a weights file,
    a sidecar, a statistics file or a split file, or any text file that is
    not UTF-8 or that CSV or JSON cannot frame."""


class TruncatedFileError(MalformedFileError):
    """A binary file ends inside an element or record (or a weights file
    carries trailing bytes)."""


class UnsupportedTransferSyntaxError(UnreadableInputError):
    """Transfer syntax other than Explicit/Implicit VR Little Endian."""


class MissingRequiredTagError(UnreadableInputError):
    """A tag required to build an image (Rows, Columns, BitsAllocated,
    PixelData, WindowCenter, WindowWidth) never appeared in the dataset."""


class UnsupportedPhotometricError(UnreadableInputError):
    """PhotometricInterpretation other than MONOCHROME1/MONOCHROME2."""


# --- preprocessing -----------------------------------------------------------

class NonPositiveWidthError(DegenerateDataError):
    """Window width must be strictly positive."""


class DegenerateDatasetError(DegenerateDataError):
    """Pixel statistics without a finite mean and a finite positive standard
    deviation (a pool of zero variance, say); standardization is undefined."""


# --- labels ------------------------------------------------------------------

class NegativeScoreError(DegenerateDataError):
    """Calcium scores are nonnegative by definition."""


class DegenerateLabelsError(DegenerateDataError):
    """Log-domain labels have zero spread; normalization is undefined."""


# --- model -------------------------------------------------------------------

class InvalidConfigError(ConfigError):
    """A configuration or fitted-parameter value that its type rejects when
    it is built, or a cohort row or cell that is not a valid subject."""


class ShapeMismatchError(UnreadableInputError):
    """Tensor shape disagrees with what the configuration implies."""


class StaleTraceError(DegenerateDataError):
    """A forward trace was replayed against different parameters or mode."""


class EmptyDatasetError(TrainingError):
    """Training requires at least one sample."""


class TrainingFailedError(TrainingError):
    """Loss or parameters became non-finite during optimization."""


# --- serialization -----------------------------------------------------------

class BadMagicError(UnreadableInputError):
    """File does not start with the expected format tag."""


# --- metrics -----------------------------------------------------------------

class OneClassOnlyError(DegenerateDataError):
    """Both truth classes are required for ranking metrics."""


class NoPositivesError(DegenerateDataError):
    """Precision-recall needs at least one positive sample."""


class NonFiniteScoreError(DegenerateDataError):
    """A NaN or infinite model score, which no decision cutoff can rank."""


class AllGridDegenerateError(DegenerateDataError):
    """Every threshold on the grid left a single truth class."""


class TooFewSamplesError(DegenerateDataError):
    """Fewer samples than folds requested."""


# --- survival ----------------------------------------------------------------

class EmptyCohortError(DegenerateDataError):
    """Survival estimators need a nonempty cohort (per group)."""


class NoEventsError(DegenerateDataError):
    """No observed events; the statistic is undefined."""


class ConstantCovariateError(DegenerateDataError):
    """A proportional-hazards covariate with zero variance is unidentifiable."""


class DivergedError(DegenerateDataError):
    """Newton iteration left the trust region or the information matrix
    became singular (typically perfect separation)."""


class NegativeStatisticError(DegenerateDataError):
    """Chi-squared statistics are nonnegative by construction."""
