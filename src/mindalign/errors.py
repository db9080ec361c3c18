"""Exception taxonomy shared across modules (and mapped to CLI exit codes)."""


class ConfigError(Exception):
    """Invalid or inconsistent configuration."""


class DataError(Exception):
    """Invalid dataset contents or misuse of a dataset."""


class SubjectLeakError(DataError):
    """A held-out subject appeared in pretraining."""


class NonFiniteError(FloatingPointError):
    """A NaN or Inf appeared in tensor data or in an array about to be stored."""
