"""Exception types shared across the package.

Each class carries the exit code the command line returns for it.
"""

PARSE_EXIT_CODE = 8   # a file, JSON or CSV that cannot be read (OSError, ValueError)


class MedscmError(Exception):
    """Base class for package-specific errors."""

    exit_code = 7   # the code of a bug: the package raises only its subclasses


class DomainError(MedscmError):
    """An argument lies outside its declared domain."""

    exit_code = 3


class ShapeError(MedscmError):
    """The model does not have the graph shape an operation requires."""

    exit_code = 3


class EnumerationSizeError(MedscmError):
    """The exogenous-noise product space exceeds the enumeration cap, or an
    array (profiles, a law table, a sample, bootstrap replicates) would
    exceed its memory budget; raised before allocating."""

    exit_code = 5


class DegenerateStratumError(MedscmError):
    """A conditional distribution was requested on a zero-probability stratum."""

    exit_code = 4

    def __init__(self, stratum: str):
        super().__init__(f"degenerate stratum: {stratum}")
        self.stratum = stratum


class ReproductionError(MedscmError):
    """Closed-form and enumerated values disagree beyond tolerance."""

    exit_code = 6
