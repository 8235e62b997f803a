"""Exception hierarchy. CLI exit codes: ConfigError -> 2, NumericalFatalError -> 3."""


class PnpdgError(Exception):
    pass


class ConfigError(PnpdgError, ValueError):
    """Invalid run configuration, such as a bad registry keyword value.
    Carries the offending line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NumericalFatalError(PnpdgError):
    """Unrecoverable numerical state (positivity loss, solver breakdown)."""


class InadmissibleCellError(NumericalFatalError):
    """No admissible interior test node exists in a cell for the given flux parameters."""

    def __init__(self, cell, a, b, cap):
        self.cell = cell
        self.a = a
        self.b = b
        self.cap = cap
        super().__init__(
            f"cell {cell}: admissible interval ({a:.6g}, {b:.6g}) does not intersect "
            f"[-{cap:.6g}, {cap:.6g}]; refine the mesh or adjust beta1"
        )


class OverflowGuardError(NumericalFatalError):
    """|q*psi| exceeded the double-precision exponent guard (700)."""
