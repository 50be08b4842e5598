"""Exception types shared across the package."""


class SingularMatrix(ValueError):
    """Matrix has zero determinant."""


class NotExpanding(ValueError):
    """Some eigenvalue does not exceed 1 in absolute value."""


class NotIsotropic(ValueError):
    """The invariance equation has no positive definite solution."""


class NotPositiveDefinite(ValueError):
    """A matrix required to be positive definite is not."""


class MaskPoleAtDigit(ValueError):
    """G vanishes at a shifted digit point, the mask quotient is undefined."""


class NonSimpleEigenvalue(RuntimeError):
    """Eigenvalue 1 of the transition matrix is not simple."""


class NumericalBreakdown(RuntimeError):
    """A numerical step failed a sanity check (PD square root, or a cascade
    start whose bordered solve is no eigenvector for eigenvalue 1)."""


class NoConvergence(RuntimeError):
    """An iteration did not converge within its step budget."""


class DegreeTooHigh(ValueError):
    """Polynomial degree exceeds what leading-term reproduction covers."""


class ConfigError(ValueError):
    """Invalid or unknown job configuration."""
