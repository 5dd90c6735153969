"""Exception types shared across the package."""


class OsclassError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(OsclassError, ValueError):
    """Shapes of the inputs are incompatible (or an input is empty)."""


class NotNormalError(OsclassError, ValueError):
    """A matrix failed the normality test.

    The message names the test that failed, "commutator defect" or
    "eigenbasis residual".

    Attributes:
        defect: norm of A A* - A* A relative to ||A||^2, or for an
            eigenbasis that fails its check, the residual ||A Q - Q Lam||_F
            relative to ||A||.
        bound: the largest defect the test accepts.
    """

    def __init__(self, check: str, defect: float, bound: float):
        self.defect = defect
        self.bound = bound
        super().__init__(
            f"matrix is not normal: {check} {defect:.3e} exceeds bound {bound:.3e}"
        )


class NotUnitaryError(OsclassError, ValueError):
    """A matrix failed the unitarity test.

    Attributes:
        defect: value of ||U* U - I||.
    """

    def __init__(self, defect: float, tol: float):
        self.defect = defect
        self.tol = tol
        super().__init__(
            f"matrix is not unitary: defect {defect:.3e} exceeds tol {tol:.3e}"
        )


class EmptySystemError(OsclassError, ValueError):
    """A span construction produced the zero space."""


class NoUnitError(OsclassError, ValueError):
    """The identity matrix is not in the given span."""


class CapacityError(OsclassError, ValueError):
    """An enumeration would exceed the configured cap."""


class NotComparableError(OsclassError, ValueError):
    """Two operator systems have different linear dimensions."""


class InputFormatError(OsclassError, ValueError):
    """A JSON input file does not follow the expected schema."""
