"""Exception hierarchy shared across the package."""


class ActiveScalarError(Exception):
    """Base class for all package-specific errors."""


class InvalidFieldError(ActiveScalarError):
    """A spectral field violates its invariants (non-finite, nonzero mean, ...)."""


class GridMismatchError(ActiveScalarError):
    """Two objects that must share a grid do not."""


class GevreyOverflowError(ActiveScalarError):
    """exp(2*tau*|k|^(1/s)) overflows double precision at the grid's top shell."""

    def __init__(self, shell: int, exponent: float):
        self.shell = shell
        self.exponent = exponent
        super().__init__(
            f"Gevrey weight overflows at shell |k|={shell}: "
            f"exponent {exponent:.3g} exceeds 700"
        )


class ContractViolationError(ActiveScalarError):
    """A documented precondition was violated (e.g. drift not divergence-free)."""


class BlowUpError(ActiveScalarError):
    """The solution became non-finite or grew past the blow-up threshold."""

    def __init__(self, t: float, shell: "int | None" = None, detail: str = ""):
        self.t = t
        self.shell = shell
        msg = f"numerical blow-up at t={t:.6g}"
        if shell is not None:
            msg += f" (shell |k|~{shell})"
        if detail:
            msg += ": " + detail
        super().__init__(msg)


class StabilityError(ActiveScalarError):
    """Configured time step exceeds the advective CFL bound by more than 10x."""

    def __init__(self, t: float, h: float, bound: float, factor: float):
        self.t = t
        self.h = h
        self.bound = bound
        super().__init__(
            f"dt={h:.3g} exceeds CFL bound {bound:.3g} by more than "
            f"{factor:.0f}x at t={t:.6g}"
        )


class DegenerateTangentError(ActiveScalarError):
    """Tangent set lost rank during re-orthonormalization."""


class EstimationError(ActiveScalarError):
    """A statistical estimate (e.g. analyticity radius) cannot be formed."""


class ConfigError(ActiveScalarError):
    """Invalid or rejected run configuration."""


class CheckpointError(ActiveScalarError):
    """Malformed, truncated or incompatible checkpoint file."""


class ObserverError(ActiveScalarError):
    """An observer callback raised; carries the simulation time for context."""

    def __init__(self, t: float, step: int, cause: BaseException):
        self.t = t
        self.step = step
        self.cause = cause
        super().__init__(f"observer failed at t={t:.6g} (step {step}): {cause!r}")


class SweepAbortedError(ActiveScalarError):
    """A sweep member blew up; partial results are preserved on the exception."""

    def __init__(self, partial, cause: BaseException):
        self.partial = partial
        self.cause = cause
        super().__init__(f"sweep aborted: {cause}")
