"""Exception types shared across the package."""


class GeodiscError(Exception):
    """Base class for all package-specific errors."""


class DomainError(GeodiscError):
    """An argument lies outside the open set an operation requires."""


class ZeroPolynomial(GeodiscError):
    """All coefficients of a polynomial vanish."""


class PoleError(GeodiscError):
    """A rational map was evaluated too close to a pole."""


class Unsupported(GeodiscError):
    """The requested normalization needs a coordinate permutation first."""


class NotInDomain(GeodiscError):
    """Point is outside the domain under consideration."""


class NotOnVariety(GeodiscError):
    """Point does not satisfy the defining equation within tolerance."""


class InvalidAutomorphism(GeodiscError):
    """The supplied map does not send a point of the variety to the origin."""


class DegenerateImage(GeodiscError):
    """Image surface collapsed to a linear graph; not representable."""


class EmptyLens(GeodiscError):
    """The tangent-parameter lens is empty or degenerate."""


class Infeasible(GeodiscError):
    """The two-sided solvability inequality fails beyond tolerance."""


class Tangent(GeodiscError):
    """Circle intersection is tangential; solutions coalesce."""


class ConvergenceFailure(GeodiscError):
    """No closed-form preimage candidate passed the certificate's tolerance.

    `best_residual` is the smallest residual among the candidates, or inf
    when none lies inside the lens.
    """

    def __init__(self, message: str, best_residual: float = float("nan")):
        super().__init__(message)
        self.best_residual = best_residual


class SamplingExhausted(GeodiscError):
    """Rejection sampling drew no admissible point within its budget."""


class NoIntersection(GeodiscError):
    """A complex line misses the open unit ball."""


class EvaluationOutOfDisc(GeodiscError):
    """A scalar map supposed to land in the unit disc left it."""


class NotThrough(GeodiscError):
    """An analytic disc misses a required point beyond tolerance."""


class Indeterminate(GeodiscError):
    """Numerator and denominator vanish together; value undefined."""
