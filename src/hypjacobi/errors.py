"""Exception taxonomy.

Two broad families matter downstream: :class:`ParameterError` covers bad
inputs and violated preconditions (CLI exit code 2), :class:`NumericsError`
covers failures of the numerics themselves (CLI exit code 3).
"""


class HypJacobiError(Exception):
    """Base class for all package errors."""


class ParameterError(HypJacobiError):
    """Invalid input or violated precondition."""


class NumericsError(HypJacobiError):
    """A numerical procedure failed to deliver its accuracy contract."""


class CNonpositiveInteger(ParameterError):
    """Parameter c is (within guard distance of) a nonpositive integer."""


class NonFiniteParameter(ParameterError):
    """A parameter has a NaN or infinite real or imaginary part."""


class DegenerateRatio(ParameterError):
    """The leading fraction coefficient vanishes (a = 0 or c = b); the
    normalized function B is undefined for this parameter triple."""


class OutsideDisk(ParameterError):
    """Series evaluation requested at |z| too close to or beyond the unit
    circle while the series does not terminate."""


class OnCut(ParameterError):
    """Evaluation point within guard distance of the cut [1, inf)."""


class OnBand(ParameterError):
    """Evaluation point within guard distance of the band [-2, 2]."""


class NotRealParams(ParameterError):
    """Operation defined only for real parameter triples."""


class NotStieltjes(ParameterError):
    """Parameter triple does not satisfy the classical positivity box."""


class ShiftInvalid(ParameterError):
    """Parameter shift (a, b-1, c-1) leaves the admissible set."""


class DegenerateSamples(ParameterError):
    """Kernel sample points coincide or sit on the real axis."""


class TerminationTooDeep(ParameterError):
    """The fraction terminates, but at a coefficient index beyond
    ``cfrac.TERMINATION_CAP``; its exact evaluation is refused."""


class NoConvergence(NumericsError):
    """Iteration budget exhausted before the stopping rule fired."""

    def __init__(self, msg, last_value=None, last_correction=None):
        super().__init__(msg)
        self.last_value = last_value
        self.last_correction = last_correction


class DenominatorZero(NumericsError):
    """Denominator series value below the underflow guard."""


class NearSingular(NumericsError):
    """Linear solve growth factor exceeded the safety bound (evaluation
    point is numerically indistinguishable from an eigenvalue)."""


class NearPole(NumericsError):
    """Evaluation point too close to a pole for the requested accuracy."""


class PoleOfApproximant(NumericsError):
    """A finite approximant has a pole at the evaluation point."""


class EigensolverFailure(NumericsError):
    """Eigensolver did not meet the residual contract."""


class ScanExhausted(NumericsError):
    """A negative off-diagonal square appears at or beyond the scan limit
    ``classify.SCAN_LIMIT``; stabilization is not certified."""
