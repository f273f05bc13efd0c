"""Exception hierarchy shared by all nhspec modules."""


class NhspecError(Exception):
    """Base class for all errors raised by nhspec."""


class NonConvergence(NhspecError):
    """Dense eigensolver exhausted its iteration budget."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class AtExceptionalPoint(NhspecError):
    """Operation undefined at a spectral coalescence (c-norm vanishes)."""


class NotDefective(NhspecError):
    """No Jordan chain: the eigenvalue has full geometric multiplicity."""


class DegenerateInput(NhspecError):
    """Unperturbed energies coincide; coalescence locus degenerates."""


class NotAtEP(NhspecError):
    """Model is not within the defectiveness threshold of a coalescence."""


class GridTooCoarse(NhspecError):
    """Grid does not bracket or resolve the feature being searched for."""


class MatchingAmbiguous(NhspecError):
    """Eigenpair continuation could not be disambiguated by overlaps,
    even after bisecting the parameter step."""

    def __init__(self, message, best_overlap=None):
        super().__init__(message)
        self.best_overlap = best_overlap


class NoConvergence(NhspecError):
    """Coalescence search failed; carries the best point and residual gap."""

    def __init__(self, message, point=None, residual=None):
        super().__init__(message)
        self.point = point
        self.residual = residual


class SaddleRejected(NoConvergence):
    """Search converged to a stationary point whose gap stays above tolerance."""


class EOutsideWindow(NhspecError):
    """Singular-integral evaluation point lies outside the coupling window."""


class ETooCloseToThreshold(NhspecError):
    """Evaluation point is within half a grid cell of a window edge."""


class SelfConsistencyFailure(NhspecError):
    """Per-state fixed-point iteration on the resonance energy failed."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class PoleOnRealAxis(NhspecError):
    """Scattering matrix requested exactly at a real pole (zero-width state)."""

    def __init__(self, message, energy=None):
        super().__init__(message)
        self.energy = energy


class SingularResolvent(NhspecError):
    """Resolvent is singular at the requested real energy."""


class ModelFileError(NhspecError):
    """Model file is malformed or inconsistent with the subcommand."""
