"""Exception hierarchy for the whole package.

Analysis failures (assumptions violated, solvers not converging) are kept
distinct from plain argument errors so callers can map them to exit codes.
"""


class LorentzModesError(Exception):
    """Base class for all package errors."""


# --- medium construction / validation ---------------------------------------

class NonPositiveCoefficient(LorentzModesError):
    """A coupling or resonance is not positive, or a damping is negative."""


class DuplicateOscillator(LorentzModesError):
    """Two oscillators of the same family share the (damping, resonance) pair."""


class EmptyMedium(LorentzModesError):
    """The medium has neither electric nor magnetic oscillators."""


class EvaluationAtPole(LorentzModesError):
    """A rational function was evaluated too close to one of its poles."""


class AssumptionViolated(LorentzModesError):
    """One of the structural assumptions (H1 or H2) fails for this medium."""

    def __init__(self, which: str, witness=None):
        self.which = which
        self.witness = witness
        msg = f"assumption {which} violated"
        if witness is not None:
            msg += f" (witness: {witness})"
        super().__init__(msg)


class UnresolvedClustering(LorentzModesError):
    """Numerical roots cluster without a structural multiplicity to back it."""


# --- dispersion / branch tracking --------------------------------------------

class RootFindingFailure(LorentzModesError):
    """Polynomial roots failed the residual certificate."""


class BranchCollision(LorentzModesError):
    """Two dispersion branches became indistinguishable during continuation."""


class UnclassifiableBranch(LorentzModesError):
    """A tracked branch matches none of the admissible limit objects."""


class AsymptoticMismatch(LorentzModesError):
    """Measured branch residuals disagree with the predicted expansion order."""


class DegenerateLeadingCoefficient(LorentzModesError):
    """The factored function has (numerically) vanishing leading coefficient."""


class InvalidWavenumber(LorentzModesError, ValueError):
    """A wavenumber is not finite, or not positive where a stacked solve needs it."""


# --- operator / projector ----------------------------------------------------

class DimensionMismatch(LorentzModesError):
    """State vectors do not match the medium's block layout."""


class NearSingularEvaluation(LorentzModesError):
    """The explicit resolvent was evaluated too close to its singular sets."""


class NotDiagonalizable(LorentzModesError):
    """Eigenvalues cluster beyond tolerance; no clean spectral decomposition."""


class ContourTooTight(LorentzModesError):
    """The isolating contour radius fell below the minimum radius."""


class QuadratureNonconvergent(LorentzModesError):
    """Node doubling did not reach the requested quadrature tolerance."""


# --- evolution / energy -------------------------------------------------------

class BandViolation(LorentzModesError):
    """No positive decay constant fits the sampled envelope."""


class NonPositiveRate(LorentzModesError):
    """The mid-band exponential rate (minus the spectral abscissa) is not positive."""


class WindowTooShort(LorentzModesError):
    """Too few samples inside the requested fit window."""


class NonPolynomialDecay(LorentzModesError):
    """Local log-log slopes drift: the decay is not a power law."""


class ExponentMismatch(LorentzModesError):
    """The fitted decay exponent misses its predicted value."""


class ConfigError(LorentzModesError):
    """A run configuration file is missing, malformed, or out of range."""
