"""Exception types shared across the library."""


class ParstackError(Exception):
    """Base class for all library errors."""


class SingularBasis(ParstackError):
    """Generating set is linearly dependent over the fraction field."""


class AmbientMismatch(ParstackError):
    """Two lattices do not live in the same ambient space."""


class InvalidChain(ParstackError):
    """A parabolic lattice chain violates its inclusion or endpoint law."""


class InvalidGrading(ParstackError):
    """A graded module chain violates its inclusion or wraparound law."""


class ShapeMismatch(ParstackError):
    """Matrix dimensions are incompatible with the bundles involved."""


class ProfileMismatch(ParstackError):
    """Branch data does not match the cover profile."""


class InadmissibleProfile(ParstackError):
    """Cover profile violates the admissibility relation s = r * e."""


class InadmissibleWeight(ParstackError):
    """Weight denominator is incompatible with the local order."""


class NotAPairing(ParstackError):
    """Candidate bilinear form is not a valid parabolic pairing."""


class ValueLineMismatch(ParstackError):
    """Branch pairing is not valued in the pullback of a target line."""


class ParseError(ParstackError):
    """Scenario file cannot be parsed."""


class ValidationError(ParstackError):
    """Scenario file parses but violates a structural invariant."""
