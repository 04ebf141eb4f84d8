"""Exception types shared across the package."""


class AtomicError(Exception):
    """Base class for all package errors."""


class InvalidType(AtomicError):
    """Dynkin type string or rank out of range."""


class IndexOutOfRange(AtomicError):
    """Simple-root index outside 1..n (or 0..n in affine context)."""


class DimensionMismatch(AtomicError):
    """Vectors of different lengths fed to a bilinear operation."""


class SystemMismatch(AtomicError):
    """Group elements or vectors from different root systems combined."""


class NotReduced(AtomicError):
    """Word is not a reduced expression of its evaluation."""


class NotAReflection(AtomicError):
    """Element is not of the form s_alpha for a positive root alpha."""


class SubgroupTooLarge(AtomicError):
    """Reflection subgroup enumeration exceeded the configured cap."""


class NotDominant(AtomicError):
    """Weight has a negative coordinate where dominance is required."""


class OrbitTooLarge(AtomicError):
    """An orbit computation passed its cap: the weights an orbit walk
    visits (weyl.ORBIT_WALK_CAP) or the image memo's bits (atomiclen.MEMO_CAP)."""


class RadiusTooLarge(AtomicError):
    """Affine probe radius exceeded the configured cap."""


class NegativeBound(AtomicError):
    """A size or radius bound was given below zero."""


class NotAdequate(AtomicError):
    """Point is not an adequate permutohedron base point."""


class InvalidModulus(AtomicError):
    """Core modulus must be at least 2."""


class NotACore(AtomicError):
    """Partition has a hook length divisible by the modulus."""


class SizeTooLarge(AtomicError):
    """Core enumeration bound exceeded the configured cap."""


class PreconditionViolation(AtomicError):
    """Hypotheses of a checked identity do not hold."""


class UnsupportedType(AtomicError):
    """Operation is only defined for certain Dynkin families."""


class InvariantViolation(AtomicError):
    """An identity the computation relies on failed: a defect, not bad input."""
