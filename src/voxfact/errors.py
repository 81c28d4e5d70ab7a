"""Shared error types."""


class VoxfactError(Exception):
    """Base class for domain and configuration errors."""


class DomainViolation(VoxfactError):
    """A configuration leaves the region where an expansion is valid."""


class NotASubset(VoxfactError):
    """Carrier extension requested into a set that does not contain it."""


class NotDisjoint(VoxfactError):
    """Disjointness required (carriers or supports) but not satisfied."""


class ExpansionDomainMismatch(VoxfactError):
    """A contour or jet sits where the exact expansion is undecidable."""


class NonConvergent(VoxfactError):
    """A numeric procedure could not reach its tolerance.  No route in the
    package raises it at present; callers that catch it keep working."""


class UsageError(VoxfactError):
    """Bad command-line or configuration input."""
