"""Exception types shared across the library."""


class DynKCenterError(Exception):
    """Base class for all library errors."""


class StreamError(DynKCenterError):
    pass


class DuplicateArrival(StreamError):
    pass


class DuplicateId(StreamError):
    pass


class MalformedRecord(StreamError):
    """A stream file line with a missing field, a bad value or a
    non-finite coordinate."""


class InvertedLifetime(StreamError):
    pass


class DistanceOutOfRange(StreamError):
    pass


class NonMonotoneArrival(StreamError):
    """An arrival not after the previous one, or before the latest time
    a structure has seen."""


class PastTime(DynKCenterError):
    """A query or expiry-only advance at a time before the latest one a
    structure has seen."""


class NoCurrentQuery(DynKCenterError):
    """witness() with no query since the structure last changed."""


class InvalidParameter(DynKCenterError):
    """A size, count or name outside what the call accepts."""


class InvalidBounds(DynKCenterError):
    pass


class InvalidBeta(DynKCenterError):
    pass


class InvalidH(DynKCenterError):
    pass


class MetricError(DynKCenterError):
    pass


class IndexOutOfRange(MetricError):
    pass


class EmptyCenters(DynKCenterError):
    pass


class EmptyPoints(DynKCenterError):
    pass


class TooFewPoints(DynKCenterError):
    pass


class TooLargeForEnumeration(DynKCenterError):
    pass


class PointNotFound(DynKCenterError):
    """A point to delete is not stored; indicates internal corruption."""


class NoFeasibleGuess(DynKCenterError):
    """No guess admits a solution; the declared d_max was too small."""


class InvariantViolation(DynKCenterError):
    """Raised by the audit suite with the invariant name and location."""

    def __init__(self, invariant, detail=""):
        self.invariant = invariant
        self.detail = detail
        super().__init__(f"{invariant}: {detail}" if detail else invariant)
