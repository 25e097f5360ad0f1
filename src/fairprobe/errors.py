"""Exception hierarchy shared across the toolkit."""


class FairprobeError(Exception):
    """Base class for all toolkit errors."""


# data
class MissingHeader(FairprobeError):
    pass


class SchemaMismatch(FairprobeError):
    pass


class NonBinaryLabel(FairprobeError):
    pass


class EmptyData(FairprobeError):
    pass


class InvalidCell(FairprobeError):
    pass


class UnknownFeature(FairprobeError):
    pass


class InputNotFound(FairprobeError):
    """A dataset, schema or config path that does not exist."""


# configuration (also a ValueError, as invalid parameter values are)
class ConfigInvalid(FairprobeError, ValueError):
    pass


# models
class WidthMismatch(FairprobeError):
    pass


# causal
class InsufficientRows(FairprobeError):
    pass


class DegenerateColumn(FairprobeError):
    pass


class UnknownNode(FairprobeError):
    pass


class NotDirectlyRelevant(FairprobeError):
    pass


class EmptyDomain(FairprobeError):
    pass


class NoDirectFeature(FairprobeError):
    pass


class NodeSetMismatch(FairprobeError):
    pass


# generators
class IndexCollision(FairprobeError):
    pass


# metrics
class EmptySuite(FairprobeError):
    pass


class MissingGroup(FairprobeError):
    pass


# stats
class TooFewSamples(FairprobeError):
    pass


class EmptySample(FairprobeError):
    pass
