"""Exception types shared across the package."""


class CfEvrpError(Exception):
    """Base class for all package errors."""


# ---------------------------------------------------------------- graph layer

class NotStronglyConnected(CfEvrpError):
    pass


class DanglingEdgeEndpoint(CfEvrpError):
    pass


class BadCapacity(CfEvrpError):
    pass


class NonPositiveLength(CfEvrpError):
    pass


# ------------------------------------------------------------- instance layer

class SchemaError(CfEvrpError):
    pass


class InvariantViolation(CfEvrpError):
    pass


class GenerationFailed(CfEvrpError):
    pass


# ----------------------------------------------------------- sub-problem layer

class MalformedChain(CfEvrpError):
    """Successor-chasing over a routing model produced a broken route."""


class BrokenChain(CfEvrpError):
    """Route legs do not chain from the depot back to the depot."""


class DecodingCycle(CfEvrpError):
    """A selected path subgraph contains a cycle detached from its chain."""


# ------------------------------------------------------------ validator layer

class MalformedSchedule(CfEvrpError):
    pass


class TooLarge(CfEvrpError):
    """Instance exceeds the brute-force oracle's hard guard."""
