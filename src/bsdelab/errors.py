"""Semantic exceptions shared across the package."""


class LabError(Exception):
    """Base class for every error raised by this package."""


class SingularEvaluation(LabError):
    """The cumulative intensity was requested at or beyond the blow-up time."""


class InfeasibleGrid(LabError):
    """The requested grid cannot be built (e.g. the intensity mass never reaches the target)."""


class NoSolution(LabError):
    """The equation provably admits no solution for the given data."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class ResourceLimit(LabError):
    """A requested simulation exceeds the configured memory cap."""


class BasisDegenerate(LabError):
    """The regression design matrix is numerically rank deficient."""

    def __init__(self, node_index: int, condition: float):
        super().__init__(
            f"regression basis degenerate at node {node_index} (condition {condition:.3e})"
        )
        self.node_index = node_index
        self.condition = condition


class CertificateFailed(LabError):
    """A pathology certificate could not be established from the computed evidence."""


class NumericsError(LabError):
    """An internal numerical routine failed to converge."""
