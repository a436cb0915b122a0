"""Exception taxonomy shared across the package.

The split mirrors the process exit codes: contract/validation problems
(ValueError family, exit 2), I/O problems (OSError, exit 3), and numerical
failures (exit 4).
"""

from __future__ import annotations

__all__ = [
    "ContractError",
    "ConfigError",
    "RegimeError",
    "EnumerationBudgetError",
    "AnalyticUnavailableError",
    "ResourceError",
    "NumericalError",
]


class ContractError(ValueError):
    """An argument or input file violates a documented precondition."""


class ConfigError(ContractError):
    """A run-configuration file failed strict parsing or validation."""


class RegimeError(ContractError):
    """Operation called outside its (n, N) regime (e.g. n > N for the main
    deviation bound)."""


class EnumerationBudgetError(ContractError):
    """Exact sparse-norm enumeration would exceed the subset budget; use
    greedy mode instead."""


class AnalyticUnavailableError(ContractError):
    """Closed-form 1-D expectation is not available for this family or
    direction; use the fresh-sample expectation mode instead."""


class ResourceError(ContractError):
    """Requested allocation exceeds the configured memory budget."""


class NumericalError(RuntimeError):
    """An iterative numerical routine failed to converge within its cap."""
