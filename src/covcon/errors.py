"""Exception taxonomy shared across the package, and its one integer rule.

The split mirrors the process exit codes: contract/validation problems
(ValueError family, exit 2), I/O problems (OSError, exit 3), and numerical
failures (exit 4).  `require_int` states the integer rule: each count, dimension
and seed is a plain int in its range, never a float, bool or numpy integer.
"""

from __future__ import annotations

__all__ = [
    "U64_MAX",
    "require_int",
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


U64_MAX = (1 << 64) - 1
_RULES = {(0, None): "a non-negative integer", (1, None): "a positive integer", (0, U64_MAX): "an unsigned 64-bit integer"}


def require_int(name: str, value: object, lo: int = 1, hi: int | None = None) -> None:
    """Raise ContractError unless type(value) is int and lo <= value <= hi (hi = None: no bound)."""
    if not (type(value) is int and lo <= value and (hi is None or value <= hi)):
        raise ContractError(f"{name} must be {_RULES.get((lo, hi), f'an integer in [{lo}, {hi}]')}, got {value!r}")
