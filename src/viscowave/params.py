"""Model parameters shared by every module.

The wave model carries a single memory decay rate ``gamma`` (> 1) and,
for the third-order thermally relaxed variant, a relaxation time ``tau``
in (0, 1).  The derived quantity ``gamma_tilde = sqrt((gamma-1)/gamma)``
is the low-frequency phase speed of the oscillatory root pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import InvalidParameterError, MissingParameterError


@dataclass(frozen=True)
class ModelParams:
    """Physical constants of the mode family.

    Attributes
    ----------
    gamma:
        Memory decay rate, dimensionless, strictly greater than 1 and
        small enough (below about 1.3e154) that 2 gamma^2 is finite.
    tau:
        Thermal relaxation time in (0, 1); ``None`` for the second-order
        (memory-only) model.
    gamma_tilde:
        Derived constant ``sqrt((gamma - 1)/gamma)``; never passed in.
    """

    gamma: float
    tau: float | None = None
    gamma_tilde: float = field(init=False)

    def __post_init__(self):
        if not math.isfinite(self.gamma) or self.gamma <= 1.0:
            raise InvalidParameterError(
                f"gamma must be finite and > 1, got {self.gamma!r}")
        # parabolic_decay divides by 2 gamma^2: 0 or NaN once it overflows
        if not math.isfinite(2.0 * self.gamma * self.gamma):
            raise InvalidParameterError(
                f"gamma must keep 2 gamma^2 finite, got {self.gamma!r}")
        if self.tau is not None:
            if not math.isfinite(self.tau) or not 0.0 < self.tau < 1.0:
                raise InvalidParameterError(
                    f"tau must lie in (0, 1), got {self.tau!r}")
        object.__setattr__(
            self, "gamma_tilde", math.sqrt((self.gamma - 1.0) / self.gamma))

    @property
    def parabolic_decay(self) -> float:
        """Quadratic damping coefficient (gamma^2+1)/(2 gamma^2) of the
        oscillatory pair at low frequency."""
        g = self.gamma
        return (g * g + 1.0) / (2.0 * g * g)

    def require_tau(self) -> float:
        if self.tau is None:
            raise MissingParameterError(
                "operation requires the thermal relaxation tau")
        return self.tau

    def with_tau(self, tau: float) -> "ModelParams":
        return ModelParams(gamma=self.gamma, tau=tau)

    def without_tau(self) -> "ModelParams":
        return ModelParams(gamma=self.gamma, tau=None)
