"""All numeric formulas of the paper in one place.

The algorithms of Sections IV-A and V-A are parameterised by three sampling
quantities, each taken verbatim from the paper (logs are natural logs,
consistent with the Chernoff arithmetic of Lemmas 1-3):

* candidate probability   ``6 log n / (alpha * n)``          (Lemma 1)
* referee sample size     ``2 * sqrt(n log n / alpha)``      (Lemma 3)
* iteration count         ``Theta(log n / alpha)``           (Theorem 4.1)

The constants ``6``, ``2`` and the iteration multiplier are exposed as
fields so that experiment E13 can ablate them; the defaults are the paper
values.

The module also carries the closed-form upper/lower-bound formulas used by
the experiment harness to compare measured curves against the theory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import ConfigurationError

#: Smallest network size for which the model's constraints are satisfiable
#: (``alpha >= log^2 n / n`` needs ``n`` comfortably above ``log^2 n``).
MIN_NETWORK_SIZE = 8


def alpha_floor(n: int) -> float:
    """Smallest admissible ``alpha`` for an ``n``-node network.

    The paper requires ``alpha in [log^2 n / n, 1]`` so that at least
    ``log^2 n`` nodes are non-faulty.
    """
    if n < 2:
        raise ConfigurationError(f"network needs at least 2 nodes, got {n}")
    return min(1.0, (math.log(n) ** 2) / n)


def max_faulty(n: int, alpha: float) -> int:
    """Maximum number of faulty nodes: ``floor((1 - alpha) * n)``.

    Also clamped to ``n - ceil(log^2 n)``, the paper's absolute resilience
    ceiling (``f <= n - log^2 n``).
    """
    by_alpha = math.floor((1.0 - alpha) * n)
    ceiling = n - math.ceil(math.log(n) ** 2) if n > 2 else 0
    return max(0, min(by_alpha, ceiling))


@dataclass(frozen=True)
class Params:
    """Sampling parameters for one run of the paper's algorithms.

    Parameters
    ----------
    n:
        Network size (complete graph on ``n`` nodes).
    alpha:
        Guaranteed fraction of non-faulty nodes, in ``[log^2 n / n, 1]``.
    candidate_factor:
        The constant ``c`` in the candidate probability ``c log n/(alpha n)``
        (paper: 6).
    referee_factor:
        The constant ``c`` in the referee sample size
        ``c * sqrt(n log n / alpha)`` (paper: 2).
    iteration_factor:
        Multiplier on ``log n / alpha`` for the number of protocol
        iterations.  The proof of Theorem 4.1 needs at least one iteration
        per candidate crash, and there are at most ``12 log n/alpha``
        candidates w.h.p. (Lemma 1), hence the default 12.
    rank_exponent:
        Ranks are drawn uniformly from ``[1, n**rank_exponent]`` (paper: 4,
        which makes all ranks distinct w.h.p.).
    strict:
        If True (default), reject parameters outside the paper's validity
        range instead of clamping.
    """

    n: int
    alpha: float
    candidate_factor: float = 6.0
    referee_factor: float = 2.0
    iteration_factor: float = 12.0
    rank_exponent: int = 4
    strict: bool = True

    def __post_init__(self) -> None:
        if self.n < MIN_NETWORK_SIZE:
            raise ConfigurationError(
                f"n must be >= {MIN_NETWORK_SIZE}, got {self.n}"
            )
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigurationError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.strict and self.alpha < alpha_floor(self.n):
            raise ConfigurationError(
                f"alpha={self.alpha} below model floor "
                f"log^2(n)/n={alpha_floor(self.n):.6f} for n={self.n}"
            )
        if self.candidate_factor <= 0 or self.referee_factor <= 0:
            raise ConfigurationError("sampling factors must be positive")
        if self.iteration_factor <= 0:
            raise ConfigurationError("iteration_factor must be positive")
        if self.rank_exponent < 1:
            raise ConfigurationError(
                f"rank_exponent must be >= 1, got {self.rank_exponent}"
            )

    # ------------------------------------------------------------------
    # Sampling quantities (Section IV-A / V-A)
    # ------------------------------------------------------------------

    @property
    def log_n(self) -> float:
        """Natural log of the network size."""
        return math.log(self.n)

    @property
    def candidate_probability(self) -> float:
        """Per-node probability of self-selecting into the committee C.

        Paper: ``6 log n / (alpha n)`` (Lemma 1), capped at 1.
        """
        return min(1.0, self.candidate_factor * self.log_n / (self.alpha * self.n))

    @property
    def expected_candidates(self) -> float:
        """Expected committee size ``|C|`` (Lemma 1: ``Theta(log n/alpha)``)."""
        return self.candidate_probability * self.n

    @property
    def referee_count(self) -> int:
        """Number of referee nodes each candidate samples.

        Paper: ``2 (n log n / alpha)^(1/2)`` (Lemma 3), capped at ``n - 1``
        (a node has only ``n - 1`` ports).
        """
        raw = self.referee_factor * math.sqrt(self.n * self.log_n / self.alpha)
        return min(self.n - 1, max(1, math.ceil(raw)))

    @property
    def iterations(self) -> int:
        """Number of protocol iterations, ``Theta(log n / alpha)``."""
        return max(1, math.ceil(self.iteration_factor * self.log_n / self.alpha))

    @property
    def rank_space(self) -> int:
        """Size of the rank universe ``n**rank_exponent`` (Section IV-A)."""
        return self.n**self.rank_exponent

    @property
    def max_faulty(self) -> int:
        """Maximum number of faulty nodes this parameterisation tolerates."""
        return max_faulty(self.n, self.alpha)

    # ------------------------------------------------------------------
    # Closed-form bounds, for the experiment harness
    # ------------------------------------------------------------------

    def le_message_bound(self) -> float:
        """Theorem 4.1 upper bound: ``n^1/2 log^{5/2} n / alpha^{5/2}``.

        Returned without the hidden constant; the harness fits the constant.
        """
        return math.sqrt(self.n) * self.log_n**2.5 / self.alpha**2.5

    def agreement_message_bound(self) -> float:
        """Theorem 5.1 upper bound: ``n^1/2 log^{3/2} n / alpha^{3/2}``."""
        return math.sqrt(self.n) * self.log_n**1.5 / self.alpha**1.5

    def round_bound(self) -> float:
        """Round bound ``log n / alpha`` shared by Theorems 4.1 and 5.1."""
        return self.log_n / self.alpha

    def lower_bound_messages(self) -> float:
        """Theorems 4.2/5.2 lower bound: ``n^1/2 / alpha^{3/2}``."""
        return math.sqrt(self.n) / self.alpha**1.5

    def explicit_message_bound(self) -> float:
        """Message bound of the explicit extensions: ``n log n / alpha``."""
        return self.n * self.log_n / self.alpha

    # ------------------------------------------------------------------
    # Sublinearity thresholds (Section I-A)
    # ------------------------------------------------------------------

    def le_sublinear(self) -> bool:
        """True iff the LE bound is sublinear: ``alpha > log n / n^{1/5}``."""
        return self.alpha > self.log_n / self.n**0.2

    def agreement_sublinear(self) -> bool:
        """True iff the agreement bound is sublinear:
        ``alpha > log n / n^{1/3}``."""
        return self.alpha > self.log_n / self.n ** (1.0 / 3.0)

    # ------------------------------------------------------------------

    def with_(self, **changes: object) -> "Params":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)  # type: ignore[arg-type]


@dataclass(frozen=True)
class CongestBudget:
    """CONGEST message-size budget: ``bits_factor * log2(n)`` bits per edge
    per round (paper, Section II)."""

    n: int
    bits_factor: float = 16.0

    @property
    def bits_per_message(self) -> int:
        """Maximum payload size of a single message, in bits."""
        return max(8, math.ceil(self.bits_factor * math.log2(self.n)))


def default_params(n: int, alpha: float = 0.5, **overrides: object) -> Params:
    """Convenience constructor with the paper's default constants."""
    return Params(n=n, alpha=alpha, **overrides)  # type: ignore[arg-type]


def fault_counts(n: int, alpha: float) -> dict:
    """Summary of the fault budget for ``(n, alpha)`` as a plain dict."""
    return {
        "n": n,
        "alpha": alpha,
        "alpha_floor": alpha_floor(n),
        "max_faulty": max_faulty(n, alpha),
        "min_nonfaulty": n - max_faulty(n, alpha),
    }
