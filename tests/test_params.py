"""Unit tests for the paper's parameter formulas (repro.params)."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.params import (
    CongestBudget,
    Params,
    alpha_floor,
    default_params,
    fault_counts,
    max_faulty,
)


class TestAlphaFloor:
    def test_matches_formula(self):
        n = 1024
        assert alpha_floor(n) == pytest.approx(math.log(n) ** 2 / n)

    def test_capped_at_one(self):
        # For tiny n, log^2 n / n can exceed 1; the floor caps at 1.
        assert alpha_floor(2) <= 1.0

    def test_decreases_with_n(self):
        assert alpha_floor(4096) < alpha_floor(256) < alpha_floor(64)

    def test_rejects_tiny_network(self):
        with pytest.raises(ConfigurationError):
            alpha_floor(1)


class TestMaxFaulty:
    def test_half_faulty(self):
        assert max_faulty(1000, 0.5) == 500

    def test_alpha_one_means_no_faults(self):
        assert max_faulty(1000, 1.0) == 0

    def test_never_negative(self):
        assert max_faulty(8, 1.0) == 0

    def test_respects_log_squared_ceiling(self):
        # f <= n - log^2 n even when alpha allows more.
        n = 1024
        tiny_alpha = alpha_floor(n)
        assert max_faulty(n, tiny_alpha) <= n - math.ceil(math.log(n) ** 2)

    def test_monotone_in_alpha(self):
        assert max_faulty(512, 0.25) >= max_faulty(512, 0.5) >= max_faulty(512, 0.75)


class TestParamsValidation:
    def test_rejects_alpha_zero(self):
        with pytest.raises(ConfigurationError):
            Params(n=256, alpha=0.0)

    def test_rejects_alpha_above_one(self):
        with pytest.raises(ConfigurationError):
            Params(n=256, alpha=1.5)

    def test_rejects_alpha_below_floor_when_strict(self):
        n = 1024
        with pytest.raises(ConfigurationError):
            Params(n=n, alpha=alpha_floor(n) / 2)

    def test_allows_alpha_below_floor_when_not_strict(self):
        n = 1024
        params = Params(n=n, alpha=alpha_floor(n) / 2, strict=False)
        assert params.alpha < alpha_floor(n)

    def test_rejects_tiny_network(self):
        with pytest.raises(ConfigurationError):
            Params(n=4, alpha=0.5)

    def test_rejects_nonpositive_factors(self):
        with pytest.raises(ConfigurationError):
            Params(n=256, alpha=0.5, candidate_factor=0)
        with pytest.raises(ConfigurationError):
            Params(n=256, alpha=0.5, referee_factor=-1)
        with pytest.raises(ConfigurationError):
            Params(n=256, alpha=0.5, iteration_factor=0)

    @pytest.mark.parametrize("exponent", [0, -1])
    def test_rejects_rank_exponent_below_one(self, exponent):
        with pytest.raises(ConfigurationError, match="rank_exponent"):
            Params(n=64, alpha=0.5, rank_exponent=exponent)

    def test_with_returns_modified_copy(self):
        params = Params(n=256, alpha=0.5)
        other = params.with_(alpha=0.25)
        assert other.alpha == 0.25
        assert params.alpha == 0.5
        assert other.n == params.n


class TestSamplingQuantities:
    def test_candidate_probability_formula(self):
        params = Params(n=1024, alpha=0.5)
        expected = 6 * math.log(1024) / (0.5 * 1024)
        assert params.candidate_probability == pytest.approx(expected)

    def test_candidate_probability_capped_at_one(self):
        params = Params(n=16, alpha=0.5, strict=False)
        assert params.candidate_probability <= 1.0

    def test_expected_candidates_is_theta_log_over_alpha(self):
        params = Params(n=4096, alpha=0.5)
        assert params.expected_candidates == pytest.approx(
            6 * math.log(4096) / 0.5
        )

    def test_referee_count_formula(self):
        params = Params(n=1024, alpha=0.5)
        expected = math.ceil(2 * math.sqrt(1024 * math.log(1024) / 0.5))
        assert params.referee_count == expected

    def test_referee_count_capped_at_ports(self):
        params = Params(n=64, alpha=0.5, referee_factor=100.0)
        assert params.referee_count == 63

    def test_iterations_scale_with_inverse_alpha(self):
        a = Params(n=1024, alpha=0.5).iterations
        b = Params(n=1024, alpha=0.25).iterations
        assert b == pytest.approx(2 * a, rel=0.05)

    def test_rank_space(self):
        assert Params(n=64, alpha=0.5).rank_space == 64**4

    def test_ablation_factors_change_quantities(self):
        base = Params(n=512, alpha=0.5)
        small = Params(n=512, alpha=0.5, candidate_factor=1.0, referee_factor=0.5)
        assert small.candidate_probability < base.candidate_probability
        assert small.referee_count < base.referee_count


class TestBoundFormulas:
    def test_le_bound_shape(self):
        params = Params(n=1024, alpha=0.5)
        expected = math.sqrt(1024) * math.log(1024) ** 2.5 / 0.5**2.5
        assert params.le_message_bound() == pytest.approx(expected)

    def test_agreement_bound_below_le_bound(self):
        params = Params(n=4096, alpha=0.25)
        assert params.agreement_message_bound() < params.le_message_bound()

    def test_lower_bound_below_upper_bounds(self):
        params = Params(n=4096, alpha=0.25)
        assert params.lower_bound_messages() < params.agreement_message_bound()

    def test_round_bound(self):
        params = Params(n=1024, alpha=0.25)
        assert params.round_bound() == pytest.approx(math.log(1024) / 0.25)

    def test_explicit_bound_is_superlinear_in_n(self):
        small = Params(n=256, alpha=0.5).explicit_message_bound()
        large = Params(n=512, alpha=0.5).explicit_message_bound()
        assert large > 2 * small


class TestSublinearityThresholds:
    def test_agreement_sublinear_at_high_alpha_large_n(self):
        assert Params(n=2**16, alpha=1.0).agreement_sublinear()

    def test_agreement_not_sublinear_at_low_alpha(self):
        params = Params(n=256, alpha=alpha_floor(256), strict=False)
        assert not params.agreement_sublinear()

    def test_le_threshold_is_stricter_than_agreement(self):
        # Wherever LE is sublinear, agreement is too.
        for n in (2**12, 2**20, 2**30):
            for alpha in (0.1, 0.5, 1.0):
                params = Params(n=n, alpha=alpha, strict=False)
                if params.le_sublinear():
                    assert params.agreement_sublinear()


class TestCongestBudget:
    def test_bits_scale_with_log_n(self):
        small = CongestBudget(n=256).bits_per_message
        large = CongestBudget(n=256**2).bits_per_message
        assert large == 2 * small

    def test_rank_message_fits(self):
        # A message carrying two ranks from [1, n^4] must fit.
        from repro.sim.message import Message

        for n in (8, 64, 1024, 2**16):
            budget = CongestBudget(n=n)
            message = Message("LE_PROP", (n**4, n**4))
            assert message.bits <= budget.bits_per_message


class TestHelpers:
    def test_default_params(self):
        params = default_params(512)
        assert params.n == 512
        assert params.alpha == 0.5

    def test_fault_counts_dict(self):
        info = fault_counts(512, 0.5)
        assert info["max_faulty"] == max_faulty(512, 0.5)
        assert info["min_nonfaulty"] == 512 - info["max_faulty"]
