"""Runner-level validation and wiring tests (repro.core.runner)."""

import pytest

from repro.core import INPUT_PATTERNS, agree, elect_leader
from repro.core.runner import _resolve_adversary
from repro.faults import Adversary, EagerCrash


class TestAdversaryResolution:
    def test_instance_passthrough(self):
        adversary = EagerCrash()
        assert _resolve_adversary(adversary, horizon=10) is adversary

    def test_name_resolution(self):
        assert _resolve_adversary("eager", horizon=10).name() == "eager"

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            _resolve_adversary("borg", horizon=10)

    def test_custom_adversary_through_runner(self, fast_params):
        class CountingAdversary(Adversary):
            calls = 0

            def plan_round(self, view, rng):
                CountingAdversary.calls += 1
                return {}

            def done(self, view):
                return True

        result = agree(
            n=96, alpha=0.5, inputs="all1", seed=1,
            adversary=CountingAdversary(), params=fast_params(96),
        )
        assert result.success
        assert CountingAdversary.calls > 0


class TestInputPatterns:
    def test_constant_matches_make_inputs(self):
        from repro.core import make_inputs

        for pattern in INPUT_PATTERNS:
            bits = make_inputs(32, pattern, seed=1)
            assert len(bits) == 32

    def test_adversary_sees_inputs(self, fast_params):
        seen = {}

        class Inspector(Adversary):
            def select_faulty(self, n, max_faulty, rng, inputs=None):
                seen["inputs"] = inputs
                return set()

            def done(self, view):
                return True

        agree(
            n=96, alpha=0.5, inputs="all0", seed=2,
            adversary=Inspector(), params=fast_params(96),
        )
        assert seen["inputs"] == [0] * 96


class TestResultWiring:
    def test_seed_recorded(self, fast_params):
        result = elect_leader(n=96, alpha=0.5, seed=777, params=fast_params(96))
        assert result.seed == 777

    def test_adversary_name_recorded(self, fast_params):
        result = elect_leader(
            n=96, alpha=0.5, seed=1, adversary="staggered", params=fast_params(96)
        )
        assert result.adversary == "staggered/4"

    def test_alpha_recorded_from_params(self, fast_params):
        params = fast_params(96, alpha=0.25)
        result = agree(n=96, alpha=0.25, inputs="mixed", seed=1, params=params)
        assert result.alpha == 0.25


class TestParamsSizeMismatch:
    """``params`` built for another ``n`` is rejected, not run at either size."""

    @pytest.mark.parametrize("backend", ["ref", "vec"])
    @pytest.mark.parametrize("entry", ["elect_leader", "agree"])
    def test_backend_entry_points(self, entry, backend):
        from repro.core import runner
        from repro.errors import ConfigurationError
        from repro.params import Params

        with pytest.raises(ConfigurationError, match="n=64.*n=128"):
            getattr(runner, entry)(
                n=128, alpha=0.5, seed=1, params=Params(n=64, alpha=0.5),
                adversary="none", backend=backend,
            )

    @pytest.mark.parametrize(
        "entry", ["elect_leader_explicit", "agree_explicit", "agree_via_election"]
    )
    def test_ref_only_entry_points(self, entry):
        from repro.core import runner
        from repro.errors import ConfigurationError
        from repro.params import Params

        with pytest.raises(ConfigurationError, match="n=64.*n=128"):
            getattr(runner, entry)(
                n=128, alpha=0.5, seed=1, params=Params(n=64, alpha=0.5),
                adversary="none",
            )
