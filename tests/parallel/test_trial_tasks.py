"""The election and agreement trial tasks take exactly what
``elect_leader`` and ``agree`` take."""

import pytest

from repro.parallel import agreement_trial, election_trial


@pytest.mark.parametrize("trial", [election_trial, agreement_trial])
def test_max_delay_is_not_a_trial_option(trial):
    with pytest.raises(TypeError):
        trial(seed=1, n=32, alpha=0.75, max_delay=1)


def test_election_trial_takes_no_inputs():
    with pytest.raises(TypeError, match="inputs"):
        election_trial(seed=1, n=32, alpha=0.75, inputs="all1")


@pytest.mark.parametrize("trial", [election_trial, agreement_trial])
def test_scripted_is_not_a_trial_option(trial):
    with pytest.raises(TypeError):
        trial(seed=1, n=32, alpha=0.75, scripted=(1, 2))


def test_agreement_trial_defaults_to_mixed_inputs():
    from repro.core.runner import agree

    assert agreement_trial(seed=4, n=32, alpha=0.75) == agree(
        n=32, alpha=0.75, seed=4
    ).summary()

