"""Cross-backend parity gate: ``vec`` must be Metrics-identical to ``ref``.

The vectorized engine's contract (docs/VEC.md) is *exact* equivalence:
for every supported configuration, the same seed must produce identical
``Metrics`` (message totals, per-round series, per-kind counters,
per-node senders, latency histogram), identical crash sets, and
identical per-node outcomes.  These tests drive both engines over a
seeded grid and compare everything; any drift — one message, one bit,
one round — is a failure, not a tolerance.

Also here: the fallback contract (unsupported adversaries silently use
the reference engine, same results), the conservation identity on vec
runs, process-pool parity at ``jobs=4``, and the numpy-missing error
path.
"""

from __future__ import annotations

import pytest

from repro.baselines.flooding import FloodingConsensusProtocol, flooding_consensus
from repro.core import agree, elect_leader
from repro.core.agreement import AgreementProtocol
from repro.core.leader_election import LeaderElectionProtocol
from repro.core.runner import _resolve_adversary, make_inputs
from repro.core.schedule import AgreementSchedule, LeaderElectionSchedule
from repro.errors import BackendUnavailable, ConfigurationError, VecUnsupported
from repro.optdeps import have_numpy
from repro.params import CongestBudget, Params
from repro.sim.network import Network
from repro.types import Knowledge

pytestmark = pytest.mark.skipif(not have_numpy(), reason="numpy not installed")

ADVERSARIES = ("none", "eager", "lazy", "random", "staggered", "split")

#: The acceptance canary (ISSUE 7): this exact count on both backends.
CANARY = dict(n=512, alpha=0.5, seed=2)
CANARY_MESSAGES = 411687


def _assert_runs_match(ref, vec):
    """Full Metrics + fault-set equality, plus conservation on the vec run."""
    rm, vm = ref.metrics, vec.metrics
    assert rm.per_round_messages == vm.per_round_messages
    assert dict(rm.per_kind_messages) == dict(vm.per_kind_messages)
    assert rm.per_node_sent == vm.per_node_sent
    assert dict(rm.delivery_latency) == dict(vm.delivery_latency)
    assert rm == vm  # every remaining scalar field too
    assert ref.crashed == vec.crashed
    assert ref.faulty == vec.faulty
    # Conservation: every sent message is delivered, dropped, or expired.
    assert vm.messages_sent == (
        vm.messages_delivered + vm.messages_dropped + vm.messages_expired
    )


# ----------------------------------------------------------------------
# Leader election
# ----------------------------------------------------------------------


def _election_pair(n, alpha, seed, advname):
    from repro.sim.vec import ensure_vec_supported, run_election_vec

    params = Params(n=n, alpha=alpha)
    schedule = LeaderElectionSchedule.from_params(params)
    total = schedule.last_round
    adv = _resolve_adversary(advname, total)
    ensure_vec_supported(adv)
    vec = run_election_vec(params, schedule, seed, adv, params.max_faulty, total)
    ref = Network(
        n,
        lambda u: LeaderElectionProtocol(u, params, schedule),
        seed=seed,
        adversary=_resolve_adversary(advname, total),
        max_faulty=params.max_faulty,
        congest=CongestBudget(n),
    ).run(total)
    return ref, vec


@pytest.mark.parametrize("n", [16, 64, 256])
@pytest.mark.parametrize("advname", ADVERSARIES)
def test_election_parity(n, advname):
    try:
        ref, vec = _election_pair(n, 0.5, seed=1, advname=advname)
    except VecUnsupported as exc:
        pytest.skip(f"config not vectorized: {exc}")
    _assert_runs_match(ref, vec)
    for u in range(n):
        rp, vp = ref.protocol(u), vec.protocol(u)
        assert rp.rank == vp.rank
        assert rp.is_candidate == vp.is_candidate
        assert rp.state == vp.state
        assert rp.leader_rank == vp.leader_rank


@pytest.mark.parametrize("seed", [0, 2, 3])
def test_election_parity_across_seeds(seed):
    ref, vec = _election_pair(64, 0.5, seed=seed, advname="random")
    _assert_runs_match(ref, vec)


# ----------------------------------------------------------------------
# Agreement
# ----------------------------------------------------------------------


def _agreement_pair(n, alpha, seed, advname, pattern):
    from repro.sim.vec import ensure_vec_supported, run_agreement_vec

    params = Params(n=n, alpha=alpha)
    schedule = AgreementSchedule.from_params(params)
    total = schedule.last_round
    adv = _resolve_adversary(advname, total)
    bits = make_inputs(n, pattern, seed)
    ensure_vec_supported(adv)
    vec = run_agreement_vec(
        params, schedule, seed, adv, params.max_faulty, bits, total
    )
    ref = Network(
        n,
        lambda u: AgreementProtocol(u, params, schedule, bits[u]),
        seed=seed,
        adversary=_resolve_adversary(advname, total),
        max_faulty=params.max_faulty,
        inputs=bits,
        congest=CongestBudget(n),
    ).run(total)
    return ref, vec


@pytest.mark.parametrize("n", [16, 64, 256])
@pytest.mark.parametrize("advname", ADVERSARIES)
def test_agreement_parity(n, advname):
    try:
        ref, vec = _agreement_pair(n, 0.5, seed=3, advname=advname, pattern="mixed")
    except VecUnsupported as exc:
        pytest.skip(f"config not vectorized: {exc}")
    _assert_runs_match(ref, vec)
    for u in range(n):
        rp, vp = ref.protocol(u), vec.protocol(u)
        assert rp.is_candidate == vp.is_candidate
        assert rp.decision == vp.decision


@pytest.mark.parametrize("pattern", ["single0", "all1", "all0"])
def test_agreement_parity_input_patterns(pattern):
    ref, vec = _agreement_pair(64, 0.5, seed=7, advname="staggered", pattern=pattern)
    _assert_runs_match(ref, vec)
    for u in range(64):
        assert ref.protocol(u).decision == vec.protocol(u).decision


# ----------------------------------------------------------------------
# Flooding baseline
# ----------------------------------------------------------------------


def _flooding_pair(n, seed, advname, extra_rounds=0):
    from repro.sim.vec import ensure_vec_supported, run_flooding_vec

    f = n // 3
    horizon = f + 3 + extra_rounds
    bits = make_inputs(n, "mixed", seed)
    adv = _resolve_adversary(advname, horizon)
    ensure_vec_supported(adv)
    vec = run_flooding_vec(n, bits, seed, adv, f, f + 1, horizon)
    ref = Network(
        n,
        lambda u: FloodingConsensusProtocol(u, n, bits[u], f + 1),
        seed=seed,
        adversary=_resolve_adversary(advname, horizon),
        max_faulty=f,
        inputs=bits,
        knowledge=Knowledge.KT1,
    ).run(horizon)
    return ref, vec


@pytest.mark.parametrize("n", [16, 64, 200])
@pytest.mark.parametrize("advname", ["none", "eager", "random", "staggered"])
def test_flooding_parity(n, advname):
    try:
        ref, vec = _flooding_pair(n, seed=5, advname=advname)
    except VecUnsupported as exc:
        pytest.skip(f"config not vectorized: {exc}")
    _assert_runs_match(ref, vec)
    for u in ref.alive:
        assert ref.protocol(u).decided == vec.protocol(u).decided


@pytest.mark.parametrize("advname", ["none", "random", "staggered"])
def test_flooding_parity_with_extra_rounds(advname):
    """The vec twin runs the horizon it is given, extra rounds included."""
    ref, vec = _flooding_pair(64, seed=5, advname=advname, extra_rounds=3)
    assert vec.horizon == 64 // 3 + 6
    _assert_runs_match(ref, vec)
    for u in ref.alive:
        assert ref.protocol(u).decided == vec.protocol(u).decided


# ----------------------------------------------------------------------
# API level: the canary, fallback, and error paths
# ----------------------------------------------------------------------


def test_canary_both_backends():
    """The acceptance canary: identical headline count on ref and vec."""
    ref = elect_leader(**CANARY, backend="ref")
    vec = elect_leader(**CANARY, backend="vec")
    assert ref.messages == CANARY_MESSAGES
    assert vec.messages == CANARY_MESSAGES
    assert ref.success and vec.success
    assert ref.elected_alive == vec.elected_alive
    assert ref.beliefs == vec.beliefs


def test_api_agreement_backend_parity():
    ref = agree(n=96, alpha=0.5, inputs="mixed", seed=11, adversary="staggered")
    vec = agree(
        n=96, alpha=0.5, inputs="mixed", seed=11, adversary="staggered", backend="vec"
    )
    assert ref.messages == vec.messages
    assert ref.decisions == vec.decisions
    assert ref.success == vec.success


def test_api_flooding_backend_parity():
    inputs = make_inputs(80, "mixed", 9)
    ref = flooding_consensus(80, inputs, seed=9, adversary=None, faulty_count=20)
    vec = flooding_consensus(
        80, inputs, seed=9, adversary=None, faulty_count=20, backend="vec"
    )
    assert ref.metrics == vec.metrics
    assert ref.decisions == vec.decisions
    assert ref.success and vec.success


def test_unsupported_adversary_falls_back_to_ref():
    """An adversary outside VEC_ADVERSARIES silently uses the ref engine."""
    ref = elect_leader(n=48, alpha=0.5, seed=4, adversary="adaptive")
    vec = elect_leader(n=48, alpha=0.5, seed=4, adversary="adaptive", backend="vec")
    assert ref.messages == vec.messages
    assert ref.metrics == vec.metrics
    assert ref.elected_alive == vec.elected_alive


def test_unknown_backend_rejected():
    with pytest.raises(ConfigurationError):
        elect_leader(n=16, alpha=0.5, seed=0, backend="cuda")
    with pytest.raises(ConfigurationError):
        flooding_consensus(8, [0] * 8, backend="cuda")


def test_missing_numpy_raises_backend_unavailable(monkeypatch):
    """Without numpy, backend='vec' fails loudly, not with an ImportError."""
    from repro import optdeps

    monkeypatch.setattr(optdeps, "_NUMPY", None)
    monkeypatch.setattr(optdeps, "_NUMPY_ERROR", "No module named 'numpy'")
    with pytest.raises(BackendUnavailable) as excinfo:
        optdeps.require_numpy("the vectorized backend")
    assert "repro[perf]" in str(excinfo.value)


# ----------------------------------------------------------------------
# Pool parity: jobs=4 workers produce the same rows as serial ref
# ----------------------------------------------------------------------


def test_sweep_pool_parity_jobs4():
    from repro.analysis.sweeps import sweep
    from repro.parallel import election_trial

    grid = {"n": [16, 32], "alpha": [0.5]}
    serial_ref = sweep(election_trial, grid, trials=2, master_seed=13, jobs=1)
    pooled_vec = sweep(
        election_trial, grid, trials=2, master_seed=13, jobs=4, backend="vec"
    )
    assert serial_ref == pooled_vec
