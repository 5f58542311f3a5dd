"""The lane replay of every node's private stream equals ``random.Random``.

:func:`repro.sim.vec._support.replay_nodes` replays each node's rank and
candidate coin in numpy MT19937 lanes from ``n >= _LANE_MIN_N`` on.  It
must return exactly what the per-node loop over ``random.Random`` gives:
every rank, every coin, the candidate set, and candidate streams that go
on with the same referee sample and the same next draw.
"""

from __future__ import annotations

import random

import pytest

from repro.core import elect_leader
from repro.core.ranks import draw_rank
from repro.optdeps import have_numpy
from repro.params import Params
from repro.rng import derive_seed, node_seeds
from repro.sim.vec import _support
from repro.sim.vec._support import mirror_sample, replay_nodes

from . import test_vec_parity as parity

pytestmark = pytest.mark.skipif(not have_numpy(), reason="numpy not installed")


def _per_node(seeds, n, p_cand, rank_exponent):
    """The per-node loop the lanes replace."""
    ranks, coins, cand_rngs = [], [], {}
    for u, seed in enumerate(seeds):
        rng = random.Random(seed)
        if rank_exponent is not None:
            ranks.append(draw_rank(rng, n, rank_exponent))
        coins.append(rng.random())
        if coins[-1] < p_cand:
            cand_rngs[u] = rng
    return ranks, coins, cand_rngs


def _assert_replay_matches(seed, n, rank_exponent=4, seeds=None, alpha=0.5):
    p_cand = Params(n=n, alpha=alpha).candidate_probability
    if seeds is None:
        seeds = node_seeds(seed, n)
    ranks, coins, cand_rngs = replay_nodes(seed, n, p_cand, rank_exponent)
    want_ranks, want_coins, want_rngs = _per_node(seeds, n, p_cand, rank_exponent)
    assert ranks == want_ranks
    assert coins.tolist() == want_coins
    assert list(cand_rngs) == list(want_rngs)
    for u, rng in cand_rngs.items():
        want = want_rngs[u]
        assert mirror_sample(rng, n, u, 40) == mirror_sample(want, n, u, 40)
        assert rng.random() == want.random()


def test_node_seeds_equal_derive_seed():
    for master in (0, 7, 2**40):
        assert node_seeds(master, 300) == [
            derive_seed(master, "node", u) for u in range(300)
        ]


@pytest.mark.parametrize("seed", range(8))
def test_power_of_two_n_rejects_half_the_tries(seed):
    # n**4 = 2**48: every getrandbits(49) try is accepted with prob. 1/2.
    _assert_replay_matches(seed, 4096)


@pytest.mark.parametrize("seed", range(3))
def test_n_4097(seed):
    _assert_replay_matches(seed, 4097)


@pytest.mark.parametrize("seed", range(4))
def test_coin_only(seed):
    _assert_replay_matches(seed, 3000, rank_exponent=None)


def test_ranks_wider_than_64_bits():
    # 65536**4 = 2**64: three words per try, the last shifted right by 31.
    _assert_replay_matches(1, 65536)


@pytest.mark.parametrize("seed", range(4))
def test_three_word_ranks_at_small_n(seed):
    # 2000**6 > 2**65: the multi-word compare at a fraction of the cost.
    _assert_replay_matches(seed, 2000, rank_exponent=6)


def test_ragged_chunks(monkeypatch):
    monkeypatch.setattr(_support, "_LANE_CHUNK", 1500)
    _assert_replay_matches(3, 4097)


def test_one_word_seeds_fall_back(monkeypatch):
    seeds = node_seeds(5, 2048)
    seeds[3], seeds[10], seeds[11] = 0, 1, 2**32 - 1
    monkeypatch.setattr(_support, "node_seeds", lambda master, n: list(seeds))
    _assert_replay_matches(5, 2048, seeds=seeds)
    _assert_replay_matches(5, 2048, rank_exponent=None, seeds=seeds)


@pytest.mark.parametrize("words", [2, 4, 5])
def test_lanes_out_of_words_fall_back(monkeypatch, words):
    # 4 words hold two rank tries at n=2048 (k=45) but then no coin.
    monkeypatch.setattr(_support, "_LANE_WORDS", words)
    _assert_replay_matches(6, 2048)
    _assert_replay_matches(6, 2048, rank_exponent=None)


def test_small_n_uses_the_scalar_loop(monkeypatch):
    def no_lanes(*args):
        raise AssertionError("lane replay below _LANE_MIN_N")

    monkeypatch.setattr(_support, "_lane_outputs", no_lanes)
    _assert_replay_matches(2, _support._LANE_MIN_N - 1)


# The vec parity grid runs at n <= 256, below the crossover: run it once
# more with every node on the lane path.


@pytest.fixture
def lanes_everywhere(monkeypatch):
    monkeypatch.setattr(_support, "_LANE_MIN_N", 0)


@pytest.mark.parametrize("n", [16, 64, 256])
@pytest.mark.parametrize("advname", parity.ADVERSARIES)
def test_election_parity_on_lanes(lanes_everywhere, n, advname):
    parity.test_election_parity(n, advname)


@pytest.mark.parametrize("n", [16, 64, 256])
@pytest.mark.parametrize("advname", parity.ADVERSARIES)
def test_agreement_parity_on_lanes(lanes_everywhere, n, advname):
    parity.test_agreement_parity(n, advname)


def test_canary_on_lanes(lanes_everywhere):
    result = elect_leader(**parity.CANARY, backend="vec")
    assert result.messages == parity.CANARY_MESSAGES
