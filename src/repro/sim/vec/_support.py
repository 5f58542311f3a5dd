"""Shared machinery of the vectorized engine backend.

Everything here exists to make the array engines *bit-compatible* with
the reference engine:

* :func:`replay_nodes` replays every node's rank and candidate coin (in
  numpy MT19937 lanes at scale) and hands back each candidate's stream;
* :func:`mirror_sample` replays :meth:`repro.sim.node.Context.sample_nodes`
  draw-for-draw on a node's private rng stream;
* :func:`field_bits` is the closed form of the CONGEST field size used by
  :func:`repro.sim.message.payload_bits` (no log arithmetic in hot loops);
* :class:`LazyOutboxes` hands the *real* adversary objects the outbox of a
  crash victim in the reference engine's exact wire order, materialising
  real :class:`~repro.sim.message.Envelope` objects only on demand — so
  ``CrashOrder.keep()`` consumes the adversary rng in the identical
  sequence;
* :class:`VecEngineBase` drives the real :class:`~repro.faults.Adversary`
  (``select_faulty`` / ``plan_round`` / ``done``) through the same
  :class:`~repro.faults.adversary.FaultLedger` as the reference engine.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ...core.ranks import draw_rank
from ...errors import VecUnsupported
from ...faults.adversary import Adversary, FaultLedger
from ...faults.strategies import (
    EagerCrash,
    LazyCrash,
    NoFaults,
    RandomCrash,
    RefereeCrash,
    SplitDeliveryCrash,
    StaggeredCrash,
)
from ...optdeps import require_numpy
from ...rng import RngFactory, node_seeds
from ...sim.message import Envelope
from ...sim.metrics import Metrics
from ...sim.network import RunResult
from ...types import NodeId, Round

#: Adversary classes the vec backend reproduces exactly.  The check is by
#: exact type: a subclass may override ``plan_round`` in ways the mirrored
#: view does not cover, so it conservatively falls back to the reference
#: engine.
VEC_ADVERSARIES: Tuple[type, ...] = (
    Adversary,
    NoFaults,
    EagerCrash,
    LazyCrash,
    RandomCrash,
    StaggeredCrash,
    SplitDeliveryCrash,
    RefereeCrash,
)


def ensure_vec_supported(
    adversary: Adversary,
    *,
    collect_trace: bool = False,
    message_budget: Optional[int] = None,
    timers: Optional[object] = None,
    delivery: Optional[object] = None,
    byzantine: Optional[object] = None,
) -> None:
    """Raise :class:`VecUnsupported` for configurations vec cannot mirror.

    Called before any engine state is built, so a caller may catch the
    error and fall back to the reference engine with zero side effects.
    """
    if type(adversary) not in VEC_ADVERSARIES:
        raise VecUnsupported(
            f"adversary {adversary.name()!r} ({type(adversary).__name__}) "
            "is not in the vec backend's exact-parity set"
        )
    if adversary.dynamic_selection:
        raise VecUnsupported("dynamic-selection adversaries are not vectorized")
    if collect_trace:
        raise VecUnsupported("trace collection requires the reference engine")
    if message_budget is not None:
        raise VecUnsupported("message budgets require the reference engine")
    if timers is not None:
        raise VecUnsupported("phase profiling requires the reference engine")
    if delivery is not None and getattr(delivery, "max_delay", 0):
        raise VecUnsupported("bounded-delay delivery requires the reference engine")
    if byzantine is not None and getattr(byzantine, "modes", None):
        raise VecUnsupported("Byzantine plans require the reference engine")


#: Below this n the lane replay's 1,247 sequential column steps cost more
#: than seeding every node's ``random.Random`` one at a time.
_LANE_MIN_N = 1000
#: Outputs computed per lane; a lane whose draws need more is replayed
#: by ``random.Random``.  Output k < 227 of the first twist depends only
#: on pre-twist words k, k + 1 and k + 397.
_LANE_WORDS = 64
#: Lanes seeded together: bounds the ``(624, lanes)`` state to ~20 MB.
_LANE_CHUNK = 8192

_MT_N, _MT_M = 624, 397


@lru_cache(maxsize=1)
def _mt_base_state() -> Tuple[int, ...]:
    """MT19937 ``init_genrand(19650218)``, where every ``init_by_array`` starts."""
    state = [19650218]
    for i in range(1, _MT_N):
        prev = state[-1]
        state.append((1812433253 * (prev ^ (prev >> 30)) + i) & 0xFFFFFFFF)
    return tuple(state)


def _lane_outputs(np: Any, key0: Any, key1: Any) -> Any:
    """The first ``_LANE_WORDS`` tempered MT19937 outputs of every lane.

    Lane j is CPython's ``random.Random`` seeded with the two-word key
    ``[key0[j], key1[j]]`` (a seed in ``[2**32, 2**64)``): ``init_by_array``
    runs as 1,247 column steps on a ``(624, lanes)`` ``uint32`` array, in
    place so that every product wraps mod 2**32.
    """
    u32 = np.uint32
    W = _LANE_WORDS
    out = np.empty((W, len(key0)), dtype=u32)
    base = np.array(_mt_base_state(), dtype=u32)[:, None]
    for start in range(0, len(key0), _LANE_CHUNK):
        stop = min(start + _LANE_CHUNK, len(key0))
        mt = np.repeat(base, stop - start, axis=1)
        t = np.empty(stop - start, dtype=u32)
        # init_key[j] + j for j = 0, 1
        addends = (key0[start:stop], key1[start:stop] + u32(1))
        i = 1
        for step in range(2 * _MT_N - 1):
            prev, cur = mt[i - 1], mt[i]
            np.right_shift(prev, u32(30), out=t)
            np.bitwise_xor(t, prev, out=t)
            if step < _MT_N:
                np.multiply(t, u32(1664525), out=t)
                np.bitwise_xor(t, cur, out=t)
                np.add(t, addends[step & 1], out=cur)
            else:
                np.multiply(t, u32(1566083941), out=t)
                np.bitwise_xor(t, cur, out=t)
                np.subtract(t, u32(i), out=cur)
            i += 1
            if i == _MT_N:
                mt[0] = mt[_MT_N - 1]
                i = 1
        mt[0] = 0x80000000
        # First twist, outputs 0..W-1 only, then tempering.
        y = (mt[:W] & u32(0x80000000)) | (mt[1 : W + 1] & u32(0x7FFFFFFF))
        y = mt[_MT_M : _MT_M + W] ^ (y >> u32(1)) ^ ((y & u32(1)) * u32(0x9908B0DF))
        y ^= y >> u32(11)
        y ^= (y << u32(7)) & u32(0x9D2C5680)
        y ^= (y << u32(15)) & u32(0xEFC60000)
        y ^= y >> u32(18)
        out[:, start:stop] = y
    return out


def _lane_draws(
    np: Any, words: Any, n: int, rank_exponent: Optional[int]
) -> Tuple[List[int], Any, Any]:
    """Each lane's ``randint(1, n**rank_exponent)`` and then ``random()``.

    The rank is ``1 + _randbelow(B)``: ``getrandbits(k)`` with
    ``k = B.bit_length()`` (little-endian words, the last shifted right by
    ``32*w - k``), retried while ``r >= B``.  Lanes still rejecting at try
    t all sit at word ``t*w``, so the masked loop needs no per-lane
    offsets.  Returns the ranks (empty without ``rank_exponent``), the
    coins and a mask of the lanes whose draws ran past ``_LANE_WORDS``.
    """
    W, lanes = words.shape
    pos = np.zeros(lanes, dtype=np.int64)
    ranks: List[int] = []
    if rank_exponent is not None:
        bound = n**rank_exponent
        k = bound.bit_length()
        w = (k + 31) // 32
        bound_words = [(bound >> (32 * j)) & 0xFFFFFFFF for j in range(w)]
        value = np.zeros((w, lanes), dtype=np.uint32)
        pos[:] = W  # out of words unless accepted below
        active = np.arange(lanes)
        at = 0
        while active.size and at + w <= W:
            r = words[at : at + w, active]
            r[w - 1] >>= np.uint32(32 * w - k)
            # r < bound, compared from the most significant word down.
            less = np.zeros(active.size, dtype=bool)
            equal = np.ones(active.size, dtype=bool)
            for j in reversed(range(w)):
                less |= equal & (r[j] < bound_words[j])
                equal &= r[j] == bound_words[j]
            accepted = active[less]
            value[:, accepted] = r[:, less]
            at += w
            pos[accepted] = at
            active = active[~less]
        low = value[0].astype(np.uint64)
        if w > 1:
            low |= value[1].astype(np.uint64) << np.uint64(32)
        ranks = low.tolist()
        for j in range(2, w):
            ranks = [r | (h << (32 * j)) for r, h in zip(ranks, value[j].tolist())]
        ranks = [r + 1 for r in ranks]
    spent = pos + 2 > W
    pos[spent] = 0
    cols = np.arange(lanes)
    a = words[pos, cols] >> np.uint32(5)
    b = words[pos + 1, cols] >> np.uint32(6)
    coins = (a * 67108864.0 + b) * (1.0 / 9007199254740992.0)
    return ranks, coins, spent


def replay_nodes(
    seed: int, n: int, p_cand: float, rank_exponent: Optional[int] = None
) -> Tuple[List[int], Any, Dict[NodeId, random.Random]]:
    """Replay every node's ``on_start`` draws on its private rng stream.

    Node u's stream is ``random.Random(derive_seed(seed, "node", u))``; it
    draws ``draw_rank`` (when ``rank_exponent`` is given) and then the
    candidate coin ``random()``.  Returns ``(ranks, coins, cand_rngs)``:
    every node's rank (empty without ``rank_exponent``), every coin as
    a float64 array, and each candidate (``coin < p_cand``), in id order,
    mapped to its stream positioned right after the coin, where
    :func:`mirror_sample` starts.

    From ``n >= _LANE_MIN_N`` the draws are replayed for all nodes at once
    in numpy lanes (:func:`_lane_outputs`).  Only candidates, lanes whose
    seed is below ``2**32`` (CPython seeds those from a one-word key) and
    lanes that run out of words are replayed by ``random.Random``.
    """
    np = np_module()
    seeds = node_seeds(seed, n)
    if n < _LANE_MIN_N or rank_exponent is not None and rank_exponent < 1:
        # (draw_rank rejects an exponent below 1 on the first node)
        ranks = [0] * n if rank_exponent is not None else []
        coins = np.zeros(n)
        scalar: Iterable[int] = range(n)
    else:
        seeds_a = np.array(seeds, dtype=np.uint64)
        key1 = (seeds_a >> np.uint64(32)).astype(np.uint32)
        words = _lane_outputs(np, seeds_a.astype(np.uint32), key1)
        ranks, coins, spent = _lane_draws(np, words, n, rank_exponent)
        scalar = np.flatnonzero(spent | (key1 == 0) | (coins < p_cand)).tolist()
    cand_rngs: Dict[NodeId, random.Random] = {}
    for u in scalar:
        rng = random.Random(seeds[u])
        if rank_exponent is not None:
            ranks[u] = draw_rank(rng, n, rank_exponent)
        coin = coins[u] = rng.random()
        if coin < p_cand:
            cand_rngs[u] = rng
    return ranks, coins, cand_rngs


def mirror_sample(
    rng: random.Random, n: int, self_id: int, k: int
) -> List[int]:
    """Exact replay of ``Context.sample_nodes`` on a node's rng stream."""
    if k > (n - 1) // 2:
        candidates = [i for i in range(n) if i != self_id]
        return rng.sample(candidates, k)
    sampled: List[int] = []
    seen = {self_id}
    randrange = rng.randrange
    seen_add = seen.add
    append = sampled.append
    while len(sampled) < k:
        pick = randrange(n)
        if pick not in seen:
            seen_add(pick)
            append(pick)
    return sampled


def field_bits(value: int) -> int:
    """CONGEST size of one non-None integer field.

    Closed form of ``max(1, ceil(log2(|v| + 2)))`` for ``v >= 0``:
    ``(v + 1).bit_length()``.
    """
    return (value + 1).bit_length()


class LazyOutboxes(Mapping):
    """The ``RoundView.outboxes`` mapping, materialised on demand.

    The reference engine only tracks outboxes of faulty senders (static
    selection), so the mapping's domain is the faulty alive nodes that
    transmitted this round; each value is the sender's wire batch in the
    reference engine's exact envelope order.
    """

    def __init__(self, engine: "VecEngineBase", round_: Round) -> None:
        self._engine = engine
        self._round = round_

    def __getitem__(self, sender: NodeId) -> Sequence[Envelope]:
        outbox = self._engine._outbox_envelopes(sender, self._round)
        if not outbox:
            raise KeyError(sender)
        return outbox

    def get(self, sender: NodeId, default: Any = None) -> Any:
        outbox = self._engine._outbox_envelopes(sender, self._round)
        return outbox if outbox else default

    def __contains__(self, sender: object) -> bool:
        if not isinstance(sender, int):
            return False
        return bool(self._engine._outbox_envelopes(sender, self._round))

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._engine._outbox_senders(self._round))

    def __len__(self) -> int:
        return len(self._engine._outbox_senders(self._round))


class VecEngineBase:
    """Adversary plumbing shared by the protocol-specific array engines.

    Subclasses provide two hooks:

    * ``_outbox_envelopes(sender, r)`` — the sender's transmitted wire
      batch this round as real envelopes, in reference wire order;
    * ``_discard_queues(victim, r)`` — drop the victim's untransmitted
      backlog from the queued-total bookkeeping.
    """

    n: int
    total_rounds: Round
    #: numpy module, and the per-node sent counts as an int64 array.
    np: Any
    pn: Any

    def _init_adversary(
        self,
        seed: int,
        adversary: Adversary,
        max_faulty: int,
        inputs: Optional[Sequence[int]],
    ) -> None:
        self.adversary = adversary
        self.ledger = FaultLedger(
            adversary, self.n, max_faulty, RngFactory(seed).adversary_stream(), inputs
        )
        self.faulty = self.ledger.faulty
        self.crashed = self.ledger.crashed
        self.metrics = Metrics()
        self._outbox_cache: Dict[NodeId, List[Envelope]] = {}

    # -- hooks ----------------------------------------------------------

    def _outbox_envelopes(self, sender: NodeId, r: Round) -> List[Envelope]:
        raise NotImplementedError

    def _discard_queues(self, victim: NodeId, r: Round) -> None:
        raise NotImplementedError

    # -- adversary driving ----------------------------------------------

    def _outbox_senders(self, r: Round) -> List[NodeId]:
        """Faulty alive senders with a non-empty batch, in id order."""
        return [u for u in sorted(self.ledger.alive) if self._outbox_envelopes(u, r)]

    def _adversary_done(self, r: Round) -> bool:
        return self.adversary.done(self.ledger.view(r, {}))

    def _crash_phase(self, r: Round) -> Set[Tuple[NodeId, NodeId]]:
        """Run ``plan_round`` and process the orders; return dropped edges.

        Mirrors the reference engine: the victim's transmitted batch this
        round is filtered per envelope by ``order.keep`` (in wire order —
        this is where ``keep_fraction`` consumes the adversary rng), its
        untransmitted backlog is discarded, and drops are keyed by edge
        (CONGEST: unique per round).
        """
        self._outbox_cache = {}
        ledger = self.ledger
        orders = self.adversary.plan_round(
            ledger.view(r, LazyOutboxes(self, r)), ledger.rng
        )
        dropped: Set[Tuple[NodeId, NodeId]] = set()
        for victim, order in ledger.crash(orders, r):
            self.metrics.record_crash()
            self._discard_queues(victim, r)
            for envelope in self._outbox_envelopes(victim, r):
                if not order.keep(envelope):
                    dropped.add((envelope.src, envelope.dst))
                    self.metrics.record_drop()
        return dropped

    def _cached_outbox(self, sender: NodeId, build) -> List[Envelope]:
        outbox = self._outbox_cache.get(sender)
        if outbox is None:
            outbox = self._outbox_cache[sender] = build()
        return outbox

    def _run_result(self, protocols: Sequence[Any]) -> RunResult:
        """Finalize the metrics and package the run like the reference."""
        metrics = self.metrics
        metrics.rounds = metrics.rounds_executed
        metrics.horizon = self.total_rounds
        for u in self.np.flatnonzero(self.pn).tolist():
            metrics.per_node_sent[u] = int(self.pn[u])
        return RunResult(
            n=self.n,
            protocols=protocols,
            metrics=metrics,
            trace=None,
            faulty=self.faulty,
            crashed=dict(self.crashed),
            rounds=metrics.rounds_executed,
            horizon=self.total_rounds,
            max_delay=0,
        )


def np_module() -> Any:
    """The numpy module (raises :class:`BackendUnavailable` when absent)."""
    return require_numpy()
