"""Property-based tests of engine invariants.

Random 'scatter' protocols send random fan-outs under random crash
adversaries; whatever happens, the engine's conservation laws must hold:

* exact message conservation: every wire message is delivered, dropped,
  or expired (sent to a dead receiver) — no silent losses, traced or not,
  with or without delayed delivery;
* the CONGEST invariant: per round, at most one message per ordered edge;
* seeds fully determine the run.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.strategies import EagerCrash, RandomCrash, StaggeredCrash
from repro.sim import Message, Network, Protocol, UniformDelay, validate_run


class Scatter(Protocol):
    """Sends a random fan-out for the first few rounds, echoes afterwards."""

    def __init__(self, node_id, fanout, chatty_rounds):
        self.node_id = node_id
        self.fanout = fanout
        self.chatty_rounds = chatty_rounds

    def on_round(self, ctx, inbox):
        for delivery in inbox:
            if delivery.kind == "PING":
                ctx.send(delivery.sender, Message("PONG"))
        if ctx.round <= self.chatty_rounds and ctx.rng.random() < 0.5:
            for dst in ctx.sample_nodes(self.fanout):
                ctx.send(dst, Message("PING"))
        else:
            ctx.idle()


def _run(seed, n, fanout, chatty_rounds, adversary, collect_trace=True, delivery=None):
    network = Network(
        n,
        lambda u: Scatter(u, fanout, chatty_rounds),
        seed=seed,
        adversary=adversary,
        max_faulty=n // 2,
        collect_trace=collect_trace,
        delivery=delivery,
    )
    return network.run(chatty_rounds + 10)


adversaries = st.sampled_from(
    [
        lambda: EagerCrash(),
        lambda: RandomCrash(horizon=6),
        lambda: StaggeredCrash(period=2),
    ]
)


class TestConservation:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=4, max_value=32),
        fanout=st.integers(min_value=1, max_value=3),
        make_adversary=adversaries,
    )
    def test_every_sent_message_is_accounted(self, seed, n, fanout, make_adversary):
        result = _run(seed, n, fanout, 4, make_adversary())
        metrics = result.metrics
        # Exact conservation: no silent losses.
        assert metrics.messages_sent == (
            metrics.messages_delivered
            + metrics.messages_dropped
            + metrics.messages_expired
        )
        # Every send lands in exactly one round bucket.
        assert sum(metrics.per_round_messages) == metrics.messages_sent
        # Expiry requires crashes.
        if not result.crashed:
            assert metrics.messages_expired == 0
        # The trace-level validator agrees event-by-event.
        assert validate_run(result) == []

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=4, max_value=32),
        fanout=st.integers(min_value=1, max_value=3),
        make_adversary=adversaries,
        max_delay=st.integers(min_value=0, max_value=2),
    )
    def test_conservation_holds_on_the_no_trace_fast_path(
        self, seed, n, fanout, make_adversary, max_delay
    ):
        """An untraced run must reach the same exact identity — and the
        same numbers — as the traced run, under Δ = 0, 1 or 2."""
        delivery = UniformDelay(max_delay, salt=seed)
        traced = _run(seed, n, fanout, 4, make_adversary(), delivery=delivery)
        fast = _run(
            seed, n, fanout, 4, make_adversary(), collect_trace=False, delivery=delivery
        )
        assert fast.trace is None
        metrics = fast.metrics
        assert metrics.messages_sent == (
            metrics.messages_delivered
            + metrics.messages_dropped
            + metrics.messages_expired
        )
        assert sum(metrics.per_round_messages) == metrics.messages_sent
        assert metrics.summary() == traced.metrics.summary()

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=4, max_value=32),
        fanout=st.integers(min_value=1, max_value=3),
        make_adversary=adversaries,
    )
    def test_congest_one_message_per_edge_per_round(
        self, seed, n, fanout, make_adversary
    ):
        result = _run(seed, n, fanout, 4, make_adversary())
        seen = set()
        for event in result.trace.sends():
            key = (event.round, event.src, event.dst)
            assert key not in seen, "two messages on one edge in one round"
            seen.add(key)

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=4, max_value=24),
    )
    def test_seed_determinism(self, seed, n):
        a = _run(seed, n, 2, 3, RandomCrash(horizon=5))
        b = _run(seed, n, 2, 3, RandomCrash(horizon=5))
        assert a.metrics.summary() == b.metrics.summary()
        assert a.crashed == b.crashed
        assert a.faulty == b.faulty

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=4, max_value=24),
    )
    def test_crashed_nodes_send_nothing_after_crash(self, seed, n):
        result = _run(seed, n, 2, 3, RandomCrash(horizon=5))
        for event in result.trace.sends():
            crash_round = result.crashed.get(event.src)
            if crash_round is not None:
                assert event.round <= crash_round
