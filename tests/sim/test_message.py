"""Unit tests for message primitives (repro.sim.message)."""

import pytest

from repro.sim.message import Delivery, Envelope, Message, payload_bits


class TestMessage:
    def test_requires_kind(self):
        with pytest.raises(ValueError):
            Message("")

    def test_rejects_non_int_fields(self):
        with pytest.raises(TypeError):
            Message("X", ("rank",))

    def test_none_field_is_allowed(self):
        message = Message("X", (None, 5))
        assert message.field(0) is None
        assert message.field(1) == 5

    def test_equality(self):
        assert Message("X", (1, 2)) == Message("X", (1, 2))
        assert Message("X", (1, 2)) != Message("X", (2, 1))

    def test_hashable(self):
        assert len({Message("X", (1,)), Message("X", (1,))}) == 1

    def test_list_fields_become_a_tuple(self):
        message = Message("X", [1, 2])
        assert message.fields == (1, 2)
        assert message == Message("X", (1, 2))
        assert hash(message) == hash(Message("X", (1, 2)))
        with pytest.raises(TypeError):
            Message("X", [1, "rank"])


class TestPayloadBits:
    def test_empty_message_costs_tag_only(self):
        assert payload_bits(Message("X")) == 8

    def test_none_costs_presence_bit(self):
        assert payload_bits(Message("X", (None,))) == 9

    def test_larger_values_cost_more(self):
        small = payload_bits(Message("X", (3,)))
        large = payload_bits(Message("X", (3_000_000,)))
        assert large > small

    def test_bits_grow_logarithmically(self):
        # Quadrupling n in a rank [1, n^4] adds ~8 bits.
        n1, n2 = 2**8, 2**10
        diff = payload_bits(Message("X", (n2**4,))) - payload_bits(
            Message("X", (n1**4,))
        )
        assert diff == 8

    def test_bits_property_matches_function(self):
        message = Message("Y", (17, None, 4))
        assert message.bits == payload_bits(message)

    def test_bits_cached_value_is_stable(self):
        message = Message("Y", (17,))
        assert message.bits == message.bits


class TestEnvelopeAndDelivery:
    def test_envelope_carries_bits(self):
        message = Message("X", (9,))
        envelope = Envelope(src=1, dst=2, message=message, round_sent=3)
        assert envelope.bits == message.bits

    def test_envelope_is_the_record_the_receiver_reads(self):
        message = Message("K", (1, None))
        envelope = Envelope(src=1, dst=2, message=message, round_sent=3)
        assert isinstance(envelope, Delivery)
        assert (envelope.sender, envelope.src) == (1, 1)
        assert (envelope.kind, envelope.fields) == ("K", (1, None))
        assert envelope.round_received is None

    def test_delivery_accessors(self):
        message = Message("K", (1, None))
        delivery = Delivery(sender=7, message=message, round_received=4)
        assert delivery.kind == "K"
        assert delivery.fields == (1, None)
        assert (delivery.dst, delivery.round_sent) == (None, None)
