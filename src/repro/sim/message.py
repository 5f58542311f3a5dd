"""Message primitives and CONGEST payload sizing.

A protocol-level :class:`Message` is a ``(kind, fields)`` pair; ``kind`` is
a short string tag and ``fields`` a tuple of small integers (or ``None``
for the paper's null value).  This is deliberately restrictive: it makes
the CONGEST bit-size of every payload computable, so the engine can verify
that protocols never exceed the per-edge budget.

These classes sit on the engine's hottest allocation path (every
transmitted message is one :class:`Envelope`, and the receiver reads that
same record as its :class:`Delivery`), so they are hand-written
``__slots__`` classes rather than dataclasses: no per-instance
``__dict__``, no ``object.__setattr__`` per field, and the bit size of a
``(kind, fields)`` pair is memoised in a module-level cache so repeated
identical payloads skip both validation and the log2 arithmetic.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

from ..types import NodeId, Round

#: Field values are small ints or None (the paper's ``bot`` marker).
Field = Optional[int]

#: Memoised ``(kind, fields) -> bits`` (validated payloads only).  Bounded:
#: a pathological campaign with millions of distinct payloads resets it
#: rather than growing without limit.
_BITS_CACHE: dict = {}
_BITS_CACHE_MAX = 1 << 16


def _validated_bits(kind: str, fields: Tuple[Field, ...]) -> int:
    """Validate a payload and return its CONGEST bit size (uncached path)."""
    if not kind:
        raise ValueError("message kind must be non-empty")
    bits = 8
    for value in fields:
        bits += 1
        if value is None:
            continue
        if not isinstance(value, int):
            raise TypeError(f"message fields must be int or None, got {value!r}")
        bits += max(1, math.ceil(math.log2(abs(value) + 2)))
    return bits


class Message:
    """A protocol-level message: a tagged tuple of small integer fields."""

    __slots__ = ("kind", "fields", "bits")

    def __init__(self, kind: str, fields: Tuple[Field, ...] = ()) -> None:
        # Bit size is consulted on every enqueue (CONGEST check) and every
        # wire send (accounting); a cache hit also proves the payload was
        # already validated.
        try:
            bits = _BITS_CACHE.get((kind, fields))
        except TypeError:  # a list (unhashable): keep it as a tuple
            fields = tuple(fields)
            bits = None
        if bits is None:
            bits = _validated_bits(kind, fields)
            if len(_BITS_CACHE) >= _BITS_CACHE_MAX:
                _BITS_CACHE.clear()
            _BITS_CACHE[(kind, fields)] = bits
        self.kind = kind
        self.fields = fields
        self.bits = bits

    def field(self, index: int) -> Field:
        """Return field ``index`` (convenience accessor)."""
        return self.fields[index]

    def __repr__(self) -> str:
        return f"Message(kind={self.kind!r}, fields={self.fields!r})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Message):
            return self.kind == other.kind and self.fields == other.fields
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.kind, self.fields))

    # __slots__ classes need explicit pickling support on some protocols;
    # reconstructing through __init__ also re-validates and re-memoises.
    def __reduce__(self):
        return (Message, (self.kind, self.fields))


def payload_bits(message: Message) -> int:
    """Bit-size of a message under a natural fixed-point encoding.

    * the kind tag costs 8 bits (protocols use a handful of kinds);
    * each integer field costs ``ceil(log2(|v| + 2))`` bits plus a
      presence bit; ``None`` costs the presence bit only.

    The exact encoding does not matter for the reproduction; what matters
    is that a rank in ``[1, n^4]`` costs ``Theta(log n)`` bits so that the
    engine's CONGEST check is meaningful.
    """
    return _validated_bits(message.kind, message.fields)


class Delivery:
    """One message record: what the wire carries and what the receiver reads.

    The engine builds one record per transmitted message (an
    :class:`Envelope`), stamps ``round_received`` on it at delivery and
    hands that same object to the receiver; every field is a plain slot.

    ``sender`` is the arrival port: under KT0 it is the only handle the
    receiver gains, and it may be used as a send address (reply).
    ``round_received`` is the round the receiver actually saw the message:
    ``round_sent + 1`` in the synchronous model, anywhere in
    ``[round_sent + 1, round_sent + 1 + Δ]`` under a Δ-bounded
    :class:`~repro.sim.delivery.DeliverySchedule` — protocols that care
    about age must read it rather than assume one-round latency.  A record
    built by this constructor, on the receiving side, has no ``dst`` or
    ``round_sent``.
    """

    __slots__ = (
        "sender", "dst", "message", "kind", "fields", "round_sent", "round_received"
    )

    def __init__(
        self, sender: NodeId, message: Message, round_received: Round
    ) -> None:
        self.sender = sender
        self.dst: Optional[NodeId] = None
        self.message = message
        self.kind = message.kind
        self.fields = message.fields
        self.round_sent: Optional[Round] = None
        self.round_received: Optional[Round] = round_received

    @property
    def src(self) -> NodeId:
        """The sending node (the same handle as ``sender``)."""
        return self.sender

    @property
    def bits(self) -> int:
        """CONGEST size of the enclosed message."""
        return self.message.bits

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(sender={self.sender!r}, dst={self.dst!r}, "
            f"message={self.message!r}, round_sent={self.round_sent!r}, "
            f"round_received={self.round_received!r})"
        )


class Envelope(Delivery):
    """The record of a message put on the edge ``src -> dst`` in
    ``round_sent``; ``round_received`` is ``None`` until delivery."""

    __slots__ = ()
    dst: NodeId
    round_sent: Round

    def __init__(
        self, src: NodeId, dst: NodeId, message: Message, round_sent: Round
    ) -> None:
        self.sender = src
        self.dst = dst
        self.message = message
        self.kind = message.kind
        self.fields = message.fields
        self.round_sent = round_sent
        self.round_received = None
