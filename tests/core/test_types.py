"""Tests for the shared value types (vectors and commands)."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import VectorSpecError
from repro.types import (
    AccessType,
    ElementAccess,
    ExplicitCommand,
    Vector,
    VectorCommand,
    expand_reference,
)


class TestVectorValidation:
    def test_negative_base_rejected(self):
        with pytest.raises(VectorSpecError):
            Vector(base=-1, stride=1, length=1)

    def test_zero_length_rejected(self):
        with pytest.raises(VectorSpecError):
            Vector(base=0, stride=1, length=0)

    def test_negative_length_rejected(self):
        with pytest.raises(VectorSpecError):
            Vector(base=0, stride=1, length=-5)

    def test_zero_stride_rejected(self):
        with pytest.raises(VectorSpecError):
            Vector(base=0, stride=0, length=4)

    def test_negative_stride_rejected(self):
        with pytest.raises(VectorSpecError):
            Vector(base=0, stride=-4, length=4)

    def test_valid_vector_constructs(self):
        v = Vector(base=8, stride=3, length=5)
        assert (v.base, v.stride, v.length) == (8, 3, 5)


class TestVectorAddressing:
    def test_paper_example(self):
        """V = <A, 4, 5> designates A[0], A[4], A[8], A[12], A[16]."""
        v = Vector(base=0, stride=4, length=5)
        assert list(v.addresses()) == [0, 4, 8, 12, 16]

    def test_element_address(self):
        v = Vector(base=10, stride=7, length=4)
        assert v.element_address(0) == 10
        assert v.element_address(3) == 31

    def test_element_address_out_of_range(self):
        v = Vector(base=10, stride=7, length=4)
        with pytest.raises(IndexError):
            v.element_address(4)
        with pytest.raises(IndexError):
            v.element_address(-1)

    def test_last_address(self):
        v = Vector(base=5, stride=9, length=10)
        assert v.last_address == 5 + 9 * 9

    def test_span_words(self):
        assert Vector(base=0, stride=1, length=32).span_words == 32
        assert Vector(base=0, stride=4, length=8).span_words == 29

    @given(
        base=st.integers(0, 10**6),
        stride=st.integers(1, 100),
        length=st.integers(1, 200),
    )
    def test_addresses_are_arithmetic_progression(self, base, stride, length):
        v = Vector(base=base, stride=stride, length=length)
        addresses = list(v.addresses())
        assert len(addresses) == length
        assert addresses[0] == base
        assert all(
            b - a == stride for a, b in zip(addresses, addresses[1:])
        )


class TestVectorSplit:
    def test_split_exact_chunks(self):
        v = Vector(base=0, stride=2, length=96)
        pieces = v.split(32)
        assert [p.length for p in pieces] == [32, 32, 32]
        assert pieces[1].base == 64
        assert pieces[2].base == 128

    def test_split_with_remainder(self):
        v = Vector(base=3, stride=5, length=70)
        pieces = v.split(32)
        assert [p.length for p in pieces] == [32, 32, 6]

    def test_split_preserves_addresses(self):
        v = Vector(base=7, stride=3, length=50)
        joined = []
        for piece in v.split(16):
            joined.extend(piece.addresses())
        assert joined == list(v.addresses())

    def test_split_invalid_max(self):
        with pytest.raises(VectorSpecError):
            Vector(base=0, stride=1, length=4).split(0)

    @given(
        length=st.integers(1, 300),
        stride=st.integers(1, 40),
        chunk=st.integers(1, 64),
    )
    def test_split_total_length(self, length, stride, chunk):
        v = Vector(base=0, stride=stride, length=length)
        pieces = v.split(chunk)
        assert sum(p.length for p in pieces) == length
        assert all(p.length <= chunk for p in pieces)


class TestCommands:
    def test_read_write_flags(self):
        v = Vector(base=0, stride=1, length=4)
        r = VectorCommand(vector=v, access=AccessType.READ)
        w = VectorCommand(vector=v, access=AccessType.WRITE)
        assert r.is_read and not r.is_write
        assert w.is_write and not w.is_read

    def test_access_type_properties(self):
        assert AccessType.READ.is_read
        assert AccessType.WRITE.is_write
        assert not AccessType.READ.is_write

    def test_explicit_command_validation(self):
        with pytest.raises(VectorSpecError):
            ExplicitCommand(addresses=(), access=AccessType.READ, broadcast_cycles=1)
        with pytest.raises(VectorSpecError):
            ExplicitCommand(
                addresses=(1, -2), access=AccessType.READ, broadcast_cycles=1
            )
        with pytest.raises(VectorSpecError):
            ExplicitCommand(
                addresses=(1,), access=AccessType.READ, broadcast_cycles=0
            )

    def test_write_data_shorter_than_command_rejected(self):
        """Write data must cover every element: a short tuple is refused
        when the command is built, so no system stores a prefix."""
        v = Vector(base=0, stride=1, length=4)
        with pytest.raises(VectorSpecError, match="2 words for a 4-element"):
            VectorCommand(vector=v, access=AccessType.WRITE, data=(7, 8))
        with pytest.raises(VectorSpecError, match="1 words for a 2-element"):
            ExplicitCommand(
                addresses=(3, 19),
                access=AccessType.WRITE,
                broadcast_cycles=1,
                data=(7,),
            )
        full = VectorCommand(
            vector=v, access=AccessType.WRITE, data=(7, 8, 9, 10)
        )
        assert full.data == (7, 8, 9, 10)

    def test_explicit_command_length(self):
        cmd = ExplicitCommand(
            addresses=(4, 9, 1), access=AccessType.WRITE, broadcast_cycles=3
        )
        assert cmd.length == 3
        assert cmd.is_write


class TestExpandReference:
    def test_expansion_matches_addresses(self):
        v = Vector(base=6, stride=11, length=7)
        ref = expand_reference(v)
        assert [e.index for e in ref] == list(range(7))
        assert [e.address for e in ref] == list(v.addresses())

    def test_element_access_fields(self):
        e = ElementAccess(index=2, address=40)
        assert e.index == 2 and e.address == 40
