"""SHA-256: FIPS 180-4 vectors, padding boundaries, and an hashlib oracle."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.sha256 import sha256


class TestVectors:
    def test_empty_message(self):
        assert (
            sha256(b"").hex()
            == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        )

    def test_abc(self):
        assert (
            sha256(b"abc").hex()
            == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )

    def test_two_block_message(self):
        message = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
        assert (
            sha256(message).hex()
            == "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        )

    def test_million_a(self):
        digest = sha256(b"a" * 1_000_000)
        assert (
            digest.hex()
            == "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        )


class TestAgainstHashlib:
    @given(data=st.binary(max_size=512))
    @settings(max_examples=60, deadline=None)
    def test_matches_hashlib(self, data):
        assert sha256(data) == hashlib.sha256(data).digest()

    @pytest.mark.parametrize("length", [0, 1, 55, 56, 57, 63, 64, 65, 127, 128, 129])
    def test_padding_boundaries(self, length):
        data = b"\xa5" * length
        assert sha256(data) == hashlib.sha256(data).digest()
