"""Property-based tests for the crypto primitives (hypothesis)."""

from hypothesis import given, settings, strategies as st

from repro.core.pipeline import stream_cipher
from repro.tee.attestation import measure


class TestStreamCipherProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.binary(max_size=512), st.binary(min_size=1, max_size=64))
    def test_round_trip(self, data, key):
        assert stream_cipher(stream_cipher(data, key), key) == data

    @settings(max_examples=50, deadline=None)
    @given(st.binary(min_size=16, max_size=256),
           st.binary(min_size=1, max_size=32),
           st.binary(min_size=1, max_size=32))
    def test_wrong_key_fails_to_decrypt(self, data, key_a, key_b):
        if key_a[:64] == key_b[:64]:
            return
        garbled = stream_cipher(stream_cipher(data, key_a), key_b)
        # With overwhelming probability the plaintext does not survive.
        # At least 16 bytes: two keystreams agree on a 1-byte message
        # with probability 1/256, which a 50-example search does hit.
        assert garbled != data

    @settings(max_examples=30, deadline=None)
    @given(st.binary(min_size=64, max_size=256),
           st.binary(min_size=1, max_size=32))
    def test_ciphertext_length_preserved(self, data, key):
        assert len(stream_cipher(data, key)) == len(data)

    @settings(max_examples=30, deadline=None)
    @given(st.binary(min_size=128, max_size=256),
           st.binary(min_size=1, max_size=32))
    def test_keystream_not_repeating_across_blocks(self, data, key):
        """Equal plaintext blocks must not produce equal ciphertext
        blocks (the counter must enter the keystream)."""
        plaintext = bytes(64) + bytes(64)  # two identical zero blocks
        ciphertext = stream_cipher(plaintext, key)
        assert ciphertext[:64] != ciphertext[64:128]


class TestMeasurementProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.dictionaries(st.text(min_size=1, max_size=16),
                           st.binary(max_size=64), min_size=1, max_size=5))
    def test_deterministic_and_order_free(self, artifacts):
        reordered = dict(reversed(list(artifacts.items())))
        assert measure(artifacts) == measure(reordered)

    @settings(max_examples=50, deadline=None)
    @given(st.dictionaries(st.text(min_size=1, max_size=16),
                           st.binary(max_size=64), min_size=1, max_size=5),
           st.binary(min_size=1, max_size=16))
    def test_any_content_change_changes_measurement(self, artifacts, extra):
        name = next(iter(artifacts))
        tampered = dict(artifacts)
        tampered[name] = artifacts[name] + extra
        assert measure(artifacts) != measure(tampered)

    def test_fixed_width_hex(self):
        assert len(measure({"a": b"x"})) == 96  # SHA-384 hex
