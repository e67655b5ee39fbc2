"""Crypto primitives: frozen vectors, purity, roundtrips, corruption."""

import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flyover import crypto
from aes_ref import (
    aes128_encrypt_block,
    ref_authenticator,
    ref_cbc_mac,
    ref_drkey,
    ref_validation_field,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def _vector_lines():
    with open(os.path.join(FIXTURES, "crypto_vectors.txt")) as fh:
        return [ln.split() for ln in fh if ln.strip()]


def test_aes_reference_fips_vector():
    """The oracle itself is anchored to the FIPS-197 known answer."""
    key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
    pt = bytes.fromhex("00112233445566778899aabbccddeeff")
    assert aes128_encrypt_block(key, pt).hex() == "69c4e0d86a7b0430d8cdb78070b4c55a"


def test_frozen_vectors_match_production():
    for parts in _vector_lines():
        kind = parts[0]
        if kind == "drkey":
            secret, as_id, expect = bytes.fromhex(parts[1]), int(parts[2], 16), parts[3]
            assert crypto.derive_drkey(secret, as_id).hex() == expect
        elif kind == "auth":
            secret = bytes.fromhex(parts[1])
            src, ing, egr, expect = int(parts[2], 16), int(parts[3], 16), int(parts[4], 16), parts[5]
            assert crypto.compute_authenticator(secret, src, ing, egr).hex() == expect
        elif kind == "vf":
            auth = bytes.fromhex(parts[1])
            ts, length, expect = int(parts[2], 16), int(parts[3], 16), parts[4]
            assert crypto.compute_validation_field(auth, ts, length).hex() == expect
        elif kind == "reqauth":
            key = bytes.fromhex(parts[1])
            ts, r, b, expect = int(parts[2], 16), int(parts[3], 16), int(parts[4], 16), parts[5]
            assert crypto.compute_request_auth(key, ts, bool(r), bool(b)).hex() == expect
        elif kind == "reqauth2":
            key = bytes.fromhex(parts[1])
            ts, r, b = int(parts[2], 16), int(parts[3], 16), int(parts[4], 16)
            bwd, bwm, expect = int(parts[5], 16), int(parts[6], 16), parts[7]
            assert crypto.compute_request_auth(key, ts, bool(r), bool(b), bwd, bwm).hex() == expect
        elif kind == "seal":
            key, nonce = bytes.fromhex(parts[1]), bytes.fromhex(parts[2])
            bw, exp = int(parts[3], 16), int(parts[4], 16)
            alpha, ct, tag = bytes.fromhex(parts[5]), parts[6], parts[7]
            _, c, t = crypto.seal_grant(key, alpha, bw, exp, nonce=nonce)
            assert c.hex() == ct and t.hex() == tag
        else:
            pytest.fail(f"unknown vector kind {kind}")


def test_frozen_vectors_match_oracle():
    """MAC-based vector lines are reproducible by the independent reference."""
    for parts in _vector_lines():
        kind = parts[0]
        if kind == "drkey":
            assert ref_drkey(bytes.fromhex(parts[1]), int(parts[2], 16)).hex() == parts[3]
        elif kind == "auth":
            got = ref_authenticator(
                bytes.fromhex(parts[1]), int(parts[2], 16), int(parts[3], 16), int(parts[4], 16)
            )
            assert got.hex() == parts[5]
        elif kind == "vf":
            got = ref_validation_field(bytes.fromhex(parts[1]), int(parts[2], 16), int(parts[3], 16))
            assert got.hex() == parts[4]
        elif kind == "reqauth":
            msg = int(parts[2], 16).to_bytes(8, "big") + bytes([int(parts[3], 16), int(parts[4], 16)])
            assert ref_cbc_mac(bytes.fromhex(parts[1]), msg).hex() == parts[5]


def test_drkey_determinism_and_distinctness():
    k = os.urandom(16)
    assert crypto.derive_drkey(k, 42) == crypto.derive_drkey(k, 42)
    assert crypto.derive_drkey(k, 42) != crypto.derive_drkey(k, 43)
    assert len(crypto.derive_drkey(k, 42)) == 16


def test_authenticator_direction_matters():
    k = os.urandom(16)
    assert crypto.compute_authenticator(k, 9, 3, 4) == crypto.compute_authenticator(k, 9, 3, 4)
    assert crypto.compute_authenticator(k, 9, 3, 4) != crypto.compute_authenticator(k, 9, 4, 3)


def test_validation_field_binds_length():
    a = os.urandom(16)
    assert crypto.compute_validation_field(a, 5, 1000) == crypto.compute_validation_field(a, 5, 1000)
    assert crypto.compute_validation_field(a, 5, 1000) != crypto.compute_validation_field(a, 5, 1001)


def test_validation_field_is_mac_prefix():
    a = os.urandom(16)
    full = crypto.cbc_mac(a, (77).to_bytes(8, "big") + (1200).to_bytes(2, "big"))
    assert full.startswith(crypto.compute_validation_field(a, 77, 1200))
    assert len(crypto.compute_validation_field(a, 77, 1200)) == crypto.VALIDATION_FIELD_LEN == 3


@settings(max_examples=200, deadline=None)
@given(
    secret=st.binary(min_size=16, max_size=16),
    remote=st.integers(min_value=0, max_value=2**64 - 1),
    src=st.integers(min_value=0, max_value=2**64 - 1),
    ing=st.integers(min_value=0, max_value=2**16 - 1),
    egr=st.integers(min_value=0, max_value=2**16 - 1),
    ts=st.integers(min_value=0, max_value=2**64 - 1),
    length=st.integers(min_value=0, max_value=2**16 - 1),
)
def test_primitives_match_reference(secret, remote, src, ing, egr, ts, length):
    assert crypto.derive_drkey(secret, remote) == ref_drkey(secret, remote)
    alpha = crypto.compute_authenticator(secret, src, ing, egr)
    assert alpha == ref_authenticator(secret, src, ing, egr)
    assert crypto.compute_validation_field(alpha, ts, length) == ref_validation_field(alpha, ts, length)
    assert crypto.compute_validation_field(crypto.PreparedKey(alpha), ts, length) \
        == ref_validation_field(alpha, ts, length)


@pytest.mark.parametrize("fields", [
    (crypto.compute_authenticator, 2**64, 1, 2),
    (crypto.compute_authenticator, -1, 1, 2),
    (crypto.compute_authenticator, 1, 0x10000, 2),
    (crypto.compute_authenticator, 1, 2, -1),
    (crypto.compute_validation_field, -1, 100),
    (crypto.compute_validation_field, 2**64, 100),
    (crypto.compute_validation_field, 1, 0x10000),
], ids=["auth_src_2^64", "auth_src_negative", "auth_ingress_2^16", "auth_egress_negative",
        "vf_ts_negative", "vf_ts_2^64", "vf_length_2^16"])
def test_mac_input_out_of_range_raises(fields):
    """A field that does not fit its fixed width raises OverflowError and
    costs no MAC, whether the key is raw or prepared."""
    fn, *args = fields
    key = os.urandom(16)
    crypto.ops.reset()
    for k in (key, crypto.PreparedKey(key)):
        with pytest.raises(OverflowError):
            fn(k, *args)
    assert crypto.ops.macs == 0


def test_authenticator_independent_of_grant_terms():
    # Renewals reuse the token: nothing about bandwidth or expiry enters it.
    k = os.urandom(16)
    a1 = crypto.compute_authenticator(k, 5, 1, 2)
    nonce1, ct1, tag1 = crypto.seal_grant(k, a1, 10**9, 10**15)
    nonce2, ct2, tag2 = crypto.seal_grant(k, a1, 5 * 10**9, 2 * 10**15)
    assert crypto.unseal_grant(k, nonce1, ct1, tag1, 10**9, 10**15) == a1
    assert crypto.unseal_grant(k, nonce2, ct2, tag2, 5 * 10**9, 2 * 10**15) == a1


def test_seal_roundtrip_and_corruption():
    rng = random.Random(7)
    for _ in range(50):
        key = rng.randbytes(16)
        alpha = rng.randbytes(16)
        bw = rng.randrange(2**64)
        exp = rng.randrange(2**64)
        nonce, ct, tag = crypto.seal_grant(key, alpha, bw, exp)
        assert crypto.unseal_grant(key, nonce, ct, tag, bw, exp) == alpha

        # single-bit corruption of ciphertext, tag, or associated data fails
        bit = 1 << rng.randrange(8)
        pos = rng.randrange(16)
        bad_ct = ct[:pos] + bytes([ct[pos] ^ bit]) + ct[pos + 1 :]
        with pytest.raises(crypto.AuthFailure):
            crypto.unseal_grant(key, nonce, bad_ct, tag, bw, exp)
        bad_tag = tag[:pos] + bytes([tag[pos] ^ bit]) + tag[pos + 1 :]
        with pytest.raises(crypto.AuthFailure):
            crypto.unseal_grant(key, nonce, ct, bad_tag, bw, exp)
        with pytest.raises(crypto.AuthFailure):
            crypto.unseal_grant(key, nonce, ct, tag, bw ^ 1, exp)
        with pytest.raises(crypto.AuthFailure):
            crypto.unseal_grant(key, nonce, ct, tag, bw, exp ^ 1)


def test_seal_requires_fresh_nonce_shape():
    k = os.urandom(16)
    with pytest.raises(ValueError):
        crypto.seal_grant(k, os.urandom(16), 1, 1, nonce=b"short")
    n1, _, _ = crypto.seal_grant(k, os.urandom(16), 1, 1)
    n2, _, _ = crypto.seal_grant(k, os.urandom(16), 1, 1)
    assert len(n1) == 12 and n1 != n2


def test_request_auth_demand_fields_bind():
    k = os.urandom(16)
    base = crypto.compute_request_auth(k, 1000, True, False)
    demand = crypto.compute_request_auth(k, 1000, True, False, 5 * 10**9, 10**9)
    assert base != demand
    assert demand != crypto.compute_request_auth(k, 1000, True, False, 5 * 10**9, 10**9 + 1)
    with pytest.raises(ValueError):
        crypto.compute_request_auth(k, 1000, True, False, 5 * 10**9, None)


def test_op_counter_counts_macs():
    crypto.ops.reset()
    k = os.urandom(16)
    a = crypto.compute_authenticator(k, 1, 2, 3)
    crypto.compute_validation_field(a, 1, 2)
    assert crypto.ops.macs == 2
    crypto.derive_drkey(k, 9)
    assert crypto.ops.macs == 2  # key derivation is a PRF call, not a MAC
    assert crypto.ops.prf_calls == 1


def test_prepared_key_mac_matches_raw_key_and_reference():
    """One prepared key reused across inputs of every MAC width in use: the
    one-block validation-field and authenticator inputs, the 18-byte
    request auth and the 26-byte (two-block) demand request auth, plus
    10- and 12-byte inputs, which are zero-padded, and exactly two blocks."""
    rng = random.Random(11)
    for _ in range(20):
        key = rng.randbytes(16)
        prepared = crypto.PreparedKey(key)
        for length in (16, 10, 12, 18, 26, 16, 32, 26):
            data = rng.randbytes(length)
            assert crypto.cbc_mac(prepared, data) == crypto.cbc_mac(key, data) \
                == ref_cbc_mac(key, data)


def test_prepared_key_drkey_matches_raw_key_and_reference():
    rng = random.Random(12)
    for _ in range(20):
        secret = rng.randbytes(16)
        prepared = crypto.PreparedKey(secret)
        for remote in (0, rng.randrange(2**64), 2**64 - 1):
            assert crypto.derive_drkey(prepared, remote) == crypto.derive_drkey(secret, remote) \
                == ref_drkey(secret, remote)
        with pytest.raises(ValueError):
            crypto.derive_drkey(prepared, 2**64)


@pytest.mark.parametrize("length", [0, 15, 17, 24, 32])
def test_prepared_key_rejects_wrong_length(length):
    with pytest.raises(ValueError):
        crypto.PreparedKey(bytes(length))


def test_op_counter_counts_prepared_key_calls():
    prepared = crypto.PreparedKey(os.urandom(16))
    crypto.ops.reset()
    crypto.cbc_mac(prepared, b"x" * 26)
    assert (crypto.ops.macs, crypto.ops.prf_calls) == (1, 0)
    a = crypto.compute_authenticator(prepared, 1, 2, 3)
    crypto.compute_validation_field(a, 1, 2)
    assert (crypto.ops.macs, crypto.ops.prf_calls) == (3, 0)
    crypto.derive_drkey(prepared, 9)
    assert (crypto.ops.macs, crypto.ops.prf_calls) == (3, 1)
