"""Symmetric-key primitives for flyover reservations.

Every key is 16 bytes. The MAC is AES-128 CBC-MAC with a zero IV over
fixed-width, big-endian, zero-padded inputs; all MAC inputs fit in at most
two blocks, so fixed widths rule out length-extension issues. With a zero
IV the first CBC block is plain AES of the first input block, so the MAC
runs one AES-ECB block per input block on a single encryptor, XOR-chaining
each further block into the previous output; no CBC mode object is built
and nothing is finalized. The authenticator and validation-field inputs
are packed straight into one zero-padded block, which is encrypted as is.
Grants are sealed with ChaCha20-Poly1305 (IETF, 12-byte nonce).

Building an AES context costs some twenty times as much as encrypting one
block on it. A :class:`PreparedKey` holds a 16-byte key together with its
ECB encryptor, built once; :func:`cbc_mac`, :func:`derive_drkey` and the
functions built on them accept it wherever they accept raw key bytes. Where
each context is built:

- once per router secret: a border router prepares its AS-local secret, so
  the authenticator MAC and the key derivation reuse that context;
- once per stored grant at the source: a grant prepares its authenticator
  on the first packet that uses it and keeps it across renewals that
  return the same authenticator;
- once per packet for the router's recomputed authenticator (alpha), which
  keys the validation-field MAC: routers keep no per-grant state, so that
  raw key gets one fresh ECB context per call.

All functions here are pure; they keep no state besides the invocation
counters used by cost-accounting tests, which count every call whatever
form its key takes.
"""

from __future__ import annotations

import os
import struct

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers import Cipher, modes
from cryptography.hazmat.primitives.ciphers.algorithms import AES
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

KEY_LEN = 16
BLOCK_LEN = 16
NONCE_LEN = 12
TAG_LEN = 16
# Truncation length of validation fields, in bytes.
VALIDATION_FIELD_LEN = 3

# ECB mode objects hold no state, so one instance serves every context.
_ECB = modes.ECB()
# Counter blocks 1 and 2, which expand a 16-byte key to a 32-byte AEAD key.
_AEAD_KEY_BLOCKS = (1).to_bytes(BLOCK_LEN, "big") + (2).to_bytes(BLOCK_LEN, "big")
# One-block MAC inputs, zero-padded: (source AS, ingress, egress) for the
# authenticator, (packet timestamp, length) for the validation field.
_AUTH_INPUT = struct.Struct(">QHH4x")
_FIELD_INPUT = struct.Struct(">QH6x")


class AuthFailure(Exception):
    """A sealed grant failed tag verification (tampered or mis-keyed)."""


class OpCounter:
    """Invocation counters for crypto cost accounting in tests."""

    __slots__ = ("macs", "prf_calls")

    def __init__(self) -> None:
        self.macs = 0
        self.prf_calls = 0

    def reset(self) -> None:
        self.macs = 0
        self.prf_calls = 0


ops = OpCounter()


class PreparedKey:
    """A 16-byte AES key with its ECB encryptor, built once and reused.

    ECB keeps no chaining state between calls, so the one encryptor serves
    any number of whole-block ``update`` calls.
    """

    __slots__ = ("encryptor",)

    def __init__(self, key: bytes):
        self.encryptor = _encryptor(key)


def _encryptor(key: bytes | PreparedKey):
    if isinstance(key, PreparedKey):
        return key.encryptor
    if len(key) != KEY_LEN:
        raise ValueError("key must be 16 bytes")
    return Cipher(AES(key), _ECB).encryptor()


def cbc_mac(key: bytes | PreparedKey, data: bytes) -> bytes:
    """AES-128 CBC-MAC (zero IV) over ``data`` zero-padded to a block multiple."""
    enc = _encryptor(key)
    ops.macs += 1
    if len(data) == BLOCK_LEN:
        return enc.update(data)
    if len(data) % BLOCK_LEN:
        data = data + b"\x00" * (BLOCK_LEN - len(data) % BLOCK_LEN)
    block = enc.update(data[:BLOCK_LEN])
    for i in range(BLOCK_LEN, len(data), BLOCK_LEN):
        chained = int.from_bytes(block, "big") ^ int.from_bytes(data[i : i + BLOCK_LEN], "big")
        block = enc.update(chained.to_bytes(BLOCK_LEN, "big"))
    return block


def derive_drkey(secret: bytes | PreparedKey, remote_as: int) -> bytes:
    """Derive the per-remote-AS key: AES-128 of the zero-padded 64-bit AS id.

    Deterministic, so border routers can recompute the key on the fly from
    the AS-local secret instead of storing per-peer state.
    """
    enc = _encryptor(secret)
    if not 0 <= remote_as < 1 << 64:
        raise ValueError("AS id out of range")
    ops.prf_calls += 1
    return enc.update(remote_as.to_bytes(BLOCK_LEN, "big"))


def compute_authenticator(secret: bytes | PreparedKey, src: int, ingress: int,
                          egress: int) -> bytes:
    """Reservation authenticator for (source AS, ingress, egress).

    Keyed by the AS-local secret; independent of granted bandwidth and
    expiry, so renewals never change it. The backward-direction token is
    obtained by swapping the interface arguments.
    """
    try:
        msg = _AUTH_INPUT.pack(src, ingress, egress)
    except struct.error as exc:
        raise OverflowError(f"authenticator input out of range: {exc}") from exc
    return cbc_mac(secret, msg)


def compute_validation_field(auth: bytes | PreparedKey, ts_pkt: int, length: int) -> bytes:
    """Per-packet validation field: truncated MAC over (timestamp, length).

    ``length`` is the total packet length for forward fields and the reply
    byte budget for backward fields.
    """
    try:
        msg = _FIELD_INPUT.pack(ts_pkt, length)
    except struct.error as exc:
        raise OverflowError(f"validation field input out of range: {exc}") from exc
    return cbc_mac(auth, msg)[:VALIDATION_FIELD_LEN]


def compute_request_auth(
    drkey: bytes,
    ts_req: int,
    flag_r: bool,
    flag_b: bool,
    bw_demand: int | None = None,
    bw_min: int | None = None,
) -> bytes:
    """Setup-request tag binding (tsReq, R, B) and, if present, the demand fields.

    The source AS id is not an input: it is already bound through the key
    derivation.
    """
    msg = ts_req.to_bytes(8, "big") + bytes([flag_r, flag_b])
    if (bw_demand is None) != (bw_min is None):
        raise ValueError("demand fields must be given together")
    if bw_demand is not None:
        msg += bw_demand.to_bytes(8, "big") + bw_min.to_bytes(8, "big")
    return cbc_mac(drkey, msg)


def _aead_key(drkey: bytes) -> bytes:
    # ChaCha20-Poly1305 takes a 32-byte key; expand the 16-byte key with two
    # AES blocks in counter positions 1 and 2.
    return _encryptor(drkey).update(_AEAD_KEY_BLOCKS)


def _grant_ad(bw: int, ts_exp: int) -> bytes:
    return bw.to_bytes(8, "big") + ts_exp.to_bytes(8, "big")


def seal_grant(
    drkey: bytes, auth: bytes, bw: int, ts_exp: int, nonce: bytes | None = None
) -> tuple[bytes, bytes, bytes]:
    """Encrypt an authenticator, binding (bw, ts_exp) as associated data.

    The nonce must be fresh per sealing because one derived key seals many
    responses over its lifetime; if none is supplied a random one is drawn.
    Returns (nonce, ciphertext, tag).
    """
    if nonce is None:
        nonce = os.urandom(NONCE_LEN)
    if len(nonce) != NONCE_LEN:
        raise ValueError("nonce must be 12 bytes")
    if len(auth) != BLOCK_LEN:
        raise ValueError("authenticator must be 16 bytes")
    sealed = ChaCha20Poly1305(_aead_key(drkey)).encrypt(nonce, auth, _grant_ad(bw, ts_exp))
    return nonce, sealed[:BLOCK_LEN], sealed[BLOCK_LEN:]


def unseal_grant(
    drkey: bytes, nonce: bytes, ciphertext: bytes, tag: bytes, bw: int, ts_exp: int
) -> bytes:
    """Invert :func:`seal_grant`; raises :class:`AuthFailure` on any tampering."""
    try:
        return ChaCha20Poly1305(_aead_key(drkey)).decrypt(
            nonce, ciphertext + tag, _grant_ad(bw, ts_exp)
        )
    except InvalidTag as exc:
        raise AuthFailure("grant tag verification failed") from exc
