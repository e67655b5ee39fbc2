"""Symmetric-key primitives for flyover reservations.

Every key is 16 bytes. The MAC is AES-128 CBC-MAC with a zero IV over
fixed-width, big-endian, zero-padded inputs; all MAC inputs fit in at most
two blocks, so fixed widths rule out length-extension issues. With a zero
IV the first CBC block is plain AES of the first input block, so the MAC
runs one AES-ECB block per input block on a single encryptor, XOR-chaining
each further block into the previous output; no CBC mode object is built
and nothing is finalized. The authenticator, validation-field and
request-auth inputs are each packed by one ``struct`` layout straight into
one zero-padded block, which is encrypted as is; only a request's demand
fields take it to two. Grants are sealed with ChaCha20-Poly1305 (IETF,
12-byte nonce), with (bw, ts_exp) as associated data packed the same way.

Building an AES context costs some six times as much as encrypting one
block on it: about 4.5 µs against 0.7 µs on a 2-core Xeon with AES-NI,
and a MAC on a built context about 1.3 µs. Every context is built straight
from the cipher backend by one constructor, :func:`_new_ecb_context`;
through the public ``Cipher`` wrapper the same context costs about
11.5 µs. A :class:`PreparedKey` holds a 16-byte key together with its ECB
encryptor, built once; :func:`cbc_mac`, :func:`derive_drkey` and the
functions built on them accept it wherever they accept raw key bytes.
Where each context is built:

- once per router secret: a border router prepares its AS-local secret, so
  the authenticator MAC and the key derivation reuse that context;
- once per stored grant at the source: a grant prepares its authenticator
  on the first packet that uses it, and a renewed grant prepares its own;
- once per admitted setup request for the router's DRKey: the derived key
  serves the request-auth MAC and the AEAD key of every grant it seals;
- once per hop per setup response at the source: the hop's DRKey serves
  the AEAD key of its forward and backward grants;
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
from cryptography.hazmat.bindings._rust import openssl as _rust_openssl
from cryptography.hazmat.primitives.ciphers import modes
from cryptography.hazmat.primitives.ciphers.algorithms import AES
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

KEY_LEN = 16
BLOCK_LEN = 16
NONCE_LEN = 12
# Length of a ChaCha20-Poly1305 tag, in bytes.
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
# Request-auth inputs, zero-padded: (tsReq, R, B), one block, and with the
# demand fields (bwDem, bwMin), two.
_REQ_AUTH_INPUT = struct.Struct(">QBB6x")
_REQ_AUTH_DEMAND_INPUT = struct.Struct(">QBBQQ6x")
# A sealed grant's associated data: (bw, ts_exp).
_GRANT_AD = struct.Struct(">QQ")


class AuthFailure(Exception):
    """A sealed grant failed tag verification (tampered or mis-keyed)."""


class OpCounter:
    """Invocation counters for crypto cost accounting in tests."""

    __slots__ = ("macs", "prf_calls")

    def __init__(self) -> None:
        self.macs = 0
        self.prf_calls = 0


ops = OpCounter()


class PreparedKey:
    """A 16-byte AES key with its ECB encryptor, built once and reused.

    ECB keeps no chaining state between calls, so the one encryptor serves
    any number of whole-block ``update`` calls. A key that seals or unseals
    grants also keeps the ChaCha20-Poly1305 context of its expanded AEAD
    key, built on first use.
    """

    __slots__ = ("encryptor", "_aead")

    def __init__(self, key: bytes):
        self.encryptor = _encryptor(key)
        self._aead = None

    def aead(self) -> ChaCha20Poly1305:
        if self._aead is None:
            # ChaCha20-Poly1305 takes a 32-byte key; expand the 16-byte key
            # with two AES blocks in counter positions 1 and 2.
            self._aead = ChaCha20Poly1305(self.encryptor.update(_AEAD_KEY_BLOCKS))
        return self._aead


def _encryptor(key: bytes | PreparedKey):
    if isinstance(key, PreparedKey):
        return key.encryptor
    if len(key) != KEY_LEN:
        raise ValueError("key must be 16 bytes")
    return _new_ecb_context(key)


def _new_ecb_context(key: bytes):
    """Build an AES-ECB encryption context for a 16-byte key.

    This is the one place an AES context is built. It calls the backend
    constructor that ``Cipher(AES(key), modes.ECB()).encryptor()`` ends in,
    without the checks the public wrapper makes first, each of which holds
    here by construction:

    - the algorithm is a ``CipherAlgorithm`` and the mode a ``Mode``: the
      algorithm is always an ``AES`` object and the mode the shared
      ``modes.ECB()`` constant;
    - ECB's ``validate_for_algorithm`` (the AES key length): ``_encryptor``
      rejects every key that is not 16 bytes before calling this, and
      ``AES(key)`` still runs its own key-size check;
    - the authentication-tag check: it applies only to AEAD modes, not ECB.

    Those checks cost about 7 µs per context, half again as much as the
    4.5 µs backend call, and the router builds one context per validated
    hop for its recomputed authenticator. The backend constructor is a
    private binding of ``cryptography``, so ``pyproject.toml`` requires the
    release whose ``Cipher.encryptor`` was checked to end in it (48).
    """
    return _rust_openssl.ciphers.create_encryption_ctx(AES(key), _ECB)


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
    expiry, so renewals never change it. A backward flyover's token takes
    the reversed pair that ``wire.directed_pair`` gives.
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
    drkey: bytes | PreparedKey,
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
    if (bw_demand is None) != (bw_min is None):
        raise ValueError("demand fields must be given together")
    try:
        if bw_demand is None:
            msg = _REQ_AUTH_INPUT.pack(ts_req, flag_r, flag_b)
        else:
            msg = _REQ_AUTH_DEMAND_INPUT.pack(ts_req, flag_r, flag_b, bw_demand, bw_min)
    except struct.error as exc:
        raise OverflowError(f"request-auth input out of range: {exc}") from exc
    return cbc_mac(drkey, msg)


def _aead(drkey: bytes | PreparedKey) -> ChaCha20Poly1305:
    if not isinstance(drkey, PreparedKey):
        drkey = PreparedKey(drkey)
    return drkey.aead()


def _grant_ad(bw: int, ts_exp: int) -> bytes:
    try:
        return _GRANT_AD.pack(bw, ts_exp)
    except struct.error as exc:
        raise OverflowError(f"grant terms out of range: {exc}") from exc


def seal_grant(
    drkey: bytes | PreparedKey, auth: bytes, bw: int, ts_exp: int, nonce: bytes | None = None
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
    sealed = _aead(drkey).encrypt(nonce, auth, _grant_ad(bw, ts_exp))
    return nonce, sealed[:BLOCK_LEN], sealed[BLOCK_LEN:]


def unseal_grant(
    drkey: bytes | PreparedKey, nonce: bytes, ciphertext: bytes, tag: bytes, bw: int, ts_exp: int
) -> bytes:
    """Invert :func:`seal_grant`; raises :class:`AuthFailure` on any tampering."""
    try:
        return _aead(drkey).decrypt(nonce, ciphertext + tag, _grant_ad(bw, ts_exp))
    except InvalidTag as exc:
        raise AuthFailure("grant tag verification failed") from exc
