"""Wire codec: layout arithmetic, roundtrips, malformed input, golden bytes."""

import itertools
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flyover import wire
from flyover.admission import Grant
from oracles import ref_decode

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def _vf(b: int) -> bytes:
    return bytes([b & 0xFF, (b >> 8) & 0xFF, (b >> 16) & 0xFF])


def test_the_crypto_fields_take_their_widths_from_crypto():
    """Every crypto field's width in the layouts and the encoder's size
    checks is crypto's: with other widths there, wire's entries follow."""
    code = ("from flyover import crypto\n"
            "crypto.BLOCK_LEN, crypto.NONCE_LEN, crypto.TAG_LEN = 20, 13, 17\n"
            "crypto.VALIDATION_FIELD_LEN = 5\n"
            "from flyover import wire\n"
            "req = wire.SetupRequest(1, 2, (wire.ReqEntry(0, True, False, bytes(20)),))\n"
            "pkt = wire.DataPacket(1, False, 2, 0, ((0, bytes(5)),))\n"
            "print(len(wire.encode(req)), wire.RESP_ENTRY_LEN, len(wire.encode(pkt)))")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.abspath(src), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.stdout.split() == [str(18 + 2 + 20), str(2 + 13 + 20 + 17 + 16),
                                  str(wire.DATA_FIXED_HEADER + 1 + 5)], out.stderr


def test_data_header_arithmetic():
    # 5 forward fields, no backward: 1+8+1+8+2+1+1 + 5*4 = 42 header bytes
    pkt = wire.DataPacket(
        src=1, d_flag=False, ts_pkt=0, len_b=0,
        rvfs=tuple((h, _vf(h)) for h in range(5)),
        payload=b"x" * 1000,
    )
    assert wire.data_packet_len(5) == 42
    assert pkt.total_len == 1042
    assert len(wire.encode(pkt)) == 1042


def test_data_header_formula_with_backward():
    for n_f in (0, 1, 3, 7):
        for n_b in (0, 1, 2):
            pkt = wire.DataPacket(
                src=2, d_flag=False, ts_pkt=5, len_b=100,
                rvfs=tuple((h, _vf(h)) for h in range(n_f)),
                bvfs=tuple((h, _vf(h + 50)) for h in range(n_b)),
                payload=b"p" * 33,
            )
            assert len(wire.encode(pkt)) == 22 + 4 * n_f + 4 * n_b + 33


def _assert_same(decoded, msg):
    """``decoded`` is ``msg``: records compare as tuples, so ``==`` alone would
    pass a plain tuple, another record class or 1 for True; ``repr`` names the
    classes and shows the bools, and the hash follows the fields."""
    assert decoded == msg
    assert repr(decoded) == repr(msg)
    assert hash(decoded) == hash(msg)


def test_empty_field_lists_are_valid():
    pkt = wire.DataPacket(src=3, d_flag=False, ts_pkt=1, len_b=0, payload=b"best effort")
    _assert_same(wire.decode(wire.encode(pkt)), pkt)


@pytest.mark.parametrize("record", [
    wire.ReqEntry(1, True, False, bytes(16)),
    wire.SetupRequest(1, 2, (wire.ReqEntry(1, True, False, bytes(16)),)),
    wire.RespEntry(1, wire.FORWARD, bytes(12), bytes(16), bytes(16), 5, 6),
    wire.SetupResponse(1, 2),
    wire.DataPacket(1, False, 2, 0, ((1, bytes(3)),)),
    Grant(5, 6, tentative=True),
], ids=lambda r: type(r).__name__)
def test_records_are_immutable(record):
    for name, value in zip(record._fields, record):
        with pytest.raises(AttributeError):
            setattr(record, name, value)


def _random_request(rng: random.Random) -> wire.SetupRequest:
    hops = sorted(rng.sample(range(256), rng.randint(0, 8)))
    entries = tuple(
        wire.ReqEntry(h, rng.random() < 0.7, rng.random() < 0.4, rng.randbytes(16)) for h in hops
    )
    if rng.random() < 0.25:
        return wire.SetupRequest(
            rng.randrange(2**64), rng.randrange(2**64), entries,
            rng.randrange(2**64), rng.randrange(2**64),
        )
    return wire.SetupRequest(rng.randrange(2**64), rng.randrange(2**64), entries)


def _random_response(rng: random.Random) -> wire.SetupResponse:
    keys = sorted({(rng.randrange(12), rng.randrange(2)) for _ in range(rng.randint(0, 6))})
    entries = tuple(
        wire.RespEntry(h, d, rng.randbytes(12), rng.randbytes(16), rng.randbytes(16),
                       rng.randrange(2**64), rng.randrange(2**64))
        for h, d in keys
    )
    return wire.SetupResponse(rng.randrange(2**64), rng.randrange(2**64), entries)


def _random_data(rng: random.Random) -> wire.DataPacket:
    f_hops = sorted(rng.sample(range(256), rng.randint(0, 6)))
    b_hops = sorted(rng.sample(range(256), rng.randint(0, 4)))
    return wire.DataPacket(
        rng.randrange(2**64), rng.random() < 0.5, rng.randrange(2**64), rng.randrange(2**16),
        tuple((h, rng.randbytes(3)) for h in f_hops),
        tuple((h, rng.randbytes(3)) for h in b_hops),
        rng.randbytes(rng.randint(0, 2000)),
    )


def test_roundtrip_random_messages():
    rng = random.Random(1234)
    for i in range(10_000):
        kind = i % 3
        msg = (_random_request, _random_response, _random_data)[kind](rng)
        _assert_same(wire.decode(wire.encode(msg)), msg)


@pytest.mark.parametrize("demand", [None, (2**64 - 1, 1)], ids=["plain", "demand"])
def test_request_roundtrip_over_every_flag_combination(demand):
    """Three entries, each with flags 0-3: 64 requests, with and without the
    demand fields; the decoded flags are bools, as ``repr`` shows."""
    bw_demand, bw_min = demand or (None, None)
    for flags in itertools.product(range(4), repeat=3):
        entries = tuple(wire.ReqEntry(h, f & 1 == 1, f & 2 == 2, bytes([h]) * 16)
                        for h, f in zip((0, 5, 255), flags))
        msg = wire.SetupRequest(7, 2**64 - 1, entries, bw_demand, bw_min)
        _assert_same(wire.decode(wire.encode(msg)), msg)
        _assert_same(ref_decode(wire.encode(msg)), msg)


def test_response_roundtrip_over_every_direction_combination():
    """Every subset of forward and backward entries at hops 0, 1 and 255."""
    keys = [(h, d) for h in (0, 1, 255) for d in (wire.FORWARD, wire.BACKWARD)]
    for mask in range(1 << len(keys)):
        entries = tuple(wire.RespEntry(h, d, bytes([h]) * 12, bytes([d]) * 16, bytes(16),
                                       2**64 - 1 - h, h)
                        for i, (h, d) in enumerate(keys) if mask >> i & 1)
        msg = wire.SetupResponse(7, 8, entries)
        _assert_same(wire.decode(wire.encode(msg)), msg)
        _assert_same(ref_decode(wire.encode(msg)), msg)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       kind=st.sampled_from([_random_request, _random_response, _random_data]))
def test_total_len_is_the_encoded_size(seed, kind):
    msg = kind(random.Random(seed))
    assert len(wire.encode(msg)) == msg.total_len


@settings(max_examples=300, deadline=None)
@given(data=st.binary(max_size=200))
def test_decode_never_crashes(data):
    try:
        msg = wire.decode(data)
    except wire.DecodeError:
        return
    assert wire.encode(msg) == data  # decode is a right-inverse of encode


def test_decode_empty_is_truncated():
    with pytest.raises(wire.DecodeError) as e:
        wire.decode(b"")
    assert e.value.reason == "truncated"


def test_decode_bad_magic():
    with pytest.raises(wire.DecodeError) as e:
        wire.decode(b"\x7f" + b"\x00" * 40)
    assert e.value.reason == "bad_magic"


def test_decode_count_exceeds_bytes():
    pkt = wire.DataPacket(src=1, d_flag=False, ts_pkt=0, len_b=0,
                          rvfs=tuple((h, _vf(h)) for h in range(3)))
    raw = bytearray(wire.encode(pkt))
    raw[20] = 10  # claim 10 forward fields, bytes only carry 3
    with pytest.raises(wire.DecodeError) as e:
        wire.decode(bytes(raw))
    assert e.value.reason == "truncated"


def test_decode_rejects_trailing_garbage_on_setup():
    req = wire.SetupRequest(5, 6, (wire.ReqEntry(1, True, False, bytes(16)),))
    with pytest.raises(wire.DecodeError) as e:
        wire.decode(wire.encode(req) + b"z")
    assert e.value.reason == "bad_counts"


def test_decode_rejects_unsorted_hops():
    req = wire.SetupRequest(5, 6, (wire.ReqEntry(1, True, False, bytes(16)),
                                   wire.ReqEntry(3, True, False, bytes(16))))
    raw = bytearray(wire.encode(req))
    raw[18], raw[36] = raw[36], raw[18]  # swap the two hop bytes
    with pytest.raises(wire.DecodeError) as e:
        wire.decode(bytes(raw))
    assert e.value.reason == "bad_counts"


def _resp_entry(hop=0, bw=0, ts_exp=0):
    return wire.RespEntry(hop, wire.FORWARD, bytes(12), bytes(16), bytes(16), bw, ts_exp)


def _req_entry(hop):
    return wire.ReqEntry(hop, True, False, bytes(16))


# each u64 field of each message, built with a given value
_U64_FIELDS = {
    "request src": lambda v: wire.SetupRequest(v, 0, ()),
    "request ts": lambda v: wire.SetupRequest(0, v, ()),
    "demand bw_demand": lambda v: wire.SetupRequest(0, 0, (), v, 0),
    "demand bw_min": lambda v: wire.SetupRequest(0, 0, (), 0, v),
    "response src": lambda v: wire.SetupResponse(v, 0),
    "response ts": lambda v: wire.SetupResponse(0, v),
    "response bw": lambda v: wire.SetupResponse(0, 0, (_resp_entry(bw=v),)),
    "response ts_exp": lambda v: wire.SetupResponse(0, 0, (_resp_entry(ts_exp=v),)),
    "data src": lambda v: wire.DataPacket(v, False, 0, 0),
    "data ts": lambda v: wire.DataPacket(0, False, v, 0),
}


def test_encode_rejects_invariant_violations():
    with pytest.raises(wire.EncodeError):
        wire.encode(wire.SetupRequest(1, 2, (_req_entry(3), _req_entry(1))))
    with pytest.raises(wire.EncodeError):
        wire.encode(wire.DataPacket(1, False, 0, 0, payload=b"x" * 66_000))
    with pytest.raises(wire.EncodeError):
        wire.encode(wire.DataPacket(1, False, 0, 0, rvfs=((1, b"toolong"),)))
    with pytest.raises(wire.EncodeError):
        wire.encode(wire.SetupRequest(2**64, 0, ()))
    for build in _U64_FIELDS.values():
        for bad in (-1, 2**64):
            with pytest.raises(wire.EncodeError):
                wire.encode(build(bad))
            wire.encode(build(bad % 2**64))  # the range's two ends encode
    for bad in (-1, 2**16):  # u16 len_b
        with pytest.raises(wire.EncodeError):
            wire.encode(wire.DataPacket(1, False, 0, bad))
    for bad in (-1, 256):  # u8 hop in every hop list
        for msg in (wire.SetupRequest(1, 2, (_req_entry(bad),)),
                    wire.SetupResponse(1, 2, (_resp_entry(hop=bad),)),
                    wire.DataPacket(1, False, 0, 0, rvfs=((bad, bytes(3)),)),
                    wire.DataPacket(1, False, 0, 0, bvfs=((bad, bytes(3)),))):
            with pytest.raises(wire.EncodeError):
                wire.encode(msg)
    # 256 entries in strictly rising hop order overflow the u8 count
    for msg in (wire.SetupRequest(1, 2, tuple(_req_entry(h) for h in range(256))),
                wire.SetupResponse(1, 2, tuple(_resp_entry(hop=h) for h in range(256))),
                wire.DataPacket(1, False, 0, 0, rvfs=tuple((h, bytes(3)) for h in range(256)))):
        with pytest.raises(wire.EncodeError):
            wire.encode(msg)
    with pytest.raises(wire.EncodeError, match="SetupRequest"):  # an integer field as a float
        wire.encode(wire.SetupRequest(1.0, 2, ()))
    vf = bytes(3)
    for msg, message in [
            (object(), "cannot encode object"),
            (wire.SetupRequest(1, 2, (), 5, None), "demand fields must be given together"),
            (wire.SetupRequest(1, 2, (), None, 5), "demand fields must be given together"),
            (wire.SetupRequest(1, 2, (wire.ReqEntry(1, True, False, bytes(15)),)),
             "request auth must be 16 bytes"),
            (wire.SetupResponse(1, 2, (_resp_entry(hop=3), _resp_entry(hop=1))),
             "response entries must rise strictly"),
            (wire.SetupResponse(1, 2, (_resp_entry(), _resp_entry())),
             "response entries must rise strictly"),
            (wire.SetupResponse(1, 2, (_resp_entry()._replace(direction=2),)),
             "bad response direction"),
            (wire.SetupResponse(1, 2, (_resp_entry()._replace(nonce=bytes(11)),)),
             "bad response entry field size"),
            (wire.SetupResponse(1, 2, (_resp_entry()._replace(enc_auth=bytes(17)),)),
             "bad response entry field size"),
            (wire.SetupResponse(1, 2, (_resp_entry()._replace(tag=bytes(15)),)),
             "bad response entry field size"),
            (wire.DataPacket(1, False, 0, 0, rvfs=((3, vf), (1, vf))), "rvf entries must rise"),
            (wire.DataPacket(1, False, 0, 0, bvfs=((2, vf), (2, vf))), "bvf entries must rise")]:
        with pytest.raises(wire.EncodeError, match=message):
            wire.encode(msg)


def test_golden_fixtures():
    """Encoded bytes are pinned: any layout change breaks these."""
    with open(os.path.join(FIXTURES, "wire_golden.txt")) as fh:
        for line in fh:
            if not line.strip():
                continue
            name, hexbytes = line.split()
            raw = bytes.fromhex(hexbytes)
            msg = wire.decode(raw)
            assert wire.encode(msg) == raw, name


def test_golden_fixture_values():
    with open(os.path.join(FIXTURES, "wire_golden.txt")) as fh:
        golden = dict(line.split() for line in fh if line.strip())
    req = wire.decode(bytes.fromhex(golden["setup_req"]))
    assert (req.src, req.ts_req) == (7, 1_000_000_000)
    assert [(e.hop, e.flag_r, e.flag_b) for e in req.entries] == [(0, True, False), (2, True, True)]
    pkt = wire.decode(bytes.fromhex(golden["data_fwd"]))
    assert pkt.src == 7 and not pkt.d_flag and pkt.payload == b"hello"


def _assert_decodes_like_reference(raw: bytes) -> None:
    try:
        want = ref_decode(raw)
    except wire.DecodeError as exc:
        with pytest.raises(wire.DecodeError) as got:
            wire.decode(raw)
        assert got.value.reason == exc.reason, raw.hex()
        return
    assert wire.decode(raw) == want


@settings(max_examples=500, deadline=None)
@given(kind=st.sampled_from([wire.MSG_SETUP_REQ, wire.MSG_SETUP_RESP, wire.MSG_DATA,
                             wire.MSG_SETUP_REQ_DEMAND, 0x00, 0x7F]),
       body=st.binary(max_size=300))
def test_decode_matches_reference_on_random_bytes(kind, body):
    _assert_decodes_like_reference(bytes([kind]) + body)


@settings(max_examples=500, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), data=st.data())
def test_decode_matches_reference_on_damaged_messages(seed, data):
    """Valid encodings cut short, overwritten at a few bytes, or extended."""
    rng = random.Random(seed)
    raw = bytearray(wire.encode((_random_request, _random_response, _random_data)[seed % 3](rng)))
    raw = raw[: data.draw(st.integers(min_value=0, max_value=len(raw)))]
    for _ in range(data.draw(st.integers(min_value=0, max_value=3))):
        if raw:
            raw[data.draw(st.integers(min_value=0, max_value=len(raw) - 1))] = \
                data.draw(st.integers(min_value=0, max_value=255))
    raw += data.draw(st.binary(max_size=70))
    _assert_decodes_like_reference(bytes(raw))


def test_decode_matches_reference_on_golden_frames():
    """Every golden frame, every prefix of it, and every single-byte change."""
    with open(os.path.join(FIXTURES, "wire_golden.txt")) as fh:
        frames = [bytes.fromhex(line.split()[1]) for line in fh if line.strip()]
    for raw in frames:
        _assert_decodes_like_reference(raw)
        for cut in range(len(raw)):
            _assert_decodes_like_reference(raw[:cut])
        for pos in range(len(raw)):
            for value in (0x00, 0x02, 0x04, 0xFF, raw[pos] ^ 0x01):
                _assert_decodes_like_reference(raw[:pos] + bytes([value]) + raw[pos + 1 :])


def test_data_flag_byte_precedes_truncation():
    """A bad data-flag byte wins over a header that stops short of 22 bytes."""
    raw = wire.encode(wire.DataPacket(7, False, 5, 0))
    bad = raw[:9] + b"\x02" + raw[10:]
    for cut in range(10, wire.DATA_FIXED_HEADER):
        with pytest.raises(wire.DecodeError) as e:
            wire.decode(bad[:cut])
        assert e.value.reason == "bad_counts"
    with pytest.raises(wire.DecodeError) as e:
        wire.decode(bad[:9])
    assert e.value.reason == "truncated"
