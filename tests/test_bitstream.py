"""Bitstream artifacts: serialization, integrity, authenticity."""

import hashlib
import json
import zlib

import pytest

from repro.errors import BitstreamError
from repro.fpga import Bitstream, ResourceVector, TimingSpec, synthesize_payload
from repro.fpga.bitstream import MAGIC


def make_bitstream(**overrides) -> Bitstream:
    params = dict(
        app_name="nat",
        shell="one-way-filter",
        device="MPF200T",
        timing=TimingSpec(64, 156.25e6),
        resources=ResourceVector(lut4=31_579, ff=25_606, usram=278, lsram=164),
        payload=synthesize_payload("nat", ResourceVector(lut4=1), size_kib=8),
        metadata={"app_params": {"capacity": 32768}},
    )
    params.update(overrides)
    return Bitstream(**params)


class TestSerialization:
    def test_roundtrip(self):
        original = make_bitstream()
        parsed = Bitstream.from_bytes(original.to_bytes())
        assert parsed.app_name == "nat"
        assert parsed.device == "MPF200T"
        assert parsed.timing == TimingSpec(64, 156.25e6)
        assert parsed.resources == original.resources
        assert parsed.payload == original.payload
        assert parsed.metadata["app_params"]["capacity"] == 32768

    def test_crc_detects_corruption(self):
        raw = bytearray(make_bitstream().to_bytes())
        raw[100] ^= 0xFF
        with pytest.raises(BitstreamError, match="CRC"):
            Bitstream.from_bytes(bytes(raw))

    def test_bad_magic(self):
        with pytest.raises(BitstreamError, match="magic"):
            Bitstream.from_bytes(b"NOPE" + b"\x00" * 20)

    def test_truncated(self):
        raw = make_bitstream().to_bytes()
        with pytest.raises(BitstreamError):
            Bitstream.from_bytes(raw[:10])

    def test_corrupt_header_under_a_valid_crc(self):
        body = MAGIC + (9).to_bytes(4, "big") + b"{not json" + (0).to_bytes(4, "big")
        with pytest.raises(BitstreamError, match="corrupt bitstream header"):
            Bitstream.from_bytes(body + zlib.crc32(body).to_bytes(4, "big"))

    def test_crc_probe(self):
        raw = make_bitstream().to_bytes()
        assert Bitstream.crc_ok(raw)
        assert not Bitstream.crc_ok(raw[:-1] + bytes([raw[-1] ^ 1]))
        assert not Bitstream.crc_ok(b"NOPE" + raw[4:])
        assert not Bitstream.crc_ok(raw[:8])

    def test_payload_is_sliced_from_the_body_not_the_crc(self):
        # A header whose payload length reaches into the CRC trailer.
        good = make_bitstream(payload=b"\x00" * 16)
        raw = reframe(header_of(good), payload=b"\x00" * 16, claimed_len=20)
        with pytest.raises(BitstreamError, match="truncated"):
            Bitstream.from_bytes(raw)

    def test_size_bits(self):
        bitstream = make_bitstream()
        assert bitstream.size_bits == len(bitstream.to_bytes()) * 8


class TestAuthenticity:
    def test_sign_verify(self):
        bitstream = make_bitstream()
        signature = bitstream.sign(b"deploy-key")
        assert bitstream.verify(b"deploy-key", signature)

    def test_wrong_key_rejected(self):
        bitstream = make_bitstream()
        signature = bitstream.sign(b"deploy-key")
        assert not bitstream.verify(b"other-key", signature)

    def test_tampered_content_rejected(self):
        bitstream = make_bitstream()
        signature = bitstream.sign(b"deploy-key")
        tampered = make_bitstream(app_name="evil")
        assert not tampered.verify(b"deploy-key", signature)

    def test_signature_covers_payload(self):
        a = make_bitstream(payload=b"\x00" * 64)
        b = make_bitstream(payload=b"\x01" * 64)
        assert a.sign(b"k") != b.sign(b"k")


class TestSyntheticPayload:
    def test_deterministic(self):
        res = ResourceVector(lut4=5)
        assert synthesize_payload("app", res, 4) == synthesize_payload("app", res, 4)

    def test_identity_sensitive(self):
        res = ResourceVector(lut4=5)
        assert synthesize_payload("a", res, 4) != synthesize_payload("b", res, 4)

    def test_resource_sensitive(self):
        a = synthesize_payload("nat", ResourceVector(lut4=1), 4)
        assert a != synthesize_payload("nat", ResourceVector(lut4=2), 4)
        assert a != synthesize_payload("nat", ResourceVector(lut4=1, ff=1), 4)

    def test_pinned_bytes(self):
        # The generator is part of every image's identity (its CRC, HMAC and
        # flash contents): a change to it must be deliberate.
        payload = synthesize_payload("nat", ResourceVector(lut4=1), 4)
        assert hashlib.sha256(payload).hexdigest() == (
            "a187f96c16a6b9be41ba7af7be05936722f051b13f4d5c5072581ce777704f80"
        )

    def test_designs_differ_in_the_first_block(self):
        res = ResourceVector(lut4=5)
        a, b, c = (
            synthesize_payload(name, vec, 4)
            for name, vec in (("a", res), ("b", res), ("a", ResourceVector(lut4=6)))
        )
        assert a[:1024] != b[:1024]
        assert a[:1024] != c[:1024]

    @pytest.mark.parametrize("block", range(8))
    def test_a_flipped_bit_in_any_repetition_fails_the_image(self, block):
        # The payload repeats one 1 KiB block; the CRC still covers every
        # copy, so flash bit-rot in any repetition is caught at boot.
        good = make_bitstream()
        raw = good.to_bytes()
        start = raw.index(good.payload)
        assert good.payload == good.payload[:1024] * 8
        for offset in (0, 513, 1023):
            rotted = bytearray(raw)
            rotted[start + block * 1024 + offset] ^= 1 << (offset % 8)
            assert not Bitstream.crc_ok(bytes(rotted))
            with pytest.raises(BitstreamError, match="CRC"):
                Bitstream.from_bytes(bytes(rotted))

    def test_size(self):
        assert len(synthesize_payload("x", ResourceVector(), 16)) == 16 * 1024

    def test_invalid_size(self):
        with pytest.raises(BitstreamError):
            synthesize_payload("x", ResourceVector(), 0)


def header_of(bitstream: Bitstream) -> dict:
    """The JSON header ``bitstream`` serializes."""
    raw = bitstream.to_bytes()
    head_len = int.from_bytes(raw[4:8], "big")
    return json.loads(raw[8 : 8 + head_len])


def reframe(header: object, payload: bytes = b"", claimed_len: int | None = None) -> bytes:
    """An image carrying ``header`` as is, under a valid CRC."""
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    length = len(payload) if claimed_len is None else claimed_len
    body = MAGIC + len(head).to_bytes(4, "big") + head + length.to_bytes(4, "big") + payload
    return body + zlib.crc32(body).to_bytes(4, "big")


def _edit(**changes):
    def mutate(header: dict) -> object:
        for name, value in changes.items():
            if value is _DROP:
                del header[name]
            else:
                header[name] = value
        return header

    return mutate


_DROP = object()

#: name -> (header mutation, field the refusal must name).  Each image has
#: a valid CRC, so only the header's own checks stand between it and boot.
MUTANTS = {
    "header-list": (lambda header: [header], "JSON object"),
    "header-number": (lambda header: 7, "JSON object"),
    "format-2": (_edit(format=2), "format"),
    "no-resources": (_edit(resources=_DROP), "resources"),
    "resources-list": (_edit(resources=[1, 2]), "resources"),
    "unknown-resource": (_edit(resources={"lut4": 1, "dsp": 2}), "resources.dsp"),
    "resource-string": (_edit(resources={"lut4": "many"}), "resources.lut4"),
    "clock-string": (_edit(clock_hz="x"), "clock_hz"),
    "clock-nan": (_edit(clock_hz=float("nan")), "clock_hz"),
    "clock-zero": (_edit(clock_hz=0), "clock_hz"),
    "width-negative": (_edit(datapath_bits=-1), "datapath_bits"),
    "width-float": (_edit(datapath_bits=64.0), "datapath_bits"),
    "width-bool": (_edit(datapath_bits=True), "datapath_bits"),
    "no-app-name": (_edit(app_name=_DROP), "app_name"),
    "device-number": (_edit(device=200), "device"),
    "shell-null": (_edit(shell=None), "shell"),
    "version-string": (_edit(version="1"), "version"),
    "metadata-list": (_edit(metadata=[]), "metadata"),
}


def mutant_image(name: str) -> bytes:
    mutate, _field = MUTANTS[name]
    good = make_bitstream(payload=b"\x5a" * 32)
    return reframe(mutate(header_of(good)), payload=good.payload)


class TestFailsClosed:
    """A CRC-valid image with a malformed header is a typed refusal."""

    def test_the_unmutated_frame_parses(self):
        good = make_bitstream(payload=b"\x5a" * 32)
        assert reframe(header_of(good), payload=good.payload) == good.to_bytes()

    @pytest.mark.parametrize("name", sorted(MUTANTS))
    def test_mutant_raises_bitstream_error_naming_the_field(self, name):
        with pytest.raises(BitstreamError) as caught:
            Bitstream.from_bytes(mutant_image(name))
        assert MUTANTS[name][1] in str(caught.value)
