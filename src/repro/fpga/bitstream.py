"""Bitstream artifacts: the output of the build flow and the unit of
over-the-network reprogramming.

A :class:`Bitstream` bundles the synthesized design's identity (app name,
shell, target device), its resource/timing report, and an opaque
configuration payload.  Integrity is a CRC-32; authenticity for remote
reconfiguration (§4.2: "the control plane authenticates reconfiguration
packets whose payload carries a new bitstream") is an HMAC-SHA256 over the
canonical serialization.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import zlib
from dataclasses import dataclass, field

from ..errors import BitstreamError, TimingError
from .resources import ResourceVector
from .timing import TimingSpec

MAGIC = b"FSFP"
FORMAT_VERSION = 1
_RESOURCE_FIELDS = frozenset(ResourceVector().as_dict())
_MISSING = object()


def _field(header: dict, name: str, kind, where: str = "", default=_MISSING):
    """``header[name]`` if it is a ``kind`` (never a bool), else a
    :class:`BitstreamError` naming the field."""
    value = header.get(name, default)
    if value is _MISSING:
        raise BitstreamError(f"bitstream field '{where}{name}' is missing")
    if isinstance(value, bool) or not isinstance(value, kind):
        raise BitstreamError(
            f"bitstream field '{where}{name}' has the wrong type: {value!r}"
        )
    return value


@dataclass
class Bitstream:
    """A built FPGA configuration image."""

    app_name: str
    shell: str
    device: str
    timing: TimingSpec
    resources: ResourceVector
    payload: bytes
    version: int = 1
    metadata: dict = field(default_factory=dict)

    @property
    def size_bits(self) -> int:
        return len(self.to_bytes()) * 8

    def _canonical(self) -> bytes:
        """Deterministic byte form of everything except the MAC."""
        header = {
            "app_name": self.app_name,
            "shell": self.shell,
            "device": self.device,
            "datapath_bits": self.timing.datapath_bits,
            "clock_hz": self.timing.clock_hz,
            "resources": self.resources.as_dict(),
            "version": self.version,
            "metadata": self.metadata,
            "format": FORMAT_VERSION,
        }
        head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        return (
            MAGIC
            + len(head).to_bytes(4, "big")
            + head
            + len(self.payload).to_bytes(4, "big")
            + self.payload
        )

    def to_bytes(self) -> bytes:
        """Serialize with a trailing CRC-32."""
        body = self._canonical()
        return body + zlib.crc32(body).to_bytes(4, "big")

    @staticmethod
    def crc_ok(data: bytes) -> bool:
        """Cheap integrity probe: does ``data`` carry a valid image CRC?

        This is the check the boot FSM runs before committing the fabric
        to an image — a corrupt slot is detected here, without attempting
        a full parse.
        """
        if len(data) < 12 or data[:4] != MAGIC:
            return False
        return zlib.crc32(data[:-4]) == int.from_bytes(data[-4:], "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "Bitstream":
        """Parse and CRC-check a serialized bitstream."""
        if len(data) < 12 or data[:4] != MAGIC:
            raise BitstreamError("not a FlexSFP bitstream (bad magic)")
        body, crc = data[:-4], int.from_bytes(data[-4:], "big")
        if zlib.crc32(body) != crc:
            raise BitstreamError("bitstream CRC mismatch")
        head_len = int.from_bytes(data[4:8], "big")
        head_end = 8 + head_len
        try:
            header = json.loads(body[8:head_end])
        except ValueError as exc:
            raise BitstreamError("corrupt bitstream header") from exc
        payload_len = int.from_bytes(body[head_end : head_end + 4], "big")
        payload = bytes(body[head_end + 4 : head_end + 4 + payload_len])
        if head_end + 4 > len(body) or len(payload) != payload_len:
            raise BitstreamError("truncated bitstream payload")
        if not isinstance(header, dict):
            raise BitstreamError("bitstream header must be a JSON object")
        if header.get("format") != FORMAT_VERSION:
            raise BitstreamError(f"unsupported format {header.get('format')}")
        res = _field(header, "resources", dict)
        for name in res:
            if name not in _RESOURCE_FIELDS:
                raise BitstreamError(f"bitstream field 'resources.{name}' is unknown")
            _field(res, name, int, where="resources.")
        bits = _field(header, "datapath_bits", int)
        clock = _field(header, "clock_hz", (int, float))
        try:
            timing = TimingSpec(bits, clock)
        except TimingError as exc:
            raise BitstreamError(
                f"bitstream fields 'datapath_bits'={bits!r}, 'clock_hz'={clock!r}: {exc}"
            ) from exc
        return cls(
            app_name=_field(header, "app_name", str),
            shell=_field(header, "shell", str),
            device=_field(header, "device", str),
            timing=timing,
            resources=ResourceVector(**res),
            payload=payload,
            version=_field(header, "version", int),
            metadata=_field(header, "metadata", dict, default={}),
        )

    # ------------------------------------------------------------------
    # Authenticity for over-the-network deployment
    # ------------------------------------------------------------------
    def sign(self, key: bytes) -> bytes:
        """HMAC-SHA256 over the canonical serialization."""
        return hmac.new(key, self._canonical(), hashlib.sha256).digest()

    def verify(self, key: bytes, signature: bytes) -> bool:
        """Constant-time signature check."""
        return hmac.compare_digest(self.sign(key), signature)


def synthesize_payload(app_name: str, resources: ResourceVector, size_kib: int = 64) -> bytes:
    """Deterministic stand-in for the real configuration payload.

    Real PolarFire bitstreams are a few MiB of opaque configuration data;
    the stand-in promises what the flash, UPLOAD and boot paths rely on:

    * **length** -- exactly ``size_kib`` KiB, so transfers move realistic
      volumes;
    * **determinism** -- the same design always yields the same bytes;
    * **design identity** -- the bytes derive from the app name and its
      resources, so two designs never share an image (they already
      differ in the first KiB).

    One 1 KiB SHAKE-256 block seeded by that identity is repeated to the
    full length.  Integrity does not rest on the payload's content: the
    image's CRC-32 and HMAC cover every byte, so a flipped bit in any
    repetition fails :meth:`Bitstream.crc_ok` and the signature.
    """
    if size_kib <= 0:
        raise BitstreamError("payload size must be positive")
    seed = hashlib.sha256(
        f"{app_name}:{resources.as_dict()}".encode()
    ).digest()
    return hashlib.shake_256(seed).digest(1024) * size_kib
