"""Small shared helpers: address coercion/formatting and bit math.

The packet headers store addresses as plain integers for fast packing; these
helpers convert between human-readable notations and the integer forms, and
provide the handful of bit-twiddling utilities used across the toolkit.
:func:`export_table` is what every package ``__init__`` is built from,
:class:`Report` what every report builder returns.
"""

from __future__ import annotations

import re
import sys
from collections import namedtuple
from collections.abc import Mapping
from functools import lru_cache
from importlib import import_module

from .errors import ConfigError


class Report(
    namedtuple("Report", "title headers rows extra text ok", defaults=(None, None, True))
):
    """What a report builder returns and the CLI renders (``cli._emit``).

    ``title`` / ``headers`` / ``rows`` / ``extra`` (a dict, ``None`` for
    no extras) are the ``flexsfp.table/1`` document ``--json`` prints.
    ``text`` is the text form when it is more than that one table: blocks
    in print order, each a line (``str``) or a ``(headers, rows)`` table.
    ``ok`` is the verdict behind exit code 0 / 1.  The builder owns the numbers, the CLI only
    prints them, so a table has one definition whoever asks for it.
    """

    __slots__ = ()


def export_table(package: str, table: dict[str, tuple[str, ...]]):
    """``(__all__, __getattr__, __dir__)`` of a package that only re-exports.

    ``table`` maps each submodule to the names it contributes to the
    package namespace; a submodule listed under its own name is exported
    as the module.  Importing the package imports none of them: the
    PEP 562 ``__getattr__`` imports the one submodule that defines a name
    on first use and binds the value in the package namespace, so it never
    runs for that name again.
    """
    origin = {name: sub for sub, names in table.items() for name in names}

    def __getattr__(name: str):
        sub = origin.get(name)
        if sub is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = import_module(f"{package}.{sub}")
        value = module if name == sub else getattr(module, name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(origin.keys() | vars(sys.modules[package]).keys())

    return sorted(origin), __getattr__, __dir__


_MAC_RE = re.compile(r"^([0-9a-fA-F]{2}[:\-]){5}[0-9a-fA-F]{2}$")


@lru_cache(maxsize=1024)
def mac_to_int(mac: str | int) -> int:
    """Coerce a MAC address (``aa:bb:cc:dd:ee:ff`` or int) to a 48-bit int."""
    if isinstance(mac, int):
        if not 0 <= mac < (1 << 48):
            raise ConfigError(f"MAC integer out of range: {mac:#x}")
        return mac
    if not _MAC_RE.match(mac):
        raise ConfigError(f"invalid MAC address: {mac!r}")
    return int(mac.replace("-", ":").replace(":", ""), 16)


def int_to_mac(value: int) -> str:
    """Format a 48-bit integer as ``aa:bb:cc:dd:ee:ff``."""
    if not 0 <= value < (1 << 48):
        raise ConfigError(f"MAC integer out of range: {value:#x}")
    raw = value.to_bytes(6, "big")
    return ":".join(f"{b:02x}" for b in raw)


@lru_cache(maxsize=1024)
def ip_to_int(ip: str | int) -> int:
    """Coerce an IPv4 address (dotted quad or int) to a 32-bit int."""
    if isinstance(ip, int):
        if not 0 <= ip < (1 << 32):
            raise ConfigError(f"IPv4 integer out of range: {ip:#x}")
        return ip
    parts = ip.split(".")
    if len(parts) != 4:
        raise ConfigError(f"invalid IPv4 address: {ip!r}")
    value = 0
    for part in parts:
        if not part.isdigit():
            raise ConfigError(f"invalid IPv4 address: {ip!r}")
        octet = int(part)
        if octet > 255:
            raise ConfigError(f"invalid IPv4 address: {ip!r}")
        value = (value << 8) | octet
    return value


def int_to_ip(value: int) -> str:
    """Format a 32-bit integer as a dotted quad."""
    if not 0 <= value < (1 << 32):
        raise ConfigError(f"IPv4 integer out of range: {value:#x}")
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def ip6_to_int(ip: str | int) -> int:
    """Coerce an IPv6 address (RFC 4291 text or int) to a 128-bit int."""
    if isinstance(ip, int):
        if not 0 <= ip < (1 << 128):
            raise ConfigError(f"IPv6 integer out of range: {ip:#x}")
        return ip
    import ipaddress

    try:
        return int(ipaddress.IPv6Address(ip))
    except ValueError as exc:
        raise ConfigError(f"invalid IPv6 address: {ip!r}") from exc


def int_to_ip6(value: int) -> str:
    """Format a 128-bit integer in canonical RFC 5952 IPv6 notation."""
    import ipaddress

    if not 0 <= value < (1 << 128):
        raise ConfigError(f"IPv6 integer out of range: {value:#x}")
    return str(ipaddress.IPv6Address(value))


def check_range(name: str, value: int, bits: int) -> int:
    """Validate that ``value`` fits in an unsigned ``bits``-wide field."""
    if not 0 <= value < (1 << bits):
        raise ConfigError(f"{name} out of range for {bits}-bit field: {value}")
    return value


def typed(value, kind, where: str):
    """``value`` if it is a ``kind`` (a bool only where ``kind`` names
    ``bool``), else a :class:`ConfigError` naming ``where``."""
    kinds = kind if isinstance(kind, tuple) else (kind,)
    if not isinstance(value, kinds) or (
        isinstance(value, bool) and bool not in kinds
    ):
        names = " or ".join(k.__name__ for k in kinds)
        raise ConfigError(
            f"{where} must be {names}, got {type(value).__name__}: {value!r}"
        )
    return value


def checked_fields(payload: object, types: dict, where: str) -> dict:
    """``payload`` as a dict whose every key is in ``types`` and typed per it:
    a misspelt or retired field must not load as if left at its default."""
    data = dict(typed(payload, Mapping, where))
    unknown = sorted(set(data) - set(types))
    if unknown:
        raise ConfigError(f"unknown {where} field(s): {unknown}")
    for name, value in data.items():
        typed(value, types[name], f"{where} field {name!r}")
    return data


def ceil_div(numerator: int, denominator: int) -> int:
    """Integer ceiling division (used pervasively by resource models)."""
    if denominator <= 0:
        raise ConfigError("denominator must be positive")
    return -(-numerator // denominator)


def clamp(value: float, low: float, high: float) -> float:
    """Clamp ``value`` into ``[low, high]``."""
    return max(low, min(high, value))


def write_text_atomic(path, text: str) -> None:
    """Write ``text`` to ``path`` via a same-directory temp file + rename.

    A reader (or a run killed mid-write) never observes a truncated
    document: the content lands under a temporary name, is flushed and
    fsynced, and only then renamed over the target — ``os.replace`` is
    atomic on POSIX and Windows alike.
    """
    import os
    import tempfile
    from pathlib import Path

    target = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=target.parent, prefix=target.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
