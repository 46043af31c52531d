"""Name and JSON text helpers for every module that reads input; diagnostics.

A leaf: it imports no other tvblock module and defines no class, so the
config, PSL and list loaders (and through them ``serve``) use these without
loading the traffic data model. ``traffic`` re-exports the input helpers.
"""

from __future__ import annotations

import contextlib
import ipaddress
import json
import re
import sys

KNOWN_PLATFORMS = (
    "Roku",
    "FireTV",
    "Apple",
    "Samsung",
    "Chromecast",
    "Vizio",
    "LG",
    "Sony",
)


def normalize_fqdn(raw: str) -> str:
    """Lowercase a domain name and strip surrounding space and the trailing dots.

    Space between trailing dots goes too ("a. ." gives "a"), so the result
    is idempotent for any string: normalize_fqdn(normalize_fqdn(x)) ==
    normalize_fqdn(x).
    """
    name = raw.strip()
    while name.endswith("."):
        name = name.rstrip(".").rstrip()
    return name.lower()


def is_ip_literal(value: str) -> bool:
    """True when the string is an IPv4 or IPv6 address, not a domain name.

    Every IPv4 literal ends in an ASCII digit and every IPv6 literal has a
    colon, so most domain names are answered without ``ipaddress``.
    """
    if ":" not in value and not value[-1:].isdigit():
        return False
    try:
        ipaddress.ip_address(value)
    except ValueError:
        return False
    return True


_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def decode_json(text: str):
    """The JSON value of ``text``, as ``json.loads`` gives it, for every input file.

    Two more inputs raise json.JSONDecodeError, so callers treat them as
    any other invalid JSON: nesting deeper than the interpreter's recursion
    limit, and a string holding a lone surrogate, which no output file
    could encode. Text read as UTF-8 can hold a surrogate only as a \\u
    escape, so only text with such an escape is checked.
    """
    try:
        value = json.loads(text)
        if _SURROGATE_ESCAPE.search(text):
            json.dumps(value, ensure_ascii=False).encode("utf-8")  # fails on a lone surrogate
    except RecursionError:
        raise json.JSONDecodeError("nested too deeply", text, 0) from None
    except UnicodeEncodeError:
        raise json.JSONDecodeError("lone surrogate in a string", text, 0) from None
    return value


def log_line(level: str, source: str, message: str, with_traceback: bool = False) -> None:
    """Write ``LEVEL source: message`` to the current sys.stderr in one write;
    with ``with_traceback``, in an ``except`` block, the traceback follows. It
    never raises: without a stderr, or on OSError or ValueError, the line is dropped."""
    if with_traceback:
        import traceback  # only a failure with no answer of its own pays for it
        message += "\n" + traceback.format_exc().rstrip("\n")
    stream = sys.stderr
    if stream is not None:
        with contextlib.suppress(OSError, ValueError):
            stream.write(f"{level} {source}: {message}\n")
