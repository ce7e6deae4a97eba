"""Commit-reveal protocol for provably pre-inserted artificial bugs.

Before the search starts the designer publishes a salted SHA-256 digest of
the modified code block (binding and hiding); after the search the salt and
payload are revealed and anyone can recheck the digest. Probabilistic
insertion uses the same commitment over a private 32-byte coin seed: the
insertion bit is SHA-256(seed || beacon) read as a 256-bit integer compared
against floor(mu_a * 2**256), with the beacon taken from a public randomness
source, so the outcome is fixed by the commitment yet unpredictable to the
committer while the beacon is unknown.

File formats are bit-exact. Commitment file, three LF-terminated lines:
scheme id, lowercase hex digest, RFC-3339 timestamp (informational, not
covered by the digest). Reveal file, two LF-terminated lines: lowercase hex
salt, path to the payload file (read verbatim, relative to the reveal file).
"""

from __future__ import annotations

import hashlib
import hmac
import os
from pathlib import Path

from . import _Record

SCHEME = "sha256-salted-v1"
SALT_LEN = 32
DIGEST_LEN = 32


class CommitmentRecord(_Record):
    """A published commitment: scheme id, SHA-256 digest and creation time."""

    scheme: str
    digest: bytes
    created_at: str

    def __post_init__(self) -> None:
        if self.scheme != SCHEME:
            raise ValueError(f"unrecognized commitment scheme {self.scheme!r}")
        if len(self.digest) != DIGEST_LEN:
            raise ValueError("digest must be exactly 32 bytes")
        _check_line(self.created_at, "created_at", "ascii")


class RevealRecord(_Record):
    """The opening of a commitment: the salt and the payload."""

    salt: bytes
    payload: bytes

    def __post_init__(self) -> None:
        if len(self.salt) != SALT_LEN:
            raise ValueError("salt must be exactly 32 bytes")


def _check_line(text: str, name: str, encoding: str) -> None:
    """Reject a field that str.splitlines, and so the file readers, would
    split, or that its file's ``encoding`` cannot write."""
    if "".join(text.splitlines()) != text:
        raise ValueError(f"{name} must not contain a line break")
    try:
        text.encode(encoding)
    except UnicodeEncodeError:
        raise ValueError(f"{name} must encode as {encoding.upper()}") from None


def commit(payload: bytes, salt: bytes | None = None, created_at: str | None = None) -> CommitmentRecord:
    """Commitment digest SHA-256(salt || payload); salt defaults to fresh OS
    entropy. ``created_at`` is metadata only and defaults to the current UTC
    time; pass it explicitly for reproducible files."""
    if salt is None:
        salt = os.urandom(SALT_LEN)
    if len(salt) != SALT_LEN:
        raise ValueError("salt must be exactly 32 bytes")
    if created_at is None:
        from datetime import datetime, timezone  # only a clock read needs it

        created_at = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    digest = hashlib.sha256(salt + payload).digest()
    return CommitmentRecord(scheme=SCHEME, digest=digest, created_at=created_at)


def verify_reveal(commitment: CommitmentRecord, reveal: RevealRecord) -> bool:
    """True iff the revealed (salt, payload) reproduces the committed digest."""
    digest = hashlib.sha256(reveal.salt + reveal.payload).digest()
    return hmac.compare_digest(digest, commitment.digest)


def coin_resolve(seed: bytes, beacon: bytes, mu_a: float) -> bool:
    """Insertion coin: SHA-256(seed || beacon) as a 256-bit integer is below
    floor(mu_a * 2**256). Exact integer compare, so every verifier that gets
    the same bytes gets the same bit."""
    if len(seed) != SALT_LEN:
        raise ValueError("coin seed must be exactly 32 bytes")
    if not 0.0 <= mu_a <= 1.0:
        raise ValueError("mu_a must lie in [0, 1]")
    r = int.from_bytes(hashlib.sha256(seed + beacon).digest(), "big")
    num, den = mu_a.as_integer_ratio()
    return r < (num << 256) // den  # floor(mu_a * 2**256), exactly


def verify_coin(
    commitment: CommitmentRecord,
    reveal: RevealRecord,
    beacon: bytes,
    mu_a: float,
    claimed: bool,
) -> bool:
    """True iff the reveal opens the commitment and the recomputed coin
    matches the claimed insertion bit."""
    if not verify_reveal(commitment, reveal):
        return False
    if len(reveal.payload) != SALT_LEN:
        return False
    return coin_resolve(reveal.payload, beacon, mu_a) == claimed


# -- file formats ------------------------------------------------------------


def write_commitment_file(record: CommitmentRecord, path) -> None:
    text = f"{record.scheme}\n{record.digest.hex()}\n{record.created_at}\n"
    Path(path).write_bytes(text.encode("ascii"))


def read_commitment_file(path) -> CommitmentRecord:
    lines = Path(path).read_bytes().decode("ascii").splitlines()
    if len(lines) != 3:
        raise ValueError("commitment file must have exactly three lines")
    scheme, digest_hex, created_at = lines
    return CommitmentRecord(scheme=scheme, digest=bytes.fromhex(digest_hex), created_at=created_at)


def write_reveal_file(salt: bytes, payload_path: str, path) -> None:
    if len(salt) != SALT_LEN:
        raise ValueError("salt must be exactly 32 bytes")
    _check_line(payload_path, "payload path", "utf-8")
    text = f"{salt.hex()}\n{payload_path}\n"
    Path(path).write_bytes(text.encode("utf-8"))


def read_reveal_file(path) -> RevealRecord:
    """Load a reveal file; the payload path is resolved against the reveal
    file's directory when relative."""
    p = Path(path)
    lines = p.read_bytes().decode("utf-8").splitlines()
    if len(lines) != 2:
        raise ValueError("reveal file must have exactly two lines")
    salt = bytes.fromhex(lines[0])
    payload_path = Path(lines[1])
    if not payload_path.is_absolute():
        payload_path = p.parent / payload_path
    return RevealRecord(salt=salt, payload=payload_path.read_bytes())
