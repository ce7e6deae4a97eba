import hashlib
from pathlib import Path

import numpy as np
import pytest

from bountylab import (
    CommitmentRecord,
    RevealRecord,
    coin_resolve,
    commit,
    read_commitment_file,
    read_reveal_file,
    verify_coin,
    verify_reveal,
    write_commitment_file,
    write_reveal_file,
)

DATA = Path(__file__).parent / "data"
ZERO_SALT = bytes(32)


def test_commit_digest_is_salted_sha256():
    record = commit(b"", salt=ZERO_SALT)
    assert record.digest == hashlib.sha256(ZERO_SALT).digest()
    assert record.scheme == "sha256-salted-v1"


def test_commit_deterministic_in_salt_and_payload():
    a = commit(b"block", salt=ZERO_SALT, created_at="t")
    b = commit(b"block", salt=ZERO_SALT, created_at="t")
    assert a.digest == b.digest


def test_commit_separates_payloads():
    a = commit(b"block A", salt=ZERO_SALT)
    b = commit(b"block B", salt=ZERO_SALT)
    assert a.digest != b.digest


def test_commit_rejects_short_salt():
    with pytest.raises(ValueError):
        commit(b"x", salt=b"\x00" * 31)


def test_commit_fresh_salt_hides():
    payload = b"same payload"
    assert commit(payload).digest != commit(payload).digest


def test_reveal_round_trip_and_tampering():
    payload = b"the modified code block"
    salt = bytes(range(32))
    record = commit(payload, salt=salt)
    assert verify_reveal(record, RevealRecord(salt=salt, payload=payload))
    assert not verify_reveal(record, RevealRecord(salt=salt, payload=b"the modified code blocK"))
    other_salt = bytes(32)
    assert not verify_reveal(record, RevealRecord(salt=other_salt, payload=payload))


def test_no_collisions_at_test_scale():
    rng = np.random.default_rng(61)
    salt = rng.bytes(32)
    seen = set()
    for i in range(10**5):
        seen.add(hashlib.sha256(salt + i.to_bytes(8, "big")).digest())
    assert len(seen) == 10**5


def test_digest_bytes_look_uniform():
    # non-cryptographic sanity check: related payloads share no byte bias
    rng = np.random.default_rng(62)
    salt = rng.bytes(32)
    first_bytes = [
        hashlib.sha256(salt + i.to_bytes(8, "big")).digest()[0] for i in range(4096)
    ]
    counts = np.bincount(first_bytes, minlength=256)
    # chi-square against uniform; 3 sigma on 255 dof is about 322
    chi2 = float(((counts - 16.0) ** 2 / 16.0).sum())
    assert chi2 < 322.0


def test_coin_degenerate_probabilities():
    seed = bytes(32)
    assert coin_resolve(seed, b"any beacon", 1.0) is True
    assert coin_resolve(seed, b"any beacon", 0.0) is False


def test_coin_rejects_bad_inputs():
    with pytest.raises(ValueError):
        coin_resolve(b"\x00" * 31, b"", 0.5)
    with pytest.raises(ValueError):
        coin_resolve(bytes(32), b"", 1.5)


def test_coin_frequency_near_half():
    rng = np.random.default_rng(63)
    draws = 10**4
    hits = sum(coin_resolve(rng.bytes(32), rng.bytes(16), 0.5) for _ in range(draws))
    se = (0.25 / draws) ** 0.5
    assert abs(hits / draws - 0.5) <= 4.0 * se


def test_coin_deterministic_and_beacon_sensitive():
    seed = bytes.fromhex("11" * 32)
    beacon = bytes.fromhex("deadbeef")
    a = coin_resolve(seed, beacon, 0.5)
    assert a == coin_resolve(seed, beacon, 0.5)
    flips = sum(
        coin_resolve(seed, beacon + bytes([i]), 0.5) != a for i in range(64)
    )
    assert flips > 0  # other beacons resolve differently


def test_verify_coin_honest_and_dishonest():
    seed = bytes.fromhex("ab" * 32)
    beacon = bytes.fromhex("0123456789")
    record = commit(seed, salt=ZERO_SALT)
    reveal = RevealRecord(salt=ZERO_SALT, payload=seed)
    outcome = coin_resolve(seed, beacon, 0.3)
    assert verify_coin(record, reveal, beacon, 0.3, outcome)
    assert not verify_coin(record, reveal, beacon, 0.3, not outcome)
    # a substituted beacon re-resolves the coin; the claim only verifies if
    # the substitute happens to agree
    assert verify_coin(record, reveal, b"other beacon", 0.3, outcome) == (
        coin_resolve(seed, b"other beacon", 0.3) == outcome
    )
    # payload that is not a 32-byte seed cannot verify as a coin
    short = commit(b"tiny", salt=ZERO_SALT)
    assert not verify_coin(short, RevealRecord(ZERO_SALT, b"tiny"), beacon, 0.3, True)


def test_record_validation():
    with pytest.raises(ValueError):
        CommitmentRecord(scheme="md5", digest=bytes(32), created_at="t")
    with pytest.raises(ValueError):
        CommitmentRecord(scheme="sha256-salted-v1", digest=bytes(31), created_at="t")
    with pytest.raises(ValueError):
        RevealRecord(salt=bytes(16), payload=b"")


def test_commitment_file_golden_bytes(tmp_path):
    record = commit(
        (DATA / "payload.bin").read_bytes(),
        salt=ZERO_SALT,
        created_at="2026-01-01T00:00:00Z",
    )
    path = tmp_path / "commitment.txt"
    write_commitment_file(record, path)
    assert path.read_bytes() == (DATA / "golden_commitment.txt").read_bytes()
    loaded = read_commitment_file(path)
    assert loaded == record


def test_reveal_file_golden_bytes(tmp_path):
    path = tmp_path / "reveal.txt"
    write_reveal_file(ZERO_SALT, "payload.bin", path)
    assert path.read_bytes() == (DATA / "golden_reveal.txt").read_bytes()


def test_reveal_file_reads_payload_relative():
    reveal = read_reveal_file(DATA / "golden_reveal.txt")
    assert reveal.payload == (DATA / "payload.bin").read_bytes()
    commitment = read_commitment_file(DATA / "golden_commitment.txt")
    assert verify_reveal(commitment, reveal)


def test_file_format_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"only one line\n")
    with pytest.raises(ValueError):
        read_commitment_file(bad)
    with pytest.raises(ValueError):
        read_reveal_file(bad)


@pytest.mark.parametrize("bad", ["t\n", "t\nu", "t\r", "t\r\nu", "t\x0bu", "t\x1cu", "t\x85u", "t\u2029u"])
def test_line_break_in_a_file_field_rejected(tmp_path, bad):
    with pytest.raises(ValueError, match="created_at must not contain a line break"):
        commit(b"block", salt=ZERO_SALT, created_at=bad)
    with pytest.raises(ValueError, match="payload path must not contain a line break"):
        write_reveal_file(ZERO_SALT, bad, tmp_path / "reveal.txt")
    assert not (tmp_path / "reveal.txt").exists()


def test_a_good_record_round_trips(tmp_path):
    (tmp_path / "block with spaces.bin").write_bytes(b"block")
    record = commit(b"block", salt=ZERO_SALT, created_at="2026-01-01T00:00:00+01:00")
    write_commitment_file(record, tmp_path / "commitment.txt")
    write_reveal_file(ZERO_SALT, "block with spaces.bin", tmp_path / "reveal.txt")
    assert read_commitment_file(tmp_path / "commitment.txt") == record
    assert verify_reveal(record, read_reveal_file(tmp_path / "reveal.txt"))
