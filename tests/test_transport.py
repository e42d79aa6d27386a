"""The rate-limited link behind the slow-uplink runs: a send takes at
least its bits over the rate, and receives and close pass through to
the inner transport."""

import time

import pytest

from sidetune.transport import RateLimitedTransport, loopback_pair

RATE_BPS = 80_000


def test_a_rate_limited_send_takes_its_bits_over_the_rate_and_passes_the_rest_through():
    near, far = loopback_pair()
    link = RateLimitedTransport(near, RATE_BPS)
    data = bytes(1000)  # 8,000 bits: 0.1 s at 80 kbit/s
    try:
        t0 = time.monotonic()
        link.send(data)
        assert time.monotonic() - t0 >= len(data) * 8 / RATE_BPS
        assert far.recv(timeout=1.0) == data
        far.send(b"reply")
        assert link.recv(timeout=1.0) == b"reply"
        link.close()
        assert far.recv(timeout=1.0) == b""  # the peer sees the inner end close
    finally:
        far.close()


def test_a_rate_must_be_positive():
    near, far = loopback_pair()
    with pytest.raises(ValueError):
        RateLimitedTransport(near, 0)
