"""Test-suite-wide configuration.

Hypothesis: disable per-example deadlines (the detector/graph property
tests intentionally run non-trivial code per example, and shared-fixture
builds can make the first example slow) and keep example counts modest so
the full suite stays fast.

``rewrite_header`` edits a stored ``.col`` entry's header in place, for
tests that feed a store an entry its encoder would never write.
"""

import json

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "repro",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


def _rewrite_header(path, change):
    """Apply ``change(header)`` to a ``.col`` entry's header JSON in place.

    Every column byte stays put: the data segment moves with the
    header's new padding, and its column offsets are relative to it.
    """
    data = path.read_bytes()
    header_len = int.from_bytes(data[8:12], "little")
    header = json.loads(data[12 : 12 + header_len])
    change(header)
    text = json.dumps(header, sort_keys=True).encode("utf-8")

    def data_start(length):
        return -(-(12 + length) // 64) * 64

    padding = bytes(data_start(len(text)) - 12 - len(text))
    path.write_bytes(
        data[:8] + len(text).to_bytes(4, "little") + text + padding + data[data_start(header_len):]
    )


@pytest.fixture
def rewrite_header():
    """Rewrite a stored entry's header: ``rewrite_header(path, change)``."""
    return _rewrite_header
