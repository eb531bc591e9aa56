import pytest

import rtsched.realtime as rt


@pytest.fixture
def many_cpus(monkeypatch):
    """Thread-backend runs take the host for one with 64 processors, so
    they start on small machines too."""
    monkeypatch.setattr(rt, "available_cpus", lambda: 64)
