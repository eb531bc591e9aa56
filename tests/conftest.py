import pytest

import rtsched.realtime as rt
import rtsched.simulator as sim
from rtsched.graph import check_activation


@pytest.fixture
def many_cpus(monkeypatch):
    """Thread-backend runs take the host for one with 64 processors, so
    they start on small machines too."""
    monkeypatch.setattr(rt, "available_cpus", lambda: 64)


@pytest.fixture(scope="session", autouse=True)
def drained_runs_leave_no_fireable_node():
    """Every simulated run that drains (its report is not truncated) ends
    with no token-driven graph node whose inputs could serve a firing.
    graph.check_activation scans the channels from scratch, so this checks
    the core's push-marked passes on every test simulation.  Session-scoped
    so Hypothesis tests take it too."""
    run = sim._Engine.run

    def checked_run(engine):
        run(engine)
        if engine.log.report.truncated:
            return
        for task, _ in engine.core._token_nodes:
            assert not check_activation(
                engine.state, engine.core.channels, task.task_id
            ), f"run drained with {task.name!r} fireable at {engine.now}"

    sim._Engine.run = checked_run
    yield
    sim._Engine.run = run
