import heapq
import random

import pytest

import rtsched.realtime as rt
import rtsched.simulator as sim
from rtsched.online import SchedulerCore

from .oracles import activation_oracle


@pytest.fixture
def many_cpus(monkeypatch):
    """Thread-backend runs take the host for one with 64 processors, so
    they start on small machines too."""
    monkeypatch.setattr(rt, "available_cpus", lambda: 64)


@pytest.fixture
def preflight_forbidden(monkeypatch):
    """A thread-backend call that reaches its processor check, the step
    before any thread starts, fails the test."""

    def preflight(required):
        raise AssertionError("reached the processor check")

    monkeypatch.setattr(rt, "processor_preflight", preflight)


@pytest.fixture
def release_passes(monkeypatch):
    """The jobs of each call of the core's release step, one list per
    call, so a test counts a run's passes from the core's side."""
    passes = []
    release = SchedulerCore.release

    def counted(core, now, horizon=None):
        jobs = release(core, now, horizon)
        passes.append(list(jobs))
        return jobs

    monkeypatch.setattr(SchedulerCore, "release", counted)
    return passes


@pytest.fixture
def tie_order(monkeypatch):
    """Same-instant order as a test variable: after `tie_order(seed)`, the
    simulator runs the events of one instant and ordering class in an order
    drawn from random.Random(seed) instead of their push order.  Each call
    starts a fresh draw; the test's end restores push order."""

    def shuffle(seed):
        rng = random.Random(seed)

        def push_event(engine, t, prio, fn, *args):
            engine._seq += 1
            heapq.heappush(engine._heap, (t, prio, (rng.random(), engine._seq), fn, args))

        monkeypatch.setattr(sim._Engine, "push_event", push_event)

    return shuffle


@pytest.fixture(scope="session", autouse=True)
def simulated_runs_end_drained():
    """Check how every test simulation ends.  Session-scoped so Hypothesis
    tests take it too.

    A run not cut at the event cap ends with no token-driven graph node
    whose inputs could serve a firing.  oracles.activation_oracle scans a
    copy of the channels from scratch, so this checks the core's
    push-marked passes.  A run whose log holds no open job (the ones
    `close` reports unfinished) also ends with every accelerator free, no
    job in execution, in a ready queue or on a worker's stack, and no job
    parked on a channel."""
    run = sim._Engine.run

    def checked_run(engine):
        run(engine)
        if engine.events_done > sim._EVENT_CAP:
            return
        core, state = engine.core, engine.state
        tokens = {cid: [ch.occupancy, ch.claimed] for cid, ch in core.channels.items()}
        connections = [(c.channel_id, c.dst, c.required_tokens or 1)
                       for c in state.channels if c.dst is not None]
        fired = activation_oracle(tokens, connections, [t.task_id for t, _ in core._token_nodes])
        assert not fired, (f"run drained with {[state.tasks[n].name for n in fired]}"
                           f" fireable at {engine.now}")
        if engine.log._accounts.marks:
            return
        assert all(holder is None for holder in engine.registry.holders)
        assert not engine.execs
        assert not any(queue.items for queue in core.queues)
        assert not any(ws.stack for ws in engine.workers)
        assert not any(engine.chan_prod_waiters.values())
        assert not any(engine.chan_cons_waiters.values())

    sim._Engine.run = checked_run
    yield
    sim._Engine.run = run
