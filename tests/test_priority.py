"""Priority key construction and ordering."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rtsched import (
    PolicyConfig,
    PriorityAssignment,
    TaskKind,
    ValidationError,
    init,
    ms,
)
# Internal names that rtsched does not export: imported from their modules.
from rtsched.priority import PriorityKey, assign_priority, key_rule

RM = PriorityAssignment.RM
DM = PriorityAssignment.DM
EDF = PriorityAssignment.EDF
USER = PriorityAssignment.USER


def _task(state, name, **kw):
    tid = state.task_decl(name, kw.pop("kind", TaskKind.PERIODIC), **kw)
    return state.task(tid)


@pytest.fixture
def state():
    return init(PolicyConfig())


def test_rm_orders_by_period(state):
    fast = _task(state, "fast", period=ms(5))
    slow = _task(state, "slow", period=ms(50))
    k_fast = assign_priority(RM, fast, seq=0, abs_release=0, abs_deadline=ms(5))
    k_slow = assign_priority(RM, slow, seq=0, abs_release=0, abs_deadline=ms(50))
    assert k_fast < k_slow


def test_dm_orders_by_relative_deadline(state):
    a = _task(state, "a", period=ms(50), relative_deadline=ms(4))
    b = _task(state, "b", period=ms(5))
    k_a = assign_priority(DM, a, seq=0, abs_release=0, abs_deadline=ms(4))
    k_b = assign_priority(DM, b, seq=0, abs_release=0, abs_deadline=ms(5))
    assert k_a < k_b  # tighter deadline wins despite the longer period


def test_edf_orders_by_absolute_deadline(state):
    t = _task(state, "t", period=ms(10))
    early = assign_priority(EDF, t, seq=0, abs_release=0, abs_deadline=ms(10))
    late = assign_priority(EDF, t, seq=1, abs_release=ms(10), abs_deadline=ms(20))
    assert early < late


def test_user_priority_used(state):
    hi = _task(state, "hi", period=ms(10), user_priority=1)
    lo = _task(state, "lo", period=ms(5), user_priority=9)
    k_hi = assign_priority(USER, hi, seq=0, abs_release=0, abs_deadline=ms(10))
    k_lo = assign_priority(USER, lo, seq=0, abs_release=0, abs_deadline=ms(5))
    assert k_hi < k_lo  # smaller ordinal outranks the shorter period


def test_user_priority_missing_raises(state):
    t = _task(state, "t", period=ms(10))
    with pytest.raises(ValidationError, match="USER priority missing"):
        assign_priority(USER, t, seq=0, abs_release=0, abs_deadline=ms(10))


def test_rm_needs_period(state):
    a = _task(state, "a", kind=TaskKind.APERIODIC, relative_deadline=ms(5))
    n = _task(state, "n", kind=TaskKind.GRAPH_NODE)
    # a periodless graph node without a root override has no RM ordinal
    with pytest.raises(ValidationError, match="RM needs a period"):
        assign_priority(RM, n, seq=0, abs_release=0, abs_deadline=ms(5))
    # aperiodic never reaches the RM branch
    key = assign_priority(RM, a, seq=0, abs_release=ms(3), abs_deadline=ms(8))
    assert key.klass == 1


def test_aperiodic_class_always_lower(state):
    p = _task(state, "p", period=ms(1_000_000))
    a = _task(state, "a", kind=TaskKind.APERIODIC, relative_deadline=ms(1))
    k_p = assign_priority(EDF, p, seq=0, abs_release=0, abs_deadline=ms(1_000_000))
    k_a = assign_priority(EDF, a, seq=0, abs_release=0, abs_deadline=ms(1))
    # even an urgent aperiodic job never outranks recurring work
    assert k_p < k_a


def test_aperiodic_fifo_among_themselves(state):
    a = _task(state, "a", kind=TaskKind.APERIODIC, relative_deadline=ms(50))
    b = _task(state, "b", kind=TaskKind.APERIODIC, relative_deadline=ms(1))
    first = assign_priority(EDF, a, seq=0, abs_release=ms(1), abs_deadline=ms(51))
    second = assign_priority(EDF, b, seq=0, abs_release=ms(2), abs_deadline=ms(3))
    assert first < second  # activation order, not deadline


def test_graph_node_uses_root_overrides(state):
    node = _task(state, "n", kind=TaskKind.GRAPH_NODE)
    key = assign_priority(
        RM, node, seq=0, abs_release=0, abs_deadline=ms(20), period=ms(20)
    )
    assert key.primary == ms(20)


def test_tie_break_is_total(state):
    a = _task(state, "a", period=ms(10))
    b = _task(state, "b", period=ms(10))
    k_a = assign_priority(RM, a, seq=0, abs_release=0, abs_deadline=ms(10))
    k_b = assign_priority(RM, b, seq=0, abs_release=0, abs_deadline=ms(10))
    assert k_a != k_b and k_a < k_b  # task id breaks the tie


def test_dm_keys_equal_rm_keys_only_under_implicit_deadlines(state):
    # the fact a sweep relies on to run a DM point as an RM one
    implicit = _task(state, "implicit", period=ms(10))
    tight = _task(state, "tight", period=ms(10), relative_deadline=ms(4))
    job = (3, ms(30), ms(40))
    assert key_rule(DM, implicit)(*job) == key_rule(RM, implicit)(*job)
    assert key_rule(DM, tight)(*job) != key_rule(RM, tight)(*job)


keys = st.builds(
    PriorityKey,
    klass=st.integers(0, 1),
    primary=st.integers(0, 10**12),
    task_id=st.integers(0, 100),
    seq=st.integers(0, 10**6),
)


@given(keys, keys, keys)
def test_key_order_is_total_and_transitive(x, y, z):
    assert (x < y) or (y < x) or (x == y)
    if x < y and y < z:
        assert x < z


@given(keys, keys)
def test_class_dominates(x, y):
    if x.klass < y.klass:
        assert x < y
