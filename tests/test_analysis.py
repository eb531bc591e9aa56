"""Scheduling theory as the simulator's oracle.

Analytic results from tests/oracles.py, checked against simulated runs with
no overheads, so each run must meet the analysis exactly.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from rtsched import (
    MappingScheme,
    PolicyConfig,
    PriorityAssignment,
    SimJobModel,
    TaskKind,
    init,
    ms,
    run_simulation,
    us,
)

from .oracles import rta_fp

RM = PriorityAssignment.RM
DM = PriorityAssignment.DM


# (period, wcet, core) per task; wcets in 100 us steps up to 30% of the period
_tasks = st.lists(
    st.sampled_from([2, 4, 5, 8, 10, 20]).flatmap(lambda p: st.tuples(
        st.just(ms(p)), st.integers(1, 3 * p).map(lambda k: us(100) * k),
        st.integers(0, 1),
    )),
    min_size=1, max_size=6,
)


def _max_responses(tasks, mapping, priority, workers, model=None):
    state = init(PolicyConfig(mapping_scheme=mapping, priority_assignment=priority,
                              worker_count=workers))
    for i, (period, wcet, core) in enumerate(tasks):
        tid = state.task_decl(f"t{i}", TaskKind.PERIODIC, period=period,
                              virt_core_id=core if mapping is MappingScheme.PARTITIONED else None)
        state.version_decl(tid, wcet_estimate=wcet)
    _, report = run_simulation(state, model or SimJobModel(), horizon="1hp")
    return [report.tasks[f"t{i}"].response.max for i in range(len(tasks))]


def _fixed_points(tasks):
    """Each task's fixed point on its own core, RM ranking ties by index."""
    order = sorted(range(len(tasks)), key=lambda i: (tasks[i][0], i))
    out = [None] * len(tasks)
    for core in {c for _, _, c in tasks}:
        mine = [i for i in order if tasks[i][2] == core]
        for i, r in zip(mine, rta_fp([tasks[i][:2] for i in mine])):
            out[i] = r
    return out


@settings(max_examples=60, deadline=None)
@given(tasks=_tasks, cores=st.integers(1, 2))
@example(tasks=[(ms(4), ms(1), 0), (ms(5), ms(2), 0), (ms(20), ms(3), 0)], cores=1)
def test_response_max_is_the_rta_fixed_point(tasks, cores):
    """On synchronous implicit-deadline sets, each task's largest response
    over one hyperperiod is its fixed point wherever every fixed point is
    within its period: per core under P-RM and P-DM (equal here), and on
    one worker under G-RM."""
    tasks = [(period, wcet, core % cores) for period, wcet, core in tasks]
    want = _fixed_points(tasks)
    if None not in want:
        for priority in (RM, DM):
            assert _max_responses(tasks, MappingScheme.PARTITIONED, priority, cores) == want
    one_core = [(period, wcet, 0) for period, wcet, _ in tasks]
    want = _fixed_points(one_core)
    if None not in want:
        assert _max_responses(one_core, MappingScheme.GLOBAL, RM, 1) == want


@settings(max_examples=60, deadline=None)
@given(tasks=_tasks, get_task=st.integers(0, 50).map(us), switch=st.integers(0, 50).map(us))
def test_response_max_is_within_the_overhead_inflated_fixed_point(tasks, get_task, switch):
    """On one worker under preemptive G-RM, with get-task and context-switch
    costs and zero scan and sort costs, each task's largest response over one
    hyperperiod is at most its RTA fixed point with every wcet inflated by
    2 x (switch + get_task), wherever every inflated fixed point is within
    its period.

    Assumptions: jobs release synchronously, run exactly their wcet and
    have deadlines equal to their periods.  Entering a job that preempts
    costs one get-task and one switch, and resuming the job it preempted
    costs one of each, so each job carries its own entry and the resumption
    of the job it interrupts: two of each per job (Katcher, Arakawa &
    Strosnider, "Engineering and analysis of fixed priority schedulers",
    IEEE TSE 1993)."""
    one_core = [(period, wcet, 0) for period, wcet, _ in tasks]
    inflation = 2 * (switch + get_task)
    bound = _fixed_points([(period, wcet + inflation, 0) for period, wcet, _ in one_core])
    if None in bound:
        return
    model = SimJobModel(get_task_cost=get_task, context_switch_cost=switch)
    got = _max_responses(one_core, MappingScheme.GLOBAL, RM, 1, model)
    assert all(r <= b for r, b in zip(got, bound)), (got, bound)
