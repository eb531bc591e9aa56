"""Virtual-time backend: determinism, ordering, costs, channels, offline."""

import dataclasses
import os
import random

import pytest

import rtsched.simulator as sim
from rtsched import (
    ConfigurationError,
    LockingStrategy,
    MappingScheme,
    ModeSelect,
    PolicyConfig,
    PriorityAssignment,
    ScheduleTable,
    SimJobModel,
    TaskKind,
    ValidationError,
    VersionSelection,
    WaitingStrategy,
    channel_connect,
    channel_decl,
    init,
    load_document,
    ms,
    parse_horizon,
    policy_label,
    run_simulation,
    trace_csv_text,
    us,
)


DEMOS = os.path.join(os.path.dirname(__file__), os.pardir, "demos")


def _one_task(period=ms(10), wcet=ms(2), **cfg):
    state = init(PolicyConfig(**cfg))
    tid = state.task_decl("t", TaskKind.PERIODIC, period=period)
    state.version_decl(tid, wcet_estimate=wcet)
    return state


def _events(trace, kind, task=None):
    return [
        e for e in trace
        if e.kind == kind and (task is None or e.task == task)
    ]


def _times(trace, kind, task=None):
    return [e.timestamp_ns for e in _events(trace, kind, task)]


class TestIdealRun:
    def test_zero_knobs_exact_timeline(self):
        trace, report = run_simulation(_one_task())
        assert _times(trace, "release_theoretical") == [0]
        assert _times(trace, "release_effective") == [0]
        assert _times(trace, "job_start") == [0]
        assert _times(trace, "job_complete") == [ms(2)]
        assert (report.released, report.completed, report.misses) == (1, 1, 0)
        assert report.tasks["t"].response.max == ms(2)
        assert not report.truncated and not report.warnings

    def test_release_at_horizon_stays_out(self):
        trace, report = run_simulation(_one_task(), horizon=ms(10))
        assert report.released == 1  # the t=10ms arrival is the next run's

    def test_released_work_drains_past_horizon(self):
        # one job, longer than its period: finishes beyond the horizon
        state = _one_task(period=ms(10), wcet=ms(15))
        trace, report = run_simulation(state, horizon=ms(10))
        assert _times(trace, "job_complete") == [ms(15)]
        assert report.completed == 1 and report.misses == 1
        assert not report.truncated
        [miss] = _events(trace, "deadline_miss")
        assert miss.payload["late"] == ms(5)

    def test_report_meta(self):
        _, report = run_simulation(_one_task(), seed=42)
        assert report.meta["backend"] == "virtual"
        assert report.meta["policy"] == "G-EDF"
        assert report.meta["seed"] == 42
        assert report.meta["horizon_ns"] == ms(10)
        assert report.meta["tick_ns"] == ms(10)
        assert report.meta["workers"] == 2

    def test_validation_gate(self):
        state = init(PolicyConfig())
        state.task_decl("t", TaskKind.PERIODIC, period=ms(10))  # no version
        with pytest.raises(ValidationError, match="no-version"):
            run_simulation(state)


class TestDeterminism:
    def _busy_state(self):
        state = init(PolicyConfig(worker_count=2))
        for i, period in enumerate([ms(4), ms(5), ms(10)]):
            tid = state.task_decl(f"t{i}", TaskKind.PERIODIC, period=period)
            state.version_decl(tid, wcet_estimate=ms(3))
        return state

    def _model(self):
        return SimJobModel(
            exec_time={
                f"t{i}": {"dist": "uniform", "low": us(500), "high": ms(3)}
                for i in range(3)
            },
            get_task_cost=us(2),
            sched_scan_cost_per_task=us(1),
            context_switch_cost=us(5),
        )

    def test_same_seed_byte_identical(self):
        a, _ = run_simulation(self._busy_state(), self._model(), seed=7)
        b, _ = run_simulation(self._busy_state(), self._model(), seed=7)
        assert trace_csv_text(a) == trace_csv_text(b)

    def test_different_seed_diverges(self):
        a, _ = run_simulation(self._busy_state(), self._model(), seed=7)
        b, _ = run_simulation(self._busy_state(), self._model(), seed=8)
        assert trace_csv_text(a) != trace_csv_text(b)


class TestSameInstantOrdering:
    def test_activation_lands_in_same_instant_tick(self):
        # control events run before the tick at the same timestamp, so an
        # activation at exactly t sees the t tick, not the next one
        state = init(PolicyConfig())
        tid = state.task_decl("p", TaskKind.PERIODIC, period=ms(10))
        state.version_decl(tid, wcet_estimate=ms(1))
        aid = state.task_decl("a", TaskKind.APERIODIC, relative_deadline=ms(5))
        state.version_decl(aid, wcet_estimate=ms(1))
        model = SimJobModel(activations=[(ms(10), "a")])
        trace, report = run_simulation(state, model, horizon=ms(20))
        assert _times(trace, "release_effective", task="a") == [ms(10)]

    def test_tick_precedes_completion_at_equal_time(self):
        # wcet == period: job 0 completes exactly when the next tick fires
        trace, _ = run_simulation(_one_task(wcet=ms(10)), horizon=ms(20))
        at_tick = [e.kind for e in trace if e.timestamp_ns == ms(10)]
        assert at_tick.index("tick_begin") < at_tick.index("job_complete")


class TestScriptedInputs:
    """Activations and mode switches are checked when the run starts."""

    def _state(self):
        state = _one_task()
        aid = state.task_decl("a", TaskKind.APERIODIC, relative_deadline=ms(5))
        state.version_decl(aid, wcet_estimate=ms(1))
        return state

    def test_activation_of_periodic_task_rejected(self):
        # t releases on its own clock; an activation would add jobs
        model = SimJobModel(activations=[(ms(3), "t")])
        with pytest.raises(ConfigurationError, match=r"activations entry \(3000000, 't'\)"):
            run_simulation(self._state(), model, horizon=ms(10))

    def test_activation_of_unknown_task_rejected(self):
        model = SimJobModel(activations=[(ms(3), "nosuch")])
        with pytest.raises(ConfigurationError, match="'nosuch'.*sporadic or aperiodic"):
            run_simulation(self._state(), model, horizon=ms(10))

    def test_activation_before_zero_rejected(self):
        model = SimJobModel(activations=[(-1, "a")])
        with pytest.raises(ConfigurationError, match=r"\(-1, 'a'\).*instant >= 0"):
            run_simulation(self._state(), model, horizon=ms(10))

    def test_mode_switch_before_zero_rejected(self):
        model = SimJobModel(mode_schedule=[(-1, frozenset({"night"}))])
        with pytest.raises(ConfigurationError, match="mode_schedule entry.*instant >= 0"):
            run_simulation(self._state(), model, horizon=ms(10))


COST_KNOBS = ("get_task_cost", "sched_scan_cost_per_task", "sort_cost_per_element",
              "context_switch_cost")


class TestCostKnobs:
    @pytest.mark.parametrize("value", [-1, 1.5, True])
    @pytest.mark.parametrize("knob", COST_KNOBS)
    def test_knob_that_is_not_an_int_of_ns_rejected(self, knob, value):
        model = SimJobModel(**{knob: value})
        with pytest.raises(ConfigurationError,
                           match=rf"SimJobModel\.{knob} must be an int >= 0, got {value}$"):
            run_simulation(_one_task(), model, horizon=ms(20))

    def test_get_task_cost_delays_start(self):
        model = SimJobModel(get_task_cost=us(2))
        trace, report = run_simulation(_one_task(), model)
        assert _times(trace, "job_start") == [us(2)]
        assert report.overheads.get_task.max == us(2)
        [pull] = [e for e in trace if e.kind == "lock_wait"
                  and e.payload.get("purpose") == "get_task"
                  and e.payload.get("got") == "start"]
        assert pull.payload["held"] == us(2)

    def test_scan_and_sort_cost_span_the_tick(self):
        model = SimJobModel(sched_scan_cost_per_task=us(3), sort_cost_per_element=us(4))
        trace, report = run_simulation(_one_task(), model)
        begin = _times(trace, "tick_begin")[0]
        end = _times(trace, "tick_end")[0]
        assert end - begin == us(3) + us(4)  # one task scanned, one queued
        assert report.overheads.scheduling.max == us(7)

    def test_context_switch_accounting(self):
        state = init(PolicyConfig(worker_count=1))
        lo = state.task_decl("lo", TaskKind.PERIODIC, period=ms(20))
        state.version_decl(lo, wcet_estimate=ms(8))
        hi = state.task_decl("hi", TaskKind.PERIODIC, period=ms(10),
                             release_offset=ms(2))
        state.version_decl(hi, wcet_estimate=ms(2))
        model = SimJobModel(context_switch_cost=us(100))
        trace, report = run_simulation(state, model)

        [preempt] = _events(trace, "preempt")
        assert preempt.timestamp_ns == ms(2)
        assert preempt.task == "lo" and preempt.payload["by"] == "hi"
        assert _times(trace, "job_start", task="hi")[0] == ms(2) + us(100)
        assert _times(trace, "job_complete", task="hi")[0] == ms(4) + us(100)
        [resume] = _events(trace, "resume")
        assert resume.timestamp_ns == ms(4) + us(200)
        assert _times(trace, "job_complete", task="lo") == [ms(10) + us(200)]
        assert report.overheads.preemptions == 1
        assert report.overheads.context_switch_total == us(200)
        assert report.misses == 0

    def test_non_preemptive_runs_to_completion(self):
        cfg = dict(worker_count=1, preemptive=False)
        state = init(PolicyConfig(**cfg))
        lo = state.task_decl("lo", TaskKind.PERIODIC, period=ms(20))
        state.version_decl(lo, wcet_estimate=ms(8))
        hi = state.task_decl("hi", TaskKind.PERIODIC, period=ms(10),
                             release_offset=ms(2))
        state.version_decl(hi, wcet_estimate=ms(2))
        trace, report = run_simulation(state)
        assert _events(trace, "preempt") == []
        assert _times(trace, "job_start", task="hi")[0] == ms(8)
        assert report.misses == 0  # hi still makes its 12 ms deadline


@pytest.mark.parametrize("keep_trace", ["CSV", "rows", 1, None])
def test_unknown_keep_trace_rejected(keep_trace):
    with pytest.raises(ConfigurationError, match='keep_trace must be True, False or "csv"'):
        run_simulation(_one_task(), keep_trace=keep_trace)


class TestSwitchWindow:
    """Work that comes to outrank a job during its context switch preempts
    it when the switch ends: 1 worker, EDF, 100 us switches."""

    @staticmethod
    def _run(mapping, c_offset, c_deadline, c_wcet):
        state = init(PolicyConfig(mapping_scheme=mapping, worker_count=1,
                                  priority_assignment=PriorityAssignment.EDF))
        core = None if mapping is MappingScheme.GLOBAL else 0
        for name, offset, deadline, wcet in [("a", 0, ms(10), ms(5)),
                                             ("b", ms(1), ms(5), ms(1)),
                                             ("c", c_offset, c_deadline, c_wcet)]:
            tid = state.task_decl(name, TaskKind.PERIODIC, period=ms(10), release_offset=offset,
                                  relative_deadline=deadline, virt_core_id=core)
            state.version_decl(tid, wcet_estimate=wcet)
        return run_simulation(state, SimJobModel(context_switch_cost=us(100)), horizon=ms(10))

    def test_release_during_a_start_switch(self):
        # c arrives while the worker switches from a to b
        trace, report = self._run(MappingScheme.GLOBAL, us(1050), ms(2), us(500))
        assert (report.released, report.completed, report.misses) == (3, 3, 0)
        assert _times(trace, "job_start", task="b") == [us(1100)]
        assert [(e.timestamp_ns, e.payload["by"]) for e in _events(trace, "preempt", "b")] == [
            (us(1100), "c")]
        assert _times(trace, "job_start", task="c") == [us(1200)]

    def test_release_during_a_resume_switch(self):
        # c arrives while the worker switches back from b to a (2.1 to 2.2 ms)
        trace, report = self._run(MappingScheme.PARTITIONED, us(2150), ms(1), us(300))
        assert (report.released, report.completed, report.misses) == (3, 3, 0)
        assert _times(trace, "resume", task="a")[0] == us(2200)
        assert [(e.timestamp_ns, e.payload["by"]) for e in _events(trace, "preempt", "a")] == [
            (ms(1), "b"), (us(2200), "c")]
        assert _times(trace, "job_start", task="c") == [us(2300)]


def _three_periodic():
    # 1, 2 and 5 ms periods: the scheduler tick is 1 ms
    state = init(PolicyConfig(worker_count=2, priority_assignment=PriorityAssignment.EDF))
    for i, (period, wcet) in enumerate([(ms(1), us(200)), (ms(2), us(500)), (ms(5), ms(1))]):
        tid = state.task_decl(f"t{i}", TaskKind.PERIODIC, period=period)
        state.version_decl(tid, wcet_estimate=wcet)
    return state


class TestLongPasses:
    def test_pass_longer_than_the_tick_ends_with_the_work(self):
        # three tasks scanned at 340 us each: a 1.02 ms pass against a 1 ms
        # tick, so every missed tick is coalesced into the next pass
        model = SimJobModel(sched_scan_cost_per_task=us(340))
        trace, report = run_simulation(_three_periodic(), model, horizon=ms(20), seed=3)
        assert not report.truncated
        assert report.released == report.completed == 34
        begins = _times(trace, "tick_begin")
        assert all(t < ms(20) for t in begins)  # no empty pass past the horizon
        assert len(begins) == 20  # one per grid tick before the horizon
        assert any(t % ms(1) for t in begins)  # a coalesced pass starts off the grid

    def test_back_to_back_passes_check_a_running_job_once(self):
        # 50 us passes on a 50 us tick: t1 and t2 are released in the pass
        # that ends at 5.2 ms, and the next pass still finds t0#1 running
        # while its worker waits on the lock to check the head.  Only that
        # one check may wait: a second would find t0#1 already preempted.
        state = init(PolicyConfig(worker_count=2))
        for name, period, offset, wcet in [("t0", ms(5), 0, us(110)),
                                           ("t1", ms(2), us(1150), us(20)),
                                           ("t2", ms(2), us(1150), us(20))]:
            tid = state.task_decl(name, TaskKind.PERIODIC, period=period,
                                  release_offset=offset)
            state.version_decl(tid, wcet_estimate=wcet)
        model = SimJobModel(get_task_cost=1, sched_scan_cost_per_task=16666,
                            sort_cost_per_element=2, context_switch_cost=1)
        trace, report = run_simulation(state, model, horizon=ms(10))
        assert not report.truncated
        assert report.released == report.completed == 12
        assert [(e.timestamp_ns, e.payload["by"]) for e in _events(trace, "preempt", "t0")] == [
            (5_250_005, "t2")]
        # 100,001 ns run before the check paused it, 9,999 after it resumed
        assert _times(trace, "resume", "t0") == [5_300_007]
        assert _times(trace, "job_complete", "t0") == [210_001, 5_310_006]

    def test_event_cap_inside_a_pass_truncates(self, monkeypatch):
        # some of these caps cut the run between a tick_begin and its tick_end
        for cap in range(990, 1011):
            monkeypatch.setattr(sim, "_EVENT_CAP", cap)
            _, report = run_simulation(_three_periodic(), horizon=ms(100), seed=3)
            assert report.truncated
            assert "event cap reached; run truncated" in report.warnings


class TestChannels:
    def _pipeline(self, capacity, push_count=None):
        state = init(PolicyConfig(worker_count=2))
        prod = state.task_decl("prod", TaskKind.PERIODIC, period=ms(20))
        state.version_decl(prod, wcet_estimate=ms(1))
        cons = state.task_decl("cons", TaskKind.GRAPH_NODE,
                               relative_deadline=ms(5))
        state.version_decl(cons, wcet_estimate=ms(1))
        ch = channel_decl(state, "c", element_size=8, capacity=capacity)
        channel_connect(state, ch, prod, cons, push_count=push_count)
        return state

    def test_tokens_activate_consumer_at_next_tick(self):
        state = self._pipeline(capacity=4)
        trace, report = run_simulation(state, horizon=ms(20))
        # token lands at 1 ms; the 20 ms tick releases the consumer
        assert _times(trace, "release_effective", task="cons") == [ms(20)]
        assert _times(trace, "job_complete", task="cons") == [ms(21)]
        assert report.misses == 0 and not report.truncated

    def test_full_channel_blocks_producer_until_pop(self):
        state = self._pipeline(capacity=1, push_count=2)
        trace, report = run_simulation(state, horizon=ms(20))
        # the second push finds the one-slot channel full: the producer
        # stalls until the consumer's first firing pops at 20 ms
        assert _times(trace, "job_complete", task="prod") == [ms(20)]
        assert _times(trace, "release_effective", task="cons") == [ms(20), ms(40)]
        assert report.completed == 3 and report.misses == 0
        assert not report.truncated

    def test_forever_blocked_job_truncates_run(self):
        state = init(PolicyConfig())
        t = state.task_decl("t", TaskKind.PERIODIC, period=ms(10))
        state.version_decl(t, wcet_estimate=ms(1))
        never = state.task_decl("never", TaskKind.GRAPH_NODE)
        state.version_decl(never, wcet_estimate=ms(1))
        ch = channel_decl(state, "c", element_size=8, capacity=1)
        channel_connect(state, ch, never, t)  # producer never fires
        model = SimJobModel(body_ops={"t": [(0, "pop", "c", 1)]})
        trace, report = run_simulation(state, model, horizon=ms(10))
        assert report.truncated
        assert report.misses == 1
        assert any("unfinished" in w for w in report.warnings)

    def test_body_ops_unknown_channel_rejected(self):
        model = SimJobModel(body_ops={"t": [(0, "pop", "nosuch", 1)]})
        with pytest.raises(ConfigurationError, match="nosuch"):
            run_simulation(_one_task(), model)

    @pytest.mark.parametrize("body_ops, match", [
        pytest.param({"prod": [(0, "pull", "c", 1)]}, "'pull'", id="unknown-op"),
        pytest.param({"nosuch": [(0, "pop", "c", 1)]}, r"unknown tasks: \['nosuch'\]",
                     id="unknown-task"),
        pytest.param({"prod": [(0, "push", "c", 0)]}, r"\(0, 'push', 'c', 0\)", id="zero-count"),
        pytest.param({"prod": [(-1, "push", "c", 1)]}, r"\(-1, 'push', 'c', 1\)",
                     id="negative-offset"),
    ])
    def test_malformed_body_ops_rejected(self, body_ops, match):
        model = SimJobModel(body_ops=body_ops)
        with pytest.raises(ConfigurationError, match=match):
            run_simulation(self._pipeline(capacity=4), model, horizon=ms(20))


class TestExecutionModel:
    def test_uniform_samples_stay_in_range(self):
        model = SimJobModel(
            exec_time={"t": {"dist": "uniform", "low": ms(1), "high": ms(3)}}
        )
        trace, _ = run_simulation(_one_task(), model, horizon="4hp", seed=3)
        starts = _times(trace, "job_start")
        ends = _times(trace, "job_complete")
        assert len(starts) == 4
        assert all(ms(1) <= e - s <= ms(3) for s, e in zip(starts, ends))

    def test_normal_zero_std_is_exact(self):
        model = SimJobModel(
            exec_time={"t": {"dist": "normal", "mean": ms(3), "std": 0}}
        )
        trace, _ = run_simulation(_one_task(), model)
        assert _times(trace, "job_complete") == [ms(3)]

    def test_normal_clamps_at_zero(self):
        model = SimJobModel(
            exec_time={"t": {"dist": "normal", "mean": -ms(5), "std": 1}}
        )
        trace, _ = run_simulation(_one_task(), model)
        assert _times(trace, "job_complete") == [0]

    def test_unknown_distribution_rejected(self):
        model = SimJobModel(exec_time={"t": {"dist": "pareto", "shape": 2}})
        with pytest.raises(ConfigurationError, match="distribution"):
            run_simulation(_one_task(), model)

    def test_per_version_mapping(self):
        model = SimJobModel(exec_time={"t": {"v0": ms(1)}})
        trace, _ = run_simulation(_one_task(wcet=ms(4)), model)
        assert _times(trace, "job_complete") == [ms(1)]

    def test_overrun_reported(self):
        model = SimJobModel(exec_time={"t": ms(3)})
        trace, _ = run_simulation(_one_task(wcet=ms(2)), model)
        [over] = _events(trace, "overrun")
        assert over.payload["over"] == ms(1)

    def test_mode_switch_changes_selection(self):
        state = init(PolicyConfig(version_selection=VersionSelection.MODE))
        tid = state.task_decl("t", TaskKind.PERIODIC, period=ms(10))
        state.version_decl(tid, wcet_estimate=ms(1), name="day",
                           select=ModeSelect(mode_mask=frozenset({"day"})))
        state.version_decl(tid, wcet_estimate=ms(1), name="night",
                           select=ModeSelect(mode_mask=frozenset({"night"})))
        model = SimJobModel(
            execution_mode=frozenset({"day"}),
            mode_schedule=[(ms(15), frozenset({"night"}))],
        )
        trace, _ = run_simulation(state, model, horizon="3hp")
        versions = [e.payload["version"] for e in _events(trace, "job_start")]
        assert versions == ["day", "day", "night"]

    def test_mode_match_on_busy_accelerator_parks(self):
        # the only version matching the mode needs the gpu that hog holds:
        # t takes it anyway and waits, instead of failing the run
        state = init(PolicyConfig(version_selection=VersionSelection.MODE, worker_count=2))
        gpu = state.hwaccel_decl("gpu")
        hi, lo = ModeSelect(frozenset({"hi"})), ModeSelect(frozenset({"lo"}))
        hog = state.task_decl("hog", TaskKind.PERIODIC, period=ms(10))
        state.hwaccel_use(hog, state.version_decl(hog, wcet_estimate=ms(8), select=hi), gpu)
        t = state.task_decl("t", TaskKind.PERIODIC, period=ms(10), release_offset=ms(1))
        state.hwaccel_use(t, state.version_decl(t, wcet_estimate=ms(1), select=hi,
                                                name="hi"), gpu)
        state.version_decl(t, wcet_estimate=ms(1), select=lo, name="lo")
        model = SimJobModel(execution_mode=frozenset({"hi"}))
        trace, report = run_simulation(state, model, horizon=ms(50))
        assert {e.payload["version"] for e in _events(trace, "job_start", "t")} == {"hi"}
        assert _times(trace, "job_start", task="t") == [ms(8), ms(18), ms(28), ms(38), ms(48)]
        assert report.tasks["t"].completed == 5 and not report.truncated



def _task_a():
    # the malformed-exec_time repros: task a every 10 ms on one worker
    state = init(PolicyConfig(worker_count=1))
    tid = state.task_decl("a", TaskKind.PERIODIC, period=ms(10))
    state.version_decl(tid, wcet_estimate=ms(2))
    return state


# exec_time["a"] values that each crashed a run, moved virtual time back or
# were silently ignored; each now fails before the first event
MALFORMED_EXEC_TIME = [
    pytest.param(-5, id="negative-duration"),
    pytest.param({"dist": "uniform", "low": 5, "high": 1}, id="low-above-high"),
    pytest.param({"dist": "uniform", "low": 2.7, "high": 2.2}, id="float-low-above-high"),
    pytest.param("abc", id="string"),
    pytest.param([1, 2], id="list"),
    pytest.param({"dist": "uniform", "low": "x", "high": ms(1)}, id="string-low"),
    pytest.param({"dist": "uniform", "low": 1}, id="missing-high"),
    pytest.param({"typo": ms(5)}, id="unknown-key"),
    pytest.param({"v9": ms(1)}, id="map-naming-no-version"),
]


class TestMalformedExecTime:
    @pytest.mark.parametrize("spec", MALFORMED_EXEC_TIME)
    def test_repro_rejected_naming_the_task(self, spec):
        model = SimJobModel(exec_time={"a": spec})
        with pytest.raises(ConfigurationError, match="exec_time of task 'a'"):
            run_simulation(_task_a(), model, horizon=ms(20))

    @pytest.mark.parametrize("spec", [
        pytest.param({"dist": "normal", "mean": ms(1), "std": -1}, id="negative-std"),
        pytest.param({"dist": "normal", "mean": float("inf"), "std": 1}, id="infinite-mean"),
        pytest.param({"dist": "uniform", "low": 1, "high": 2, "mean": 3}, id="extra-key"),
        pytest.param({"dist": "uniform", "low": True, "high": 2}, id="bool-low"),
        pytest.param(True, id="bool-duration"),
        pytest.param({}, id="empty-map"),
    ])
    def test_other_malformed_specs_rejected(self, spec):
        model = SimJobModel(exec_time={"a": spec})
        with pytest.raises(ConfigurationError, match="exec_time of task 'a'"):
            run_simulation(_task_a(), model, horizon=ms(20))

    def test_version_named_in_error(self):
        model = SimJobModel(exec_time={"a": {"v0": {"dist": "normal", "mean": 1}}})
        with pytest.raises(ConfigurationError, match="task 'a' version 'v0'"):
            run_simulation(_task_a(), model, horizon=ms(20))

    def test_unknown_task_rejected(self):
        model = SimJobModel(exec_time={"a": ms(1), "nosuch": ms(1)})
        with pytest.raises(ConfigurationError, match=r"unknown tasks: \['nosuch'\]"):
            run_simulation(_task_a(), model, horizon=ms(20))

    def test_checked_before_first_event(self):
        # b is first due after the horizon, so none of its jobs ever starts
        state = _task_a()
        late = state.task_decl("b", TaskKind.PERIODIC, period=ms(10), release_offset=ms(30))
        state.version_decl(late, wcet_estimate=ms(1))
        model = SimJobModel(exec_time={"b": -5})
        with pytest.raises(ConfigurationError, match="exec_time of task 'b'"):
            run_simulation(state, model, horizon=ms(20))

    def test_decimal_arguments_accepted(self):
        model = SimJobModel(exec_time={"a": 1.5e6})
        trace, _ = run_simulation(_task_a(), model, horizon=ms(20))
        assert _times(trace, "job_complete") == [ms(1.5), ms(11.5)]


class TestUniformDraw:
    """A compiled uniform draw returns exactly what randint returns, clamped
    at 0, from the same generator state."""

    @pytest.mark.parametrize("seed", [0, 1, 401, 2**40 + 3])
    @pytest.mark.parametrize("low, high", [
        pytest.param(7, 7, id="width-1"),
        pytest.param(7, 8, id="width-2"),
        pytest.param(0, 2**10 - 1, id="width-2^k"),
        pytest.param(ms(1), ms(1) + 2**10, id="width-2^k+1"),
        pytest.param(5, 5 + 2**40, id="width-about-2^40"),
        pytest.param(-ms(1), ms(1), id="negative-low"),
        pytest.param(-9, -2, id="all-negative"),
    ])
    def test_equals_randint(self, seed, low, high):
        rng, ref = random.Random(seed), random.Random(seed)
        draw = sim._duration_draw({"dist": "uniform", "low": low, "high": high}, rng, "t")
        assert [draw() for _ in range(200)] == [max(0, ref.randint(low, high))
                                                 for _ in range(200)]
        assert rng.getstate() == ref.getstate()

    def test_float_bounds_truncate(self):
        rng, ref = random.Random(3), random.Random(3)
        draw = sim._duration_draw({"dist": "uniform", "low": 2.2, "high": 9.7}, rng, "t")
        assert [draw() for _ in range(50)] == [ref.randint(2, 9) for _ in range(50)]


class TestOffline:
    def _offline_state(self):
        cfg = PolicyConfig(
            mapping_scheme=MappingScheme.OFFLINE,
            preemptive=False,
            version_selection=VersionSelection.PRESELECTED,
            worker_count=2,
        )
        state = init(cfg)
        t0 = state.task_decl("t0", TaskKind.PERIODIC, period=ms(10), virt_core_id=0)
        state.version_decl(t0, wcet_estimate=ms(2))
        t1 = state.task_decl("t1", TaskKind.PERIODIC, period=ms(10), virt_core_id=1)
        state.version_decl(t1, wcet_estimate=ms(2))
        return state, t0, t1

    def test_exact_table_starts(self):
        state, t0, t1 = self._offline_state()
        table = ScheduleTable(ms(10))
        table.add(0, t0, 0, 0)
        table.add(0, t0, 0, ms(5))
        table.add(1, t1, 0, ms(1))
        state.table = table
        trace, report = run_simulation(state, horizon=ms(20))
        assert _times(trace, "job_start", task="t0") == [0, ms(5), ms(10), ms(15)]
        assert _times(trace, "job_start", task="t1") == [ms(1), ms(11)]
        assert report.meta["policy"] == "O-TABLE"
        assert report.misses == 0

    def test_late_entry_starts_when_core_frees(self):
        state, t0, t1 = self._offline_state()
        model = SimJobModel(exec_time={"t0": ms(6)})
        table = ScheduleTable(ms(10))
        table.add(0, t0, 0, 0)
        table.add(0, t0, 0, ms(5))  # due while the first entry still runs
        state.table = table
        trace, _ = run_simulation(state, model, horizon=ms(10))
        assert _times(trace, "job_start", task="t0") == [0, ms(6)]
        overruns = _events(trace, "overrun")
        [late] = [e for e in overruns if "late" in e.payload]
        assert late.payload["late"] == ms(1)
        # both entries execute 6 ms against a 2 ms estimate
        assert [e.payload.get("over") for e in overruns if "over" in e.payload] == [
            ms(4), ms(4)
        ]

    def test_consumer_without_producer_is_reported_unfinished(self):
        state, _, _ = self._offline_state()
        prod = state.task_decl("prod", TaskKind.PERIODIC, period=ms(10), virt_core_id=0)
        state.version_decl(prod, wcet_estimate=ms(2))
        cons = state.task_decl("cons", TaskKind.PERIODIC, period=ms(10), virt_core_id=1)
        state.version_decl(cons, wcet_estimate=ms(2))
        channel_connect(state, channel_decl(state, "prod->cons", 8, 1), prod, cons)
        table = ScheduleTable(ms(10))
        table.add(1, cons, 0, ms(1))  # prod is never dispatched
        state.table = table
        _, report = run_simulation(state, horizon=ms(30))
        assert report.truncated
        assert report.warnings == ["run ended with unfinished jobs: cons#0"]

    @pytest.mark.parametrize("field, value", [
        ("activations", [(ms(1), "s")]),
        ("mode_schedule", [(ms(1), frozenset({"night"}))]),
    ])
    def test_scripted_inputs_rejected(self, field, value):
        # a table replays its entries only: the scripted input would be
        # ignored without a word, and "s" would never run
        state, t0, _ = self._offline_state()
        s = state.task_decl("s", TaskKind.SPORADIC, period=ms(10), virt_core_id=0)
        state.version_decl(s, wcet_estimate=ms(1))
        table = ScheduleTable(ms(10))
        table.add(0, t0, 0, 0)
        state.table = table
        with pytest.raises(ConfigurationError, match=field):
            run_simulation(state, SimJobModel(**{field: value}), horizon=ms(20))


class TestParseHorizon:
    def test_forms(self):
        assert parse_horizon(None, ms(10)) is None
        assert parse_horizon(12345, None) == 12345
        assert parse_horizon("2hp", ms(10)) == ms(20)
        assert parse_horizon("hp", ms(10)) == ms(10)
        assert parse_horizon("10ms", None) == ms(10)
        assert parse_horizon("5us", None) == us(5)
        assert parse_horizon("250ns", None) == 250
        assert parse_horizon("1.5s", None) == 1_500_000_000
        assert parse_horizon("777", None) == 777

    def test_hyperperiod_form_needs_base(self):
        with pytest.raises(ConfigurationError, match="recurring"):
            parse_horizon("2hp", None)

    def test_overflowing_hyperperiod_is_named(self):
        # coprime periods of 971 to 997 ms: their LCM overflows, the 1 ms tick does not
        state = init(PolicyConfig())
        for period in (997, 991, 983, 977, 971):
            tid = state.task_decl(f"t{period}", TaskKind.PERIODIC, period=ms(period))
            state.version_decl(tid, wcet_estimate=ms(1))
        for horizon in (None, "2hp"):
            with pytest.raises(ConfigurationError, match="hyperperiod overflows"):
                run_simulation(state, horizon=horizon)
        _, report = run_simulation(state, horizon="5ms")
        assert report.meta["horizon_ns"] == ms(5)
        assert (report.released, report.completed) == (5, 5)

    def test_garbage_rejected(self):
        for text in ("soon", "infs", "1e999ms"):
            with pytest.raises(ConfigurationError, match="cannot parse"):
                parse_horizon(text, None)

    @pytest.mark.parametrize("horizon", [True, False, 2.5e6, [ms(10)]])
    def test_non_int_non_string_rejected(self, horizon):
        """True ran a 1 ns horizon and 2.5e6 raised AttributeError."""
        with pytest.raises(ConfigurationError, match="horizon must be an int of ns or a string"):
            parse_horizon(horizon, ms(10))
        with pytest.raises(ConfigurationError, match="horizon must be an int of ns or a string"):
            run_simulation(_one_task(), horizon=horizon)

    def test_nonpositive_horizon_rejected(self):
        with pytest.raises(ConfigurationError, match="> 0"):
            run_simulation(_one_task(), horizon=0)


class TestPolicyLabel:
    def test_labels(self):
        assert policy_label(PolicyConfig()) == "G-EDF"
        assert policy_label(
            PolicyConfig(
                mapping_scheme=MappingScheme.PARTITIONED,
                priority_assignment=PriorityAssignment.RM,
            )
        ) == "P-RM"
        assert policy_label(
            PolicyConfig(
                mapping_scheme=MappingScheme.OFFLINE,
                preemptive=False,
                version_selection=VersionSelection.PRESELECTED,
            )
        ) == "O-TABLE"


class TestThreadOnlyKnobs:
    """waiting_strategy and locking_strategy act only on the thread backend."""

    @pytest.mark.parametrize("waiting", list(WaitingStrategy))
    @pytest.mark.parametrize("locking", list(LockingStrategy))
    def test_same_run_and_one_warning_off_default(self, waiting, locking):
        doc = load_document(os.path.join(DEMOS, "drone.json"))

        def run(config):
            trace, report = run_simulation(doc.build_state(config), doc.sim_model(),
                                           horizon="2hp", seed=3, keep_trace="csv")
            return trace, [w for w in report.warnings if "thread backend" in w]

        default = doc.config()
        trace, warnings = run(dataclasses.replace(
            default, waiting_strategy=waiting, locking_strategy=locking))
        assert run(default) == (trace, [])
        if (waiting, locking) == (WaitingStrategy.SLEEP, LockingStrategy.OS_LOCK):
            assert warnings == []
        else:
            assert warnings == [
                "waiting_strategy and locking_strategy act only on the thread"
                " backend; the simulator does not model them"
            ]


class TestRestrict:
    def test_called_once_per_task_per_run(self):
        """Both tasks prefer the one GPU, so jobs re-select at dispatch;
        each task's pool is still resolved once, when the run starts."""
        state = init(PolicyConfig(worker_count=2))
        gpu = state.hwaccel_decl("gpu")
        for name in ("a", "b", "c"):
            tid = state.task_decl(name, TaskKind.PERIODIC, period=ms(10))
            v = state.version_decl(tid, wcet_estimate=ms(4), name="fast")
            state.hwaccel_use(tid, v, gpu)
            state.version_decl(tid, wcet_estimate=ms(6), name="slow")
        calls = []

        def restrict(task):
            calls.append(task.name)
            return task.versions[1:] if task.name == "c" else list(task.versions)

        for _ in range(2):
            calls.clear()
            trace, report = run_simulation(state, horizon=ms(100), restrict=restrict)
            assert sorted(calls) == ["a", "b", "c"]
            assert report.completed == 30
            starts = _events(trace, "job_start")
            assert {e.payload["version"] for e in starts if e.task == "c"} == {"slow"}
            assert {e.payload["version"] for e in starts if e.task != "c"} == {"fast", "slow"}
