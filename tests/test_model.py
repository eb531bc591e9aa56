"""Declarations, config checks, lifecycle phases."""

import os
import re
import sys

import pytest

import rtsched
from rtsched import (
    BitmaskSelect,
    ClockSource,
    ConfigurationError,
    DeclarationError,
    Diagnostic,
    EnergySelect,
    EnergyTimeSelect,
    MappingScheme,
    ModeSelect,
    PhaseError,
    PolicyConfig,
    PriorityAssignment,
    TaskKind,
    TaskSetDocument,
    UsageError,
    ValidationError,
    VersionSelection,
    channel_connect,
    channel_decl,
    init,
    ms,
    run_simulation,
    us,
)
# Internal names that rtsched does not export: imported from their modules.
from rtsched.graph import analyze_graph
from rtsched.model import Phase


def test_time_helpers():
    assert ms(1) == 1_000_000
    assert us(1) == 1_000
    assert ms(0.5) == 500_000
    assert us(2.5) == 2_500


class TestPolicyConfig:
    def test_defaults_pass(self):
        PolicyConfig().check()

    def test_offline_forbids_preemption(self):
        cfg = PolicyConfig(mapping_scheme=MappingScheme.OFFLINE, preemptive=True)
        with pytest.raises(ConfigurationError, match="OFFLINE forbids preemption"):
            cfg.check()

    def test_offline_requires_preselected(self):
        cfg = PolicyConfig(
            mapping_scheme=MappingScheme.OFFLINE,
            preemptive=False,
            version_selection=VersionSelection.ENERGY,
        )
        with pytest.raises(ConfigurationError, match="PRESELECTED"):
            cfg.check()

    def test_worker_count_positive(self):
        with pytest.raises(ConfigurationError):
            PolicyConfig(worker_count=0).check()

    @pytest.mark.parametrize("count", [1.0, True, None])
    def test_worker_count_is_an_int(self, count):
        # a float died in math.gcd mid-run; True ran as one worker
        with pytest.raises(ConfigurationError,
                           match=rf"^worker_count must be >= 1 and an int, not {count!r}$"):
            init(PolicyConfig(worker_count=count))


class TestTaskDecl:
    def test_periodic_needs_period(self):
        state = init(PolicyConfig())
        with pytest.raises(DeclarationError, match="needs period"):
            state.task_decl("t", TaskKind.PERIODIC)

    def test_implicit_deadline_equals_period(self):
        state = init(PolicyConfig())
        tid = state.task_decl("t", TaskKind.PERIODIC, period=ms(10))
        assert state.task(tid).relative_deadline == ms(10)

    def test_explicit_deadline_kept(self):
        state = init(PolicyConfig())
        tid = state.task_decl(
            "t", TaskKind.PERIODIC, period=ms(10), relative_deadline=ms(4)
        )
        assert state.task(tid).relative_deadline == ms(4)

    def test_duplicate_name_rejected(self):
        state = init(PolicyConfig())
        state.task_decl("t", TaskKind.PERIODIC, period=ms(10))
        with pytest.raises(DeclarationError, match="already"):
            state.task_decl("t", TaskKind.PERIODIC, period=ms(20))

    def test_aperiodic_takes_no_period(self):
        state = init(PolicyConfig())
        with pytest.raises(DeclarationError, match="no period"):
            state.task_decl("a", TaskKind.APERIODIC, period=ms(5))

    def test_partitioned_requires_core(self):
        state = init(PolicyConfig(mapping_scheme=MappingScheme.PARTITIONED))
        with pytest.raises(DeclarationError, match="virt_core_id"):
            state.task_decl("t", TaskKind.PERIODIC, period=ms(10))

    def test_core_range_checked(self):
        state = init(
            PolicyConfig(mapping_scheme=MappingScheme.PARTITIONED, worker_count=2)
        )
        with pytest.raises(DeclarationError, match="out of range"):
            state.task_decl("t", TaskKind.PERIODIC, period=ms(10), virt_core_id=2)

    def test_global_ignores_core_requirement(self):
        state = init(PolicyConfig())
        tid = state.task_decl("t", TaskKind.PERIODIC, period=ms(10))
        assert state.task(tid).virt_core_id is None


class TestVersionDecl:
    def test_wcet_positive(self):
        state = init(PolicyConfig())
        tid = state.task_decl("t", TaskKind.PERIODIC, period=ms(10))
        with pytest.raises(DeclarationError, match="wcet"):
            state.version_decl(tid, wcet_estimate=0)

    def test_preselected_needs_no_props(self):
        state = init(PolicyConfig())
        tid = state.task_decl("t", TaskKind.PERIODIC, period=ms(10))
        vid = state.version_decl(tid, wcet_estimate=ms(1))
        assert state.task(tid).version(vid).name == "v0"

    def test_variant_must_match_method(self):
        state = init(
            PolicyConfig(version_selection=VersionSelection.ENERGY_TIME)
        )
        tid = state.task_decl("t", TaskKind.PERIODIC, period=ms(10))
        with pytest.raises(DeclarationError, match="expects EnergyTimeSelect"):
            state.version_decl(
                tid, wcet_estimate=ms(1), select=EnergySelect(energy_budget=1.0)
            )
        with pytest.raises(DeclarationError, match="got none"):
            state.version_decl(tid, wcet_estimate=ms(1))
        state.version_decl(
            tid,
            wcet_estimate=ms(1),
            select=EnergyTimeSelect(energy_cost=1.0, exec_time=ms(1)),
        )

    @pytest.mark.parametrize("cost, time", [(float("nan"), ms(1)), (float("inf"), ms(1)),
                                            (1.0, float("nan"))])
    def test_energy_time_props_must_be_finite(self, cost, time):
        state = init(PolicyConfig(version_selection=VersionSelection.ENERGY_TIME))
        tid = state.task_decl("t", TaskKind.PERIODIC, period=ms(10))
        with pytest.raises(DeclarationError, match="must be finite"):
            state.version_decl(tid, wcet_estimate=ms(1),
                               select=EnergyTimeSelect(energy_cost=cost, exec_time=time))

    def test_mode_mask_non_empty(self):
        state = init(PolicyConfig(version_selection=VersionSelection.MODE))
        tid = state.task_decl("t", TaskKind.PERIODIC, period=ms(10))
        with pytest.raises(DeclarationError, match="mode_mask"):
            state.version_decl(
                tid, wcet_estimate=ms(1), select=ModeSelect(mode_mask=frozenset())
            )

    def test_bitmask_non_empty(self):
        state = init(PolicyConfig(version_selection=VersionSelection.BITMASK))
        tid = state.task_decl("t", TaskKind.PERIODIC, period=ms(10))
        with pytest.raises(DeclarationError, match="permission_mask"):
            state.version_decl(
                tid, wcet_estimate=ms(1), select=BitmaskSelect(permission_mask=0)
            )

    def test_version_names_default_in_order(self):
        state = init(PolicyConfig())
        tid = state.task_decl("t", TaskKind.PERIODIC, period=ms(10))
        state.version_decl(tid, wcet_estimate=1)
        vid = state.version_decl(tid, wcet_estimate=2, name="gpu")
        task = state.task(tid)
        assert [v.name for v in task.versions] == ["v0", "gpu"]
        assert task.version(vid).wcet_estimate == 2


    def test_version_names_unique_within_a_task(self):
        state = init(PolicyConfig())
        a = state.task_decl("a", TaskKind.PERIODIC, period=ms(10))
        state.version_decl(a, wcet_estimate=1, name="x")
        with pytest.raises(DeclarationError, match="task 'a' already has a version named 'x'"):
            state.version_decl(a, wcet_estimate=2, name="x")
        state.version_decl(a, wcet_estimate=2, name="v2")
        with pytest.raises(DeclarationError, match="named 'v2'"):
            state.version_decl(a, wcet_estimate=3)  # the default name of version 2
        b = state.task_decl("b", TaskKind.PERIODIC, period=ms(10))
        state.version_decl(b, wcet_estimate=1, name="x")  # another task may reuse it
        assert [v.name for v in state.task(a).versions] == ["x", "v2"]


class TestAccelerators:
    def test_decl_and_use(self):
        state = init(PolicyConfig())
        acc = state.hwaccel_decl("gpu")
        tid = state.task_decl("t", TaskKind.PERIODIC, period=ms(10))
        vid = state.version_decl(tid, wcet_estimate=1)
        state.hwaccel_use(tid, vid, acc)
        state.hwaccel_use(tid, vid, acc)  # idempotent
        assert state.task(tid).version(vid).accelerators == {acc}

    def test_duplicate_accel_name(self):
        state = init(PolicyConfig())
        state.hwaccel_decl("gpu")
        with pytest.raises(DeclarationError, match="already declared"):
            state.hwaccel_decl("gpu")

    def test_unknown_accel_id(self):
        state = init(PolicyConfig())
        tid = state.task_decl("t", TaskKind.PERIODIC, period=ms(10))
        vid = state.version_decl(tid, wcet_estimate=1)
        with pytest.raises(DeclarationError, match="unknown accelerator"):
            state.hwaccel_use(tid, vid, 0)


class TestIntArguments:
    """Counts, ids and ns times are ints, never bools or floats: period=True
    declared a 1 ns period, and a float period died in math.gcd mid-run."""

    @pytest.mark.parametrize("call, arg, value", [
        ("task_decl", "period", True),
        ("task_decl", "period", 1.5e6),
        ("task_decl", "relative_deadline", 2.5e6),
        ("task_decl", "release_offset", 0.5),
        ("task_decl", "release_offset", -1),
        ("task_decl", "virt_core_id", 1.0),
        ("version_decl", "wcet_estimate", 1.5),
        ("version_decl", "wcet_estimate", True),
        ("hwaccel_use", "accel_id", 0.0),
        ("hwaccel_use", "accel_id", True),
        ("channel_decl", "element_size", 1.5),
        ("channel_decl", "capacity", False),
        ("channel_connect", "required_tokens", 2.0),
        ("channel_connect", "push_count", True),
    ])
    def test_declaration_names_the_argument(self, call, arg, value):
        state = init(PolicyConfig(mapping_scheme=MappingScheme.PARTITIONED))
        state.hwaccel_decl("gpu")
        state.hwaccel_decl("dsp")
        a = state.task_decl("a", TaskKind.PERIODIC, period=ms(10), virt_core_id=0)
        b = state.task_decl("b", TaskKind.GRAPH_NODE, virt_core_id=0)
        state.version_decl(a, wcet_estimate=ms(1))
        cid = channel_decl(state, "ab", element_size=4, capacity=1)
        calls = {
            "task_decl": lambda **kw: state.task_decl(
                "t", TaskKind.PERIODIC, **{"period": ms(10), "virt_core_id": 0, **kw}),
            "version_decl": lambda **kw: state.version_decl(a, **kw),
            "hwaccel_use": lambda **kw: state.hwaccel_use(a, 0, **kw),
            "channel_decl": lambda **kw: channel_decl(
                state, "c", **{"element_size": 4, "capacity": 1, **kw}),
            "channel_connect": lambda **kw: channel_connect(state, cid, a, b, **kw),
        }
        with pytest.raises(DeclarationError,
                           match=rf"^{arg} must be \S+ \d+ and an int, not {re.escape(repr(value))}$"):
            calls[call](**{arg: value})


class TestTaskIdArguments:
    """Task ids and user priorities follow the same int rule, checked by
    the entry points that take them: a task id of True named task 1, 0.0
    died indexing the task list, and user_priority=1.5 declared a state
    that the document writer then refused."""

    @staticmethod
    def _state(**config):
        state = init(PolicyConfig(**config))
        rtsched.hwaccel_decl(state, "gpu")
        for name in ("a", "b"):
            tid = rtsched.task_decl(state, name, TaskKind.SPORADIC, period=ms(10))
            rtsched.version_decl(state, tid, wcet_estimate=ms(1))
        return state

    @staticmethod
    def _refused(name, value):
        return pytest.raises(
            DeclarationError, match=rf"^{name} must be >= 0 and an int, not {value!r}$")

    @pytest.mark.parametrize("value", [True, 0.0])
    def test_version_decl_task_id(self, value):
        state = self._state()
        with self._refused("task_id", value):
            rtsched.version_decl(state, value, wcet_estimate=ms(1))
        assert [len(t.versions) for t in state.tasks] == [1, 1]

    @pytest.mark.parametrize("value", [True, 0.0])
    def test_hwaccel_use_task_id(self, value):
        state = self._state()
        with self._refused("task_id", value):
            rtsched.hwaccel_use(state, value, 0, 0)
        with self._refused("version_id", value):
            rtsched.hwaccel_use(state, 0, value, 0)
        assert all(not v.accelerators for t in state.tasks for v in t.versions)

    @pytest.mark.parametrize("value", [True, 1.0])
    def test_task_activate_task_id(self, value):
        state = self._state()
        rtsched.start(state)
        with self._refused("task_id", value):
            rtsched.task_activate(state, value, now=0)

    @pytest.mark.parametrize("end", ["src_task", "dst_task"])
    @pytest.mark.parametrize("value", [True, 0.0])
    def test_channel_connect_task_id(self, end, value):
        state = self._state()
        cid = channel_decl(state, "ab", element_size=4, capacity=1)
        ends = {"src_task": 0, "dst_task": 1, end: value}
        with self._refused(end, value):
            channel_connect(state, cid, ends["src_task"], ends["dst_task"])
        assert (state.channels[cid].src, state.channels[cid].dst) == (None, None)

    @pytest.mark.parametrize("value", [1.5, True])
    def test_virt_core_id_is_an_int_under_global_mapping(self, value):
        state = init(PolicyConfig())
        with self._refused("virt_core_id", value):
            rtsched.task_decl(state, "t", TaskKind.PERIODIC, period=ms(10), virt_core_id=value)
        assert state.tasks == []

    @pytest.mark.parametrize("value", [1.5, True, "1"])
    def test_user_priority_is_an_int(self, value):
        state = init(PolicyConfig(priority_assignment=PriorityAssignment.USER))
        with pytest.raises(DeclarationError,
                           match=rf"^user_priority must be an int, not {re.escape(repr(value))}$"):
            rtsched.task_decl(state, "t", TaskKind.PERIODIC, period=ms(10), user_priority=value)
        assert state.tasks == []
        rtsched.task_decl(state, "t", TaskKind.PERIODIC, period=ms(10), user_priority=-3)
        assert state.tasks[0].user_priority == -3


class TestPayloadSeparatorsInNames:
    """Task, version and accelerator names reach trace payloads (`by=`,
    `version=`, `accel=`), whose `key=value;...` encoding has no escape,
    and trace CSV fields, where Python 3.11's csv.writer leaves a lone
    '\r' unquoted, so the trace would not read back."""

    @pytest.mark.parametrize("name", ["hi;switch=5", "a;b", "k=v", "a\rb", "a\nb"])
    def test_task_name(self, name):
        state = init(PolicyConfig())
        with pytest.raises(DeclarationError, match=re.escape(repr(name))):
            state.task_decl(name, TaskKind.PERIODIC, period=ms(10))

    @pytest.mark.parametrize("name", ["fast;x=1", "a;b", "k=v", "a\r", "\r\n"])
    def test_version_name(self, name):
        state = init(PolicyConfig())
        tid = state.task_decl("t", TaskKind.PERIODIC, period=ms(10))
        with pytest.raises(DeclarationError, match=re.escape(repr(name))):
            state.version_decl(tid, wcet_estimate=1, name=name)

    @pytest.mark.parametrize("name", ["gpu;x=1", "a;b", "k=v", "a\rb", "a\nb"])
    def test_accelerator_name(self, name):
        state = init(PolicyConfig())
        with pytest.raises(DeclarationError, match=re.escape(repr(name))):
            state.hwaccel_decl(name)

    def test_document_fails_at_build(self):
        doc = TaskSetDocument.from_dict({
            "tasks": [{"name": "t;x=1", "kind": "periodic", "period": ms(10)}],
            "versions": [{"task": "t;x=1", "wcet_estimate": ms(1)}],
        })
        with pytest.raises(DeclarationError, match=re.escape("'t;x=1'")):
            doc.build_state()


class TestActivation:
    @pytest.fixture
    def running(self, many_cpus):
        """Start a thread-backend run with one task of `kind`; stop it at
        the end of the test."""
        states = []

        def start(kind):
            state = init(PolicyConfig(clock_source=ClockSource.MONOTONIC_OS,
                                      worker_count=1))
            state.task_decl("base", TaskKind.PERIODIC, period=ms(10))
            state.version_decl(0, wcet_estimate=1)
            tid = state.task_decl(
                "s",
                kind,
                period=ms(5) if kind is TaskKind.SPORADIC else None,
                relative_deadline=ms(5),
            )
            state.version_decl(tid, wcet_estimate=1)
            state.start()
            states.append(state)
            return state, tid

        yield start
        for state in states:
            if state.phase is Phase.RUNNING:
                state.stop()

    def test_sporadic_min_separation(self, running):
        state, tid = running(TaskKind.SPORADIC)
        assert state.task_activate(tid, now=0) == 0
        # too soon: deferred to last release + period
        assert state.task_activate(tid, now=ms(2)) == ms(5)
        assert state.task_activate(tid, now=ms(11)) == ms(11)

    def test_restart_forgets_earlier_activations(self, running):
        # each start() is a fresh run whose clock begins at 0 again
        state, tid = running(TaskKind.SPORADIC)
        assert state.task_activate(tid, now=ms(50)) == ms(50)
        state.stop()
        state.start()
        assert state.task_activate(tid, now=ms(1)) == ms(1)

    def test_aperiodic_immediate(self, running):
        state, tid = running(TaskKind.APERIODIC)
        assert state.task_activate(tid, now=ms(3)) == ms(3)
        assert state.task_activate(tid, now=ms(3)) == ms(3)

    def test_virtual_clock_rejects_activate(self):
        # the simulator reads its activations from the job model only
        state = init(PolicyConfig())
        state.task_decl("base", TaskKind.PERIODIC, period=ms(10))
        state.version_decl(0, wcet_estimate=1)
        tid = state.task_decl("a", TaskKind.APERIODIC, relative_deadline=ms(5))
        state.version_decl(tid, wcet_estimate=1)
        state.start()
        with pytest.raises(UsageError, match=r"SimJobModel\.activations"):
            state.task_activate(tid, now=0)

    def test_periodic_rejects_activate(self):
        state = init(PolicyConfig())
        tid = state.task_decl("t", TaskKind.PERIODIC, period=ms(10))
        state.version_decl(tid, wcet_estimate=1)
        state.start()
        with pytest.raises(UsageError, match="self-release"):
            state.task_activate(tid, now=0)

    def test_activate_requires_running(self):
        state = init(PolicyConfig())
        tid = state.task_decl("s", TaskKind.SPORADIC, period=ms(5))
        state.version_decl(tid, wcet_estimate=1)
        with pytest.raises(PhaseError):
            state.task_activate(tid, now=0)


class TestLifecycle:
    def _simple(self):
        state = init(PolicyConfig())
        tid = state.task_decl("t", TaskKind.PERIODIC, period=ms(10))
        state.version_decl(tid, wcet_estimate=1)
        return state

    def test_phases(self):
        state = self._simple()
        assert state.phase is Phase.INITIALIZED
        state.start()
        assert state.phase is Phase.RUNNING
        state.stop()
        assert state.phase is Phase.STOPPED
        state.cleanup()
        assert state.phase is Phase.CLEANED

    def test_backend_starts_in_running_phase(self):
        # backend threads may call task_activate as soon as they run
        class Backend:
            fail = False

            def start(self):
                seen.append(state.phase)
                if self.fail:
                    raise OSError("no threads")

            def stop(self):
                pass

        seen = []
        state = self._simple()
        state._backend = Backend()
        state.start()
        state.stop()
        state._backend.fail = True
        with pytest.raises(OSError):
            state.start()
        assert seen == [Phase.RUNNING, Phase.RUNNING]
        assert state.phase is Phase.STOPPED

    def test_declarations_frozen_after_start(self):
        state = self._simple()
        state.start()
        with pytest.raises(PhaseError):
            state.task_decl("late", TaskKind.PERIODIC, period=ms(5))

    def test_start_validates(self):
        state = init(PolicyConfig())
        state.task_decl("t", TaskKind.PERIODIC, period=ms(10))  # no version
        with pytest.raises(ValidationError, match="no-version"):
            state.start()

    def test_stop_requires_running(self):
        state = self._simple()
        with pytest.raises(PhaseError):
            state.stop()

    def test_cleanup_terminal(self):
        state = self._simple()
        state.start()
        state.stop()
        state.cleanup()
        with pytest.raises(PhaseError):
            state.start()

    @pytest.mark.parametrize("clock", list(ClockSource))
    def test_graph_analysed_once_per_run(self, monkeypatch, clock):
        # count calls under every name the function is bound to
        calls = []
        for name, mod in list(sys.modules.items()):
            bound = getattr(mod, "analyze_graph", None)
            if name.startswith("rtsched") and bound is analyze_graph:
                monkeypatch.setattr(
                    mod, "analyze_graph", lambda s: calls.append(s) or analyze_graph(s)
                )
        state = init(PolicyConfig(clock_source=clock))
        tid = state.task_decl("t", TaskKind.PERIODIC, period=ms(10))
        state.version_decl(tid, wcet_estimate=1)
        runs = 0
        if clock is ClockSource.VIRTUAL:
            run_simulation(state)
            runs += 1
            assert len(calls) == runs
        for _ in range(2):
            state.start()
            state.stop()
            runs += 1
            assert len(calls) == runs

    def test_free_functions_walk_the_lifecycle(self):
        """The paper's calls in order under VIRTUAL: each declaration,
        start, stop and cleanup refused outside its phases, and
        task_activate refused without a thread backend."""
        state = init(PolicyConfig())
        gpu = rtsched.hwaccel_decl(state, "gpu")
        tid = rtsched.task_decl(state, "t", TaskKind.PERIODIC, period=ms(10))
        sid = rtsched.task_decl(state, "s", TaskKind.SPORADIC, period=ms(5))
        v = rtsched.version_decl(state, tid, wcet_estimate=ms(1))
        rtsched.version_decl(state, sid, wcet_estimate=ms(1))
        rtsched.hwaccel_use(state, tid, v, gpu)
        assert state.tasks[tid].versions[v].accelerators == {gpu}
        declarations = (
            lambda: rtsched.hwaccel_decl(state, "dsp"),
            lambda: rtsched.hwaccel_use(state, sid, 0, gpu),
            lambda: rtsched.task_decl(state, "late", TaskKind.PERIODIC, period=ms(5)),
            lambda: rtsched.version_decl(state, tid, wcet_estimate=ms(1)),
        )
        for call in (lambda: rtsched.task_activate(state, sid),
                     lambda: rtsched.stop(state), lambda: rtsched.cleanup(state)):
            with pytest.raises(PhaseError):
                call()
        rtsched.start(state)
        assert state.phase is Phase.RUNNING
        for call in (*declarations, lambda: rtsched.start(state), lambda: rtsched.cleanup(state)):
            with pytest.raises(PhaseError):
                call()
        with pytest.raises(UsageError, match="needs a thread-backend run"):
            rtsched.task_activate(state, sid)
        rtsched.stop(state)
        assert state.phase is Phase.STOPPED
        with pytest.raises(PhaseError):
            rtsched.task_activate(state, sid)
        rtsched.cleanup(state)
        assert state.phase is Phase.CLEANED
        for call in (*declarations, lambda: rtsched.start(state),
                     lambda: rtsched.stop(state), lambda: rtsched.cleanup(state)):
            with pytest.raises(PhaseError):
                call()

    @pytest.mark.skipif(
        len(os.sched_getaffinity(0)) < 2,
        reason="a one-worker thread-backend run needs 2 processors (worker + scheduler)",
    )
    def test_free_functions_run_the_thread_backend(self):
        state = init(PolicyConfig(clock_source=ClockSource.MONOTONIC_OS, worker_count=1))
        tid = rtsched.task_decl(state, "t", TaskKind.PERIODIC, period=ms(10))
        sid = rtsched.task_decl(state, "s", TaskKind.SPORADIC, period=ms(5))
        rtsched.version_decl(state, tid, wcet_estimate=us(10))
        rtsched.version_decl(state, sid, wcet_estimate=us(10))
        rtsched.start(state)
        try:
            assert rtsched.task_activate(state, sid, now=0) == 0
            assert rtsched.task_activate(state, sid, now=ms(1)) == ms(5)
        finally:
            rtsched.stop(state)
        rtsched.cleanup(state)
        assert state.phase is Phase.CLEANED

    def test_restart_after_stop(self):
        state = self._simple()
        state.start()
        state.stop()
        state.start()
        assert state.phase is Phase.RUNNING


class TestValidate:
    def test_empty_state(self):
        diags = init(PolicyConfig()).validate()
        assert any(d.code == "empty" for d in diags)

    def test_missing_version(self):
        state = init(PolicyConfig())
        state.task_decl("t", TaskKind.PERIODIC, period=ms(10))
        assert any(d.code == "no-version" for d in state.validate())

    def test_aperiodic_needs_deadline(self):
        state = init(PolicyConfig())
        tid = state.task_decl("a", TaskKind.APERIODIC)
        state.version_decl(tid, wcet_estimate=1)
        assert any(d.code == "no-deadline" for d in state.validate())

    def test_user_priority_missing(self):
        state = init(
            PolicyConfig(priority_assignment=PriorityAssignment.USER)
        )
        tid = state.task_decl("t", TaskKind.PERIODIC, period=ms(10))
        state.version_decl(tid, wcet_estimate=1)
        assert any(d.code == "no-user-priority" for d in state.validate())

    def test_user_priority_ignored_warning(self):
        state = init(PolicyConfig())  # EDF
        tid = state.task_decl(
            "t", TaskKind.PERIODIC, period=ms(10), user_priority=3
        )
        state.version_decl(tid, wcet_estimate=1)
        warnings = [d for d in state.validate() if d.level == "warning"]
        assert any(d.code == "ignored-field" for d in warnings)

    def test_diagnostic_str(self):
        d = Diagnostic("error", "some-code", "something happened")
        assert str(d) == "error: [some-code] something happened"
