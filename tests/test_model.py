"""Declarations, config checks, lifecycle phases."""

import re
import sys

import pytest

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
    Phase,
    PhaseError,
    PolicyConfig,
    PriorityAssignment,
    TaskKind,
    TaskSetDocument,
    UsageError,
    ValidationError,
    VersionSelection,
    analyze_graph,
    init,
    ms,
    run_simulation,
    us,
)


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
