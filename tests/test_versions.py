"""Version selection and the accelerator registry."""

import pytest

from rtsched import (
    BitmaskSelect,
    EnergySelect,
    EnergyTimeSelect,
    ModeSelect,
    PolicyConfig,
    SelectionError,
    TaskKind,
    UsageError,
    UserSelect,
    VersionSelection,
    init,
    ms,
)
# Internal names that rtsched does not export: imported from their modules.
from rtsched.priority import PriorityKey
from rtsched.versions import (
    AcceleratorRegistry,
    SelectionContext,
    eligible_versions,
    select_version,
)


class FakeJob:
    """Just enough of a job for the registry: identity, key, inheritance."""

    def __init__(self, job_id, key):
        self.job_id = job_id
        self.base_key = key
        self.boost = None

    def effective_key(self):
        if self.boost is not None and self.boost < self.base_key:
            return self.boost
        return self.base_key

    def inherit(self, key):
        if self.boost is None or key < self.boost:
            self.boost = key

    def clear_inheritance(self):
        self.boost = None


def _key(primary, task_id=0):
    return PriorityKey(0, primary, task_id, 0)


def _ctx(**kw):
    return SelectionContext(**kw)


def _state(method, nversions, accel_names=(), binds=(), selects=None):
    """One task, nversions versions, binds = [(version, accel)]"""
    state = init(PolicyConfig(version_selection=method))
    accels = {n: state.hwaccel_decl(n) for n in accel_names}
    tid = state.task_decl("t", TaskKind.PERIODIC, period=ms(100))
    for i in range(nversions):
        sel = selects[i] if selects else None
        state.version_decl(tid, wcet_estimate=ms(1 + i), select=sel)
    for vid, accel in binds:
        state.hwaccel_use(tid, vid, accels[accel])
    return state, state.task(tid)


class TestRegistry:
    def test_acquire_and_release(self):
        reg = AcceleratorRegistry(2)
        job = FakeJob(0, _key(5))
        assert reg.acquire(job, {0, 1}) == []
        assert reg.busy(0) and reg.busy(1)
        assert reg.holders[0] is job
        assert reg.release_all(job) == [0, 1]
        assert not reg.busy(0) and not reg.busy(1)

    def test_acquire_busy_claims_nothing(self):
        reg = AcceleratorRegistry(2)
        reg.acquire(FakeJob(0, _key(5)), {0})
        contender = FakeJob(1, _key(3))
        assert reg.acquire(contender, {0, 1}) == [0]
        # the failed acquire must not have claimed the free unit
        assert not reg.busy(1)

    def test_double_acquire_same_job_rejected(self):
        reg = AcceleratorRegistry(1)
        job = FakeJob(0, _key(5))
        reg.acquire(job, {0})
        with pytest.raises(Exception, match="twice"):
            reg.acquire(job, {0})

    def test_inheritance_boosts_lower_ranked_holder(self):
        reg = AcceleratorRegistry(1)
        lo = FakeJob(0, _key(9, task_id=0))
        reg.acquire(lo, {0})
        hi = FakeJob(1, _key(1, task_id=1))
        boosted = reg.apply_inheritance(hi, [0])
        assert boosted == [lo]
        assert lo.effective_key() == hi.effective_key()

    def test_inheritance_skips_higher_ranked_holder(self):
        reg = AcceleratorRegistry(1)
        hi = FakeJob(0, _key(1, task_id=0))
        reg.acquire(hi, {0})
        lo = FakeJob(1, _key(9, task_id=1))
        assert reg.apply_inheritance(lo, [0]) == []
        assert hi.boost is None

    def test_inheritance_disabled(self):
        reg = AcceleratorRegistry(1, pip_enabled=False)
        lo = FakeJob(0, _key(9))
        reg.acquire(lo, {0})
        assert reg.apply_inheritance(FakeJob(1, _key(1, task_id=1)), [0]) == []
        assert lo.boost is None

    def test_release_drops_inheritance(self):
        reg = AcceleratorRegistry(1)
        lo = FakeJob(0, _key(9))
        reg.acquire(lo, {0})
        reg.apply_inheritance(FakeJob(1, _key(1, task_id=1)), [0])
        assert lo.boost is not None
        reg.release_all(lo)
        assert lo.boost is None

    def test_release_without_holds_is_noop(self):
        reg = AcceleratorRegistry(1)
        assert reg.release_all(FakeJob(7, _key(1))) == []


class TestEligibility:
    def test_filters_versions_on_busy_accelerators(self):
        state, task = _state(
            VersionSelection.PRESELECTED,
            2,
            accel_names=("gpu",),
            binds=[(0, "gpu")],
        )
        reg = AcceleratorRegistry(1)
        assert [v.version_id for v in eligible_versions(task.versions, reg)] == [0, 1]
        reg.acquire(FakeJob(0, _key(1)), {0})
        assert [v.version_id for v in eligible_versions(task.versions, reg)] == [1]


class TestSelection:
    def test_preselected_takes_first_free(self):
        state, task = _state(
            VersionSelection.PRESELECTED,
            2,
            accel_names=("gpu",),
            binds=[(0, "gpu")],
        )
        reg = AcceleratorRegistry(1)
        v = select_version(VersionSelection.PRESELECTED, task, _ctx(), reg)
        assert v.version_id == 0
        reg.acquire(FakeJob(9, _key(1)), {0})  # someone grabs the gpu
        v = select_version(VersionSelection.PRESELECTED, task, _ctx(), reg)
        assert v.version_id == 1  # busy-accelerator avoidance

    def test_all_blocked_falls_back_to_pool(self):
        # nothing avoids the busy unit: selection still yields a version,
        # the dispatch path is what waits or inherits
        state, task = _state(
            VersionSelection.PRESELECTED,
            1,
            accel_names=("gpu",),
            binds=[(0, "gpu")],
        )
        reg = AcceleratorRegistry(1)
        reg.acquire(FakeJob(9, _key(1)), {0})
        v = select_version(VersionSelection.PRESELECTED, task, _ctx(), reg)
        assert v.version_id == 0

    def test_empty_pool_raises(self):
        state, task = _state(VersionSelection.PRESELECTED, 1)
        reg = AcceleratorRegistry(0)
        with pytest.raises(SelectionError, match="no versions"):
            select_version(VersionSelection.PRESELECTED, task, _ctx(), reg, pool=[])

    def test_explicit_pool_restricts(self):
        state, task = _state(VersionSelection.PRESELECTED, 3)
        reg = AcceleratorRegistry(0)
        v = select_version(
            VersionSelection.PRESELECTED, task, _ctx(), reg,
            pool=[task.versions[2]],
        )
        assert v.version_id == 2

    def test_mode_match(self):
        selects = [
            ModeSelect(mode_mask=frozenset({"day"})),
            ModeSelect(mode_mask=frozenset({"night", "dusk"})),
        ]
        state, task = _state(VersionSelection.MODE, 2, selects=selects)
        reg = AcceleratorRegistry(0)
        ctx = _ctx(execution_mode=frozenset({"night"}))
        assert select_version(VersionSelection.MODE, task, ctx, reg).version_id == 1

    def test_mode_no_match_raises(self):
        selects = [ModeSelect(mode_mask=frozenset({"day"}))]
        state, task = _state(VersionSelection.MODE, 1, selects=selects)
        reg = AcceleratorRegistry(0)
        ctx = _ctx(execution_mode=frozenset({"night"}))
        with pytest.raises(SelectionError, match="execution mode"):
            select_version(VersionSelection.MODE, task, ctx, reg)

    def test_bitmask_match_first_wins(self):
        selects = [
            BitmaskSelect(permission_mask=frozenset({"admin"})),
            BitmaskSelect(permission_mask=frozenset({"user"})),
            BitmaskSelect(permission_mask=frozenset({"user", "admin"})),
        ]
        state, task = _state(VersionSelection.BITMASK, 3, selects=selects)
        reg = AcceleratorRegistry(0)
        ctx = _ctx(permission_mask=frozenset({"user"}))
        assert select_version(VersionSelection.BITMASK, task, ctx, reg).version_id == 1

    def test_bitmask_no_match_raises(self):
        selects = [BitmaskSelect(permission_mask=frozenset({"admin"}))]
        state, task = _state(VersionSelection.BITMASK, 1, selects=selects)
        reg = AcceleratorRegistry(0)
        with pytest.raises(SelectionError, match="permission mask"):
            select_version(
                VersionSelection.BITMASK, task,
                _ctx(permission_mask=frozenset({"user"})), reg,
            )

    def test_energy_time_alpha_tradeoff(self):
        selects = [
            EnergyTimeSelect(energy_cost=9.0, exec_time=ms(10)),
            EnergyTimeSelect(energy_cost=1.0, exec_time=ms(90)),
        ]
        state, task = _state(VersionSelection.ENERGY_TIME, 2, selects=selects)
        reg = AcceleratorRegistry(0)
        fastest = select_version(
            VersionSelection.ENERGY_TIME, task, _ctx(alpha=1.0), reg
        )
        assert fastest.version_id == 0
        frugal = select_version(
            VersionSelection.ENERGY_TIME, task, _ctx(alpha=0.0), reg
        )
        assert frugal.version_id == 1

    def test_alpha_out_of_range_rejected(self):
        with pytest.raises(UsageError, match="alpha"):
            SelectionContext(alpha=1.5)

    def test_energy_budget_fits_battery(self):
        selects = [
            EnergySelect(energy_budget=80.0),
            EnergySelect(energy_budget=20.0),
        ]
        state, task = _state(VersionSelection.ENERGY, 2, selects=selects)
        reg = AcceleratorRegistry(0)
        # plenty of battery: both fit, fastest (smallest wcet) wins
        ctx = _ctx(battery_probe=lambda: 100.0)
        assert select_version(VersionSelection.ENERGY, task, ctx, reg).version_id == 0
        # low battery: only the frugal budget fits
        ctx = _ctx(battery_probe=lambda: 50.0)
        assert select_version(VersionSelection.ENERGY, task, ctx, reg).version_id == 1

    def test_energy_nothing_affordable_degrades_to_cheapest(self):
        selects = [
            EnergySelect(energy_budget=80.0),
            EnergySelect(energy_budget=20.0),
        ]
        state, task = _state(VersionSelection.ENERGY, 2, selects=selects)
        reg = AcceleratorRegistry(0)
        ctx = _ctx(battery_probe=lambda: 5.0)
        assert select_version(VersionSelection.ENERGY, task, ctx, reg).version_id == 1

    def test_energy_per_version_probe_overrides_context(self):
        selects = [
            EnergySelect(energy_budget=80.0, get_battery_status=lambda: 90.0),
        ]
        state, task = _state(VersionSelection.ENERGY, 1, selects=selects)
        reg = AcceleratorRegistry(0)
        ctx = _ctx(battery_probe=lambda: 0.0)
        assert select_version(VersionSelection.ENERGY, task, ctx, reg).version_id == 0

    def test_energy_without_probe_raises(self):
        selects = [EnergySelect(energy_budget=10.0)]
        state, task = _state(VersionSelection.ENERGY, 1, selects=selects)
        reg = AcceleratorRegistry(0)
        with pytest.raises(SelectionError, match="battery probe"):
            select_version(VersionSelection.ENERGY, task, _ctx(), reg)

    def test_user_callback_picks_by_id(self):
        seen = []

        def pick(task, versions, ctx):
            seen.append([v.version_id for v in versions])
            return versions[-1].version_id

        state = init(PolicyConfig(version_selection=VersionSelection.USER))
        tid = state.task_decl("t", TaskKind.PERIODIC, period=ms(100))
        state.version_decl(tid, wcet_estimate=1, select=UserSelect(selector=pick))
        state.version_decl(tid, wcet_estimate=2, select=UserSelect(selector=pick))
        reg = AcceleratorRegistry(0)
        v = select_version(VersionSelection.USER, state.task(tid), _ctx(), reg)
        assert v.version_id == 1
        assert seen == [[0, 1]]

    def test_user_selector_gets_its_own_list(self):
        # every version needs the busy gpu, so the candidates fall back to
        # the pool; a selector that empties its list changes nothing else
        def pick(task, versions, ctx):
            chosen = versions[0].version_id
            versions.clear()
            return chosen

        state = init(PolicyConfig(version_selection=VersionSelection.USER))
        gpu = state.hwaccel_decl("gpu")
        tid = state.task_decl("t", TaskKind.PERIODIC, period=ms(100))
        for wcet in (1, 2):
            vid = state.version_decl(tid, wcet_estimate=wcet, select=UserSelect(selector=pick))
            state.hwaccel_use(tid, vid, gpu)
        task = state.task(tid)
        reg = AcceleratorRegistry(1)
        assert reg.acquire(FakeJob((9, 0), _key(0)), [gpu]) == []
        pool = list(task.versions)
        for given in (None, pool):
            v = select_version(VersionSelection.USER, task, _ctx(), reg, pool=given)
            assert v.version_id == 0
        assert len(task.versions) == 2 and len(pool) == 2

    def test_user_callback_bogus_id_rejected(self):
        def pick(task, versions, ctx):
            return 42

        state = init(PolicyConfig(version_selection=VersionSelection.USER))
        tid = state.task_decl("t", TaskKind.PERIODIC, period=ms(100))
        state.version_decl(tid, wcet_estimate=1, select=UserSelect(selector=pick))
        reg = AcceleratorRegistry(0)
        with pytest.raises(UsageError, match="not eligible"):
            select_version(VersionSelection.USER, state.task(tid), _ctx(), reg)
