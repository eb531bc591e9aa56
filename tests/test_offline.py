"""Static dispatch table validation."""

from rtsched import (
    MappingScheme,
    PolicyConfig,
    ScheduleTable,
    TaskKind,
    VersionSelection,
    document_from_state,
    init,
    ms,
    validate_table,
)
from rtsched.cli import main


def _offline_state(worker_count=2):
    cfg = PolicyConfig(
        mapping_scheme=MappingScheme.OFFLINE,
        preemptive=False,
        version_selection=VersionSelection.PRESELECTED,
        worker_count=worker_count,
    )
    state = init(cfg)
    for i in range(2):
        tid = state.task_decl(
            f"t{i}", TaskKind.PERIODIC, period=ms(20), virt_core_id=i
        )
        state.version_decl(tid, wcet_estimate=ms(2))
    return state


def _codes(diags, level=None):
    return [d.code for d in diags if level is None or d.level == level]


class TestValidateTable:
    def test_clean_table(self):
        state = _offline_state()
        table = ScheduleTable(ms(20))
        table.add(0, 0, 0, 0)
        table.add(0, 0, 0, ms(10))
        table.add(1, 1, 0, ms(5))
        assert validate_table(state, table) == []

    def test_bad_period_short_circuits(self):
        state = _offline_state()
        table = ScheduleTable(0)
        table.add(99, 99, 99, -5)  # never inspected
        assert _codes(validate_table(state, table)) == ["table-period"]

    def test_unknown_core(self):
        state = _offline_state()
        table = ScheduleTable(ms(20))
        table.add(3, 0, 0, 0)
        assert _codes(validate_table(state, table)) == ["table-core"]

    def test_unknown_task_and_version(self):
        state = _offline_state()
        table = ScheduleTable(ms(20))
        table.add(0, 7, 0, 0)
        table.add(0, 0, 7, ms(5))
        assert _codes(validate_table(state, table)) == [
            "table-task",
            "table-version",
        ]

    def test_offset_outside_period(self):
        state = _offline_state()
        table = ScheduleTable(ms(20))
        table.add(0, 0, 0, ms(20))
        assert "table-offset" in _codes(validate_table(state, table))

    def test_placement_mismatch(self):
        state = _offline_state()
        table = ScheduleTable(ms(20))
        table.add(0, 1, 0, 0)  # t1 is pinned to core 1
        assert _codes(validate_table(state, table)) == ["table-placement"]

    def test_offsets_must_not_decrease(self):
        state = _offline_state()
        table = ScheduleTable(ms(20))
        table.add(0, 0, 0, ms(10))
        table.add(0, 0, 0, ms(5))
        assert "table-order" in _codes(validate_table(state, table))

    def test_overlap_is_a_warning(self):
        state = _offline_state()
        table = ScheduleTable(ms(20))
        table.add(0, 0, 0, 0)
        table.add(0, 0, 0, ms(1))  # wcet 2 ms: may still be running
        diags = validate_table(state, table)
        assert _codes(diags, "warning") == ["table-overlap"]
        assert _codes(diags, "error") == []

    def test_last_entry_spilling_into_next_iteration_warns(self):
        state = _offline_state()
        table = ScheduleTable(ms(20))
        table.add(0, 0, 0, ms(19))  # 19 + 2 > 20
        diags = validate_table(state, table)
        assert _codes(diags, "warning") == ["table-overlap"]

    def test_cores_validated_in_order(self):
        state = _offline_state()
        table = ScheduleTable(ms(20))
        table.add(1, 0, 0, 0)  # placement error on core 1
        table.add(0, 9, 0, 0)  # unknown task on core 0
        codes = _codes(validate_table(state, table))
        assert codes == ["table-task", "table-placement"]


class TestTableAccelerators:
    """OFFLINE starts entries without arbitrating accelerators, so entries on
    different cores whose worst-case windows meet on one are a warning."""

    def _state(self, table):
        state = _offline_state()
        gpu = state.hwaccel_decl("gpu")
        for tid in range(2):
            state.hwaccel_use(tid, 0, gpu)
        state.table = table
        return state

    def _table(self, *placed):
        table = ScheduleTable(ms(20))
        for core, tid, offset in placed:
            table.add(core, tid, 0, offset)
        return table

    def test_simultaneous_entries_on_two_cores_warn(self):
        state = self._state(self._table((0, 0, 0), (1, 1, 0)))
        diags = state.validate()
        assert _codes(diags, "warning") == ["table-accelerator"]
        assert _codes(diags, "error") == []
        assert "gpu" in diags[0].message

    def test_windows_meet_across_the_period_boundary(self):
        # core 0 holds gpu over [19, 21) ms, i.e. into [0, 1) of the next period
        state = self._state(self._table((0, 0, ms(19)), (1, 1, 0)))
        assert "table-accelerator" in _codes(state.validate(), "warning")

    def test_disjoint_windows_do_not_warn(self):
        state = self._state(self._table((0, 0, 0), (1, 1, ms(2))))
        assert state.validate() == []

    def test_same_core_entries_do_not_warn(self):
        # t0 twice on core 0: the windows meet, but one core runs one at a time
        state = self._state(self._table((0, 0, 0), (0, 0, ms(1))))
        assert _codes(state.validate(), "warning") == ["table-overlap"]

    def test_cli_validate_reports_it(self, tmp_path, capsys):
        state = self._state(self._table((0, 0, 0), (1, 1, 0)))
        path = tmp_path / "table.json"
        path.write_text(document_from_state(state).to_json())
        assert main(["validate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "[table-accelerator]" in out
        assert "OK, 2 tasks" in out
