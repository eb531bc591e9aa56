"""CLI subcommands, driven through main(argv).

Deadline misses are results (exit 0); only config and validation
problems exit 1.
"""

import hashlib
import json
import os

import pytest

import rtsched.cli as cli
import rtsched.realtime as rt
import rtsched.sweep as sweep_mod
from rtsched import Stat, ms
from rtsched.cli import main
from rtsched.tracing import CSV_COLUMNS

from .test_document import WRONGLY_TYPED
from .test_golden import GOLDEN
from .test_simulator import COST_KNOBS, MALFORMED_EXEC_TIME


def _doc(tmp_path, data, name="set.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


def _minimal(tmp_path, **extra):
    data = {
        "tasks": [{"name": "t", "kind": "periodic", "period": ms(10)}],
        "versions": [{"task": "t", "wcet_estimate": ms(2)}],
    }
    data.update(extra)
    return _doc(tmp_path, data)


def _overloaded(tmp_path):
    # one worker, 12ms of work every 10ms: misses are guaranteed
    return _doc(
        tmp_path,
        {
            "config": {"worker_count": 1},
            "tasks": [
                {"name": "a", "kind": "periodic", "period": ms(10)},
                {"name": "b", "kind": "periodic", "period": ms(10)},
            ],
            "versions": [
                {"task": "a", "wcet_estimate": ms(6)},
                {"task": "b", "wcet_estimate": ms(6)},
            ],
            "sim_model": {"exec_time": {"a": ms(6), "b": ms(6)}},
        },
    )


def _sdf_doc(tmp_path):
    return _doc(
        tmp_path,
        {
            "config": {"worker_count": 2},
            "sdf": {
                "period": ms(40),
                "wcets": {"a": ms(1), "b": ms(1)},
                "edges": [{"src": "a", "dst": "b", "produce": 2, "consume": 3}],
            },
        },
        name="sdf.json",
    )


class TestValidate:
    def test_ok_summary(self, tmp_path, capsys):
        assert main(["validate", _minimal(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "OK, 1 tasks, 0 channels, 1 versions, G-EDF" in out

    def test_errors_exit_nonzero(self, tmp_path, capsys):
        path = _doc(
            tmp_path,
            {"tasks": [{"name": "t", "kind": "periodic", "period": ms(10)}]},
        )
        assert main(["validate", path]) == 1
        out = capsys.readouterr().out
        assert "[no-version]" in out
        assert "invalid: 1 error(s)" in out

    @pytest.mark.parametrize("initial", [3, -4])
    def test_initial_tokens_must_fit_the_channel(self, tmp_path, capsys, initial):
        # a capacity-1 channel cannot start with 3 tokens, nor with -4
        path = _doc(
            tmp_path,
            {
                "tasks": [
                    {"name": "src", "kind": "periodic", "period": ms(10)},
                    {"name": "snk", "kind": "graph_node"},
                ],
                "versions": [
                    {"task": "src", "wcet_estimate": ms(1)},
                    {"task": "snk", "wcet_estimate": ms(1)},
                ],
                "channels": [
                    {"name": "c", "capacity": 1, "initial_tokens": initial}
                ],
                "connections": [{"channel": "c", "src": "src", "dst": "snk"}],
            },
        )
        assert main(["validate", path]) == 1
        assert "[bad-initial-tokens]" in capsys.readouterr().out
        assert main(["simulate", path]) == 1
        err = capsys.readouterr().err
        assert f"bad-initial-tokens: channel 'c' starts with {initial} tokens" in err

    def test_bad_json_reported(self, tmp_path, capsys):
        p = tmp_path / "junk.json"
        p.write_text("{nope")
        assert main(["validate", str(p)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file_reported(self, capsys):
        assert main(["validate", "/no/such/file.json"]) == 1
        assert "error:" in capsys.readouterr().err


class TestBadDocuments:
    def test_directory_path_reported(self, tmp_path, capsys):
        assert main(["simulate", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("where, key, make", WRONGLY_TYPED)
    def test_wrongly_typed_value_reported_at_load(self, tmp_path, capsys, where, key, make):
        # expand-sdf looks for an sdf section before it builds anything, so
        # it reports the value alike only when the value fails at load
        path = _doc(tmp_path, make())
        for command in ("simulate", "expand-sdf"):
            assert main([command, path]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: bad {where} value: {key}: expected")
            assert err.count("\n") == 1  # one line, no traceback


class TestSimulate:
    def test_clean_run(self, tmp_path, capsys):
        assert main(["simulate", _minimal(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "G-EDF seed=0" in out
        assert "released=1 completed=1 misses=0" in out

    def test_misses_still_exit_zero(self, tmp_path, capsys):
        assert main(["simulate", _overloaded(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "misses=0" not in out.splitlines()[1]

    def test_horizon_and_seed_flags(self, tmp_path, capsys):
        rc = main(["simulate", _minimal(tmp_path), "--horizon", "3hp",
                   "--seed", "7"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "seed=7" in out and "horizon=30.000ms" in out
        assert "released=3 completed=3" in out

    def test_env_seed_default(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("RT_YASMIN_SEED", "41")
        assert main(["simulate", _minimal(tmp_path)]) == 0
        assert "seed=41" in capsys.readouterr().out

    def test_explicit_seed_beats_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("RT_YASMIN_SEED", "41")
        main(["simulate", _minimal(tmp_path), "--seed", "5"])
        assert "seed=5" in capsys.readouterr().out

    def test_garbage_env_seed(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("RT_YASMIN_SEED", "lots")
        assert main(["simulate", _minimal(tmp_path)]) == 1
        assert "RT_YASMIN_SEED must be an integer" in capsys.readouterr().err

    def test_trace_and_report_files(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        report = tmp_path / "report.json"
        rc = main(["simulate", _minimal(tmp_path),
                   "--trace", str(trace), "--report", str(report)])
        assert rc == 0
        lines = trace.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert any(",job_complete," in ln for ln in lines)
        blob = json.loads(report.read_text())
        assert blob["totals"]["released"] == 1
        assert blob["totals"]["misses"] == 0

    @pytest.mark.parametrize("case, argv", [
        ("vision-pipeline", ["demos/vision_pipeline.json", "--seed", "3"]),
        ("drone", ["demos/drone.json", "--horizon", "5hp", "--seed", "3"]),
    ], ids=["vision-pipeline", "drone"])
    def test_trace_and_report_files_match_golden(self, case, argv, tmp_path):
        trace = tmp_path / "trace.csv"
        report = tmp_path / "report.json"
        document = os.path.join(os.path.dirname(__file__), os.pardir, argv[0])
        assert main(["simulate", document, *argv[1:],
                     "--trace", str(trace), "--report", str(report)]) == 0
        _, trace_sha, report_sha = GOLDEN[case]
        assert hashlib.sha256(trace.read_bytes()).hexdigest() == trace_sha
        assert hashlib.sha256(report.read_bytes()).hexdigest() == report_sha

    def test_trace_written_in_chunks(self, tmp_path, monkeypatch):
        # a chunk size that leaves a short last chunk changes no byte
        monkeypatch.setattr(cli, "_TRACE_CHUNK", 7)
        trace = tmp_path / "trace.csv"
        document = os.path.join(os.path.dirname(__file__), os.pardir, "demos/vision_pipeline.json")
        assert main(["simulate", document, "--seed", "3", "--trace", str(trace)]) == 0
        _, trace_sha, _ = GOLDEN["vision-pipeline"]
        assert hashlib.sha256(trace.read_bytes()).hexdigest() == trace_sha

    def test_unfinished_job_warning_printed(self, tmp_path, capsys):
        # t pops a channel whose producer never fires
        path = _doc(tmp_path, {
            "tasks": [{"name": "t", "kind": "periodic", "period": ms(10)},
                      {"name": "never", "kind": "graph_node"}],
            "versions": [{"task": "t", "wcet_estimate": ms(1)},
                         {"task": "never", "wcet_estimate": ms(1)}],
            "channels": [{"name": "c", "element_size": 8, "capacity": 1}],
            "connections": [{"channel": "c", "src": "never", "dst": "t"}],
            "sim_model": {"body_ops": {"t": [[0, "pop", "c", 1]]}},
        })
        assert main(["simulate", path, "--horizon", "10ms"]) == 0
        assert "  warning: run ended with unfinished jobs: t#0" in capsys.readouterr().out

    def test_bad_horizon(self, tmp_path, capsys):
        assert main(["simulate", _minimal(tmp_path), "--horizon", "soon"]) == 1
        assert "cannot parse" in capsys.readouterr().err


    @pytest.mark.parametrize("spec", MALFORMED_EXEC_TIME)
    def test_malformed_exec_time_is_one_error_line(self, tmp_path, capsys, spec):
        path = _doc(tmp_path, {
            "config": {"worker_count": 1},
            "tasks": [{"name": "a", "kind": "periodic", "period": ms(10)}],
            "versions": [{"task": "a", "wcet_estimate": ms(2)}],
            "sim_model": {"exec_time": {"a": spec}},
        })
        assert main(["simulate", path, "--horizon", "20ms"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: exec_time of task 'a'") and err.count("\n") == 1

    @pytest.mark.parametrize("knob", COST_KNOBS)
    def test_negative_cost_knob_is_one_error_line(self, tmp_path, capsys, knob):
        path = _doc(tmp_path, {
            "config": {"worker_count": 1},
            "tasks": [{"name": "a", "period": ms(10)}],
            "versions": [{"task": "a", "wcet_estimate": ms(1)}],
            "sim_model": {knob: -1},
        })
        assert main(["simulate", path, "--horizon", "20ms"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: SimJobModel.{knob} must be an int >= 0, got -1\n"


class TestSweep:
    def test_stdout_csv_and_best(self, tmp_path, capsys):
        assert main(["sweep", _minimal(tmp_path)]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].startswith("policy,mapping,priority,preemptive,")
        assert lines[-1].startswith("best: ")
        # default grid: 4 points x 6 metric rows, plus header and best
        assert len(lines) == 4 * 6 + 2

    def test_out_directory_gets_default_name(self, tmp_path, capsys):
        outdir = tmp_path / "results"
        outdir.mkdir()
        rc = main(["sweep", _minimal(tmp_path), "--out", str(outdir)])
        assert rc == 0
        assert "4 runs -> " in capsys.readouterr().out
        assert (outdir / "sweep.csv").exists()

    def test_out_file_path(self, tmp_path, capsys):
        target = tmp_path / "grid.csv"
        main(["sweep", _minimal(tmp_path), "--out", str(target)])
        assert target.read_text().startswith("policy,mapping,")

    def test_spec_file(self, tmp_path, capsys):
        spec = tmp_path / "axes.json"
        spec.write_text(json.dumps({"priorities": ["RM"], "preemptive": [True]}))
        main(["sweep", _minimal(tmp_path), "--spec", str(spec), "--reps", "2"])
        out = capsys.readouterr().out
        assert "8 runs" not in out  # 1 point x 2 reps
        rows = [ln for ln in out.splitlines() if ln.startswith("G-RM,")]
        assert len(rows) == 2 * 6

    def test_bad_reps(self, tmp_path, capsys):
        assert main(["sweep", _minimal(tmp_path), "--reps", "0"]) == 1
        assert "reps must be >= 1" in capsys.readouterr().err

    def test_worker_count_does_not_change_the_csv(self, tmp_path, capsys, monkeypatch):
        doc = _overloaded(tmp_path)
        spec = tmp_path / "axes.json"
        spec.write_text(json.dumps({"priorities": ["RM", "DM", "EDF"], "reps": 2}))
        outs = []
        for cpus in (1, 2):
            monkeypatch.setattr(sweep_mod, "available_cpus", lambda: cpus)
            out = tmp_path / f"cpus{cpus}.csv"
            assert main(["sweep", doc, "--spec", str(spec), "--out", str(out)]) == 0
            outs.append(out.read_text())
        assert outs[0] == outs[1]
        assert len(outs[0].splitlines()) == 1 + 12 * 6


class TestExpandSdf:
    def test_vector_line(self, tmp_path, capsys):
        assert main(["expand-sdf", _sdf_doc(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "a:3 b:2"

    def test_expanded_doc_revalidates(self, tmp_path, capsys):
        out_path = tmp_path / "expanded.json"
        rc = main(["expand-sdf", _sdf_doc(tmp_path), "--out", str(out_path)])
        assert rc == 0
        assert "5 nodes -> " in capsys.readouterr().out
        assert main(["validate", str(out_path)]) == 0
        summary = capsys.readouterr().out
        assert "OK, 5 tasks," in summary

    def test_stdout_document_parses(self, tmp_path, capsys):
        main(["expand-sdf", _sdf_doc(tmp_path)])
        out = capsys.readouterr().out
        body = out.split("\n", 1)[1]
        doc = json.loads(body)
        assert len(doc["tasks"]) == 5

    def test_inconsistent_graph_rejected(self, tmp_path, capsys):
        path = _doc(
            tmp_path,
            {
                "sdf": {
                    "period": ms(10),
                    "wcets": {"a": ms(1), "b": ms(1)},
                    "edges": [
                        {"src": "a", "dst": "b", "produce": 1, "consume": 2},
                        {"src": "b", "dst": "a", "produce": 1, "consume": 2},
                    ],
                }
            },
        )
        assert main(["expand-sdf", path]) == 1
        assert "error:" in capsys.readouterr().err

    def test_plain_doc_rejected(self, tmp_path, capsys):
        assert main(["expand-sdf", _minimal(tmp_path)]) == 1
        assert "no sdf section" in capsys.readouterr().err


class TestLatency:
    def test_bad_loops(self, capsys):
        assert main(["latency", "--loops", "0"]) == 1
        assert "loops must be positive" in capsys.readouterr().err

    def test_interval_below_a_nanosecond(self, capsys, preflight_forbidden):
        assert main(["latency", "--interval", "0.0001"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: period_ns must be positive and an int, not 0"
        ]

    def test_bad_policy(self, capsys):
        assert main(["latency", "--policy", "LLF", "--loops", "1"]) == 1
        assert "unknown policy" in capsys.readouterr().err

    def test_user_policy_rejected_before_the_probe(self, capsys, monkeypatch):
        # the probe's tasks carry no user_priority, so a USER run could only fail
        def probe(**_):
            raise AssertionError("the probe ran")

        monkeypatch.setattr(rt, "latency_probe", probe)
        assert main(["latency", "--policy", "user", "--loops", "1"]) == 1
        err = capsys.readouterr().err
        assert "unknown policy 'user'; choose from RM, DM, EDF" in err
        assert "no-user-priority" not in err

    def test_smoke(self, capsys, monkeypatch):
        monkeypatch.setattr(rt, "available_cpus", lambda: 64)
        rc = main(["latency", "--threads", "2", "--interval", "5000",
                   "--loops", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "probe0:" in out and "probe1:" in out
        # the pooled line comes last, before the run's warnings if any
        lines = [ln for ln in out.splitlines() if not ln.startswith("  warning: ")]
        assert lines[-1].lstrip().startswith("all: min=")

    @pytest.mark.parametrize("samples", [(5_000, 9_000), ()], ids=["samples", "no-samples"])
    def test_probe_warnings_printed(self, samples, capsys, monkeypatch):
        def probe(**_):
            stat = Stat()
            for ns in samples:
                stat.add(ns)
            return {"probe0": stat, "all": stat}, ["cannot lock memory", "no SCHED_FIFO"]

        monkeypatch.setattr(rt, "latency_probe", probe)
        assert main(["latency", "--loops", "2"]) == (0 if samples else 1)
        lines = capsys.readouterr().out.splitlines()
        assert lines[-3:] == [
            "  all: min=5 max=9 avg=7 (2 samples)" if samples else "no samples collected",
            "  warning: cannot lock memory",
            "  warning: no SCHED_FIFO",
        ]
