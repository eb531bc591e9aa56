"""Trace events, run reports, and overhead accounting.

A run produces an ordered list of TraceEvent.  The CSV export has a stable
column order (timestamp_ns, kind, task, job_seq, worker, payload) and a
deterministic payload encoding, so equal runs serialize byte-identically.
A trace has one encoding, its CSV rows.  RunLog records through one step
per event kind, and each step formats its own row, with names encoded once
per run; rows are sorted only if some stamp came late.  A run that returns
TraceEvents reads them back from its rows with the reader of
`read_trace_csv`, which keeps names as text and shares one string per
distinct name, kind and payload key.  `csv_row` encodes `write_trace_csv`,
and is the reference the rows are tested against.

Overheads are accumulated as a run records its events, kept or not, in
accounts that hold only unfinished jobs; `compute_overheads` re-derives
them from a trace read back, by the same rules:

  release overhead   release_effective - release_theoretical, per job
  get-task time      held duration of each worker queue-lock section
  scheduling time    tick_end - tick_begin, per tick
  lock wait          grant delay of each queue-lock acquisition
  preemption cost    context-switch spans on preempt/resume events
"""

from __future__ import annotations

import csv
import io
import json
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter

from .errors import ConfigurationError, TraceIntegrityError

# json.dumps' own encoders of a str, an int and a float
_json_str = json.encoder.encode_basestring_ascii
_json_int = int.__repr__
_json_float = float.__repr__

EVENT_KINDS = (
    "release_theoretical",
    "release_effective",
    "job_start",
    "preempt",
    "resume",
    "job_complete",
    "deadline_miss",
    "lock_wait",
    "tick_begin",
    "tick_end",
    "accel_acquire",
    "accel_release",
    "overrun",
)

SCHEDULER_WORKER = -1  # worker column value for scheduler-side events

CSV_COLUMNS = ("timestamp_ns", "kind", "task", "job_seq", "worker", "payload")
_HEADER = ",".join(CSV_COLUMNS) + "\n"

# payload keys whose values are names or words, read back as text even when
# they look like a number; every other value that parses as an int is one
_TEXT_KEYS = frozenset(("version", "accel", "by", "purpose", "got"))


@dataclass(slots=True)
class TraceEvent:
    timestamp_ns: int
    kind: str
    task: str = ""
    job_seq: int | None = None
    worker: int | None = None
    payload: dict = field(default_factory=dict)

    def encode_payload(self) -> str:
        return _encode_payload(self.payload)


def _encode_payload(payload: dict) -> str:
    return ";".join([f"{k}={v}" for k, v in payload.items()]) if payload else ""


def csv_row(t: int, kind: str, task: str, seq, worker, payload: dict) -> str:
    """One event's trace line (fields as in TraceEvent), as csv.writer(fp,
    lineterminator="\n") writes it; formatted directly unless text may need quoting."""
    text = _encode_payload(payload)
    row = (t, kind, task, "" if seq is None else seq, "" if worker is None else worker, text)
    s = f"{kind}{task}{text}"
    if "," in s or '"' in s or "\r" in s or "\n" in s:
        csv.writer(buf := io.StringIO(), lineterminator="\n").writerow(row)
        return buf.getvalue()
    return "%s,%s,%s,%s,%s,%s\n" % row


class _Shared(dict):
    """One string object per distinct text: the first one met."""

    def __missing__(self, text: str) -> str:
        self[text] = text
        return text


def _decode_payload(text: str, shared: _Shared) -> dict:
    out: dict = {}
    if not text:
        return out
    for part in text.split(";"):
        k, _, v = part.partition("=")
        k = shared[k]
        if k not in _TEXT_KEYS:
            try:
                out[k] = int(v)
                continue
            except ValueError:
                pass
        out[k] = shared[v]
    return out


def write_trace_csv(events: list[TraceEvent], fp) -> None:
    fp.write(_HEADER)
    for e in events:
        fp.write(csv_row(e.timestamp_ns, e.kind, e.task, e.job_seq, e.worker, e.payload))


def trace_csv_text(events: list[TraceEvent]) -> str:
    buf = io.StringIO()
    write_trace_csv(events, buf)
    return buf.getvalue()


def read_trace_csv(fp) -> list[TraceEvent]:
    rows = csv.reader(fp)
    try:
        return _read_rows(rows)
    except csv.Error as e:  # e.g. a line break in an unquoted field
        raise TraceIntegrityError(f"malformed trace CSV at line {rows.line_num}: {e}") from None


def _read_rows(rows) -> list[TraceEvent]:
    header = next(rows, None)
    if tuple(header or ()) != CSV_COLUMNS:
        raise TraceIntegrityError(f"unexpected trace header: {header}")
    events = []
    shared = _Shared()
    for row in rows:
        try:
            ts, kind, task, seq, worker, payload = row
            event = TraceEvent(int(ts), shared[kind], shared[task],
                               int(seq) if seq else None, int(worker) if worker else None,
                               _decode_payload(payload, shared))
        except ValueError:
            raise TraceIntegrityError(
                f"malformed trace row at line {rows.line_num}: {row}") from None
        if kind not in EVENT_KINDS:
            raise TraceIntegrityError(f"unknown event kind {kind!r} at line {rows.line_num}")
        events.append(event)
    return events


# ------------------------------------------------------------ statistics


@dataclass(slots=True)
class Stat:
    count: int = 0
    total: int = 0
    min: int | None = None
    max: int | None = None

    def add(self, value: int) -> None:
        if not self.count:  # min and max are None until the first sample
            self.min = self.max = value
        elif value < self.min:
            self.min = value
        elif value > self.max:
            self.max = value
        self.count += 1
        self.total += value

    @property
    def avg(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        # RunReport.to_json writes these keys and values itself: change both
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min or 0,
            "max": self.max or 0,
            "avg": round(self.avg, 3),
        }


@dataclass(slots=True)
class TaskStats:
    released: int = 0
    completed: int = 0
    misses: int = 0
    response: Stat = field(default_factory=Stat)

    def to_dict(self) -> dict:
        # RunReport.to_json writes these keys and values itself: change both
        return {
            "released": self.released,
            "completed": self.completed,
            "misses": self.misses,
            "response_ns": self.response.to_dict(),
        }


@dataclass
class Overheads:
    get_task: Stat = field(default_factory=Stat)
    scheduling: Stat = field(default_factory=Stat)
    release_overhead: Stat = field(default_factory=Stat)
    worker_lock_wait: Stat = field(default_factory=Stat)
    scheduler_lock_wait: Stat = field(default_factory=Stat)
    preemptions: int = 0
    context_switch_total: int = 0

    def to_dict(self) -> dict:
        return {
            "get_task_ns": self.get_task.to_dict(),
            "scheduling_ns": self.scheduling.to_dict(),
            "release_overhead_ns": self.release_overhead.to_dict(),
            "worker_lock_wait_ns": self.worker_lock_wait.to_dict(),
            "scheduler_lock_wait_ns": self.scheduler_lock_wait.to_dict(),
            "preemptions": self.preemptions,
            "context_switch_ns": self.context_switch_total,
        }


@dataclass
class RunReport:
    """Per-task counts of one run; the totals are sums over `tasks`.

    RunLog counts them on both backends: a job is released when it becomes
    dispatchable (its release_effective event); it is completed, with its
    response time and a miss if it finished after its deadline, when it
    completes; a job still unfinished when the run ends is a miss and marks
    the run truncated.
    """

    tasks: dict[str, TaskStats] = field(default_factory=dict)
    overheads: Overheads = field(default_factory=Overheads)
    truncated: bool = False
    warnings: list[str] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def released(self) -> int:
        return sum(s.released for s in self.tasks.values())

    @property
    def completed(self) -> int:
        return sum(s.completed for s in self.tasks.values())

    @property
    def misses(self) -> int:
        return sum(s.misses for s in self.tasks.values())

    def task(self, name: str) -> TaskStats:
        if name not in self.tasks:
            self.tasks[name] = TaskStats()
        return self.tasks[name]

    def to_dict(self) -> dict:
        return {
            "meta": dict(sorted(self.meta.items())),
            "totals": {
                "released": self.released,
                "completed": self.completed,
                "misses": self.misses,
                "truncated": self.truncated,
            },
            "tasks": {n: s.to_dict() for n, s in sorted(self.tasks.items())},
            "run": self.overheads.to_dict(),
            "warnings": list(self.warnings),
        }

    def to_json(self) -> str:
        """`json.dumps(self.to_dict(), indent=2, sort_keys=True)`, byte for byte.

        With an indent json.dumps runs its pure-Python encoder, whose cost
        grows with the task count.  A task's block has a fixed shape, so
        one f-string writes it and no dict is built; the small sections
        go through json.dumps, indented one level."""
        def section(value) -> str:
            return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  ")

        blocks = []
        for name in sorted(self.tasks):
            s = self.tasks[name]
            r = s.response
            blocks.append(
                f'    {_json_str(name)}: {{\n'
                f'      "completed": {_json_int(s.completed)},\n'
                f'      "misses": {_json_int(s.misses)},\n'
                f'      "released": {_json_int(s.released)},\n'
                f'      "response_ns": {{\n'
                f'        "avg": {_json_float(round(r.avg, 3))},\n'
                f'        "count": {_json_int(r.count)},\n'
                f'        "max": {_json_int(r.max or 0)},\n'
                f'        "min": {_json_int(r.min or 0)},\n'
                f'        "total": {_json_int(r.total)}\n'
                f'      }}\n'
                f'    }}'
            )
        tasks = "{\n" + ",\n".join(blocks) + "\n  }" if blocks else "{}"
        totals = {"released": self.released, "completed": self.completed,
                  "misses": self.misses, "truncated": self.truncated}
        return (
            f'{{\n  "meta": {section(self.meta)},\n'
            f'  "run": {section(self.overheads.to_dict())},\n'
            f'  "tasks": {tasks},\n'
            f'  "totals": {section(totals)},\n'
            f'  "warnings": {section(self.warnings)}\n}}'
        )


# per-job marks, in the order a job must pass them
_MARKS = ("release_theoretical", "release_effective", "job_start", "job_complete")
_THEORETICAL, _EFFECTIVE, _START, _COMPLETE = range(4)
_MARK_INDEX = {kind: i for i, kind in enumerate(_MARKS)}


class _Accounts:
    """The overheads and integrity checks of one run, fed event by event:
    by RunLog's steps as the run records, and by compute_overheads from a
    trace, through `mark` and `event` or a typed entry point.  RunLog adds
    lock waits, and sets marks that open or leave open a slot, itself.

    Emission order gives what the sorted trace gives.  Every rule but tick
    pairing is order-independent: a job's marks are checked, and its
    release overhead added, when its last missing mark arrives (or in
    `finish`, for a job that never gets all four), and sums and Stats
    commute.  Tick events come from one thread in time order on
    both backends.  compute_overheads' per-worker time check cannot fire on
    the stably sorted trace that RunLog.close returns.  The first fault is
    kept and raised by `finish`, so one met on a thread-backend thread
    still reaches whoever closes the run.

    Only unfinished jobs hold a slot in `marks`.  A finished job leaves its
    seq in its task's `done` bounds, a sorted flat list [lo, hi, lo, hi, ...]
    of the half-open seq intervals finished so far, so a mark that comes
    after the job's chain is full is still a duplicate.  A seq at or above
    the last bound is in no interval and needs no search, and the next seq
    in order extends the last interval in place: jobs that start and finish
    in seq order never bisect.  Marks with no seq stay in `marks` until
    `finish`.
    """

    def __init__(self) -> None:
        self.overheads = Overheads()
        self.marks: dict[tuple[str, int | None], list[int | None]] = {}
        self.done: dict[str, list[int]] = {}
        self.open_tick: int | None = None
        self.fault: str | None = None

    def fail(self, message: str) -> None:
        if self.fault is None:
            self.fault = message

    def mark(self, i: int, task: str, seq: int | None, t: int) -> None:
        """Job `task#seq` passes mark `_MARKS[i]` at `t`."""
        job = (task, seq)
        slot = self.marks.get(job)
        if slot is None:
            bounds = self.done.get(task)
            if (bounds and seq is not None and seq < bounds[-1]
                    and bisect_right(bounds, seq) & 1):
                self.fail(f"duplicate {_MARKS[i]} for {task}#{seq}")
                return
            slot = self.marks[job] = [None, None, None, None]
        elif slot[i] is not None:
            self.fail(f"duplicate {_MARKS[i]} for {task}#{seq}")
        slot[i] = t
        if None not in slot and seq is not None:
            del self.marks[job]
            rt, re_, st, co = slot
            if rt <= re_ <= st <= co:
                self.overheads.release_overhead.add(re_ - rt)
            else:
                self.fail(_disorder(task, seq, slot))
            bounds = self.done.get(task)
            if bounds and bounds[-1] == seq:  # the usual case: the next seq in order
                bounds[-1] = seq + 1
            else:
                self._finished(task, seq)

    def _finished(self, task: str, seq: int) -> None:
        """Add `seq` to the task's finished intervals, merging neighbours."""
        bounds = self.done.setdefault(task, [])
        if not bounds or seq > bounds[-1]:  # past every interval: no search
            bounds += (seq, seq + 1)
            return
        k = bisect_right(bounds, seq)  # even: seq lies in no interval
        joins_left = k > 0 and bounds[k - 1] == seq
        joins_right = k < len(bounds) and bounds[k] == seq + 1
        if joins_left and joins_right:
            del bounds[k - 1:k + 1]
        elif joins_left:
            bounds[k - 1] = seq + 1
        elif joins_right:
            bounds[k] = seq
        else:
            bounds[k:k] = [seq, seq + 1]

    def tick_begin(self, t: int) -> None:
        if self.open_tick is not None:
            self.fail("tick_begin while a tick is open")
        self.open_tick = t

    def tick_end(self, t: int) -> None:
        if self.open_tick is None:
            self.fail("tick_end without tick_begin")
        else:
            self.overheads.scheduling.add(t - self.open_tick)
            self.open_tick = None

    def preempt(self, switch: int) -> None:
        out = self.overheads
        out.preemptions += 1
        out.context_switch_total += switch

    def resume(self, switch: int) -> None:
        self.overheads.context_switch_total += switch

    def event(self, t: int, kind: str, worker: int | None, payload: dict) -> None:
        """Account an event read back from a trace that is not a job mark."""
        if kind == "lock_wait":  # as RunLog's tick_wait and get_task_wait add it
            out, wait = self.overheads, int(payload.get("wait", 0))
            if worker == SCHEDULER_WORKER:
                out.scheduler_lock_wait.add(wait)
            else:
                out.worker_lock_wait.add(wait)
                if payload.get("purpose") == "get_task":
                    out.get_task.add(int(payload.get("held", 0)))
        elif kind == "tick_begin":
            self.tick_begin(t)
        elif kind == "tick_end":
            self.tick_end(t)
        elif kind == "preempt":
            self.preempt(int(payload.get("switch", 0)))
        elif kind == "resume":
            self.resume(int(payload.get("switch", 0)))

    def finish(self, allow_truncated: bool) -> Overheads:
        """Check what only the whole run shows and return the overheads."""
        if self.open_tick is not None and not allow_truncated:
            self.fail("trace ends inside a tick")
        if self.fault is not None:
            raise TraceIntegrityError(self.fault)
        marks, self.marks, self.done = self.marks, {}, {}  # a closed run keeps no per-job state
        out = self.overheads
        for (task, seq), slot in marks.items():
            disorder = _disorder(task, seq, slot)
            if disorder is not None:
                raise TraceIntegrityError(disorder)
            rt, re_, st, co = slot
            if st is not None and co is None and not allow_truncated:
                raise TraceIntegrityError(f"job {task}#{seq} started but never completed")
            if rt is not None and re_ is not None:
                out.release_overhead.add(re_ - rt)
        return out


def _disorder(task: str, seq: int | None, slot: list[int | None]) -> str | None:
    """The fault of a job whose marks go back in time, if they do."""
    chain = [v for v in slot if v is not None]
    if chain == sorted(chain):
        return None
    named = sorted(((k, v) for k, v in zip(_MARKS, slot) if v is not None), key=lambda kv: kv[1])
    return f"ordering violation for job {task}#{seq}: {dict(named)}"


class _Fields(dict):
    """Texts as CSV fields, each encoded by csv.writer (QUOTE_MINIMAL) on first use."""

    def __missing__(self, text: str) -> str:
        csv.writer(buf := io.StringIO(), lineterminator="\n").writerow(("", text))
        return self.setdefault(text, buf.getvalue()[1:-1])  # between the comma and the newline


class RunLog:
    """The record of one run: its report and, when kept, its trace.

    Both backends record through it, one step per event kind, so an event
    and its count are written in one place, and end the run with `close`;
    `t` is the instant of the step.  Each step accounts its overheads
    through `_Accounts` and, only when the run keeps a trace, appends its
    event's CSV line to `trace`: one f-string, no payload dict, names and
    the payloads that carry one encoded once per run, equal to `csv_row`
    of the TraceEvent.  `close` returns those lines (`keep_trace="csv"`)
    or the TraceEvents read back from them by the reader of
    `read_trace_csv`.  `accel_names` and `task_names` are the run's
    accelerator and task names, by id.  Not thread-safe: the thread
    backend calls it under its own lock.
    """

    def __init__(self, keep_trace: bool | str = True, accel_names: list | tuple = (),
                 task_names: list | tuple = ()) -> None:
        if not (isinstance(keep_trace, bool) or keep_trace == "csv"):
            raise ConfigurationError(f'keep_trace must be True, False or "csv", not {keep_trace!r}')
        self.accel_names = accel_names
        self.task_names = task_names
        self.trace: list = []
        self.report = RunReport()
        self._accounts = _Accounts()
        self._keep = bool(keep_trace)
        self._read_back = self._keep and keep_trace != "csv"
        self._csv = _Fields()
        self._last, self._late = 0, False  # the last row's stamp; a row came below it: sort

    def _line(self, t: int, row: str) -> None:
        self._late |= t < self._last
        self._last = t
        self.trace.append(row)

    def theoretical(self, jobs) -> None:
        """Each job's theoretical release, at its `abs_release`."""
        accounts, marks, done = self._accounts, self._accounts.marks, self._accounts.done
        for job in jobs:
            name, seq, t = job.task.name, job.seq, job.abs_release
            bounds = done.get(name)
            if (name, seq) in marks or bounds and seq < bounds[-1]:
                accounts.mark(_THEORETICAL, name, seq, t)
            else:
                marks[name, seq] = [t, None, None, None]
            if self._keep:
                self._line(t, f"{t},release_theoretical,{self._csv[name]},{seq},,\n")

    def release(self, t: int, jobs, worker: int | None = None) -> None:
        """The jobs become dispatchable at `t`."""
        tasks, accounts, w = self.report.tasks, self._accounts, "" if worker is None else worker
        for job in jobs:
            name, seq = job.task.name, job.seq
            (tasks.get(name) or self.report.task(name)).released += 1
            slot = accounts.marks.get((name, seq))
            if slot and slot[_EFFECTIVE] is None and slot[_COMPLETE] is None:
                slot[_EFFECTIVE] = t
            else:
                accounts.mark(_EFFECTIVE, name, seq, t)
            if self._keep:
                self._line(t, f"{t},release_effective,{self._csv[name]},{seq},{w},\n")

    def table_release(self, t: int, job, worker: int) -> None:
        """A table entry enters its core at `t`, late if past its release."""
        self.theoretical((job,))
        self.release(t, (job,), worker)
        late = t - job.abs_release
        if late > 0 and self._keep:
            at = f"{self._csv[job.task.name]},{job.seq},{worker}"
            self._line(t, f"{t},overrun,{at},late={late}\n")

    def start(self, t: int, job, worker: int) -> None:
        name, seq = job.task.name, job.seq
        slot = self._accounts.marks.get((name, seq))
        if slot and slot[_START] is None and slot[_COMPLETE] is None:
            slot[_START] = t
        else:
            self._accounts.mark(_START, name, seq, t)
        if self._keep:
            text = self._csv["version=" + job.version.name]
            self._line(t, f"{t},job_start,{self._csv[job.task.name]},{job.seq},{worker},{text}\n")

    def complete(self, t: int, job, worker: int, body_ns: int) -> None:
        """The job completes at `t` after running `body_ns` of its own;
        an overrun and a deadline miss are recorded with it."""
        name = job.task.name
        self._accounts.mark(_COMPLETE, name, job.seq, t)
        stats = self.report.tasks.get(name) or self.report.task(name)
        stats.completed += 1
        stats.response.add(t - job.abs_release)
        late = t - job.abs_deadline
        if late > 0:
            stats.misses += 1
        if self._keep:
            over = body_ns - job.version.wcet_estimate
            at = f"{self._csv[name]},{job.seq},{worker}"
            self._line(t, f"{t},job_complete,{at},\n")
            if over > 0:
                self._line(t, f"{t},overrun,{at},over={over}\n")
            if late > 0:
                self._line(t, f"{t},deadline_miss,{at},late={late}\n")

    def get_task_wait(self, t: int, worker: int, wait: int, held: int, got: str) -> None:
        """A worker held its queue's lock from `t` for `held`, after waiting
        `wait` for it, and picked `got`."""
        out = self._accounts.overheads
        out.worker_lock_wait.add(wait)
        out.get_task.add(held)
        if self._keep:
            text = f"wait={wait};held={held};purpose=get_task;got={got}"
            self._line(t, f"{t},lock_wait,,,{worker},{text}\n")

    def tick_wait(self, t: int, wait: int, queue: int) -> None:
        """The scheduler got queue `queue`'s lock at `t` after waiting `wait`."""
        self._accounts.overheads.scheduler_lock_wait.add(wait)
        if self._keep:
            text = f"wait={wait};purpose=tick;queue={queue}"
            self._line(t, f"{t},lock_wait,,,{SCHEDULER_WORKER},{text}\n")

    def tick_begin(self, t: int) -> None:
        self._accounts.tick_begin(t)
        if self._keep:
            self._line(t, f"{t},tick_begin,,,{SCHEDULER_WORKER},\n")

    def tick_end(self, t: int) -> None:
        self._accounts.tick_end(t)
        if self._keep:
            self._line(t, f"{t},tick_end,,,{SCHEDULER_WORKER},\n")

    def preempt(self, t: int, job, worker: int, by: str, switch: int | None = None) -> None:
        """`by` preempts the job; a backend that models no context switch
        passes no `switch`, and its event carries none."""
        self._accounts.preempt(switch or 0)
        if self._keep:
            text = self._csv[f"by={by}" if switch is None else f"switch={switch};by={by}"]
            self._line(t, f"{t},preempt,{self._csv[job.task.name]},{job.seq},{worker},{text}\n")

    def resume(self, t: int, job, worker: int, switch: int | None = None) -> None:
        self._accounts.resume(switch or 0)
        if self._keep:
            text = "" if switch is None else f"switch={switch}"
            self._line(t, f"{t},resume,{self._csv[job.task.name]},{job.seq},{worker},{text}\n")

    def accels(self, t: int, kind: str, job, worker: int, ids: list[int]) -> None:
        """One accel_acquire or accel_release event per accelerator id."""
        if self._keep:
            for a in ids:
                text = self._csv["accel=" + self.accel_names[a]]
                self._line(t, f"{t},{kind},{self._csv[job.task.name]},{job.seq},{worker},{text}\n")

    def close(self, meta: dict) -> tuple[list, RunReport]:
        """End the run: count as unfinished, in (task id, seq) order, the
        jobs the accounts hold open (some of their four marks, not all), sort
        the trace by time (stable: same-instant order is kept), check and set
        the overheads and set `meta`.  Returns (trace, report): the trace as
        CSV lines under `keep_trace="csv"`, else as TraceEvents."""
        report = self.report
        rank = {name: i for i, name in enumerate(self.task_names)}
        unfinished = sorted(self._accounts.marks, key=lambda job: (rank.get(job[0], -1), job[1]))
        if unfinished:
            names = ", ".join(f"{n}#{s}" for n, s in unfinished)
            report.warnings.append(f"run ended with unfinished jobs: {names}")
            report.truncated = True
            for name, _ in unfinished:
                report.task(name).misses += 1
        report.overheads = self._accounts.finish(report.truncated)
        report.meta = meta
        if self._read_back:
            self.trace = _read_rows(csv.reader(chain((_HEADER,), self.trace)))
            if self._late:
                self.trace.sort(key=attrgetter("timestamp_ns"))
        elif self._late:  # by each row's leading stamp, as a number
            self.trace.sort(key=lambda row: int(row[:row.index(",")]))
        return self.trace, report


# ------------------------------------------------------ trace analysis


def compute_overheads(events: list[TraceEvent], *, allow_truncated: bool = False) -> Overheads:
    """Derive the overhead block from a trace, validating its integrity.

    Raises TraceIntegrityError on out-of-order per-worker timestamps,
    unpaired tick or job markers, or release/start/complete inversions.
    """
    accounts = _Accounts()
    last_per_worker: dict[int, int] = {}
    for e in events:
        if e.worker is not None:
            prev = last_per_worker.get(e.worker)
            if prev is not None and e.timestamp_ns < prev:
                accounts.fail(f"worker {e.worker} timestamps go backwards at {e.timestamp_ns}")
            last_per_worker[e.worker] = e.timestamp_ns
        i = _MARK_INDEX.get(e.kind)
        if i is None:
            accounts.event(e.timestamp_ns, e.kind, e.worker, e.payload)
        else:
            accounts.mark(i, e.task, e.job_seq, e.timestamp_ns)
    return accounts.finish(allow_truncated)
