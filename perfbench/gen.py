"""Seeded task-set documents for the benchmark workloads.

Every generator takes the workload's parameters (from workloads.json) and a
seed and returns plain JSON documents plus the operations that run them.
Periods come from a fixed multiset that the seed only shuffles, and SDF
graph sizes are drawn per stratum, so that the amount of work stays close
across seeds while the task sets themselves differ.  Nothing is drawn or
rejected on how a run behaves: a graph that hits a scheduler defect stays.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

MS = 1_000_000
US = 1_000


@dataclass
class Op:
    """One timed operation: a CLI invocation, or one thread-backend run."""

    name: str
    kind: str  # "simulate", "sweep" or "realtime"
    argv: list[str] = field(default_factory=list)
    trace: bool = False  # simulate writes a trace CSV


@dataclass
class Workload:
    documents: dict[str, dict]  # file name -> task-set document
    ops: list[Op]
    specs: dict[str, dict] = field(default_factory=dict)  # file name -> sweep spec


def uunifast(rng: random.Random, n: int, total: float) -> list[float]:
    """Bini & Buttazzo's UUniFast: n utilisations summing to total."""
    out = []
    left = total
    for i in range(1, n):
        nxt = left * rng.random() ** (1.0 / (n - i))
        out.append(left - nxt)
        left = nxt
    out.append(left)
    return out


def _periods(rng: random.Random, n: int, periods_ms: list[int]) -> list[int]:
    periods = [periods_ms[i % len(periods_ms)] * MS for i in range(n)]
    rng.shuffle(periods)
    return periods


def _periodic_tasks(rng: random.Random, p: dict) -> list[dict]:
    """name, period, wcet and utilisation of each task; utilisations per task
    are redrawn until none exceeds 1."""
    n = p["tasks"]
    periods = _periods(rng, n, p["periods_ms"])
    while True:
        utils = uunifast(rng, n, p["utilisation"])
        if max(utils) <= 1.0:
            break
    return [
        {"name": f"t{i:03d}", "period": per, "wcet": max(US, int(u * per)), "util": u}
        for i, (per, u) in enumerate(zip(periods, utils))
    ]


def first_fit(tasks: list[dict], workers: int, capacity: float) -> dict[str, int]:
    """Core of each task: first fit by decreasing utilisation."""
    load = [0.0] * workers
    core = {}
    for t in sorted(tasks, key=lambda t: (-t["util"], t["name"])):
        fits = [c for c in range(workers) if load[c] + t["util"] <= capacity]
        c = fits[0] if fits else min(range(workers), key=lambda c: (load[c], c))
        load[c] += t["util"]
        core[t["name"]] = c
    return core


def _task_doc(tasks: list[dict], config: dict, cores: dict[str, int] | None) -> dict:
    entries = []
    for t in tasks:
        entry = {"name": t["name"], "kind": "periodic", "period": t["period"]}
        if cores is not None:
            entry["virt_core_id"] = cores[t["name"]]
        entries.append(entry)
    return {
        "config": config,
        "tasks": entries,
        "versions": [{"task": t["name"], "wcet_estimate": t["wcet"]} for t in tasks],
        "sim_model": {
            "exec_time": {
                t["name"]: {"dist": "uniform", "low": t["wcet"] // 2, "high": t["wcet"]}
                for t in tasks
            }
        },
    }


def _table(tasks: list[dict], cores: dict[str, int], hyperperiod: int) -> dict:
    entries = []
    for t in tasks:
        for offset in range(0, hyperperiod, t["period"]):
            entries.append((cores[t["name"]], offset, t["period"], t["name"]))
    entries.sort()
    return {
        "period": hyperperiod,
        "entries": [
            {"core": c, "task": name, "version": "0", "offset": off}
            for c, off, _, name in entries
        ],
    }


def _simulate(name: str, doc: str, seed: int, horizon: str, trace: bool) -> Op:
    argv = ["simulate", doc, "--horizon", horizon, "--seed", str(seed),
            "--report", f"{name}.report.json"]
    if trace:
        argv += ["--trace", f"{name}.trace.csv"]
    return Op(name=name, kind="simulate", argv=argv, trace=trace)


def periodic(p: dict, seed: int) -> Workload:
    rng = random.Random(seed)
    tasks = _periodic_tasks(rng, p)
    workers = p["workers"]
    cores = first_fit(tasks, workers, p["partition_capacity"])
    hp = lcm(*(t["period"] for t in tasks))
    gedf = _task_doc(tasks, {"worker_count": workers, "mapping_scheme": "GLOBAL",
                             "priority_assignment": "EDF"}, None)
    prm = _task_doc(tasks, {"worker_count": workers, "mapping_scheme": "PARTITIONED",
                            "priority_assignment": "RM"}, cores)
    otable = _task_doc(tasks, {"worker_count": workers, "mapping_scheme": "OFFLINE",
                               "preemptive": False}, cores)
    otable["table"] = _table(tasks, cores, hp)
    files = {"gedf.json": gedf, "prm.json": prm, "otable.json": otable}
    ops = [_simulate(f[:-5], f, seed, p["horizon"], True) for f in files]
    return Workload(files, ops)


def overload(p: dict, seed: int) -> Workload:
    rng = random.Random(seed)
    config = {"worker_count": p["workers"], "mapping_scheme": "GLOBAL",
              "priority_assignment": "EDF"}
    docs = {f"overload{i}.json": _task_doc(_periodic_tasks(rng, p), config, None)
            for i in range(p["task_sets"])}
    return Workload(docs, [_simulate(f[:-5], f, seed, p["horizon"], False) for f in docs])


def _sdf_doc(p: dict, rng: random.Random, actors: list[str], edges: list[tuple]) -> dict:
    lo, hi = p["wcet_us"]
    return {
        "config": {"worker_count": p["workers"]},
        "sdf": {
            "period": p["period_ms"] * MS,
            "relative_deadline": p["relative_deadline_ms"] * MS,
            "wcets": {a: rng.randint(lo, hi) * US for a in actors},
            "edges": [
                {"src": s, "dst": d, "produce": pr, "consume": co}
                for s, d, pr, co in edges
            ],
        },
    }


def firings(edges: list[tuple]) -> int:
    """Firings per iteration of a consistent chain: the sum of its
    repetition vector."""
    q = [Fraction(1)]
    for _, _, produce, consume in edges:
        q.append(q[-1] * produce / consume)
    scale = lcm(*(x.denominator for x in q))
    ints = [int(x * scale) for x in q]
    return sum(ints) // gcd(*ints)


def dataflow(p: dict, seed: int) -> Workload:
    rng = random.Random(seed)
    files = {}
    for i, (lo, hi) in enumerate(p["fanout_k_strata"]):
        k = rng.randint(lo, hi)
        files[f"fanout{i}.json"] = _sdf_doc(
            p, rng, ["src", "w", "snk"], [("src", "w", k, 1), ("w", "snk", 1, k)]
        )
    # chains are drawn freely and kept when their size falls in the stratum
    # being filled, so every seed gets the same spread of chain sizes
    i = 0
    for lo, hi in p["chain_firing_strata"]:
        kept = 0
        while kept < p["chains_per_stratum"]:
            actors = [f"a{j}" for j in range(rng.choice(p["chain_actors"]))]
            edges = [
                (a, b, rng.choice(p["chain_rates"]), rng.choice(p["chain_rates"]))
                for a, b in zip(actors, actors[1:])
            ]
            if lo <= firings(edges) <= hi:
                files[f"chain{i}.json"] = _sdf_doc(p, rng, actors, edges)
                kept += 1
                i += 1
    ops = [_simulate(f[:-5], f, seed, p["horizon"], True) for f in files]
    return Workload(files, ops)


def sweep(p: dict, seed: int) -> Workload:
    rng = random.Random(seed)
    docs = {f"sweep{i}.json": _sweep_doc(p, rng) for i in range(p["task_sets"])}
    ops = [Op(name=f[:-5], kind="sweep",
              argv=["sweep", f, "--spec", "axes.json", "--out", f"{f[:-5]}.csv"])
           for f in docs]
    return Workload(docs, ops, {"axes.json": dict(p["grid"], seed=seed)})


def _sweep_doc(p: dict, rng: random.Random) -> dict:
    """A task set whose tasks each have a cpu version and a faster gpu
    version that holds one of the accelerators."""
    tasks = _periodic_tasks(rng, p)
    workers = p["workers"]
    accels = [f"gpu{i}" for i in range(p["accelerators"])]
    cores = first_fit(tasks, workers, 1.0)
    versions = []
    exec_time = {}
    for t in tasks:
        gpu_wcet = max(US, int(t["wcet"] * rng.uniform(*p["gpu_speedup"])))
        cpu_cost = round(rng.uniform(*p["energy_cost_cpu"]), 3)
        gpu_cost = round(rng.uniform(*p["energy_cost_gpu"]), 3)
        versions.append({"task": t["name"], "name": "cpu", "wcet_estimate": t["wcet"],
                         "select": {"energy_cost": cpu_cost, "exec_time": t["wcet"]}})
        versions.append({"task": t["name"], "name": "gpu", "wcet_estimate": gpu_wcet,
                         "accelerators": [rng.choice(accels)],
                         "select": {"energy_cost": gpu_cost, "exec_time": gpu_wcet}})
        exec_time[t["name"]] = {
            "cpu": {"dist": "uniform", "low": t["wcet"] // 2, "high": t["wcet"]},
            "gpu": {"dist": "uniform", "low": gpu_wcet // 2, "high": gpu_wcet},
        }
    return {
        "config": {"worker_count": workers, "version_selection": "ENERGY_TIME"},
        "accelerators": accels,
        "tasks": [{"name": t["name"], "kind": "periodic", "period": t["period"],
                   "virt_core_id": cores[t["name"]]} for t in tasks],
        "versions": versions,
        "sim_model": {"alpha": p["alpha"], "exec_time": exec_time},
    }


def realtime(p: dict, seed: int) -> Workload:
    # the probe has no document: its empty entry point is a Python callable
    return Workload({}, [Op(name="probe", kind="realtime")])


GENERATORS = {
    "periodic": periodic,
    "overload": overload,
    "dataflow": dataflow,
    "sweep": sweep,
    "rt-latency": realtime,
}
