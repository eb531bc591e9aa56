"""Independent reference implementations used to cross-check the package.

Nothing here imports rtsched.  The timeline oracle is a straightforward
single-core scheduler over (release, deadline, remaining) triples; the SDF
oracle searches for the repetition vector instead of normalizing fractions;
the SDF plan oracle counts tokens per edge and numbers them, where the
package keeps FIFOs of producer firings; the gcd/lcm oracles use trial
division and prime factorisation; the arrival oracle enumerates every
arrival below the horizon and scans the passes for its own, where the
package advances one next-arrival per task; the ready queue oracle fully
re-sorts its live jobs on every read; the response-time oracle solves the
analytic recurrence instead of simulating.  Keeping the
algorithms structurally different from the package is the point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field


# ------------------------------------------------------- arithmetic oracles


def gcd_oracle(values: list[int]) -> int:
    """Largest d dividing every value, by descending trial division.

    Makes at most min(values) trial divisions, each short-circuiting at the
    first value d fails to divide.  The widest Hypothesis range draws
    values up to 5,000, so a call costs at most 5,000 divisions (about
    5 ms at worst on a 2 vCPU host with Python 3.11)."""
    assert values and all(v > 0 for v in values)
    for d in range(min(values), 0, -1):
        if all(v % d == 0 for v in values):
            return d
    raise AssertionError("unreachable")


def lcm_oracle(values: list[int]) -> int:
    """Smallest common multiple from prime factorisations: trial-divide
    each value and multiply every prime at its largest exponent.  Costs
    O(sqrt(max)) per value, whatever the inputs' common factors."""
    assert values and all(v > 0 for v in values)
    exponents: dict[int, int] = {}
    for v in values:
        p = 2
        while p * p <= v:
            e = 0
            while v % p == 0:
                v //= p
                e += 1
            if e > exponents.get(p, 0):
                exponents[p] = e
            p += 1
        if v > 1:  # a prime factor above sqrt of the value
            exponents.setdefault(v, 1)
    h = 1
    for p, e in exponents.items():
        h *= p**e
    return h


# --------------------------------------------------------- timeline oracle


@dataclass
class OracleTask:
    name: str
    period: int
    wcet: int
    deadline: int | None = None  # None: implicit (= period)
    offset: int = 0

    def rel_deadline(self) -> int:
        return self.deadline if self.deadline is not None else self.period


@dataclass
class OracleJob:
    name: str
    seq: int
    release: int
    deadline: int
    remaining: int
    prio: tuple = ()
    start: int | None = None
    finish: int | None = None

    @property
    def missed(self) -> bool:
        return self.finish is None or self.finish > self.deadline


def _prio(job: OracleJob, task: OracleTask, policy: str, tid: int) -> tuple:
    if policy == "EDF":
        primary = job.deadline
    elif policy == "RM":
        primary = task.period
    elif policy == "DM":
        primary = task.rel_deadline()
    else:
        raise ValueError(policy)
    return (primary, tid, job.seq)


def brute_timeline(
    tasks: list[OracleTask],
    horizon: int,
    policy: str = "EDF",
    preemptive: bool = True,
) -> list[OracleJob]:
    """Ideal single-core schedule of periodic tasks, zero overheads.

    Releases happen in [0, horizon); released jobs always run to
    completion even past the horizon, matching a drained run.  Smaller
    priority tuple wins; a running job is never abandoned mid-way under
    non-preemptive policy.
    """
    jobs: list[OracleJob] = []
    for tid, t in enumerate(tasks):
        k = 0
        while t.offset + k * t.period < horizon:
            r = t.offset + k * t.period
            job = OracleJob(t.name, k, r, r + t.rel_deadline(), t.wcet)
            job.prio = _prio(job, t, policy, tid)
            jobs.append(job)
            k += 1

    pending = sorted(jobs, key=lambda j: j.release)
    ready: list[OracleJob] = []
    now = 0
    current: OracleJob | None = None
    while pending or ready or current is not None:
        while pending and pending[0].release <= now:
            ready.append(pending.pop(0))
        if current is None:
            if not ready:
                now = pending[0].release
                continue
            ready.sort(key=lambda j: j.prio)
            current = ready.pop(0)
            if current.start is None:
                current.start = now
        # run until completion, or the next release if that may preempt
        next_rel = pending[0].release if pending else None
        fin = now + current.remaining
        if next_rel is None or fin <= next_rel or not preemptive:
            current.remaining = 0
            current.finish = fin
            now = fin
            current = None
            continue
        current.remaining -= next_rel - now
        now = next_rel
        while pending and pending[0].release <= now:
            ready.append(pending.pop(0))
        ready.sort(key=lambda j: j.prio)
        if ready and ready[0].prio < current.prio:
            ready.append(current)
            current = None
    return jobs


def miss_count(jobs: list[OracleJob]) -> int:
    return sum(1 for j in jobs if j.missed)


# ------------------------------------------------------------- SDF oracle


def sdf_vector_brute(
    actors: list[str],
    edges: list[tuple[str, str, int, int]],
    k_max: int = 4000,
) -> dict[str, int] | None:
    """Smallest repetition vector by search, or None if inconsistent.

    Fixes the first actor's count to k = 1, 2, ... and propagates integer
    constraints r_dst = r_src*produce/consume along edges until fixpoint,
    rejecting any k that forces a non-integer.  The first k where every
    actor gets a consistent positive integer is minimal because scaling a
    valid vector scales every entry proportionally.

    The search stops at `k_max` and then reports the graph inconsistent,
    so it is exact only while the minimal vector gives the first actor at
    most k_max.  Propagation divides by one rate per edge of a spanning
    tree, so that count divides the product of those rates: n actors with
    rates up to R need at most R**(n-1), 6**4 = 1,296 for the test graphs
    (at most 5 actors, rates up to 6), under k_max = 4,000.  An inconsistent graph costs all
    k_max rounds, about 3 ms on a 2 vCPU host with Python 3.11.
    """
    assert actors
    adj: dict[str, list[tuple[str, int, int]]] = {a: [] for a in actors}
    for src, dst, produce, consume in edges:
        adj[src].append((dst, produce, consume))
        adj[dst].append((src, consume, produce))  # reverse ratio

    for k in range(1, k_max + 1):
        r = {actors[0]: k}
        queue = [actors[0]]
        ok = True
        while queue and ok:
            a = queue.pop()
            for b, p, c in adj[a]:
                want = r[a] * p
                if want % c:
                    ok = False
                    break
                val = want // c
                if b in r:
                    if r[b] != val:
                        ok = False
                        break
                else:
                    r[b] = val
                    queue.append(b)
        if not ok:
            continue
        if len(r) != len(actors):
            # disconnected graph: solve each component separately
            rest = [a for a in actors if a not in r]
            sub = sdf_vector_brute(
                rest,
                [e for e in edges if e[0] in rest and e[1] in rest],
                k_max,
            )
            if sub is None:
                return None
            r.update(sub)
        for src, dst, produce, consume in edges:
            if r[src] * produce != r[dst] * consume:
                ok = False
                break
        if ok:
            return r
    return None


class SdfPlanDeadlock(Exception):
    """sdf_plan_reference found no fireable actor; the message is the one
    the package's SdfDeadlockError carries."""


def sdf_plan_reference(
    actors: list[str],
    edges: list[tuple[str, str, int, int, int]],
    q: dict[str, int],
) -> tuple[list[str], list[tuple[str, str, int]], list[str]]:
    """(nodes, deps, sources) of one iteration of an SDF graph, by interval
    arithmetic over numbered tokens.

    edges are (src, dst, produce, consume, initial_tokens) and q is the
    repetition vector.  A deadlock check first fires the iteration on token
    counts alone, in rounds over `actors`.  Then the tokens of each edge
    are numbered from 1: the initial ones first, and producer firing i
    makes init + i*produce + 1 .. init + (i + 1)*produce.  Consumer firing
    j takes j*consume + 1 .. (j + 1)*consume, so it depends on each
    producer firing whose range overlaps, by the overlap.  Self-loops add no
    deps, successive firings of an actor are chained, and the deps of
    parallel edges with the same (src, dst) are summed at the first one.
    """
    tokens = [e[4] for e in edges]
    remaining = dict(q)
    progressed = True
    while progressed and any(remaining.values()):
        progressed = False
        for a in actors:
            ins = [i for i, e in enumerate(edges) if e[1] == a]
            if remaining[a] == 0 or any(tokens[i] < edges[i][3] for i in ins):
                continue
            for i in ins:
                tokens[i] -= edges[i][3]
            for i, e in enumerate(edges):
                if e[0] == a:
                    tokens[i] += e[2]
            remaining[a] -= 1
            progressed = True
    if any(remaining.values()):
        stuck = sorted(a for a, r in remaining.items() if r)
        raise SdfPlanDeadlock(
            "deadlock: no fireable actor with the given initial tokens"
            f" (stuck: {', '.join(stuck)})"
        )

    nodes = [f"{a}#{k}" for a in actors for k in range(q[a])]
    deps: dict[tuple[str, str], int] = {}
    for a in actors:
        for k in range(q[a] - 1):
            deps[(f"{a}#{k}", f"{a}#{k + 1}")] = 1
    for src, dst, produce, consume, init in edges:
        if src == dst:
            continue
        for j in range(q[dst]):
            lo = max(j * consume + 1 - init, 1)
            hi = (j + 1) * consume - init
            for i in range(q[src]):
                overlap = min(hi, (i + 1) * produce) - max(lo, i * produce + 1) + 1
                if overlap > 0:
                    key = (f"{src}#{i}", f"{dst}#{j}")
                    deps[key] = deps.get(key, 0) + overlap
    has_input = {d for _, d in deps}
    return nodes, [(s, d, n) for (s, d), n in deps.items()], [n for n in nodes if n not in has_input]


# -------------------------------------------------------- priority oracle


def priority_key_oracle(
    assignment: str,
    kind: str,
    task_id: int,
    name: str,
    seq: int,
    abs_release: int,
    abs_deadline: int,
    period: int | None,
    relative_deadline: int | None,
    user_priority: int | None,
) -> tuple[int, int, int, int]:
    """One job's key (class, primary, task id, seq) as the scheduler ranked
    jobs before it planned a key rule per task: every field read for every
    job.  `period`/`relative_deadline` are the values the job is ranked by
    (a graph node's root's); `kind` and `assignment` are enum values.
    Raises ValueError with the scheduler's message when the assignment
    cannot rank the task."""
    if kind == "APERIODIC":
        return (1, abs_release, task_id, seq)
    primary = {
        "RM": period,
        "DM": relative_deadline,
        "EDF": abs_deadline,
        "USER": user_priority,
    }[assignment]
    if primary is None:
        raise ValueError({
            "RM": f"RM needs a period on task {name!r}",
            "DM": f"DM needs a relative deadline on task {name!r}",
            "USER": f"USER priority missing on task {name!r}",
        }[assignment])
    return (0, primary, task_id, seq)


# ------------------------------------------------------ response-time oracle


def rta_fp(tasks: list[tuple[int, int]]) -> list[int | None]:
    """Worst-case response time of each (period, wcet) of `tasks`, listed
    from highest to lowest priority, on one processor under preemptive
    fixed priority with synchronous release, no overheads and deadlines
    equal to periods: the least fixed point of

        R_i = C_i + sum over j < i of ceil(R_i / T_j) * C_j

    (Joseph & Pandya 1986; Audsley et al. 1993), iterated up from C_i.
    None for a task whose iteration passes its period."""
    out: list[int | None] = []
    for i, (period, wcet) in enumerate(tasks):
        r = wcet
        while r is not None:
            nxt = wcet + sum(-(-r // t) * c for t, c in tasks[:i])
            if nxt > period:
                r = None
            elif nxt == r:
                break
            else:
                r = nxt
        out.append(r)
    return out


# ------------------------------------------------------- selection oracle


def energy_time_choice_oracle(
    props: list[tuple[int, float]],
    pool: list[int],
    free: list[bool],
    alpha: float,
) -> int:
    """The version id ENERGY_TIME picked per job before rankings were
    planned: the lowest (score, id) among the pool's free versions, or among
    the whole pool when none is free.  `props[i]` is version i's
    (exec_time, energy_cost); the maxima run over every version of the
    task, `pool` lists version ids and `free[i]` says whether version i's
    accelerators are all free.  A linear scan, not a sort."""
    tmax = max(t for t, _ in props)
    emax = max(e for _, e in props)
    candidates = [i for i in pool if free[i]] or pool
    best = None
    for i in candidates:
        t = props[i][0] / tmax if tmax else 0.0
        e = props[i][1] / emax if emax else 0.0
        score = alpha * t + (1.0 - alpha) * e
        if best is None or score < best[0] or (score == best[0] and i < best[1]):
            best = (score, i)
    return best[1]


# ------------------------------------------------------ activation oracle


def activation_oracle(
    tokens: dict[int, list[int]],
    connections: list[tuple[int, int, int]],
    nodes: list[int],
) -> dict[int, int]:
    """Firings of one data-driven activation pass, by full scan.

    tokens maps channel id -> [occupancy, claimed] and receives the claims;
    connections lists (channel id, consumer, required tokens) per connected
    channel; nodes are the token-driven consumers.  Every check rescans all
    connections for the node's inputs, and a node fires (claiming its
    required tokens on each input) while each input holds enough unclaimed
    tokens.  Returns node -> firings, omitting nodes that did not fire.
    """
    fired: dict[int, int] = {}
    for n in nodes:
        while True:
            ins = [(cid, req) for cid, dst, req in connections if dst == n]
            if not ins or any(tokens[cid][0] - tokens[cid][1] < req for cid, req in ins):
                break
            for cid, req in ins:
                tokens[cid][1] += req
            fired[n] = fired.get(n, 0) + 1
    return fired


# ---------------------------------------------------------- arrival oracle


def arrival_oracle(
    tasks: list[tuple[int, int]], horizon: int, passes: list[int]
) -> dict[tuple[int, int], int]:
    """The pass that releases each clock arrival, by enumeration.

    tasks lists (offset, period) per periodic task, in task order; passes
    are ascending instants.  Each arrival offset + k * period below the
    horizon maps (task index, arrival) to the first pass at or after it,
    found by a linear scan; an arrival after the last pass is left out.
    """
    released: dict[tuple[int, int], int] = {}
    for i, (offset, period) in enumerate(tasks):
        k = 0
        while offset + k * period < horizon:
            arrival = offset + k * period
            later = [p for p in passes if p >= arrival]
            if later:
                released[(i, arrival)] = later[0]
            k += 1
    return released


# ----------------------------------------------------- ready-queue oracle


class ReadyQueueOracle:
    """Ready queue with accelerator parking, by full sort and full scan.

    Jobs are opaque: `key(job)` gives the priority key (smaller first) and
    `accels(job)` the accelerator ids its version needs.  A pick starts the
    first job in key order that is not parked and whose accelerators are
    all free, and parks each unparked job it passes whose accelerators are
    busy; a release frees the holder's accelerators and unparks, in key
    order, the jobs left waiting on nothing.
    """

    def __init__(self, key, accels):
        self.key = key
        self.accels = accels
        self.live: list = []
        self.parked: dict = {}  # job -> set of busy accelerator ids
        self.held: dict[int, object] = {}  # accelerator id -> holder

    def order(self) -> list:
        return sorted(self.live, key=self.key)

    def insert(self, job) -> None:
        self.live.append(job)

    def pick(self):
        for job in self.order():
            if job in self.parked:
                continue
            busy = {a for a in self.accels(job) if a in self.held}
            if busy:
                self.parked[job] = busy
                continue
            for a in self.accels(job):
                self.held[a] = job
            self.live.remove(job)
            return job
        return None

    def release(self, holder) -> tuple[list[int], list]:
        freed = sorted(a for a, h in self.held.items() if h is holder)
        for a in freed:
            del self.held[a]
        woken = []
        for job in self.order():
            if job in self.parked:
                self.parked[job] -= set(freed)
                if not self.parked[job]:
                    del self.parked[job]
                    woken.append(job)
        return freed, woken


# --------------------------------------------------------- set generators


def uunifast(rng: random.Random, n: int, u_total: float) -> list[float]:
    """Classic utilization splitter: n shares summing exactly to u_total."""
    shares = []
    rest = u_total
    for i in range(1, n):
        nxt = rest * rng.random() ** (1.0 / (n - i))
        shares.append(rest - nxt)
        rest = nxt
    shares.append(rest)
    return shares


PERIOD_POOL_NS = [
    2_000_000,
    4_000_000,
    5_000_000,
    8_000_000,
    10_000_000,
    16_000_000,
    20_000_000,
    40_000_000,
]


def random_taskset(
    rng: random.Random,
    n: int,
    u_total: float,
    pool: list[int] | None = None,
) -> list[OracleTask]:
    """Implicit-deadline periodic set with actual utilization <= u_total.

    wcets are floored to integers, so the realized utilization never
    exceeds the requested one; tasks that would round to zero get 1 ns.
    """
    pool = pool or PERIOD_POOL_NS
    tasks = []
    for i, u in enumerate(uunifast(rng, n, u_total)):
        period = rng.choice(pool)
        wcet = max(1, int(u * period))
        tasks.append(OracleTask(f"t{i}", period, wcet))
    return tasks


def actual_utilization(tasks: list[OracleTask]) -> float:
    return sum(t.wcet / t.period for t in tasks)
