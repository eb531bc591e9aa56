"""Task graphs: channels, data-driven activation, and dataflow expansion.

Channels are bounded single-producer/single-consumer FIFOs.  Capacity 0 is
allowed and means a pure precedence edge: no payload is stored, but a
one-token virtual occupancy still flows so ordering is observable.

A task carrying a period is a root; graph nodes (no period) activate when
every input channel holds the required token count.  Deadlines of graph
nodes are described at graph level: a node job inherits the absolute
deadline of the root iteration its tokens belong to.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    DeclarationError,
    GraphError,
    SdfDeadlockError,
    SdfInconsistentError,
    UsageError,
)
from .model import Diagnostic, MiddlewareState, TaskKind


# ------------------------------------------------------------ channels


@dataclass
class ChannelDescriptor:
    channel_id: int
    name: str
    element_size: int
    capacity: int  # 0 = precedence-only edge
    src: int | None = None
    dst: int | None = None
    initial_tokens: int = 0
    # tokens one consumer firing needs and one producer job pushes; None reads as 1
    required_tokens: int | None = None
    push_count: int | None = None

    @property
    def room(self) -> int:
        """Tokens the channel holds at run time; capacity 0 holds one
        virtual token."""
        return max(self.capacity, 1)


def channel_decl(
    state: MiddlewareState, name: str, element_size: int, capacity: int
) -> int:
    """Declare an unconnected channel and return its id."""
    state._require_mutable("channel_decl")
    if element_size < 0 or capacity < 0:
        raise DeclarationError("element_size and capacity must be >= 0")
    if name in state._channel_names:
        raise DeclarationError(f"channel {name!r} already declared")
    state._channel_names.add(name)
    ch = ChannelDescriptor(
        channel_id=len(state.channels),
        name=name,
        element_size=element_size,
        capacity=capacity,
    )
    state.channels.append(ch)
    return ch.channel_id


def channel_connect(
    state: MiddlewareState,
    channel_id: int,
    src_task: int,
    dst_task: int,
    *,
    required_tokens: int | None = None,
    push_count: int | None = None,
) -> None:
    """Attach a channel between a producer and a consumer task.

    required_tokens overrides the consumer's activation rule for this
    channel (default 1); push_count is how many tokens the producer emits
    per job (default 1).  Reconnecting a channel is an error.
    """
    state._require_mutable("channel_connect")
    ch = channel(state, channel_id)
    if ch.src is not None or ch.dst is not None:
        raise DeclarationError(f"channel {ch.name!r} is already connected")
    state.task(src_task)
    state.task(dst_task)
    if required_tokens is not None and required_tokens < 1:
        raise DeclarationError("required_tokens must be >= 1")
    if push_count is not None and push_count < 1:
        raise DeclarationError("push_count must be >= 1")
    ch.src = src_task
    ch.dst = dst_task
    ch.required_tokens = required_tokens
    ch.push_count = push_count


def channel(state: MiddlewareState, channel_id: int) -> ChannelDescriptor:
    if not 0 <= channel_id < len(state.channels):
        raise DeclarationError(f"unknown channel id {channel_id}")
    return state.channels[channel_id]


def input_channels(state: MiddlewareState, task_id: int) -> list[ChannelDescriptor]:
    return [c for c in state.channels if c.dst == task_id]


def output_channels(state: MiddlewareState, task_id: int) -> list[ChannelDescriptor]:
    return [c for c in state.channels if c.src == task_id]


def channel_push(state: MiddlewareState, channel_id: int, value=None) -> None:
    """Blocking push from within a running job body (real backend)."""
    from .realtime import current_job_context

    ctx = current_job_context()
    if ctx is None:
        raise UsageError("channel_push outside a running job")
    ctx.push(channel_id, value)


def channel_pop(state: MiddlewareState, channel_id: int):
    """Blocking pop from within a running job body (real backend)."""
    from .realtime import current_job_context

    ctx = current_job_context()
    if ctx is None:
        raise UsageError("channel_pop outside a running job")
    return ctx.pop(channel_id)


class ChannelState:
    """Runtime FIFO state for one channel.  Not thread-safe by itself.

    Tokens never get dropped: push on a full channel and pop on an empty
    one are refused here and block at the backend layer.  `claimed` counts
    tokens logically reserved by the scheduler when it releases a job of
    the consumer, so one token burst cannot activate two jobs.
    """

    __slots__ = ("capacity", "items", "claimed")

    def __init__(self, desc: ChannelDescriptor):
        self.capacity = desc.room
        self.items: deque = deque([None] * min(desc.initial_tokens, self.capacity))
        self.claimed = 0

    @property
    def occupancy(self) -> int:
        return len(self.items)

    @property
    def unclaimed(self) -> int:
        return len(self.items) - self.claimed

    def can_push(self) -> bool:
        return len(self.items) < self.capacity

    def push(self, value=None) -> None:
        assert self.can_push(), "push on full channel must block at backend level"
        self.items.append(value)

    def can_pop(self) -> bool:
        return bool(self.items)

    def pop(self):
        assert self.items, "pop on empty channel must block at backend level"
        if self.claimed > 0:
            self.claimed -= 1
        return self.items.popleft()

    def reserve(self, n: int) -> None:
        assert self.unclaimed >= n
        self.claimed += n


def short_input(
    channels: dict[int, ChannelState], inputs: list[tuple[int, int]]
) -> int | None:
    """First of the (channel_id, required_tokens) inputs whose channel holds
    fewer unclaimed tokens than one firing needs; None when all can serve."""
    for cid, need in inputs:
        if channels[cid].unclaimed < need:
            return cid
    return None


def reserve_inputs(
    channels: dict[int, ChannelState], inputs: list[tuple[int, int]]
) -> None:
    for cid, need in inputs:
        channels[cid].reserve(need)


def _input_pairs(state: MiddlewareState, task_id: int) -> list[tuple[int, int]]:
    return [(c.channel_id, c.required_tokens or 1) for c in input_channels(state, task_id)]


def check_activation(
    state: MiddlewareState, channels: dict[int, ChannelState], task_id: int
) -> bool:
    """True when every input channel holds the required unclaimed tokens.

    A node with no input channels never auto-activates here; roots with a
    period are released by the clock instead.  Scans state.channels; the
    scheduler core checks through GraphInfo.inputs instead.
    """
    task = state.task(task_id)
    if task.kind is not TaskKind.GRAPH_NODE:
        raise UsageError("check_activation applies to graph_node tasks")
    inputs = _input_pairs(state, task_id)
    return bool(inputs) and short_input(channels, inputs) is None


def reserve_activation(
    state: MiddlewareState, channels: dict[int, ChannelState], task_id: int
) -> None:
    """Logically claim the tokens that justified one activation."""
    reserve_inputs(channels, _input_pairs(state, task_id))


# ----------------------------------------------------- graph validation


@dataclass
class GraphInfo:
    """Derived structure used by validation and by both backends.

    `inputs` and `outputs` are the run's channel index, built in one pass
    over state.channels: for every task with a connected channel, its
    (channel_id, required_tokens) input pairs and (channel_id, push_count)
    output pairs.  They list the channels input_channels and
    output_channels return, in the same (channel id) order, so the hot
    paths read them instead of rescanning state.channels per check or job.
    """

    node_rate: dict[int, int] = field(default_factory=dict)  # firings per iteration
    node_root: dict[int, int] = field(default_factory=dict)  # node -> root task
    diagnostics: list[Diagnostic] = field(default_factory=list)
    inputs: dict[int, list[tuple[int, int]]] = field(default_factory=dict)
    outputs: dict[int, list[tuple[int, int]]] = field(default_factory=dict)


def analyze_graph(state: MiddlewareState) -> GraphInfo:
    info = GraphInfo()
    diags = info.diagnostics
    edges: list[tuple[int, int, ChannelDescriptor]] = []

    for ch in state.channels:
        if not 0 <= ch.initial_tokens <= ch.room:
            diags.append(Diagnostic(
                "error", "bad-initial-tokens",
                f"channel {ch.name!r} starts with {ch.initial_tokens} tokens;"
                f" it holds 0 to {ch.room}",
            ))
        if ch.src is None or ch.dst is None:
            diags.append(
                Diagnostic(
                    "error",
                    "dangling-channel",
                    f"channel {ch.name!r} (id {ch.channel_id}) is not connected",
                )
            )
            continue
        if (ch.required_tokens or 1) > ch.room:
            diags.append(Diagnostic(
                "error", "channel-room",
                f"channel {ch.name!r} holds {ch.room} tokens but its consumer needs"
                f" {ch.required_tokens} to fire, so it never fires",
            ))
        edges.append((ch.src, ch.dst, ch))
        cid = ch.channel_id
        info.inputs.setdefault(ch.dst, []).append((cid, ch.required_tokens or 1))
        info.outputs.setdefault(ch.src, []).append((cid, ch.push_count or 1))

    # ---- acyclicity (Kahn) over tasks touched by channels
    touched = sorted({t for s, d, _ in edges for t in (s, d)})
    indeg = {t: 0 for t in touched}
    for _, d, _ in edges:
        indeg[d] += 1
    order = deque(t for t in touched if indeg[t] == 0)
    seen = list(order)
    while order:
        t = order.popleft()
        for cid, _ in info.outputs.get(t, ()):
            d = state.channels[cid].dst
            indeg[d] -= 1
            if indeg[d] == 0:
                order.append(d)
                seen.append(d)
    if len(seen) != len(touched):
        cyc = sorted(set(touched) - set(seen))
        names = ", ".join(state.tasks[t].name for t in cyc)
        diags.append(
            Diagnostic("error", "graph-cycle", f"channel graph has a cycle through: {names}")
        )
        return info

    # ---- weakly-connected components containing graph nodes
    parent = {t: t for t in touched}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for s, d, _ in edges:
        parent[find(s)] = find(d)
    comps: dict[int, list[int]] = {}
    for t in touched:
        comps.setdefault(find(t), []).append(t)

    for members in comps.values():
        nodes = [t for t in members if state.tasks[t].kind is TaskKind.GRAPH_NODE]
        if not nodes:
            continue
        roots = [t for t in members if state.tasks[t].period is not None]
        if not roots:
            names = ", ".join(state.tasks[t].name for t in sorted(members))
            diags.append(
                Diagnostic(
                    "error", "no-root", f"graph component {{{names}}} has no periodic root"
                )
            )
            continue
        r0 = state.tasks[roots[0]]
        for r in roots[1:]:
            t = state.tasks[r]
            if (t.period, t.release_offset, t.relative_deadline) != (
                r0.period,
                r0.release_offset,
                r0.relative_deadline,
            ):
                diags.append(
                    Diagnostic(
                        "error",
                        "root-mismatch",
                        f"roots {r0.name!r} and {t.name!r} of one graph disagree on"
                        " period/offset/deadline",
                    )
                )
        for n in nodes:
            info.node_root[n] = roots[0]

    # ---- firing rates per iteration along topological order.  A rate is
    # an int (a fractional one becomes 0), so an input's rate arriving/need
    # is compared by cross-multiplying; a Fraction only formats a message.
    rate: dict[int, int] = {}
    for t in seen:  # topological order
        task = state.tasks[t]
        if task.period is not None or task.kind is not TaskKind.GRAPH_NODE:
            rate[t] = 1  # a root, or data exchange between recurring tasks
            continue
        inputs = info.inputs.get(t)
        if not inputs:
            diags.append(
                Diagnostic(
                    "warning",
                    "dead-node",
                    f"graph node {task.name!r} has no inputs and no period;"
                    " it never auto-activates",
                )
            )
            rate[t] = 0
            continue
        num = den = 0  # the first input's firings, num/den
        for cid, need in inputs:
            ch = state.channels[cid]
            arriving = rate[ch.src] * (ch.push_count or 1)
            if not den:
                num, den = arriving, need
            elif arriving * den != num * need:
                diags.append(
                    Diagnostic(
                        "error",
                        "rate-mismatch",
                        f"node {task.name!r}: input channels imply conflicting"
                        f" firing rates ({Fraction(num, den)} vs {Fraction(arriving, need)})",
                    )
                )
        firings, rest = divmod(num, den)
        if rest:
            diags.append(
                Diagnostic(
                    "error",
                    "rate-fraction",
                    f"node {task.name!r} would fire {Fraction(num, den)} times per iteration;"
                    " token flow must divide evenly",
                )
            )
            firings = 0
        rate[t] = info.node_rate[t] = firings

    # graph nodes not touched by any channel
    for task in state.tasks:
        if task.kind is TaskKind.GRAPH_NODE and task.task_id not in rate:
            if task.period is None:
                diags.append(
                    Diagnostic(
                        "warning",
                        "dead-node",
                        f"graph node {task.name!r} has no channels and no period;"
                        " it never activates",
                    )
                )
    return info


# ------------------------------------------------------- SDF expansion


@dataclass(frozen=True)
class SdfEdge:
    src: str
    dst: str
    produce: int
    consume: int
    initial_tokens: int = 0


@dataclass
class SdfGraph:
    """Synchronous dataflow description: actors plus rated edges."""

    actors: list[str]
    edges: list[SdfEdge]

    def check(self) -> None:
        if not self.actors:
            raise SdfInconsistentError("empty actor list")
        if len(set(self.actors)) != len(self.actors):
            raise SdfInconsistentError("duplicate actor names")
        known = set(self.actors)
        for e in self.edges:
            if e.src not in known or e.dst not in known:
                raise SdfInconsistentError(f"edge {e.src}->{e.dst} names unknown actor")
            if e.produce < 1 or e.consume < 1:
                raise SdfInconsistentError(
                    f"edge {e.src}->{e.dst}: rates must be >= 1"
                )
            if e.initial_tokens < 0:
                raise SdfInconsistentError(
                    f"edge {e.src}->{e.dst}: initial_tokens must be >= 0"
                )


def repetition_vector(sdf: SdfGraph) -> dict[str, int]:
    """Minimal positive integer firing counts balancing every edge.

    Solves produce * q[src] == consume * q[dst] by ratio propagation over a
    spanning tree, then verifies all edges (catches inconsistent parallel
    paths) and scales to the smallest integer solution.
    """
    sdf.check()
    q: dict[str, Fraction] = {}
    adj: dict[str, list[tuple[str, Fraction, SdfEdge]]] = {a: [] for a in sdf.actors}
    for e in sdf.edges:
        ratio = Fraction(e.produce, e.consume)  # q[dst] = ratio * q[src]
        adj[e.src].append((e.dst, ratio, e))
        adj[e.dst].append((e.src, 1 / ratio, e))

    for seed in sdf.actors:
        if seed in q:
            continue
        q[seed] = Fraction(1)
        frontier = [seed]
        while frontier:
            a = frontier.pop()
            for b, ratio, e in adj[a]:
                want = q[a] * ratio
                if b not in q:
                    q[b] = want
                    frontier.append(b)
                elif q[b] != want:
                    raise SdfInconsistentError(
                        f"inconsistent rates on edge {e.src}->{e.dst}"
                        f" ({e.produce}:{e.consume})"
                    )

    scale = math.lcm(*(f.denominator for f in q.values()))
    ints = {a: int(f * scale) for a, f in q.items()}
    g = math.gcd(*ints.values())
    return {a: v // g for a, v in ints.items()}


@dataclass
class ExpansionPlan:
    """One-iteration DAG derived from an SDF graph.

    Node names are actor#k for the k-th firing.  Dependencies carry exact
    token counts so that one iteration is occupancy-neutral.
    """

    repetition: dict[str, int]
    nodes: list[str]
    deps: list[tuple[str, str, int]]  # (src node, dst node, token count)
    sources: list[str]


def plan_expansion(sdf: SdfGraph) -> ExpansionPlan:
    """Fire one iteration in rounds over sdf.actors, each actor once per
    round while every input edge holds its consume count.  An edge is a FIFO
    of (producer firing, count) runs, initial tokens first with no producer.
    A firing depends on the producer firings whose tokens it takes, always
    earlier ones, so the plan is acyclic; parallel edges sum into one dep.
    """
    q = repetition_vector(sdf)
    edges = sdf.edges
    ins = {a: [i for i, e in enumerate(edges) if e.dst == a] for a in sdf.actors}
    outs = {a: [i for i, e in enumerate(edges) if e.src == a] for a in sdf.actors}
    held = [e.initial_tokens for e in edges]
    fifos = [deque([(None, e.initial_tokens)] if e.initial_tokens else []) for e in edges]
    taken: list[list[tuple[int, int, int]]] = [[] for _ in edges]  # (producer, consumer, count)
    fired = dict.fromkeys(sdf.actors, 0)
    while remaining := [a for a in sdf.actors if fired[a] < q[a]]:
        progressed = False
        for a in remaining:
            if any(held[i] < edges[i].consume for i in ins[a]):
                continue
            k = fired[a]
            for i in ins[a]:
                need = edges[i].consume
                held[i] -= need
                while need:
                    src, count = fifos[i].popleft()
                    if count > need:
                        fifos[i].appendleft((src, count - need))
                        count = need
                    need -= count
                    if src is not None and edges[i].src != a:  # the chain orders self-loops
                        taken[i].append((src, k, count))
            for i in outs[a]:
                fifos[i].append((k, edges[i].produce))
                held[i] += edges[i].produce
            fired[a] = k + 1
            progressed = True
        if not progressed:
            raise SdfDeadlockError("deadlock: no fireable actor with the given initial"
                                   f" tokens (stuck: {', '.join(sorted(remaining))})")

    # firing chains of each actor, then token deps by (edge, consumer, producer)
    deps: Counter[tuple[str, str]] = Counter()
    for a in sdf.actors:
        for k in range(q[a] - 1):
            deps[f"{a}#{k}", f"{a}#{k + 1}"] = 1
    for e, runs in zip(edges, taken):
        for src, dst, count in runs:
            deps[f"{e.src}#{src}", f"{e.dst}#{dst}"] += count
    nodes = [f"{a}#{k}" for a in sdf.actors for k in range(q[a])]
    has_input = {d for _, d in deps}
    return ExpansionPlan(q, nodes, [(s, d, n) for (s, d), n in deps.items()],
                         [n for n in nodes if n not in has_input])


def expand_sdf(
    state: MiddlewareState,
    sdf: SdfGraph,
    *,
    period: int,
    wcets: dict[str, int],
    relative_deadline: int | None = None,
    release_offset: int = 0,
    virt_core_id: int | None = None,
) -> dict[str, int]:
    """Expand an SDF graph into graph-node tasks declared on `state`.

    Every firing becomes a task named actor#k; source firings carry the
    iteration period and act as roots.  wcets maps actor name to the
    execution estimate used for each of its firings.  Returns the
    repetition vector.
    """
    if period <= 0:
        raise DeclarationError("period must be > 0")
    plan = plan_expansion(sdf)
    missing = [a for a in sdf.actors if a not in wcets]
    if missing:
        raise DeclarationError(f"missing wcet for actors: {', '.join(missing)}")

    ids: dict[str, int] = {}
    roots = set(plan.sources)
    for node in plan.nodes:
        actor = node.split("#", 1)[0]
        is_root = node in roots
        # the deadline is end to end: it lives on the roots and downstream
        # firings inherit it from the root release of their iteration
        ids[node] = state.task_decl(
            node,
            TaskKind.GRAPH_NODE,
            period=period if is_root else None,
            relative_deadline=relative_deadline if is_root else None,
            release_offset=release_offset,
            virt_core_id=virt_core_id,
        )
        state.version_decl(ids[node], wcet_estimate=wcets[actor])

    for src, dst, count in plan.deps:
        cid = channel_decl(state, f"{src}->{dst}", 0, 0 if count == 1 else count)
        channel_connect(
            state,
            cid,
            ids[src],
            ids[dst],
            required_tokens=count,
            push_count=count,
        )
    return dict(plan.repetition)
