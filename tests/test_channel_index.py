"""The per-run channel index and push-marked activation checks.

GraphInfo.inputs/outputs must list exactly what the scanning helpers
return.  The scheduler core's graph_activations and work_pending look only
at the nodes a SchedulerCore.push has marked since the last pass, and must
answer like a from-scratch scan (tests/oracles.py) over any interleaving
of pushes, pops and reservations.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from rtsched import (
    PolicyConfig,
    TaskKind,
    channel_connect,
    channel_decl,
    init,
    ms,
)
# Internal names that rtsched does not export: imported from their modules.
from rtsched.graph import analyze_graph, check_activation, input_channels, output_channels
from rtsched.online import SchedulerCore
from rtsched.versions import AcceleratorRegistry, SelectionContext

from .oracles import activation_oracle


@st.composite
def graphs(draw, integer_rates=False):
    """A DAG over n tasks: task 0 and maybe others, never the last, are
    periodic roots; every other task has at least one input from a lower
    id.  Channels are declared in shuffled order, some left unconnected.
    With integer_rates
    every push_count is a multiple of the edge's required_tokens, so every
    non-root node fires a whole number of times per iteration."""
    n = draw(st.integers(2, 6))
    roots = ({0} | set(draw(st.lists(st.integers(1, n - 1), max_size=2)))) - {n - 1}
    edges = []  # (src, dst, capacity, required_tokens | None, push_count | None)
    for j in range(1, n):
        for _ in range(draw(st.integers(0 if j in roots else 1, 3))):
            src = draw(st.integers(0, j - 1))
            req = draw(st.none() | st.integers(1, 3))
            if integer_rates:
                push = (req or 1) * draw(st.integers(1, 2))
            else:
                push = draw(st.none() | st.integers(1, 3))
            edges.append((src, j, draw(st.integers(0, 4)), req, push))
    dangling = draw(st.integers(0, 2))
    order = draw(st.permutations(range(len(edges) + dangling)))
    return n, roots, edges, order


def _build(g):
    n, roots, edges, order = g
    state = init(PolicyConfig())
    for t in range(n):
        period = ms(10) if t in roots else None
        tid = state.task_decl(f"t{t}", TaskKind.GRAPH_NODE, period=period)
        state.version_decl(tid, wcet_estimate=1)
    for i in order:
        if i >= len(edges):
            channel_decl(state, f"dangling{i}", 8, 1)
            continue
        src, dst, cap, req, push = edges[i]
        cid = channel_decl(state, f"e{i}", 8, cap)
        channel_connect(state, cid, src, dst, required_tokens=req, push_count=push)
    return state


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_index_matches_scans(g):
    state = _build(g)
    info = analyze_graph(state)
    for t in range(len(state.tasks)):
        assert info.inputs.get(t, []) == [
            (c.channel_id, c.required_tokens or 1)
            for c in input_channels(state, t)
        ]
        assert info.outputs.get(t, []) == [
            (c.channel_id, c.push_count or 1)
            for c in output_channels(state, t)
        ]


def _core(state):
    return SchedulerCore(
        state, analyze_graph(state), AcceleratorRegistry(0), SelectionContext()
    )


def _snapshot(channels):
    return {cid: [len(ch.items), ch.claimed] for cid, ch in channels.items()}


ops = st.lists(
    st.tuples(
        st.sampled_from(["push", "pop", "reserve", "activate", "pending"]),
        st.integers(0, 63),
        st.integers(1, 3),
    ),
    max_size=60,
)


@settings(max_examples=60, deadline=None)
@given(graphs(integer_rates=True), ops)
def test_push_driven_matches_full_scan(g, steps):
    n, roots, edges, _ = g
    state = _build(g)
    core = _core(state)
    channels = core.channels
    connections = [
        (c.channel_id, c.dst, c.required_tokens or 1)
        for c in state.channels
        if c.dst is not None
    ]
    nodes = [t for t in range(n) if t not in roots]
    ids = sorted(channels)
    for op, pick, count in steps:
        cid = ids[pick % len(ids)]
        ch = channels[cid]
        if op == "push":
            for _ in range(count):
                if ch.can_push():
                    core.push(cid)
        elif op == "pop":
            for _ in range(count):
                if ch.can_pop():
                    ch.pop()
        elif op == "reserve":
            if ch.unclaimed >= count:
                ch.reserve(count)
        elif op == "activate":
            tokens = _snapshot(channels)
            want = activation_oracle(tokens, connections, nodes)
            jobs = core.graph_activations(now=0)
            assert Counter(j.task.task_id for j in jobs) == Counter(want)
            assert _snapshot(channels) == tokens
        else:
            fireable = activation_oracle(_snapshot(channels), connections, nodes)
            assert core.work_pending(horizon=0) == bool(fireable)
            assert [check_activation(state, channels, t) for t in nodes] == [
                t in fireable for t in nodes
            ]


def _fan_in_state():
    state = init(PolicyConfig())
    root = state.task_decl("root", TaskKind.PERIODIC, period=ms(10))
    state.version_decl(root, wcet_estimate=1)
    node = state.task_decl("node", TaskKind.GRAPH_NODE)
    state.version_decl(node, wcet_estimate=1)
    a = channel_decl(state, "a", 8, 4)
    b = channel_decl(state, "b", 8, 4)
    channel_connect(state, a, root, node)
    channel_connect(state, b, root, node, required_tokens=2, push_count=2)
    return state, a, b


class TestPushDrivenSkip:
    def test_push_on_short_channel_rechecks(self):
        state, a, b = _fan_in_state()
        core = _core(state)
        core.push(a)
        assert core.work_pending(horizon=0) is False  # b is short
        core.push(b)
        assert core.work_pending(horizon=0) is False  # b still short
        core.push(b)
        assert core.work_pending(horizon=0) is True
        assert [j.task.name for j in core.graph_activations(now=0)] == ["node"]
        assert core.graph_activations(now=0) == []

    def test_pops_and_claims_never_revive_a_failed_check(self):
        state, a, b = _fan_in_state()
        core = _core(state)
        channels = core.channels
        core.push(b)
        core.push(b)
        assert core.graph_activations(now=0) == []  # a is short
        channels[b].pop()  # pops a claimed-free token: b is short now too
        core.push(a)
        assert core.graph_activations(now=0) == []  # b short
        core.push(b)
        assert len(core.graph_activations(now=0)) == 1

    def test_fresh_core_is_checked_from_scratch(self):
        state, a, b = _fan_in_state()
        assert _core(state).work_pending(horizon=0) is False
        # a core whose channels start full: no pushes, yet fireable
        state.channels[a].initial_tokens = 1
        state.channels[b].initial_tokens = 2
        core = _core(state)
        assert core.work_pending(horizon=0) is True
        assert [j.task.name for j in core.graph_activations(now=0)] == ["node"]
