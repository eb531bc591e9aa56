"""Channels, graph analysis, SDF expansion."""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rtsched import (
    ChannelState,
    DeclarationError,
    GraphError,
    PolicyConfig,
    SdfDeadlockError,
    SdfEdge,
    SdfGraph,
    SdfInconsistentError,
    TaskKind,
    ValidationError,
    analyze_graph,
    channel_connect,
    channel_decl,
    expand_sdf,
    init,
    load_document,
    ms,
    plan_expansion,
    repetition_vector,
    run_simulation,
    us,
)
from rtsched import ChannelDescriptor
from rtsched.graph import check_activation, reserve_activation
import rtsched.simulator as sim

from .oracles import SdfPlanDeadlock, sdf_plan_reference, sdf_vector_brute


def _desc(capacity, initial=0):
    return ChannelDescriptor(
        channel_id=0,
        name="c",
        element_size=8,
        capacity=capacity,
        initial_tokens=initial,
    )


class TestChannelState:
    def test_fifo_order(self):
        ch = ChannelState(_desc(4))
        for v in "abcd":
            ch.push(v)
        assert not ch.can_push()
        assert [ch.pop() for _ in range(4)] == list("abcd")
        assert not ch.can_pop()

    def test_capacity_zero_is_one_slot(self):
        ch = ChannelState(_desc(0))
        assert ch.can_push()
        ch.push("x")
        assert not ch.can_push()

    def test_initial_tokens(self):
        ch = ChannelState(_desc(3, initial=2))
        assert ch.occupancy == 2

    def test_claims_reduce_unclaimed_only(self):
        ch = ChannelState(_desc(4))
        ch.push(1)
        ch.push(2)
        ch.reserve(2)
        assert ch.occupancy == 2
        assert ch.unclaimed == 0
        ch.pop()
        assert ch.claimed == 1

    # acceptance criterion 10 runs this property at higher volume
    @given(
        st.lists(
            st.one_of(st.just("push"), st.just("pop")), min_size=1, max_size=100
        )
    )
    def test_interleavings_preserve_fifo_and_tokens(self, ops):
        ch = ChannelState(_desc(5))
        sent = []
        got = []
        n = 0
        for op in ops:
            if op == "push" and ch.can_push():
                ch.push(n)
                sent.append(n)
                n += 1
            elif op == "pop" and ch.can_pop():
                got.append(ch.pop())
        assert got == sent[: len(got)]  # FIFO, nothing lost or reordered
        assert ch.occupancy == len(sent) - len(got)  # conservation


class TestDeclarations:
    def test_connect_and_required_tokens(self):
        state = init(PolicyConfig())
        src = state.task_decl("src", TaskKind.PERIODIC, period=ms(10))
        state.version_decl(src, wcet_estimate=1)
        dst = state.task_decl("dst", TaskKind.GRAPH_NODE)
        state.version_decl(dst, wcet_estimate=1)
        cid = channel_decl(state, "c", 8, 2)
        channel_connect(state, cid, src, dst, required_tokens=2, push_count=2)
        ch = state.channels[cid]
        assert (ch.src, ch.dst) == (src, dst)

    def test_double_connect_rejected(self):
        state = init(PolicyConfig())
        a = state.task_decl("a", TaskKind.PERIODIC, period=ms(10))
        b = state.task_decl("b", TaskKind.GRAPH_NODE)
        c = state.task_decl("c", TaskKind.GRAPH_NODE)
        cid = channel_decl(state, "c", 8, 1)
        channel_connect(state, cid, a, b)
        with pytest.raises(DeclarationError):
            channel_connect(state, cid, a, c)

    def test_negative_capacity_rejected(self):
        state = init(PolicyConfig())
        with pytest.raises(DeclarationError):
            channel_decl(state, "c", 8, -1)

    def test_duplicate_name_rejected(self):
        state = init(PolicyConfig())
        with pytest.raises(DeclarationError):
            channel_decl(state, "c", 8, -1)
        assert channel_decl(state, "c", 8, 1) == 0  # a refused declaration takes no name
        assert channel_decl(state, "d", 8, 1) == 1
        with pytest.raises(DeclarationError, match="^channel 'c' already declared$"):
            channel_decl(state, "c", 8, 1)


def _two_stage_state():
    state = init(PolicyConfig())
    src = state.task_decl("src", TaskKind.PERIODIC, period=ms(10))
    state.version_decl(src, wcet_estimate=1)
    sink = state.task_decl("sink", TaskKind.GRAPH_NODE)
    state.version_decl(sink, wcet_estimate=1)
    cid = channel_decl(state, "c", 8, 2)
    channel_connect(state, cid, src, sink, required_tokens=2, push_count=1)
    return state, src, sink, cid


class TestActivationCheck:
    def test_needs_all_required_tokens(self):
        state, src, sink, cid = _two_stage_state()
        channels = {cid: ChannelState(state.channels[cid])}
        assert not check_activation(state, channels, sink)
        channels[cid].push(None)
        assert not check_activation(state, channels, sink)
        channels[cid].push(None)
        assert check_activation(state, channels, sink)

    def test_reservation_prevents_double_activation(self):
        state, src, sink, cid = _two_stage_state()
        channels = {cid: ChannelState(state.channels[cid])}
        channels[cid].push(None)
        channels[cid].push(None)
        assert check_activation(state, channels, sink)
        reserve_activation(state, channels, sink)
        # same tokens cannot activate a second job
        assert not check_activation(state, channels, sink)

    def test_no_input_nodes_never_auto_activate(self):
        state = init(PolicyConfig())
        lone = state.task_decl("lone", TaskKind.GRAPH_NODE)
        state.version_decl(lone, wcet_estimate=1)
        assert not check_activation(state, {}, lone)


class TestAnalyzeGraph:
    def test_cycle_detected(self):
        state = init(PolicyConfig())
        a = state.task_decl("a", TaskKind.GRAPH_NODE)
        b = state.task_decl("b", TaskKind.GRAPH_NODE)
        c1 = channel_decl(state, "ab", 8, 1)
        c2 = channel_decl(state, "ba", 8, 1)
        channel_connect(state, c1, a, b)
        channel_connect(state, c2, b, a)
        info = analyze_graph(state)
        assert any(d.code == "graph-cycle" for d in info.diagnostics)

    def test_component_needs_root(self):
        state = init(PolicyConfig())
        a = state.task_decl("a", TaskKind.GRAPH_NODE)
        b = state.task_decl("b", TaskKind.GRAPH_NODE)
        cid = channel_decl(state, "ab", 8, 1)
        channel_connect(state, cid, a, b)
        info = analyze_graph(state)
        assert any(d.code == "no-root" for d in info.diagnostics)

    def test_dangling_channel(self):
        state = init(PolicyConfig())
        channel_decl(state, "c", 8, 1)
        info = analyze_graph(state)
        assert any(d.code == "dangling-channel" for d in info.diagnostics)

    @pytest.mark.parametrize(
        "capacity,initial,ok",
        [(1, 3, False), (1, -4, False), (2, 2, True), (0, 1, True), (0, 2, False)],
    )
    def test_initial_tokens_must_fit(self, capacity, initial, ok):
        # capacity 0 is a precedence edge holding one virtual token
        state = init(PolicyConfig())
        root = state.task_decl("root", TaskKind.PERIODIC, period=ms(10))
        node = state.task_decl("node", TaskKind.GRAPH_NODE)
        cid = channel_decl(state, "c", 8, capacity)
        channel_connect(state, cid, root, node)
        state.channels[cid].initial_tokens = initial
        errors = [d.code for d in analyze_graph(state).diagnostics if d.level == "error"]
        assert errors == ([] if ok else ["bad-initial-tokens"])

    @pytest.mark.parametrize("capacity,required,push,ok", [
        (1, 2, 2, False),
        (0, 2, 2, False),  # capacity 0 holds one virtual token
        (1, 1, 2, True),  # the consumer drains a burst token by token
        (2, 2, 2, True),
        (0, None, None, True),
    ])
    def test_required_tokens_must_fit_room(self, capacity, required, push, ok):
        state = init(PolicyConfig(worker_count=1))
        r = state.task_decl("r", TaskKind.PERIODIC, period=ms(10))
        state.version_decl(r, wcet_estimate=100_000)
        n = state.task_decl("n", TaskKind.GRAPH_NODE)
        state.version_decl(n, wcet_estimate=100_000)
        cid = channel_decl(state, "c", 8, capacity)
        channel_connect(state, cid, r, n, required_tokens=required, push_count=push)
        errors = [d.code for d in state.validate() if d.level == "error"]
        assert errors == ([] if ok else ["channel-room"])
        if not ok:  # before the check, this run released 10 jobs and completed none
            with pytest.raises(ValidationError, match="channel-room"):
                run_simulation(state, horizon="100ms")

    def test_root_and_rates(self):
        state = init(PolicyConfig())
        root = state.task_decl("root", TaskKind.PERIODIC, period=ms(10))
        state.version_decl(root, wcet_estimate=1)
        mid = state.task_decl("mid", TaskKind.GRAPH_NODE)
        state.version_decl(mid, wcet_estimate=1)
        cid = channel_decl(state, "c", 8, 4)
        # two pushes per root job, one required per mid job: mid fires twice
        channel_connect(state, cid, root, mid, required_tokens=1, push_count=2)
        info = analyze_graph(state)
        assert not [d for d in info.diagnostics if d.level == "error"]
        assert info.node_root[mid] == root
        assert info.node_rate[mid] == 2

    @staticmethod
    def _rated(*inputs):
        """A root r and a graph node n fed by one channel from r per
        (push_count, required_tokens) in `inputs`, then a graph node m fed
        one token per firing of n; returns the state and the ids of n and m."""
        state = init(PolicyConfig())
        r = state.task_decl("r", TaskKind.PERIODIC, period=ms(10))
        n = state.task_decl("n", TaskKind.GRAPH_NODE)
        m = state.task_decl("m", TaskKind.GRAPH_NODE)
        for i, (push, need) in enumerate(inputs):
            cid = channel_decl(state, f"rn{i}", 8, 8)
            channel_connect(state, cid, r, n, required_tokens=need, push_count=push)
        channel_connect(state, channel_decl(state, "nm", 8, 8), n, m)
        return state, n, m

    @staticmethod
    def _messages(info):
        return [(d.level, d.code, d.message) for d in info.diagnostics]

    def test_rate_mismatch_message(self):
        # 2 tokens in per root job, 2 needed: once; 3 in, 2 needed: 3/2
        state, n, m = self._rated((2, 2), (3, 2), (4, 2))
        info = analyze_graph(state)
        assert self._messages(info) == [
            ("error", "rate-mismatch",
             "node 'n': input channels imply conflicting firing rates (1 vs 3/2)"),
            ("error", "rate-mismatch",
             "node 'n': input channels imply conflicting firing rates (1 vs 2)"),
        ]
        # the first input's rate stands and flows downstream
        assert info.node_rate == {n: 1, m: 1}

    def test_rate_fraction_message(self):
        state, n, m = self._rated((3, 2))
        info = analyze_graph(state)
        assert self._messages(info) == [
            ("error", "rate-fraction",
             "node 'n' would fire 3/2 times per iteration; token flow must divide evenly"),
        ]
        # a fractional rate becomes 0, and so does every rate it feeds
        assert info.node_rate == {n: 0, m: 0}

    def test_equal_rates_by_different_fractions(self):
        # 6/4 == 3/2 == 9/6: one rate, but not an integer one
        state, n, _ = self._rated((6, 4), (3, 2), (9, 6))
        assert self._messages(analyze_graph(state)) == [
            ("error", "rate-fraction",
             "node 'n' would fire 3/2 times per iteration; token flow must divide evenly"),
        ]

    def test_dead_node_messages(self):
        state = init(PolicyConfig())
        a = state.task_decl("a", TaskKind.GRAPH_NODE)
        b = state.task_decl("b", TaskKind.GRAPH_NODE)
        state.task_decl("lone", TaskKind.GRAPH_NODE)
        channel_connect(state, channel_decl(state, "ab", 8, 1), a, b)
        info = analyze_graph(state)
        assert self._messages(info) == [
            ("error", "no-root", "graph component {a, b} has no periodic root"),
            ("warning", "dead-node",
             "graph node 'a' has no inputs and no period; it never auto-activates"),
            ("warning", "dead-node",
             "graph node 'lone' has no channels and no period; it never activates"),
        ]
        assert info.node_rate == {b: 0}


class TestRepetitionVector:
    def test_two_actor_example(self):
        # 2 produced vs 3 consumed: the classic 3:2 balance
        sdf = SdfGraph(
            actors=["A", "B"], edges=[SdfEdge("A", "B", produce=2, consume=3)]
        )
        assert repetition_vector(sdf) == {"A": 3, "B": 2}

    def test_inconsistent_rejected(self):
        sdf = SdfGraph(
            actors=["A", "B"],
            edges=[
                SdfEdge("A", "B", produce=1, consume=2),
                SdfEdge("A", "B", produce=1, consume=3),
            ],
        )
        with pytest.raises(SdfInconsistentError, match="A->B"):
            repetition_vector(sdf)

    def test_matches_brute_force_on_random_graphs(self):
        rng = random.Random(8273)
        checked = 0
        while checked < 25:
            n = rng.randint(2, 5)
            actors = [f"a{i}" for i in range(n)]
            edges = [
                SdfEdge(
                    actors[i],
                    actors[i + 1],
                    produce=rng.randint(1, 6),
                    consume=rng.randint(1, 6),
                )
                for i in range(n - 1)
            ]
            if rng.random() < 0.5 and n > 2:
                edges.append(
                    SdfEdge(
                        actors[0],
                        actors[-1],
                        produce=rng.randint(1, 6),
                        consume=rng.randint(1, 6),
                    )
                )
            oracle = sdf_vector_brute(
                actors, [(e.src, e.dst, e.produce, e.consume) for e in edges]
            )
            sdf = SdfGraph(actors=actors, edges=edges)
            if oracle is None:
                with pytest.raises(SdfInconsistentError):
                    repetition_vector(sdf)
            else:
                assert repetition_vector(sdf) == oracle
                checked += 1

    def test_deadlock_detected(self):
        # consistent rates but no initial tokens on a cycle
        sdf = SdfGraph(
            actors=["A", "B"],
            edges=[
                SdfEdge("A", "B", produce=1, consume=1),
                SdfEdge("B", "A", produce=1, consume=1),
            ],
        )
        with pytest.raises(SdfDeadlockError, match="deadlock"):
            plan_expansion(sdf)

    def test_initial_tokens_break_deadlock(self):
        sdf = SdfGraph(
            actors=["A", "B"],
            edges=[
                SdfEdge("A", "B", produce=1, consume=1),
                SdfEdge("B", "A", produce=1, consume=1, initial_tokens=1),
            ],
        )
        plan = plan_expansion(sdf)
        assert plan.repetition == {"A": 1, "B": 1}


@st.composite
def _sdf_graphs(draw):
    """1-5 actors in any name order and 0-6 edges, self-loops allowed,
    rates 1-4 and 0-5 initial tokens.  Half the draws derive every edge's
    rates from one hidden firing vector, so most of those graphs are
    consistent."""
    actors = draw(st.permutations(["a", "b", "c", "d", "e"]))[:draw(st.integers(1, 5))]
    actor, rate = st.sampled_from(actors), st.integers(1, 4)
    edges = draw(st.lists(st.tuples(actor, actor, rate, rate, st.integers(0, 5)), max_size=6))
    if draw(st.booleans()):
        w = {a: draw(rate) for a in actors}
        edges = [(s, d, w[d] // math.gcd(w[s], w[d]), w[s] // math.gcd(w[s], w[d]), init)
                 for s, d, _, _, init in edges]
    return actors, edges


class TestExpansion:
    @settings(max_examples=150, deadline=None)
    @given(_sdf_graphs())
    @example((["b", "a"], [("b", "a", 1, 1, 0), ("a", "b", 1, 1, 0)]))  # stuck: a, b
    def test_plan_matches_reference(self, graph):
        actors, edges = graph
        sdf = SdfGraph(actors=actors, edges=[SdfEdge(*e) for e in edges])
        try:
            q = repetition_vector(sdf)
        except SdfInconsistentError as exc:
            with pytest.raises(SdfInconsistentError) as got:
                plan_expansion(sdf)
            assert str(got.value) == str(exc)
            return
        try:
            nodes, deps, sources = sdf_plan_reference(actors, edges, q)
        except SdfPlanDeadlock as exc:
            with pytest.raises(SdfDeadlockError) as got:
                plan_expansion(sdf)
            assert str(got.value) == str(exc)
            return
        plan = plan_expansion(sdf)
        assert (plan.repetition, plan.nodes, plan.deps, plan.sources) == (q, nodes, deps, sources)

    def test_parallel_edges_merge_and_run(self):
        # two A->B edges feed the same firings; their deps merge into one
        # channel per firing pair with the summed token count
        sdf = SdfGraph(actors=["A", "B"], edges=[
            SdfEdge("A", "B", produce=2, consume=1),
            SdfEdge("A", "B", produce=4, consume=2, initial_tokens=2),
        ])
        assert plan_expansion(sdf).deps == [
            ("B#0", "B#1", 1), ("A#0", "B#0", 1), ("A#0", "B#1", 3),
        ]
        state = init(PolicyConfig())
        expand_sdf(state, sdf, period=ms(10), wcets={"A": ms(1), "B": ms(1)})
        assert [c.name for c in state.channels] == ["B#0->B#1", "A#0->B#0", "A#0->B#1"]
        _, report = run_simulation(state, horizon=ms(50))
        assert report.released == report.completed == 15

    def test_mismatched_source_expands_successor(self):
        # source pushes 2, successor consumes 1: two successor copies
        sdf = SdfGraph(
            actors=["src", "work"],
            edges=[SdfEdge("src", "work", produce=2, consume=1)],
        )
        plan = plan_expansion(sdf)
        assert plan.repetition == {"src": 1, "work": 2}
        assert set(plan.nodes) == {"src#0", "work#0", "work#1"}
        assert plan.sources == ["src#0"]
        assert ("src#0", "work#0", 1) in plan.deps
        assert ("src#0", "work#1", 1) in plan.deps

    def test_firing_chain_serializes_same_actor(self):
        sdf = SdfGraph(
            actors=["s", "w"], edges=[SdfEdge("s", "w", produce=3, consume=1)]
        )
        plan = plan_expansion(sdf)
        chain = [(a, b) for a, b, _ in plan.deps if a.startswith("w")]
        assert ("w#0", "w#1") in chain and ("w#1", "w#2") in chain

    def test_expand_declares_tasks_and_channels(self):
        state = init(PolicyConfig())
        sdf = SdfGraph(
            actors=["cam", "proc"],
            edges=[SdfEdge("cam", "proc", produce=2, consume=1)],
        )
        vector = expand_sdf(
            state, sdf, period=ms(40), wcets={"cam": ms(1), "proc": ms(2)}
        )
        assert vector == {"cam": 1, "proc": 2}
        names = [t.name for t in state.tasks]
        assert names == ["cam#0", "proc#0", "proc#1"]
        root = state.task_by_name("cam#0")
        assert root.period == ms(40)
        assert root.relative_deadline == ms(40)
        # downstream firings carry no deadline of their own: they inherit
        # the end-to-end one at job creation
        assert state.task_by_name("proc#0").relative_deadline is None
        assert state.task_by_name("proc#0").period is None
        info = analyze_graph(state)
        assert not [d for d in info.diagnostics if d.level == "error"]

    def test_expand_missing_wcet(self):
        state = init(PolicyConfig())
        sdf = SdfGraph(
            actors=["a", "b"], edges=[SdfEdge("a", "b", produce=1, consume=1)]
        )
        with pytest.raises(DeclarationError, match="missing wcet"):
            expand_sdf(state, sdf, period=ms(10), wcets={"a": 1})

    def test_expand_zero_deadline_rejected(self):
        # an explicit 0 is refused by task_decl, not replaced by the period
        sdf = SdfGraph(actors=["a", "b"], edges=[SdfEdge("a", "b", produce=1, consume=1)])
        with pytest.raises(DeclarationError, match="relative_deadline must be > 0"):
            expand_sdf(init(PolicyConfig()), sdf, period=ms(40), relative_deadline=0,
                       wcets={"a": 1, "b": 1})
        doc = load_document({"sdf": {
            "period": ms(40), "relative_deadline": 0, "wcets": {"a": 1, "b": 1},
            "edges": [{"src": "a", "dst": "b", "produce": 1, "consume": 1}],
        }})
        with pytest.raises(DeclarationError, match="relative_deadline must be > 0"):
            doc.build_state()


# ------------------------------------------------- liveness at the end of a run


@pytest.fixture
def engines(monkeypatch):
    """The engine of every simulation the test runs, captured after its run."""
    captured = []
    run = sim._Engine.run

    def capture(engine):
        run(engine)
        captured.append(engine)

    monkeypatch.setattr(sim._Engine, "run", capture)
    return captured


class StillParked(Exception):
    """A run ended with a job parked that could run."""


def _parked_that_could_run(engine):
    """What a run leaves parked although it could go on: a consumer waiting
    on a channel that holds a token, a producer waiting on one with room,
    and an idle worker whose stack top is not blocked on a channel."""
    names = {c.channel_id: c.name for c in engine.state.channels}
    found = []
    for cid, ch in engine.core.channels.items():
        if ch.can_pop():
            found += [f"{job} pops {names[cid]}" for _, job in engine.chan_cons_waiters[cid]]
        if ch.can_push():
            found += [f"{job} pushes {names[cid]}" for _, job in engine.chan_prod_waiters[cid]]
    found += [f"worker {w} idles over {ws.stack[-1]}" for w, ws in enumerate(engine.workers)
              if ws.idle and ws.stack and not ws.stack[-1].channel_blocked]
    return found


@pytest.mark.parametrize("workers", [
    1,
    pytest.param(2, marks=pytest.mark.xfail(
        strict=True, raises=StillParked, reason="ROADMAP item 1 (a): a wake goes to a"
        " producer buried in a worker's stack, and the stack top stays parked on a channel"
        " with room")),
    4,
])
def test_multirate_chain_leaves_nothing_parked_that_could_run(engines, workers):
    """ROADMAP item 1's repro (a): a->b (3:1) and b->c (1:3)."""
    state = init(PolicyConfig(worker_count=workers))
    sdf = SdfGraph(actors=["a", "b", "c"],
                   edges=[SdfEdge("a", "b", 3, 1), SdfEdge("b", "c", 1, 3)])
    expand_sdf(state, sdf, period=ms(100), wcets={"a": us(100), "b": us(100), "c": us(100)},
               relative_deadline=ms(1000))
    run_simulation(state, horizon="2s", seed=7)
    found = _parked_that_could_run(engines[-1])
    if found:
        raise StillParked("; ".join(found))
