"""The skim memo: one SKIMDENSE pass per sketch state, never a stale answer.

``SkimmedSketch`` keeps its last skim keyed by the wrapped sketch's
mutation ``version`` and the threshold.  Every test here checks answers
bit for bit against a memo-free recomputation (fresh copies, which carry
no memo) and counts real skim passes through ``skim.passes``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import SketchParameters, StreamEngine
from repro.core.estimator import SkimmedSketchSchema
from repro.eval.diagnostics import sketch_health
from repro.monitor import AUDIT
from repro.obs import capturing
from repro.parallel import ParallelStreamEngine
from repro.sketches.serialize import sketch_from_state, sketch_state
from repro.streams.query import JoinCountQuery, PointQuery, SelfJoinQuery

DOMAIN = 4096


def breakdown_bits(breakdown) -> tuple:
    """Every number of a join breakdown, as exact bit patterns."""
    floats = (
        breakdown.estimate,
        breakdown.dense_dense,
        breakdown.dense_sparse,
        breakdown.sparse_dense,
        breakdown.sparse_sparse,
        breakdown.max_additive_error,
    )
    arrays = (
        breakdown.f_skim.dense_values,
        breakdown.f_skim.dense_frequencies,
        breakdown.g_skim.dense_values,
        breakdown.g_skim.dense_frequencies,
    )
    return (
        tuple(np.float64(x).tobytes() for x in floats),
        tuple(a.tobytes() for a in arrays),
        breakdown.f_skim.threshold,
        breakdown.g_skim.threshold,
    )


def memo_free(f, g, threshold=None):
    """The same join from fresh copies (distinct even for a self-join)."""
    return f.copy().join_breakdown(g.copy(), threshold)


def skim_passes(registry) -> int:
    return int(registry.snapshot()["counters"].get("skim.passes", 0))


def make_pair(dyadic: bool, seed: int = 3):
    schema = SkimmedSketchSchema(64, 5, DOMAIN, seed=seed, dyadic=dyadic)
    f, g = schema.create_sketch(), schema.create_sketch()
    rng = np.random.default_rng(seed)
    for sketch in (f, g):
        heavy = rng.integers(0, DOMAIN, 4)
        sketch.update_bulk(np.repeat(heavy, 1500))
        sketch.update_bulk(rng.integers(0, DOMAIN, 2000))
    return f, g


def mutate(sketch, op: str, rng: np.random.Generator) -> None:
    """Apply one mutation path to ``sketch`` in place."""
    if op == "update":
        sketch.update(int(rng.integers(0, DOMAIN)), float(rng.choice([-1.0, 2.0])))
    elif op == "update_bulk":
        values = rng.integers(0, DOMAIN, 200)
        sketch.update_bulk(values, rng.choice([-1.0, 1.0, 1.0], values.size))
    elif op == "update_coalesced":
        values = np.unique(rng.integers(0, DOMAIN, 50))
        sketch.update_coalesced(values, rng.choice([1.0, 5.0], values.size), 123.0)
    elif op == "set_tracked_masses":
        sketch.set_tracked_masses([m * 1.5 for m in sketch.tracked_masses()])
    elif op == "attach_counters":
        # Re-home into outside buffers, then write them as a shard worker
        # would: behind the sketch's back.
        buffers = [
            np.empty((sketch.schema.depth, sketch.schema.width))
            for _ in sketch.tracked_masses()
        ]
        sketch.attach_counters(buffers)
        buffers[0][:, 0] += 50.0
    elif op == "subtract_frequencies":
        values = np.unique(rng.integers(0, DOMAIN, 5))
        sketch._inner.subtract_frequencies(values, np.full(values.size, 7.0))
    else:
        raise AssertionError(op)


MUTATIONS = [
    "update",
    "update_bulk",
    "update_coalesced",
    "set_tracked_masses",
    "attach_counters",
    "subtract_frequencies",
]


class TestMemoInvalidation:
    @pytest.mark.parametrize("dyadic", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_interleavings_match_memo_free_answers(self, dyadic, seed):
        rng = np.random.default_rng(seed)
        f, g = make_pair(dyadic, seed)
        for _ in range(40):
            action = rng.integers(0, 4)
            if action == 0:
                target = f if rng.random() < 0.5 else g
                mutate(target, str(rng.choice(MUTATIONS)), rng)
            elif action == 1:
                if rng.random() < 0.5:
                    f = f.copy()
                else:
                    g = f.merged_with(g)
            left, right = [(f, g), (g, f), (f, f), (g, g)][rng.integers(0, 4)]
            threshold = None
            if rng.random() < 0.3:
                threshold = float(rng.choice([20.0, 60.0, 150.0]))
            for _ in range(2):  # the second answer may come from the memo
                assert breakdown_bits(
                    left.join_breakdown(right, threshold)
                ) == breakdown_bits(memo_free(left, right, threshold))

    @pytest.mark.parametrize("dyadic", [False, True])
    @pytest.mark.parametrize("threshold", [None, 700.0])
    @pytest.mark.parametrize("op", MUTATIONS)
    def test_each_mutation_invalidates(self, op, threshold, dyadic):
        # A fixed threshold keeps the key's threshold half equal across
        # the mutation, so only the version can tell the states apart.
        f, g = make_pair(dyadic)
        before = breakdown_bits(f.join_breakdown(g, threshold))
        mutate(f, op, np.random.default_rng(9))
        after = breakdown_bits(f.join_breakdown(g, threshold))
        assert after == breakdown_bits(memo_free(f, g, threshold))
        if op != "set_tracked_masses" or threshold is None:
            assert after != before
        _, residual = f.skim(threshold)
        _, fresh = f.copy().skim(threshold)
        assert residual.absolute_mass == fresh.absolute_mass
        assert residual.counters.tobytes() == fresh.counters.tobytes()

    def test_threshold_override_does_not_leak_into_default(self):
        f, g = make_pair(dyadic=False)
        default = breakdown_bits(f.join_breakdown(g))
        overridden = breakdown_bits(f.join_breakdown(g, threshold=5.0))
        assert overridden != default
        assert breakdown_bits(f.join_breakdown(g)) == default

    def test_copies_and_merges_start_without_a_memo(self):
        f, g = make_pair(dyadic=False)
        f.join_breakdown(g)
        copy, merged = f.copy(), f.merged_with(g)
        assert copy._memo is None and merged._memo is None
        copy.update_bulk(np.arange(100, dtype=np.int64))
        assert breakdown_bits(f.join_breakdown(g)) == breakdown_bits(
            memo_free(f, g)
        )

    def test_public_skim_hands_out_private_residuals(self):
        f, _ = make_pair(dyadic=False)
        result, residual = f.skim()
        assert not result.dense_values.flags.writeable
        assert not result.dense_frequencies.flags.writeable
        residual.update_bulk(np.arange(500, dtype=np.int64))
        again, clean = f.skim()
        assert again is result
        assert clean is not residual
        assert breakdown_bits(f.join_breakdown(f)) == breakdown_bits(
            memo_free(f, f)
        )

    def test_memo_is_not_serialized_or_counted(self):
        f, g = make_pair(dyadic=False)
        size, state = f.size_in_counters(), sketch_state(f)
        f.join_breakdown(g)
        assert f.size_in_counters() == size
        after = sketch_state(f)
        assert set(after) == set(state)
        assert sketch_from_state(after)._memo is None


class TestMemoHits:
    @pytest.mark.parametrize("dyadic", [False, True])
    def test_repeated_join_skims_each_stream_once(self, dyadic):
        f, g = make_pair(dyadic)
        with capturing() as registry:
            answers = {breakdown_bits(f.join_breakdown(g)) for _ in range(5)}
        assert len(answers) == 1
        assert skim_passes(registry) == 2

    def test_self_join_skims_once(self):
        f, _ = make_pair(dyadic=False)
        with capturing() as registry:
            f.est_self_join_size()
        assert skim_passes(registry) == 1

    def test_engine_repeated_answers_cost_two_passes(self):
        engine = StreamEngine(DOMAIN, SketchParameters(width=64, depth=5), seed=4)
        rng = np.random.default_rng(4)
        for name in ("f", "g"):
            engine.register_stream(name)
            engine.process_bulk(name, rng.integers(0, DOMAIN, 3000))
        query = JoinCountQuery("f", "g")
        with capturing() as registry:
            answers = {engine.answer(query) for _ in range(6)}
        assert len(answers) == 1
        assert skim_passes(registry) == 2

    def test_exposed_storage_never_hits_the_memo(self):
        f, _ = make_pair(dyadic=False)
        f.est_self_join_size()
        blocks = f.counters_view()
        with capturing() as registry:
            first = breakdown_bits(f.join_breakdown(f))
            second = breakdown_bits(f.join_breakdown(f))
        assert skim_passes(registry) == 4
        assert first == second
        blocks[0][0, 0] += 1000.0  # a write the sketch cannot see
        assert breakdown_bits(f.join_breakdown(f)) == breakdown_bits(
            memo_free(f, f)
        )
        assert breakdown_bits(f.join_breakdown(f)) != first

    def test_attached_storage_never_hits_the_memo(self):
        f, _ = make_pair(dyadic=False)
        buffer = np.empty((f.schema.depth, f.schema.width))
        f.attach_counters([buffer])
        first = breakdown_bits(f.join_breakdown(f))
        buffer[:, 1] -= 30.0  # the owner of the buffer writes it
        assert breakdown_bits(f.join_breakdown(f)) == breakdown_bits(
            memo_free(f, f)
        )
        assert breakdown_bits(f.join_breakdown(f)) != first

    def test_audit_health_reuses_the_query_skim(self):
        engine = StreamEngine(DOMAIN, SketchParameters(width=64, depth=5), seed=4)
        rng = np.random.default_rng(5)
        for name in ("f", "g"):
            engine.register_stream(name)
            engine.process_bulk(name, np.repeat(rng.integers(0, DOMAIN, 3), 400))
        f = engine.synopsis_for("f")
        want = sketch_health(f.copy())
        AUDIT.enable()
        with capturing() as registry:
            engine.answer(JoinCountQuery("f", "g"))
        assert skim_passes(registry) == 2
        assert sketch_health(f) == want


def seeded_batches(seed: int = 8, count: int = 6):
    rng = np.random.default_rng(seed)
    return [
        (rng.integers(0, DOMAIN, 700), rng.choice([-1.0, 1.0, 1.0], 700))
        for _ in range(count)
    ]


class TestParallelEngines:
    @pytest.mark.parametrize("mode", ["serial", "shm"])
    def test_repeated_answers_match_stream_engine(self, mode):
        params = SketchParameters(width=64, depth=5)
        serial = StreamEngine(DOMAIN, params, synopsis="skimmed", seed=6)
        queries = (JoinCountQuery("f", "g"), SelfJoinQuery("f"), PointQuery("g", 3))
        with ParallelStreamEngine(
            DOMAIN, params, synopsis="skimmed", seed=6, workers=2, mode=mode
        ) as engine:
            for eng in (serial, engine):
                for name in ("f", "g"):
                    eng.register_stream(name)
            for values, weights in seeded_batches():
                for eng in (serial, engine):
                    eng.process_bulk("f", values, weights)
                    eng.process_bulk("g", values[::2], weights[::2])
                for _ in range(3):
                    for query in queries:
                        got = np.float64(engine.answer(query)).tobytes()
                        assert got == np.float64(serial.answer(query)).tobytes()
