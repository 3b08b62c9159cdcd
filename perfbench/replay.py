"""Seeded inputs, exact ground truth and replayers for the benchmark.

Every workload is a list of *steps* built once from the ``--seed``
argument with the benchmark's own numpy generator, before any timing:
an ingest step hands one batch to the program, an answer step asks one
join question whose exact answer is computed here from the same inputs.
Replays feed the steps through the program's public API in order, one
call at a time (a closed loop with a single caller).

The inputs never come from ``repro.workloads``, so no program change can
move them.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

INGEST = "ingest"
ANSWER = "answer"

#: Zipf exponent of every stream's value distribution.
ZIPF_EXPONENT = 1.1
#: Share of each batch that deletes earlier inserts (strict turnstile).
DELETE_SHARE = 5  # one update in five
#: Size of the tiny batch every stream gets during warm-up.
WARMUP_BATCH = 64
#: Seed of the program's hash families; fixed, so only ``--seed`` varies
#: the inputs.
SKETCH_SEED = 20040314


@dataclass
class Step:
    """One call the replay makes into the program.

    ``target`` is a stream name for an ingest step and a question key
    (``("join", left, right)`` or ``("self", stream)``) for an answer
    step.  ``kept`` is the number of values the stream's predicate lets
    through; ``exact`` is the exact answer of an answer step.
    """

    kind: str
    target: object
    values: np.ndarray | None = None
    weights: np.ndarray | None = None
    kept: int = 0
    exact: float = 0.0


@dataclass
class WorkloadInput:
    """The generated steps of one workload plus what the checks need."""

    setup_steps: list[Step]
    steps: list[Step]
    streams: dict[str, tuple[int, int] | None]
    digest: str = ""

    @property
    def offered(self) -> int:
        """Updates the replay offers, counted before any predicate."""
        return sum(s.values.size for s in self.steps if s.kind == INGEST)


class _Feed:
    """One stream's batch source: Zipf inserts plus FIFO replayed deletes.

    Each batch is its inserts followed by its deletes, and the deletes
    take the oldest inserts not yet deleted, so every net frequency stays
    non-negative at every point of the stream.
    """

    def __init__(self, draw: Callable[[int], np.ndarray]) -> None:
        self._draw = draw
        self._log: list[np.ndarray] = []
        self._block = 0
        self._offset = 0

    def batch(self, size: int) -> np.ndarray:
        deletes = size // DELETE_SHARE
        inserts = self._draw(size - deletes)
        self._log.append(inserts)
        taken = []
        while deletes:
            block = self._log[self._block]
            k = min(deletes, block.size - self._offset)
            taken.append(block[self._offset:self._offset + k])
            self._offset += k
            deletes -= k
            if self._offset == block.size:
                self._block += 1
                self._offset = 0
        return np.concatenate([inserts, *taken])


@functools.cache
def _weights(size: int) -> np.ndarray:
    """The ±1 weights of a ``size`` batch; identical for every batch, so
    one read-only array is shared."""
    deletes = size // DELETE_SHARE
    weights = np.ones(size, dtype=np.float64)
    weights[size - deletes:] = -1.0
    weights.flags.writeable = False
    return weights


class _Builder:
    """Accumulates steps and computes the exact answer of every question."""

    def __init__(
        self, seed: int, domain: int, streams: dict[str, tuple[int, int] | None]
    ) -> None:
        rng = np.random.default_rng(seed)
        ranks = np.arange(1, domain + 1, dtype=np.float64)
        cdf = np.cumsum(ranks ** -ZIPF_EXPONENT)
        cdf /= cdf[-1]
        # Ranks alternate between the two halves of the domain and land at
        # random places inside their half.  The heaviest rank would
        # otherwise decide alone how much of a stream a half-domain
        # predicate keeps (it carries ~14% of the mass), and the work per
        # offered update would change with the seed.
        half = domain // 2
        scatter = np.empty(domain, dtype=np.int64)
        scatter[0::2] = rng.permutation(half)
        scatter[1::2] = half + rng.permutation(domain - half)

        def draw(n: int) -> np.ndarray:
            return scatter[np.searchsorted(cdf, rng.random(n), side="right")]

        self.domain = domain
        self.streams = streams
        self._feeds = {name: _Feed(draw) for name in streams}
        self._exact = {name: np.zeros(domain, dtype=np.int64) for name in streams}
        self._pending: dict[str, list[np.ndarray]] = {name: [] for name in streams}
        self._sizes: dict[str, list[int]] = {name: [] for name in streams}

    def ingest(self, stream: str, size: int) -> Step:
        values = self._feeds[stream].batch(size)
        bounds = self.streams[stream]
        kept = values.size if bounds is None else int(
            np.count_nonzero((values >= bounds[0]) & (values < bounds[1]))
        )
        self._pending[stream].append(values)
        self._sizes[stream].append(size)
        return Step(INGEST, stream, values, _weights(size), kept=kept)

    def answer(self, key: tuple) -> Step:
        if key[0] == "join":
            exact = int(np.dot(self._net(key[1]), self._net(key[2])))
        else:
            net = self._net(key[1])
            exact = int(np.dot(net, net))
        return Step(ANSWER, key, exact=float(exact))

    def _net(self, stream: str) -> np.ndarray:
        """Exact net frequencies of ``stream`` after its predicate."""
        if self._pending[stream]:
            values = np.concatenate(self._pending[stream])
            weights = np.concatenate([_weights(s) for s in self._sizes[stream]])
            bounds = self.streams[stream]
            if bounds is not None:
                keep = (values >= bounds[0]) & (values < bounds[1])
                values, weights = values[keep], weights[keep]
            self._exact[stream] += np.bincount(
                values, weights=weights, minlength=self.domain
            ).astype(np.int64)
            self._pending[stream].clear()
            self._sizes[stream].clear()
        return self._exact[stream]

    def warmup(self, question: tuple) -> list[Step]:
        """One tiny batch per stream, then one answer: the lazy state an
        engine builds on its first answer exists before timing starts."""
        steps = [self.ingest(name, WARMUP_BATCH) for name in self.streams]
        steps.append(self.answer(question))
        return steps


def _digest(data: WorkloadInput) -> str:
    sha = hashlib.sha256()
    for step in data.setup_steps + data.steps:
        if step.kind == INGEST:
            sha.update(step.target.encode())
            sha.update(step.values.tobytes())
        else:
            sha.update(repr((step.target, step.exact)).encode())
    return sha.hexdigest()


# -- the workloads -------------------------------------------------------------

INGEST_DOMAIN = 1 << 16
INGEST_BATCH = 8192
INGEST_BLOCK = 64  # batches per stream per round: 2 x 64 x 8192 ~ 1M updates
INGEST_ROUNDS = 8

STANDING_DOMAIN = 1 << 14
STANDING_BATCH = 2048
STANDING_BATCHES = 30

DYADIC_DOMAIN = 1 << 20
DYADIC_WIDTH = 1024
DYADIC_DEPTH = 9
DYADIC_BATCH = 8192
DYADIC_BATCHES = 64
DYADIC_ANSWER_EVERY = 4


def ingest_rounds(seed: int) -> WorkloadInput:
    """Rounds of a block of batches to ``f``, a block to ``g``, one join."""
    streams = {"f": None, "g": (0, INGEST_DOMAIN // 2)}
    build = _Builder(seed, INGEST_DOMAIN, streams)
    setup = build.warmup(("join", "f", "g"))
    steps = []
    for _ in range(INGEST_ROUNDS):
        for name in streams:
            steps += [build.ingest(name, INGEST_BATCH) for _ in range(INGEST_BLOCK)]
        steps.append(build.answer(("join", "f", "g")))
    return _finish(WorkloadInput(setup, steps, streams))


def standing_queries(seed: int) -> WorkloadInput:
    """Round-robin batches; the standing set is answered after each one."""
    streams = {"f": None, "g": None, "h": None}
    build = _Builder(seed, STANDING_DOMAIN, streams)
    setup = build.warmup(("join", "f", "g"))
    steps = []
    names = list(streams)
    for i in range(STANDING_BATCHES):
        steps.append(build.ingest(names[i % len(names)], STANDING_BATCH))
        for key in (("join", "f", "g"), ("join", "g", "h"), ("self", "f")):
            steps.append(build.answer(key))
    return _finish(WorkloadInput(setup, steps, streams))


def dyadic_large_domain(seed: int) -> WorkloadInput:
    """Batches alternating between two sketches, a join every 4 batches."""
    streams = {"f": None, "g": None}
    build = _Builder(seed, DYADIC_DOMAIN, streams)
    setup = build.warmup(("join", "f", "g"))
    steps = []
    for i in range(DYADIC_BATCHES):
        steps.append(build.ingest("fg"[i % 2], DYADIC_BATCH))
        if (i + 1) % DYADIC_ANSWER_EVERY == 0:
            steps.append(build.answer(("join", "f", "g")))
    return _finish(WorkloadInput(setup, steps, streams))


def _finish(data: WorkloadInput) -> WorkloadInput:
    data.digest = _digest(data)
    return data


# -- replayers: the public calls a replay makes ---------------------------------


class EngineReplayer:
    """Replays steps through a ``StreamEngine`` (or its sharded subclass)."""

    #: Hash-sketch levels one batch lands in.
    levels = 1

    def __init__(self, data: WorkloadInput, make_engine: Callable[[], object]):
        from repro.streams.query import JoinCountQuery, RangePredicate, SelfJoinQuery

        self._make_engine = make_engine
        self._predicates = {
            name: None if bounds is None else RangePredicate(*bounds)
            for name, bounds in data.streams.items()
        }
        self._queries = {}
        for step in data.setup_steps + data.steps:
            key = step.target
            if step.kind == ANSWER and key not in self._queries:
                self._queries[key] = (
                    JoinCountQuery(key[1], key[2]) if key[0] == "join"
                    else SelfJoinQuery(key[1])
                )
        self.engine = None

    def setup(self) -> None:
        self.engine = self._make_engine()
        for name, predicate in self._predicates.items():
            self.engine.register_stream(name, predicate)

    def ingest(self, stream, values, weights) -> None:
        self.engine.process_bulk(stream, values, weights)

    def answer(self, key) -> float:
        return self.engine.answer(self._queries[key])

    def synopsis_bytes(self) -> int:
        return 8 * self.engine.total_space_in_counters()

    def kept_counts(self) -> tuple[int, int]:
        """``(offered, kept)`` over every stream, from ``stream_stats``."""
        seen = dropped = 0
        for name in self._predicates:
            s, d = self.engine.stream_stats(name)
            seen += s
            dropped += d
        return seen, seen - dropped

    def close(self) -> None:
        close = getattr(self.engine, "close", None)
        if close is not None:
            close()


class DyadicReplayer:
    """Replays steps straight into two dyadic ``SkimmedSketch`` objects."""

    def __init__(self, data: WorkloadInput, domain: int):
        from repro.sketches.dyadic import DyadicSketchSchema

        self.levels = DyadicSketchSchema(DYADIC_WIDTH, DYADIC_DEPTH, domain).num_levels
        self._names = list(data.streams)
        self._domain = domain
        self._offered = 0
        self.sketches: dict = {}

    def setup(self) -> None:
        from repro.core.estimator import SkimmedSketchSchema

        schema = SkimmedSketchSchema(
            DYADIC_WIDTH, DYADIC_DEPTH, self._domain, seed=SKETCH_SEED, dyadic=True
        )
        self.sketches = {name: schema.create_sketch() for name in self._names}
        self._offered = 0

    def ingest(self, stream, values, weights) -> None:
        self._offered += values.size
        self.sketches[stream].update_bulk(values, weights)

    def answer(self, key) -> float:
        return self.sketches[key[1]].est_join_size(self.sketches[key[2]])

    def synopsis_bytes(self) -> int:
        return 8 * sum(s.size_in_counters() for s in self.sketches.values())

    def kept_counts(self) -> tuple[int, int]:
        return self._offered, self._offered  # no predicate layer

    def close(self) -> None:
        self.sketches = {}


@dataclass
class Workload:
    """How to build a workload's input and the replayer that feeds it to the program."""

    make_input: Callable[[int], WorkloadInput]
    make_replayer: Callable[[WorkloadInput], object]
    dyadic: bool = False
    reference: str | None = None  # workload whose answers must match bit for bit


def _serial_engine(domain: int, width: int, depth: int):
    from repro import SketchParameters, StreamEngine

    return lambda: StreamEngine(
        domain, SketchParameters(width=width, depth=depth), seed=SKETCH_SEED
    )


def _sharded_engine(domain: int, width: int, depth: int):
    from repro import SketchParameters
    from repro.parallel import ParallelStreamEngine

    return lambda: ParallelStreamEngine(
        domain,
        SketchParameters(width=width, depth=depth),
        seed=SKETCH_SEED,
        mode="shm",
        workers=2,
    )


WORKLOADS = {
    "ingest_heavy": Workload(
        ingest_rounds,
        lambda d: EngineReplayer(d, _serial_engine(INGEST_DOMAIN, 1024, 9)),
    ),
    "standing_queries": Workload(
        standing_queries,
        lambda d: EngineReplayer(d, _serial_engine(STANDING_DOMAIN, 512, 7)),
    ),
    "dyadic_large_domain": Workload(
        dyadic_large_domain,
        lambda d: DyadicReplayer(d, DYADIC_DOMAIN),
        dyadic=True,
    ),
    "ingest_sharded": Workload(
        ingest_rounds,
        lambda d: EngineReplayer(d, _sharded_engine(INGEST_DOMAIN, 1024, 9)),
        reference="ingest_heavy",
    ),
}
