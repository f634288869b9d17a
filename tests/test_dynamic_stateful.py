"""Stateful property test: the dynamic PIM counter vs a model graph.

Hypothesis drives arbitrary interleavings of edge-batch insertions and
deletions against :class:`DynamicPimCounter`; after every step the counter's
triangle count must equal the oracle's count of the model edge set, and each
core's incrementally maintained count must equal a from-scratch recount of
its sample.  Insert batches arrive raw — repeats, reversed pairs, self-loops
and already-resident edges included — and the model is a set, so the test
also pins the counter's set semantics.  This is the fully-dynamic
correctness argument in executable form.  A second machine runs with the
shard bound lowered to a few keys, so rounds cross and split shards.
"""

from __future__ import annotations

import numpy as np
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule
from hypothesis import strategies as st

from repro.core import dynamic
from repro.core.dynamic import DynamicPimCounter
from repro.graph.coo import COOGraph
from repro.graph.triangles import count_triangles

NUM_NODES = 14

node = st.integers(min_value=0, max_value=NUM_NODES - 1)


def raw_batch():
    """Edges as a client may send them: self-loops, repeats, either orientation."""
    return st.lists(st.tuples(node, node), min_size=1, max_size=10)


def canonical(edges) -> set[tuple[int, int]]:
    return {(min(u, v), max(u, v)) for u, v in edges if u != v}


class DynamicCounterMachine(RuleBasedStateMachine):
    #: Shard bound for the run; ``None`` keeps the module's.
    shard_max_keys: int | None = None

    def __init__(self) -> None:
        super().__init__()
        self._saved_bound = dynamic.SHARD_MAX_KEYS
        if self.shard_max_keys is not None:
            dynamic.SHARD_MAX_KEYS = self.shard_max_keys

    def teardown(self) -> None:
        dynamic.SHARD_MAX_KEYS = self._saved_bound

    @initialize(
        colors=st.integers(min_value=1, max_value=4),
        seed=st.integers(0, 50),
        misra_gries=st.sampled_from([(0, 0), (4, 2), (8, 3)]),
        batch_edges=st.one_of(st.none(), st.integers(min_value=1, max_value=3)),
    )
    def setup(self, colors, seed, misra_gries, batch_edges):
        k, t = misra_gries
        self.counter = DynamicPimCounter(
            NUM_NODES,
            num_colors=colors,
            seed=seed,
            misra_gries_k=k,
            misra_gries_t=t,
            batch_edges=batch_edges,
        )
        self.model: set[tuple[int, int]] = set()

    def _model_graph(self) -> COOGraph:
        if not self.model:
            return COOGraph.from_edges([], num_nodes=NUM_NODES)
        return COOGraph.from_edges(sorted(self.model), num_nodes=NUM_NODES)

    @rule(edges=raw_batch(), data=st.data())
    def insert(self, edges, data):
        if self.model:
            # Resend some resident edges, in either orientation.
            resent = data.draw(st.lists(st.sampled_from(sorted(self.model)), max_size=3))
            flips = data.draw(st.lists(st.booleans(), min_size=len(resent),
                                       max_size=len(resent)))
            edges = edges + [(v, u) if f else (u, v) for (u, v), f in zip(resent, flips)]
        fresh = canonical(edges) - self.model
        self.model |= fresh
        result = self.counter.apply_update(COOGraph.from_edges(edges, num_nodes=NUM_NODES))
        assert result.new_edges == len(fresh)
        assert result.ignored_edges == len(edges) - len(fresh)

    @rule(edges=raw_batch())
    def delete(self, edges):
        gone = canonical(edges) & self.model
        self.model -= gone
        result = self.counter.apply_deletion(COOGraph.from_edges(edges, num_nodes=NUM_NODES))
        assert result.removed_edges == len(gone)
        assert result.ignored_edges == len(edges) - len(gone)

    @invariant()
    def count_matches_oracle(self):
        if not hasattr(self, "counter"):
            return
        assert self.counter.triangles == count_triangles(self._model_graph())
        assert self.counter.cumulative_edges == len(self.model)

    @invariant()
    def core_counts_match_recount(self):
        if not hasattr(self, "counter"):
            return
        np.testing.assert_array_equal(self.counter._raw_counts, self.counter.recount())

    @invariant()
    def shards_stay_bounded(self):
        if not hasattr(self, "counter"):
            return
        for (first, last), keys in zip(self.counter._spans(), self.counter._shards):
            assert last - first == 1 or keys.size <= dynamic.SHARD_MAX_KEYS

    @invariant()
    def time_never_regresses(self):
        if not hasattr(self, "counter"):
            return
        assert self.counter.cumulative_seconds >= 0.0


DynamicCounterMachine.TestCase.settings = settings(
    max_examples=15, stateful_step_count=12, deadline=None
)
TestDynamicCounterStateful = DynamicCounterMachine.TestCase


class SmallShardMachine(DynamicCounterMachine):
    shard_max_keys = 4


SmallShardMachine.TestCase.settings = DynamicCounterMachine.TestCase.settings
TestDynamicCounterSmallShards = SmallShardMachine.TestCase
