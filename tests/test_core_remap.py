"""Misra-Gries top-t ID remapping (paper Sec. 3.5)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.orient import orient_and_sort
from repro.core.region_index import build_region_index
from repro.core.remap import RemapTable, apply_remap
from repro.graph.coo import COOGraph
from repro.graph.generators import hub_graph
from repro.graph.triangles import count_triangles

from conftest import graph_strategy


class TestRemapTable:
    def test_new_ids_most_frequent_highest(self):
        table = RemapTable(nodes=np.array([7, 3, 9]), num_nodes=10)
        # nodes[0]=7 is most frequent -> highest new ID 12.
        assert table.new_ids().tolist() == [12, 11, 10]

    def test_remapped_range(self):
        table = RemapTable(nodes=np.array([1, 2]), num_nodes=5)
        assert table.remapped_num_nodes == 7

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            RemapTable(nodes=np.array([1, 1]), num_nodes=4)

    def test_rejects_bool_nodes(self):
        from repro.common.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="nodes must contain integers"):
            RemapTable(nodes=np.array([True, False]), num_nodes=4)

    def test_nbytes(self):
        assert RemapTable(nodes=np.array([1, 2, 3]), num_nodes=4).nbytes() == 24


class TestApplyRemap:
    def test_empty_table_identity(self):
        table = RemapTable(nodes=np.array([], dtype=np.int64), num_nodes=4)
        src = np.array([0, 1])
        out_src, _ = apply_remap(table, src, src)
        np.testing.assert_array_equal(out_src, src)

    def test_only_table_nodes_rewritten(self):
        table = RemapTable(nodes=np.array([2]), num_nodes=5)
        src, dst = apply_remap(table, np.array([0, 2, 4]), np.array([2, 3, 2]))
        assert src.tolist() == [0, 5, 4]
        assert dst.tolist() == [5, 3, 5]

    def test_inputs_untouched(self):
        table = RemapTable(nodes=np.array([0]), num_nodes=3)
        src = np.array([0, 1])
        apply_remap(table, src, src)
        assert src.tolist() == [0, 1]

    @settings(max_examples=30, deadline=None)
    @given(g=graph_strategy(max_nodes=25, max_edges=90), t=st.integers(1, 6))
    def test_bijection_preserves_triangles(self, g, t):
        deg = g.degrees()
        top = np.argsort(-deg)[:t].astype(np.int64)
        table = RemapTable(nodes=top, num_nodes=g.num_nodes)
        src, dst = apply_remap(table, g.src, g.dst)
        remapped = COOGraph(src, dst, table.remapped_num_nodes)
        assert count_triangles(remapped) == count_triangles(g)

    def test_most_frequent_gets_empty_forward_list(self, rngs):
        """After remap, the hottest node's forward adjacency is empty."""
        g = hub_graph(400, 600, 1, 250, rngs.stream("h")).canonicalize()
        hub = int(np.argmax(g.degrees()))
        table = RemapTable(nodes=np.array([hub]), num_nodes=g.num_nodes)
        src, dst = apply_remap(table, g.src, g.dst)
        u, v, _ = orient_and_sort(src, dst)
        index = build_region_index(u)
        new_hub_id = table.remapped_num_nodes - 1
        assert index.degrees_of(np.array([new_hub_id]))[0] == 0
