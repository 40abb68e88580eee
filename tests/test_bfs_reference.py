"""Differential test: vectorized ``bfs_trace`` against the scalar oracle.

``bfs_trace_reference`` is the original per-lane level loop, kept here as
the reference implementation.  The production generator expands each BFS
level with whole-level numpy operations; the two must emit identical
``KernelTrace``s for every graph, budget and step cap.

The cases that decide *which* lane stores ``dist[x]`` are duplicate
neighbours: two lanes of one step gathering the same ``x``, or two blocks
(or two steps) reaching it.  A hub graph, where every edge points into a
handful of vertices most of the time, forces both on every level.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import SimConfig
from repro.workloads.algorithms import graphs
from repro.workloads.algorithms.graphs import _edge_steps, bfs_trace
from repro.workloads.builder import Layout, TraceBuilder
from repro.workloads.trace import KernelTrace

CFG = SimConfig()


def bfs_trace_reference(
    config: SimConfig,
    n_vertices: int = 150_000,
    avg_degree: float = 5.0,
    seed: int = 11,
    max_edge_steps: int = 6,
    max_frontier_warps: int = 1200,
    n_sources: int = 64,
) -> KernelTrace:
    """The scalar level loop: one Python iteration per frontier lane."""
    rng = np.random.default_rng(seed)
    row_ptr, col = graphs.random_csr(n_vertices, avg_degree, rng, locality=0.7)
    lay = Layout()
    a_frontier = lay.alloc("frontier", n_vertices)
    a_rowptr = lay.alloc("row_ptr", n_vertices + 1)
    a_col = lay.alloc("col_idx", len(col))
    a_dist = lay.alloc("dist", n_vertices)

    tb = TraceBuilder("bfs", config.gpu.num_sms, config.gpu.warp_size)
    in_frontier = np.zeros(n_vertices, dtype=bool)
    sources = rng.integers(0, n_vertices, size=n_sources)
    in_frontier[sources] = True
    dist = np.full(n_vertices, -1, dtype=np.int64)
    dist[sources] = 0
    warps_emitted = 0
    level = 0
    while in_frontier.any() and warps_emitted < max_frontier_warps:
        next_frontier = np.zeros(n_vertices, dtype=bool)
        lanes_per_block = np.add.reduceat(in_frontier, np.arange(0, n_vertices, 32))
        active_blocks = np.flatnonzero(lanes_per_block)
        # Spend the warp budget on steady-state levels: while the frontier
        # is still thin (a lane or two per warp), expand it without
        # emitting trace warps.
        emit = bool(len(active_blocks)) and lanes_per_block[active_blocks].mean() >= 3.0
        for blk in active_blocks:
            vs = np.arange(blk * 32, min(blk * 32 + 32, n_vertices))
            mask = in_frontier[vs]
            wb = None
            if emit and warps_emitted < max_frontier_warps:
                wb = tb.new_warp()
                warps_emitted += 1
                # frontier flags + row_ptr: consecutive ids, coalesced
                wb.compute(6).load_stream(a_frontier, int(vs[0]))
                wb.compute(2).load_stream(a_rowptr, int(vs[0]))
            deg = np.where(mask, row_ptr[vs + 1] - row_ptr[vs], 0)
            steps = _edge_steps(deg, max_edge_steps)
            for k in range(steps):
                active = deg > k
                if not active.any():
                    break
                eidx = np.minimum(row_ptr[vs] + k, len(col) - 1)
                nbr = col[eidx]
                if wb is not None:
                    # col_idx[e]: active lanes walk their adjacency runs
                    wb.compute(2).load_gather(
                        a_col, [int(e) if a else None for e, a in zip(eidx, active)]
                    )
                    # dist[neighbor]: the data-dependent gather (highest MAI)
                    wb.compute(1).load_gather(
                        a_dist, [int(x) if a else None for x, a in zip(nbr, active)]
                    )
                discovered = []
                for x, a in zip(nbr, active):
                    if a and dist[x] < 0:
                        dist[x] = level + 1
                        next_frontier[x] = True
                        discovered.append(int(x))
                    else:
                        discovered.append(None)
                if wb is not None and any(d is not None for d in discovered):
                    wb.store_gather(a_dist, discovered)
            if wb is not None:
                wb.compute(4)
        in_frontier = next_frontier
        level += 1
    return tb.build()


def _hub_csr(n_hubs: int):
    """A ``random_csr`` stand-in whose edges mostly point into ``n_hubs``
    vertices spread over the id range: every step of every level has
    duplicate neighbours, within a warp and across warps."""

    def csr(n, avg_degree, rng, locality=0.3):
        degrees = rng.integers(1, 2 * int(avg_degree) + 2, size=n)
        row_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=row_ptr[1:])
        hubs = rng.choice(n, size=min(n_hubs, n), replace=False)
        # Hubs also reach fresh vertices, so the frontier keeps growing.
        far = rng.integers(0, n, size=int(row_ptr[-1]))
        col = np.where(rng.random(len(far)) < 0.6, rng.choice(hubs, size=len(far)), far)
        return row_ptr, col.astype(np.int64)

    return csr


def _assert_same(kwargs):
    got = bfs_trace(CFG, **kwargs)
    want = bfs_trace_reference(CFG, **kwargs)
    assert got == want
    assert got.to_json_dict() == want.to_json_dict()


@settings(max_examples=40, deadline=None)
@given(
    n_vertices=st.integers(200, 3000),
    seed=st.integers(0, 2**16),
    max_edge_steps=st.integers(1, 8),
    n_sources=st.integers(1, 96),
    max_frontier_warps=st.integers(1, 40),
    avg_degree=st.sampled_from([1.0, 3.0, 5.0, 9.0]),
)
def test_bfs_matches_reference(
    n_vertices, seed, max_edge_steps, n_sources, max_frontier_warps, avg_degree
):
    _assert_same(
        dict(
            n_vertices=n_vertices,
            seed=seed,
            max_edge_steps=max_edge_steps,
            n_sources=n_sources,
            max_frontier_warps=max_frontier_warps,
            avg_degree=avg_degree,
        )
    )


@settings(max_examples=25, deadline=None)
@given(
    n_hubs=st.integers(1, 12),
    n_vertices=st.integers(200, 3000),
    seed=st.integers(0, 2**16),
    max_edge_steps=st.integers(1, 8),
    max_frontier_warps=st.integers(1, 40),
)
def test_bfs_matches_reference_on_duplicate_neighbours(
    n_hubs, n_vertices, seed, max_edge_steps, max_frontier_warps
):
    with mock.patch.object(graphs, "random_csr", _hub_csr(n_hubs)):
        _assert_same(
            dict(
                n_vertices=n_vertices,
                seed=seed,
                max_edge_steps=max_edge_steps,
                max_frontier_warps=max_frontier_warps,
            )
        )


@pytest.mark.parametrize("n_vertices", [1000, 1024, 2017])
def test_bfs_budget_runs_out_mid_level(n_vertices):
    # A budget far below one level's block count stops emission inside
    # the first dense level; a budget past the whole BFS never does.
    for budget in (3, 10_000):
        _assert_same(
            dict(n_vertices=n_vertices, seed=5, n_sources=200, max_frontier_warps=budget)
        )
