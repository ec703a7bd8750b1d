import logging
from collections import deque

import numpy as np
import pytest

from lcuts.direction import (_BATCH_ELEMENTS, VotingParams, _hop_reach, _vote_batch,
                             assign_all_directions)
from lcuts.errors import InputError
from lcuts.geometry import Node, PointCloud
from oracles import (Neighborhood, _vote_candidates, assign_directions, estimate_direction,
                     hop_neighborhood)
from test_acceptance import fuzz_cloud


def make_cloud(pts, dim=2):
    return PointCloud([Node(id=i, loc=np.asarray(p, dtype=np.float64)) for i, p in enumerate(pts)], dim)


def bfs_oracle(locs, center, hops, radius):
    # plain breadth-first search over the radius graph
    n = len(locs)
    dist = np.sqrt(((locs[:, None, :] - locs[None, :, :]) ** 2).sum(axis=-1))
    depth = {center: 0}
    queue = deque([center])
    while queue:
        u = queue.popleft()
        if depth[u] == hops:
            continue
        for v in range(n):
            if v != u and v not in depth and dist[u, v] <= radius:
                depth[v] = depth[u] + 1
                queue.append(v)
    return frozenset(k for k in depth if k != center)


def test_hop_chain_example():
    cloud = make_cloud([(x, 0.0) for x in (0.0, 4.0, 8.0, 12.0, 16.0, 40.0)])
    nb = hop_neighborhood(cloud, 0, VotingParams(hops=4, hop_radius=5.0))
    assert nb.center == 0
    assert sorted(nb.members) == [1, 2, 3, 4]  # the node at x=40 is unreachable


def test_hop_isolated_node():
    cloud = make_cloud([(0.0, 0.0), (6.0, 0.0)])
    nb = hop_neighborhood(cloud, 0, VotingParams(hops=4, hop_radius=5.0))
    assert nb.members == frozenset()


def test_hop_limits_depth():
    cloud = make_cloud([(4.0 * i, 0.0) for i in range(10)])
    nb = hop_neighborhood(cloud, 0, VotingParams(hops=2, hop_radius=5.0))
    assert sorted(nb.members) == [1, 2]


def test_hop_neighborhood_vs_bfs_oracle():
    rng = np.random.default_rng(12)
    locs = rng.uniform(0.0, 60.0, size=(200, 2))
    cloud = make_cloud(locs)
    params = VotingParams(hops=4, hop_radius=5.0)
    for center in range(200):
        nb = hop_neighborhood(cloud, center, params)
        assert nb.members == bfs_oracle(locs, center, params.hops, params.hop_radius)


def test_estimate_direction_collinear():
    cloud = make_cloud([(4.0 * i, 0.0) for i in range(6)])
    params = VotingParams()
    d = estimate_direction(cloud, 2, hop_neighborhood(cloud, 2, params), params)
    assert np.array_equal(d, np.array([1.0, 0.0]))


def test_estimate_direction_single_member():
    cloud = make_cloud([(0.0, 0.0), (3.0, 3.0)])
    d = estimate_direction(cloud, 0, Neighborhood(0, frozenset({1})), VotingParams())
    r = np.sqrt(2.0) / 2.0
    assert np.allclose(d, [r, r], atol=1e-12)


def test_estimate_direction_t_junction():
    # six members on the x-axis, two on the y-axis, center at the junction
    pts = [(0.0, 0.0), (4.0, 0.0), (-4.0, 0.0), (8.0, 0.0), (-8.0, 0.0),
           (12.0, 0.0), (-12.0, 0.0), (0.0, 4.0), (0.0, -4.0)]
    cloud = make_cloud(pts)
    params = VotingParams()
    nbhd = Neighborhood(0, frozenset(range(1, 9)))

    # oracle accumulator: first-bin counts per candidate
    offs = cloud.locs()[1:] - cloud.locs()[0]
    cand = offs / np.linalg.norm(offs, axis=1)[:, None]
    phi = np.arccos(np.clip(np.abs(cand @ cand.T), 0.0, 1.0))
    counts = (phi < (np.pi / 2) / params.rel_bins).sum(axis=1) - 1
    x_members = [k for k in range(8) if abs(cand[k][0]) > 0.5]
    y_members = [k for k in range(8) if abs(cand[k][1]) > 0.5]
    assert all(counts[k] >= 5 for k in x_members)
    assert all(counts[k] <= 1 for k in y_members)

    d = estimate_direction(cloud, 0, nbhd, params)
    assert np.linalg.norm(d - np.array([1.0, 0.0])) <= 1e-6


def test_estimate_direction_empty_and_bad_center():
    cloud = make_cloud([(0.0, 0.0), (30.0, 0.0)])
    assert estimate_direction(cloud, 0, Neighborhood(0, frozenset()), VotingParams()) is None
    with pytest.raises(InputError):
        estimate_direction(cloud, 1, Neighborhood(0, frozenset({1})), VotingParams())


def test_assign_parallel_lines():
    pts = [(4.0 * i, 0.0) for i in range(12)] + [(4.0 * i, 20.0) for i in range(12)]
    cloud = assign_all_directions(make_cloud(pts), VotingParams())
    for node in cloud.nodes:
        assert node.dir is not None
        ang = np.degrees(np.arccos(min(1.0, abs(float(node.dir @ np.array([1.0, 0.0]))))))
        assert ang <= 2.0


def test_assign_isolated_node_gets_no_direction():
    cloud = assign_all_directions(make_cloud([(0.0, 0.0), (100.0, 100.0)]), VotingParams())
    assert cloud.nodes[0].dir is None
    assert cloud.nodes[1].dir is None


def test_assign_recomputes_existing_directions():
    bogus = np.array([0.0, 1.0])
    nodes = [Node(id=i, loc=np.array([4.0 * i, 0.0]), dir=bogus) for i in range(6)]
    cloud = assign_all_directions(PointCloud(nodes, 2), VotingParams())
    for node in cloud.nodes:
        assert abs(float(node.dir @ np.array([1.0, 0.0]))) >= 1.0 - 1e-9


def test_directions_unit_norm():
    rng = np.random.default_rng(21)
    for dim in (2, 3):
        pts = rng.uniform(0.0, 40.0, size=(50, dim))
        cloud = assign_all_directions(make_cloud(pts, dim), VotingParams())
        for node in cloud.nodes:
            if node.dir is not None:
                assert abs(float(np.linalg.norm(node.dir)) - 1.0) <= 1e-9


def test_rotation_equivariance():
    rng = np.random.default_rng(5)
    pts = np.cumsum(rng.uniform(2.0, 4.5, size=(15, 1)), axis=0) * np.array([[1.0, 0.35]])
    pts += rng.normal(0.0, 0.4, size=pts.shape)
    params = VotingParams()
    base = assign_all_directions(make_cloud(pts), params)
    theta = 0.83
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    turned = assign_all_directions(make_cloud(pts @ rot.T), params)
    for a, b in zip(base.nodes, turned.nodes):
        if a.dir is None:
            assert b.dir is None
            continue
        expected = rot @ a.dir
        # directions are axes: compare up to sign
        assert min(np.linalg.norm(b.dir - expected), np.linalg.norm(b.dir + expected)) <= 1e-6


def assert_matches_oracle(cloud, params, label=""):
    """The batched vote equals the one-node-at-a-time oracle bit for bit."""
    got = assign_all_directions(cloud, params)
    for k, (node, want) in enumerate(zip(got.nodes, assign_directions(cloud, params))):
        if want is None:
            assert node.dir is None, f"{label} node {k}"
        else:
            # bytes, not np.array_equal, so that signed zeros must agree too
            assert node.dir is not None and node.dir.tobytes() == want.tobytes(), f"{label} node {k}"
    return got


def lattice_cloud(rng, dim):
    # Integer points scaled by a small integer: many exactly parallel and
    # exactly perpendicular offsets, so angle ties and zero dot products.
    n = int(rng.integers(2, 120))
    pts = np.unique(rng.integers(0, 12, size=(n, dim)).astype(np.float64), axis=0)
    pts = pts[rng.permutation(len(pts))] * float(rng.integers(1, 4))
    return PointCloud([Node(i, p) for i, p in enumerate(pts)], dim)


def test_assign_matches_oracle_on_fuzz_corpus(caplog):
    caplog.set_level(logging.ERROR, logger="lcuts.direction")
    # Criterion 09's corpus, replayed draw for draw.
    rng = np.random.default_rng(3)
    corpus = []
    for t in range(500):
        corpus.append(fuzz_cloud(t, rng))
        if t % 10 == 0 and len(corpus[-1]) > 1:
            rng.permutation(len(corpus[-1]))
    for params in (VotingParams(), VotingParams(hops=2, hop_radius=9),
                   VotingParams(hops=5, hop_radius=4, n_rel_bins=3)):
        for t, cloud in enumerate(corpus):
            assert_matches_oracle(cloud, params, f"{params} trial {t}")
    rng = np.random.default_rng(10)
    for t in range(200):
        cloud = lattice_cloud(rng, 2 + t % 2)
        params = VotingParams(hops=1 + t % 5, hop_radius=float(rng.choice([3.0, 4.5, 6.0])))
        assert_matches_oracle(cloud, params, f"{params} lattice {t}")


def test_assign_drops_candidates_whose_square_underflows(caplog):
    # 1e-170 squared underflows to 0.0: that offset has no direction to
    # offer, exactly as in the oracle, and the pair alone votes nothing.
    params = VotingParams(hops=1, hop_radius=5.0)
    with caplog.at_level(logging.WARNING, logger="lcuts.direction"):
        got = assert_matches_oracle(make_cloud([(0.0, 0.0), (1e-170, 0.0), (40.0, 0.0)]), params)
    assert [n.dir for n in got.nodes] == [None, None, None]
    assert "3 of 3 nodes have empty neighborhoods" in caplog.text
    # Beside a proper member the underflowing one is dropped, and a subnormal
    # square (1e-160 apart) still votes.
    cloud = make_cloud([(0.0, 0.0), (1e-170, 0.0), (0.0, 3.0), (1e-160, 7.0), (0.0, 7.0)])
    got = assert_matches_oracle(cloud, params)
    assert np.array_equal(got.nodes[0].dir, [0.0, 1.0])


def test_vote_falls_back_to_reference_when_mean_vanishes():
    # Sign-aligned unit candidates always sum to at least the reference, so
    # no cloud reaches the fallback; zero candidates do.
    cand = np.array([[[0.0, 0.0], [0.0, 0.0]], [[0.6, 0.8], [0.0, 0.0]]])
    got = _vote_batch(cand, 4)
    for b in range(2):
        assert got[b].tobytes() == _vote_candidates(cand[b], 4).tobytes()
    assert np.array_equal(got[0], [0.0, 0.0])


def test_assign_single_member_and_isolated_nodes():
    # Pairs, a lone node, and a chain end whose only member is one hop away.
    cloud = make_cloud([(0.0, 0.0), (3.0, 4.0), (50.0, 50.0), (100.0, 0.0), (100.0, 5.0),
                        (-40.0, 9.0)])
    got = assert_matches_oracle(cloud, VotingParams(hops=1, hop_radius=5.0))
    assert [n.dir is None for n in got.nodes] == [False, False, True, False, False, True]
    assert np.array_equal(got.nodes[3].dir, [0.0, 1.0])


def test_assign_many_neighborhood_sizes():
    # A dense blob beside sparse chains gives neighborhoods of many sizes,
    # so many count groups, some large enough to vote in several chunks.
    rng = np.random.default_rng(8)
    for dim in (2, 3):
        blob = rng.uniform(0.0, 12.0, size=(400, dim))
        chain = np.zeros((30, dim))
        chain[:, 0] = 40.0 + 3.0 * np.arange(30)
        chain[:, 1] = rng.normal(0.0, 0.5, size=30)
        cloud = make_cloud(np.concatenate([blob, chain]), dim)
        for hops in (1, 2, 4):
            params = VotingParams(hops=hops, hop_radius=4.0)
            sizes = np.diff(_hop_reach(cloud.locs(), params).indptr) - 1
            assert len(np.unique(sizes)) >= 8
            got = assert_matches_oracle(cloud, params)
            assert all(n.dir is not None for n in got.nodes)
        m = sizes.max()
        assert (sizes == m).sum() * m * m > _BATCH_ELEMENTS  # this group votes in chunks


def test_voting_params_validation():
    with pytest.raises(InputError):
        VotingParams(hops=0)
    with pytest.raises(InputError):
        VotingParams(hop_radius=-1.0)
    with pytest.raises(InputError):
        VotingParams(hop_radius=float("inf"))
    with pytest.raises(InputError):
        VotingParams(n_rel_bins=0)
    assert VotingParams(hops=6).rel_bins == 6
    assert VotingParams(hops=4, n_rel_bins=9).rel_bins == 9
