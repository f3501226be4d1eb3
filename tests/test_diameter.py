"""Tests for the intrinsic diameter search.

Oracles: all_pairs_distances, scipy's Dijkstra from every vertex (or
from the searched ones) of the same graph, whose rows the line scans
must reproduce bit for bit and whose maximum the pole-bounded search
must match to its certified roundoff factor; and the brute-force N x N
evaluation of the pole bound.
"""

import numpy as np
import pytest

import nearlyround as nr
from nearlyround import surfaces as surf
from nearlyround.harness import family_surfaces
from nearlyround.metrics import parse_metric

EPS = np.finfo(float).eps


def all_pairs_distances(grid, h, indices=None):
    """Dijkstra distances between the N + 2 vertices of the diameter graph
    of the packed (3, ntheta, nphi) metric h: from every vertex, or only
    from the vertices listed in indices."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import dijkstra

    nt, nph = grid.shape
    n = nt * nph
    sq_t, sq_p = np.sqrt(h[0]), np.sqrt(h[2])
    theta = grid.theta
    dphi = 2.0 * np.pi / nph
    node = np.arange(n).reshape(nt, nph)

    rows, cols, vals = [], [], []
    # meridian edges
    for i in range(nt - 1):
        L = 0.5 * (sq_t[i] + sq_t[i + 1]) * (theta[i + 1] - theta[i])
        rows.append(node[i])
        cols.append(node[i + 1])
        vals.append(L)
    # parallel edges (periodic)
    nxt = np.roll(np.arange(nph), -1)
    for i in range(nt):
        L = 0.5 * (sq_p[i] + sq_p[i, nxt]) * dphi
        rows.append(node[i])
        cols.append(node[i, nxt])
        vals.append(L)
    # virtual poles
    north, south = n, n + 1
    rows.append(np.full(nph, north))
    cols.append(node[0])
    vals.append(sq_t[0] * theta[0])
    rows.append(np.full(nph, south))
    cols.append(node[nt - 1])
    vals.append(sq_t[nt - 1] * (np.pi - theta[nt - 1]))

    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    graph = coo_matrix((vals, (rows, cols)), shape=(n + 2, n + 2))
    return dijkstra(graph, directed=False, indices=indices)


def all_pairs_diameter(grid, h):
    """The longest graph geodesic, from every vertex's distance row."""
    dist = all_pairs_distances(grid, h)
    return float(dist[np.isfinite(dist)].max())


FAMILIES = {
    "kerr-a0.5": dict(metric="kerr_slice m=1 a=0.5", schedule=(20.0, 40.0, 80.0)),
    "kerr-a0.9": dict(metric="kerr_slice m=1 a=0.9", schedule=(20.0, 40.0, 80.0)),
    "iso": dict(metric="schwarzschild_isotropic m=1", schedule=(20.0, 40.0, 80.0)),
    "std": dict(metric="schwarzschild_standard m=1", schedule=(20.0, 40.0, 80.0)),
    "lumpy-l3": dict(
        metric="schwarzschild_standard m=1", family="radial-perturbed",
        schedule=(20.0, 40.0, 80.0), amplitude=0.1, l=3, m_order=2, decay=1.0,
    ),
    "off-regime-l2": dict(
        metric="schwarzschild_standard m=1", family="radial-perturbed",
        schedule=(20.0, 40.0, 80.0), amplitude=0.1, l=2, m_order=1, decay=0.0,
    ),
    # R = r (1 + 0.3 Y_40), the family the roundness flags must catch
    "violator-y40": dict(
        metric="schwarzschild_isotropic m=1", family="radial-perturbed",
        schedule=(10.0, 20.0, 40.0), amplitude=0.3, l=4, m_order=0, decay=0.0,
    ),
}


def family_records(name, L):
    config = nr.StudyConfig(band_limit=L, **FAMILIES[name])
    metric = parse_metric(config.metric)
    grid = nr.build_grid(L)
    return [nr.fundamental_forms(s, metric) for _, s in family_surfaces(config, grid, metric)]


@pytest.fixture
def scans(monkeypatch):
    """Every line-scan search of the test, as (sources, distances)."""
    calls = []
    scan = surf._line_scan_distances

    def spy(sources, *edges):
        calls.append((list(sources), scan(sources, *edges)))
        return calls[-1][1]

    monkeypatch.setattr(surf, "_line_scan_distances", spy)
    return calls


@pytest.fixture
def sweeps(monkeypatch, scans):
    """For every line-scan sweep of the test, the index in scans of the
    search that ran it."""
    calls = []
    sweep = surf._line_scan_sweep

    def spy(*args):
        calls.append(len(scans))  # a search is logged when it returns
        return sweep(*args)

    monkeypatch.setattr(surf, "_line_scan_sweep", spy)
    return calls


@pytest.mark.parametrize(
    "name,L",
    [(name, L) for name in sorted(FAMILIES) for L in (8, 16, 24)]
    + [(name, 32) for name in ("iso", "kerr-a0.5", "std")],
)
def test_line_scans_equal_dijkstra(name, L, scans):
    # not only the diameter: every distance row searched, the two pole
    # rows first, is Dijkstra's row bit for bit
    for fd in family_records(name, L):
        scans.clear()
        assert fd.diameter > 0.0
        n = fd.grid.n_nodes
        assert scans[0][0] == [n, n + 1]
        for sources, rows in scans:
            assert np.array_equal(rows, all_pairs_distances(fd.grid, fd.induced_metric, sources))


def test_line_scan_sweeps_are_pinned(scans, sweeps):
    # a round sphere's pole rows start at their fixed point: one search,
    # no sweep, at every band limit
    for name in ("iso", "kerr-a0.5", "kerr-a0.9", "std"):
        for L in (8, 16, 24, 32):
            for fd in family_records(name, L):
                scans.clear()
                sweeps.clear()
                assert fd.diameter > 0.0
                assert (len(scans), sweeps) == (1, []), (name, L)
    # the sweeps of each search, per member at L=16: a block search stops
    # after the last sweep that relaxes an edge
    counts = {}
    for name in ("lumpy-l3", "off-regime-l2", "violator-y40"):
        counts[name] = []
        for fd in family_records(name, 16):
            scans.clear()
            sweeps.clear()
            assert fd.diameter > 0.0
            counts[name].append([sweeps.count(k) for k in range(len(scans))])
    assert counts == {
        "lumpy-l3": [[0, 3]] * 3, "off-regime-l2": [[0, 3]] * 3, "violator-y40": [[0]] * 3,
    }


@pytest.mark.parametrize("L", [8, 16, 24])
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_diameter_certified_against_all_pairs(name, L):
    # returned <= all-pairs <= returned (1 + 4 M eps), M = N + 2 vertices
    for fd in family_records(name, L):
        new = fd.diameter
        oracle = all_pairs_diameter(fd.grid, fd.induced_metric)
        assert new <= oracle <= new * (1.0 + 4.0 * (fd.grid.n_nodes + 2) * EPS)


def brute_pole_bound(a, b):
    return np.minimum(a[:, None] + a, b[:, None] + b).max(1)


@pytest.mark.parametrize("n", [1, 2, 50, 400])
@pytest.mark.parametrize("kind", ["random", "ties", "all-via-b", "all-via-a"])
def test_pole_bound_matches_brute_force(n, kind):
    rng = np.random.default_rng(n)
    a = rng.uniform(0.0, 3.0, n)
    b = rng.uniform(0.0, 3.0, n)
    if kind == "ties":
        # quarter steps: every sum and difference is exact, and ties abound
        a, b = np.round(4.0 * a) / 4.0, np.round(4.0 * b) / 4.0
    elif kind == "all-via-b":
        a = b + 1.0  # a - b exceeds every b - a: k = 0 for every node
    elif kind == "all-via-a":
        b = a + 1.0  # k = n for every node
    np.testing.assert_array_equal(surf._pole_bound(a, b), brute_pole_bound(a, b))


def test_pole_bound_dominates_every_eccentricity():
    # the stop rule's premise: no source's eccentricity exceeds its pole
    # bound by more than the roundoff of the path sums
    fd = family_records("kerr-a0.5", 16)[0]
    dist = all_pairs_distances(fd.grid, fd.induced_metric)
    n = fd.grid.n_nodes
    ub = surf._pole_bound(dist[n], dist[n + 1])
    assert np.all(dist.max(axis=1) <= ub * (1.0 + 2.0 * (n + 2) * EPS))


def test_kerr_diameter_searches_from_the_poles_alone(scans):
    grid = nr.build_grid(32)
    fd = nr.fundamental_forms(nr.coordinate_sphere(40.0, grid), nr.kerr_slice(1.0, 0.5))
    assert fd.diameter > 0.0
    n = grid.n_nodes
    assert [sources for sources, _ in scans] == [[n, n + 1]]
    # a non-axisymmetric bump needs more sources, and names each of them
    scans.clear()
    fd = family_records("lumpy-l3", 16)[-1]
    assert fd.diameter > 0.0
    n = fd.grid.n_nodes
    assert len(scans) > 1 and scans[0][0] == [n, n + 1]
    assert all(0 < len(sources) <= surf._SOURCE_BLOCK for sources, _ in scans)
