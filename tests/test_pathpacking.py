"""A-path packing, verification, and the packing-or-blocker dichotomy."""
import os
import random
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sfvs_kernel
from helpers import all_apaths, brute_nu, gallai_edmonds_d, random_multigraph
from sfvs_kernel.multigraph import Multigraph
from sfvs_kernel.pathpacking import (PathPacking, _apath_aux_graph,
                                     _blossom_matching, exists_apath,
                                     gallai_blocker_or_packing,
                                     max_disjoint_apaths, verify_apaths)


def random_terminals(rng, g, hi=5):
    vs = g.vertices()
    return frozenset(rng.sample(vs, rng.randint(0, min(hi, len(vs)))))


def test_packing_basics_on_a_path():
    g = Multigraph.from_edges([1, 2, 3], [(1, 2), (2, 3)])
    a = frozenset([1, 3])
    pk = max_disjoint_apaths(g, a)
    assert len(pk) == 1
    assert pk.paths[0][0] in a and pk.paths[0][-1] in a
    verify_apaths(g, a, pk.paths)


def test_single_edge_between_terminals_is_a_path():
    g = Multigraph.from_edges([1, 2], [(1, 2)])
    a = frozenset([1, 2])
    assert len(max_disjoint_apaths(g, a)) == 1
    assert exists_apath(g, a, frozenset())


def test_verify_apaths_rejects_bad_input():
    g = Multigraph.from_edges([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4)])
    a = frozenset([1, 4])
    with pytest.raises(AssertionError):
        verify_apaths(g, a, [[1, 2], [2, 3]])  # endpoint outside a
    with pytest.raises(AssertionError):
        verify_apaths(g, a, [[1, 3, 4]])       # missing edge 1-3
    with pytest.raises(AssertionError):
        verify_apaths(g, a, [[1, 2, 3, 4], [1, 2, 3, 4]])  # overlap


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=80, deadline=None)
def test_packing_is_maximum(seed):
    rng = random.Random(seed)
    g, _ = random_multigraph(rng, n_hi=8)
    a = random_terminals(rng, g)
    pk = max_disjoint_apaths(g, a)
    verify_apaths(g, a, pk.paths)
    assert len(pk) == brute_nu(g, a)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=80, deadline=None)
def test_exists_apath_matches_enumeration(seed):
    rng = random.Random(seed)
    g, _ = random_multigraph(rng, n_hi=8)
    a = random_terminals(rng, g)
    vs = g.vertices()
    banned = frozenset(rng.sample(vs, rng.randint(0, min(3, len(vs)))))
    survivors = [p for p in all_apaths(g, a) if not (set(p) & banned)]
    assert exists_apath(g, a, banned) == bool(survivors)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=80, deadline=None)
def test_blocker_or_packing_dichotomy(seed):
    rng = random.Random(seed)
    g, _ = random_multigraph(rng, n_hi=9)
    a = random_terminals(rng, g)
    k = rng.randint(0, 3)
    res = gallai_blocker_or_packing(g, a, k)
    nu = brute_nu(g, a)
    if res.packing is not None:
        assert res.blocker is None
        assert len(res.packing) == k + 1
        verify_apaths(g, a, res.packing.paths)
        assert nu >= k + 1
    else:
        assert nu <= k
        assert len(res.blocker) <= 2 * nu
        assert not exists_apath(g, a, res.blocker)


def test_pathpacking_len():
    pk = PathPacking([[1, 2], [3, 4, 5]])
    assert len(pk) == 2


def random_simple_graph(rng, n_hi=30):
    """Random edges plus planted odd cycles, so blossoms (and blossoms inside
    blossoms, where cycles share nodes) occur often."""
    n = rng.randint(1, n_hi)
    nbrs = [set() for _ in range(n)]

    def join(x, y):
        if x != y:
            nbrs[x].add(y)
            nbrs[y].add(x)

    for _ in range(rng.randint(0, 2 * n)):
        join(rng.randrange(n), rng.randrange(n))
    for _ in range(rng.randint(0, 4)):
        size = rng.choice((3, 5, 7))
        if size <= n:
            cyc = rng.sample(range(n), size)
            for x, y in zip(cyc, cyc[1:] + cyc[:1]):
                join(x, y)
    return [sorted(s) for s in nbrs]


def check_matching(adj, mate):
    for x, y in enumerate(mate):
        if y >= 0:
            assert mate[y] == x and y in adj[x]


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=150, deadline=None)
def test_blossom_matching_is_maximum(seed):
    adj = random_simple_graph(random.Random(seed))
    mate, _ = _blossom_matching(adj)
    check_matching(adj, mate)
    ref = nx.Graph()
    ref.add_nodes_from(range(len(adj)))
    ref.add_edges_from((x, y) for x, nbrs in enumerate(adj) for y in nbrs)
    nu = len(nx.max_weight_matching(ref, maxcardinality=True))
    assert sum(1 for y in mate if y >= 0) == 2 * nu


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=80, deadline=None)
def test_even_labels_are_the_gallai_edmonds_set(seed):
    rng = random.Random(seed)
    adj = random_simple_graph(rng, n_hi=14)
    assert _blossom_matching(adj)[1] == gallai_edmonds_d(adj)
    # and on the twin graph the packing-or-blocker routine matches on
    g, _ = random_multigraph(rng, n_hi=7)
    aux = _apath_aux_graph(g, random_terminals(rng, g))
    mate, even = _blossom_matching(aux.adj)
    check_matching(aux.adj, mate)
    assert even == gallai_edmonds_d(aux.adj)


def test_cli_import_leaves_networkx_out():
    src = str(Path(sfvs_kernel.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, sfvs_kernel.cli; print('networkx' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
