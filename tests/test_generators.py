"""Instance generators: determinism, validity, gadget inventory."""
import pytest

from sfvs_kernel.generators import bubble_forest, gadget_suite, gnm, planted
from sfvs_kernel.instancefile import serialize_instance
from sfvs_kernel.multigraph import is_solution


def test_gnm_shape_and_determinism():
    a = gnm(10, 18, 4, 2, seed=42)
    b = gnm(10, 18, 4, 2, seed=42)
    assert serialize_instance(a) == serialize_instance(b)
    a.validate()
    assert a.graph.n == 10
    assert a.graph.m == 18
    assert len(a.s) == 4
    assert a.k == 2
    assert a.pairs == frozenset()
    c = gnm(10, 18, 4, 2, seed=43)
    assert serialize_instance(c) != serialize_instance(a)


def test_gnm_degenerate_sizes():
    tiny = gnm(1, 1, 1, 0, seed=0)
    tiny.validate()
    assert tiny.graph.n == 1
    empty = gnm(0, 0, 0, 0, seed=0)
    empty.validate()
    assert empty.graph.n == 0


@pytest.mark.parametrize("n,m,s,k", [
    (-1, 0, 0, 1),   # negative n
    (3, -1, 0, 1),   # negative m
    (0, 2, 0, 1),    # edges without vertices
    (4, 2, 3, 1),    # more special edges than edges
    (4, 2, -1, 1),   # negative s
    (4, 2, 1, -2),   # negative budget
])
def test_gnm_rejects_bad_parameters(n, m, s, k):
    with pytest.raises(ValueError):
        gnm(n, m, s, k, seed=0)


def test_bubble_forest_bounds_and_determinism():
    seen_s = False
    for seed in range(30):
        p = bubble_forest(seed)
        p.validate()
        assert p.graph.n <= 16
        assert 0 <= p.k <= 3
        seen_s = seen_s or bool(p.s)
        again = bubble_forest(seed)
        assert serialize_instance(again) == serialize_instance(p)
    assert seen_s


@pytest.mark.parametrize("n,k,d", [(3, 0, 0), (10, 1, 3), (40, 3, 4),
                                   (300, 3, 20), (1000, 3, 4)])
def test_planted_hubs_solve_it(n, k, d):
    p = planted(n, k, d, seed=11)
    p.validate()
    assert p.graph.n == n and p.k == k and not p.pairs
    hubs = frozenset(range(1, k + 1))
    assert is_solution(p, hubs)
    assert all(p.graph.degree(h) == d for h in hubs)
    # the blocks are cycles of 3-7 vertices, and the S-edges a tree on them
    blocks = p.graph.components(hubs, p.s)
    assert all(3 <= len(b) <= 7 for b in blocks)
    assert len(p.s) == len(blocks) - 1
    assert len(p.graph.components(hubs)) == 1


def test_planted_is_deterministic_in_the_seed():
    a, b = planted(200, 3, 4, seed=5), planted(200, 3, 4, seed=5)
    assert serialize_instance(a) == serialize_instance(b)
    assert serialize_instance(planted(200, 3, 4, seed=6)) != serialize_instance(a)


@pytest.mark.parametrize("n,k,d", [(4, 2, 1), (10, -1, 2), (10, 2, 9),
                                   (10, 2, -1)])
def test_planted_rejects_bad_parameters(n, k, d):
    with pytest.raises(ValueError):
        planted(n, k, d, seed=0)


def test_gadget_suite_inventory():
    suite = gadget_suite()
    names = [g.name for g in suite]
    assert len(names) == len(set(names))
    covered = set()
    for gad in suite:
        gad.pinst.validate()
        assert gad.fires
        assert set(gad.fires) <= set(range(1, 11))
        covered |= set(gad.fires)
        assert gad.pinst.graph.n <= 20  # stays within the exact solver envelope
    assert covered == set(range(1, 11))
