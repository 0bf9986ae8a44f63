"""Vertex-disjoint packings of open A-paths, and blockers when none is large.

The A-path machinery reduces to maximum matching on an auxiliary graph where
every vertex outside A is split into an adjacent twin pair: a packing of t
A-paths corresponds to a matching of size (#non-A vertices) + t. One run of
Edmonds' blossom algorithm on that graph, over integer node ids, gives
everything the packing-or-blocker routine needs. The matching projects to a
maximum packing. Its last alternating search, grown from every exposed node,
finds no augmenting path, and the nodes it labels even are the Gallai-Edmonds
set D: the nodes some maximum matching leaves exposed. N(D) - D is a
Tutte-Berge witness; closed under the twin exchange, it gives a blocker of
size at most twice the maximum packing.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .multigraph import Multigraph


@dataclass
class PathPacking:
    """Pairwise fully vertex-disjoint paths, each a vertex sequence."""
    paths: list[list[int]]

    def __len__(self) -> int:
        return len(self.paths)


# -- A-paths -----------------------------------------------------------------


@dataclass
class _TwinGraph:
    """The auxiliary graph of (g, A) over ints.

    The i-th vertex outside A, in sorted order, has the twin copies 2i and
    2i + 1, so the twin of a copy x is x ^ 1. The vertices of A follow from
    `first_a` on, one node each. `node_of` maps a vertex of g to its first
    node and `owner` maps each node back to its vertex.
    """
    adj: list[list[int]]
    owner: list[int]
    node_of: dict[int, int]
    first_a: int


def _apath_aux_graph(g: Multigraph, a: frozenset[int]) -> _TwinGraph:
    inner = [v for v in g.vertices() if v not in a]
    outer = sorted(a)
    first_a = 2 * len(inner)
    owner = [v for v in inner for _ in (0, 1)] + outer
    node_of = {v: 2 * i for i, v in enumerate(inner)}
    node_of.update((v, first_a + j) for j, v in enumerate(outer))

    def copies(v: int) -> tuple[int, ...]:
        x = node_of[v]
        return (x, x + 1) if x < first_a else (x,)

    nbrs: list[set[int]] = [set() for _ in owner]
    for x in range(0, first_a, 2):
        nbrs[x].add(x + 1)
        nbrs[x + 1].add(x)
    for u, v in g.edges.values():
        if u == v:
            continue
        for x in copies(u):
            for y in copies(v):
                nbrs[x].add(y)
                nbrs[y].add(x)
    return _TwinGraph([sorted(s) for s in nbrs], owner, node_of, first_a)


def _blossom_matching(adj: Sequence[Sequence[int]]) -> tuple[list[int], list[bool]]:
    """Maximum cardinality matching of a simple graph (Edmonds 1965).

    Returns `mate` (-1 for an exposed node) and the even labels of the last
    alternating search, the one that found no augmenting path. Those even
    nodes are the Gallai-Edmonds set D: the nodes that some maximum matching
    leaves exposed.
    """
    mate = [-1] * len(adj)
    for v, nbrs in enumerate(adj):  # greedy start
        if mate[v] < 0:
            for w in nbrs:
                if mate[w] < 0:
                    mate[v], mate[w] = w, v
                    break
    while True:
        path, even = _alternating_search(adj, mate)
        if path is None:
            return mate, even
        for x, y in zip(path[::2], path[1::2]):
            mate[x], mate[y] = y, x


def _alternating_search(adj: Sequence[Sequence[int]], mate: list[int]
                        ) -> tuple[Optional[list[int]], list[bool]]:
    """Grow alternating trees from every exposed node at once, contracting
    blossoms, until an edge joins the even nodes of two trees.

    Returns that augmenting path (root to root), or None once no even node
    has an edge left to scan, together with the even labels. The search keeps
    `base`, the base of the outermost blossom holding each node, and `parent`:
    on an odd node its unmatched tree edge towards the root, on an even node
    of a blossom's cycle the unmatched cycle edge that leads round to the base
    the other way. From any even node v the path to its root is then v,
    mate[v], parent[mate[v]], mate[...], ... .
    """
    n = len(adj)
    base = list(range(n))
    parent = [-1] * n
    even = [mate[v] < 0 for v in range(n)]
    queue = deque(v for v in range(n) if even[v])

    def root_path(v: int) -> list[int]:
        path = [v]
        while mate[v] >= 0:
            x = mate[v]
            v = parent[x]
            path += (x, v)
        return path

    def common_base(v: int, w: int) -> int:
        """Base of the nearest common blossom of v and w, -1 across trees."""
        seen = set()
        while True:
            v = base[v]
            seen.add(v)
            if mate[v] < 0:
                break
            v = parent[mate[v]]
        while True:
            w = base[w]
            if w in seen:
                return w
            if mate[w] < 0:
                return -1
            w = parent[mate[w]]

    def mark_cycle(v: int, b: int, child: int, inside: set[int]) -> None:
        while base[v] != b:
            inside.add(base[v])
            inside.add(base[mate[v]])
            parent[v] = child
            child = mate[v]
            v = parent[child]

    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if base[v] == base[w] or mate[v] == w:
                continue
            if even[w]:
                b = common_base(v, w)
                if b < 0:
                    return root_path(v)[::-1] + root_path(w), even
                inside: set[int] = set()
                mark_cycle(v, b, w, inside)
                mark_cycle(w, b, v, inside)
                for x in range(n):
                    if base[x] in inside:
                        base[x] = b
                        if not even[x]:
                            even[x] = True
                            queue.append(x)
            elif parent[w] < 0:
                # w is matched, since every exposed node is a root
                parent[w] = v
                even[mate[w]] = True
                queue.append(mate[w])
    return None, even


def _project_apaths(aux: _TwinGraph, mate: list[int]) -> list[list[int]]:
    """Recover A-paths from a maximum matching of the auxiliary graph.

    The symmetric difference with the all-twins matching decomposes into
    alternating paths; each component with a surplus matching edge runs between
    two A-nodes and projects to one A-path. From an A-node the walk takes the
    matching edge, then each copy's twin edge and the twin's matching edge.
    """
    paths = []
    ends: set[int] = set()
    for s in range(aux.first_a, len(mate)):
        if s in ends:
            continue
        path = [aux.owner[s]]
        x = mate[s]
        while 0 <= x < aux.first_a:
            path.append(aux.owner[x])
            x = mate[x ^ 1]
        if x < 0:
            continue  # surplus-free component
        ends.add(x)
        path.append(aux.owner[x])
        paths.append(path)
    return paths


def _match_apaths(g: Multigraph, a: frozenset[int]
                  ) -> tuple[_TwinGraph, list[bool], list[list[int]]]:
    """One blossom run on the auxiliary graph: the graph, the even labels of
    its last search, and the maximum A-path packing it projects to."""
    aux = _apath_aux_graph(g, a)
    mate, even = _blossom_matching(aux.adj)
    t = sum(1 for x in mate if x >= 0) // 2 - aux.first_a // 2
    paths = _project_apaths(aux, mate)
    if len(paths) != t:
        raise AssertionError(f"matching promised {t} paths, projected {len(paths)}")
    verify_apaths(g, a, paths)
    return aux, even, paths


def verify_apaths(g: Multigraph, a: frozenset[int], paths: Sequence[Sequence[int]]) -> None:
    used: set[int] = set()
    for p in paths:
        if len(p) < 2 or p[0] not in a or p[-1] not in a:
            raise AssertionError("not an open A-path")
        if any(v in a for v in p[1:-1]):
            raise AssertionError("interior vertex inside A")
        if len(set(p)) != len(p):
            raise AssertionError("path repeats a vertex")
        for u, v in zip(p, p[1:]):
            if not g.edges_between(u, v):
                raise AssertionError("path uses a missing edge")
        if used & set(p):
            raise AssertionError("paths share a vertex")
        used |= set(p)


def max_disjoint_apaths(g: Multigraph, a: Iterable[int]) -> PathPacking:
    """Maximum family of vertex-disjoint paths with both endpoints in a."""
    aset = frozenset(v for v in a if g.has_vertex(v))
    if len(aset) < 2:
        return PathPacking([])
    return PathPacking(_match_apaths(g, aset)[2])


def exists_apath(g: Multigraph, a: frozenset[int],
                 banned: frozenset[int] = frozenset()) -> bool:
    """Is there any A-path avoiding the banned vertices?"""
    live_a = sorted((a - banned) & set(g._inc))
    live_set = set(live_a)
    for u in live_a:
        for w in g.neighbors(u):
            if w in live_set and w != u:
                return True
    for comp in g.components(banned_vertices=a | banned):
        touched = set()
        for c in comp:
            for u in g.neighbors(c):
                if u in live_set:
                    touched.add(u)
                    if len(touched) >= 2:
                        return True
    return False


# -- packing or blocker ------------------------------------------------------


@dataclass
class GallaiResult:
    packing: Optional[PathPacking]
    blocker: Optional[frozenset[int]]


def gallai_blocker_or_packing(g: Multigraph, a: Iterable[int], k: int) -> GallaiResult:
    """Either k+1 disjoint A-paths, or a blocker of size <= 2 * (max packing).

    Both outcomes are verified before returning: the packing by direct
    inspection, the blocker by checking that no A-path survives it.
    """
    aset = frozenset(v for v in a if g.has_vertex(v))
    paths: list[list[int]] = []
    if len(aset) >= 2:
        aux, even, paths = _match_apaths(g, aset)
    if len(paths) >= k + 1:
        return GallaiResult(PathPacking(paths[:k + 1]), None)

    t = len(paths)
    if t == 0:
        return GallaiResult(None, frozenset())

    nu = aux.first_a // 2 + t
    witness = {y for x, nbrs in enumerate(aux.adj) if even[x]
               for y in nbrs if not even[y]}
    witness = _close_under_twins(aux, witness, nu)

    # the closed witness holds whole twin pairs only
    b_u = {v for v in aset if aux.node_of[v] in witness}
    b_u |= {v for v in g.vertices() if v not in aset
            and aux.node_of[v] in witness}

    blocker = set(b_u)
    for comp in g.components(banned_vertices=b_u):
        in_a = sorted(set(comp) & aset)
        blocker.update(in_a[1:])  # keep one A-vertex per component

    if len(blocker) > 2 * t:
        raise AssertionError("blocker exceeds twice the packing size")
    if exists_apath(g, aset, frozenset(blocker)):
        raise AssertionError("claimed blocker misses an A-path")
    return GallaiResult(None, frozenset(blocker))


def _close_under_twins(aux: _TwinGraph, witness: set[int], nu: int) -> set[int]:
    """Drop every lone twin copy from the witness at once; the Tutte-Berge
    value is kept.

    For a twin pair with exactly one copy in the witness, removing that copy
    merges it into its twin's component, which must be odd for a minimizer, so
    the expression |U| - odd(aux - U) is unchanged. Dropping a copy leaves
    every other copy as lone as it was, so all of them can go together.
    """
    if _tutte_berge(aux.adj, witness) != nu:
        raise AssertionError("witness does not certify the matching number")
    u = {x for x in witness if x >= aux.first_a or x ^ 1 in witness}
    if len(u) < len(witness) and _tutte_berge(aux.adj, u) != nu:
        raise AssertionError("twin closure broke the witness")
    return u


def _tutte_berge(adj: Sequence[Sequence[int]], u: set[int]) -> int:
    """(|V| + |U| - odd(G - U)) / 2, the Tutte-Berge bound of the set U."""
    seen = set(u)
    odd = 0
    for start in range(len(adj)):
        if start in seen:
            continue
        seen.add(start)
        stack = [start]
        size = 0
        while stack:
            x = stack.pop()
            size += 1
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        odd += size % 2
    return (len(adj) + len(u) - odd) // 2
