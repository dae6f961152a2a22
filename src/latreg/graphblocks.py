"""Simple graphs, bipartiteness, block decomposition, and the regularity of
vanishing ideals parameterized by graph edges over prime fields."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidArgumentError, PreconditionError
from .ffvanish import (
    PointSet,
    PrimeField,
    enumerate_parameterized,
    parameterized_hilbert_table,
    vanishing_ideal_series,
)
from .invariants import additive_regularity


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 1..n."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        edges = frozenset(tuple(sorted((int(u), int(v)))) for u, v in self.edges)
        for u, v in edges:
            if u == v:
                raise InvalidArgumentError(f"loop at vertex {u}")
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise InvalidArgumentError(f"edge ({u},{v}) out of range 1..{self.n}")
        object.__setattr__(self, "edges", edges)

    @property
    def sorted_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.edges))

    def adjacency(self) -> dict[int, list[int]]:
        adj: dict[int, list[int]] = {v: [] for v in range(1, self.n + 1)}
        for u, v in self.sorted_edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj

    def isolated_vertices(self) -> tuple[int, ...]:
        seen = {v for e in self.edges for v in e}
        return tuple(v for v in range(1, self.n + 1) if v not in seen)


def graph(n: int, edges) -> Graph:
    return Graph(n, frozenset(tuple(e) for e in edges))


@dataclass(frozen=True)
class BlockDecomposition:
    """Blocks as edge sets (they partition E_G); two blocks meet in at most
    one vertex, a cutvertex."""

    blocks: tuple[tuple[tuple[int, int], ...], ...]
    cutvertices: tuple[int, ...]
    isolated: tuple[int, ...]


def characteristic_vectors(G: Graph) -> list[tuple[int, ...]]:
    """e_i + e_j per edge, edges in sorted lexicographic order."""
    out = []
    for u, v in G.sorted_edges:
        vec = [0] * G.n
        vec[u - 1] = 1
        vec[v - 1] = 1
        out.append(tuple(vec))
    return out


def connected_components(G: Graph) -> list[tuple[int, ...]]:
    adj = G.adjacency()
    seen: set[int] = set()
    comps = []
    for start in range(1, G.n + 1):
        if start in seen:
            continue
        stack = [start]
        comp = []
        seen.add(start)
        while stack:
            u = stack.pop()
            comp.append(u)
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append(tuple(sorted(comp)))
    return comps


def bipartition(G: Graph):
    """Canonical 2-coloring (lowest vertex of each component in V_1), or None
    when the graph has an odd cycle."""
    adj = G.adjacency()
    color: dict[int, int] = {}
    for start in range(1, G.n + 1):
        if start in color:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            u = queue.pop()
            for w in adj[u]:
                if w not in color:
                    color[w] = 1 - color[u]
                    queue.append(w)
                elif color[w] == color[u]:
                    return None
    side1 = tuple(v for v in range(1, G.n + 1) if color[v] == 0)
    side2 = tuple(v for v in range(1, G.n + 1) if color[v] == 1)
    return side1, side2


def blocks(G: Graph) -> BlockDecomposition:
    """Biconnected components by depth-first low-link; bridges come out as
    two-vertex blocks, isolated vertices are reported separately.

    The search keeps its own stack of (vertex, parent, neighbour iterator)
    frames, so a long path does not exhaust Python's recursion limit.
    """
    adj = G.adjacency()
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    stack: list[tuple[int, int]] = []
    out_blocks: list[tuple[tuple[int, int], ...]] = []
    cuts: set[int] = set()

    for root in range(1, G.n + 1):
        if root in disc or not adj[root]:
            continue
        disc[root] = low[root] = len(disc)
        root_blocks = 0
        frames = [(root, None, iter(adj[root]))]
        while frames:
            u, parent, neighbours = frames[-1]
            for w in neighbours:
                if w == parent:
                    continue
                if w not in disc:
                    stack.append((u, w))
                    disc[w] = low[w] = len(disc)
                    frames.append((w, u, iter(adj[w])))
                    break
                if disc[w] < disc[u]:
                    stack.append((u, w))
                    low[u] = min(low[u], disc[w])
            else:
                # u is finished; hand its low-link back to its parent
                frames.pop()
                if parent is None:
                    continue
                low[parent] = min(low[parent], low[u])
                if low[u] >= disc[parent]:
                    # (parent, u) closes a block; everything pushed after it belongs
                    block = []
                    while True:
                        e = stack.pop()
                        block.append(e)
                        if e == (parent, u):
                            break
                    out_blocks.append(tuple(sorted(tuple(sorted(e)) for e in block)))
                    if parent == root:
                        root_blocks += 1
                    else:
                        cuts.add(parent)
        # each tree child of the root closes exactly one block
        if root_blocks > 1:
            cuts.add(root)
    return BlockDecomposition(
        tuple(sorted(out_blocks)), tuple(sorted(cuts)), G.isolated_vertices()
    )


def _block_subgraph(block_edges) -> Graph:
    verts = sorted({v for e in block_edges for v in e})
    relabel = {v: i + 1 for i, v in enumerate(verts)}
    return graph(len(verts), [(relabel[u], relabel[v]) for u, v in block_edges])


def _edge_vectors(G: Graph) -> list[tuple[int, ...]]:
    """Characteristic vectors on the vertices the edges touch: X depends on
    the edge set alone, so isolated vertices are dropped."""
    if not G.edges:
        raise InvalidArgumentError("graph has no edges")
    return characteristic_vectors(_block_subgraph(G.edges))


def edge_point_set(G: Graph, field: PrimeField) -> PointSet:
    """The projective set parameterized by the edge monomials y_i y_j."""
    return enumerate_parameterized(field, _edge_vectors(G))


def edge_regularity(G: Graph, field: PrimeField) -> int:
    """Regularity of the vanishing ideal of the edge point set: the depth of
    the breadth-first search over the characters of the edge monomials in
    ``parameterized_hilbert_table`` (no point is enumerated)."""
    return len(parameterized_hilbert_table(field, _edge_vectors(G))) - 1


def reg_bipartite_blocks(G: Graph, field: PrimeField) -> int:
    """Regularity of the edge point set of a bipartite graph as the sum of
    the block regularities plus (q-2)(c-1).  Isolated vertices lie in no
    block and change nothing."""
    if bipartition(G) is None:
        raise PreconditionError("graph is not bipartite")
    dec = blocks(G)
    parts = [edge_regularity(_block_subgraph(b), field) for b in dec.blocks]
    return additive_regularity(parts, field.p - 1)


def reg_bounds_bipartite(G: Graph, field: PrimeField) -> tuple[int, int]:
    """((|V_1|-1)(q-2), (|V_1|+|V_2|-2)(q-2)) for connected bipartite G with
    |V_2| <= |V_1|."""
    if len(connected_components(G)) != 1:
        raise PreconditionError("graph is not connected")
    parts = bipartition(G)
    if parts is None:
        raise PreconditionError("graph is not bipartite")
    a, b = sorted((len(parts[0]), len(parts[1])))
    q = field.p
    return ((b - 1) * (q - 2), (a + b - 2) * (q - 2))


def reg_colon_method(G: Graph, field: PrimeField) -> int:
    """Regularity via the colon construction, on a Groebner basis, for any
    graph.

    I(X) = J : t_s^infty with J the binomials of the lattice-basis rows
    reduced modulo the (q-1)(e_i - e_s), plus t_i^{q-1} - t_s^{q-1}
    (``vanishing_ideal_finite_field``).  S/I(X) is Cohen-Macaulay of
    dimension 1, so the regularity is read off the Hilbert series of its
    initial ideal (``vanishing_ideal_series``).  No character is counted,
    so this route cross-checks ``edge_regularity``.
    """
    return vanishing_ideal_series(field, _edge_vectors(G))[2]
