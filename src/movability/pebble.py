"""Rank of the (2,3)-sparsity count matroid via the pebble game.

A graph has a spanning Laman subgraph exactly when the rank equals 2n-3;
generic realizations of such graphs are rigid, so everything interesting for
movability happens on them.
"""

from __future__ import annotations

from .graphs import Graph


def spanning_laman_rank(g: Graph) -> int:
    """Accumulated number of independent edges in the (2,3)-pebble game.

    Each vertex starts with two pebbles; an edge is accepted when four
    pebbles can be gathered on its endpoints, and acceptance pins one pebble
    down.  Pebbles are recovered by reversing directed paths.  The result is
    the rank of the generic rigidity matroid (order of edges is irrelevant).
    Out-neighbours are bitmasks.  The game stops once the rank reaches
    2n-3, the matroid's maximum (Lee and Streinu 2008), so no later edge can
    change it.  A Henneberg sweep answers first when it reaches every vertex
    (`_henneberg_spans`); the game runs on the graphs it does not span.
    """
    n = g.n
    if n < 2:
        raise ValueError("pebble game needs at least two vertices")
    full = 2 * n - 3
    masks = g.masks()
    if _henneberg_spans(masks):
        return full
    pebbles = [2] * n
    out = [0] * n
    prev = [0] * n

    def pull_pebble(root: int, blocked: int) -> bool:
        # DFS along directed edges for a vertex with a spare pebble outside
        # `blocked`, then reverse the path to carry the pebble back to root.
        seen = 1 << root
        stack = [root]
        while stack:
            u = stack.pop()
            if pebbles[u] and not blocked >> u & 1:
                pebbles[u] -= 1
                while u != root:
                    p = prev[u]
                    out[p] ^= 1 << u
                    out[u] |= 1 << p
                    u = p
                pebbles[root] += 1
                return True
            new = out[u] & ~seen
            seen |= new
            while new:
                low = new & -new
                new ^= low
                w = low.bit_length() - 1
                prev[w] = u
                stack.append(w)
        return False

    rank = 0
    for u, m in enumerate(masks):
        later = m >> u + 1 << u + 1  # the neighbours above u
        while later:
            low = later & -later
            later ^= low
            v = low.bit_length() - 1
            blocked = 1 << u | low
            while pebbles[u] + pebbles[v] < 4:
                if pebbles[u] < 2 and pull_pebble(u, blocked):
                    continue
                if pebbles[v] < 2 and pull_pebble(v, blocked):
                    continue
                break
            if pebbles[u] + pebbles[v] >= 4:
                pebbles[u] -= 1
                out[u] |= low
                rank += 1
                if rank == full:
                    return rank
    return rank


def _henneberg_spans(masks: tuple[int, ...]) -> bool:
    """Whether Henneberg type-I steps reach every vertex from the edge between
    vertex 0 and its lowest neighbour or, when that sweep stalls, from the
    edge between the lowest vertex it left unreached and that vertex's lowest
    neighbour.

    Each step adds a vertex joined to at least two reached vertices by two
    new edges, which keeps the reached subgraph Laman (Laman 1970), so a
    sweep that reaches every vertex finds a spanning Laman subgraph.  The
    reached set only grows, so the order of the steps does not matter, but
    the start edge does.  False says nothing: the pebble game decides those
    graphs.
    """
    full = (1 << len(masks)) - 1
    v = 0
    for _ in range(2):
        first = masks[v]
        reached = 1 << v | first & -first
        grown = True
        while grown and reached != full:
            grown = False
            rest = full & ~reached
            while rest:
                low = rest & -rest
                rest ^= low
                m = masks[low.bit_length() - 1] & reached
                if m & m - 1:  # two or more reached neighbours
                    reached |= low
                    grown = True
        if reached == full:
            return True
        unreached = full & ~reached
        v = (unreached & -unreached).bit_length() - 1
    return False


def has_spanning_laman(g: Graph) -> bool:
    """Rank 2n-3.  Two exact screens answer first, both on the adjacency
    masks: fewer than 2n-3 edges (degrees summing below 4n-6), or (for
    n >= 3, where every Laman graph has minimum degree 2) a vertex of degree
    below 2.  K2 passes both and is spanned."""
    n = g.n
    if n < 2:
        return False
    degrees = [m.bit_count() for m in g.masks()]
    if sum(degrees) < 4 * n - 6 or n >= 3 and min(degrees) < 2:
        return False
    return spanning_laman_rank(g) == 2 * n - 3


def is_laman(g: Graph) -> bool:
    """Minimally generically rigid: 2n-3 edges, all of them independent."""
    return (
        g.n >= 2
        and len(g.edges) == 2 * g.n - 3
        and spanning_laman_rank(g) == 2 * g.n - 3
    )
