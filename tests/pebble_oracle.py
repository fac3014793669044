"""Reference pebble game: the set-based game the mask game replaced.

Out-neighbours are sets, the search keeps a `prev` dict and a blocked set,
and every edge is tried, with no stop at rank 2n-3.  `tests/test_pebble.py`
and `tests/test_acceptance.py` assert that `movability.pebble` returns the
same rank.
"""

from __future__ import annotations

from movability.graphs import Graph


def spanning_laman_rank(g: Graph) -> int:
    if g.n < 2:
        raise ValueError("pebble game needs at least two vertices")
    pebbles = [2] * g.n
    out: list[set[int]] = [set() for _ in range(g.n)]

    def pull_pebble(root: int, blocked: set[int]) -> bool:
        # DFS along directed edges for a vertex with a spare pebble, then
        # reverse the path to carry the pebble back to root.
        prev = {root: -1}
        stack = [root]
        found = -1
        while stack:
            u = stack.pop()
            if pebbles[u] > 0 and u not in blocked:
                found = u
                break
            for w in out[u]:
                if w not in prev:
                    prev[w] = u
                    stack.append(w)
        if found < 0:
            return False
        pebbles[found] -= 1
        v = found
        while prev[v] != -1:
            u = prev[v]
            out[u].remove(v)
            out[v].add(u)
            v = u
        pebbles[root] += 1
        return True

    rank = 0
    for u, v in g.sorted_edges():
        while pebbles[u] + pebbles[v] < 4:
            if pebbles[u] < 2 and pull_pebble(u, {u, v}):
                continue
            if pebbles[v] < 2 and pull_pebble(v, {u, v}):
                continue
            break
        if pebbles[u] + pebbles[v] >= 4:
            pebbles[u] -= 1
            out[u].add(v)
            rank += 1
    return rank
