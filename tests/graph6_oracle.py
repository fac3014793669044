"""Reference graph6 reader: the pair-by-pair parse the bit walk replaced.

It tests all n(n - 1)/2 pairs of the payload integer and builds the edge
set from them; `movability.graphs.parse_graph6` walks the set bits of each
column.  `tests/test_graphs.py` and `tests/test_acceptance.py` assert that
the two give equal graphs, equal masks and the same `Graph6Error` messages.
"""

from __future__ import annotations

from movability.graphs import Graph, Graph6Error


def parse_graph6(text: str) -> Graph:
    s = text.strip().removeprefix(">>graph6<<")
    if not s:
        raise Graph6Error("empty graph6 string")
    head = ord(s[0])
    if head == 126:
        raise Graph6Error("long-form graph6 (n > 62) is not supported")
    if not (63 <= head <= 125):
        raise Graph6Error(f"bad header byte {head}")
    n = head - 63
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = s[1:]
    if len(body) < nbytes:
        raise Graph6Error("truncated graph6 bit stream")
    if len(body) > nbytes:
        raise Graph6Error("trailing bytes after graph6 payload")
    bits = 0
    for ch in body:
        val = ord(ch) - 63
        if not (0 <= val < 64):
            raise Graph6Error(f"byte {ord(ch)} outside graph6 alphabet")
        bits = bits << 6 | val
    pad = 6 * nbytes - nbits
    if bits & ((1 << pad) - 1):
        raise Graph6Error("nonzero padding bits")
    # pair (u, v) is payload bit v(v-1)/2 + u, counted from the high end
    top = 6 * nbytes - 1
    return Graph(n, frozenset(
        (u, v) for v in range(1, n) for u in range(v) if bits >> top - v * (v - 1) // 2 - u & 1
    ))
