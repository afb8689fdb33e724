"""Simple undirected graphs: parsing, validation, and derived matrices."""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, repeat
from operator import itemgetter

import numpy as np

from .errors import InvalidParamsError, ParseError

# One float64 N×N array at this many nodes takes 3.2 GB; no larger one is made.
MAX_DENSE_NODES = 20000

# Floats hold every integer up to 2**53 exactly; a petal count or step cap above it is refused.
MAX_EXACT_INT = 2**53


def dense_on_arcs(n, src, dst, values, what):
    """The n×n float array with ``values`` on the arcs src[k] -> dst[k] and zeros elsewhere.

    Every dense array that the library forms from a graph's arcs is made
    here, and one above ``MAX_DENSE_NODES`` is refused before it is
    allocated.  A failed allocation is not caught: with memory overcommit a
    large array can be granted and the process killed later, so the size is
    checked first.
    """
    if n > MAX_DENSE_NODES:
        raise InvalidParamsError(
            f"{what}: a dense {n}x{n} array is above the cap of {MAX_DENSE_NODES}; the O(E) "
            "routes are centrality, and stationary (without --check) or simulate with "
            "--walk turw|nbcrw")
    m = np.zeros((n, n))
    m[src, dst] = values
    return m


def check_entries(count, what):
    """Refuse an array of ``count`` entries above ``MAX_DENSE_NODES``² before it is allocated."""
    if count > MAX_DENSE_NODES**2:
        raise InvalidParamsError(
            f"{what}: {count} entries are above the cap of MAX_DENSE_NODES² = {MAX_DENSE_NODES**2}")


def _pair_array(edges):
    """``edges`` as an (E, 2) array of its own: int64, or Python ints where one does not fit."""
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
    try:
        pairs = np.array(edges, dtype=np.int64)
    except OverflowError:
        pairs = np.array(edges, dtype=object)
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise InvalidParamsError("edges must be (u, v) pairs")
    return pairs


class Graph:
    """Simple undirected graph stored as its sorted edge list; immutable.

    Nodes are 0-indexed internally; ``labels`` maps the internal id back to
    the id used in the input file (a ``range`` when the ids are contiguous,
    so a huge node count costs no memory here).  ``edges`` may be any
    sequence of (u, v) pairs or an (E, 2) integer array, strictly increasing
    with u < v; it is checked and kept as one read-only int64 array,
    ``edge_array``, and read back as the tuple ``edges`` of int pairs.
    ``edges``, ``arcs``, ``degrees`` and ``connected`` are computed once, on
    first use, and the walks, the validation and the NB operators read the
    graph from them.  ``adjacency`` builds a fresh dense matrix on every
    access, for the dense eigensolves and the oracles only.
    """

    def __init__(self, n, edges, labels=None):
        if n < 1:
            raise InvalidParamsError(f"node count must be >= 1, got {n}")
        if n > sys.maxsize:
            raise InvalidParamsError(f"node count {n} is beyond any array index")
        if labels is None:
            labels = range(n)
        if len(labels) != n:
            raise InvalidParamsError(f"{len(labels)} labels for n={n} nodes")
        pairs = _pair_array(edges)
        u, v = pairs[:, 0], pairs[:, 1]
        unsorted = np.zeros(len(pairs), dtype=bool)
        unsorted[1:] = (u[1:] < u[:-1]) | ((u[1:] == u[:-1]) & (v[1:] <= v[:-1]))
        # The checks of each edge, in the order they are reported.
        faults = (
            (u == v, "self-loop at node {u}"),
            ((u < 0) | (u >= n) | (v < 0) | (v >= n), "edge ({u}, {v}) out of range for n=" + str(n)),
            (u > v, "edge ({u}, {v}) must be listed as ({v}, {u})"),
            (unsorted, "edges not sorted and distinct at ({u}, {v})"),
        )
        bad = np.logical_or.reduce([mask for mask, _ in faults])
        if bad.any():
            i = int(bad.argmax())
            a, b = pairs[i].tolist()
            message = next(text for mask, text in faults if mask[i])
            raise InvalidParamsError(message.format(u=a, v=b))
        pairs.setflags(write=False)
        vars(self).update(n=n, labels=labels, edge_array=pairs)

    def __setattr__(self, name, value):
        raise AttributeError(f"Graph is immutable; cannot set {name!r}")

    @cached_property
    def edges(self):
        """The edges as a tuple of (u, v) int pairs (built on first read)."""
        return tuple(zip(*self.edge_array.T.tolist()))

    @property
    def num_edges(self):
        return len(self.edge_array)

    @cached_property
    def arcs(self):
        """The 2E directed edges as read-only (src, dst) arrays in lexicographic order.

        The edges ascend with u < v, so the arcs into each node from below,
        (v, u), come in increasing u, and those out of it upwards, (u, v), in
        increasing v; listed in that order, one stable sort on src is enough.
        """
        e = self.edge_array
        src = np.concatenate([e[:, 1], e[:, 0]])
        dst = np.concatenate([e[:, 0], e[:, 1]])
        order = np.argsort(src, kind="stable")
        src, dst = src[order], dst[order]
        src.setflags(write=False)
        dst.setflags(write=False)
        return src, dst

    @property
    def adjacency(self):
        return dense_on_arcs(self.n, *self.arcs, 1.0, "the adjacency matrix")

    @cached_property
    def degrees(self):
        """Node degrees (read-only, computed once)."""
        d = np.bincount(self.arcs[0], minlength=self.n)
        d.setflags(write=False)
        return d

    @cached_property
    def connected(self):
        """Whether every node is reached from node 0: one DFS per graph, however many readers."""
        return reaches_all(self.n, *self.arcs)

    @staticmethod
    def from_edges(n, edges, labels=None):
        """Build a graph from (u, v) pairs in any order and orientation, collapsing duplicates."""
        pairs = _pair_array(edges)
        lo, hi = np.minimum(pairs[:, 0], pairs[:, 1]), np.maximum(pairs[:, 0], pairs[:, 1])
        pairs = np.stack([lo, hi], axis=1)[np.lexsort((hi, lo))]
        fresh = np.ones(len(pairs), dtype=bool)
        fresh[1:] = (pairs[1:] != pairs[:-1]).any(axis=1)
        return Graph(n=n, edges=pairs[fresh], labels=labels)


@dataclass(frozen=True)
class GraphValidation:
    connected: bool
    is_tree: bool


# Lines tokenised at a time: bounds the parser's scratch lists, whatever the input size.
PARSE_BLOCK = 1 << 14


def parse_edge_list(text, index_base=0, delimiter=None, *, return_duplicates=False):
    """Parse an edge-list text into a :class:`Graph`.

    Lines are those of ``str.splitlines``.  ``#`` starts a comment, and a
    line that is blank after it is skipped.  Every other line holds two node
    ids, each a token that Python's ``int()`` accepts.  A ``%N <count>``
    header fixes the node count, which allows isolated nodes; the last one
    wins.  ``delimiter=None`` splits on whitespace; pass ``","`` for
    comma-separated input, where each token is stripped and empty ones are
    dropped.  Duplicate edges collapse to one; self-loops are rejected.  A
    malformed line raises ``ParseError`` with its line number.  With
    ``return_duplicates=True`` the result is ``(graph, count)``, where
    ``count`` is the number of edge lines that repeat an earlier edge.

    The text is read in blocks of ``PARSE_BLOCK`` lines with string methods
    mapped over each block, and the ids go straight into int64 arrays; the
    checks and the canonical edge order are array operations.
    """
    if index_base not in (0, 1):
        raise InvalidParamsError(f"index_base must be 0 or 1, got {index_base}")
    lines = text.splitlines()
    header_n = None
    blocks = []
    for start in range(0, len(lines), PARSE_BLOCK):
        header_n, pairs = _parse_block(lines[start:start + PARSE_BLOCK], start + 1, index_base,
                                       delimiter, header_n)
        blocks.append(pairs)
    del lines  # freed before the graph is built, so the two never add up in the peak
    pairs = np.concatenate(blocks) if blocks else np.empty((0, 2), dtype=np.int64)
    max_id = int(pairs.max()) if pairs.size else None
    if header_n is None and max_id is None:
        raise ParseError("empty edge list and no %N header")
    n = header_n if header_n is not None else max_id + 1
    if max_id is not None and max_id >= n:
        raise ParseError(f"node id {max_id + index_base} out of range for %N {n}")
    g = Graph.from_edges(n, pairs, labels=range(index_base, n + index_base))
    return (g, len(pairs) - g.num_edges) if return_duplicates else g


def _parse_block(lines, first, index_base, delimiter, header_n):
    """The edges of ``lines`` (numbered from ``first``) less ``index_base``, and the %N count.

    Raises the error of the first malformed line, as a per-line reading
    would meet it: headers and token counts are checked on every line, the
    ids of the lines before the first such fault are converted, and the
    first id that ``int()`` refuses, self-loop or id below the base is
    found from those arrays.
    """
    body = list(map(str.strip, map(itemgetter(0), map(str.partition, lines, repeat("#")))))
    faults = []  # (line index in the block, message), at most one of each kind
    is_header = np.fromiter(map(str.startswith, body, repeat("%N")), dtype=bool, count=len(body))
    for i in np.flatnonzero(is_header).tolist():
        try:
            value = int(body[i][2:].strip())
        except ValueError:
            faults.append((i, "malformed %N header"))
            break
        if value < 1:
            faults.append((i, "node count in %N header must be >= 1"))
            break
        header_n = value
        body[i] = ""
    # Joined by the delimiter, the lines split into their own pieces in order.
    tokens = (" " if delimiter is None else delimiter).join(body).split(delimiter)
    counts = np.fromiter(map(len, map(str.split, body, repeat(delimiter))), dtype=np.intp,
                         count=len(body))
    if delimiter is not None:  # splitting on whitespace leaves no padded or empty token
        tokens = list(map(str.strip, tokens))
        kept = np.fromiter(map(bool, tokens), dtype=bool, count=len(tokens))
        counts = np.bincount(np.repeat(np.arange(len(body)), counts)[kept], minlength=len(body))
        tokens = list(compress(tokens, kept))
    filled = np.fromiter(map(bool, body), dtype=bool, count=len(body))
    miscounted = np.flatnonzero(filled & (counts != 2))
    if miscounted.size:
        i = int(miscounted[0])
        faults.append((i, f"expected two node ids, got {counts[i]} tokens"))
    rows = np.flatnonzero(filled[:min([i for i, _ in faults], default=len(body))])
    ids = tokens[:2 * rows.size]
    try:
        values = np.fromiter(map(int, ids), dtype=np.int64, count=len(ids))
    except (ValueError, OverflowError):
        values = _exact_ints(ids)
        if values.size < len(ids):
            k = values.size // 2
            faults.append((int(rows[k]), f"non-integer node id in {ids[2 * k:2 * k + 2]!r}"))
    pairs = values[:values.size // 2 * 2].reshape(-1, 2)
    u, v = pairs[:, 0], pairs[:, 1]
    bad = np.flatnonzero((u == v) | (u < index_base) | (v < index_base))
    if bad.size:
        k = int(bad[0])
        faults.append((int(rows[k]), f"self-loop at node {u[k]}" if u[k] == v[k]
                       else f"node id below index base {index_base}"))
    if faults:
        i, message = min(faults, key=itemgetter(0))  # a header fault first on its own line
        raise ParseError(message, first + i)
    return header_n, pairs - index_base


def _exact_ints(tokens):
    """``int()`` of each token up to the first it refuses, as Python ints of any size."""
    values = []
    for token in tokens:
        try:
            values.append(int(token))
        except ValueError:
            break
    return np.array(values, dtype=object)


def reaches_all(n, src, dst):
    """Whether node 0 reaches every one of ``n`` nodes along the arcs src[k] -> dst[k].

    The arcs must be sorted by ``src``, so the out-arcs of node u are one
    slice lo[u]:hi[u] of ``dst`` (CSR).  A stack DFS expands each node once
    and pushes each arc once: O(N + E).
    """
    hi = np.bincount(src, minlength=n).cumsum().tolist()
    lo = [0] + hi[:-1]
    dst = dst.tolist()
    seen = [False] * n
    stack = [0]
    pop = stack.pop
    while stack:
        u = pop()
        if not seen[u]:
            seen[u] = True
            stack += dst[lo[u]:hi[u]]
    return all(seen)


def validate(g):
    """Connectivity/tree flags used to gate the walk constructions."""
    return GraphValidation(connected=g.connected, is_tree=g.connected and g.num_edges == g.n - 1)
