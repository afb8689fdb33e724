"""Simple undirected graphs: parsing, validation, and derived matrices."""

from __future__ import annotations

import logging
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidParamsError, ParseError

logger = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph stored as its sorted edge list.

    Nodes are 0-indexed internally; ``labels`` maps the internal id back to
    the id used in the input file (a ``range`` when the ids are contiguous,
    so a huge node count costs no memory here).  ``arcs`` and ``degrees``
    are computed once, and the walks, the validation and the NB operators
    read the graph from them.  ``adjacency`` builds a fresh dense matrix on
    every access, for the dense eigensolves and the oracles only.
    """

    n: int
    edges: tuple  # strictly increasing (u, v) pairs with u < v
    labels: range | tuple = None

    def __post_init__(self):
        if self.n < 1:
            raise InvalidParamsError(f"node count must be >= 1, got {self.n}")
        if self.n > sys.maxsize:
            raise InvalidParamsError(f"node count {self.n} is beyond any array index")
        if self.labels is None:
            object.__setattr__(self, "labels", range(self.n))
        if len(self.labels) != self.n:
            raise InvalidParamsError(f"{len(self.labels)} labels for n={self.n} nodes")
        prev = None
        for (u, v) in self.edges:
            if u == v:
                raise InvalidParamsError(f"self-loop at node {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise InvalidParamsError(f"edge ({u}, {v}) out of range for n={self.n}")
            if u > v:
                raise InvalidParamsError(f"edge ({u}, {v}) must be listed as ({v}, {u})")
            if prev is not None and (u, v) <= prev:
                raise InvalidParamsError(f"edges not sorted and distinct at ({u}, {v})")
            prev = (u, v)

    @property
    def num_edges(self):
        return len(self.edges)

    @cached_property
    def arcs(self):
        """The 2E directed edges as read-only (src, dst) arrays in lexicographic order."""
        e = np.array(self.edges, dtype=np.int64).reshape(-1, 2)
        src = np.concatenate([e[:, 0], e[:, 1]])
        dst = np.concatenate([e[:, 1], e[:, 0]])
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        src.setflags(write=False)
        dst.setflags(write=False)
        return src, dst

    @property
    def adjacency(self):
        a = np.zeros((self.n, self.n))
        a[self.arcs] = 1.0
        return a

    @cached_property
    def degrees(self):
        """Node degrees (read-only, computed once)."""
        d = np.bincount(self.arcs[0], minlength=self.n)
        d.setflags(write=False)
        return d

    @staticmethod
    def from_edges(n, edges, labels=None):
        """Build a graph from an iterable of (u, v) pairs, collapsing duplicates."""
        canonical = {(min(u, v), max(u, v)) for (u, v) in edges}
        return Graph(n=n, edges=tuple(sorted(canonical)), labels=labels)


@dataclass(frozen=True)
class GraphValidation:
    connected: bool
    is_tree: bool


def parse_edge_list(text, index_base=0, delimiter=None):
    """Parse an edge-list text into a :class:`Graph`.

    Lines hold two integer node ids, ``#`` starts a comment, blank lines are
    ignored.  An optional ``%N <count>`` header fixes the node count, which
    allows isolated nodes.  ``delimiter=None`` splits on whitespace; pass
    ``","`` for comma-separated input.  Duplicate edges collapse to one with
    a warning; self-loops are rejected.
    """
    if index_base not in (0, 1):
        raise InvalidParamsError(f"index_base must be 0 or 1, got {index_base}")
    header_n = None
    raw_edges = []
    max_id = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("%N"):
            try:
                header_n = int(line[2:].strip())
            except ValueError:
                raise ParseError("malformed %N header", lineno)
            if header_n < 1:
                raise ParseError("node count in %N header must be >= 1", lineno)
            continue
        tokens = line.split(delimiter)
        tokens = [t for t in (tok.strip() for tok in tokens) if t]
        if len(tokens) != 2:
            raise ParseError(f"expected two node ids, got {len(tokens)} tokens", lineno)
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ParseError(f"non-integer node id in {tokens!r}", lineno)
        if u == v:
            raise ParseError(f"self-loop at node {u}", lineno)
        if u < index_base or v < index_base:
            raise ParseError(f"node id below index base {index_base}", lineno)
        u -= index_base
        v -= index_base
        raw_edges.append((u, v))
        top = max(u, v)
        max_id = top if max_id is None else max(max_id, top)
    if header_n is None and max_id is None:
        raise ParseError("empty edge list and no %N header")
    n = header_n if header_n is not None else max_id + 1
    if max_id is not None and max_id >= n:
        raise ParseError(f"node id {max_id + index_base} out of range for %N {n}")
    g = Graph.from_edges(n, raw_edges, labels=range(index_base, n + index_base))
    if g.num_edges < len(raw_edges):
        logger.warning("%d duplicate edges collapsed", len(raw_edges) - g.num_edges)
    return g


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
    connected = reaches_all(g.n, *g.arcs)
    return GraphValidation(connected=connected, is_tree=connected and g.num_edges == g.n - 1)


def laplacian(g):
    """Combinatorial Laplacian: degree matrix minus adjacency."""
    a = g.adjacency
    return np.diag(a.sum(axis=1)) - a
