"""Simple undirected graphs: parsing, validation, and derived matrices."""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from functools import cached_property

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


def _sorted_keys(a, b, n):
    """The keys ``a * n + b`` of the pairs (a[k], b[k]), sorted, or None where one may not fit.

    While every id lies in [0, n) and n <= 2**31, each key is below 2**62
    and the keys order as the pairs do, so one int64 sort stands in for a
    lexsort of the two columns.
    """
    if not 1 <= n <= 2**31 or a.size and (min(a.min(), b.min()) < 0 or max(a.max(), b.max()) >= n):
        return None
    keys = a * n + b
    keys.sort()
    return keys


class Graph:
    """Simple undirected graph stored as its sorted edge list; immutable.

    Nodes are 0-indexed internally; ``labels`` maps the internal id back to
    the id used in the input file (a ``range`` when the ids are contiguous,
    so a huge node count costs no memory here).  ``edges`` may be any
    sequence of (u, v) pairs or an (E, 2) integer array, strictly increasing
    with u < v; it is checked and kept as one read-only int64 array,
    ``edge_array``, and read back as the tuple ``edges`` of int pairs.
    ``edges``, ``arcs``, ``degrees``, ``connected``, ``reduction`` and
    ``kernel`` are computed once, on first use, and the walks, the
    validation and the NB operators read the graph from them.
    ``adjacency`` builds a fresh dense matrix on every access, for the dense
    eigensolves and the oracles only.
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

        Up to 2**31 nodes the arcs are sorted as the int64 keys src·n + dst.
        Above that, the edges ascend with u < v, so the arcs into each node
        from below, (v, u), come in increasing u, and those out of it
        upwards, (u, v), in increasing v; listed in that order, one stable
        sort on src is enough.
        """
        e = self.edge_array
        src = np.concatenate([e[:, 1], e[:, 0]])
        dst = np.concatenate([e[:, 0], e[:, 1]])
        keys = _sorted_keys(src, dst, self.n)
        if keys is None:
            order = np.argsort(src, kind="stable")
            src, dst = src[order], dst[order]
        else:
            src, dst = np.divmod(keys, self.n)
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

    @cached_property
    def reduction(self):
        """The 1-shell peel and the 2-core degrees (a :class:`Reduction`, computed once)."""
        return peel(self.n, *self.arcs, self.degrees)

    @cached_property
    def kernel(self):
        """The 2-core with each chain folded into one arc (a :class:`Kernel`, computed once)."""
        return contract(self.n, *self.arcs, self.reduction.core_degrees)

    @staticmethod
    def from_edges(n, edges, labels=None):
        """Build a graph from (u, v) pairs in any order and orientation, collapsing duplicates.

        Each pair becomes (lo, hi).  Up to 2**31 nodes, with every id in
        [0, n), the pairs are sorted and deduplicated as the int64 keys
        lo·n + hi; otherwise by a lexsort, and ``Graph`` reports the first
        edge it refuses.
        """
        pairs = _pair_array(edges)
        lo, hi = np.minimum(pairs[:, 0], pairs[:, 1]), np.maximum(pairs[:, 0], pairs[:, 1])
        keys = _sorted_keys(lo, hi, n)
        if keys is None:
            pairs = np.stack([lo, hi], axis=1)[np.lexsort((hi, lo))]
            fresh = np.ones(len(pairs), dtype=bool)
            fresh[1:] = (pairs[1:] != pairs[:-1]).any(axis=1)
            pairs = pairs[fresh]
        else:
            fresh = np.ones(len(keys), dtype=bool)
            fresh[1:] = keys[1:] != keys[:-1]
            pairs = np.stack(np.divmod(keys[fresh], n), axis=1)
        return Graph(n=n, edges=pairs, labels=labels)


@dataclass(frozen=True)
class GraphValidation:
    connected: bool
    is_tree: bool


# The bytes of a plain edge list's body: digits, spaces, tabs and "\n".
_PLAIN_BYTES = b"0123456789 \t\n"

# Digits of the longest id the plain reader converts: every such id fits int64.
_PLAIN_DIGITS = 18


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

    With ``delimiter=None`` a plain text (see ``_read_plain``: ``%N`` and
    ``#`` lines only at the top, then digits, spaces, tabs and ``\\n`` alone,
    with ids of at most 18 digits) is read in one array pass past its
    leading lines.  Any other text, and a plain one with a fault, is read
    one line at a time by ``_read_lines``.  Both readers give the same
    graph, count and error; the edge checks and the canonical edge order
    are array operations on the ids they return.
    """
    if index_base not in (0, 1):
        raise InvalidParamsError(f"index_base must be 0 or 1, got {index_base}")
    plain = _read_plain(text, index_base) if delimiter is None else None
    header_n, pairs = plain or _read_lines(text, index_base, delimiter)
    max_id = int(pairs.max()) if pairs.size else None
    if header_n is None and max_id is None:
        raise ParseError("empty edge list and no %N header")
    n = header_n if header_n is not None else max_id + 1
    if max_id is not None and max_id >= n:
        raise ParseError(f"node id {max_id + index_base} out of range for %N {n}")
    g = Graph.from_edges(n, pairs, labels=range(index_base, n + index_base))
    return (g, len(pairs) - g.num_edges) if return_duplicates else g


def _read_plain(text, index_base):
    """The %N count and the edges less ``index_base`` of a plain text, or None.

    A text is plain when, past its leading ``%N`` and ``#`` lines, it holds
    only the bytes of ``_PLAIN_BYTES``, with zero or two ids of at most
    ``_PLAIN_DIGITS`` digits on each line.  The leading lines are the top of
    the text and are read by ``_read_lines``, so a malformed header raises
    the same ``ParseError`` there as in the per-line reader; where a break
    other than ``\\n`` hides an edge line among them, the text is not plain.
    The token and line structure of the rest is found from the bytes with
    numpy, and every id is converted by one ``np.fromstring`` call.  None,
    for any other text and for a fault in the rest (a self-loop, an id below
    the base), is left to ``_read_lines``, which reports it with its line
    number.
    """
    start = 0
    while text.startswith(("%N", "#"), start):
        start = text.find("\n", start) + 1 or len(text)
    header_n, lead = _read_lines(text[:start], index_base, None)
    body = text[start:].encode("ascii", "replace")  # a non-ASCII character becomes "?"
    if lead.size or body.translate(None, _PLAIN_BYTES):
        return None
    a = np.frombuffer(body, dtype=np.uint8)
    # The tokens are the runs of digits, the only bytes left at or above "0".
    bounds = np.flatnonzero(np.diff(a >= ord("0"), prepend=False, append=False))
    starts, ends = bounds[0::2], bounds[1::2]
    # Each line holds zero or two ids.
    line_of = np.searchsorted(np.flatnonzero(a == ord("\n")), starts)
    if (not np.isin(np.bincount(line_of), (0, 2)).all()
            or (ends - starts).max(initial=0) > _PLAIN_DIGITS):
        return None
    # count= matters: with no tokens left to read np.fromstring still returns [0].
    ids = np.fromstring(body, dtype=np.int64, sep=" ", count=starts.size)
    if ids.size != starts.size or (ids[0::2] == ids[1::2]).any() or (ids < index_base).any():
        return None
    return header_n, ids.reshape(-1, 2) - index_base


def _read_lines(text, index_base, delimiter):
    """The %N count and the edges less ``index_base`` of ``text``, read one line at a time.

    Each line is handled in full before the next: its comment is dropped,
    then a ``%N`` header is read or its two ids are converted and checked,
    so the first malformed line raises ``ParseError`` with its number.  The
    ids go into one int64 array, and from the pair that holds the first id
    past int64 on, into a list of Python ints.
    """
    header_n = None
    ids = array("q")
    append = ids.append
    for number, line in enumerate(text.splitlines(), 1):
        line = line.partition("#")[0].strip()
        if not line:
            continue
        if line.startswith("%N"):
            try:
                header_n = int(line[2:].strip())
            except ValueError:
                raise ParseError("malformed %N header", number) from None
            if header_n < 1:
                raise ParseError("node count in %N header must be >= 1", number)
            continue
        tokens = line.split(delimiter)
        if delimiter is not None:  # splitting on whitespace leaves no padded or empty token
            tokens = [*filter(None, map(str.strip, tokens))]
        if len(tokens) != 2:
            raise ParseError(f"expected two node ids, got {len(tokens)} tokens", number)
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ParseError(f"non-integer node id in {tokens!r}", number) from None
        if u == v:
            raise ParseError(f"self-loop at node {u}", number)
        if u < index_base or v < index_base:
            raise ParseError(f"node id below index base {index_base}", number)
        try:
            append(u)
            append(v)
        except OverflowError:  # an id past int64: the pairs from here on are Python ints
            ids = ids.tolist()[:len(ids) // 2 * 2] + [u, v]
            append = ids.append
    pairs = np.asarray(ids, dtype=object if isinstance(ids, list) else np.int64)
    return header_n, pairs.reshape(-1, 2) - index_base


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


def _ranges(starts, counts):
    """The index ranges ``starts[i] : starts[i] + counts[i]``, concatenated in order."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    return np.repeat(starts - ends + counts, counts) + np.arange(total)


def _frozen(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


@dataclass(frozen=True, eq=False)
class Reduction:
    """The 1-shell peel of a graph and the degrees of what it leaves, the 2-core.

    Nodes of degree 1 are stripped in rounds until none is left.  ``peeled``
    lists the stripped nodes in peel order and ``parent`` the one neighbour
    each still had when it went, so a node's children all go in earlier
    rounds; round r is ``peeled[rounds[r]:rounds[r + 1]]``.
    ``core_degrees`` is each node's degree in the 2-core, 0 for a peeled
    node.  Where a tree's last edge would strip both its ends, the larger
    stays, with core degree 0, as the tree's root.  ``kernel_edges`` is
    E_k = E_core − n₂, where n₂ counts the core nodes of core degree 2: each
    folds its two edges into one, so on a connected graph that is neither a
    tree nor a cycle E_k is the number of chains of :class:`Kernel`.
    """

    peeled: np.ndarray
    parent: np.ndarray
    rounds: np.ndarray
    core_degrees: np.ndarray
    kernel_edges: int

    def levels(self):
        """The (nodes, parents) of each round, in peel order: leaves first."""
        ends = self.rounds.tolist()
        return [(self.peeled[a:b], self.parent[a:b]) for a, b in zip(ends, ends[1:])]


def peel(n, src, dst, degrees):
    """The :class:`Reduction` of the graph with ``degrees`` and the arcs src -> dst, sorted by src.

    Each round strips every node of degree 1 at once and reads the out-arcs
    of those nodes only, so the whole peel reads each arc at most once:
    O(N + E), in one round per level of the deepest pendant tree.  A graph
    with no node of degree 1 costs a few passes over its degrees.
    """
    deg = degrees.copy()
    frontier = np.flatnonzero(deg == 1)
    peeled, parent, rounds = [], [], [0]
    if frontier.size:
        alive = np.ones(n, dtype=bool)
        start = np.cumsum(degrees) - degrees
    while frontier.size:
        arcs = _ranges(start[frontier], degrees[frontier])
        arcs = arcs[alive[dst[arcs]]]
        nodes, up = src[arcs], dst[arcs]
        keep = (deg[up] != 1) | (nodes < up)  # of a tree's last edge, the smaller end goes
        nodes, up = nodes[keep], up[keep]
        alive[nodes] = False
        deg[nodes] = 0
        np.subtract.at(deg, up, 1)
        peeled.append(nodes)
        parent.append(up)
        rounds.append(rounds[-1] + nodes.size)
        frontier = np.unique(up[deg[up] == 1])
    empty = np.empty(0, dtype=np.intp)
    peeled = np.concatenate(peeled) if peeled else empty
    parent = np.concatenate(parent) if parent else empty
    core_edges = src.size // 2 - peeled.size
    return Reduction(*_frozen(peeled, parent, np.array(rounds), deg),
                     kernel_edges=core_edges - int(np.count_nonzero(deg == 2)))


@dataclass(frozen=True, eq=False)
class Kernel:
    """The 2-core with each chain folded into one arc: the graph's kernel multigraph.

    A chain is a maximal path whose inner nodes have core degree 2, between
    branch nodes (core degree 3 or more), possibly one and the same.  Taken
    each way, a chain is one kernel arc.  ``branch`` lists the branch nodes;
    kernel arc e runs from ``branch[tail[e]]`` to ``branch[head[e]]`` over
    ``length[e]`` edges, ``reverse[e]`` is the same chain taken the other
    way, and the kernel arcs ascend by tail.  ``core_arcs`` gives the
    positions in ``g.arcs`` of the arcs between core nodes.  Each lies on the
    kernel arc ``on`` in its own direction, with ``to_end`` arcs after it
    there: chain e's arcs, in order, are those with ``on == e`` by
    decreasing ``to_end``, from ``length[e] - 1`` to 0, and their heads are
    its inner nodes and then its head.
    """

    branch: np.ndarray
    tail: np.ndarray
    head: np.ndarray
    length: np.ndarray
    reverse: np.ndarray
    core_arcs: np.ndarray
    on: np.ndarray
    to_end: np.ndarray


def contract(n, src, dst, core_degrees):
    """The :class:`Kernel` from the arcs src -> dst, sorted by src, and the 2-core's degrees.

    Each core arc into a node of core degree 2 is followed by the one arc out
    of that node that does not turn back.  Pointer doubling (Wyllie's list
    ranking) then finds each arc's last arc and its distance to it in
    ⌈log₂ ℓ_max⌉ + 1 passes over the core arcs, with no loop over nodes.  A
    2-core component with no branch node (a cycle) has no chain end, and is
    refused.
    """
    cd = core_degrees
    core = np.flatnonzero((cd[src] > 0) & (cd[dst] > 0))
    s, t = src[core], dst[core]
    rev = np.searchsorted(s * n + t, t * n + s)  # the core arcs keep g.arcs' (src, dst) order
    inner = cd[t] == 2
    # The two core arcs out of a node of core degree 2 are adjacent, from cumsum(cd) - cd on.
    nxt = np.where(inner, 2 * (np.cumsum(cd) - cd)[t] + 1 - rev, np.arange(core.size))
    to_end = inner.astype(np.intp)
    for _ in range(core.size.bit_length()):
        ahead = nxt[nxt]
        if np.array_equal(ahead, nxt):
            break
        to_end += to_end[nxt]
        nxt = ahead
    if not np.array_equal(nxt[nxt], nxt):
        raise InvalidParamsError("a cycle of the 2-core has no branch node")
    branch = np.flatnonzero(cd >= 3)
    index = np.zeros(n, dtype=np.intp)
    index[branch] = np.arange(branch.size)
    firsts = np.flatnonzero(cd[s] >= 3)  # each kernel arc is numbered by its first arc
    on = np.empty(core.size, dtype=np.intp)
    on[nxt[firsts]] = np.arange(firsts.size)
    on = on[nxt]
    return Kernel(*_frozen(branch, index[s[firsts]], index[t[nxt[firsts]]], to_end[firsts] + 1,
                           on[rev[firsts]], core, on, to_end))


def validate(g):
    """Connectivity/tree flags used to gate the walk constructions."""
    return GraphValidation(connected=g.connected, is_tree=g.connected and g.num_edges == g.n - 1)
