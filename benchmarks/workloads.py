"""Workload definitions for the nbwalk benchmark.

A workload is a fixed list of jobs over graphs generated from the workload
seed.  The program sees only the generated edge-list files.  Jobs run one after
another in one process (a closed loop with one client): CLI jobs call
``nbwalk.cli.main(argv)`` with ``-o <file>``, and ``verify_b_vs_m``, which has
no CLI command, is called as a library function on the parsed file.

Why each workload exists
------------------------
Shares are self-time shares of one traced pass at seed 1 on a 2-core Xeon
(KVM guest) with OpenBLAS at 1 thread (``run.py --trace 1``).  Sizes keep a
pass at 4-6 s, so that a run holds several passes and reports their median,
and keep every dense matrix at 32 MB or less: a 2Nx2N ``M`` at N=2000
(128 MB, twice over with its shifted copy) sits at the edge of the shared L3
and made pass times swing with the neighbours' cache use.

``analyze``  -- the researcher's main path: ``centrality``, ``stationary --walk
    all``, ``hitting --walk all --target hub,global`` and ``compare`` on
    BA(520,2), WS(510,6,0.1) and rose m=80.  Rose m=80 has N=241, under the
    CLI's 500-node cutoff, so its full pairwise matrices are serialised; the
    other two are above it.  Per graph the jobs recompute the same adjacency,
    NB centrality and eigendecompositions across walk kinds, so per-graph
    caching shows here, and so does the CLI output layer.  Oracles and Monte
    Carlo are bypassed.  Traced (6.7 s): ``spectral.leading_eig`` 71%,
    ``linalg.eigh`` 13%, ``cli.main`` 5.5% (JSON formatting and writing),
    ``hitting_spectral`` 3.6%, ``build_m_matrix`` 1.6%, parse + validate +
    adjacency 1.9%.  The 12 jobs make 15 ``nb_centrality`` calls (3
    redundant), 33 ``eigh`` calls (9 redundant ``sym_eig``) and 108 adjacency
    builds (96 redundant).

``centrality`` -- the NB centrality eigenpair in four spectral regimes:
    ``centrality`` on BA(1000,2) (sets peak memory through the dense 2Nx2N
    ``M``), and ``stationary --walk nbcrw`` on rose m=150 (small spectral gap),
    a connected ER(1000) draw with mean degree 10, a 60-cycle with one chord
    and 240 seeded pendant tree nodes (kappa ~ 1.036, nearly defective) and a
    unicyclic graph with pendant trees (the closed-form kappa = 1 path).  A
    solver that wins on one regime and loses on another shows here.  Every job
    makes a single centrality call, so there is no redundant recompute, and
    the oracles are bypassed.  Traced (4.7 s): ``spectral.leading_eig`` 89%,
    ``linalg.eigh`` 4.7% (the eigenvector centrality), ``build_m_matrix``
    2.4%, ``cli.main`` 0.6%; 5 ``nb_centrality`` calls, none redundant, and
    12144 power iterations.

``verify`` -- the oracle side: ``hitting --walk all --method both`` and
    ``stationary --walk all --check`` on BA(300,2) and rose m=60, ``simulate``
    in hitting mode with a fixed trial count and in stationary mode with a
    fixed step budget, and ``verify_b_vs_m`` on BA(100,2) and a 100-node
    unicyclic graph (both under the 2E <= 400 cap).  Absorbing solves and the
    per-step Monte Carlo walker dominate.  Traced (6.1 s): ``simulate`` 28%,
    ``linalg.solve`` 28% and ``hitting_linear`` 13% (1443 solves),
    ``cli.main`` 15%, ``spectral.leading_eig`` 10%; 4.7e5 walker steps.  The
    walker's share is kept under a third because the per-step Python loop is
    the code whose speed swings most with the host's load.

Seeds
-----
Each random input is drawn once, from ``BASE_SEED``; the workload seed draws a
relabelling of its nodes and the Monte Carlo streams.  Drawing a fresh
instance per seed would move the power-iteration count by up to 2x (BA(2000,2):
448 to 1080 iterations over ten instances), so runs at different seeds would
measure different work.  A relabelling moves it much less, though still by up
to about 15% (over seeds 1-10, BA(1000,2): 552 to 632; the chord graph: 8504
to 10104).  Comparisons are therefore made at equal seeds, and any claim is
re-checked on a second seed.  Output summaries that do not depend on labels
are checked against ``reference.json`` for every seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from nbwalk import Graph, RoseSpec, graph as graph_mod, models


# Random instances are drawn once from these fixed seeds; the workload seed
# then draws a node relabelling of each input (see the module docstring).
BASE_SEED = 0


@dataclass(frozen=True)
class GraphSpec:
    """One input: ``make()`` builds the base instance, which the seed relabels."""

    key: str
    label: str
    make: Callable[[], Graph]
    rose_m: int | None = None
    unicyclic: bool = False


@dataclass(frozen=True)
class Job:
    """One request: a CLI command on a graph file, or the library cross-check.

    ``command`` is a CLI subcommand or ``verify_b_vs_m``.  ``mc_seed`` is the
    global ``--seed`` of a ``simulate`` job, derived from the workload seed.
    """

    graph: str
    command: str
    args: tuple = ()
    mc_seed: int | None = None

    @property
    def name(self):
        return f"{self.graph}/{self.command}"


@dataclass(frozen=True)
class Workload:
    name: str
    graphs: tuple
    jobs: tuple


def sub_seed(seed, salt):
    """Independent derived seed for one input of one workload."""
    return int(np.random.SeedSequence([seed, salt]).generate_state(1)[0])


def relabeling(seed, key, n):
    """New id of each base node: a permutation drawn from the workload seed."""
    salt = int.from_bytes(key.encode()[:8].ljust(8, b"\0"), "little")
    return np.random.default_rng([seed, salt]).permutation(n)


def relabel(g, perm):
    return Graph.from_edges(g.n, [(int(perm[u]), int(perm[v])) for (u, v) in g.edges])


def _usable(g):
    flags = graph_mod.validate(g)
    return flags.connected and not flags.is_tree


def _first_usable(make, salt):
    """Draw until the generator gives a connected non-tree graph."""
    for attempt in range(1000):
        g = make(sub_seed(BASE_SEED, salt + 1000 * attempt))
        if _usable(g):
            return g
    raise RuntimeError("no connected draw in 1000 attempts")


def cycle_with_trees(cycle, tree_nodes, seed, chord=None):
    """A ``cycle``-node ring (plus an optional chord from node 0) with
    ``tree_nodes`` pendant nodes, each attached to a uniformly drawn earlier node."""
    rng = np.random.default_rng(seed)
    edges = [(i, (i + 1) % cycle) for i in range(cycle)]
    if chord is not None:
        edges.append((0, chord))
    for new in range(cycle, cycle + tree_nodes):
        edges.append((int(rng.integers(new)), new))
    return Graph.from_edges(cycle + tree_nodes, edges)


def _rose(m):
    return GraphSpec(f"rose{m}", f"rose m={m}", lambda: models.make_rose(RoseSpec(m=m)), rose_m=m)


def _ba(n, salt):
    return GraphSpec(f"ba{n}", f"BA({n},2)",
                     lambda: _first_usable(lambda d: models.gen_ba(n, 2, d), salt))


WARM = _rose(20)

# Small invocations that run every code path once before timing starts; the
# first dense call of a process costs about 1 s extra.
WARMUP = {
    "centrality": ("centrality", ()),
    "stationary": ("stationary", ("--walk", "all", "--check")),
    "hitting": ("hitting", ("--walk", "all", "--method", "both", "--target", "hub,global")),
    "compare": ("compare", ()),
    "simulate": ("simulate", ("--walk", "turw", "--mode", "hitting", "--source", "0",
                              "--target", "3", "--trials", "20")),
    "verify_b_vs_m": ("verify_b_vs_m", ()),
}


def analyze(seed):
    graphs = (
        _ba(520, 1),
        GraphSpec("ws510", "WS(510,6,0.1)",
                  lambda: _first_usable(lambda d: models.gen_ws(510, 6, 0.1, d), 2)),
        _rose(80),
    )
    jobs = []
    for spec in graphs:
        jobs += [
            Job(spec.key, "centrality"),
            Job(spec.key, "stationary", ("--walk", "all")),
            Job(spec.key, "hitting", ("--walk", "all", "--target", "hub,global")),
            Job(spec.key, "compare"),
        ]
    return Workload("analyze", graphs, tuple(jobs))


def centrality(seed):
    graphs = (
        _ba(1000, 3),
        _rose(150),
        GraphSpec("er1000", "ER(1000,10/999) connected",
                  lambda: _first_usable(lambda d: models.gen_er(1000, 10.0 / 999.0, d), 4)),
        GraphSpec("chord300", "60-cycle + chord + 240 tree nodes",
                  lambda: cycle_with_trees(60, 240, sub_seed(BASE_SEED, 5), chord=30)),
        GraphSpec("uni300", "30-cycle + 270 tree nodes",
                  lambda: cycle_with_trees(30, 270, sub_seed(BASE_SEED, 6)), unicyclic=True),
    )
    jobs = [Job("ba1000", "centrality")]
    jobs += [Job(key, "stationary", ("--walk", "nbcrw"))
             for key in ("rose150", "er1000", "chord300", "uni300")]
    return Workload("centrality", graphs, tuple(jobs))


def verify(seed):
    graphs = (
        _ba(300, 7),
        _rose(60),
        _ba(100, 8),
        GraphSpec("uni100", "10-cycle + 90 tree nodes",
                  lambda: cycle_with_trees(10, 90, sub_seed(BASE_SEED, 9)), unicyclic=True),
    )
    jobs = []
    for key in ("ba300", "rose60"):
        jobs += [
            Job(key, "hitting", ("--walk", "all", "--method", "both", "--target", "hub,global")),
            Job(key, "stationary", ("--walk", "all", "--check")),
        ]
    # Hub to a peripheral node of the rose, about 920 steps per trial.
    hub, peripheral = relabeling(seed, "rose60", 181)[[0, 3]]
    jobs += [
        Job("rose60", "simulate", ("--walk", "nbcrw", "--mode", "hitting", "--source", str(hub),
                                   "--target", str(peripheral), "--trials", "250"),
            mc_seed=sub_seed(seed, 10)),
        # A fixed budget of 2.5e5 steps after 1000 burn-in steps.
        Job("ba300", "simulate", ("--walk", "turw", "--mode", "stationary", "--trials", "10000",
                                  "--max-steps", "250000", "--burn-in", "1000"),
            mc_seed=sub_seed(seed, 11)),
        Job("ba100", "verify_b_vs_m"),
        Job("uni100", "verify_b_vs_m"),
    ]
    return Workload("verify", graphs, tuple(jobs))


WORKLOADS = {"analyze": analyze, "centrality": centrality, "verify": verify}
