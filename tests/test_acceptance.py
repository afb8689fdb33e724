"""Acceptance gate: one test per release criterion, each printing a verdict line.

Criterion 5 checks the growth laws of the rose family's global mean hitting
time, T ~ N for TURW, N^{3/2} for NBCRW and N^2 for MERW, over the window
m = 10..1000.  In that window the subleading terms are still large (for
NBCRW the linear term is about a fifth of T at m = 1000), so a plain
log-log slope is an effective exponent and falls short of the asymptotic
one.  The criterion therefore fits the asymptotic exponent with corrections
to scaling (Wegner, Phys. Rev. B 5, 4529 (1972)):

    log T = a + alpha * log N + sum_{k=1..4} b_k * N^(-k/2).

The correction powers are the same for all three walks.  Every closed-form
T_global is rational in m and sqrt(2m - 1) (in n = 3m + 1, rational in n and
sqrt(6n - 15)), so T = c N^alpha (1 + series in N^(-1/2)) and log T expands
in powers of N^(-1/2).  A companion test checks that the fit still rejects
synthetic series whose exponent lies outside the NBCRW band.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

from nbwalk import (
    RoseSpec, SimConfig, WalkKind, corrected_exponent, detailed_balance_residual, eq26_audit,
    gen_ba, gen_er, gen_ws, hitting_linear, hitting_spectral, ipr, loglog_slope, make_rose,
    nb_centrality, reversible_walk, rose4_oracle, scaling_table, simulate_hitting,
    simulate_stationary, stationary_closed, stationary_generic, transition, verify_b_vs_m,
)
from nbwalk.cli import main as cli_main

from conftest import complete_graph

CLASS_INDEX = {
    "I->H": (1, 0), "P->H": (3, 0), "H->I": (0, 1), "I->I": (2, 1),
    "P->I": (3, 1), "H->P": (0, 3), "I->P": (1, 3),
}


def report(capsys, line):
    with capsys.disabled():
        print(line)


def rel_gap(value, reference):
    return abs(value - reference) / max(1e-300, abs(reference))


def test_criterion_1_rose_closed_form_suite(capsys):
    start = time.perf_counter()
    worst = 0.0
    for m in range(2, 31):
        g = make_rose(RoseSpec(m=m))
        oracle = rose4_oracle(m)
        nc = nb_centrality(g)
        worst = max(worst, rel_gap(nc.kappa, oracle.kappa1))
        worst = max(worst, rel_gap(nc.x[0], oracle.x_hub))
        worst = max(worst, rel_gap(nc.x[1], oracle.x_int))
        worst = max(worst, rel_gap(nc.x[3], oracle.x_per))
        for kind in WalkKind:
            pi = stationary_closed(kind, g).pi
            hub, internal, peripheral = oracle.pi[kind]
            worst = max(worst, rel_gap(pi[0], hub))
            worst = max(worst, rel_gap(pi[1], internal))
            worst = max(worst, rel_gap(pi[3], peripheral))
            spectral = hitting_spectral(kind, g)
            linear = hitting_linear(transition(kind, g))
            for rep in (spectral, linear):
                worst = max(worst, rel_gap(float(rep.t_partial[0]), oracle.t_hub[kind]))
                worst = max(worst, rel_gap(rep.t_global, oracle.t_global[kind]))
                for pair, (i, j) in CLASS_INDEX.items():
                    worst = max(worst, rel_gap(float(rep.t[i, j]), oracle.t_class[kind][pair]))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    line = (f"criterion 1: {'PASS' if ok else 'FAIL'} — rose suite m=2..30, "
            f"max relative gap {worst:.2e}, {elapsed:.1f}s")
    report(capsys, line)
    if not ok:
        pytest.fail(line, pytrace=False)


def test_criterion_2_oracle_equivalence_on_corpus(corpus, capsys):
    start = time.perf_counter()
    worst_hit = 0.0
    worst_pi = 0.0
    for name, g in corpus:
        for kind in WalkKind:
            p = transition(kind, g)
            linear = hitting_linear(p)
            spectral = hitting_spectral(kind, g)
            bound = 1e-7 * (1.0 + float(linear.t.max()))
            gap = float(np.max(np.abs(spectral.t - linear.t)))
            worst_hit = max(worst_hit, gap / bound)
            pi_gap = float(np.max(np.abs(stationary_closed(kind, g).pi
                                         - stationary_generic(p).pi)))
            worst_pi = max(worst_pi, pi_gap)
    elapsed = time.perf_counter() - start
    ok = worst_hit <= 1.0 and worst_pi <= 1e-9 and elapsed < 120.0
    line = (f"criterion 2: {'PASS' if ok else 'FAIL'} — {len(corpus)} graphs, "
            f"hitting gap {worst_hit:.2f}x bound, stationary gap {worst_pi:.2e}, "
            f"{elapsed:.0f}s")
    report(capsys, line)
    if not ok:
        pytest.fail(line, pytrace=False)


def test_criterion_3_explicit_vs_reduced_eigenvalue(small_corpus, capsys):
    worst = 0.0
    for name, g in small_corpus:
        worst = max(worst, verify_b_vs_m(g)["max_gap"])
    ok = worst <= 1e-8
    line = (f"criterion 3: {'PASS' if ok else 'FAIL'} — {len(small_corpus)} graphs "
            f"with 2E <= 400, max eigenvalue gap {worst:.2e}")
    report(capsys, line)
    if not ok:
        pytest.fail(line, pytrace=False)


def test_criterion_4_structural_invariants(corpus, capsys):
    failures = []
    for name, g in corpus:
        nc = nb_centrality(g)
        degs = g.degrees.astype(float)
        if np.max(np.abs(nc.kappa * nc.y - (degs - 1.0) * nc.x)) > 1e-9:
            failures.append(f"{name}: centrality identity")
        a = g.adjacency
        res = (a - np.diag(degs) / nc.kappa + np.eye(g.n) / nc.kappa) @ nc.x - nc.kappa * nc.x
        if np.max(np.abs(res)) > 1e-9:
            failures.append(f"{name}: eigen-equation residual")
        ps = {}
        for kind in WalkKind:
            p = transition(kind, g)
            ps[kind] = p.p
            if np.max(np.abs(p.p.sum(axis=1) - 1.0)) > 1e-12:
                failures.append(f"{name}/{kind.value}: row sums")
            pi = stationary_closed(kind, g).pi
            if detailed_balance_residual(pi, p) > 1e-10:
                failures.append(f"{name}/{kind.value}: detailed balance")
        if degs.min() == degs.max():
            if np.max(np.abs(ps[WalkKind.TURW] - ps[WalkKind.MERW])) > 1e-9:
                failures.append(f"{name}: regular collapse merw")
            if np.max(np.abs(ps[WalkKind.TURW] - ps[WalkKind.NBCRW])) > 1e-9:
                failures.append(f"{name}: regular collapse nbcrw")
            if abs(nc.kappa - (degs[0] - 1.0)) > 1e-9:
                failures.append(f"{name}: regular eigenvalue")
    ok = not failures
    line = (f"criterion 4: {'PASS' if ok else 'FAIL'} — identities, residuals, "
            f"balance, stochasticity, regular collapse on {len(corpus)} graphs"
            + ("" if ok else f"; failures: {failures[:5]}"))
    report(capsys, line)
    if not ok:
        pytest.fail(line, pytrace=False)


SCALING_MS = np.unique(np.geomspace(10, 1000, 40).astype(int)).tolist()
SCALING_TARGETS = {WalkKind.TURW: (1.00, 0.02), WalkKind.NBCRW: (1.50, 0.03),
                   WalkKind.MERW: (2.00, 0.02)}


def test_criterion_5_scaling_exponents(capsys):
    start = time.perf_counter()
    slopes = {}
    exponents = {}
    failures = []
    for kind, (target, tol) in SCALING_TARGETS.items():
        rows = scaling_table(kind, SCALING_MS)
        slopes[kind.value] = loglog_slope(rows)
        alpha = corrected_exponent(rows)
        exponents[kind.value] = alpha
        if abs(alpha - target) > tol:
            failures.append(f"{kind.value} {alpha:.3f} vs {target:.2f}±{tol:.2f}")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 1.0
    fitted = ", ".join(f"{k} {v:.3f}" for k, v in exponents.items())
    raw = ", ".join(f"{k} {v:.3f}" for k, v in slopes.items())
    line = (f"criterion 5: {'PASS' if ok else 'FAIL'} — exponents over m=10..1000 "
            f"with N^(-k/2) corrections, k=1..4: {fitted} (raw window slopes: {raw}), "
            f"{elapsed:.2f}s" + ("" if ok else f"; out of tolerance: {failures}"))
    report(capsys, line)
    if not ok:
        pytest.fail(line, pytrace=False)


@pytest.mark.parametrize("alpha, inside", [(1.45, False), (1.50, True), (1.55, False)])
def test_criterion_5_fit_is_not_vacuous(alpha, inside):
    # A rose-like series with the NBCRW prefactor and a strong linear term.
    # For alpha = 1.5 its corrections are half-integer powers of N, as in the
    # closed forms; for the other two the fit must leave the NBCRW band.
    rows = [(3 * m + 1, 0.471 * m**alpha + 4.0 * m + 3.0) for m in SCALING_MS]
    target, tol = SCALING_TARGETS[WalkKind.NBCRW]
    fitted = corrected_exponent(rows)
    assert (abs(fitted - target) <= tol) == inside, fitted


def _ba_instances():
    return [(500, 11), (500, 12), (500, 13), (1000, 14), (1000, 15)]


def test_criterion_6_hitting_time_orderings(capsys):
    start = time.perf_counter()
    failures = []
    for n, seed in _ba_instances():
        g = gen_ba(n, 2, seed)
        hub = int(np.argmax(g.degrees))
        t_hub, t_global = {}, {}
        for kind in WalkKind:
            rep = hitting_spectral(kind, g)
            t_hub[kind] = float(rep.t_partial[hub])
            t_global[kind] = rep.t_global
        if not (t_hub[WalkKind.TURW] > t_hub[WalkKind.NBCRW] > t_hub[WalkKind.MERW]):
            failures.append(f"BA({n},2,{seed}): hub ordering")
        if not (t_global[WalkKind.MERW] > t_global[WalkKind.NBCRW] > t_global[WalkKind.TURW]):
            failures.append(f"BA({n},2,{seed}): global ordering")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 300.0
    line = (f"criterion 6: {'PASS' if ok else 'FAIL'} — hub and global orderings on "
            f"5 preferential-attachment instances, {elapsed:.0f}s"
            + ("" if ok else f"; {failures}"))
    report(capsys, line)
    if not ok:
        pytest.fail(line, pytrace=False)


def test_criterion_7_localization_orderings(capsys):
    failures = []
    instances = [("BA", gen_ba(n, 2, seed)) for n, seed in _ba_instances()]
    instances.append(("WS", gen_ws(1000, 10, 0.1, 21)))
    for label, g in instances:
        s_merw = ipr(stationary_closed(WalkKind.MERW, g).pi)
        s_nbcrw = ipr(stationary_closed(WalkKind.NBCRW, g).pi)
        if not s_merw > s_nbcrw:
            failures.append(f"{label}({g.n})")
    ok = not failures
    line = (f"criterion 7: {'PASS' if ok else 'FAIL'} — participation-ratio ordering "
            f"on {len(instances)} instances" + ("" if ok else f"; {failures}"))
    report(capsys, line)
    if not ok:
        pytest.fail(line, pytrace=False)


def test_criterion_8_monte_carlo_validation(tmp_path, capsys):
    start = time.perf_counter()
    failures = []
    k3 = complete_graph(3)
    cfg_station = SimConfig(seed=101, trials=100_000, max_steps=1_000_000, burn_in=1000)
    out = simulate_stationary(reversible_walk(WalkKind.TURW, k3), cfg_station)
    for est, se in zip(out.estimates, out.standard_errors):
        if abs(est - 1.0 / 3) > 3.0 * se:
            failures.append("triangle stationary")
    rose = make_rose(RoseSpec(m=2))
    out = simulate_stationary(reversible_walk(WalkKind.NBCRW, rose), cfg_station)
    if abs(out.estimates[0] - 1.0 / (2.0 + math.sqrt(3.0))) > 3.0 * out.standard_errors[0]:
        failures.append("rose hub stationary")
    cfg_hit = SimConfig(seed=202, trials=100_000, max_steps=1_000_000)
    k5 = complete_graph(5)
    out = simulate_hitting(reversible_walk(WalkKind.TURW, k5), 0, 1, cfg_hit)
    if abs(out.estimates[0] - 4.0) > 3.0 * out.standard_errors[0]:
        failures.append("complete-graph hitting")
    out = simulate_hitting(reversible_walk(WalkKind.TURW, rose), 3, 0, cfg_hit)
    if abs(out.estimates[0] - 4.0) > 3.0 * out.standard_errors[0]:
        failures.append("rose peripheral-to-hub hitting")
    out = simulate_hitting(reversible_walk(WalkKind.MERW, rose), 1, 0, cfg_hit)
    if abs(out.estimates[0] - 2.0) > 3.0 * out.standard_errors[0]:
        failures.append("rose internal-to-hub hitting")
    # The same seed must give the same output on a rerun.
    path = tmp_path / "k3.txt"
    path.write_text("0 1\n1 2\n2 0\n")
    runs = []
    for _ in range(2):
        code = cli_main(["--seed", "7", "simulate", str(path), "--walk", "turw", "--mode",
                         "hitting", "--source", "0", "--target", "1", "--trials", "3000"])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        payload = json.loads(captured.out)
        payload["manifest"].pop("timing_s")
        runs.append(payload)
    if runs[0] != runs[1]:
        failures.append("rerun determinism")
    elapsed = time.perf_counter() - start
    ok = not failures
    line = (f"criterion 8: {'PASS' if ok else 'FAIL'} — five exact targets within "
            f"3 standard errors, same-seed rerun identical, {elapsed:.0f}s"
            + ("" if ok else f"; {failures}"))
    report(capsys, line)
    if not ok:
        pytest.fail(line, pytrace=False)


def test_criterion_9_prefactor_audit(tmp_path, capsys):
    audit = eq26_audit(complete_graph(3))
    off = ~np.eye(3, dtype=bool)
    ok = (np.allclose(audit["t_verbatim"][off], 1.0, atol=1e-9)
          and np.allclose(audit["t_consistent"][off], 2.0, atol=1e-9)
          and np.allclose(audit["t_linear"][off], 2.0, atol=1e-9)
          and bool(audit["note"]))
    path = tmp_path / "k3.txt"
    path.write_text("0 1\n1 2\n2 0\n")
    code = cli_main(["hitting", str(path), "--walk", "nbcrw", "--verbatim-eq26"])
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    ok = ok and code == 0 and "eq26_audit" in payload["reports"][0]
    line = (f"criterion 9: {'PASS' if ok else 'FAIL'} — halved pairwise formula "
            f"gives 1 on the uniform triangle, consistent path and oracle give 2, "
            f"discrepancy report emitted")
    report(capsys, line)
    if not ok:
        pytest.fail(line, pytrace=False)


def test_criterion_10_figure_analogues(capsys):
    start = time.perf_counter()
    failures = []
    ba = gen_ba(1000, 2, 1)
    counts = {}
    for kind in (WalkKind.NBCRW, WalkKind.MERW):
        pi = stationary_closed(kind, ba).pi
        counts[kind] = int(np.sum(np.sort(pi)[:200] > 1e-5))
    if not counts[WalkKind.NBCRW] > counts[WalkKind.MERW]:
        failures.append(f"tail counts {counts}")
    er = gen_er(1000, 0.5, 3)
    for kind in WalkKind:
        pi = stationary_closed(kind, er).pi
        if not float(pi.max() / pi.min()) < 2.0:
            failures.append(f"er spread {kind.value}")
    elapsed = time.perf_counter() - start
    ok = not failures
    line = (f"criterion 10: {'PASS' if ok else 'FAIL'} — stationary tail counts "
            f"{counts[WalkKind.NBCRW]} vs {counts[WalkKind.MERW]} on the hub-heavy "
            f"instance; dense-graph spread < 2 for all kinds, {elapsed:.0f}s"
            + ("" if ok else f"; {failures}"))
    report(capsys, line)
    if not ok:
        pytest.fail(line, pytrace=False)
