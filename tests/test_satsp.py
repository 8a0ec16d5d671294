"""Tests for survey propagation: formula generation, factor graph,
survey updates (against a brute-force reference), decimation, WalkSAT,
and the full pipeline."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.counters import OpCounter
from repro.satsp import (CNF, FactorGraph, HARD_RATIOS, SPConfig, random_ksat,
                         read_dimacs, solve_sp, survey_iteration, walksat,
                         write_dimacs)
from repro.satsp.factorgraph import (_ZERO, exclude_one, group_products,
                                     row_products)


# --------------------------------------------------------------------- #
class TestFormula:
    def test_random_ksat_shape(self):
        cnf = random_ksat(50, 3, ratio=4.2, seed=1)
        assert cnf.k == 3
        assert cnf.num_clauses == round(4.2 * 50)
        assert cnf.num_vars == 50

    def test_distinct_vars_per_clause(self):
        cnf = random_ksat(30, 3, ratio=4.0, seed=2)
        for row in cnf.vars:
            assert len(set(row.tolist())) == 3

    def test_hard_ratio_default(self):
        cnf = random_ksat(100, 4, seed=0)
        assert cnf.ratio == pytest.approx(HARD_RATIOS[4], abs=0.01)

    def test_check_assignment(self):
        cnf = CNF(num_vars=3, vars=np.array([[0, 1, 2]]),
                  signs=np.array([[1, 1, 1]], dtype=np.int8))
        assert cnf.check(np.array([True, False, False]))
        assert not cnf.check(np.array([False, False, False]))

    def test_check_negated(self):
        cnf = CNF(num_vars=2, vars=np.array([[0, 1, 0]]),
                  signs=np.array([[-1, -1, -1]], dtype=np.int8))
        assert cnf.check(np.array([False, False]))
        assert not cnf.check(np.array([True, True]))

    def test_explicit_num_clauses(self):
        cnf = random_ksat(40, 3, num_clauses=77, seed=1)
        assert cnf.num_clauses == 77

    def test_too_few_vars_raises(self):
        with pytest.raises(ValueError):
            random_ksat(2, 3)

    def test_dimacs_roundtrip(self, tmp_path):
        cnf = random_ksat(20, 3, ratio=3.0, seed=4)
        path = tmp_path / "f.cnf"
        write_dimacs(path, cnf)
        back = read_dimacs(path)
        assert back.num_vars == cnf.num_vars
        assert np.array_equal(back.vars, cnf.vars)
        assert np.array_equal(back.signs, cnf.signs)

    @given(st.integers(4, 30), st.integers(0, 100))
    @settings(max_examples=30)
    def test_random_ksat_valid(self, n, seed):
        cnf = random_ksat(n, 3, ratio=2.0, seed=seed)
        assert cnf.vars.max() < n
        assert np.all(np.abs(cnf.signs) == 1)


# --------------------------------------------------------------------- #
class TestGroupProducts:
    def test_simple(self):
        vals = np.array([2.0, 3.0, 5.0, 7.0])
        zero = np.zeros(4, dtype=bool)
        prod, zc = group_products(vals, zero, np.array([0, 2]))
        assert prod.tolist() == [6.0, 35.0]
        assert zc.tolist() == [0, 0]

    def test_zero_handling(self):
        vals = np.array([0.0, 3.0, 0.0, 0.0])
        zero = vals == 0
        prod, zc = group_products(vals, zero, np.array([0, 2]))
        assert prod.tolist() == [3.0, 1.0]
        assert zc.tolist() == [1, 2]

    def test_exclude_one_no_zero(self):
        out = exclude_one(np.array([6.0]), np.array([0]),
                          np.array([2.0]), np.array([False]))
        assert out[0] == pytest.approx(3.0)
        # (m, 1) row aggregates broadcast against (m, K) members
        out = exclude_one(np.array([[6.0], [35.0]]), np.array([[0], [0]]),
                          np.array([[1.0, 2.0, 3.0], [5.0, 7.0, 1.0]]),
                          np.zeros((2, 3), dtype=bool))
        assert out.tolist() == [[6.0, 3.0, 2.0], [7.0, 5.0, 35.0]]

    def test_exclude_the_only_zero(self):
        out = exclude_one(np.array([3.0]), np.array([1]),
                          np.array([0.0]), np.array([True]))
        assert out[0] == pytest.approx(3.0)
        out = exclude_one(np.array([[3.0], [8.0]]), np.array([[1], [0]]),
                          np.array([[0.0, 3.0, 1.0], [2.0, 4.0, 1.0]]),
                          np.array([[True, False, False],
                                    [False, False, False]]))
        assert out.tolist() == [[3.0, 0.0, 0.0], [4.0, 2.0, 8.0]]

    def test_exclude_nonzero_with_other_zero(self):
        out = exclude_one(np.array([3.0]), np.array([1]),
                          np.array([3.0]), np.array([False]))
        assert out[0] == 0.0
        # zero count 2: every member's exclude-one product is 0, the
        # zeros' included (the other zero stays in)
        vals = np.array([0.0, 0.0, 3.0, 5.0])
        zero = vals == 0
        prod, zc = group_products(vals, zero, np.array([0]))
        assert (prod.tolist(), zc.tolist()) == ([15.0], [2])
        out = exclude_one(prod[[0, 0, 0, 0]], zc[[0, 0, 0, 0]], vals, zero)
        assert out.tolist() == [0.0, 0.0, 0.0, 0.0]
        out = exclude_one(np.array([[15.0]]), np.array([[2]]),
                          vals[None, :], zero[None, :])
        assert out.tolist() == [[0.0, 0.0, 0.0, 0.0]]

    @pytest.mark.parametrize("k", [3, 4, 5, 6, 12])
    def test_row_products_bit_identical_to_prod(self, k):
        # The clause-side row product feeds every survey, so the column
        # loop must reproduce NumPy's multiply-reduce bit for bit,
        # underflow to subnormals and to 0 included.
        rng = np.random.default_rng(k)
        rows = rng.random((4000, k))
        rows[:200] **= 60.0                        # products underflow
        rows[200:400, 0] = 1e-300
        rows[400:500, -1] = 0.0
        rows[500:600] = 1.0
        np.testing.assert_array_equal(row_products(rows), rows.prod(axis=1))


# --------------------------------------------------------------------- #
def reference_survey_update(fg: FactorGraph) -> np.ndarray:
    """Brute-force BMZ update: direct loops over the live factor graph."""
    eta_new = np.zeros_like(fg.eta)
    live_edges = np.flatnonzero(fg.live_edge)
    edges_of_var = {}
    for e in live_edges.tolist():
        edges_of_var.setdefault(int(fg.evar[e]), []).append(e)
    for a in range(fg.m):
        if not fg.live_clause[a]:
            continue
        row = [e for e in range(a * fg.k, (a + 1) * fg.k) if fg.live_edge[e]]
        for e in row:
            prod = 1.0
            for e2 in row:
                if e2 == e:
                    continue
                j = int(fg.evar[e2])
                same = opp = 1.0
                for b in edges_of_var[j]:
                    if b == e2:
                        continue
                    if fg.esign[b] == fg.esign[e2]:
                        same *= 1.0 - fg.eta[b]
                    else:
                        opp *= 1.0 - fg.eta[b]
                pi_u = (1.0 - opp) * same
                pi_s = (1.0 - same) * opp
                pi_0 = same * opp
                denom = pi_u + pi_s + pi_0
                prod *= pi_u / denom if denom > 0 else 0.0
            eta_new[e] = prod
    return eta_new


class TestSurveyUpdate:
    def test_matches_bruteforce_reference(self):
        cnf = random_ksat(25, 3, ratio=4.0, seed=3)
        fg = FactorGraph(cnf, seed=3)
        expected = reference_survey_update(fg)
        survey_iteration(fg)
        np.testing.assert_allclose(fg.eta, expected, atol=1e-12)

    def test_matches_reference_after_decimation(self):
        cnf = random_ksat(30, 3, ratio=4.0, seed=6)
        fg = FactorGraph(cnf, seed=6)
        for _ in range(5):
            survey_iteration(fg)
        fg.decimate(fg.biases(), fraction=0.1)
        expected = reference_survey_update(fg)
        survey_iteration(fg)
        live = fg.live_edge
        np.testing.assert_allclose(fg.eta[live], expected[live], atol=1e-12)

    def test_single_clause_trivial_surveys(self):
        cnf = CNF(num_vars=3, vars=np.array([[0, 1, 2]]),
                  signs=np.array([[1, 1, 1]], dtype=np.int8))
        fg = FactorGraph(cnf, seed=0)
        survey_iteration(fg)
        # no other clauses constrain the variables -> no warnings
        assert np.allclose(fg.eta, 0.0)

    def test_forced_chain_warns(self):
        # x0 appears alone-ish: (x0 v x1 v x2) & (~x1 ...) style graphs
        # just verify eta stays within [0, 1]
        cnf = random_ksat(12, 3, ratio=4.2, seed=9)
        fg = FactorGraph(cnf, seed=9)
        for _ in range(30):
            survey_iteration(fg)
        assert np.all(fg.eta >= 0.0)
        assert np.all(fg.eta <= 1.0 + 1e-12)

    def test_damping_soft_update(self):
        cnf = random_ksat(20, 3, ratio=4.0, seed=1)
        fg1 = FactorGraph(cnf, seed=1)
        fg2 = FactorGraph(cnf, seed=1)
        survey_iteration(fg1)
        eta_before = FactorGraph(cnf, seed=1).eta
        survey_iteration(fg2, damping=0.9)
        # damped result stays close to the initial surveys
        assert np.abs(fg2.eta - eta_before).max() < \
            np.abs(fg1.eta - eta_before).max()

    def test_convergence_on_midsize(self):
        cnf = random_ksat(1000, 3, ratio=4.2, seed=2)
        fg = FactorGraph(cnf, seed=2)
        delta = 1.0
        for _ in range(400):
            delta = survey_iteration(fg)
            if delta < 1e-3:
                break
        assert delta < 1e-3

    def test_uncached_mode_counts_more_reads(self):
        from repro.core.counters import OpCounter
        cnf = random_ksat(100, 3, ratio=4.2, seed=1)
        c_cached, c_uncached = OpCounter(), OpCounter()
        survey_iteration(FactorGraph(cnf, seed=1), counter=c_cached,
                         cached=True)
        survey_iteration(FactorGraph(cnf, seed=1), counter=c_uncached,
                         cached=False)
        assert c_uncached.kernel("sp.update").word_reads > \
            2 * c_cached.kernel("sp.update").word_reads


# --------------------------------------------------------------------- #
# The survey sweep as first written: one full-length array per step.
# Kept verbatim so the in-place sweep is proven equal to it bit for bit.
def _ref_group_products(values, zero_mask, seg_starts):
    nz = np.where(zero_mask, 1.0, values)
    prod = np.multiply.reduceat(nz, seg_starts) if values.size else \
        np.empty(0)
    zc = np.add.reduceat(zero_mask.astype(np.int64), seg_starts) \
        if values.size else np.empty(0, dtype=np.int64)
    return prod, zc


def _ref_exclude_one(prod_nz, zero_count, value, is_zero):
    safe = np.where(is_zero, 1.0, value)
    return np.where(
        is_zero,
        np.where(zero_count == 1, prod_nz, 0.0),
        np.where(zero_count == 0, prod_nz / safe, 0.0),
    )


def _ref_group_aggregate(fg, edge_values, edge_zero):
    ne = fg.evar.size
    if ne == 0:
        return np.ones(2 * fg.n), np.zeros(2 * fg.n, dtype=np.int64)
    group_empty = np.concatenate([fg.seg_starts[1:] == fg.seg_starts[:-1],
                                  [fg.seg_starts[-1] >= ne]])
    sv = edge_values[fg.vs_order]
    sz = edge_zero[fg.vs_order]
    starts = np.minimum(fg.seg_starts, ne - 1)
    prod, zc = _ref_group_products(sv, sz, starts)
    prod = np.where(group_empty, 1.0, prod)
    zc = np.where(group_empty, 0, zc)
    return prod, zc


def reference_sweep(fg, *, counter=None, cached=True, damping=0.0,
                    kernel="sp.update"):
    ne = fg.evar.size
    t = np.where(fg.live_edge, 1.0 - fg.eta, 1.0)
    tz = fg.live_edge & (t <= _ZERO)
    prod, zc = _ref_group_aggregate(fg, t, tz)

    gid = fg.gid
    opp = gid ^ 1
    p_same_excl = _ref_exclude_one(prod[gid], zc[gid], t, tz)
    p_same_excl = np.where(fg.live_edge, p_same_excl,
                           np.where(zc[gid] == 0, prod[gid], 0.0))
    p_opp = np.where(zc[opp] == 0, prod[opp], 0.0)

    pi_u = (1.0 - p_opp) * p_same_excl
    pi_s = (1.0 - p_same_excl) * p_opp
    pi_0 = p_same_excl * p_opp
    denom = pi_u + pi_s + pi_0
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(denom > 0, pi_u / denom, 0.0)
    ratio = np.where(fg.live_edge, ratio, 1.0)  # dead edges are neutral

    rr = ratio.reshape(fg.m, fg.k)
    rz = rr <= _ZERO
    rnz = np.where(rz, 1.0, rr)
    row_prod = rnz.prod(axis=1)
    row_zc = rz.sum(axis=1)
    eta_new = _ref_exclude_one(np.repeat(row_prod, fg.k),
                               np.repeat(row_zc, fg.k), ratio, rz.ravel())
    eta_new = np.where(fg.live_edge, eta_new, 0.0)

    if damping > 0.0:
        eta_new = damping * fg.eta + (1.0 - damping) * eta_new
        eta_new = np.where(fg.live_edge, eta_new, 0.0)
    delta = float(np.max(np.abs(eta_new - fg.eta))) if ne else 0.0
    fg.eta = eta_new

    if counter is not None:
        live = fg.num_live_edges
        if cached:
            reads = 8 * live
        else:
            deg = 2.0 * ne / max(1, fg.n)
            reads = int(live * (3 * deg + 3 * fg.k))
        counter.launch(kernel, items=live, word_reads=reads,
                       word_writes=live, barriers=1,
                       work_per_thread=np.full(max(1, live), 3 if cached
                                               else int(3 + deg)))
    return delta


def edge_case_graph(k, n, m, seed, *, pure=0.3, ones=0.2, assigned=3,
                    decimate=False):
    """A factor graph mid-run, with every corner the sweep special-cases.

    ``pure`` of the variables keep one sign (empty opposite group, so
    ``ratio == 0``); after ``assigned`` fixes there are dead edges,
    killed clauses and falsified literals whose ``eta`` is stale;
    ``ones`` of all surveys, dead ones included, are exactly 1.0 (so
    ``t`` hits zero, often twice in a group).
    """
    rng = np.random.default_rng(seed)
    vars_ = np.argsort(rng.random((m, n)), axis=1)[:, :k]
    signs = rng.choice(np.array([-1, 1], dtype=np.int8), size=(m, k))
    sign_of = rng.choice(np.array([-1, 1], dtype=np.int8), size=n)
    pure_vars = rng.random(n) < pure
    signs = np.where(pure_vars[vars_], sign_of[vars_], signs).astype(np.int8)
    fg = FactorGraph(CNF(num_vars=n, vars=vars_, signs=signs), seed=seed)
    if decimate:
        survey_iteration(fg)
        fg.decimate(fg.biases(), fraction=0.1)
    chosen = rng.choice(n, size=min(assigned, n), replace=False)
    fg.assign(chosen, rng.integers(0, 2, size=chosen.size))
    fg.eta[rng.random(fg.eta.size) < ones] = 1.0
    return fg


def assert_sweeps_identical(fg, *, cached, damping, sweeps=2):
    ref = copy.deepcopy(fg)
    ctr, ref_ctr = OpCounter(), OpCounter()
    for _ in range(sweeps):
        got = survey_iteration(fg, counter=ctr, cached=cached,
                               damping=damping)
        want = reference_sweep(ref, counter=ref_ctr, cached=cached,
                               damping=damping)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        assert fg.eta.tobytes() == ref.eta.tobytes()
    assert ctr.kernel("sp.update") == ref_ctr.kernel("sp.update")


class TestSweepMatchesReference:
    """The in-place sweep against the arithmetic it replaced, bitwise."""

    @given(k=st.integers(3, 6), n_extra=st.integers(0, 25),
           ratio=st.floats(1.0, 5.0), seed=st.integers(0, 2**16),
           damping=st.sampled_from([0.0, 0.5]), cached=st.booleans(),
           pure=st.sampled_from([0.0, 0.3, 0.8]),
           ones=st.sampled_from([0.0, 0.1, 0.4]),
           assigned=st.integers(0, 5), decimate=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_bit_identical(self, k, n_extra, ratio, seed, damping, cached,
                           pure, ones, assigned, decimate):
        n = k + 1 + n_extra
        fg = edge_case_graph(k, n, max(1, round(ratio * n)), seed,
                             pure=pure, ones=ones, assigned=assigned,
                             decimate=decimate)
        assert_sweeps_identical(fg, cached=cached, damping=damping)

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_corners_present_and_identical(self, k):
        # A fixed witness that each special case really occurs, so the
        # property above cannot pass by never reaching one.
        fg = edge_case_graph(k, 30, 90, seed=k, assigned=4)
        dead = ~fg.live_edge
        assert dead.any() and not fg.live_clause.all()
        assert np.any(dead & (fg.eta > 0.0))             # stale surveys
        t = np.where(fg.live_edge, 1.0 - fg.eta, 1.0)
        zero = fg.live_edge & (t <= _ZERO)
        _, zc = fg.group_aggregate(t, zero)
        assert zc.max() >= 2
        assert np.any(dead & (fg.eta == 1.0))
        counts = np.bincount(fg.gid, minlength=2 * fg.n)
        assert np.any((counts > 0) & (counts[np.arange(2 * fg.n) ^ 1] == 0))
        for damping in (0.0, 0.5):
            for cached in (True, False):
                assert_sweeps_identical(copy.deepcopy(fg), cached=cached,
                                        damping=damping, sweeps=3)

    def test_whole_phases_on_a_benchmark_shaped_instance(self):
        # K = 3 at ratio 4.2, as in the wall-clock benchmark, through
        # SP phases with decimation between them.
        cnf = random_ksat(1000, 3, seed=5)
        for cached, damping in ((True, 0.5), (False, 0.0)):
            fg = FactorGraph(cnf, seed=5)
            for _ in range(3):
                assert_sweeps_identical(fg, cached=cached, damping=damping,
                                        sweeps=10)
                fg.decimate(fg.biases(), fraction=0.05)


# --------------------------------------------------------------------- #
class TestDecimation:
    def test_fixes_and_simplifies(self):
        cnf = random_ksat(60, 3, ratio=4.2, seed=4)
        fg = FactorGraph(cnf, seed=4)
        for _ in range(60):
            survey_iteration(fg)
        before_vars = fg.num_unfixed
        before_edges = fg.num_live_edges
        rep = fg.decimate(fg.biases(), fraction=0.05)
        assert rep.fixed >= 1
        assert fg.num_unfixed < before_vars
        assert fg.num_live_edges < before_edges

    def test_assign_satisfied_clause_removed(self):
        # single clause (x0 v x1 v x2): fixing x0 True kills it
        cnf = CNF(num_vars=3, vars=np.array([[0, 1, 2]]),
                  signs=np.array([[1, 1, 1]], dtype=np.int8))
        fg = FactorGraph(cnf)
        rep = fg.assign(np.array([0]), np.array([1]))
        assert not rep.contradiction
        assert fg.num_live_clauses == 0

    def test_unit_propagation(self):
        # (x0 v x1 v x2): fixing x0=F, x1=F forces x2=T via unit prop
        cnf = CNF(num_vars=3, vars=np.array([[0, 1, 2]]),
                  signs=np.array([[1, 1, 1]], dtype=np.int8))
        fg = FactorGraph(cnf)
        rep = fg.assign(np.array([0, 1]), np.array([0, 0]))
        assert rep.units_propagated == 1
        assert fg.fixed[2] == 1

    def test_contradiction_detected(self):
        # (x0 v x0 v x0)-style impossible after fixing — use two clauses
        # (x0 v x1 v x2) & (~x0 v x1 v x2) with x1=F, x2=F forces x0 both
        cnf = CNF(num_vars=3,
                  vars=np.array([[0, 1, 2], [0, 1, 2]]),
                  signs=np.array([[1, 1, 1], [-1, 1, 1]], dtype=np.int8))
        fg = FactorGraph(cnf)
        rep = fg.assign(np.array([1, 2]), np.array([0, 0]))
        assert rep.contradiction

    def test_residual_cnf_maps_back(self):
        cnf = random_ksat(40, 3, ratio=2.0, seed=8)
        fg = FactorGraph(cnf, seed=8)
        fg.assign(np.array([0, 1]), np.array([1, 0]))
        res, var_map, _ = fg.residual_cnf()
        assert res.num_vars == fg.num_unfixed
        assert 0 not in var_map and 1 not in var_map


# --------------------------------------------------------------------- #
class TestWalkSAT:
    def test_solves_easy(self):
        cnf = random_ksat(200, 3, ratio=3.0, seed=11)
        a = walksat(cnf, max_flips=200_000, seed=11)
        assert a is not None
        assert cnf.check(a)

    def test_empty_formula(self):
        cnf = CNF(num_vars=4, vars=np.empty((0, 3), dtype=np.int64),
                  signs=np.empty((0, 3), dtype=np.int8))
        a = walksat(cnf)
        assert a is not None and a.size == 4

    def test_unsat_returns_none(self):
        # all 8 sign patterns over 3 vars -> unsatisfiable
        signs = np.array([[s0, s1, s2] for s0 in (1, -1)
                          for s1 in (1, -1) for s2 in (1, -1)],
                         dtype=np.int8)
        vars_ = np.tile(np.array([0, 1, 2]), (8, 1))
        cnf = CNF(num_vars=3, vars=vars_, signs=signs)
        assert walksat(cnf, max_flips=3000, restarts=2, seed=0) is None

    @given(st.integers(0, 30))
    @settings(max_examples=10, deadline=None)
    def test_returned_assignment_always_satisfies(self, seed):
        cnf = random_ksat(60, 3, ratio=2.5, seed=seed)
        a = walksat(cnf, max_flips=50_000, seed=seed)
        if a is not None:
            assert cnf.check(a)


# --------------------------------------------------------------------- #
class TestSolvePipeline:
    def test_easy_instance_sat(self):
        cnf = random_ksat(100, 3, ratio=3.0, seed=1)
        r = solve_sp(cnf, SPConfig(seed=1, damping=0.5))
        assert r.sat
        assert cnf.check(r.assignment)

    def test_hard_instance_small(self):
        cnf = random_ksat(300, 3, ratio=4.1, seed=2)
        r = solve_sp(cnf, SPConfig(seed=2, damping=0.5, max_iters=600))
        # SP is heuristic; SAT expected but UNKNOWN acceptable — the
        # assignment, when given, must check out.
        if r.sat:
            assert cnf.check(r.assignment)
        assert r.status in ("SAT", "UNKNOWN", "CONTRADICTION")

    def test_counters_populated(self):
        cnf = random_ksat(400, 3, ratio=4.2, seed=3)
        r = solve_sp(cnf, SPConfig(seed=3, damping=0.5, max_iters=300))
        assert "sp.update" in r.counter
        assert r.counter.kernel("sp.update").launches == r.total_iterations
