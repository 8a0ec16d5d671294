"""The SP factor graph (paper Sections 3 and 6.3).

"We split the graph nodes into two arrays and store the clauses
separately from the literals ...  each clause has a small limit on the
number of literals it can contain ... this allows accessing literals in
a clause using a direct offset calculation ...  the literal-to-clause
mapping uses the standard CSR format."

:class:`FactorGraph` keeps the paper's layout:

* the dense clause-side view: edge ``e = a * K + k`` is clause ``a``'s
  ``k``-th literal (``evar``, ``esign`` flat arrays);
* the variable-side CSR view: edges sorted by ``(variable, sign)`` with
  segment offsets, which is what the survey update's neighbor products
  reduce over;
* per-edge survey ``eta`` and liveness, per-clause liveness, per-variable
  fixed state — node deletion is *marking* (Section 7.2), as decimation
  is infrequent.

Decimation (:meth:`FactorGraph.decimate`) fixes the most biased
variables, removes satisfied clauses and falsified literals, and
propagates the resulting unit clauses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .formula import CNF

__all__ = ["FactorGraph", "group_products", "row_products", "exclude_one"]

_ZERO = 1e-300


def group_products(values: np.ndarray, zero_mask: np.ndarray,
                   seg_starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-segment (product of non-"zero" values, count of "zeros").

    ``values`` must already be in segment order; ``seg_starts`` are
    reduceat boundaries.  The zero-count trick makes exclude-one
    products exact even when some factors are 0 (surveys of exactly 1).
    """
    if not values.size:
        return np.empty(0), np.empty(0, dtype=np.int64)
    if zero_mask.any():
        values = np.where(zero_mask, 1.0, values)
        zc = np.add.reduceat(zero_mask, seg_starts, dtype=np.int64)
    else:
        zc = np.zeros(len(seg_starts), dtype=np.int64)
    return np.multiply.reduceat(values, seg_starts), zc


def row_products(rows: np.ndarray) -> np.ndarray:
    """``rows.prod(axis=1)`` bit for bit, as K column passes.

    NumPy's multiply-reduce runs left to right, so the explicit loop
    matches it exactly; it avoids the per-row inner loop of a reduction
    over a short axis.
    """
    out = rows[:, 0].copy()
    for j in range(1, rows.shape[1]):
        out *= rows[:, j]
    return out


def exclude_one(prod_nz: np.ndarray, zero_count: np.ndarray,
                value: np.ndarray, is_zero: np.ndarray) -> np.ndarray:
    """Product of a group excluding one member, from group aggregates.

    ``value`` and ``is_zero`` are the members; the aggregates broadcast
    against them (a ``(m, 1)`` row aggregate against ``(m, K)`` members,
    or a scalar zero count).  Members not flagged "zero" must be finite
    and positive, as surveys and ratios above ``_ZERO`` are.  Then one
    division of the kept product (0 in a group that holds a zero) gives
    each of them its result, and only the "zero" members are fixed up.
    """
    kept = np.where(zero_count == 0, prod_nz, 0.0) \
        if np.any(zero_count) else prod_nz
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.divide(kept, value)
    hit = np.unravel_index(np.flatnonzero(is_zero), is_zero.shape)
    if hit[0].size:
        only = np.broadcast_to(zero_count, out.shape)[hit] == 1
        out[hit] = np.where(only, np.broadcast_to(prod_nz, out.shape)[hit],
                            0.0)
    return out


@dataclass
class DecimationReport:
    fixed: int = 0
    units_propagated: int = 0
    clauses_removed: int = 0
    edges_removed: int = 0
    contradiction: bool = False


class FactorGraph:
    def __init__(self, cnf: CNF, seed: int = 0) -> None:
        self.cnf = cnf
        m, k = cnf.num_clauses, cnf.k
        self.n = cnf.num_vars
        self.m = m
        self.k = k
        self.evar = cnf.vars.ravel().copy()
        self.esign = cnf.signs.ravel().astype(np.int64)
        self.eclause = np.repeat(np.arange(m, dtype=np.int64), k)
        ne = self.evar.size
        rng = np.random.default_rng(seed)
        self.eta = rng.random(ne)          # standard random initialization
        self.live_edge = np.ones(ne, dtype=bool)
        self.live_clause = np.ones(m, dtype=bool)
        #: -1 unfixed, 0 fixed False, 1 fixed True
        self.fixed = np.full(self.n, -1, dtype=np.int8)

        # Variable-side CSR, grouped by (variable, sign): gid in [0, 2n).
        self.gid = self.evar * 2 + (self.esign > 0)
        self.vs_order = np.argsort(self.gid, kind="stable")
        sorted_gid = self.gid[self.vs_order]
        # segment start for every gid (empty groups handled via searchsorted)
        self.seg_starts = np.searchsorted(sorted_gid, np.arange(2 * self.n))
        # reduceat needs starts < len; record empties to patch afterwards.
        self._reduce_starts = np.minimum(self.seg_starts, max(ne - 1, 0))
        empty = np.concatenate(
            [self.seg_starts[1:] == self.seg_starts[:-1],
             [self.seg_starts[-1] >= ne]]) if ne else np.ones(2 * self.n, bool)
        self._empty_groups = np.flatnonzero(empty)

    # ------------------------------------------------------------------ #
    @property
    def num_live_edges(self) -> int:
        return int(self.live_edge.sum())

    @property
    def num_live_clauses(self) -> int:
        return int(self.live_clause.sum())

    @property
    def num_unfixed(self) -> int:
        return int((self.fixed < 0).sum())

    def group_aggregate(self, edge_values: np.ndarray,
                        edge_zero: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-(var, sign) products of ``edge_values`` with zero counts.

        Dead edges must already be neutralized (value 1, not zero) by
        the caller.  Empty groups report product 1, zero-count 0.
        """
        ne = self.evar.size
        if ne == 0:
            return np.ones(2 * self.n), np.zeros(2 * self.n, dtype=np.int64)
        prod, zc = group_products(edge_values[self.vs_order],
                                  edge_zero[self.vs_order],
                                  self._reduce_starts)
        prod[self._empty_groups] = 1.0
        zc[self._empty_groups] = 0
        return prod, zc

    # ------------------------------------------------------------------ #
    def biases(self) -> np.ndarray:
        """Per-variable bias W(true) - W(false); 0 for fixed variables."""
        t = np.where(self.live_edge, 1.0 - self.eta, 1.0)
        z = self.live_edge & (t <= _ZERO)
        prod, zc = self.group_aggregate(t, z)
        p_pos = np.where(zc[1::2] == 0, prod[1::2], 0.0)  # gid 2v+1: sign +
        p_neg = np.where(zc[0::2] == 0, prod[0::2], 0.0)
        pi_plus = (1.0 - p_pos) * p_neg
        pi_minus = (1.0 - p_neg) * p_pos
        pi_zero = p_pos * p_neg
        denom = pi_plus + pi_minus + pi_zero
        with np.errstate(invalid="ignore", divide="ignore"):
            bias = np.where(denom > 0, (pi_plus - pi_minus) / denom, 0.0)
        bias[self.fixed >= 0] = 0.0
        return bias

    # ------------------------------------------------------------------ #
    def decimate(self, bias: np.ndarray, fraction: float = 0.01,
                 min_bias: float = 0.0, at_least: int = 1) -> DecimationReport:
        """Fix the most biased variables and simplify the graph."""
        rep = DecimationReport()
        unfixed = np.flatnonzero(self.fixed < 0)
        if unfixed.size == 0:
            return rep
        mag = np.abs(bias[unfixed])
        want = max(at_least, int(fraction * unfixed.size))
        order = np.argsort(-mag, kind="stable")[:want]
        chosen = unfixed[order]
        chosen = chosen[np.abs(bias[chosen]) >= min_bias]
        if chosen.size == 0:
            return rep
        values = (bias[chosen] > 0).astype(np.int8)
        # Unbiased coin for exact zero bias.
        zero = bias[chosen] == 0
        if zero.any():
            values[zero] = np.random.default_rng(int(chosen[0])).integers(
                0, 2, size=int(zero.sum()), dtype=np.int8)
        return self.assign(chosen, values, rep)

    def assign(self, variables: np.ndarray, values: np.ndarray,
               rep: DecimationReport | None = None) -> DecimationReport:
        """Fix ``variables`` to ``values`` and simplify; propagates units."""
        rep = rep or DecimationReport()
        queue = list(zip(np.asarray(variables).tolist(),
                         np.asarray(values).tolist()))
        while queue:
            v, val = queue.pop()
            if self.fixed[v] >= 0:
                if int(self.fixed[v]) != int(val):
                    rep.contradiction = True
                    return rep
                continue
            self.fixed[v] = val
            rep.fixed += 1
            # All live edges of v, via the two sign groups.
            edges = self._edges_of_var(v)
            edges = edges[self.live_edge[edges]]
            if edges.size == 0:
                continue
            sat = (self.esign[edges] > 0) == bool(val)
            # Satisfied clauses die entirely.
            for a in np.unique(self.eclause[edges[sat]]).tolist():
                if self.live_clause[a]:
                    self._kill_clause(a, rep)
            # Falsified literals leave their clauses.
            for e in edges[~sat].tolist():
                if not self.live_edge[e]:
                    continue
                self.live_edge[e] = False
                rep.edges_removed += 1
                a = int(self.eclause[e])
                if not self.live_clause[a]:
                    continue
                row = self._clause_edges(a)
                live = row[self.live_edge[row]]
                if live.size == 0:
                    rep.contradiction = True
                    return rep
                if live.size == 1:
                    # Unit clause: its literal is forced.
                    u = int(live[0])
                    queue.append((int(self.evar[u]),
                                  int(self.esign[u] > 0)))
                    rep.units_propagated += 1
        return rep

    def _edges_of_var(self, v: int) -> np.ndarray:
        ne = self.evar.size
        lo = self.seg_starts[2 * v]
        hi = self.seg_starts[2 * v + 2] if 2 * v + 2 < self.seg_starts.size \
            else ne
        return self.vs_order[lo:hi]

    def _clause_edges(self, a: int) -> np.ndarray:
        return np.arange(a * self.k, (a + 1) * self.k, dtype=np.int64)

    def _kill_clause(self, a: int, rep: DecimationReport) -> None:
        row = self._clause_edges(a)
        live = row[self.live_edge[row]]
        self.live_edge[live] = False
        rep.edges_removed += int(live.size)
        self.live_clause[a] = False
        rep.clauses_removed += 1
        self.eta[row] = 0.0

    # ------------------------------------------------------------------ #
    def residual_cnf(self) -> tuple[CNF, np.ndarray, np.ndarray]:
        """Remaining sub-formula over unfixed variables, padded to width K.

        Returns ``(cnf, var_map, clause_ids)`` where ``var_map`` maps
        residual variable ids back to originals.  Clauses narrower than
        K are padded by repeating their first literal (harmless for
        satisfiability).
        """
        live_c = np.flatnonzero(self.live_clause)
        unfixed = np.flatnonzero(self.fixed < 0)
        var_map_rev = np.full(self.n, -1, dtype=np.int64)
        var_map_rev[unfixed] = np.arange(unfixed.size)
        rows_v = []
        rows_s = []
        for a in live_c.tolist():
            row = self._clause_edges(a)
            live = row[self.live_edge[row]]
            vs = var_map_rev[self.evar[live]]
            ss = self.esign[live]
            assert np.all(vs >= 0), "live edge on fixed variable"
            pad = self.k - vs.size
            if pad:
                vs = np.concatenate([vs, np.repeat(vs[:1], pad)])
                ss = np.concatenate([ss, np.repeat(ss[:1], pad)])
            rows_v.append(vs)
            rows_s.append(ss)
        if rows_v:
            cnf = CNF(num_vars=int(unfixed.size),
                      vars=np.vstack(rows_v),
                      signs=np.vstack(rows_s).astype(np.int8))
        else:
            cnf = CNF(num_vars=int(unfixed.size),
                      vars=np.empty((0, self.k), dtype=np.int64),
                      signs=np.empty((0, self.k), dtype=np.int8))
        return cnf, unfixed, live_c

    def full_assignment(self, residual_assignment: np.ndarray | None = None,
                        var_map: np.ndarray | None = None) -> np.ndarray:
        """Combine fixed variables with a residual solver's assignment."""
        out = self.fixed.copy()
        if residual_assignment is not None:
            out[var_map] = residual_assignment.astype(np.int8)
        out[out < 0] = 0  # don't-care variables default to False
        return out.astype(bool)
