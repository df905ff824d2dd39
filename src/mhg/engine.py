"""Vectorized back end for the equivalence verifier.

Labellings of the complete graph on n vertices live on a lattice with one
axis per vertex pair and base delta + 1; digit 0 marks a blank pair.  The
completability transform computes, for every point of the lattice at once,
whether some filling of the blanks yields a graph all of whose triangles are
allowed.  Batched counterparts of the magic completion and of the obstruction
scan operate on arrays of lattice rows.

The scalar routines in completion, families and oracle stay the reference
implementations; the verifier cross-checks sampled rows against them and
treats any disagreement as an internal error rather than a finding.
"""

from __future__ import annotations

from itertools import combinations, product

import numpy as np

from .families import enumerate_forbidden, is_forbidden
from .graphs import EdgeLabelledGraph, triangle_verdict
from .magic import MagicContext


class Engine:
    """Tables and batch operations for one parameter context and one n."""

    def __init__(self, ctx: MagicContext, n: int):
        if n < 3:
            raise ValueError("need at least 3 vertices")
        self.ctx = ctx
        self.p = ctx.params
        self.n = n
        self.base = self.p.delta + 1
        self.pairs: list[tuple[int, int]] = list(combinations(range(n), 2))
        self.P = len(self.pairs)
        self.pair_index = {pr: q for q, pr in enumerate(self.pairs)}
        # Pair indices of each triangle come out sorted because the pair list
        # is lexicographic; the reshape in completable_lattice relies on that.
        self.triangles = [
            (self.pair_index[(i, j)], self.pair_index[(i, k)], self.pair_index[(j, k)])
            for i, j, k in combinations(range(n), 3)
        ]
        self.size = self.base**self.P
        self.allowed3 = self._allowed_table()
        self.forb3 = self._forbidden_table()
        self.opl = self._oplus_table()
        self.words = [w for w in enumerate_forbidden(self.p) if len(w) >= 4]

    def _allowed_table(self) -> np.ndarray:
        """allowed3[a, b, c]: triangle with those labels is allowed.  Entries
        touching 0 stay True so incomplete triangles never constrain."""
        arr = np.ones((self.base,) * 3, dtype=bool)
        for a, b, c in product(range(1, self.base), repeat=3):
            arr[a, b, c] = triangle_verdict(self.p, a, b, c).ok
        return arr

    def _forbidden_table(self) -> np.ndarray:
        """forb3[a, b, c]: the 3-cycle lies in the obstruction set.  Built
        from the family route, independently of allowed3."""
        arr = np.zeros((self.base,) * 3, dtype=bool)
        for a, b, c in product(range(1, self.base), repeat=3):
            arr[a, b, c] = is_forbidden(self.p, (a, b, c))
        return arr

    def _oplus_table(self) -> np.ndarray:
        arr = np.zeros((self.base, self.base), dtype=np.uint8)
        for x in range(1, self.base):
            for y in range(1, self.base):
                arr[x, y] = self.ctx.oplus(x, y)
        return arr

    def decode(self, idx: np.ndarray) -> np.ndarray:
        """Lattice indices to label rows of shape (B, P), dtype uint8."""
        digits = np.unravel_index(np.asarray(idx, dtype=np.int64), (self.base,) * self.P)
        return np.stack(digits, axis=-1).astype(np.uint8)

    def encode(self, rows: np.ndarray) -> np.ndarray:
        cols = tuple(rows[:, q].astype(np.int64) for q in range(self.P))
        return np.ravel_multi_index(cols, (self.base,) * self.P)

    def row_to_graph(self, row: np.ndarray) -> EdgeLabelledGraph:
        edges = [
            (u, v, int(row[q])) for q, (u, v) in enumerate(self.pairs) if row[q] != 0
        ]
        return EdgeLabelledGraph(self.n, edges)

    def graph_to_row(self, g: EdgeLabelledGraph) -> np.ndarray:
        if g.n != self.n:
            raise ValueError(f"graph has {g.n} vertices, engine expects {self.n}")
        row = np.zeros(self.P, dtype=np.uint8)
        for (u, v), l in g.labels.items():
            row[self.pair_index[(u, v)]] = l
        return row

    def completable_lattice(self) -> np.ndarray:
        """Flat boolean array over the whole lattice: the labelling extends,
        by filling blanks only, to a complete graph whose every triangle is
        allowed.  Seed = complete rows with all triangles allowed; then each
        axis ORs its blank slice over the labelled ones."""
        shape = (self.base,) * self.P
        H = np.ones(shape, dtype=bool)
        for q1, q2, q3 in self.triangles:
            view = [1] * self.P
            view[q1] = view[q2] = view[q3] = self.base
            H &= self.allowed3.reshape(view)
        for q in range(self.P):
            np.moveaxis(H, q, 0)[0] = False
        for q in range(self.P):
            v = np.moveaxis(H, q, 0)
            np.any(v[1:], axis=0, out=v[0])
        return H.reshape(-1)

    def complete_batch(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Magic completion of each row.  Returns (completed rows, mask of
        pairs filled by the final fallback to the magic distance)."""
        X = rows.copy()
        B = X.shape[0]
        for d in self.ctx.permutation:
            prev = X.copy()
            fill = np.zeros_like(X, dtype=bool)
            for q, (u, v) in enumerate(self.pairs):
                blank = prev[:, q] == 0
                if not blank.any():
                    continue
                acc = np.zeros(B, dtype=bool)
                for z in range(self.n):
                    if z == u or z == v:
                        continue
                    a = prev[:, self.pair_index[(min(u, z), max(u, z))]]
                    b = prev[:, self.pair_index[(min(v, z), max(v, z))]]
                    acc |= self.opl[a, b] == d
                fill[:, q] = blank & acc
            X[fill] = d
        fallback = X == 0
        X[fallback] = self.ctx.m
        return X, fallback

    def member_batch(self, full_rows: np.ndarray) -> np.ndarray:
        """Every triangle allowed; rows must have no blanks."""
        ok = np.ones(full_rows.shape[0], dtype=bool)
        for q1, q2, q3 in self.triangles:
            ok &= self.allowed3[full_rows[:, q1], full_rows[:, q2], full_rows[:, q3]]
        return ok

    def obstruction_batch(self, rows: np.ndarray) -> np.ndarray:
        """True where the partial graph contains an obstruction cycle, found
        as a forbidden triangle or as a closed walk tracing a longer word."""
        bad = np.zeros(rows.shape[0], dtype=bool)
        for q1, q2, q3 in self.triangles:
            bad |= self.forb3[rows[:, q1], rows[:, q2], rows[:, q3]]
        rest = np.flatnonzero(~bad)
        if self.words and rest.size:
            bad[rest[self._word_scan(rows[rest])]] = True
        return bad

    def _word_scan(self, rows: np.ndarray) -> np.ndarray:
        """Closed-walk detection by transfer matrices: a walk labelled
        w exists iff the product of per-label adjacency matrices has a
        nonzero diagonal.  The trace is rotation and transpose invariant,
        so one canonical word per cycle suffices."""
        B = rows.shape[0]
        found = np.zeros(B, dtype=bool)
        if B == 0:
            return found
        adj = np.zeros((self.base, B, self.n, self.n), dtype=np.uint8)
        rix = np.arange(B)
        for q, (u, v) in enumerate(self.pairs):
            lbl = rows[:, q]
            adj[lbl, rix, u, v] = 1
            adj[lbl, rix, v, u] = 1
        adj[0] = 0
        dix = np.arange(self.n)
        for w in self.words:
            alive = np.flatnonzero(~found)
            if alive.size == 0:
                break
            m = adj[w[0]][alive]
            for l in w[1:]:
                m = np.matmul(m, adj[l][alive])
                np.minimum(m, 1, out=m)
            hit = m[:, dix, dix].any(axis=1)
            found[alive[hit]] = True
        return found
