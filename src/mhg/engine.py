"""Vectorized back end for the equivalence verifier.

Labellings of the complete graph on n vertices live on a lattice with one
axis per vertex pair and base delta + 1; digit 0 marks a blank pair.
Exhaustive verification reads two routes off whole-lattice transforms, each
closed along every axis by _close, the low axes in transposed slabs of about
1 MiB: completable_lattice closes downward from the complete rows whose
triangles are all allowed, seeded on the delta**P complete points alone,
obstruction_lattice upward from the closed walks tracing the words of F(p).
Beyond the lattice, a build holds the seed's (delta / base)**P bytes per
point, then one slab.  Sampled verification builds no lattice:
completable_batch (a greedy filling, then an exact breadth-first frontier)
and obstruction_batch answer for the drawn rows.  The batch routes read bit
planes (after Biham, FSE 1997): plane [q, l] holds one bit per row, set
where pair q has label l, so an AND or OR covers 8 rows per byte; membership
and the search's triangle filter share one triangle kernel; each batch
verdict comes back packed like a plane.  The search then fills pair-major
label columns, a blank pair's allowed labels being the AND of one label
bitmask per partner vertex: an unsigned integer read off a 2-D table by two
labels, so delta <= 63.  An exhaustive chunk is an aligned lattice block
whose planes are built, not decoded (a grid per Engine for the low pairs,
constant high pairs); a sampled chunk packs its decoded rows once.  F(p) is
read first, so its size guard refuses a tuple before any table: its cycles,
triangles included, form a trie of words, walked by (n, n) products of
adjacency planes shared across prefixes and by the lattice's seeding.
allowed3 is triangle_violations on the label cube, opl magic.oplus_rows:
the context's (+) table padded with a blank row and column.  No per-graph code lives
here: `mhg complete` and `mhg graph check` run on Python-int bitsets in
completion and graphs.

The scalar routines in completion, families and oracle stay the reference
implementations; the verifier cross-checks sampled rows against them and
treats any disagreement as an internal error rather than a finding.
"""

from __future__ import annotations

from functools import cache, cached_property
from itertools import combinations, product

import numpy as np

from .families import enumerate_forbidden
from .graphs import EdgeLabelledGraph, triangle_violations
from .magic import MagicContext, oplus_rows

_SLAB = 1 << 20  # bytes of one transposed slab in _close


def unpack(planes: np.ndarray, count: int) -> np.ndarray:
    """The first count rows of bit planes, as booleans along the last axis."""
    return np.unpackbits(planes, axis=-1, count=count, bitorder="little").view(bool)


def _close(H: np.ndarray, down: bool) -> None:
    """OR-close a lattice of shape (base,) * P in place along every axis:
    down v[0] |= v[l], up v[l] |= v[0].  High axes close in place; the low k,
    slices under 64 bytes apart, in slabs of _SLAB bytes transposed to lead."""
    base, P = H.shape[0], H.ndim
    k = min(P, next(k for k in range(1, 7) if base**k >= 64))

    def lead(A: np.ndarray, axes: int) -> np.ndarray:
        for q in range(axes):
            v = A.reshape(base**q, base, -1)
            for l in range(1, base):
                dst, src = (0, l) if down else (l, 0)
                v[:, dst] |= v[:, src]
        return A

    lead(H, P - k)
    rows, step = H.reshape(-1, base**k), max(1, _SLAB // base**k)
    for r in range(0, len(rows), step):
        rows[r : r + step] = lead(np.ascontiguousarray(rows[r : r + step].T), k).T


class Engine:
    """Tables and batch operations for one parameter context and one n.
    Rows are uint8 (B, P) arrays of any layout, one column per vertex pair
    in lexicographic order; planes are (P, base, ceil(B / 8)) bit planes,
    as Engine.planes packs."""

    def __init__(self, ctx: MagicContext, n: int):
        if not 3 <= n <= 64:
            raise ValueError(f"need 3 to 64 vertices, not {n}")
        self.ctx = ctx
        self.p = ctx.params
        # F(p) first: its size guard refuses a tuple before any table, and as
        # NON_METRIC keeps walk_bound(p) >= delta, it accepts only delta <= 12.
        # Its non-metric triangles, (1, 1, 3) among them, keep the trie nonempty.
        self.words = set(enumerate_forbidden(self.p))
        self.n = n
        self.base = self.p.delta + 1
        self.pairs: list[tuple[int, int]] = list(combinations(range(n), 2))
        self.P = len(self.pairs)
        # pair[u, v] = pair[v, u] = the index of the pair {u, v}; 0 on the diagonal.
        self.pair = np.zeros((n, n), dtype=np.intp)
        self.pair[np.triu_indices(n, 1)] = self.pair.T[np.triu_indices(n, 1)] = np.arange(self.P)
        # partners[:, q, k] = the pairs (u, z), (v, z) for pair q = (u, v)
        # and its k-th third vertex z, in increasing z.
        third = [[z for z in range(n) if z not in pr] for pr in self.pairs]
        self.partners = self.pair[np.array(self.pairs).T[:, :, None], third]
        self._grids: dict[int, tuple[np.ndarray, np.ndarray]] = {}  # block_planes' (grid, ones)
        # Pair indices of each triangle come out sorted because the pair list
        # is lexicographic; the reshape in completable_lattice relies on that.
        i, j, k = np.array(list(combinations(range(n), 3))).T
        self.triangles = np.stack([self.pair[i, j], self.pair[i, k], self.pair[j, k]], axis=1)
        self.size = self.base**self.P
        # allowed3[a, b, c]: the triangle rule, True where a label is 0 (blank).
        a, b, c = np.ix_(*[np.arange(self.base)] * 3)
        bad = np.any([hit for _, hit in triangle_violations(self.p, a, b, c)], axis=0)
        self.allowed3 = ~bad | (a * b * c == 0)
        # opl[x, y] = x (+) y, and 0 where either label is 0 (a blank pair).
        self.opl = np.array(oplus_rows(ctx))
        # The trie over the words: the labels that extend each proper prefix.
        self.next_labels: dict[tuple[int, ...], set[int]] = {}
        for w in self.words:
            for k in range(len(w)):
                self.next_labels.setdefault(w[:k], set()).add(w[k])

    @cached_property
    def _label_mask(self) -> np.ndarray:
        """The search's table, built on its first call: mask[a, b] has bit c
        set where allowed3[a, b, c], c >= 1, in the least uint for bit delta."""
        if self.base > 64:
            raise ValueError(f"the batch search needs delta <= 63, not {self.p.delta}")
        dtype = np.min_scalar_type(2**self.base - 1)
        return np.bitwise_or.reduce(self.allowed3[:, :, 1:] << np.arange(1, self.base, dtype=dtype), axis=-1)

    def decode(self, idx: np.ndarray) -> np.ndarray:
        """Lattice indices to label rows of shape (B, P), dtype uint8: the
        last pair is the fastest-varying digit.  They are the transpose of a
        C-contiguous (P, B) array.  Digits come from // and a multiply-subtract,
        in uint32 where every index fits it (so under verify's lattice cap),
        else in int64."""
        rest = np.array(idx, dtype=np.uint32 if self.size <= 2**32 else np.int64).reshape(-1)
        cols = np.empty((self.P, rest.size), dtype=np.uint8)
        for q in range(self.P - 1, -1, -1):
            quot = rest // self.base
            cols[q] = rest - quot * self.base
            rest = quot
        return cols.T

    def row_to_graph(self, row: np.ndarray) -> EdgeLabelledGraph:
        return EdgeLabelledGraph(self.n, [(u, v, l) for (u, v), l in zip(self.pairs, row.tolist()) if l])

    def completable_lattice(self) -> np.ndarray:
        """Flat boolean array over the whole lattice: the labelling extends,
        by filling blanks only, to a complete graph whose every triangle is
        allowed.  Seed = complete rows with all triangles allowed, built on the
        delta**P complete points alone; _close ORs labelled slices into blank ones."""
        seed = np.ones((self.p.delta,) * self.P, dtype=bool)
        for q1, q2, q3 in self.triangles.tolist():
            view = [1] * self.P
            view[q1] = view[q2] = view[q3] = self.p.delta
            seed &= self.allowed3[1:, 1:, 1:].reshape(view)
        H = np.zeros((self.base,) * self.P, dtype=bool)
        H[(slice(1, None),) * self.P] = seed
        del seed
        _close(H, down=True)
        return H.reshape(-1)

    def completable_batch(self, rows: np.ndarray, planes: np.ndarray) -> np.ndarray:
        """completable_lattice read at the given rows, without the lattice,
        packed like member_batch; planes are the rows' bit planes.  Rows with
        a disallowed labelled triangle drop out, through the triangle kernel
        of member_batch.  A greedy pass fills each blank pair, in
        lexicographic order, with the least label that allowed3 accepts
        against every triangle through it whose other two pairs are labelled
        or filled: the least set bit of the AND m of its partner pairs' masks,
        counted by the ones of (m & -m) - 1.  A row it fills completely is
        completable, its filling the certificate.  Rows where it gets stuck
        (m == 0) go to an exact breadth-first frontier, which expands each
        blank pair by every set bit and retires a row as soon as one of its
        children has no blanks left."""
        mask = self._label_mask

        def labels_at(X: np.ndarray, q: int, sel: np.ndarray) -> np.ndarray:
            """Bitmask of the labels allowed at pair q, per column sel picks:
            one flat take of X gathers only the partner rows."""
            a, b = X.take(self.partners[:, q, :, None] * X.shape[1] + sel)
            return np.bitwise_and.reduce(mask[a, b], axis=0)

        cols = rows.T
        out = ~unpack(self._triangle_hits(planes), len(rows))
        live = np.flatnonzero(out)
        X = cols.take(live, axis=1)
        for q in range(self.P):
            blank = np.flatnonzero(X[q] == 0)
            m = labels_at(X, q, blank)
            X[q, blank] = np.where(m != 0, np.bitwise_count((m & -m) - 1), 0)
        stuck = live[~X.all(axis=0)]
        F, owner = cols.take(stuck, axis=1), np.arange(stuck.size)
        done = np.zeros(stuck.size, dtype=bool)
        for q in range(self.P):
            blank = np.flatnonzero(F[q] == 0)
            parent, label = np.nonzero(labels_at(F, q, blank)[:, None] >> np.arange(self.base, dtype=mask.dtype) & 1)
            # The columns labelled at q, then one copy of a blank column per child.
            keep = np.concatenate([np.flatnonzero(F[q]), blank[parent]])
            F, owner = F.take(keep, axis=1), owner[keep]
            F[q, keep.size - label.size :] = label
            done[owner[F[q + 1 :].all(axis=0)]] = True
            alive = ~done[owner]
            F, owner = F.compress(alive, axis=1), owner[alive]
        out[stuck] = done
        return np.packbits(out, bitorder="little")

    def planes(self, rows: np.ndarray) -> np.ndarray:
        """Bit planes of label rows of any layout: bit i of byte j of plane
        [q, l] is set iff row 8j + i has label l at pair q (0: blank), so
        padding bits are 0."""
        out = np.empty((rows.shape[1], self.base, -(-rows.shape[0] // 8)), dtype=np.uint8)
        for l in range(self.base):
            out[:, l] = np.packbits(rows.T == l, axis=-1, bitorder="little")
        return out

    def block_planes(self, block: int, k: int) -> np.ndarray:
        """planes of the base**k lattice points from block * base**k on,
        built, not decoded: the low k pairs (the fastest digits) copy one
        grid per k, and each high pair is all ones at its digit of block."""
        if k not in self._grids:
            low = np.indices((self.base,) * k, dtype=np.uint8).reshape(k, self.base**k).T
            self._grids[k] = self.planes(low), np.packbits(np.ones(len(low), dtype=bool), bitorder="little")
        grid, ones = self._grids[k]
        out = np.zeros((self.P, self.base, ones.size), dtype=np.uint8)
        out[self.P - k :] = grid
        for q in range(self.P - k - 1, -1, -1):
            block, digit = divmod(block, self.base)
            out[q, digit] = ones
        return out

    def complete_batch(self, planes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Magic completion of every row of the planes.  Returns (completed
        planes, fallback planes): bit i of fallback[q] marks pair q of row i
        as filled by the final fallback to the magic distance.

        At the stage of distance d a blank pair (u, v) is filled when some
        third vertex z has label(u, z) (+) label(v, z) == d, read from the
        rows as they stood when the stage began: reached[q] ORs E[a, x] &
        E[b, y] over q's partner pairs (a, b) and the labels with x (+) y ==
        d, for every pair before any fill is written."""
        E = planes.copy()
        a, b = self.partners
        for d in self.ctx.permutation:
            reached = np.zeros_like(E[:, 0])
            for x in range(1, self.base):
                ys = np.flatnonzero(self.opl[x] == d)
                if ys.size:
                    union = np.bitwise_or.reduce(E[:, ys], axis=1)
                    reached |= np.bitwise_or.reduce(E[a, x] & union[b], axis=1)
            reached &= E[:, 0]
            E[:, d] |= reached
            E[:, 0] ^= reached
        fallback = E[:, 0].copy()
        E[:, self.ctx.m] |= fallback
        E[:, 0] = 0
        return E, fallback

    def _triangle_hits(self, planes: np.ndarray) -> np.ndarray:
        """Packed bits, padding bits 0: the rows where some triangle (q1, q2,
        q3) has E[q1, x] & E[q2, y] & OR{E[q3, z] : not allowed3[x, y, z]}."""
        t1, t2, t3 = self.triangles.T
        hits = np.zeros(planes.shape[-1], dtype=np.uint8)
        # The groups share few z sets, so each distinct set's union is built once.
        union = cache(lambda zs: np.bitwise_or.reduce(planes[:, zs], axis=1))
        for x, y in product(range(self.base), repeat=2):
            zs = tuple(np.flatnonzero(~self.allowed3[x, y]).tolist())
            if zs:
                hits |= np.bitwise_or.reduce(planes[t1, x] & planes[t2, y] & union(zs)[t3], axis=0)
        return hits

    def member_batch(self, planes: np.ndarray) -> np.ndarray:
        """Membership bits of complete rows (no blank pair), packed like a
        plane, padding bits 0: a row is a member unless some triangle's
        labels are not allowed3."""
        # Pair 0 holds one label per row, so its planes' union marks the rows.
        return np.bitwise_or.reduce(planes[0], axis=0) & ~self._triangle_hits(planes)

    def obstruction_batch(self, planes: np.ndarray) -> np.ndarray:
        """Packed bits, padding bits 0: the rows holding a closed walk that
        traces a word of F(p).  A[l][u, v] is the plane of label l at pair
        {u, v}, zero on the diagonal, so a closed walk of 3 edges is a
        triangle; the product out[u, z] = OR_v prod[u, v] & A[l][v, z] marks
        walks u -> z tracing the prefix (after Arlazarov, Dinic, Kronrod and
        Faradzev), closed where prod & A[l] is set, as A is symmetric;
        rotating or reversing a word keeps its walks, so one canonical word
        per cycle suffices.  The trie is walked depth-first, the stack
        holding the roots and the current path, so prefixes share products
        (after Aho and Corasick); a zero product is not extended."""
        bad = np.zeros(planes.shape[-1], dtype=np.uint8)
        A = {l: planes[self.pair, l] for l in {l for w in self.words for l in w}}
        diag = np.arange(self.n)
        for plane in A.values():
            plane[diag, diag] = 0
        stack = [((l,), A[l], iter(self.next_labels[l,])) for l in self.next_labels[()]]
        while stack:
            prefix, prod, labels = stack[-1]
            l = next(labels, None)
            if l is None:
                stack.pop()
                continue
            w = prefix + (l,)
            if w in self.words:
                bad |= np.bitwise_or.reduce(prod & A[l], axis=(0, 1))
            if w in self.next_labels:
                out = np.zeros_like(prod)
                for v in range(self.n):
                    out |= prod[:, v, None] & A[l][v]
                if out.any():
                    stack.append((w, out, iter(self.next_labels[w])))
        return bad

    def obstruction_lattice(self) -> np.ndarray:
        """obstruction_batch at every lattice point, as a flat boolean array.
        Adding labels only adds images of F(p), so the obstructed points are
        the upward closure of seeds: the closed walks tracing a word with
        only their own pairs labelled.  Walks grow along the trie as (start,
        current vertex, lattice index) sets; a step moves to another vertex,
        so a closed walk of 3 steps is a triangle, and keeps a walk where the
        pair is blank, labelling it, or carries the letter.  _close then ORs
        each axis's blank slice into its labelled ones."""
        n, pw = self.n, self.base ** np.arange(self.P - 1, -1, -1, dtype=np.int64)
        O = np.zeros(self.size, dtype=bool)

        def step(idx, cur, z, l):
            """Indices after the step cur -> z labelled l, and which walks survive it."""
            digit = idx // pw[self.pair[cur, z]] % self.base
            return idx + (digit == 0) * (l * pw[self.pair[cur, z]]), (cur != z) & ((digit == 0) | (digit == l))

        verts = np.arange(n)
        stack = [((), verts, verts, np.zeros(n, dtype=np.int64))]
        while stack:
            prefix, start, cur, idx = stack.pop()
            for l in self.next_labels[prefix]:
                w = prefix + (l,)
                if w in self.words:
                    closed, ok = step(idx, cur, start, l)
                    O[closed[ok]] = True
                if w in self.next_labels:
                    nxt, ok = step(idx[:, None], cur[:, None], verts, l)
                    s, z = np.nonzero(ok)
                    # Deduplicated by sorting: np.unique imports numpy.ma, 1.4 MiB of RSS.
                    key = np.sort((nxt[s, z] * n + start[s]) * n + z)
                    key, z = np.divmod(key[np.diff(key, prepend=-1) != 0], n)
                    key, s = np.divmod(key, n)
                    stack.append((w, s, z, key))
        _close(O.reshape((self.base,) * self.P), down=False)
        return O
