"""Output checks computed apart from mhg.

Everything here is written from the paper's definitions, not from the
package: the triangle rules of a 3-constrained class, brute-force
completability, canonical cycles and the graph counts of a sweep.  Each
check returns a list of problems; an empty list means the output passed.
Parameter tuples are plain (delta, K1, K2, C0, C1) tuples.
"""

from __future__ import annotations

import random
from itertools import combinations, product
from math import comb

import numpy as np

# Spot checks verify_equivalence makes per vertex count: scalar search,
# magic completion, witness search, each on min(cap, rows) rows.
SPOT_CAPS = {"search": 200, "magic": 50, "witness": 12}


def triangle_ok(p, a: int, b: int, c: int) -> bool:
    """Allowed triangle: metric; odd perimeter q with shortest side m needs
    2K1 < q < 2K2 + 2m and q < C1; even perimeter needs q < C0."""
    _, k1, k2, c0, c1 = p
    q = a + b + c
    if 2 * max(a, b, c) > q:
        return False
    if q % 2:
        return 2 * k1 < q < 2 * k2 + 2 * min(a, b, c) and q < c1
    return q < c0


def allowed_table(p) -> np.ndarray:
    d = p[0]
    t = np.zeros((d + 1,) * 3, dtype=bool)
    for a, b, c in product(range(1, d + 1), repeat=3):
        t[a, b, c] = triangle_ok(p, a, b, c)
    return t


def label_matrix(n: int, edges) -> np.ndarray:
    m = np.zeros((n, n), dtype=np.int64)
    for u, v, l in edges:
        m[u, v] = m[v, u] = l
    return m


def is_member(p, n: int, edges) -> bool:
    """Complete, labels in 1..delta, every triangle allowed."""
    if len(edges) != n * (n - 1) // 2:
        return False
    if any(not 1 <= l <= p[0] for _, _, l in edges):
        return False
    t = allowed_table(p)
    m = label_matrix(n, edges)
    for i in range(n - 2):
        row = m[i, i + 1 :]
        ok = t[row[:, None], row[None, :], m[i + 1 :, i + 1 :]]
        if np.triu(~ok, 1).any():
            return False
    return True


def completable(p, n: int, edges) -> bool:
    """Brute force: some filling of the blank pairs makes every triangle
    allowed.  Blanks are filled in order, pruning on closed triangles."""
    lab = {(min(u, v), max(u, v)): l for u, v, l in edges}
    for u, v, w in combinations(range(n), 3):
        ls = (lab.get((u, v)), lab.get((u, w)), lab.get((v, w)))
        if None not in ls and not triangle_ok(p, *ls):
            return False
    blanks = [pr for pr in combinations(range(n), 2) if pr not in lab]

    def fits(u: int, v: int, l: int) -> bool:
        for z in range(n):
            if z in (u, v):
                continue
            a, b = lab.get((min(u, z), max(u, z))), lab.get((min(v, z), max(v, z)))
            if a is not None and b is not None and not triangle_ok(p, a, b, l):
                return False
        return True

    def fill(i: int) -> bool:
        if i == len(blanks):
            return True
        u, v = blanks[i]
        for l in range(1, p[0] + 1):
            if fits(u, v, l):
                lab[(u, v)] = l
                if fill(i + 1):
                    return True
                del lab[(u, v)]
        return False

    return fill(0)


def random_member(p, n: int, rng: random.Random) -> list[tuple[int, int, int]]:
    """A complete member on n vertices, labels tried in random order.  Pairs
    go in lexicographic order, so (u, v) closes the triangles {z, u, v} with
    z < u."""
    pairs = list(combinations(range(n), 2))
    lab: dict[tuple[int, int], int] = {}

    def fill(i: int) -> bool:
        if i == len(pairs):
            return True
        u, v = pairs[i]
        labels = list(range(1, p[0] + 1))
        rng.shuffle(labels)
        for l in labels:
            if all(
                triangle_ok(p, lab[(min(u, z), max(u, z))], lab[(min(v, z), max(v, z))], l)
                for z in range(u)
            ):
                lab[(u, v)] = l
                if fill(i + 1):
                    return True
                del lab[(u, v)]
        return False

    if not fill(0):
        raise ValueError(f"no member on {n} vertices for {p}")
    return [(u, v, l) for (u, v), l in sorted(lab.items())]


def random_partial(p, n: int, rng: random.Random) -> list[tuple[int, int, int]]:
    """Uniform lattice point: each pair blank or labelled 1..delta."""
    edges = []
    for u, v in combinations(range(n), 2):
        l = rng.randint(0, p[0])
        if l:
            edges.append((u, v, l))
    return edges


def canonical_cycle(labels) -> tuple[int, ...]:
    t = tuple(labels)
    return min(s[i:] + s[:i] for s in (t, t[::-1]) for i in range(len(t)))


def forbidden_triangles(p) -> set[tuple[int, int, int]]:
    d = p[0]
    return {
        canonical_cycle(t)
        for t in product(range(1, d + 1), repeat=3)
        if not triangle_ok(p, *t)
    }


def rows_per_n(delta: int, n_max: int, sample: int | None) -> list[int]:
    """Rows a sweep checks per vertex count: every lattice point for
    n = 3..n_max, or the sample at n_max."""
    if sample is not None:
        return [sample]
    return [(delta + 1) ** comb(n, 2) for n in range(3, n_max + 1)]


def check_report(obj: dict, p, n_max: int, sample: int | None, seed: int) -> list[str]:
    """A verify_equivalence report, as its JSON object: the routes agree,
    the graph count is the lattice size or the sample, and every spot check
    ran on min(cap, rows) rows."""
    bad = []
    if list(obj["params"]) != list(p):
        bad.append(f"params {obj['params']} != {list(p)}")
    if not obj["ok"] or obj["witness_mismatch_count"] or obj["magic_mismatch_count"]:
        bad.append(
            f"route mismatch: witness {obj['witness_mismatch_count']}"
            f" magic {obj['magic_mismatch_count']}"
        )
    rows = rows_per_n(p[0], n_max, sample)
    if obj["graphs_checked"] != sum(rows):
        bad.append(f"graphs_checked {obj['graphs_checked']} != {sum(rows)}")
    sc = obj["spot_checks"]
    got = {
        "search": sc["search"] + sc["search_skipped"],
        "magic": sc["magic"],
        "witness": sc["witness"],
    }
    for kind, cap in SPOT_CAPS.items():
        want = sum(min(cap, r) for r in rows)
        if got[kind] != want:
            bad.append(f"{kind} spot checks {got[kind]} != {want}")
    if sample is not None and (obj["sample"] != sample or obj["seed"] != seed):
        bad.append(f"sample/seed echo {obj['sample']}/{obj['seed']} != {sample}/{seed}")
    return bad


def check_completion(p, n: int, given, out_n: int, out_edges) -> list[str]:
    """A completion keeps n and every input edge, labels every pair once,
    and uses labels in 1..delta."""
    bad = []
    if out_n != n:
        bad.append(f"completion has {out_n} vertices, input {n}")
    lab = {}
    for u, v, l in out_edges:
        key = (min(u, v), max(u, v))
        if key in lab:
            bad.append(f"pair {key} labelled twice")
        lab[key] = l
    for u, v, l in given:
        if lab.get((min(u, v), max(u, v))) != l:
            bad.append(f"input edge ({u}, {v}, {l}) not kept")
    if len(lab) != n * (n - 1) // 2:
        bad.append(f"{len(lab)} labelled pairs, complete graph has {n * (n - 1) // 2}")
    if any(not 1 <= l <= p[0] for l in lab.values()):
        bad.append("label outside 1..delta")
    return bad


def check_walk(n: int, edges, walk, cycle) -> list[str]:
    """A reported witness walk is a closed walk of the graph whose label
    sequence is the reported cycle, up to rotation and reflection."""
    lab = {(min(u, v), max(u, v)): l for u, v, l in edges}
    if len(walk) < 3 or any(not 0 <= v < n for v in walk):
        return [f"walk {walk} is not a walk of length >= 3 on {n} vertices"]
    steps = list(zip(walk, walk[1:] + walk[:1]))
    labels = [lab.get((min(u, v), max(u, v))) for u, v in steps]
    if None in labels:
        return [f"walk {walk} is not closed along edges of the graph"]
    if canonical_cycle(labels) != tuple(cycle):
        return [f"walk labels {labels} do not give cycle {list(cycle)}"]
    return []
