#!/usr/bin/env python3
"""Search for measured tracks whose maximal-split orbit is periodic.

Strategy: splits with the left/right case chosen freely (no measure) connect
finitely many track shapes.  Build that graph from a seed, enumerate its
directed cycles, and for each cycle compose the incidence matrices: if the
product is primitive, its dominant eigenvector is a measure candidate, which
the exact detector then confirms or rejects.

Usage: python3 scripts/find_cycles.py SEED.track [--max-classes N]
       [--max-len L] [--limit K] [--budget W] [--out DIR]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from splitseq.numberfield import NotPerronFrobenius, pf_eigendata
from splitseq.splitting import (
    CarryingMatrix,
    NoCycleWithinBudget,
    SplitCase,
    cycle_report,
    find_agol_cycle,
    incidence_compose,
    is_large_branch,
    split_surgery,
)
from splitseq.traintrack import (
    Measure,
    TrainTrack,
    canonical_form,
    parse_track,
    serialize_track,
    track_isomorphisms,
    validate,
)


def class_graph(seed: TrainTrack, max_classes: int):
    """Shapes reachable by free splits, one representative track per shape.

    Returns (reps, edges): reps maps the canonical word to its representative
    track, edges[word] lists (label, dst_word, matrix) with the matrix taking
    measures on the destination representative back to the source one.
    """
    w0, _ = canonical_form(seed)
    reps = {w0: seed}
    order = [w0]
    edges: dict = {w0: []}
    queue = [w0]
    while queue:
        w = queue.pop(0)
        t = reps[w]
        for b in t.branches:
            if not is_large_branch(t, b):
                continue
            for case in (SplitCase.LEFT, SplitCase.RIGHT):
                t2, elem = split_surgery(t, b, case)
                w2, _ = canonical_form(t2)
                if w2 not in reps:
                    if len(reps) >= max_classes:
                        continue
                    reps[w2] = t2
                    order.append(w2)
                    edges[w2] = []
                    queue.append(w2)
                    edges[w].append((f"{b}:{case.value}", w2, elem))
                else:
                    for iso in track_isomorphisms(t2, reps[w2]):
                        mat = incidence_compose(elem, CarryingMatrix.of_iso(t2, reps[w2], iso))
                        edges[w].append((f"{b}:{case.value}", w2, mat))
    return reps, order, edges


def _sccs(order, edges):
    """Strongly connected component id per class, by Kosaraju's two passes."""
    idx = {w: i for i, w in enumerate(order)}
    n = len(order)
    adj = [[idx[d] for _, d, _ in edges[w]] for w in order]
    radj: list = [[] for _ in range(n)]
    for u, outs in enumerate(adj):
        for v in outs:
            radj[v].append(u)
    seen = [False] * n
    post = []
    for s in range(n):
        if seen[s]:
            continue
        seen[s] = True
        stack = [(s, iter(adj[s]))]
        while stack:
            u, it = stack[-1]
            for v in it:
                if not seen[v]:
                    seen[v] = True
                    stack.append((v, iter(adj[v])))
                    break
            else:
                post.append(u)
                stack.pop()
    comp = [-1] * n
    c = 0
    for s in reversed(post):
        if comp[s] != -1:
            continue
        comp[s] = c
        stack = [s]
        while stack:
            u = stack.pop()
            for v in radj[u]:
                if comp[v] == -1:
                    comp[v] = c
                    stack.append(v)
        c += 1
    return comp


def closed_walks(base: int, order, edges, comp, max_len: int):
    """Edge walks from base back to itself, shortest first, same component."""
    idx = {w: i for i, w in enumerate(order)}
    # distance back to base within the component, for pruning
    n = len(order)
    dist = [None] * n
    dist[base] = 0
    frontier = [base]
    radj: dict = {}
    for u in range(n):
        if comp[u] != comp[base]:
            continue
        for _, d, _ in edges[order[u]]:
            if comp[idx[d]] == comp[base]:
                radj.setdefault(idx[d], []).append(u)
    while frontier:
        nxt = []
        for v in frontier:
            for u in radj.get(v, ()):  # u -> v
                if dist[u] is None:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        frontier = nxt

    for length in range(1, max_len + 1):
        stack = [(base, [])]
        while stack:
            node, path = stack.pop()
            for label, dst, mat in edges[order[node]]:
                j = idx[dst]
                if len(path) + 1 == length:
                    if j == base:
                        yield path + [(label, mat)]
                elif (
                    comp[j] == comp[base]
                    and dist[j] is not None
                    and len(path) + 1 + dist[j] <= length
                ):
                    stack.append((j, path + [(label, mat)]))


def verified_cycles(seed: TrainTrack, max_classes: int, max_len: int, budget: int):
    reps, order, edges = class_graph(seed, max_classes)
    print(f"# class graph: {len(reps)} shapes, {sum(map(len, edges.values()))} edges")
    comp = _sccs(order, edges)
    from collections import Counter

    csize = Counter(comp)
    bases = [i for i, w in enumerate(order) if csize[comp[i]] > 1 or
             any(d == w for _, d, _ in edges[w])]
    bases.sort(key=lambda i: (csize[comp[i]], i))
    seen = set()
    tried = 0
    for base in bases:
        t0 = reps[order[base]]
        for path in closed_walks(base, order, edges, comp, max_len):
            tried += 1
            if tried > budget:
                return
            mat = path[0][1]
            for _, m in path[1:]:
                mat = incidence_compose(mat, m)
            try:
                field, vec = pf_eigendata(mat.entries)
            except NotPerronFrobenius:
                continue
            m0 = Measure.of(field, {b: vec[i] for i, b in enumerate(t0.branches)})
            try:
                cyc = find_agol_cycle(t0, m0, max_iters=4 * len(path) + 20)
            except NoCycleWithinBudget:
                continue
            key = (order[base], cyc.m, field.minpoly)
            if key in seen:
                continue
            seen.add(key)
            yield t0, m0, cyc, [p[0] for p in path]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("seed")
    ap.add_argument("--max-classes", type=int, default=2000)
    ap.add_argument("--max-len", type=int, default=12)
    ap.add_argument("--limit", type=int, default=8)
    ap.add_argument("--budget", type=int, default=100000, help="walks to test")
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    seed, _ = parse_track(Path(args.seed).read_text())
    rep = validate(seed)
    if not (rep.filling and rep.generic):
        sys.exit("seed track must be filling and trivalent")

    count = 0
    for t0, m0, cyc, word in verified_cycles(
        seed, args.max_classes, args.max_len, args.budget
    ):
        count += 1
        print(f"--- cycle {count} (word {' '.join(word)})")
        print(cycle_report(cyc), end="")
        if args.out:
            outdir = Path(args.out)
            outdir.mkdir(parents=True, exist_ok=True)
            path = outdir / f"cycle_{count:02d}.track"
            path.write_text(serialize_track(t0, m0))
            print(f"wrote {path}")
        if count >= args.limit:
            break
    if count == 0:
        print("no cycles found within the budget")


if __name__ == "__main__":
    main()
