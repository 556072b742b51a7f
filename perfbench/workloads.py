"""The seeded workloads: inputs, the pipeline each input runs, and checks.

Each workload turns a seed into an endless, deterministic stream of
inputs, runs one input through the library's public functions, and turns
the outcome into a JSON record plus a list of broken invariants.  The
library only ever sees the generated inputs.  The checks use their own
exact arithmetic, not the library's, so a wrong answer cannot vouch for
itself.

Importing this module imports `splitseq` from the checkout's `src/`.
"""

from __future__ import annotations

import random
import sys
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice
from math import lcm
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "fixtures"

sys.path.insert(0, str(ROOT / "src"))

import splitseq  # noqa: E402

if Path(splitseq.__file__).resolve().parent != ROOT / "src" / "splitseq":
    raise ImportError(f"splitseq was imported from {splitseq.__file__}, not from {ROOT / 'src'}")

from splitseq import arcdiagram, bounds, heegaard, numberfield, splitting, traintrack  # noqa: E402

GATE_SEED = 3  # the seed whose records are pinned in pins.json

MODULES = (numberfield, traintrack, splitting, bounds, arcdiagram, heegaard)

# private helper and method named by the per-layer metrics
TRACE_EXTRAS = {"numberfield": ("_is_primitive", "NumberField.refine")}


@dataclass(frozen=True)
class Result:
    record: dict  # deterministic, JSON-serialisable outcome of one input
    refused: bool  # a stage raised where it should have answered
    problems: tuple[str, ...]  # broken invariants: the answer is wrong


class Workload:
    """One seeded input stream plus the pipeline and checks for its inputs."""

    name = ""
    gate_size = 0  # inputs of the gate seed whose records are pinned
    # consecutive inputs timed together as one round; a round holds the
    # stream's whole size mix, so its time moves with the machine's speed
    # and not with which sizes a latency percentile happens to land on
    round_size = 1

    def inputs(self, seed: int):
        raise NotImplementedError

    def run(self, inp) -> dict:
        raise NotImplementedError

    def check(self, inp, out: dict) -> Result:
        raise NotImplementedError

    def gate_inputs(self) -> list:
        return list(islice(self.inputs(GATE_SEED), self.gate_size))


def _attempt(refusals: list, stage: str, fn, *args):
    """Run one stage; a stage that raises is recorded with its reason."""
    try:
        return fn(*args)
    except Exception as exc:  # the benchmark keeps going and reports the refusal
        refusals.append([stage, type(exc).__name__, str(exc)])
        return None


# ---------------------------------------------------------------------------
# exact checks in Q(alpha), independent of the library


def _reduce(coeffs: list, minpoly: tuple[int, ...]) -> list:
    """Coefficients low-to-high reduced modulo a monic polynomial."""
    d = len(minpoly) - 1
    c = list(coeffs) + [Fraction(0)] * max(0, d - len(coeffs))
    for k in range(len(c) - 1, d - 1, -1):
        top = c[k]
        if top:
            for i in range(d):
                c[k - d + i] -= top * minpoly[i]
        c[k] = Fraction(0)
    return c[:d]


def _mulmod(a, b, minpoly) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _reduce(out, minpoly)


def _interval_horner(coeffs, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    alo = ahi = Fraction(0)
    for c in reversed(coeffs):
        prods = (alo * lo, alo * hi, ahi * lo, ahi * hi)
        alo, ahi = min(prods) + c, max(prods) + c
    return alo, ahi


def exact_sign(coeffs, minpoly: tuple[int, ...], interval) -> int:
    """Sign of sum coeffs[i] * alpha**i for the root alpha isolated by `interval`."""
    coeffs = [Fraction(c) for c in coeffs]
    if not any(coeffs):
        return 0
    if len(minpoly) == 2:
        v = sum(c * Fraction(-minpoly[0]) ** i for i, c in enumerate(coeffs))
        return (v > 0) - (v < 0)
    lo, hi = Fraction(interval[0]), Fraction(interval[1])

    def p(x):
        return sum(c * x**i for i, c in enumerate(minpoly))

    for _ in range(400):
        a, b = _interval_horner(coeffs, lo, hi)
        if a > 0:
            return 1
        if b < 0:
            return -1
        mid = (lo + hi) / 2
        if p(lo) * p(mid) < 0:
            hi = mid
        else:
            lo = mid
    raise ArithmeticError("sign undecided after 400 bisections")


def eigen_problems(M, field, v) -> list[str]:
    """M v = alpha v exactly in Q(alpha), and every entry of v positive."""
    mp, iv = field.minpoly, field.root_interval
    d = len(mp) - 1
    vc = [list(x.coeffs) for x in v]
    out = []
    for i, row in enumerate(M):
        lhs = [sum(row[j] * vc[j][k] for j in range(len(row))) for k in range(d)]
        rhs = _reduce([Fraction(0)] + vc[i], mp)
        if lhs != rhs:
            out.append(f"(M v)[{i}] != lambda v[{i}]")
    if any(exact_sign(x, mp, iv) != 1 for x in vc):
        out.append("eigenvector is not strictly positive")
    return out


def _bool_rows(M) -> list[int]:
    """Nonzero pattern of a square matrix, one bitset per row."""
    return [sum(1 << j for j, x in enumerate(row) if x) for row in M]


def _bool_mul(a: list[int], b: list[int]) -> list[int]:
    out = []
    for r in a:
        acc, j = 0, 0
        while r:
            if r & 1:
                acc |= b[j]
            r >>= 1
            j += 1
        out.append(acc)
    return out


def is_primitive(rows: list[int]) -> bool:
    """Some power of the pattern is all ones; by Wielandt, power (n-1)**2 + 1 decides."""
    n = len(rows)
    e, power, base = (n - 1) ** 2 + 1, None, rows
    while e:
        if e & 1:
            power = base if power is None else _bool_mul(power, base)
        base = _bool_mul(base, base)
        e >>= 1
    return all(r == (1 << n) - 1 for r in power)


def _fracs(xs) -> list[str]:
    return [str(Fraction(x)) for x in xs]


# ---------------------------------------------------------------------------
# torus_words


R_MAT, L_MAT = ((1, 1), (0, 1)), ((1, 0), (1, 1))
CURVE = (1, 0, 1)  # normal coordinates on branches (a, b, c)
STAR = frozenset({"u"})


@dataclass(frozen=True)
class TorusInput:
    label: str  # the word
    matrix: tuple
    field: object
    eigvec: tuple
    track: object
    measure: object


class TorusWords(Workload):
    """Positive words in R and L, turned into Perron-Frobenius measures on
    the punctured-torus track; each runs every stage of the pipeline."""

    name = "torus_words"
    max_iters = 200
    gate_size = 12
    round_size = 14  # one word of each length 3..16

    def __init__(self):
        self.track, _ = traintrack.parse_track((FIXTURES / "torus_anosov.track").read_text())

    @staticmethod
    def words(seed: int):
        """Lengths cycle through 3..16 so every run sees the same size mix."""
        rng = random.Random(f"torus_words:{seed}")
        k = 0
        while True:
            n = 3 + k % 14
            w = "".join(rng.choice("RL") for _ in range(n))
            if "R" in w and "L" in w:
                yield w
                k += 1

    def prepare(self, word: str) -> TorusInput:
        M = ((1, 0), (0, 1))
        for ch in word:
            X = R_MAT if ch == "R" else L_MAT
            M = tuple(tuple(sum(M[i][k] * X[k][j] for k in range(2)) for j in range(2)) for i in range(2))
        field, v = numberfield.pf_eigendata(M)
        m = traintrack.Measure.of(field, {"a": v[0], "b": v[1], "c": v[0] + v[1]})
        return TorusInput(word, M, field, tuple(v), self.track, m)

    def inputs(self, seed: int):
        for w in self.words(seed):
            yield self.prepare(w)

    def gate_inputs(self) -> list:
        # RRRRLLLL certifies a cycle that bound_report refuses; pin that too
        return super().gate_inputs() + [self.prepare("RRRRLLLL")]

    def run(self, inp: TorusInput) -> dict:
        ref: list = []
        out = {"refusals": ref}
        cyc = out["cycle"] = _attempt(ref, "find_agol_cycle", splitting.find_agol_cycle, inp.track, inp.measure, self.max_iters)
        if cyc is None:
            return out
        sigma = arcdiagram.SpecialMark(STAR)
        rep = out["report"] = _attempt(ref, "bound_report", bounds.bound_report, cyc)
        seq = out["seq"] = _attempt(ref, "factorize", arcdiagram.factorize, cyc, sigma)
        if seq is not None:
            out["h1"] = _attempt(ref, "h1_action", arcdiagram.h1_action, seq)
        t = cyc.start_track
        basis = _attempt(ref, "normalize_basis", heegaard.normalize_basis, t, [CURVE])
        graph = basis and _attempt(ref, "dual_graph", heegaard.dual_graph, t, basis)
        assign = graph and _attempt(ref, "sigma_prime", heegaard.sigma_prime, graph)
        d = assign and _attempt(ref, "build_diagram", heegaard.build_diagram, t, graph.basis, sigma, assign)
        gens = out["gens"] = d and _attempt(ref, "count_generators", heegaard.count_generators, d)
        cut = out["cut"] = gens and _attempt(ref, "attach_tube_cutting", heegaard.attach_tube_cutting, d, gens)
        if cut and rep is not None:
            out["check"] = _attempt(ref, "verify_bound", heegaard.verify_bound, cut[0], rep)
        return out

    def check(self, inp: TorusInput, out: dict) -> Result:
        problems = eigen_problems(inp.matrix, inp.field, inp.eigvec)
        rec: dict = {"word": inp.label, "refusals": out["refusals"]}
        cyc, primitive = out["cycle"], None
        if cyc is not None:
            mp = inp.field.minpoly
            c0, c1 = cyc.lam.coeffs
            if c1 == 0:
                lam_poly = [-c0, 1]
            else:  # alpha**2 + p1 alpha + p0 = 0, lambda = c0 + c1 alpha
                tr = 2 * c0 - c1 * mp[1]
                nm = c0 * c0 - c0 * c1 * mp[1] + c1 * c1 * mp[0]
                lam_poly = [nm, -tr, 1]
            rec.update(lambda_minpoly=_fracs(lam_poly), n=cyc.n, m=cyc.m)
            rep = out.get("report")
            rec["bounds"] = None if rep is None else {
                k: getattr(rep, k) for k in ("r", "K", "c", "c_prime", "M_psi", "dd", "g", "s", "l", "m")
            }
            seq = out.get("seq")
            rec["slides"] = None if seq is None else len(seq.slides)
            h1 = out.get("h1")
            rec["h1"] = None if h1 is None else [list(r) for r in h1[1]]
            if h1 is not None:
                (a, b), (c, d) = h1[1]
                if a * d - b * c not in (1, -1):
                    problems.append(f"capped H_1 determinant {a * d - b * c}")
                lam = list(cyc.lam.coeffs)
                sq = _mulmod(lam, lam, mp)
                if any(s - (a + d) * x + (1 if k == 0 else 0) for k, (s, x) in enumerate(zip(sq, lam))):
                    problems.append(f"capped H_1 trace {a + d} is not lambda + 1/lambda")
            gens, cut = out.get("gens"), out.get("cut")
            rec["generators"] = None if cut is None else [gens.count, cut[1].count]
            chk = out.get("check")
            rec["verify_bound"] = None if chk is None else [chk.passed, list(chk.notes)]
            if chk is not None and not chk.passed:
                problems.append("verify_bound failed: " + "; ".join(chk.notes))
            # the bound needs a positive power of the cycle matrix
            primitive = is_primitive(_bool_rows(cyc.cycle_matrix.entries))
            if rep is not None and not primitive:
                problems.append("bound report for a cycle matrix with no positive power")
        # bound_report declining a cycle matrix with no positive power is the
        # correct answer (an open limitation of the cycle search); any other
        # refusal is a failure
        refused = False
        for stage, kind, msg in out["refusals"]:
            if stage == "bound_report" and kind == "NotPrimitive" and primitive is False:
                continue
            refused = True
            if stage == "bound_report" and primitive:
                problems.append(f"bound_report refused a primitive cycle matrix: {msg}")
        return Result(rec, refused, tuple(problems))


# ---------------------------------------------------------------------------
# genus-2 multicurves: the splitting paths behind genus2_perron


@dataclass(frozen=True)
class CurveInput:
    label: str
    track: object
    measure: object


class Genus2Multicurves:
    """Seeded integral measures near 10**6 on two recurrent genus-2 tracks."""

    scale = 10**6
    # the fixture of each measure in turn; genus2_perron splits the
    # genus2_44 ones
    pattern = ("genus2_44", "genus2_44", "genus2_tie")

    def __init__(self):
        self.tracks = {
            name: traintrack.parse_track((FIXTURES / f"{name}.track").read_text())[0]
            for name in sorted(set(self.pattern))
        }
        self.field = numberfield.field_create([-1, 1], (0, 2))

    def measure(self, rng: random.Random, t):
        """A positive integral solution of the switch equations.

        Three vertices of {x >= 1, switch rows x = 0} under random diagonal
        rescalings, combined with random positive integer weights so the
        largest entry lands near `scale`.
        """
        rows = traintrack.switch_coefficients(t)
        total = [0] * t.l
        for _ in range(3):
            D = [rng.randint(1, 50) for _ in range(t.l)]
            y = traintrack.feasible_point([[r[j] * D[j] for j in range(t.l)] for r in rows], t.l)
            x = [D[j] * y[j] for j in range(t.l)]
            den = lcm(*(q.denominator for q in x))
            vertex = [int(q * den) for q in x]
            c = rng.randint(1, max(1, self.scale // (3 * max(vertex))))
            total = [a + c * b for a, b in zip(total, vertex)]
        f = self.field
        return traintrack.Measure.of(f, {b: numberfield.nf_const(f, total[j]) for j, b in enumerate(t.branches)})

    def inputs(self, seed: int, only: str | None = None):
        rng = random.Random(f"genus2_multicurves:{seed}")
        k = 0
        while True:
            fx = self.pattern[k % len(self.pattern)]
            m = self.measure(rng, self.tracks[fx])
            if only is None or fx == only:
                yield CurveInput(f"{fx}#{k}", self.tracks[fx], m)
            k += 1


# ---------------------------------------------------------------------------
# genus2_perron


@dataclass(frozen=True)
class PerronInput:
    label: str  # path and position of the window
    matrix: tuple  # the window product


class Genus2Perron(Workload):
    """Products of `window` consecutive maximal-split incidence matrices from
    the genus2_44 multicurve paths of the same seed, each one call of
    pf_eigendata: the inner loop of a cycle search.

    Primitive products are rare (about 1 in 90 over seeds 0-9), come in
    runs of neighbouring windows, and cost 5 to 80 times a refusal.  Left
    to chance they would swing a run's throughput by their count alone, so
    the stream fixes the mix: input i is the next primitive window when
    i % every == first, and otherwise the next non-primitive window of lane
    i % lanes.  Refusal costs drift slowly along a path and the lanes draw
    from different paths, so consecutive inputs come from `lanes` paths.
    """

    name = "genus2_perron"
    window = 12
    every = 88
    lanes = 4
    first = 20  # the first primitive window: inside the gate, after set-up's pool
    gate_size = 24
    round_size = every  # exactly one primitive window per round

    def __init__(self):
        self.curves = Genus2Multicurves()

    def windows(self, paths):
        """(label, factors, primitive) for every square window of the next path."""
        path = next(paths)
        t, m, elems = path.track, path.measure, []
        while True:
            try:
                t, m, e, _ = splitting.maximal_split(t, m)
            except splitting.NoLargeBranch:
                break
            if len(e.rows) != len(e.cols):
                break  # a central split dropped a branch: no square products after it
            elems.append(e)
        pats = [_bool_rows(e.entries) for e in elems]
        for i in range(len(elems) - self.window + 1):
            rows = pats[i]
            for p in pats[i + 1 : i + self.window]:
                rows = _bool_mul(rows, p)
            yield f"{path.label}@{i}", elems[i : i + self.window], is_primitive(rows)

    def inputs(self, seed: int):
        """Path p feeds its non-primitive windows to lane p % lanes and its
        primitive ones to a shared queue."""
        paths = self.curves.inputs(seed, only="genus2_44")
        primitive: deque = deque()
        plain = [deque() for _ in range(self.lanes)]
        scanned = 0
        for i in count():
            queue = primitive if i % self.every == self.first else plain[i % self.lanes]
            while not queue:
                lane = plain[scanned % self.lanes]
                scanned += 1
                for label, factors, prim in self.windows(paths):
                    (primitive if prim else lane).append((label, factors))
            label, factors = queue.popleft()
            p = factors[0]
            for e in factors[1:]:
                p = splitting.incidence_compose(p, e)
            yield PerronInput(label, p.entries)

    def run(self, inp: PerronInput) -> dict:
        try:
            return {"out": numberfield.pf_eigendata(inp.matrix)}
        except numberfield.NotPerronFrobenius as exc:
            return {"out": str(exc)}

    def check(self, inp: PerronInput, out: dict) -> Result:
        got, problems = out["out"], []
        primitive = is_primitive(_bool_rows(inp.matrix))
        if isinstance(got, str):
            rec = {"input": inp.label, "refusal": got}
            if primitive:  # refusing a primitive matrix is a failure
                problems.append("refused a primitive matrix: " + got)
        else:
            field, v = got
            rec = {"input": inp.label, "minpoly": list(field.minpoly)}
            if not primitive:
                problems.append("eigendata for a matrix with no positive power")
            problems += eigen_problems(inp.matrix, field, v)
        return Result(rec, isinstance(got, str) and primitive, tuple(problems))


WORKLOADS = {w.name: w for w in (TorusWords, Genus2Perron)}
