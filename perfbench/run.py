#!/usr/bin/env python3
"""Benchmark of the splitseq pipeline on two seeded workloads.

    python3 perfbench/run.py                      # every workload, seed 3, 48 s each
    python3 perfbench/run.py --workload torus_words --seed 3 --seconds 10 --trace 0
    python3 perfbench/run.py --workload genus2_perron --trace 1
    python3 perfbench/run.py --write-pins         # re-pin the gate records

One workload runs in one single-threaded process, closed loop: each input
starts when the previous one has finished.  `--trace 0` prints the
end-to-end metrics; `--trace 1` runs a fixed slice of the same stream with
spans around every library function and prints the per-layer metrics.
Either way the last line of standard output is one JSON object, and the
exit code is non-zero when any output is wrong: a gate record that differs
from its pin, or a broken invariant.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
PINS = HERE / "pins.json"
OUT = HERE / "out"

WORKLOADS = ("torus_words", "genus2_perron")
# set-up samples: this process, then fresh interpreters, half of them
# before the timed loop and half after, so a burst of machine speed at one
# moment of the run cannot set the median
SETUP_SAMPLES = 5
# inputs made during set-up; a run that needs more makes them untimed
POOL = {"torus_words": 64, "genus2_perron": 16}
# the traced run covers a fixed slice of the stream, so counts repeat exactly
TRACE_INPUTS = {"torus_words": 28, "genus2_perron": 88}

END_TO_END = {
    "setup_s": "s",
    "inputs_per_s": "1/s",
    "round_p50_ms": "ms",
    "input_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

_LAYERS = {
    "numberfield": [
        "nf_sign.calls", "nf_sign.self_s", "NumberField.refine.calls",
        "sturm_count.calls", "sturm_count.self_s", "nf_arith.calls", "nf_arith.self_s",
        "pf_eigendata.calls", "pf_eigendata.self_s", "pf_eigendata.primitive_ratio",
        "_is_primitive.calls", "_is_primitive.self_s",
    ],
    "traintrack": [
        "parse_track.self_s", "check_measure.calls", "check_measure.self_s",
        "canonical_form.calls", "canonical_form.self_s", "track_isomorphisms.calls",
        "track_isomorphisms.self_s", "regions.calls", "regions.self_s",
    ],
    "splitting": [
        "find_agol_cycle.s", "find_agol_cycle.self_s", "maximal_split.calls",
        "split.calls", "split.self_s", "track_id.calls", "track_id.self_s",
        "incidence_compose.calls", "incidence_compose.self_s",
    ],
    "bounds": ["bound_report.s", "c_of_psi.self_s", "power_positive_K.self_s", "bound_report.refused"],
    "arcdiagram": ["factorize.s", "factorize.self_s", "factorize.slides", "h1_action.s"],
    "heegaard": [
        "normalize_basis.s", "dual_graph.s", "build_diagram.s",
        "count_generators.s", "verify_bound.s", "generators",
    ],
}
_UNITS = {"calls": "count", "s": "s", "self_s": "s", "refused": "count", "slides": "count",
          "generators": "count", "primitive_ratio": "ratio", "overhead_ratio": "ratio"}
PER_LAYER = {
    f"{mod}.{m}": _UNITS[m.rsplit(".", 1)[-1]] for mod, ms in _LAYERS.items() for m in ms
}
PER_LAYER["trace.overhead_ratio"] = "ratio"


def digest(records: list) -> str:
    blob = json.dumps(records, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def gate_errors(name: str, records: list, pins: dict) -> list[str]:
    """Empty when the gate records hash to the pinned digest."""
    pin = pins.get(name)
    if pin is None:
        return [f"no pin for {name} in {PINS.name}"]
    if pin["inputs"] != len(records) or pin["digest"] != digest(records):
        return [f"{name}: gate records differ from the pinned digest {pin['digest'][:12]}"]
    return []


def load_pins() -> dict:
    return json.loads(PINS.read_text()) if PINS.exists() else {}


def setup(name: str, seed: int):
    """Import the library and make the first POOL inputs; returns (seconds, workload, inputs)."""
    t0 = time.perf_counter()
    import workloads

    w = workloads.WORKLOADS[name]()
    stream = w.inputs(seed)
    pool = list(itertools.islice(stream, POOL[name]))
    return time.perf_counter() - t0, w, itertools.chain(pool, stream)


def setup_probe(name: str, seed: int) -> float:
    """Set-up time in a fresh interpreter, imports included."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    return float(done.stdout.split()[-1])


def run_gate(w) -> tuple[list, list[str]]:
    records, problems = [], []
    for inp in w.gate_inputs():
        res = w.check(inp, w.run(inp))
        records.append(res.record)
        problems += [f"gate {inp.label}: {p}" for p in res.problems]
    return records, problems


def gate(w) -> list[str]:
    """Broken invariants on the gate inputs, or a digest that differs from its pin."""
    records, problems = run_gate(w)
    return problems + gate_errors(w.name, records, load_pins())


class Tally:
    """Outcome counts over the measured inputs."""

    def __init__(self):
        self.attempted = self.failed = self.declined = 0
        self.refusals: Counter = Counter()
        self.problems: list[str] = []
        self.records: list = []

    def add(self, inp, res) -> None:
        self.attempted += 1
        self.failed += bool(res.refused or res.problems)
        self.declined += bool(res.record.get("refusals")) and not res.refused
        for stage, kind, msg in res.record.get("refusals", ()):
            self.refusals[(stage, kind, msg)] += 1
        self.problems += [f"{inp.label}: {p}" for p in res.problems]
        self.records.append(res.record)

    def report(self) -> None:
        ratio = self.failed / self.attempted if self.attempted else 0.0
        print(f"  {'failed_ratio':<14} {ratio:.4f} ratio  ({self.failed} of {self.attempted} inputs)")
        if self.declined:
            print(f"  {'declined':<14} {self.declined} of {self.attempted} inputs: a stage refused, "
                  "and the check confirms the refusal is the correct answer")
        for (stage, kind, msg), n in sorted(self.refusals.items()):
            print(f"  refused x{n}: stage {stage}: {kind}: {msg}")
        for p in self.problems[:20]:
            print(f"  WRONG: {p}")


def quantile(xs: list[float], q: float) -> float:
    if len(xs) < 2:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[round(q * 100) - 1]


def measure(name: str, seed: int, seconds: float) -> tuple[dict, Tally, list[str]]:
    setup_s, w, stream = setup(name, seed)
    probes = SETUP_SAMPLES - 1
    samples = [setup_s] + [setup_probe(name, seed) for _ in range(probes // 2)]
    errors = gate(w)

    tally, lat, busy = Tally(), [], 0.0
    clock = time.perf_counter
    while busy < seconds or len(lat) % w.round_size:
        inp = next(stream)
        t0 = clock()
        out = w.run(inp)
        dt = clock() - t0
        busy += dt
        lat.append(dt)
        tally.add(inp, w.check(inp, out))
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    samples += [setup_probe(name, seed) for _ in range(probes - probes // 2)]
    r = w.round_size
    rounds = [sum(lat[i : i + r]) for i in range(0, len(lat), r)]
    metrics = {
        "setup_s": statistics.median(samples),
        "inputs_per_s": len(lat) / busy,
        "round_p50_ms": 1000 * statistics.median(rounds),
        "input_p90_ms": 1000 * quantile(lat, 0.9),
        "peak_rss_mb": rss,
    }
    print(f"workload {name}  seed {seed}  {len(lat)} inputs in {len(rounds)} rounds of {r}, {busy:.2f} s busy")
    print(f"  setup samples (s): {' '.join(f'{x:.4f}' for x in samples)}")
    return metrics, tally, errors


def traced(name: str, seed: int) -> tuple[dict, Tally, list[str]]:
    import spans
    import workloads

    errors = gate(workloads.WORKLOADS[name]())

    tracer = spans.Tracer(workloads.TRACE_EXTRAS)
    clock = time.perf_counter
    tracer.install(workloads.MODULES)
    try:
        w = workloads.WORKLOADS[name]()  # fixtures parse under the tracer
        inputs = list(itertools.islice(w.inputs(seed), TRACE_INPUTS[name]))
        outs, traced_s = [], 0.0
        for k, inp in enumerate(inputs):
            tracer.input_id = k
            t0 = clock()
            outs.append(w.run(inp))
            traced_s += clock() - t0
            tracer.input_id = -1
    finally:
        tracer.uninstall()
    plain_s = 0.0
    for inp in inputs:
        t0 = clock()
        w.run(inp)
        plain_s += clock() - t0

    tally = Tally()
    for inp, out in zip(inputs, outs):
        tally.add(inp, w.check(inp, out))
    recorded = tracer.spans()
    totals = spans.layer_totals(recorded)
    metrics = {}
    for metric in PER_LAYER:
        fn, _, stat = metric.rpartition(".")
        t = totals.get(fn, spans.LayerTotal())
        if stat == "primitive_ratio":
            metrics[metric] = (t.calls - t.errors) / t.calls if t.calls else 0.0
        elif stat == "slides":
            metrics[metric] = sum(r.get("slides") or 0 for r in tally.records)
        elif stat == "generators":
            metrics[metric] = sum((r.get("generators") or [0])[0] for r in tally.records)
        elif stat == "overhead_ratio":
            metrics[metric] = traced_s / plain_s
        else:
            metrics[metric] = {"calls": t.calls, "s": t.s, "self_s": t.self_s, "refused": t.errors}[stat]

    print(f"workload {name}  seed {seed}  traced {len(inputs)} inputs: "
          f"{traced_s:.3f} s traced, {plain_s:.3f} s untraced, {len(recorded)} spans")
    timed = spans.layer_totals(recorded, setup=False)
    print(f"  share of traced input time ({traced_s:.3f} s), top self times; inclusive in brackets:")
    for fn, t in sorted(timed.items(), key=lambda kv: -kv[1].self_s)[:12]:
        print(f"    {fn:<36} self {100 * t.self_s / traced_s:5.1f}%  [{100 * t.s / traced_s:5.1f}%]  calls {t.calls}")
    dump_path = OUT / f"spans-{name}-seed{seed}.json"
    spans.dump(dump_path, recorded, {"workload": name, "seed": seed, "inputs": [i.label for i in inputs]})
    print(f"  spans written to {dump_path.relative_to(HERE.parent)}")
    return metrics, tally, errors


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    units = PER_LAYER if trace else END_TO_END
    metrics, tally, errors = traced(name, seed) if trace else measure(name, seed, seconds)
    for key, unit in units.items():
        print(f"  {key:<40} {metrics[key]:.6g} {unit}")
    tally.report()
    for e in errors:
        print(f"  WRONG: {e}")
    correct = not errors and not tally.problems
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if correct else 1


def write_pins(names) -> int:
    import workloads

    pins = load_pins()
    for name in names:
        records, problems = run_gate(workloads.WORKLOADS[name]())
        if problems:
            print("\n".join(problems))
            return 1
        pins[name] = {"seed": workloads.GATE_SEED, "inputs": len(records), "digest": digest(records)}
        print(f"{name}: pinned {len(records)} records, digest {pins[name]['digest']}")
    PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=3, help="input seed (default: the gate seed, 3)")
    ap.add_argument("--seconds", type=float, default=48.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-pins", action="store_true", help="record the gate digests in pins.json")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if args.write_pins:
        return write_pins(names)
    if args.setup_probe:
        print(f"{setup(args.workload, args.seed)[0]!r}")
        return 0
    if args.workload != "all":
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    status = 0
    for name in names:  # one fresh process per workload
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, timeout=900).returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
