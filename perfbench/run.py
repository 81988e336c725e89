#!/usr/bin/env python3
"""Benchmark of toricreg through its command-line entry point.

Run from the repository root:

    python3 perfbench/run.py --workload reg-prime --seed 1 --seconds 25 --trace 0

Every workload calls ``toricreg.cli.main([...])`` in this process, one
caller in a closed loop, and checks each output against the pinned
values in ``perfbench/golden.json``.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, the per-layer ones with ``--trace 1``.  A traced run
first repeats the untraced passes for half its time, then runs the
passes with the layer wrappers of ``layers.py`` installed, so both wall
times are printed side by side.

A pass is the unit a user waits for: one ``reg`` call (``reg-*``), every
edge of every catalog instance (``sieve-q7``), or one ``verify`` call
(``verify-q3``).  Passes repeat until the next one would overrun
``--seconds``; there is always at least one.  The seed permutes the item
order of ``sieve-q7`` and ``verify-q3``; their outputs do not depend on it.

BLAS is pinned to one thread before numpy loads, so both sides of a
comparison run with the same thread count.  The environment is printed
with every result.

Where the pinned values come from: the ``reg-*`` regularities and
Hilbert profiles are the paper's values for parallel(3,5); the
``sieve-q7`` values are the closed forms at q=7 (the rank route for
disjoint-edges[2], which has none); the ``verify-q3`` values are where
the rank, sieve and formula routes agree.  The graph files under
``graphs/`` are the catalog instances the spec grammar cannot name.
"""

from __future__ import annotations

import argparse
import ctypes
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BLAS_THREADS = "1"
SETUP_PROBES = 15

WORKLOADS = ("reg-prime", "reg-gather", "sieve-q7", "verify-q3")


@dataclass
class Pass:
    """One pass of a workload: its time, per-item times and outcomes."""

    seconds: float = 0.0
    item_seconds: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    refused: int = 0
    problems: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)


def _call(cli, argv):
    """Run the CLI in-process; (exit code, stdout, stderr).  An escaping
    exception is recorded as exit code None with its traceback."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            rc = None
            err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


def _resolve_spec(spec):
    """Graph files in golden.json are relative to this directory."""
    if spec.startswith("file:"):
        return "file:" + str(BENCH / spec[len("file:"):])
    return spec


# -- workloads --------------------------------------------------------------


class RegWorkload:
    """One ``reg SPEC -q Q --json`` call per pass: rank, sieve and formula."""

    def __init__(self, cli, golden, rng):
        self.cli = cli
        self.g = golden
        self.q = golden["q"]
        self.specs = [golden["spec"]]

    def run(self):
        g = self.g
        t0 = time.perf_counter()
        rc, out, err = _call(self.cli, ["reg", g["spec"], "-q", str(self.q), "--json"])
        dt = time.perf_counter() - t0
        p = Pass(seconds=dt, item_seconds=[dt], attempted=1)
        if rc != 0:
            p.problems.append(f"reg exited {rc}: {err.strip()[-500:]}")
        else:
            try:
                r = json.loads(out)
                got = {k: r[k] for k in ("rank", "sieve", "formula")}
                degrees = (r["degree_formula"], r["degree_enum"])
                agree = r["agree"]
            except (ValueError, KeyError, TypeError) as exc:
                p.problems.append(f"unreadable reg output: {exc!r}")
            else:
                if any(v != g["reg"] for v in got.values()) or agree is not True:
                    p.problems.append(f"reg gave {got} agree={agree}, expected {g['reg']}")
                if degrees != (g["degree"], g["degree"]):
                    p.problems.append(f"degree {degrees}, expected {g['degree']}")
        p.failed = 1 if p.problems else 0
        return p

    def check_profiles(self, p, profiles):
        """The traced run also sees the per-degree Hilbert function."""
        if profiles is None:
            return
        if profiles != [tuple(self.g["profile"])]:
            p.problems.append(f"Hilbert profiles {profiles}, expected {self.g['profile']}")
            p.failed = 1


class SieveWorkload:
    """``reg SPEC -q 7 --method sieve --edge j --json`` for every edge of
    every catalog instance, in seeded order.  An instance refused by the
    state cap is attempted once: its other edges would be refused alike."""

    def __init__(self, cli, golden, rng):
        self.cli = cli
        self.q = golden["q"]
        self.instances = golden["instances"]
        self.specs = [_resolve_spec(i["spec"]) for i in self.instances]
        self.rng = rng

    def run(self):
        order = [(i, j) for i, inst in enumerate(self.instances) for j in range(inst["edges"])]
        self.rng.shuffle(order)
        p = Pass()
        refused = set()
        t_pass = time.perf_counter()
        for i, j in order:
            if i in refused:
                continue
            inst = self.instances[i]
            argv = ["reg", self.specs[i], "-q", str(self.q), "--method", "sieve",
                    "--edge", str(j + 1), "--json"]
            t0 = time.perf_counter()
            rc, out, err = _call(self.cli, argv)
            dt = time.perf_counter() - t0
            p.attempted += 1
            if rc == 2 and "cap" in err:
                p.refused += 1
                refused.add(i)
                continue
            p.item_seconds.append(dt)
            value = None
            if rc == 0:
                try:
                    value = json.loads(out)["value"]
                except (ValueError, KeyError, TypeError):
                    pass
            if value != inst["reg"]:
                p.failed += 1
                p.problems.append(
                    f"{inst['label']} edge {j + 1}: exit {rc}, value {value!r}, "
                    f"expected {inst['reg']} {err.strip()[-300:]}"
                )
        p.seconds = time.perf_counter() - t_pass
        return p


class VerifyWorkload:
    """One ``verify --q 3 --jobs 1 --json`` call per pass, bounds included.
    The default catalog is handed to the CLI in seeded order; the report
    is sorted, so its content does not depend on the order.  An item is
    one instance check, timed at harness.evaluate_entry."""

    def __init__(self, cli, golden, rng):
        self.cli = cli
        self.q = golden["q"]
        self.expected = golden["instances"]
        self.specs = []
        self.rng = rng
        self.item_seconds = []

    def installed(self, patch_everywhere):
        """Patch in the seeded catalog order and the per-item timer.
        Returns the undo functions and notes on what could not be patched."""
        rng = self.rng

        def shuffled(catalog):
            def default_catalog():
                entries = catalog()
                rng.shuffle(entries)
                return entries

            return default_catalog

        def timed(fn):
            sink = self.item_seconds

            def evaluate_entry(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    sink.append(time.perf_counter() - t0)

            return evaluate_entry

        undo, notes = [], []
        for target, wrap, otherwise in (
            ("toricreg.harness:default_catalog", shuffled, "the catalog keeps its order"),
            ("toricreg.harness:evaluate_entry", timed, "items are whole passes"),
        ):
            found = patch_everywhere(target, wrap)
            if isinstance(found, str):
                notes.append(f"{found}; {otherwise}")
            else:
                undo.append(found)
        return undo, notes

    def run(self):
        self.item_seconds.clear()
        t0 = time.perf_counter()
        rc, out, err = _call(self.cli, ["verify", "--q", str(self.q), "--jobs", "1", "--json"])
        dt = time.perf_counter() - t0
        n = len(self.expected)
        p = Pass(seconds=dt, item_seconds=list(self.item_seconds) or [dt], attempted=n)
        try:
            reports = json.loads(out) if rc == 0 else None
        except ValueError:
            reports = None
        if not isinstance(reports, list):
            p.failed = n
            p.problems.append(f"verify exited {rc}: {err.strip()[-500:]}")
            return p
        seen = {r.get("spec"): r for r in reports if isinstance(r, dict)}
        for label, want in self.expected.items():
            r = seen.get(label)
            if r is None:
                p.problems.append(f"{label}: missing from the verify report")
                p.failed += 1
                continue
            values = [r.get(k) for k in ("rank", "sieve", "formula")]
            ints = [v for v in values if isinstance(v, int)]
            ok = (
                ints
                and all(v == want["reg"] for v in ints)
                and r.get("degree_formula") == want["degree"]
                and r.get("degree_enum") == want["degree"]
                and r.get("agree") is True
            )
            if not ok:
                p.failed += 1
                p.problems.append(
                    f"{label}: got {values} {r.get('degree_enum')}, expected {want}"
                )
        extra = set(seen) - set(self.expected)
        if extra:
            p.problems.append(f"unexpected instances in the report: {sorted(extra)}")
        return p


CLASSES = {
    "reg-prime": RegWorkload,
    "reg-gather": RegWorkload,
    "sieve-q7": SieveWorkload,
    "verify-q3": VerifyWorkload,
}


# -- measurement --------------------------------------------------------------


def measure(run_pass, budget):
    """Passes until the next one would overrun `budget` seconds; at least one."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass())
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(p.seconds for p in passes) > budget:
            return passes


def setup_seconds(q, specs):
    """Median set-up time over fresh interpreters, and all samples."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(q), *specs],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples), samples


def percentiles(values):
    """p50 and p90, interpolated between order statistics."""
    if len(values) == 1:
        return values[0], values[0]
    cuts = statistics.quantiles(values, n=10, method="inclusive")
    return cuts[4], cuts[8]


def environment(loadavg):
    import numpy as np

    env = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": loadavg,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": None,
        "blas_threads": None,
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        pass
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                env["blas_threads"] = fn()
                break
    if env["blas_threads"] is None:
        env["blas_threads"] = f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}"
    return env


def declared_metrics():
    """Metric name -> unit for both modes, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(passes, setup):
    attempted = sum(p.attempted for p in passes)
    refused = sum(p.refused for p in passes)
    failed = sum(p.failed for p in passes)
    items = [t for p in passes for t in p.item_seconds]
    seconds = sum(p.seconds for p in passes)
    p50, p90 = percentiles(items)
    return {
        "setup_s": _metric(setup, "s"),
        "wall_s": _metric(statistics.median(p.seconds for p in passes), "s"),
        "items_per_s": _metric((attempted - refused) / seconds, "1/s"),
        "item_s.p50": _metric(p50, "s"),
        "item_s.p90": _metric(p90, "s"),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "answered_frac": _metric((attempted - refused - failed) / attempted, "ratio"),
    }, len(items)


def per_layer(untraced, traced, layer_metrics, absent):
    out = {}
    for name, (unit, _, _) in layer_metrics.items():
        if name in absent:
            out[name] = {"value": 0, "unit": unit, "absent": absent[name]}
        else:
            # median_low keeps computed counts exact integers
            mid = statistics.median_low if unit == "count" else statistics.median
            out[name] = _metric(mid(p.layers[name] for p in traced), unit)
    out["caps.refused"] = _metric(statistics.median_low(p.refused for p in traced), "count")
    wall = statistics.median(p.seconds for p in traced)
    base = statistics.median(p.seconds for p in untraced)
    out["trace.wall_s"] = _metric(wall, "s")
    out["trace.untraced_wall_s"] = _metric(base, "s")
    out["trace.overhead_frac"] = _metric(wall / base - 1, "ratio")
    return out


def main(argv=None):
    loadavg = list(os.getloadavg())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    os.environ.pop("TORICREG_MAX_STATES", None)  # default caps on both sides

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import toricreg.cli as cli
    except ImportError as exc:
        print(f"error: cannot import toricreg from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: toricreg loaded from {cli.__file__}, not {ROOT}", file=sys.stderr)
        return 2
    import layers

    e2e_units, layer_units = declared_metrics()
    golden = json.loads((BENCH / "golden.json").read_text())[args.workload]
    rng = random.Random(args.seed)
    workload = CLASSES[args.workload](cli, golden, rng)
    env = environment(loadavg)
    print("env " + json.dumps(env))

    setup, setup_samples = setup_seconds(workload.q, workload.specs)
    undo, notes = [], []
    if isinstance(workload, VerifyWorkload):
        undo, notes = workload.installed(layers.patch_everywhere)
    for note in notes:
        print(f"note: {note}")
    try:
        if args.trace == 0:
            passes = measure(workload.run, args.seconds)
            traced = []
        else:
            passes = measure(workload.run, args.seconds / 2)
            tracer = layers.Tracer()

            def traced_pass():
                tracer.reset()
                p = workload.run()
                p.layers, _ = layers.layer_values(tracer)
                if isinstance(workload, RegWorkload):
                    workload.check_profiles(p, tracer.profiles())
                return p

            with tracer.installed():
                traced = measure(traced_pass, args.seconds / 2)
    finally:
        for u in reversed(undo):
            u()

    every = passes + traced
    attempted = sum(p.attempted for p in every)
    failed = sum(p.failed for p in every)
    problems = [msg for p in every for msg in p.problems]
    for msg in problems[:20]:
        print(f"problem: {msg}", file=sys.stderr)

    print(f"workload {args.workload} seed {args.seed}: {len(passes)} untraced and "
          f"{len(traced)} traced passes, {attempted} items attempted, {failed} failed "
          f"(failed_frac {failed / attempted}), "
          f"{sum(p.refused for p in every)} refused by a cap")
    print("pass seconds: " + " ".join(f"{p.seconds:.4f}" for p in every))
    if args.trace == 0:
        metrics, samples = end_to_end(passes, setup)
        expected = e2e_units
        print(f"setup_s samples: {setup_samples}")
        print(f"item_s percentiles over {samples} item samples")
    else:
        _, absent = layers.layer_values(tracer)
        metrics = per_layer(passes, traced, layers.LAYER_METRICS, absent)
        expected = layer_units
        for name, reason in absent.items():
            print(f"absent: {name}: {reason}")
        print(f"wall_s traced {metrics['trace.wall_s']['value']:.4f} s, "
              f"untraced {metrics['trace.untraced_wall_s']['value']:.4f} s")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != expected:
        print(f"error: metrics {got} differ from BENCHMARK.json {expected}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
