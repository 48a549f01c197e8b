"""Repository benchmark for bprf: one command, every metric by name.

    python3 perfbench/run.py --workload small-matrix --seed 1 --seconds 45 --trace 0

Run from the repository root.  The package is imported from `src/`, and
the `bprf dist` subprocesses get the same directory on PYTHONPATH, so
nothing needs installing.  The load is a closed loop with one caller:
each operation starts when the previous one has finished, and at most
one subprocess runs at a time.

A run repeats whole rounds of the same operations until `--seconds` have
passed, then reports medians.  Each timing is scaled to the host's speed
by the reference kernel timed around it (see `calib.py`); the plain wall
medians are printed too.  Every output is checked against
`oracle.py` after its timed region; a wrong or raising operation counts
as failed.  With `--trace 1` the run does one plain round, then the same
round again under the profiler and tracemalloc (see `tracing.py`), and
reports the per-layer metrics instead.  The last line of standard output
is the JSON result.
"""

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK = HERE / ".work"
CHILD_TIMEOUT_S = 120

if not (SRC / "bprf" / "__init__.py").is_file():
    sys.exit(f"perfbench: no package source at {SRC / 'bprf'}")
sys.path.insert(0, str(SRC))

from bprf.baseline import day_rf_trees, parse_plain  # noqa: E402
from bprf.distance import compute  # noqa: E402
from bprf.newick import parse_pair  # noqa: E402

import calib  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402
from oracle import DRIVERS, Mismatch  # noqa: E402


# ----------------------------------------------------------------------
# subprocesses


def child_env():
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


class Launcher:
    """The small process that spawns every child (see launcher.py)."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv):
        """(exit code, output, wall s, peak RSS MB) of one child."""
        req = {"argv": argv, "env": child_env(), "cwd": str(ROOT),
               "timeout": CHILD_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        ans = json.loads(self.proc.stdout.readline())
        if ans["code"] is None:
            raise Mismatch(f"{argv[2:4]} ran over {CHILD_TIMEOUT_S} s")
        return ans["code"], ans["out"], ans["wall_s"], ans["maxrss_kb"] / 1024

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def import_seconds(launcher):
    code, out, _, _ = launcher.run([
        sys.executable, "-c",
        "import time; t = time.perf_counter(); import bprf.cli; "
        "print(time.perf_counter() - t)"])
    if code != 0:
        raise Mismatch(f"import bprf.cli failed: {out.strip()[-200:]}")
    return float(out)


# ----------------------------------------------------------------------
# one workload


class Bench:
    """A workload's inputs, expectations and the samples of one run."""

    def __init__(self, name, seed, launcher):
        self.name = name
        self.launcher = launcher
        self.inp = inputs.WORKLOADS[name](seed)
        self.expected = oracle.expected_for(self.inp)
        self.mode, self.weighted = oracle.modes(self.inp.metric)
        WORK.mkdir(exist_ok=True)
        self.files = []
        for k, text in enumerate(self.inp.texts):
            path = WORK / f"{name}-{seed}-{k}.nwk"
            path.write_text(text + "\n")
            self.files.append(path)
        # wall seconds of each timed region; default_pair_s is setup +
        # distance with the default driver
        self.samples = {k: [] for k in (
            "setup_s", "distance_s.postorder", "distance_s.nextsibling",
            "distance_s.day", "cli_wall_s", "default_pair_s")}
        self.refs = []            # calib.reference() before each operation
        self.at = {k: [] for k in self.samples}  # refs index of each sample
        self.last_op_s = 0.0
        self.cli_maxrss_mb = []
        self.day_parse_s = []     # parse_plain of both trees, Day's set-up
        self.attempted = 0
        self.failed = 0
        self.unexpected = []      # failures other than the known fault
        self.known = set()        # distinct messages of the known fault
        self.rounds = 0

    def close(self):
        for path in self.files:
            path.unlink(missing_ok=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    def texts(self, ij):
        return self.inp.texts[ij[0]], self.inp.texts[ij[1]]

    def round_pairs(self, r):
        per = self.inp.per_round
        pairs = self.inp.pairs
        start = (r * per) % len(pairs)
        return [pairs[(start + k) % len(pairs)] for k in range(per)]

    def record(self, key, seconds):
        """A timing of the operation now running."""
        self.samples[key].append(seconds)
        self.at[key].append(len(self.refs) - 1)

    def reference(self):
        """Time the reference kernel, then collect garbage, so that every
        operation starts with the collector in the same state."""
        self.refs.append(calib.reference(self.last_op_s))
        gc.collect()

    def attempt(self, op, *args, known_fault=False):
        self.reference()
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            op(*args)
        except Exception as e:  # a failed operation is counted, not fatal
            self.failed += 1
            msg = f"{type(e).__name__}: {e}"
            if known_fault:
                self.known.add(msg)
            else:
                self.unexpected.append(msg)
        finally:
            self.last_op_s = time.perf_counter() - t0

    # operations --------------------------------------------------------

    def op_driver(self, ij, algo):
        a, b = self.texts(ij)
        t0 = time.perf_counter()
        pair = parse_pair(a, b, mode=self.mode, weighted=self.weighted)
        t1 = time.perf_counter()
        res = compute(pair, self.inp.metric, algo)
        t2 = time.perf_counter()
        self.record("setup_s", t1 - t0)
        self.record(f"distance_s.{algo}", t2 - t1)
        if algo == DRIVERS[0]:
            self.record("default_pair_s", t2 - t0)
        oracle.check_driver(res, self.expected[ij])

    def op_day(self, ij):
        a, b = self.texts(ij)
        t0 = time.perf_counter()
        roots = parse_plain(a), parse_plain(b)
        t1 = time.perf_counter()
        res = day_rf_trees(*roots)
        t2 = time.perf_counter()
        self.day_parse_s.append(t1 - t0)
        self.record("distance_s.day", t2 - t1)
        oracle.check_day(res, self.expected[ij])

    def op_cli(self, ij):
        argv = [sys.executable, "-m", "bprf.cli", "dist",
                str(self.files[ij[0]]), str(self.files[ij[1]]),
                "--metric", self.inp.metric]
        code, out, wall, rss = self.launcher.run(argv)
        self.record("cli_wall_s", wall)
        self.cli_maxrss_mb.append(rss)
        oracle.check_cli(code, out, self.expected[ij])

    def op_identity(self):
        a, b = self.inp.identity
        pair = parse_pair(a, b, mode="leaf", weighted=True)
        res = compute(pair, "wrf", DRIVERS[0])
        if res.raw != 0.0:
            raise Mismatch(f"identity: {res.raw!r}, expected exactly 0.0")

    def run_round(self):
        block = self.round_pairs(self.rounds)
        for ij in block:
            for algo in DRIVERS:
                self.attempt(self.op_driver, ij, algo)
            self.attempt(self.op_day, ij)
        for ij in block[:self.inp.cli_per_round]:
            self.attempt(self.op_cli, ij)
        if self.inp.identity is not None:
            self.attempt(self.op_identity, known_fault=True)
        self.reference()  # closes the round's last operation
        self.rounds += 1

    # results -----------------------------------------------------------

    def retained_bits_per_node(self):
        """Bytes a parsed pair holds once parse_pair returns, x8, per
        tree-1 node; an untimed tracemalloc pass on the first pair."""
        a, b = self.texts(self.inp.pairs[0])
        tracemalloc.start()
        try:
            pair = parse_pair(a, b, mode=self.mode, weighted=self.weighted)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        return held * 8 / pair.n

    def scaled(self, key):
        """The samples of `key` in seconds at the reference speed: each
        divided by the mean of the references before and after it."""
        refs = self.refs
        return [s * calib.REF_S * 2 / (refs[i] + refs[i + 1])
                for s, i in zip(self.samples[key], self.at[key])]

    def end_to_end(self):
        med = {k: statistics.median(self.scaled(k)) for k in self.samples
               if k != "default_pair_s"}
        med["cli_maxrss_mb"] = statistics.median(self.cli_maxrss_mb)
        med["retained_bits_per_node"] = self.retained_bits_per_node()
        pair_s = self.scaled("default_pair_s")
        med["pairs_per_s"] = len(pair_s) / sum(pair_s)
        return med


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(inputs.WORKLOADS),
                    required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    e2e_units, layer_units = declared_metrics()
    launcher = Launcher()
    try:
        t0 = time.perf_counter()
        bench = Bench(args.workload, args.seed, launcher)
        try:
            print(f"inputs {args.workload} seed {args.seed} "
                  f"sha256 {bench.inp.digest()} "
                  f"trees {len(bench.inp.texts)} "
                  f"pairs {len(bench.inp.pairs)}, "
                  f"made and checked in {time.perf_counter() - t0:.1f} s")
            gc.collect()
            start = time.perf_counter()
            bench.run_round()
            if args.trace:
                import tracing
                print(f"plain round {time.perf_counter() - start:.1f} s")
                metrics = tracing.per_layer(bench)
                metrics["cli.import_s"] = import_seconds(launcher)
                units = layer_units
            else:
                while time.perf_counter() - start < args.seconds:
                    bench.run_round()
                print(f"{bench.rounds} rounds "
                      f"{time.perf_counter() - start:.1f} s")
                metrics = bench.end_to_end()
                units = e2e_units
        finally:
            bench.close()
    finally:
        launcher.close()
    if set(metrics) != set(units):
        sys.exit(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} "
                 "differ from BENCHMARK.json")
    n_samples = {k: len(v) for k, v in bench.samples.items()}
    n_samples["cli_maxrss_mb"] = len(bench.cli_maxrss_mb)
    for name in sorted(metrics):
        extra = (f"  (median of {n_samples[name]})"
                 if name in n_samples else "")
        print(f"{name:44s} {metrics[name]:>16.6f} {units[name]}{extra}")
    if not args.trace:
        refs = bench.refs
        print(f"reference {statistics.median(refs) * 1e3:.3f} ms median, "
              f"{min(refs) * 1e3:.3f}-{max(refs) * 1e3:.3f} ms "
              f"(quiet host {calib.REF_S * 1e3:.3f} ms); plain wall medians:")
        for name in sorted(bench.samples):
            print(f"  {name:42s} "
                  f"{statistics.median(bench.samples[name]):>16.6f} s")
    print(f"attempted {bench.attempted}, failed {bench.failed}")
    for msg in sorted(bench.known):
        print(f"failed, known fault: {msg}")
    for msg in bench.unexpected:
        print(f"FAILED {msg}")
    print(json.dumps({
        "correct": not bench.unexpected,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in sorted(metrics)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
