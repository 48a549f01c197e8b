"""Per-layer metrics: the first round again, under cProfile and tracemalloc.

The layers are the modules of `src/bprf`.  cProfile gives self time and
call counts per function; self time is summed by the file that defines a
function, and a builtin's self time is charged to the module of each
caller, edge by edge.  A wrapper that this file installs around
`BpTree.lca` counts the answers that are the root.  A separate tracemalloc
pass over the round's first pair gives the parse peak and the bytes the
parsed pair retains, grouped by the file of the Python frame that
allocated them; numpy's C code is charged to its caller.

Each pair is parsed once here, where the plain round parsed it once per
driver.  Counts are totals over the round's pairs, per driver.  They repeat
exactly for a given seed.  Times under the profiler are inflated (about
2.7x in the distance phase), so no end-to-end metric comes from here;
`trace.overhead_s` is the traced round's time minus the plain round's.
"""

import cProfile
import pstats
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from bprf.baseline import day_rf_trees, parse_plain
from bprf.bp import BpTree
from bprf.distance import compute
from bprf.newick import parse_pair
from bprf.treeio import size_report

import oracle
from oracle import DRIVERS
SELF_MODULES = ("bitvec", "bp", "distance")
CALLS = ("bitvec.select0", "bp.find_open", "bp.find_close", "bp.is_leaf",
         "bp.next_sibling", "bp.lca", "bp.rmq", "bp.enclose",
         "bitvec.rank1", "bitvec.rank10", "bitvec.select1",
         "bp.cluster_size")
OPS = ("post_order_select", "lca", "num_leaves", "cluster_size",
       "next_sibling")


def _module(filename):
    p = Path(filename)
    return p.stem if p.parent.name == "bprf" else None


class Profile:
    """cProfile data of one phase, grouped by bprf module."""

    def __init__(self):
        self.prof = cProfile.Profile()

    @contextmanager
    def on(self):
        self.prof.enable()
        try:
            yield
        finally:
            self.prof.disable()

    def _stats(self):
        return pstats.Stats(self.prof).stats

    def self_times(self):
        out = defaultdict(float)
        for (fn, _, _), (_, _, tt, _, callers) in self._stats().items():
            mod = _module(fn)
            if mod:
                out[mod] += tt
            elif fn == "~":  # builtin: charge each calling module
                for (cfn, _, _), edge in callers.items():
                    cmod = _module(cfn)
                    if cmod:
                        out[cmod] += edge[2]
        return out

    def by_function(self):
        """(module, function) -> (calls, cumulative s)."""
        out = {}
        for (fn, _, name), (_, nc, _, ct, _) in self._stats().items():
            mod = _module(fn)
            if mod:
                calls, cum = out.get((mod, name), (0, 0.0))
                out[mod, name] = (calls + nc, cum + ct)
        return out


class RootAnswers:
    """Counts BpTree.lca calls answered with the root, per driver."""

    def __init__(self):
        self.counts = dict.fromkeys(DRIVERS, 0)
        self.driver = None

    @contextmanager
    def installed(self):
        orig = BpTree.lca

        def lca(tree, p, q):
            r = orig(tree, p, q)
            if r == 1:
                self.counts[self.driver] += 1
            return r

        BpTree.lca = lca
        try:
            yield
        finally:
            BpTree.lca = orig


def memory(bench, ij):
    """Parse peak and retained bytes by module, for one pair."""
    a, b = bench.texts(ij)
    tracemalloc.start()
    try:
        pair = parse_pair(a, b, mode=bench.mode, weighted=bench.weighted)
        peak = tracemalloc.get_traced_memory()[1]
        snap = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    held = defaultdict(int)
    for stat in snap.statistics("filename"):
        held[_module(stat.traceback[0].filename)] += stat.size
    return pair, peak, held


def per_layer(bench):
    """Every per-layer metric, from a traced copy of the bench's first
    round (already run plain, so its samples give the untraced times)."""
    block = bench.round_pairs(0)
    metric = bench.inp.metric
    parse = Profile()
    dist = {d: Profile() for d in DRIVERS}
    day = Profile()
    roots = RootAnswers()
    ops = {d: dict.fromkeys(OPS, 0) for d in DRIVERS}
    equal = 0
    traced_s = 0.0
    with roots.installed():
        for ij in block:
            a, b = bench.texts(ij)
            exp = bench.expected[ij]
            t0 = time.perf_counter()
            with parse.on():
                pair = parse_pair(a, b, mode=bench.mode,
                                  weighted=bench.weighted)
            traced_s += time.perf_counter() - t0
            for d in DRIVERS:
                roots.driver = d
                t0 = time.perf_counter()
                with dist[d].on():
                    res = compute(pair, metric, d)
                traced_s += time.perf_counter() - t0
                _check(bench, oracle.check_driver, res, exp)
                for k in OPS:
                    ops[d][k] += getattr(res.ops, k)
            equal += res.equal_clusters
            t0 = time.perf_counter()
            with day.on():
                res = day_rf_trees(parse_plain(a), parse_plain(b))
            traced_s += time.perf_counter() - t0
            _check(bench, oracle.check_day, res, exp)

    # the plain round parsed every pair once per driver; count the first
    s = bench.samples
    plain_s = (sum(s["default_pair_s"]) + sum(s["distance_s.nextsibling"])
               + sum(s["distance_s.day"]) + sum(bench.day_parse_s))
    m = {"trace.overhead_s": traced_s - plain_s,
         "distance.equal_clusters": equal}

    fn = parse.by_function()
    bv_build = fn.get(("bitvec", "__init__"), (0, 0.0))[1]
    m["bitvec.build_s"] = bv_build
    m["bp.build_s"] = fn.get(("bp", "__init__"), (0, 0.0))[1] - bv_build
    m["newick.self_s"] = parse.self_times()["newick"]
    m["baseline.self_s"] = day.self_times()["baseline"]
    for d in DRIVERS:
        selfs = dist[d].self_times()
        for mod in SELF_MODULES:
            m[f"{mod}.self_s.{d}"] = selfs[mod]
        fn = dist[d].by_function()
        for name in CALLS:
            mod, func = name.split(".")
            m[f"{name}.calls.{d}"] = fn.get((mod, func), (0, 0.0))[0]
        m[f"bp.lca.root_calls.{d}"] = roots.counts[d]
        for k in OPS:
            m[f"distance.ops.{k}.{d}"] = ops[d][k]

    pair, peak, held = memory(bench, block[0])
    m["newick.parse_peak_bytes"] = peak
    for mod in ("newick", "bitvec", "bp"):
        m[f"{mod}.retained_bytes"] = held[mod]
    m["treeio.declared_bits_per_node"] = size_report(pair).total_bits / pair.n

    # the round's CLI call ran on its first pair, as did its first
    # default-driver operation
    m["cli.overhead_s"] = s["cli_wall_s"][0] - s["default_pair_s"][0]
    return m


def _check(bench, check, *args):
    try:
        check(*args)
    except oracle.Mismatch as e:
        bench.unexpected.append(f"traced: {e}")
