"""fraclab benchmark: one workload per process, timed from outside.

    python3 perfbench/run.py --workload sweep64 --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --all        # every workload, untraced and traced
    python3 perfbench/run.py --smoke      # every workload at 8x8 cells, all checks

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
give the run record and every metric by name with its unit.  See
perfbench/README.md for the metrics and why each workload exists.
"""

import os
import sys

# pinned before numpy is imported; inherited by every child process
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "FRACLAB_THREADS": "1",
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
DEFAULT_SEED = 0
# spawned set-up probes per untraced run; one takes about 0.25 s
SETUP_PROBES = 15
# one solve40 repetition takes 13-20 s on a shared 2-core VM whose speed
# drifts from second to second; a single repetition is too noisy
MIN_REPS = 2
SMOKE_SIZE = 8

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "geometry.pairs": "count",
    "geometry.blocks": "count",
    "geometry.pass_ns_per_pair": "ns",
    "geometry.speedup_t2": "x",
    "expressions.parse_us": "us",
    "exponents.pair_grid_ns_per_pair": "ns",
    "exponents.certify_s": "s",
    "modular.evals": "count",
    "modular.pass_s": "s",
    "modular.seminorm_s": "s",
    "modular.lebesgue_s": "s",
    "modular.peak_alloc_mb": "MB",
    "embeddings.trace_check_s": "s",
    "solver.iterations": "count",
    "solver.per_iter_ms": "ms",
    "solver.energy_ms": "ms",
    "solver.gradient_ms": "ms",
    "solver.first_call_s": "s",
    "solver.speedup_t2": "x",
    "cli.norm_ms": "ms",
    "cli.seminorm_ms": "ms",
    "cli.trace-check_ms": "ms",
    "cli.partition_ms": "ms",
    "cli.solve_ms": "ms",
    "cli.verify_ms": "ms",
    "expressions.self_s": "s",
    "geometry.self_s": "s",
    "exponents.self_s": "s",
    "modular.self_s": "s",
    "embeddings.self_s": "s",
    "solver.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_x": "x",
    "trace.spans": "count",
}
# work counters that must repeat exactly; pinned at the default seed.
# embeddings.rejected_rows is 0 on every workload, so it is a check and not a
# metric (a metric must never read 0)
LAYER_COUNTS = ("geometry.pairs", "geometry.blocks", "modular.evals", "solver.iterations",
                "embeddings.rejected_rows")


def import_program():
    """Import fraclab from this checkout's src/, and nothing else."""
    sys.path.insert(0, SRC)
    sys.path.append(os.path.join(ROOT, "tests"))  # oracles.py
    try:
        import fraclab
    except ImportError as err:
        sys.exit(f"perfbench: cannot import fraclab from {SRC}: {err}")
    if not os.path.abspath(fraclab.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: fraclab was imported from {fraclab.__file__}, not from {SRC}")


def run_record(args):
    import numpy as np

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "fraclab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size or "full",
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "loadavg_start": list(os.getloadavg()),
    }


def spawn_setup_probe(args):
    """Seconds from spawning a fresh process to its first timed call."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed),
         "--size", str(args.size), "--setup-probe", repr(t0)],
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def setup_probe(args):
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    state = wl.setup(args.seed, args.size)
    elapsed = time.monotonic() - args.setup_probe
    wl.close(state)
    print(json.dumps({"setup_s": elapsed}))


def timed_reps(wl, state, args):
    """Repeat the workload at least MIN_REPS times, and further while another
    repetition fits in the budget of timed seconds.  The SETUP_PROBES set-up
    probes are spread over the same window, between repetitions and outside
    the budget, so that set-up times sample the machine's drift over the
    whole run and not over a few seconds."""
    times, results, setups = [], [], []
    while True:
        due = min(SETUP_PROBES, SETUP_PROBES * sum(times) / args.seconds)
        while len(setups) < due:
            setups.append(spawn_setup_probe(args))
        wl.fresh(state)
        t0 = time.perf_counter()
        results.append(wl.run(state))
        times.append(time.perf_counter() - t0)
        if len(times) >= MIN_REPS and sum(times) + times[-1] > args.seconds:
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setups) < SETUP_PROBES:
        setups.append(spawn_setup_probe(args))
    return times, results, setups, peak_mb


def guarded(chk, name, fn, *args):
    try:
        fn(*args)
    except Exception as err:  # a check that crashes is a failed check
        chk.expect(name, False, f"{type(err).__name__}: {err}")


def traced_section(wl, state, args):
    """One untraced and one traced repetition, then the configs round and
    the direct layer probes.  Returns (results, metrics, spans, record extras)."""
    import workloads
    from tracer import LAYERS, Tracer

    wl.fresh(state)
    t0 = time.perf_counter()
    plain = wl.run(state)
    untraced = time.perf_counter() - t0

    wl.fresh(state)
    tr = Tracer()
    tr.install()
    try:
        t0 = time.perf_counter()
        traced = wl.run(state)
        traced_s = time.perf_counter() - t0
    finally:
        tr.uninstall()

    # layers the workload never calls are measured on the configs round
    if wl.name == "configs":
        tc, cres = tr, traced
    else:
        cfg = workloads.WORKLOADS["configs"]
        cstate = cfg.setup(args.seed, args.size)
        tc = Tracer()
        tc.install()
        try:
            cres = cfg.run(cstate)
        finally:
            tc.uninstall()
            cfg.close(cstate)

    def source(key):
        return tr if tr.durations.get(key) else tc

    def median(key):
        return statistics.median(source(key).durations[key])

    m = workloads.layer_probes(wl, state, traced)
    cert = source("exponents.covering_partition")
    m["exponents.certify_s"] = (sum(cert.durations["exponents.covering_partition"])
                                + sum(cert.durations["exponents.verify_certificate"])) \
        / len(cert.durations["exponents.covering_partition"])
    semi = source("modular.gagliardo_seminorm")
    m["modular.evals"] = semi.counts["modular.evals"]
    m["modular.seminorm_s"] = median("modular.gagliardo_seminorm")
    m["modular.lebesgue_s"] = median("modular.luxemburg_norm")
    m["modular.peak_alloc_mb"] = semi.peak_alloc / 2**20
    m["embeddings.trace_check_s"] = median("embeddings.trace_check")
    m["embeddings.rejected_rows"] = tr.counts["embeddings.rejected_rows"]
    solve = source("solver.minimize")
    m["solver.iterations"] = solve.counts["solver.iterations"]
    m["solver.per_iter_ms"] = 1e3 * sum(solve.durations["solver.minimize"]) / max(1, m["solver.iterations"])
    for cmd, ms in cres["ms"].items():
        m[f"cli.{cmd}_ms"] = ms
    # the self times of the layers the workload calls divide up its own
    # traced repetition; a layer it never calls reports the configs round's
    called = {span[2] for span in tr.spans}
    selfs, cselfs = tr.self_times(), tc.self_times()
    for layer in LAYERS:
        m[f"{layer}.self_s"] = selfs[layer] if layer in called else cselfs[layer]
    m["trace.overhead_x"] = traced_s / untraced
    m["trace.spans"] = len(tr.spans)
    spans = {"workload": tr.spans, "configs_round": tc.spans if tc is not tr else []}
    extra = {"untraced_s": untraced, "traced_s": traced_s, "trace_overhead_s": traced_s - untraced,
             "self_s_from_configs_round": sorted(set(LAYERS) - called)}
    return [plain, traced], m, spans, extra


def load_reference(wl_name):
    try:
        with open(REFERENCE) as fh:
            return json.load(fh).get(wl_name)
    except FileNotFoundError:
        return None


def write_reference(wl_name, entry):
    ref = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as fh:
            ref = json.load(fh)
    ref[wl_name] = entry
    with open(REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


def run_workload(args):
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    record = run_record(args)
    chk = workloads.Checks()
    pinned = (args.seed == DEFAULT_SEED or not wl.seeded) and not args.size and not args.pin
    ref = load_reference(wl.name) if pinned else None
    if pinned:
        chk.expect("reference.present", ref is not None, f"no {wl.name} entry in {REFERENCE}")

    state = wl.setup(args.seed, args.size)
    try:
        if args.trace == 0:
            times, results, setups, peak_mb = timed_reps(wl, state, args)
            metrics = {"wall_s": statistics.median(times), "setup_s": statistics.median(setups),
                       "peak_rss_mb": peak_mb}
            units = END_TO_END_UNITS
            record["rep_s"] = times
            record["setup_probe_s"] = setups
        else:
            results, metrics, spans, extra = traced_section(wl, state, args)
            units = LAYER_UNITS
            record.update(extra)

        # determinism: every repetition gives the same result and counters
        first = wl.fingerprint(results[0])
        counts = wl.counts(state, results[0])
        chk.expect("repeat.result", all(wl.fingerprint(r) == first for r in results[1:]),
                   "a repetition gave another result")
        chk.expect("repeat.counts", all(wl.counts(state, r) == counts for r in results[1:]),
                   "a repetition gave other counts")
        if args.trace == 1:
            for key in set(counts) & set(metrics):
                chk.same(f"traced.{key}", metrics[key], counts[key])
        if ref is not None:
            chk.same("pinned.counts", counts, ref["counts"])
            if args.trace == 1:
                chk.same("pinned.layer_counts", {k: metrics[k] for k in LAYER_COUNTS}, ref["layer_counts"])
        guarded(chk, f"{wl.name}.check", wl.check, state, results[-1], chk, ref and ref["values"])
        guarded(chk, f"{wl.name}.threads2", wl.spot_threads2, state, results[-1], chk)

        if args.pin:
            write_reference(wl.name, {
                "values": wl.pin(state, results[-1]),
                "counts": counts,
                "layer_counts": {k: metrics[k] for k in LAYER_COUNTS},
                "record": record,
            })
        if args.trace == 1:
            os.makedirs(workloads.OUT_DIR, exist_ok=True)
            path = os.path.join(workloads.OUT_DIR, f"spans-{wl.name}-seed{args.seed}.json")
            with open(path, "w") as fh:
                json.dump({"record": record, "fields": ["id", "parent", "layer", "name", "start", "end"],
                           **spans}, fh)
            record["spans_file"] = os.path.relpath(path, ROOT)
    finally:
        wl.close(state)

    failed = len(chk.failures)
    print(f"perfbench {wl.name} seed={args.seed} trace={args.trace}")
    print("record " + json.dumps(record, sort_keys=True))
    for name, unit in units.items():
        print(f"  {name:34s} {metrics[name]:>16.6g} {unit}")
    print(f"  {'fail_frac':34s} {failed / chk.attempted:>16.6g} ({failed} of {chk.attempted} checks failed)")
    for msg in chk.failures:
        print(f"  FAILED {msg}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": chk.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))


def run_all(args):
    """Each workload in its own process, untraced then traced."""
    import workloads

    ok = True
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace), "--size", str(args.size)]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
            good = result.get("correct") is True and result.get("failed") == 0
            print(f"== {name} trace={trace}: exit {proc.returncode}, {'ok' if good else 'FAILED'}")
            ok = ok and good
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("configs", "sweep64", "varp64", "solve40"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0, help="seconds of timed repetitions in one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics from a traced run")
    parser.add_argument("--size", type=int, default=0, help="cells per axis (0: the workload's own)")
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--smoke", action="store_true", help=f"--all at {SMOKE_SIZE}x{SMOKE_SIZE} cells, 1 s each")
    parser.add_argument("--pin", action="store_true",
                        help="record this run's values as the reference (default seed, full size, --trace 1)")
    parser.add_argument("--setup-probe", type=float, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    import_program()

    if args.smoke:
        args.size, args.seconds = SMOKE_SIZE, 1.0
    if args.all or args.smoke:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload is required (or --all / --smoke)")
    if args.pin and (args.seed != DEFAULT_SEED or args.size or args.trace != 1):
        parser.error("--pin needs the default seed, full size and --trace 1")
    if args.setup_probe is not None:
        setup_probe(args)
    else:
        run_workload(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
