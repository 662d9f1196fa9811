"""framescale benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload rescale-small --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from the repository root.  The program is imported from ``src/``;
nothing is installed.  With ``--trace 0`` the run reports the end-to-end
metrics of BENCHMARK.json, with ``--trace 1`` the per-layer metrics from
a traced run.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A table of every
metric, the run record and the spans of a traced run are written under
``.bench_out/`` at the repository root.
"""

import os
import sys

# one process is the whole load on a small shared machine, so BLAS gets
# one thread; set before numpy loads, inherited by the import probe
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

from calibration import REFERENCE_SECONDS, Calibration  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SPEC = ROOT / "BENCHMARK.json"
SETUP_REPEATS = 7
SLICE_SECONDS = 0.2  # operation time between two calibration runs
TAIL_BEYOND = 10
REPLAY_SHARE = 0.25
IMPORT_PROBE = ("import time; t = time.perf_counter(); "
                "import framescale.cli, framescale.verify; "
                "print(repr(time.perf_counter() - t))")


class BenchError(RuntimeError):
    """The benchmark cannot run here; nothing is reported."""


def import_framescale():
    """Import framescale from this checkout's src/ and nowhere else."""
    if not (SRC / "framescale" / "__init__.py").is_file():
        raise BenchError(f"no framescale sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import framescale
    import framescale.cli
    import framescale.verify
    if Path(framescale.__file__).resolve().parent.parent != SRC:
        raise BenchError(f"framescale was imported from {framescale.__file__}")
    return framescale


def import_seconds() -> float:
    """Import time of framescale in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def tail(durations):
    """Highest percentile with TAIL_BEYOND samples beyond it, and that
    percentile; the maximum (percentile 100) when there are too few."""
    ordered = sorted(durations)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None."""
    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record(np) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "framescale").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": blas_threads(),
            "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
            "git_commit": commit, "source_sha256": source.hexdigest()}


@dataclass
class Op:
    """One timed operation: raw and host-speed-scaled seconds, and checks."""

    entry: object
    pass_no: int
    seconds: float
    problems: list
    is_open: bool
    scaled: float = 0.0


def timing_metrics(ops, key) -> dict:
    """ops_per_s, op_p50_s and op_tail_s from each op's ``key`` seconds.

    ops_per_s is the median over passes of passed operations per second
    of operation time in that pass.  op_p50_s is the median over the
    pool's inputs of each input's median time: input times cluster, and
    the plain median of a few visits per input falls in the gap between
    two clusters, where it jumps with the slowest and fastest visits."""
    durations = [getattr(o, key) for o in ops]
    per_input = {}
    for o in ops:
        per_input.setdefault(id(o.entry), []).append(getattr(o, key))
    rates = []
    for p in sorted({o.pass_no for o in ops}):
        in_pass = [o for o in ops if o.pass_no == p]
        rates.append(sum(not o.problems for o in in_pass)
                     / sum(getattr(o, key) for o in in_pass))
    return {"ops_per_s": statistics.median(rates),
            "op_p50_s": statistics.median(
                statistics.median(v) for v in per_input.values()),
            "op_tail_s": tail(durations)[0]}


class Run:
    """One workload measured once: set-up, the closed loop, the checks.

    Every timed stretch (one set-up, or a slice of about SLICE_SECONDS of
    operations) sits between two runs of the calibration kernel, and its
    times are scaled by REFERENCE_SECONDS over the mean of the two."""

    def __init__(self, workload, seed: int, seconds: float, tracer=None):
        self.wl = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.dir = OUT / workload.name
        self.dir.mkdir(parents=True, exist_ok=True)
        self.report = str(self.dir / "report.json")
        self.calibration = Calibration()
        self.kernel = []       # every calibration kernel time
        self.pool = []
        self.setup_raw = []
        self.setup_times = []  # scaled
        self.ops = []

    def calibrate(self) -> float:
        seconds = self.calibration.seconds()
        self.kernel.append(seconds)
        return seconds

    @staticmethod
    def scale(before: float, after: float) -> float:
        return REFERENCE_SECONDS / (0.5 * (before + after))

    def setup(self) -> None:
        """Import, generate the inputs and write the instance files, several
        times; the last set of inputs is the one measured."""
        inputs = self.dir / "inputs"
        inputs.mkdir(exist_ok=True)
        refs = self.wl.references()
        before = self.calibrate()
        for _ in range(SETUP_REPEATS):
            seconds = import_seconds()
            t0 = time.perf_counter()
            pool = self.wl.make_pool(self.seed)
            self.wl.write_pool(pool, str(inputs))
            seconds += time.perf_counter() - t0
            after = self.calibrate()
            self.setup_raw.append(seconds)
            self.setup_times.append(seconds * self.scale(before, after))
            before = after
        for entry in pool:
            if hasattr(entry, "reference"):
                entry.reference = refs.get(entry.name, {})
        self.pool = pool

    def op(self, entry, pass_no: int) -> Op:
        """Run one operation and check its output."""
        t0 = time.perf_counter()
        try:
            result = self.wl.run(entry, self.report)
        except Exception as exc:  # a crash is a failed operation, not a stop
            return Op(entry, pass_no, time.perf_counter() - t0,
                      [f"raised {exc!r}"], False)
        seconds = time.perf_counter() - t0
        try:
            problems, is_open = self.wl.inspect(entry, result, self.report)
        except Exception as exc:  # unreadable output fails the operation
            problems, is_open = [f"output unreadable: {exc!r}"], False
        return Op(entry, pass_no, seconds, problems, is_open)

    def passes(self) -> int:
        """Whole passes over the pool that fill --seconds at the nominal
        pass time; the run's work is fixed before it starts."""
        return max(1, round(self.seconds / self.wl.pass_seconds))

    def loop(self, max_ops=None) -> None:
        """Closed loop over whole passes; max_ops cuts it short."""
        passes = self.passes()
        pass_no = 0
        before = self.calibrate()
        pending, busy = [], 0.0
        for entry, closes_pass in self.wl.order(self.pool, self.seed):
            if self.tracer is not None:
                self.tracer.op_id = len(self.ops)
                with self.tracer.span("bench.op"):
                    op = self.op(entry, pass_no)
                self.tracer.op_id = -1
            else:
                op = self.op(entry, pass_no)
            self.ops.append(op)
            pending.append(op)
            busy += op.seconds
            pass_no += closes_pass
            done = pass_no == passes or (
                max_ops is not None and len(self.ops) >= max_ops)
            if busy >= SLICE_SECONDS or done:
                after = self.calibrate()
                for o in pending:
                    o.scaled = o.seconds * self.scale(before, after)
                before, pending, busy = after, [], 0.0
            if done:
                break

    def failures(self):
        return [(o.entry, o.problems) for o in self.ops if o.problems]

    def end_to_end(self) -> dict:
        """The reported metrics, from scaled times."""
        return {
            "setup_s": statistics.median(self.setup_times),
            **timing_metrics(self.ops, "scaled"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "failed_ops_ratio": len(self.failures()) / len(self.ops),
            "brackets_open": sum(1 for o in self.ops if o.is_open),
        }

    def unscaled(self) -> dict:
        """The time metrics from plain wall-clock seconds, for the record."""
        return {"setup_s": statistics.median(self.setup_raw),
                **timing_metrics(self.ops, "seconds")}

    def overhead(self) -> float:
        """Traced over untraced scaled time of the same operations, minus one.

        Replays the run's first operations without tracing, in slices
        between calibration runs as in the loop, until the replay covers
        REPLAY_SHARE of the traced loop."""
        traced = untraced = busy = 0.0
        budget = REPLAY_SHARE * sum(o.scaled for o in self.ops)
        before = self.calibrate()
        for i, o in enumerate(self.ops):
            t0 = time.perf_counter()
            self.wl.run(o.entry, self.report)
            busy += time.perf_counter() - t0
            traced += o.scaled
            if busy >= SLICE_SECONDS or i == len(self.ops) - 1:
                after = self.calibrate()
                untraced += busy * self.scale(before, after)
                before, busy = after, 0.0
                if untraced >= budget:
                    break
        return traced / untraced - 1.0


def per_layer(run, tracer) -> dict:
    from tracer import layer_metrics
    masks = {i: run.wl.masks(o.entry) for i, o in enumerate(run.ops)}
    m = layer_metrics(tracer, len(run.ops), SETUP_REPEATS, masks,
                      [o.scaled / o.seconds for o in run.ops],
                      statistics.median(s / r for s, r in
                                        zip(run.setup_times, run.setup_raw)))
    m["rescale.brackets_open"] = len({o.entry.name for o in run.ops if o.is_open})
    m["trace.ops"] = len(run.ops)
    m["trace.overhead_ratio"] = run.overhead()
    return m


def measure(name: str, seed: int, seconds: float, trace: bool,
            max_ops=None) -> dict:
    """Set up and run one workload; returns the full run record."""
    fs = import_framescale()
    import numpy as np
    from tracer import Tracer
    from workloads import WORKLOADS, inputs_digest
    workload = WORKLOADS[name](fs)
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    try:
        run = Run(workload, seed, seconds, tracer)
        run.setup()
        run.loop(max_ops)
    finally:
        if tracer is not None:
            tracer.uninstall()
    tail_pct = tail([o.seconds for o in run.ops])[1]
    record = {
        "workload": name, "why": workload.why, "seed": seed,
        "seconds": seconds, "trace": int(trace),
        "inputs_sha256": inputs_digest(workload, run.pool),
        "reference_inputs_sha256": workload.reference_digest(),
        "machine": machine_record(np),
        "attempted": len(run.ops), "failed": len(run.failures()),
        "failures": [{"input": getattr(e, "name", "bundle"), "problems": p}
                     for e, p in run.failures()[:20]],
        "end_to_end": run.end_to_end(), "op_tail_percentile": tail_pct,
        "end_to_end_unscaled": run.unscaled(),
        "calibration": {"reference_s": REFERENCE_SECONDS,
                        "median_s": statistics.median(run.kernel),
                        "runs": len(run.kernel)},
        "setup_s_samples": run.setup_times,
        "setup_s_unscaled_samples": run.setup_raw,
        "ops": [[getattr(o.entry, "name", "bundle"), o.seconds, o.scaled]
                for o in run.ops],
    }
    if tracer is not None:
        record["per_layer"] = per_layer(run, tracer)
        spans = run.dir / f"spans-seed{seed}.npz"
        tracer.write(str(spans))
        record["spans_file"] = str(spans.relative_to(ROOT))
    out = run.dir / f"result-seed{seed}-trace{int(trace)}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    record["record_file"] = str(out.relative_to(ROOT))
    return record


def load_spec() -> dict:
    with open(SPEC, "r", encoding="utf-8") as fh:
        return json.load(fh)


def summary_line(record: dict, spec: dict) -> dict:
    """The run's result object: exactly the metrics BENCHMARK.json names."""
    source = record["per_layer"] if record["trace"] else record["end_to_end"]
    wanted = spec["per_layer"] if record["trace"] else spec["end_to_end"]
    return {"correct": record["failed"] == 0,
            "attempted": record["attempted"], "failed": record["failed"],
            "metrics": {m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
                        for m in wanted}}


END_TO_END_EXTRA_UNITS = {"failed_ops_ratio": "ratio", "brackets_open": "count"}


def print_table(record: dict, spec: dict) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(END_TO_END_EXTRA_UNITS)
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"attempted={record['attempted']} failed={record['failed']}")
    rows = dict(record.get("per_layer") or record["end_to_end"])
    rows.update((k, record["end_to_end"][k]) for k in END_TO_END_EXTRA_UNITS)
    unscaled = {} if record["trace"] else record["end_to_end_unscaled"]
    for name, value in rows.items():
        note = (f"  (p{record['op_tail_percentile']:.1f})"
                if name == "op_tail_s" else "")
        if name in unscaled:
            note += f"  unscaled {unscaled[name]:.6g}"
        print(f"{name:48s} {value:>16.6g} {units.get(name, '')}{note}")
    for failure in record["failures"]:
        print(f"FAILED {failure['input']}: {'; '.join(failure['problems'])}")
    print(f"record: {record['record_file']}")


def run_all(args) -> int:
    """Every workload in turn, each in its own process."""
    spec = load_spec()
    worst = 0
    for w in spec["workloads"]:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, cwd=ROOT).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        if args.workload == "all":
            return run_all(args)
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ImportError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_table(record, spec)
    print(json.dumps(summary_line(record, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
