"""Command line interface: generate, analyze, rescale, verify, bench.

An instance file holds one vector-sequence pair as JSON with [real,
imag] coordinate entries written as float reprs, -0.0 included, so files
round-trip bit-exactly; corpora are directories of such files.  Reports
are JSON with a flat comma-separated twin next to them.  Exit codes:
0 all checks passed, 1 a check failed, 2 bad usage or input.
"""

import argparse
import csv
import functools
import io
import json
import os
import sys
import tempfile
import time

import numpy as np

from .frames import (FramePair, bounds_from_spectrum, frame_eigh,
                     frame_operator, identity_deviation)
from .instances import GENERATOR_KINDS, generate
from .linalg import eigh
from .multiplier import (GRID_MAX_N, GRID_MIN_STEPS, norm_lower_alternating,
                         norm_oracle_grid)
from .rescale import build_dilation, extract_scaling, optimize
from .verify import SUITES, VerificationError, run_suite

FORMAT_VERSION = 1
INSTANCE_SUFFIX = ".frame.json"
_REAL = {int, float}  # the types json.load gives numbers (not bool or str)
EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
NO_SEED_HELP = "accepted for compatibility; has no effect on this command"
BENCH_REPEATS = 3  # timed calls per bench layer, after one untimed call


class InstanceFormatError(ValueError):
    """An instance file is malformed; the message carries the location."""


def serialize_instance(pair: FramePair, metadata=None) -> str:
    """Render one pair as instance-file text: floats as reprs, -0.0 kept."""
    vecs = np.stack([pair.xs, pair.ys], axis=1)
    parts = np.stack([vecs.real, vecs.imag], axis=-1).tolist()
    doc = {"dim": pair.dim, "format_version": FORMAT_VERSION,
           "metadata": metadata or {},
           "pairs": [{"x": x, "y": y} for x, y in parts]}
    return _json_text(doc)


def _write_text(path: str, text: str) -> None:
    """Write text to path as UTF-8, rewriting an existing file in place.

    The bytes are those open(path, "w") would write, and the file keeps
    its inode, so links, mode and owner behave as they do under it.
    The file is not first truncated to zero: ext4 (default
    auto_da_alloc) starts writeback when such a file is closed.  A
    longer old file is cut to the new length afterwards, which sets no
    flush.  Nothing is fsynced; a crash mid-write can leave a torn file,
    as under open(path, "w").
    """
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        # ftruncate fails on character devices such as os.devnull
        if os.fstat(fd).st_size > len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def save_instance(path: str, pair: FramePair, metadata=None) -> None:
    """Write one pair as an instance file (serialize_instance's text).

    An existing file at path is rewritten in place by _write_text.
    """
    _write_text(path, serialize_instance(pair, metadata))


def load_instance(path: str):
    """Read one instance file; returns (pair, metadata)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}") from exc
    if not isinstance(doc, dict):
        raise InstanceFormatError(f"{path}: top level must be an object")
    # type checks, here and for dim: json's true loads as True, which
    # isinstance(..., int) and == 1 both accept
    version = doc.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise InstanceFormatError(
            f"{path}: format_version must be {FORMAT_VERSION}, got {version!r}")
    dim = doc.get("dim")
    if type(dim) is not int or dim < 1:
        raise InstanceFormatError(f"{path}: 'dim' must be a positive integer")
    raw = doc.get("pairs")
    if not isinstance(raw, list) or not raw:
        raise InstanceFormatError(f"{path}: 'pairs' must be a nonempty list")
    rows = ([], [])  # the x and the y vectors, each coordinate checked once
    for k, item in enumerate(raw):
        where = f"{path}: pairs[{k}]"
        if not isinstance(item, dict):
            raise InstanceFormatError(f"{where}: expected an object")
        for side, vectors in zip("xy", rows):
            entry = item.get(side)
            if not isinstance(entry, list) or len(entry) != dim:
                raise InstanceFormatError(
                    f"{where}.{side}: expected {dim} coordinates, got "
                    f"{len(entry) if isinstance(entry, list) else type(entry).__name__}")
            for j, part in enumerate(entry):
                # type, not isinstance: a bool is an int to isinstance
                if type(part) is not list or len(part) != 2 or not {
                        type(part[0]), type(part[1])} <= _REAL:
                    raise InstanceFormatError(
                        f"{where}.{side}[{j}]: expected a [real, imag] number pair")
            vectors.append(entry)
    xs, ys = np.array(rows, dtype=np.float64).view(np.complex128)[..., 0]
    try:
        pair = FramePair(xs, ys)
    except ValueError as exc:
        raise InstanceFormatError(f"{path}: {exc}") from exc
    return pair, doc.get("metadata", {})


def _label(name: str) -> str:
    """A file name without INSTANCE_SUFFIX, or else without its extension."""
    if name.endswith(INSTANCE_SUFFIX):
        return name[:-len(INSTANCE_SUFFIX)]
    return os.path.splitext(name)[0]


def load_corpus(path: str):
    """A file or a directory of files; returns [(label, pair, metadata)].

    Directory entries are processed in sorted name order so corpus
    reports merge deterministically.
    """
    if os.path.isdir(path):
        names = sorted(name for name in os.listdir(path)
                       if name.endswith(".json"))
        if not names:
            raise InstanceFormatError(f"{path}: no instance files found")
        return [(_label(name), *load_instance(os.path.join(path, name)))
                for name in names]
    return [(_label(os.path.basename(path)), *load_instance(path))]


def _numpy_value(obj):
    """json.dumps's default: numpy arrays, bools, integers and floats as
    Python values (np.float64 is a float, so the encoder takes it)."""
    if isinstance(obj, (np.ndarray, np.bool_, np.integer, np.floating)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _json_text(doc) -> str:
    """doc as the compact, key-sorted JSON text of instances and reports."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      default=_numpy_value) + "\n"


def _flat_cell(value):
    if isinstance(value, (np.ndarray, np.generic)):
        value = value.tolist()
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return ";".join(str(_flat_cell(v)) for v in value)
    return value


def write_report(path: str, report: dict) -> None:
    """Write a JSON report; a flat CSV twin lands next to it.

    The JSON text is built whole by json.dumps, whose C encoder writes
    the same bytes as the pure-Python one that json.dump streams through,
    and converts numpy values as it meets them (_numpy_value).
    The CSV twin is built whole too, and both files are rewritten in
    place by _write_text, with the bytes open(path, "w") would leave.

    Its rows are the report's records; a report that keeps them in
    sub-reports (verify --suite all) gives every sub-report's records in
    turn, led by a suite column.  A report with no records (a verify
    failure, an empty bench grid) gets an empty twin.
    """
    _write_text(path, _json_text(report))
    records = report.get("records")
    if records is None:
        records = [{"suite": sub["suite"], **rec}
                   for sub in report.get("reports", ()) for rec in sub["records"]]
    flat_rows = []
    for rec in records:
        row = {}
        for key, value in rec.items():
            if isinstance(value, dict):
                for sub, subvalue in value.items():
                    row[f"{key}.{sub}"] = _flat_cell(subvalue)
            else:
                row[key] = _flat_cell(value)
        flat_rows.append(row)
    # every key in order of first appearance
    fields = dict.fromkeys(key for row in flat_rows for key in row)
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    if fields:
        writer.writerow(fields)
    writer.writerows([row.get(key, "") for key in fields] for row in flat_rows)
    stem, _ = os.path.splitext(path)
    _write_text(stem + ".csv", buf.getvalue())


def _cmd_gen(args) -> int:
    rng = np.random.default_rng(np.random.SeedSequence([args.seed, 1]))
    scaling = (args.scaling_range[0], args.scaling_range[1])
    metadata = {"seed": args.seed, "generator": args.kind,
                "description": f"{args.kind} n={args.n} d={args.d}"}
    pairs = [generate(args.kind, rng, args.n, args.d, scaling_range=scaling)
             for _ in range(args.instances)]
    if args.instances == 1 and not os.path.isdir(args.out):
        save_instance(args.out, pairs[0], metadata)
        print(f"wrote 1 instance to {args.out}")
        return EXIT_OK
    os.makedirs(args.out, exist_ok=True)
    for i, pair in enumerate(pairs):
        name = f"instance-{i:03d}{INSTANCE_SUFFIX}"
        save_instance(os.path.join(args.out, name), pair, metadata)
    print(f"wrote {len(pairs)} instance(s) to {args.out}/")
    return EXIT_OK


def _oracle_allowed(pair: FramePair, phase_steps: int) -> bool:
    return phase_steps > 0 and pair.n <= GRID_MAX_N


def _timed(fn, *args):
    """fn(*args) and its wall seconds."""
    started = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - started


def _cmd_analyze(args) -> int:
    corpus = load_corpus(args.infile)
    records = []
    for label, pair, _ in corpus:
        bx, by = map(bounds_from_spectrum, frame_eigh(pair)[0])
        dev = identity_deviation(pair)
        alt, ascent_s = _timed(norm_lower_alternating, pair)
        rec = {"instance": label, "n": pair.n, "d": pair.dim,
               "bessel_x": [bx.lower, bx.upper],
               "bessel_y": [by.lower, by.upper],
               "phi_norm_lower": alt.value,
               "check_results": {"identity_deviation": dev,
                                 "x_is_frame": bx.is_frame,
                                 "y_is_frame": by.is_frame},
               "stats": {"ascent_s": ascent_s,
                         "ascent_iterations": alt.iterations,
                         "ascent_extrapolations": alt.extrapolations}}
        if _oracle_allowed(pair, args.phase_steps):
            grid, rec["stats"]["grid_s"] = _timed(
                norm_oracle_grid, pair, args.phase_steps)
            # exact counts: rows past the eigenvalue row bound, masks
            # whose top eigenvalue is computed
            rec["stats"].update(grid_rows_kept=grid.rows_kept,
                                grid_masks_evaluated=grid.masks_evaluated)
            rec["phi_norm_oracle"] = grid.value
        records.append(rec)
        oracle = rec.get("phi_norm_oracle")
        extra = f" phi_oracle={oracle:.6g}" if oracle is not None else ""
        print(f"{label}: n={pair.n} d={pair.dim} "
              f"identity_dev={rec['check_results']['identity_deviation']:.3g} "
              f"phi_norm_lower={alt.value:.6g}{extra}")
    report = {"format_version": FORMAT_VERSION, "command": "analyze",
              "records": records,
              "summary": {"instances": len(records), "failures": 0}}
    if args.out:
        write_report(args.out, report)
    return EXIT_OK


def _cmd_rescale(args) -> int:
    corpus = load_corpus(args.infile)
    records = []
    failures = 0
    for label, pair, _ in corpus:
        bracket = optimize(pair)
        scaling = extract_scaling(bracket)
        checks = {"bound_respected": scaling.bounds_within()}
        if args.dilation:
            dil = build_dilation(scaling)
            checks["dilation_defect"] = dil.isometry_defect
            checks["dilation_isometric"] = dil.is_isometric
        rec = {"instance": label, "n": pair.n, "d": pair.dim,
               "phi_norm_lower": bracket.ascent.value,
               "M_upper": bracket.m_upper, "M_lower": bracket.m_lower,
               "gap": bracket.gap,
               "ratio": bracket.m_upper / bracket.ascent.value,
               "weights": [float(t) for t in bracket.log_weights],
               "bessel_x": [scaling.bounds_x.lower, scaling.bounds_x.upper],
               "bessel_y": [scaling.bounds_y.lower, scaling.bounds_y.upper],
               "check_results": checks,
               "stats": bracket.stats}
        ok = all(v for v in checks.values() if isinstance(v, bool))
        failures += not ok
        records.append(rec)
        print(f"{label}: M_lower={bracket.m_lower:.6g} "
              f"M_upper={bracket.m_upper:.6g} gap={bracket.gap:.2g} "
              f"bessel=({scaling.bounds_x.upper:.6g}, "
              f"{scaling.bounds_y.upper:.6g}) ratio={rec['ratio']:.4f} ok={ok}")
    summary = {"instances": len(records), "failures": failures,
               "max_ratio": max(rec["ratio"] for rec in records)}
    report = {"format_version": FORMAT_VERSION, "command": "rescale",
              "records": records, "summary": summary}
    if args.out:
        write_report(args.out, report)
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


def _cmd_verify(args) -> int:
    try:
        report = run_suite(args.suite, seed=args.seed)
    except VerificationError as exc:
        failure = {"format_version": FORMAT_VERSION, "command": "verify",
                   "suite": args.suite, "seed": args.seed, "error": str(exc),
                   "record": exc.record,
                   "summary": {"failures": 1}}
        out = args.out or f"verify-{args.suite}-failure.json"
        write_report(out, failure)
        print(f"FAIL {args.suite}: {exc}", file=sys.stderr)
        print(f"failure details written to {out}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    report = {"format_version": FORMAT_VERSION, "command": "verify",
              **report}
    report.setdefault("summary", {})["failures"] = 0
    if args.out:
        write_report(args.out, report)
    for sub in report.get("reports", [report]):
        print(f"PASS {sub['suite']} in {sub['summary']['wall_s']:.1f}s: "
              f"{json.dumps(sub['summary'], default=_numpy_value)}")
    return EXIT_OK


def _parse_grid(text: str):
    cells = []
    if not text:
        return cells
    for part in text.split(","):
        bits = part.lower().split("x")
        if len(bits) != 2:
            raise InstanceFormatError(
                f"bad grid cell {part!r}; expected NxD like 4x2")
        try:
            n, d = int(bits[0]), int(bits[1])
        except ValueError as exc:
            raise InstanceFormatError(
                f"bad grid cell {part!r}; expected integers") from exc
        if n < 1 or d < 1:
            raise InstanceFormatError(f"bad grid cell {part!r}; need n, d >= 1")
        cells.append((n, d))
    return cells


def _rewrite_and_load(path: str, pair: FramePair) -> FramePair:
    """save_instance at path, then load_instance of it; bench's timed
    calls rewrite the file its untimed call made."""
    save_instance(path, pair)
    return load_instance(path)[0]


def _median(values) -> float:
    """The middle of BENCH_REPEATS values."""
    return sorted(values)[BENCH_REPEATS // 2]


def _bench_timed(fn, *args):
    """fn(*args) once untimed, then BENCH_REPEATS timed calls: their
    results, in call order, and the median of their wall seconds."""
    fn(*args)
    outs, seconds = zip(*(_timed(fn, *args) for _ in range(BENCH_REPEATS)))
    return outs, _median(seconds)


def _cmd_bench(args) -> int:
    # bench is their only user; other commands skip the imports
    import hashlib
    import platform

    rng = np.random.default_rng(np.random.SeedSequence([args.seed, 99]))
    records = []
    failures = 0
    for n, d in _parse_grid(args.grid):
        pair = generate("gaussian", rng, n, d)
        # the arrays' bytes, so the file encoder cannot move the checksum
        checksum = hashlib.sha256(
            pair.xs.tobytes() + pair.ys.tobytes()).hexdigest()[:16]
        _, t_eig = _bench_timed(eigh, frame_operator(pair.xs))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cell" + INSTANCE_SUFFIX)
            backs, t_io = _bench_timed(_rewrite_and_load, path, pair)
        back = backs[-1]
        # bytes, not values: -0.0 == 0.0, but a flipped sign is a miss
        if (back.xs.tobytes() != pair.xs.tobytes()
                or back.ys.tobytes() != pair.ys.tobytes()):
            failures += 1
            print(f"n={n} d={d}: instance file did not round-trip",
                  file=sys.stderr)
        grid_ok = _oracle_allowed(pair, args.phase_steps)
        grids, t_grid = (_bench_timed(norm_oracle_grid, pair, args.phase_steps)
                         if grid_ok else ([None], None))
        grid = grids[-1]
        masks = args.phase_steps ** (n - 1) if grid_ok else None
        brackets, t_opt = _bench_timed(optimize, pair)
        bracket = brackets[-1]
        t_ascent = _median(br.stats["ascent_s"] for br in brackets)
        rec = {"n": n, "d": d, "workload_checksum": checksum,
               "repeats": BENCH_REPEATS,
               "eig_seconds": t_eig,
               "io_seconds": t_io,
               "grid_seconds": t_grid,
               "grid_masks": masks,
               "grid_ns_per_mask": 1e9 * t_grid / masks if grid_ok else None,
               "grid_rows_kept": grid.rows_kept if grid_ok else None,
               "grid_masks_evaluated": grid.masks_evaluated if grid_ok else None,
               "optimize_seconds": t_opt,
               "ascent_seconds": t_ascent,
               "stats": bracket.stats}
        records.append(rec)
        grid_note = (f" grid={t_grid:.4f}s ({rec['grid_ns_per_mask']:.1f} ns/mask)"
                     if grid_ok else "")
        print(f"n={n} d={d} [{checksum}]: eig={t_eig:.4f}s io={t_io:.4f}s"
              f"{grid_note} optimize={t_opt:.4f}s "
              f"stop={bracket.stats['stop']} "
              f"steps={bracket.stats['newton_steps']} "
              f"eigh={bracket.stats['eigh_calls']} "
              f"ascent={t_ascent:.4f}s")
    if not records:
        print("empty grid, nothing to time")
    if args.out:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        machine = {"cpu_count": os.cpu_count(),
                   "python": platform.python_version(),
                   "numpy": np.__version__, "arch": platform.machine(),
                   "blas": blas.get("name"),
                   "blas_version": blas.get("version")}
        write_report(args.out, {"format_version": FORMAT_VERSION,
                                "command": "bench", "records": records,
                                "summary": {"cases": len(records),
                                            "failures": failures,
                                            "machine": machine}})
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}") from None


def _count(text: str) -> int:
    """argparse type of a count: an integer >= 1."""
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _phase_steps(text: str) -> int:
    """argparse type of --phase-steps: 0 (no grid) or >= GRID_MIN_STEPS."""
    value = _integer(text)
    if value != 0 and value < GRID_MIN_STEPS:
        raise argparse.ArgumentTypeError(
            f"must be 0 or at least {GRID_MIN_STEPS}, got {value}")
    return value


def _report_path(text: str) -> str:
    """argparse type of a report's --out: not a .csv path, which the
    report's CSV twin (see write_report) would overwrite."""
    if os.path.splitext(text)[1].lower() == ".csv":
        raise argparse.ArgumentTypeError(
            f"{text!r} ends in .csv, the name of the report's CSV twin")
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framescale",
        description="Frame multiplier bounds, rescaling, and inequality checks")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate random instance files")
    gen.add_argument("--kind", choices=GENERATOR_KINDS, default="gaussian")
    gen.add_argument("--n", type=_count, default=4)
    gen.add_argument("--d", type=_count, default=2)
    gen.add_argument("--instances", type=_count, default=1,
                     help="more than one writes a corpus directory")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--scaling-range", type=float, nargs=2,
                     default=[1e-3, 1e3], metavar=("LO", "HI"),
                     help="magnitude range of the mangling scalars; only "
                          "schauder_mangled reads it")
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_gen)

    analyze = sub.add_parser("analyze",
                             help="frame bounds and multiplier estimates")
    analyze.add_argument("--in", dest="infile", required=True,
                         help="instance file or corpus directory")
    analyze.add_argument("--seed", type=int, default=None, help=NO_SEED_HELP)
    analyze.add_argument("--phase-steps", type=_phase_steps, default=0,
                         help="grid oracle resolution; 0 disables the grid")
    analyze.add_argument("--out", type=_report_path, default=None)
    analyze.set_defaults(func=_cmd_analyze)

    rescale = sub.add_parser("rescale",
                             help="optimize weights and certify the bound")
    rescale.add_argument("--in", dest="infile", required=True,
                         help="instance file or corpus directory")
    rescale.add_argument("--seed", type=int, default=None, help=NO_SEED_HELP)
    rescale.add_argument("--dilation", action="store_true",
                         help="also build the dilation and check isometries")
    rescale.add_argument("--out", type=_report_path, default=None)
    rescale.set_defaults(func=_cmd_rescale)

    ver = sub.add_parser("verify", help="run an inequality suite")
    ver.add_argument("--suite", default="all", choices=[*SUITES, "all"])
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--out", type=_report_path, default=None)
    ver.set_defaults(func=_cmd_verify)

    bench = sub.add_parser(
        "bench", help="time the core operations: the median of "
        f"{BENCH_REPEATS} calls per layer, after one untimed call")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--grid", default="4x2,5x3",
                       help="comma-separated NxD cells; empty for none")
    bench.add_argument("--phase-steps", type=_phase_steps, default=24)
    bench.add_argument("--out", type=_report_path, default=None)
    bench.set_defaults(func=_cmd_bench)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built on the first call and reused by later ones.

    parse_args leaves a parser unchanged and returns a fresh namespace,
    so no option of one main call reaches the next.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (InstanceFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
