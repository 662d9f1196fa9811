"""The benchmark's workloads: inputs, one operation each, and output checks.

Every workload is a closed loop with one client: the next operation
starts when the previous one has returned.  The CLI workloads drive
``framescale.cli.main`` once per instance file; ``inequality-checks``
calls the public ``framescale.verify`` checks directly.

The CLI workloads run over a fixed pool of instances.  Each pool entry
carries the value the seed commit computed for it (``reference.json``),
and the output check holds every later commit to that value.  Within
one shape the time per instance still varies by about 35 percent, so a
run of fresh draws would not repeat to the benchmark's bounds; a run
therefore visits whole passes over its pool, and the workload seed sets
the order of each pass.  ``inequality-checks`` needs no reference, so
its inputs are drawn from the workload seed itself.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
from dataclasses import dataclass, field

import numpy as np

POOL_SEED = 2508  # pools and reference.json are tied to this value
REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")

# relative tolerances of the independent output checks
BESSEL_RTOL = 1e-10       # max(f, g) from LAPACK against the reported m_upper
ROUNDING_RTOL = 1e-12     # orderings that hold exactly up to rounding
REFERENCE_RTOL = 1e-12    # no worse than the seed commit's value
LAPACK_RTOL = 1e-10       # program value against a LAPACK recomputation
POWER_RTOL = 1e-9         # program value from power iteration against LAPACK
DILATION_DEFECT_MAX = 1e-8
OPEN_BRACKET_RTOL = 1e-6


@dataclass
class Entry:
    """One pool instance: its file and the pair it holds."""

    name: str
    pair: object
    path: str = ""
    reference: dict = field(default_factory=dict)


def _quiet_call(fn, *args):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return fn(*args)


def _rel_excess(value: float, bound: float) -> float:
    """How far value exceeds bound, relative to |bound|; <= 0 when within."""
    return (value - bound) / abs(bound)


class CliWorkload:
    """Instance files through one framescale CLI command."""

    name = ""
    why = ""
    command = []              # argv before --in
    phase_steps = 0
    mangle_gaussian = False
    # nominal seconds of one pass, which sizes a run (run.Run.passes):
    # about one pass at the seed commit on a 2-core Xeon
    pass_seconds = 1.0

    def __init__(self, fs):
        self.fs = fs

    def strata(self):
        """(kind, n, d, scale exponent range or None) per pool entry."""
        raise NotImplementedError

    def make_pool(self, seed: int):
        """Generate the fixed pool; every entry has its own seeded stream.

        The workload seed does not enter here: it only orders the passes.
        """
        fs = self.fs
        pool = []
        for i, (kind, n, d, scale) in enumerate(self.strata()):
            rng = np.random.default_rng(
                np.random.SeedSequence([POOL_SEED, i, n, d]))
            pair = fs.generate(kind, rng, n, d, scaling_range=(1e-3, 1e3))
            if kind == "gaussian" and self.mangle_gaussian:
                pair = fs.mangle(pair, fs.mangling_scalars(rng, n, (1e-3, 1e3)))
            label = f"{i:02d}-{kind}-{n}x{d}"
            if scale is not None:
                exponent = rng.uniform(*scale)
                pair = fs.FramePair(pair.xs * 10.0 ** exponent, pair.ys)
                label += f"-x1e{exponent:+.2f}"
            pool.append(Entry(label, pair))
        return pool

    def write_pool(self, pool, directory: str) -> None:
        for entry in pool:
            entry.path = os.path.join(directory, entry.name + ".frame.json")
            self.fs.cli.save_instance(entry.path, entry.pair)

    def order(self, pool, seed: int):
        """Endless passes over the pool, each in a seeded order.

        Yields (entry, whether it closes a pass).
        """
        rng = np.random.default_rng(np.random.SeedSequence([seed, len(pool)]))
        while True:
            perm = rng.permutation(len(pool))
            for pos, i in enumerate(perm):
                yield pool[int(i)], pos == len(pool) - 1

    def references(self) -> dict:
        """{entry name: seed-commit values}."""
        return reference_doc(self.name).get("entries", {})

    def reference_digest(self):
        return reference_doc(self.name).get("inputs_sha256")

    def masks(self, entry) -> int:
        """Grid masks one operation sweeps: steps^(n-1), for n <= 6."""
        n = entry.pair.n
        return self.phase_steps ** (n - 1) if 0 < self.phase_steps and n <= 6 else 0

    def run(self, entry, report: str) -> int:
        argv = [*self.command, "--in", entry.path, "--seed", "0",
                "--out", report]
        return _quiet_call(self.fs.cli.main, argv)

    def read_report(self, report: str) -> dict:
        with open(report, "r", encoding="utf-8") as fh:
            return json.load(fh)["records"][0]

    def inspect(self, entry, code: int, report: str):
        """(problems, open bracket) for one finished operation."""
        record = self.read_report(report)
        problems = self.check(entry, code, record)
        return problems, not problems and self.is_open(record)

    def digest_parts(self, pool):
        for entry in pool:
            with open(entry.path, "rb") as fh:
                yield fh.read()

    def check(self, entry, code: int, record: dict):
        """Problems found in one operation's output; empty when it passed."""
        raise NotImplementedError

    def is_open(self, record: dict) -> bool:
        return False


def bessel_tops(pair, weights):
    """f and g at log-weights t, from LAPACK: top eigenvalues of the
    weighted frame operators sum_k e^{+-t_k} v_k v_k^*."""
    t = np.asarray(weights, dtype=np.float64)
    fmat = (pair.xs.T * np.exp(t)) @ pair.xs.conj()
    gmat = (pair.ys.T * np.exp(-t)) @ pair.ys.conj()
    return (float(np.linalg.eigvalsh(fmat)[-1]),
            float(np.linalg.eigvalsh(gmat)[-1]))


class RescaleWorkload(CliWorkload):
    command = ["rescale", "--dilation"]

    def check(self, entry, code, record):
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        weights = record["weights"]
        if len(weights) != entry.pair.n or not np.all(np.isfinite(weights)):
            return problems + ["weights are not n finite numbers"]
        m_upper, m_lower = record["M_upper"], record["M_lower"]
        f, g = bessel_tops(entry.pair, weights)
        if abs(max(f, g) - m_upper) > BESSEL_RTOL * m_upper:
            problems.append(f"m_upper {m_upper!r} is not max(f, g) = {max(f, g)!r}")
        if _rel_excess(m_lower, m_upper) > ROUNDING_RTOL:
            problems.append(f"m_lower {m_lower!r} above m_upper {m_upper!r}")
        defect = record["check_results"].get("dilation_defect")
        if defect is None or not defect <= DILATION_DEFECT_MAX:
            problems.append(f"dilation defect {defect!r}")
        ref = entry.reference.get("m_upper")
        if ref is None:
            problems.append("no reference m_upper")
        elif _rel_excess(m_upper, ref) > REFERENCE_RTOL:
            problems.append(f"m_upper {m_upper!r} worse than reference {ref!r}")
        return problems

    def is_open(self, record):
        m_upper, m_lower = record["M_upper"], record["M_lower"]
        return (m_upper - m_lower) / m_upper > OPEN_BRACKET_RTOL


class RescaleSmall(RescaleWorkload):
    name = "rescale-small"
    why = ("many tiny eigenproblems: criterion-01 sized mangled pairs, half "
           "with a global unit factor on x")
    mangle_gaussian = True
    pass_seconds = 5.0

    def strata(self):
        out = []
        shapes = ((3, 1), (5, 1), (3, 2), (4, 2), (5, 2), (3, 3))
        for j, (n, d) in enumerate(shapes):
            for k, kind in enumerate(("schauder_mangled", "gaussian")):
                scaled = (j + k) % 2 == 1
                out.append((kind, n, d, (-8.0, 0.0) if scaled else None))
        return out


class OracleGrid(CliWorkload):
    name = "oracle-grid"
    why = ("the phase-grid oracle: 32^4 masks per instance, alternating "
           "ascent, no rescale")
    command = ["analyze", "--phase-steps", "32"]
    phase_steps = 32
    pass_seconds = 8.0

    def strata(self):
        return [("gaussian", 5, d, None) for _ in range(6) for d in (2, 3)]

    def check(self, entry, code, record):
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        value = record.get("phi_norm_oracle")
        if value is None:
            return problems + ["no oracle value"]
        xs, ys = entry.pair.xs, entry.pair.ys
        floor = float(np.linalg.norm(xs.T @ ys.conj(), 2))
        ceiling = float(np.sum(np.linalg.norm(xs, axis=1)
                               * np.linalg.norm(ys, axis=1)))
        if _rel_excess(floor, value) > LAPACK_RTOL:
            problems.append(f"oracle {value!r} below the unmasked norm {floor!r}")
        if _rel_excess(value, ceiling) > ROUNDING_RTOL:
            problems.append(f"oracle {value!r} above sum |x||y| = {ceiling!r}")
        ref = entry.reference.get("oracle")
        if ref is None:
            problems.append("no reference oracle value")
        elif _rel_excess(ref, value) > REFERENCE_RTOL:
            problems.append(f"oracle {value!r} below reference {ref!r}")
        return problems


# --------------------------------------------------------------------------
# inequality-checks


@dataclass
class Bundle:
    """One input for every public inequality check."""

    a: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    hold_a: np.ndarray
    hold_b: np.ndarray
    pairing_pair: object
    mats: np.ndarray
    pus: np.ndarray
    pvs: np.ndarray
    key_pair: object
    phi: float
    u: np.ndarray
    v: np.ndarray
    us: np.ndarray
    vs: np.ndarray


def _complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class InequalityChecks:
    """Seeded inputs through the public verify checks."""

    name = "inequality-checks"
    why = ("the verify layer and the one-sided Jacobi SVD; rescale and the "
           "grid are bypassed")
    bundles = 256
    chain_m_cap = 10
    pass_seconds = 2.0

    def __init__(self, fs):
        self.fs = fs

    def make_pool(self, seed: int):
        """Bundles whose values the workload seed draws.

        Sizes and pair kinds come from a fixed stream, so every seed asks
        for the same amount of work: the sign enumeration alone grows as
        2^size, and free sizes made the time per pass vary by seed."""
        fs = self.fs
        sizes = np.random.default_rng(np.random.SeedSequence([POOL_SEED, 3]))
        rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
        out = []
        for i in range(self.bundles):
            mk, mt, mh = (int(sizes.integers(1, 13)), int(sizes.integers(1, 9)),
                          int(sizes.integers(1, 5)))
            n, d, m = (int(sizes.integers(2, 5)), int(sizes.integers(1, 4)),
                       int(sizes.integers(1, 4)))
            pairing = fs.generate("gaussian", rng, n, d)
            if i % 2 == 0:
                kd, q = int(sizes.integers(1, 4)), int(sizes.integers(1, 4))
                key_pair = fs.generate("onb_union", rng, q * kd, kd)
                phi = 1.0
            else:
                key_pair = fs.generate("d1_scalars", rng, int(sizes.integers(2, 6)), 1)
                phi = float(np.sum(np.abs(key_pair.xs[:, 0] * key_pair.ys[:, 0])))
            kd = key_pair.dim
            mc = int(sizes.integers(1, self.chain_m_cap + 1))
            out.append(Bundle(
                _complex(rng, mk), _complex(rng, mt), _complex(rng, mt),
                _complex(rng, mh, mh), _complex(rng, mh, mh),
                pairing, _complex(rng, n, m, m), _complex(rng, m, d),
                _complex(rng, m, d), key_pair, phi, _complex(rng, kd),
                _complex(rng, kd), _complex(rng, mc, kd), _complex(rng, mc, kd)))
        return out

    def write_pool(self, pool, directory):
        pass

    def order(self, pool, seed):
        """The seeded bundles in turn, one pass after another."""
        while True:
            for pos, bundle in enumerate(pool):
                yield bundle, pos == len(pool) - 1

    def references(self):
        return {}

    def reference_digest(self):
        return None

    def masks(self, entry):
        return 0

    def run(self, b, report):
        v = self.fs.verify
        return {
            "khintchine": v.khintchine_check(b.a),
            "trace_lemma": v.trace_lemma_check(b.alpha, b.beta),
            "holder": v.holder_trace_check(b.hold_a, b.hold_b),
            "pairing": v.trace_pairing_check(b.pairing_pair, b.mats, b.pus, b.pvs),
            "key_simple": v.key_simple_check(b.key_pair, b.u, b.v, b.phi),
            "super_key": v.super_key_check(b.key_pair, b.us, b.vs, b.phi,
                                           chain_m_cap=self.chain_m_cap),
        }

    def inspect(self, bundle, records, report):
        return self.check(bundle, 0, records), False

    def digest_parts(self, pool):
        for bundle in pool:
            for value in vars(bundle).values():
                if isinstance(value, np.ndarray):
                    yield value.tobytes()
                elif hasattr(value, "xs"):
                    yield value.xs.tobytes() + value.ys.tobytes()

    def check(self, b, code, rec):
        """Each check's headline numbers, recomputed with numpy alone."""
        problems = []

        def near(label, got, want, rtol, scale=None):
            scale = abs(want) if scale is None else scale
            if not abs(got - want) <= rtol * scale:
                problems.append(f"{label}: {got!r} vs independent {want!r}")

        signs = np.array(list(itertools.product((-1.0, 1.0), repeat=b.a.size)))
        first_moment = float(np.mean(np.abs(signs @ b.a)))
        near("khintchine lhs", rec["khintchine"]["lhs"], first_moment, LAPACK_RTOL)
        near("khintchine rhs", rec["khintchine"]["rhs"],
             np.sqrt(0.5) * np.linalg.norm(b.a), LAPACK_RTOL)

        outer = np.outer(b.alpha, b.beta)
        near("trace lemma svd", rec["trace_lemma"]["svd_value"],
             float(np.sum(np.linalg.svd(outer, compute_uv=False))), LAPACK_RTOL)

        near("holder rhs", rec["holder"]["rhs"],
             float(np.linalg.norm(b.hold_a, 2) * np.linalg.norm(b.hold_b, "nuc")),
             POWER_RTOL)
        near("holder lhs", rec["holder"]["lhs"],
             abs(np.trace(b.hold_a @ b.hold_b)), LAPACK_RTOL,
             scale=float(np.sum(np.abs(b.hold_a) * np.abs(b.hold_b.T))))

        p = b.pairing_pair
        cu = np.conj(p.ys) @ b.pus.T            # <u_j, y_k>, shape (n, m)
        cv = p.xs @ np.conj(b.pvs).T            # <x_k, v_i>, shape (n, m)
        terms = b.mats * cv[:, :, None] * cu[:, None, :]
        near("trace pairing", rec["pairing"]["value"], complex(np.sum(terms)),
             LAPACK_RTOL, scale=float(np.sum(np.abs(terms))))

        kp = b.key_pair
        lhs = float(np.sum(np.abs(np.conj(kp.ys) @ b.u) * np.abs(kp.xs @ np.conj(b.v))))
        near("key lhs", rec["key_simple"]["lhs"], lhs, LAPACK_RTOL)
        if _rel_excess(lhs, b.phi * np.linalg.norm(b.u) * np.linalg.norm(b.v)) > ROUNDING_RTOL:
            problems.append("key estimate fails against the closed-form norm")
        block = float(np.sum(np.linalg.norm(np.conj(kp.ys) @ b.us.T, axis=1)
                             * np.linalg.norm(kp.xs @ np.conj(b.vs).T, axis=1)))
        near("block key lhs", rec["super_key"]["lhs"], block, LAPACK_RTOL)
        if _rel_excess(block, 2.0 * b.phi * np.linalg.norm(b.us)
                       * np.linalg.norm(b.vs)) > ROUNDING_RTOL:
            problems.append("block key estimate fails against the closed-form norm")
        return problems


WORKLOADS = {w.name: w for w in (RescaleSmall, OracleGrid, InequalityChecks)}


def inputs_digest(workload, pool) -> str:
    """sha256 over the bytes of every generated input, in pool order."""
    digest = hashlib.sha256()
    for part in workload.digest_parts(pool):
        digest.update(part)
    return digest.hexdigest()


def reference_doc(workload: str) -> dict:
    """The stored seed-commit values of one workload; empty if none."""
    try:
        with open(REFERENCE_FILE, "r", encoding="utf-8") as fh:
            return json.load(fh)["workloads"].get(workload, {})
    except FileNotFoundError:
        return {}
