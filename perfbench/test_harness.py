"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/test_harness.py

They run every workload at smoke size, show that a corrupted output is
counted as a failed operation, and show that the exact counts of a
traced run repeat.  The tier-1 suite does not collect them.
"""

import pytest

import run
import workloads


@pytest.fixture(scope="module")
def fs():
    return run.import_framescale()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_each_workload_at_smoke_size(name):
    record = run.measure(name, seed=3, seconds=0.0, trace=False, max_ops=1)
    assert record["attempted"] == 1
    assert record["failed"] == 0, record["failures"]
    line = run.summary_line(record, run.load_spec())
    assert line["correct"] is True
    assert all(m["value"] > 0 for m in line["metrics"].values())


def _one_op(workload):
    bench = run.Run(workload, seed=5, seconds=0.0)
    bench.setup()
    bench.loop(max_ops=1)
    return bench.failures()


def test_corrupted_weights_count_as_a_failed_operation(fs):
    workload = workloads.RescaleSmall(fs)
    read = workload.read_report

    def shifted(report):
        record = read(report)
        record["weights"] = [t + 1.0 for t in record["weights"]]
        return record

    workload.read_report = shifted
    failures = _one_op(workload)
    assert len(failures) == 1
    assert any("max(f, g)" in p for p in failures[0][1])


def test_corrupted_oracle_counts_as_a_failed_operation(fs):
    workload = workloads.OracleGrid(fs)
    read = workload.read_report

    def lowered(report):
        record = read(report)
        record["phi_norm_oracle"] *= 1.0 - 1e-9
        return record

    workload.read_report = lowered
    failures = _one_op(workload)
    assert len(failures) == 1
    assert any("below reference" in p for p in failures[0][1])


EXACT = ("linalg.calls_per_op", "rescale.optimize.linalg_calls",
         "multiplier.norm_lower_alternating.calls_per_op")


def test_exact_counts_repeat_across_traced_runs(fs):
    first, second = (run.measure("rescale-small", seed=7, seconds=0.0,
                                 trace=True, max_ops=3)["per_layer"]
                     for _ in range(2))
    assert {k: first[k] for k in EXACT} == {k: second[k] for k in EXACT}
    assert first["multiplier.norm_lower_alternating.calls_per_op"] == 2
    assert not hasattr(fs.linalg.jacobi_eigh, "__wrapped__")
