"""Regenerate reference.json: the seed commit's values for every pool entry.

    python3 perfbench/make_reference.py

The output checks hold later commits to these values (m_upper no worse,
oracle no lower, both to 1e-12 relative), so run this only when a pool
changes, and only on the commit whose values are to be the reference.
"""

import json
import sys

from run import OUT, Run, import_framescale
from workloads import REFERENCE_FILE, WORKLOADS, CliWorkload, inputs_digest


def main() -> int:
    fs = import_framescale()
    doc = {"note": "values computed by the framescale commit that defined "
                   "the benchmark; see make_reference.py",
           "workloads": {}}
    for name, cls in WORKLOADS.items():
        if not issubclass(cls, CliWorkload):
            continue
        workload = cls(fs)
        run = Run(workload, seed=0, seconds=0.0)
        run.setup()
        entries = {}
        for entry in run.pool:
            code = workload.run(entry, run.report)
            record = workload.read_report(run.report)
            values = {"exit_code": code}
            if "M_upper" in record:
                values.update(m_upper=record["M_upper"], m_lower=record["M_lower"])
            if "phi_norm_oracle" in record:
                values["oracle"] = record["phi_norm_oracle"]
            entry.reference = values
            problems = workload.check(entry, code, record)
            print(f"{name} {entry.name}: {values} {problems or 'ok'}", flush=True)
            entries[entry.name] = values
        doc["workloads"][name] = {"inputs_sha256": inputs_digest(workload, run.pool),
                                  "entries": entries}
    with open(REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE_FILE}; scratch output in {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
