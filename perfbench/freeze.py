"""Regenerate frozen.json: the synthetic-q input keys and their values.

    python3 perfbench/freeze.py

Run it from the repository root (it takes about five minutes).  It scans
keys 0, 1, 2, ... and keeps the first VARIANTS whose 1-D weights are
generic, meaning the convolution merges no atoms (all 2^n signed sums stay
distinct).  For each kept key it records the values ``anticonc q`` prints
for every synthetic-q case.  The benchmark checks later versions of the
package against them: exact values must match within 1e-12 and Monte Carlo
values may not fall below them.  Regenerate only when a change is meant to
alter them, and say so where the change is recorded.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "ANTICONC_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def merges_no_atoms(obj: dict) -> bool:
    from anticonc.concentration import weighted_sum_distribution
    from anticonc.instances import InstanceSpec

    spec = InstanceSpec.from_json_obj(obj)
    return weighted_sum_distribution(spec.x, spec.a).n_atoms == 2**spec.a.n


def main() -> int:
    workloads.import_package(Path.cwd())
    import anticonc.cli

    frozen = {}
    scratch = Path.cwd() / ".bench_out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for key in itertools.count():
            if len(frozen) == workloads.VARIANTS:
                break
            (_, one_d, _, _), *_ = workloads.q_instances(key)
            if not merges_no_atoms(one_d):
                print(key, "skipped: the 1-D convolution merges atoms", file=sys.stderr)
                continue
            values = {}
            for op in workloads.q_ops(key, Path(tmp), workloads.Q_CASES, None):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    rc = anticonc.cli.main(op.argv)
                if rc != 0:
                    raise SystemExit(f"{op.label} (key {key}) exited {rc}")
                values[op.label] = json.loads(buf.getvalue())["value"]
            frozen[str(key)] = values
            print(key, values, file=sys.stderr)
    workloads.FROZEN_PATH.write_text(
        json.dumps({"synthetic-q": frozen}, indent=1, sort_keys=True) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
