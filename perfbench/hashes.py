"""Print the sha256 of every report the benchmark's workloads produce.

    python3 perfbench/hashes.py [--seed N]

Run from the root of a source checkout.  The reports are the bytes the
CLI would write; a change that claims to leave every report unchanged
can compare these lines before and after.  They are a reference, not a
gate: the benchmark itself checks values against closed forms.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

from workloads import WORKLOADS

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from subreg.report import emit_report, parse_config, run_config  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    for name, workload in WORKLOADS.items():
        for op in workload.build(args.seed):
            cfg = parse_config(op.config)
            text = emit_report(run_config(cfg), cfg.output_format)
            print(f"{hashlib.sha256(text.encode()).hexdigest()}  {name}  {op.label}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
