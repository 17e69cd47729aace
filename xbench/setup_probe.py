"""Set-up probe: a fresh interpreter imports xhoglab and runs one toy job of
each kind of a workload, as every CLI invocation pays.

Usage: python3 xbench/setup_probe.py <workload> <report directory>
Exits 1 if a job fails.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import jobs  # noqa: E402


def main(workload: str, out_dir: str) -> int:
    out_path = Path(out_dir) / "probe.json"
    status = 0
    for j, kind in enumerate(dict(jobs.WORKLOADS[workload])):
        cmd, _, rc, _, output = jobs.execute(kind, j, True, out_path)
        if rc != 0:
            print(f"{cmd}: exit {rc}\n{output}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
