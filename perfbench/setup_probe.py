"""Set-up probe: a fresh interpreter imports guidedppl.cli and builds the
models and guides of one workload.  run.py times this script from spawn
to exit.

    python3 perfbench/setup_probe.py <workload> <scale>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from guidedppl import cli  # noqa: E402

for model, guide, cfg in workloads.make(sys.argv[1], sys.argv[2]).builds():
    entry, _ = cli.build_model(model, cfg)
    if guide is None:
        entry.family(ceiling=cfg["ceiling"])
    else:
        cli.build_guide(entry, guide, cfg)
