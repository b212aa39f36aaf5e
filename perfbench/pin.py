"""Regenerate the pinned inputs and references in ``perfbench/data``.

    python3 perfbench/pin.py

Writes the seed-0 default-scenario rate table that the ``optimize``
workload consumes, and the seed-0 ``svcache analyze`` outputs that the
``analyze`` and ``validate`` checks compare against.  Takes about 20 s.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from svcache.analytic import build_rate_table  # noqa: E402
from svcache.config import (ContentConfig, NetworkConfig,  # noqa: E402
                            PowerCoefficients)

import workloads as wl  # noqa: E402


def main() -> int:
    net, content, coeff = NetworkConfig(), ContentConfig(), PowerCoefficients()
    digest = wl.scenario_hash(net, content, coeff)
    table = build_rate_table(net, seed=0)
    wl.DATA_DIR.mkdir(exist_ok=True)
    wl.TABLE_FILE.write_text(json.dumps(
        {"scenario_hash": digest, "table": wl.table_to_json(table)}, indent=1)
        + "\n")
    with tempfile.TemporaryDirectory(dir=Path(__file__).parent) as tmp:
        sc = wl.Scenario(net=net, content=content, coeff=coeff, hash=digest,
                         drops=0, settings=None, icp_realizations=0, ctx=None,
                         reference={}, out_dir=Path(tmp))
        out = wl.RUN["analyze"](sc, 0)
    if out["rc"] != 0:
        raise SystemExit(f"svcache analyze exited {out['rc']}")
    wl.ANALYZE_FILE.write_text(json.dumps(
        {"scenario_hash": digest, "seed": 0, "rows": out["rows"]}, indent=1)
        + "\n")
    print(f"wrote {wl.TABLE_FILE} and {wl.ANALYZE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
