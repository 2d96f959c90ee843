"""Write figures_ref.json, the pinned outputs the figures workload checks.

Run from the repository root on the commit whose outputs are the
reference:

    python3 perfbench/make_refs.py

For each preset it keeps the printed lines (output directory replaced by
``{out}``), the file names, and per CSV the header, the row count, the
rows whose ``physical`` column is false and the rows listed in PINNED_ROWS.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

import run

PINNED_ROWS = (0, 1, 2, 3) + tuple(range(50, 501, 50))


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    run.pin_threads()
    ob = run.import_program(root)
    import oscbath.cli

    work = root / run.OUT_DIR / "make_refs"
    shutil.rmtree(work, ignore_errors=True)
    refs = {}
    for figure_id in ob.FIGURE_IDS:
        out_dir = work / figure_id
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = oscbath.cli.main(["figure", figure_id, "--out", str(out_dir)])
        if code != 0:
            print(f"{figure_id}: exit {code}", file=sys.stderr)
            return 1
        entry = {
            "stdout": stdout.getvalue().replace(str(out_dir), "{out}"),
            "svg": f"{figure_id}.svg",
            "csv": {},
        }
        for path in sorted(out_dir.glob("*.csv")):
            lines = path.read_text(encoding="utf-8").split("\n")
            rows = [line for line in lines if line and not line.startswith("#")]
            header, rows = rows[0], rows[1:]
            entry["csv"][path.name] = {
                "header": header,
                "n_rows": len(rows),
                "not_physical": [i for i, row in enumerate(rows)
                                 if row.endswith(",false")],
                "rows": {str(i): rows[i] for i in PINNED_ROWS},
            }
        refs[figure_id] = entry
    shutil.rmtree(work, ignore_errors=True)
    target = Path(__file__).with_name("figures_ref.json")
    target.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {target} ({len(refs)} presets)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
