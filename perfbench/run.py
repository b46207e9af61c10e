"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload stream-txt --seed 0 --seconds 45 --trace 0

``--trace 0`` runs untraced passes for ``--seconds`` and prints the
end-to-end metrics; ``--trace 1`` runs one plain and one traced pass, the
serve leg and the micro-legs and prints the per-layer metrics, writing the
spans to ``.perfbench-out/``. The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it are a readable summary. Metric names and units come from
``BENCHMARK.json``. See perfbench/README.md for what each workload and
metric is for.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _stop_resource_tracker() -> None:
    """Stop the stdlib's shared-memory resource tracker and wait for it,
    so no process this benchmark caused outlives it."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def main(argv: list[str] | None = None) -> int:
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))

    from perfbench.harness import Spans
    from perfbench.workloads import Ctx, Sizes, end_to_end, per_layer

    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    ctx = Ctx(root=ROOT, out=out_dir, seed=args.seed, sizes=Sizes())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    values: dict = {}
    counts: dict = {}
    try:
        if args.trace:
            spans = Spans(True)
            values = per_layer(ctx, args.workload, spans)
            spans.write(out_dir / f"spans-{args.workload}-seed{args.seed}.json")
        else:
            values, counts = end_to_end(ctx, args.workload, args.seconds)
    except Exception:  # noqa: BLE001 - reported as a failed operation
        traceback.print_exc()
        ctx.oracle.op(False, f"{args.workload}: run raised; traceback above")
    finally:
        _stop_resource_tracker()
    return report(values, units, ctx.oracle, counts)


def report(values: dict, units: dict, oracle, counts: dict) -> int:
    """Print the summary and the result line; 0 when every declared
    metric was measured."""
    missing = sorted(set(units) - set(values))
    extra = sorted(set(values) - set(units))
    if extra:
        raise SystemExit(f"perfbench: undeclared metrics {extra}")
    bad = sorted(k for k, v in values.items() if not math.isfinite(v))
    for name in sorted(values):
        print(f"{name:34s} {values[name]:14.4f} {units[name]}")
    for key, value in counts.items():
        print(f"{key:34s} {value}")
    print(f"{'error_rate':34s} {oracle.failed}/{oracle.attempted}")
    for failure in oracle.failures:
        print(f"FAILED: {failure}")
    if missing or bad:
        print(f"perfbench: not measured: {missing + bad}", file=sys.stderr)
    ok = not missing and not bad
    result = {
        "correct": ok and oracle.failed == 0,
        "attempted": max(1, oracle.attempted),
        "failed": oracle.failed if oracle.attempted else 1,
        "metrics": {k: {"value": float(values[k]), "unit": units[k]}
                    for k in sorted(values) if k in units and k not in bad},
    }
    print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
