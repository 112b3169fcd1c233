"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload warm_query --seed 1 --seconds 15 --trace 0

Workloads: ``warm_query``, ``serve``, ``index_build`` (see
``perfbench/README.md``). The seed drives every generated input. With
``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics; with ``--trace 1`` the workload runs again with
spans recorded around each layer and the object holds the per-layer
metrics (the spans are also written as a Chrome trace under
``.perfbench_work/``). Earlier lines, each starting with ``#``, give the
environment fingerprint and the figures behind the metrics.

The run and every process it starts are pinned to one CPU (see
``common.pin_to_one_cpu``).

Exit status: 0 when every output was correct, 1 when a correctness
gate failed (the result line then says ``"correct": false``), 2 when
the run could not be made at all (no result line).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402

WORKLOADS = ("warm_query", "serve", "index_build")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    common.import_repro()
    cpu = common.pin_to_one_cpu()
    module = __import__(args.workload)
    outcome = module.run(args.seed, args.seconds, bool(args.trace))

    catalogue = PER_LAYER if args.trace else END_TO_END
    missing = set(END_TO_END) - set(outcome.metrics)
    if not args.trace and missing:
        raise RuntimeError(f"workload did not measure {sorted(missing)}")
    metrics = {name: {"value": float(outcome.metrics.get(name, 0.0)),
                      "unit": unit}
               for name, unit in catalogue.items()}
    print("# fingerprint " + json.dumps(common.fingerprint(
        args.seed, workload=args.workload, seconds=args.seconds,
        trace=args.trace, cpu=cpu, **outcome.inputs), sort_keys=True))
    if outcome.report:
        print("# report " + json.dumps(outcome.report, sort_keys=True))
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    if outcome.spans:
        from tracing import write_chrome_trace
        common.WORK.mkdir(exist_ok=True)
        path = common.WORK / f"trace-{args.workload}-{args.seed}.json"
        write_chrome_trace(outcome.spans, path)
        print(f"# trace: {len(outcome.spans)} spans -> "
              f"{path.relative_to(common.ROOT)}")
    correct = outcome.failed == 0
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
