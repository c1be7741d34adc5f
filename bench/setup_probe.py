"""One set-up sample in a fresh interpreter: `import rigidflow` plus one warm-up pair.

Run by run.py several times per run; prints one JSON object. Scene
generation is the benchmark's own work and is not timed.

    python3 bench/setup_probe.py --workload street --seed 0
"""

from __future__ import annotations

import argparse
import json
import time

import bootstrap


def main() -> None:
    bootstrap.prepare()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    t0 = time.perf_counter()
    import rigidflow  # noqa: F401  (the import is what is being timed)
    import_s = time.perf_counter() - t0
    bootstrap.check_imported(rigidflow)

    import workloads

    wl = workloads.WORKLOADS[args.workload]
    cfg = workloads.pipeline.PipelineConfig()
    inputs = workloads.pair_inputs(wl, args.seed, 0)
    t1 = time.perf_counter()
    try:
        outputs = workloads.run_pair(wl, inputs, cfg)
    except ValueError as err:
        warmup_s = time.perf_counter() - t1
        result = workloads.refusal(err)
    else:
        warmup_s = time.perf_counter() - t1
        result = workloads.score(inputs, outputs)
    print(json.dumps({"import_s": import_s, "warmup_s": warmup_s, "digest": result.digest}))


if __name__ == "__main__":
    main()
