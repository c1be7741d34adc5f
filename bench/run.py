"""Run one workload of the rigidflow benchmark and print its metrics.

    python3 bench/run.py --workload street --seed 0 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The exit status is 1 when
an output check failed and 2 when the checkout has no rigidflow sources.
"""

import sys

import bootstrap

if __name__ == "__main__":
    bootstrap.prepare()
    import harness

    sys.exit(harness.main())
