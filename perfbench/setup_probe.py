"""Child process timed by the benchmark's set-up metric.

Imports mnls from the checkout's ``src`` and resolves the workload's
configs, the work a fresh ``mnls run`` does before it evolves anything.

    python3 perfbench/setup_probe.py <checkout root> '<json list of [target, overrides]>'
"""

import json
import sys

sys.path.insert(0, sys.argv[1] + "/src")

from mnls.harness import resolve_config  # noqa: E402

for target, overrides in json.loads(sys.argv[2]):
    resolve_config(target, overrides)
