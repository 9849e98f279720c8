"""Child process of the fuzz workload: campaigns in a closed loop, timed in-process.

Usage: python3 fuzz_worker.py PLAN.json RECORDS.json

The plan lists the campaigns (seed, trials per n, dimensions), the
measuring time and the yardstick.  One untimed campaign runs first so that
lazily built bases are in place; then whole cycles over the campaigns run
until the time is up, with a probe of the yardstick after every campaign.
Each record holds the campaign index, its latency and its sorted-key JSON
report; the parent scales the latencies by the probes, checks the reports
and reads this process's peak RSS.
"""

import json
import sys
import time

from curvop import fuzz_campaign
from yardstick import STICKS, Scale


def main(plan_path: str, records_path: str) -> None:
    with open(plan_path) as fh:
        plan = json.load(fh)

    def run(seed, trials, ns):
        t0 = time.perf_counter()
        summary = fuzz_campaign(
            seed, trials, ns=tuple(ns), e_per_tensor=plan["e_per_tensor"], jobs=1,
            regression_dir=plan["regression_dir"])
        latency = time.perf_counter() - t0
        return latency, json.dumps(summary.to_json(), sort_keys=True)

    run(*plan["campaigns"][0])
    scale = Scale(STICKS[plan["yardstick"]])
    records = []
    start = time.perf_counter()
    while time.perf_counter() - start < plan["seconds"]:
        for index, campaign in enumerate(plan["campaigns"]):
            latency, text = run(*campaign)
            scale.add(latency)
            scale.probe()
            records.append({"index": index, "latency": latency, "text": text})
    with open(records_path, "w") as fh:
        json.dump({"records": records, "probes": scale.probes}, fh)


if __name__ == "__main__":
    main(*sys.argv[1:3])
