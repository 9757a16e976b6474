#!/usr/bin/env python3
"""Print the paper's static-vs-dynamic comparison from the two grid workloads.

    python3 perfbench/paper_readout.py [--seed N]

Runs one pass of grid_oblivious and of grid_roborun (the same worlds) and
prints grid_oblivious / grid_roborun for mean mission time and mean energy,
and the reduction in mean CPU utilisation, beside the paper's 4.5x, 4x and
36%. Diagnostic only: the latency and energy models are not validated
against hardware, so no error figure is given.
"""

import argparse
import json
import subprocess
import sys

from run import build, build_dir

PAPER = {"mission_time": 4.5, "energy": 4.0, "cpu_util_reduction": 0.36}


def sim_metrics(binary, workload, seed):
    report = build_dir() / ("readout_%s_%d.json" % (workload, seed))
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds", "0",
           "--trace", "0", "--report", str(report)]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    metrics = json.loads(report.read_text())["end_to_end"]
    return {name: m["value"] for name, m in metrics.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    binary = build()
    static = sim_metrics(binary, "grid_oblivious", args.seed)
    dynamic = sim_metrics(binary, "grid_roborun", args.seed)
    rows = [
        ("mission time (mean)", "%.1f s vs %.1f s" % (static["mission_time_mean_s"],
                                                     dynamic["mission_time_mean_s"]),
         "%.2fx" % (static["mission_time_mean_s"] / dynamic["mission_time_mean_s"]),
         "%.1fx" % PAPER["mission_time"]),
        ("energy (mean)", "%.1f kJ vs %.1f kJ" % (static["energy_mean_kj"],
                                                 dynamic["energy_mean_kj"]),
         "%.2fx" % (static["energy_mean_kj"] / dynamic["energy_mean_kj"]),
         "%.1fx" % PAPER["energy"]),
        ("CPU utilisation (mean)", "%.3f vs %.3f" % (static["cpu_util_mean"],
                                                   dynamic["cpu_util_mean"]),
         "%.0f%% lower" % (100 * (1 - dynamic["cpu_util_mean"] / static["cpu_util_mean"])),
         "%.0f%% lower" % (100 * PAPER["cpu_util_reduction"])),
    ]
    print("paper readout, seed %d: grid_oblivious vs grid_roborun (same worlds)" % args.seed)
    print("  %-24s %-26s %-12s %s" % ("quantity", "oblivious vs roborun", "measured", "paper"))
    for row in rows:
        print("  %-24s %-26s %-12s %s" % row)
    print("  (model not validated against hardware; no error figure)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
