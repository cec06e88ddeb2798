"""Putting it together: is adaptive bitrate worth the quality loss?

A link alternates between 200 and 400 kbps.  Progressive streaming always
ships 20-kbit frames (half playout speed in the slow state, so long files
accumulate stalls); adaptive streaming drops to 10-kbit frames when the
throughput cannot sustain top quality, stalling less but costing quality.
The session cost c1*stalls + c2*startup + c3*quality_loss arbitrates.  This
script locates the file size where adaptive starts winning for several
quality weights, then optimizes the prefetch threshold for a fixed policy.
"""

import csv
import pathlib
from dataclasses import replace

from fluidqoe import (
    CostWeights,
    ScenarioSpec,
    compare_scenarios,
    optimize_threshold,
    scenario_to_model,
)

OUT = pathlib.Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

spec = ScenarioSpec(throughput=(200_000.0, 400_000.0),
                    frame_sizes=(10_000.0, 20_000.0),
                    alpha=1.0, beta=3.0, mu=17.75)
Z_grid = [100.0, 250.0, 500.0, 800.0, 1200.0, 1600.0, 2000.0]
x = 20.0

print("frame rates: progressive", scenario_to_model(spec).lam, "fps,",
      "adaptive", scenario_to_model(replace(spec, mode="adaptive")).lam, "fps\n")

rows = []
for c3 in (0.0, 1.0, 1.5):
    weights = CostWeights(1.0, 0.1, c3)
    report = compare_scenarios(spec, weights, Z_grid, x)
    cross = report.crossover_Z
    print(f"quality weight c3 = {c3}:")
    for Z, p, a in zip(report.Z_grid, report.progressive, report.adaptive):
        winner = "adaptive" if a.total < p.total else "progressive"
        rows.append((c3, Z, p.total, a.total, winner))
        print(f"  Z={Z:6.0f}: progressive {p.total:7.3f}  adaptive {a.total:7.3f}"
              f"  -> {winner}")
    print(f"  crossover: {'Z* = %.0f frames' % cross if cross else 'none'}\n")

with open(OUT / "cost_comparison.csv", "w", newline="") as fh:
    w = csv.writer(fh)
    w.writerow(["c3", "Z", "progressive_total", "adaptive_total", "winner"])
    w.writerows(rows)
print(f"written: {OUT / 'cost_comparison.csv'}\n")

print("Optimizing the prefetch threshold for progressive streaming at Z=800")
print("(stall weight 1, start-up weight 0.5):")
model = scenario_to_model(spec)
result = optimize_threshold(model, 800.0, CostWeights(1.0, 0.5, 0.0),
                            [10.0, 20.0, 40.0, 80.0, 160.0, 320.0])
for xv, cost in zip(result.x_grid, result.costs):
    marker = "  <-- best" if xv == result.best_x else ""
    print(f"  x={xv:5.0f}: stalls {cost.expected_starvations:6.3f}, "
          f"startup {cost.expected_startup:6.3f}s, total {cost.total:7.3f}{marker}")
