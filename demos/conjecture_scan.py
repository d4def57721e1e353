"""A small conjecture scan: do simple polytopes always reach 10 normals?

Every known simple polytope has an interior point with at least 10 normals;
whether 8 is attainable is open.  The scanner measures N and EN across a
random family and flags a simple body whose maximum lands below 10 only when
the ten-normals certificate finds no nice vertex: a nice vertex proves
N >= 10, so a low count beside one is an error in the row, not a candidate.
"""

import json

from polynormal.explorer import ScanConfig, scan

config = ScanConfig(
    seed=2024,
    n_polytopes=12,
    facet_range=(4, 8),
    shape_family="tangent_planes",
    mc_samples=4000,
)
report = scan(config)

print("per-polytope rows:")
for row in report.rows:
    if "error" in row:
        print(f"  #{row['index']:2d}  FAILED: {row['error']}")
        continue
    print(f"  #{row['index']:2d}  k={row['params']['k']:2d}  N={row['N']:2d}  "
          f"EN={row['EN']:6.3f}  chambers={row['chambers']:5d}  "
          f"nice vertices={row['nice_vertices']}")

print("\nsummary:")
print(json.dumps(report.summary, indent=2, sort_keys=True))

print("\nthe full report serializes to JSON lines (see ScanReport.to_json_lines),")
print("and `polynormal scan --config cfg.json` emits the same from the shell")
