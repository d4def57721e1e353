"""Nice vertices and the ten-normals certificate.

The geometry near a vertex of a simple polytope is captured by its vertex
figure, a spherical triangle whose sides are the planar angles and whose
angles are the dihedral angles.  When some interior witness point of the
figure projects onto all three sides and stays within pi/2 of all three
corners, the vertex is *nice*, and the polytope has an interior point with
at least 10 concurrent normals.
"""

import numpy as np

from polynormal import fixtures
from polynormal.bifurcation import max_normals
from polynormal.spherical import (
    acute_census,
    classify_by_definition,
    classify_by_lemma,
    polar_dual_triangle,
    shell_ratio_check,
    ten_normals_certificate,
    vertex_figure,
)

print("=== vertex figures ===")
for name, P in (("regular tetrahedron", fixtures.regular_tetrahedron()),
                ("right prism", fixtures.right_prism())):
    fig = vertex_figure(P, 0)
    print(f"{name}: sides {np.round(fig.sides, 4)}  angles {np.round(fig.angles, 4)}")
print()

print("=== classification, two independent ways ===")
P = fixtures.generic_prism(seed=3)
for v in range(P.n_vertices):
    tri = vertex_figure(P, v)
    by_lemma = classify_by_lemma(tri)
    by_search = classify_by_definition(tri)
    marker = "ok" if by_lemma.verdict == by_search.verdict else "MISMATCH"
    print(f"vertex {v}: seven-condition test -> {by_lemma.verdict:4s}   "
          f"witness search -> {by_search.verdict:4s}   [{marker}]")
print()

print("=== polar duality preserves skewness ===")
fig = vertex_figure(fixtures.regular_tetrahedron(), 0)
dual = polar_dual_triangle(fig)
print(f"figure sides {np.round(fig.sides, 4)} <-> dual angles {np.round(dual.angles, 4)}"
      f"  (swap rule a <-> pi - a')")
print()

print("=== the certificate on random bodies ===")
for seed in range(4):
    P = fixtures.generic_prism(seed=seed)
    v = ten_normals_certificate(P)
    N, _ = max_normals(P)
    print(f"prism #{seed}: nice vertex {v},  N(P) = {N}  (certified floor: 10)")
print()

print("=== why a low maximum is so restrictive ===")
P = fixtures.perturbed_cube()
census = acute_census(P)
pattern = sum(1 for rec in census if rec.compatible_with_low_max())
print(f"near-cube: {pattern} of {len(census)} vertices fit the sub-10 pattern")
print("(a maximum below 10 needs EVERY vertex at exactly two acute dihedral")
print("angles and one acute planar angle, positioned apart)")
ratio = shell_ratio_check(P)
print(f"shell ratio r_out/r_in = {ratio:.3f} "
      f"({'below' if ratio < np.sqrt(2) else 'above'} sqrt(2) = 1.414)")
