"""
Skeleton discovery from pooled and per-context data
===================================================

Constraint-based discovery with two backends behind one interface: an
exact oracle that answers conditional-independence queries from the
model's rational joint, and a finite-sample G-test over drawn data.
Per-context detection skeletons are then stitched into an estimate of
the pooled dependence structure.
"""

from csi_graphlab import (
    ExactTester,
    SampleTester,
    SolvedModel,
    detect_graph,
    draw_samples,
    get_example,
    skeleton_masked,
    skeleton_pooled,
    union_from_contexts,
    union_graph,
)

s = get_example("intro-mediator")
solved = SolvedModel.of(s)
ctx = s.context_variable

# --- exact oracle ------------------------------------------------------------
oracle = ExactTester(solved)
pooled = skeleton_pooled(oracle)
print("pooled skeleton (exact):", pooled.sorted_pairs())

for r in solved.regimes:
    masked = skeleton_masked(oracle, r)
    detect = detect_graph(oracle, r)
    print("context %s  masked: %-28s detect: %s"
          % (r, str(masked.sorted_pairs()), detect.sorted_pairs()))

# detection skeletons from every context reconstruct the pooled structure
# away from the context variable (here they also recover its edges)
detect_by_r = {r: detect_graph(oracle, r) for r in solved.regimes}
rebuilt = union_from_contexts(detect_by_r, pooled, ctx)
truth = union_graph(solved).skeleton()
print("\nrebuilt union skeleton:", rebuilt.sorted_pairs())
print("true union skeleton:   ", truth.sorted_pairs())

# --- finite-sample backend ---------------------------------------------------
data = draw_samples(s, 6000, seed=11, table=solved.table)
tester = SampleTester(data, alpha=0.05, context=ctx)
pooled_hat = skeleton_pooled(tester)
print("\npooled skeleton from 6000 samples:", pooled_hat.sorted_pairs())

# each answered query can be audited: certificates carry the separating
# set and the p-value behind every removed edge
certs = []
skeleton_pooled(tester, certificates=certs)
for c in certs[:3]:
    print("  removed %s - %s given %s  (p=%.3f)" % (c.x, c.y, c.z, c.p_value))
