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
    discover,
    draw_samples,
    get_example,
    skeleton_pooled,
    union_from_contexts,
    union_graph,
)

s = get_example("intro-mediator")
solved = SolvedModel.of(s)
ctx = s.context_variable

# --- exact oracle ------------------------------------------------------------
oracle = ExactTester(solved)
# one pass: the pooled skeleton, and per context value the masked and detection skeletons
pooled, masked, detect = discover(oracle, solved.regimes)
print("pooled skeleton (exact):", pooled.sorted_pairs())

for r in solved.regimes:
    print("context %s  masked: %-28s detect: %s"
          % (r, str(masked[r].sorted_pairs()), detect[r].sorted_pairs()))

# detection skeletons from every context reconstruct the pooled structure
# away from the context variable (here they also recover its edges)
rebuilt = union_from_contexts(detect, pooled, ctx)
truth = union_graph(solved).skeleton()
print("\nrebuilt union skeleton:", rebuilt.sorted_pairs())
print("true union skeleton:   ", truth.sorted_pairs())

# --- finite-sample backend ---------------------------------------------------
data = draw_samples(s, 6000, seed=11, table=solved.table)
tester = SampleTester(data, alpha=0.05, context=ctx)
certs = []
pooled_hat = skeleton_pooled(tester, certificates=certs)
print("\npooled skeleton from 6000 samples:", pooled_hat.sorted_pairs())

# each answered query can be audited: certificates carry the separating
# set and the p-value behind every removed edge
for c in certs[:3]:
    print("  removed %s - %s given %s  (p=%.3f)" % (c.x, c.y, c.z, c.p_value))
