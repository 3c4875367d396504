"""
Classifying mechanism changes: physical or an artifact of the context?
======================================================================

An edge present in the pooled structure but missing from one context's
detection skeleton is a candidate mechanism change.  The classifier
sorts these candidates with two orientation-aware rules:

  R1  the context is no parent (or non-adjacent) to the target, so the
      target's mechanism cannot depend on it: the change is not physical
  R2  the context parents the target but shares no ancestry with the
      target's other parents: the change must be physical

Everything else stays `undetermined`, which is the honest answer when
orientations are unknown.
"""

from csi_graphlab import (
    ExactTester,
    SolvedModel,
    classify_changes,
    discover,
    get_example,
    union_graph,
)

s = get_example("intro-mediator")
solved = SolvedModel.of(s)
ctx = s.context_variable

oracle = ExactTester(solved)
pooled, _, detect = discover(oracle, solved.regimes)

# --- oriented mode: the pooled graph's directions are known -------------------
union = union_graph(solved)
report = classify_changes(union, detect, mode="oriented", context=ctx)
print("oriented verdicts (edge missing in a context's detection skeleton):")
for regime, edge_a, edge_b, classification, rule, note in report.rows():
    print("  context %s  %s -> %s  %-13s rule=%s" % (regime, edge_a, edge_b, classification, rule))
print("counts:", dict(report.counts()))

# --- skeleton mode: only adjacencies are known --------------------------------
report = classify_changes(pooled, detect, mode="skeleton", context=ctx)
print("\nskeleton verdicts (same data, directions withheld):")
for regime, edge_a, edge_b, classification, rule, note in report.rows():
    print("  context %s  %s - %s   %-13s rule=%s" % (regime, edge_a, edge_b, classification, rule or "-"))
print("counts:", dict(report.counts()))

# with directions withheld the mediator edge M-T can no longer be ruled
# non-physical: the context might parent T through the visible adjacency
