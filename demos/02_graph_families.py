"""
Six graph views of one model
============================

A single model induces several directed graphs that answer different
questions.  The bundled `intro` example is a treatment -> outcome chain
where context 0 pins the treatment at one value, so the outcome mechanism
never changes yet the treatment edge leaves no statistical trace there:

  mechanism      declared parents, straight from the model text
  union          pooled dependences across all context values
  descriptive(r) what is statistically visible inside context r
  physical(r)    what the mechanisms actually do inside context r
  counterfactual(r)  dependences of the solution map itself
  ident(r)       the part of physical(r) recoverable from data alone
"""

from csi_graphlab import SolvedModel, get_example, ground_truth

s = get_example("intro")
objs = ground_truth(SolvedModel.of(s))

print("variables:", " ".join(sorted(v.name for v in s.variables)))
print("context variable:", objs.context, " values:", objs.regimes)

print("\nmechanism graph:", sorted(objs.mechanism.edges))
print("union graph:    ", sorted(objs.union.edges))

for r in objs.regimes:
    g = objs.per_regime[r]
    print("\ncontext %s = %s" % (objs.context, r))
    print("  descriptive:   ", sorted(g.descriptive.edges))
    print("  physical:      ", sorted(g.physical.edges))
    print("  counterfactual:", sorted(g.counterfactual.edges))
    print("  ident:         ", sorted(g.ident.edges))

# the headline gap: in context 0 the treatment edge T->Y is physically
# present (intervening on T would change Y) but statistically invisible
g0 = objs.per_regime["0"]
assert ("T", "Y") in g0.physical.edges
assert ("T", "Y") not in g0.descriptive.edges
print("\nT->Y is physical but not descriptive in context 0:")
print("  data from context 0 alone cannot show the treatment works there")

# graphs export to stable DOT text for rendering
print("\nunion graph as DOT:")
print(objs.union.to_dot("union"))
