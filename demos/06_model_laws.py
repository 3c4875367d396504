"""
Structural laws, checked on random models
=========================================

The relationships between the graph families (inclusions, the union
property, the detection sandwich, locality of solutions, Markov
properties) are not taken on faith: each is an executable check, and a
suite runs them against streams of random models with exactly solvable
joints.  Checks whose hypotheses a model does not satisfy are skipped,
never silently passed.
"""

import json

from csi_graphlab import DEFAULT_CHECKS, SolvedModel, get_example, laws

# every check, one bundled model
s = get_example("exo-gate")
solved = SolvedModel.of(s)
print("checks on the exo-gate example:")
for chk in DEFAULT_CHECKS:
    res = chk(s, solved)
    status = "skip(%s)" % res.reason if res.skipped else ("pass" if res.passed else "FAIL")
    print("  %-22s %s" % (res.name, status))

# a random-model stream: sizes cycle from 2 up to n_vars, every model is
# re-derived from (seed, index), and rejected draws are tallied by reason
spec = laws.RandomModelSpec(n_vars=4, max_domain=3, max_parents=2, seed=5)
summary = laws.run_suite(40, spec=spec)
print("\nsuite over 40 random models: ok=%s" % summary.ok)
print(json.dumps(summary.to_dict()["tallies"], indent=2, sort_keys=True))

# the sampler screens out draws whose mechanisms are entangled with the
# support (outputs that differ across support rows sharing their visible
# inputs); those break the locality laws by construction, and the
# witness extractor pinpoints the offending rows on any model
m = laws.random_scm(spec)
print("rejections while sampling one model:", dict(m.rejections))
