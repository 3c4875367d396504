#!/usr/bin/env bash
# Tour of the csi-graphlab command line: every subcommand, one pipeline.
# Reports are canonical JSON on stdout; --out materializes files instead.
set -euo pipefail

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

echo "== bundled example models =="
csi-graphlab corpus list

echo
echo "== export one model, inspect its ground-truth graphs =="
csi-graphlab corpus export intro-mediator --out m
csi-graphlab ground-truth m/model.scm --out gt
ls gt

echo
echo "== draw data, rediscover structure from samples =="
csi-graphlab sample m/model.scm --n 6000 --seed 11 --out data
csi-graphlab discover --data data/samples.csv --alpha 0.05 --context R --out disc
# the first 400 characters of the compact report; no pipe, so no early close
python3 -c 'import json; d = json.load(open("disc/report.json")); \
print(json.dumps(d, separators=(",", ":"))[:400])'

echo
echo "== exact-oracle discovery feeds the change classifier =="
csi-graphlab discover --exact m/model.scm --out disc-exact
csi-graphlab classify disc-exact/report.json --mode oriented --out cls
cat cls/changes.csv

echo
echo "== transfer test: is the context-0 independence a mechanism change? =="
csi-graphlab corpus export fig1-change-overlap --out m2
csi-graphlab sample m2/model.scm --n 4000 --seed 7 --out data2
csi-graphlab transfer-test data2/samples.csv --x X --y Y --r0 0 --context C \
  --K 50 --N 1000 --seed 7 | python3 -c 'import json,sys; d=json.load(sys.stdin); \
print("evidence:", d["evidence_physical"], " power:", d["estimated_power_under_null"])'

echo
echo "== self-check: laws on 20 random models (exit 3 would mean a law failed) =="
CSI_GRAPHLAB_SEED=1 csi-graphlab verify --count 20 | python3 -c 'import json,sys; \
d=json.load(sys.stdin); print("ok:", d["ok"])'
