#!/usr/bin/env bash
# Every subcommand, scripted, under python -S (no site-packages, so no
# numpy), then the frozen record corpus. Run from the repository root with
# PYTHONPATH=src: bash tests/no_site_packages.sh
set -euo pipefail
if python -S -c "import numpy" 2>/dev/null; then echo "numpy loads under -S"; exit 1; fi
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
python -S -c "import json, sys; json.dump([open('tests/fixtures/transcripts/' + n, encoding='utf-8').read().strip() for n in sys.argv[2:]], open(sys.argv[1], 'w'))" \
  "$out/session.json" \
  strategy_iter0.txt rules_iter0.txt code_iter0.py strategy_iter1.txt rules_iter1.txt code_iter1.py \
  strategy_iter2.txt rules_iter2.txt code_iter2.py strategy_iter3.txt rules_iter3.txt code_optimal.py
python -S -m policyloop.cli run --task CartPoleStar2 --script "$out/session.json" \
  --epochs 5 --seed-root 3 --model scripted-model --out "$out/record.json"
python -S -m policyloop.cli replay "$out/record.json"
python -S -m policyloop.cli metrics "$out/record.json" --n-eval 50 --json "$out/report.json"
for condition in NoData NoSensoryMotorData NoPreviousStrategy NoBestStrategy OnlyCurrentStrategy OnlyBestStrategyData; do
  python -S -m policyloop.cli ablate "$condition" --task CartPoleStar2 --script "$out/session.json" \
    --epochs 5 --seed-root 3 --model scripted-model --out "$out/ablate_$condition.json"
  python -S -m policyloop.cli replay "$out/ablate_$condition.json"
done
python -S -c "import json, sys; json.dump({'tasks': ['CartPoleStar2'], 'models': ['scripted-model'], 'temperatures': [0.0], 'replications': 2, 'seed_root': 3, 'script': json.load(open(sys.argv[2])), 'config': {'epochs': 5}}, open(sys.argv[1], 'w'))" \
  "$out/batch.json" "$out/session.json"
python -S -m policyloop.cli batch --config "$out/batch.json" --out-dir "$out/batch"
for record in "$out"/batch/*.json; do python -S -m policyloop.cli replay "$record"; done
# the frozen corpus: every record but the one made by a patched run
# replays, and its script still writes the committed bytes
for record in tests/fixtures/records/*.json; do
  case "$record" in */reports.json|*_aborted_error.json) continue ;; esac
  python -S -m policyloop.cli replay "$record"
done
python -S tests/fixtures/records/make_records.py --check
