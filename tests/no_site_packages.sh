#!/usr/bin/env bash
# Every subcommand, scripted, under python -S (no site-packages, so no
# numpy), then the frozen record corpus. Run from the repository root with
# PYTHONPATH=src: bash tests/no_site_packages.sh
set -euo pipefail
if python -S -c "import numpy" 2>/dev/null; then echo "numpy loads under -S"; exit 1; fi
root=$PWD
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
# without the early stop, the maximal strategy of iteration 3 is retested
# twice, on its compiled program, and the record replays
python -S -c "import json, sys; json.dump({'stop_on_max': False}, open(sys.argv[1], 'w'))" "$out/no_stop.json"
python -S -m policyloop.cli run --task CartPoleStar2 --script "$out/session.json" \
  --config "$out/no_stop.json" --epochs 6 --seed-root 3 --model scripted-model --out "$out/retested.json"
python -S -c "import json, sys; print([s['repair_attempts'] for s in json.load(open(sys.argv[1]))['strategies']])" \
  "$out/retested.json" | grep -qx '\[1, 1, 1, 1, 0, 0\]' || { echo "run --epochs 6 without stop_on_max retested no strategy"; exit 1; }
python -S -m policyloop.cli replay "$out/retested.json"
for condition in NoData NoSensoryMotorData NoPreviousStrategy NoBestStrategy OnlyCurrentStrategy OnlyBestStrategyData; do
  python -S -m policyloop.cli run --ablation "$condition" --task CartPoleStar2 \
    --script "$out/session.json" --epochs 5 --seed-root 3 --model scripted-model \
    --out "$out/ablation_$condition.json"
  python -S -m policyloop.cli replay "$out/ablation_$condition.json"
done
python -S -c "import json, sys; json.dump({'tasks': ['CartPoleStar2'], 'models': ['scripted-model'], 'temperatures': [0.0], 'replications': 2, 'seed_root': 3, 'script': json.load(open(sys.argv[2])), 'config': {'epochs': 5}}, open(sys.argv[1], 'w'))" \
  "$out/batch.json" "$out/session.json"
python -S -m policyloop.cli batch --config "$out/batch.json" --out-dir "$out/batch"
for record in "$out"/batch/*.json; do python -S -m policyloop.cli replay "$record"; done
# a base URL the gateway cannot send to is a usage error: exit 2, no record
for base_url in localhost:11434 'http://a b:8000' 'http://ü..b:8000' 'http://127.0.0.1:9/x y' \
  $'http://127.0.0.1:9/v\t1'; do
  status=0
  python -S -m policyloop.cli run --task CartPoleStar2 --backend-url "$base_url" \
    --out "$out/never.json" 2>/dev/null || status=$?
  if [ "$status" -ne 2 ] || [ -e "$out/never.json" ]; then
    echo "--backend-url '$base_url' exited $status; expected 2 and no record"; exit 1
  fi
done
# an output path that cannot take the file is a usage error before any
# model call: exit 2, and nothing written
mkdir "$out/taken"
echo kept > "$out/file"
status=0
python -S -m policyloop.cli run --task CartPoleStar2 --script "$out/session.json" \
  --out "$out/taken" 2>/dev/null || status=$?
if [ "$status" -ne 2 ] || [ -n "$(ls -A "$out/taken")" ]; then
  echo "run --out <existing directory> exited $status; expected 2 and nothing written"; exit 1
fi
# without --out the record goes to the working directory, under the name
# run_batch gives the cell
default=CartPoleStar2_scripted-model_t0_0_r000.json
mkdir -p "$out/here/$default"
status=0
(cd "$out/here" && PYTHONPATH="$root/src" python -S -m policyloop.cli run --task CartPoleStar2 \
  --script "$out/session.json" --model scripted-model) 2>/dev/null || status=$?
if [ "$status" -ne 2 ] || [ -n "$(ls -A "$out/here/$default")" ] || [ "$(ls -A "$out/here")" != "$default" ]; then
  echo "run without --out beside a directory named $default exited $status; expected 2 and nothing written"
  exit 1
fi
status=0
python -S -m policyloop.cli batch --config "$out/batch.json" --out-dir "$out/file" 2>/dev/null || status=$?
if [ "$status" -ne 2 ] || [ "$(cat "$out/file")" != kept ]; then
  echo "batch --out-dir <existing file> exited $status; expected 2 and nothing written"; exit 1
fi
# an output path that names one of the command's own files is a usage
# error: exit 2, and the file keeps its bytes
cp "$out/record.json" "$out/record.before"
status=0
python -S -m policyloop.cli metrics "$out/record.json" --json "$out/record.json" 2>/dev/null || status=$?
if [ "$status" -ne 2 ] || ! cmp -s "$out/record.json" "$out/record.before"; then
  echo "metrics <record> --json <same record> exited $status; expected 2 and the record kept"; exit 1
fi
# a reader that closes stdout early (`| head -1`) leaves the command's
# files whole: run and metrics --json, unbuffered, write theirs, then exit 1
# and print no traceback
closed_stdout() {  # "$@" writing to a pipe whose reader is already closed
  python -S -c 'import os, subprocess, sys; r, w = os.pipe(); os.close(r); sys.exit(subprocess.call(sys.argv[1:], stdout=w))' "$@"
}
status=0
closed_stdout python -S -u -m policyloop.cli run --task CartPoleStar2 --script "$out/session.json" \
  --epochs 5 --seed-root 3 --model scripted-model --out "$out/closed.json" 2>"$out/stderr" || status=$?
if [ "$status" -ne 1 ] || grep -q Traceback "$out/stderr" || ! python -S -m policyloop.cli replay "$out/closed.json"; then
  echo "run with a closed stdout exited $status; expected 1, a record that replays and no traceback"; exit 1
fi
status=0
closed_stdout python -S -u -m policyloop.cli metrics "$out/closed.json" --n-eval 50 \
  --json "$out/closed_report.json" 2>"$out/stderr" || status=$?
if [ "$status" -ne 1 ] || grep -q Traceback "$out/stderr" || ! cmp -s "$out/closed_report.json" "$out/report.json"; then
  echo "metrics --json with a closed stdout exited $status; expected 1, the report and no traceback"; exit 1
fi
# a record field of the wrong type is a usage error: exit 2
python -S -c "import json, sys; r = json.load(open(sys.argv[1])); r['strategies'][0]['mean_reward'] = None; json.dump(r, open(sys.argv[2], 'w'))" \
  tests/fixtures/records/CartPoleStar2_completed.json "$out/null_mean.json"
status=0
python -S -m policyloop.cli metrics "$out/null_mean.json" --no-rerun 2>/dev/null || status=$?
if [ "$status" -ne 2 ]; then
  echo "metrics on a record whose mean_reward is null exited $status; expected 2"; exit 1
fi
# so is a window field of the wrong type, a seed_root other than the
# config's, and a NaN or Infinity, which JSON does not have: exit 2 from
# replay and metrics, and no traceback
python -S -c "import json, sys; r = json.load(open(sys.argv[1])); r['strategies'][0]['window']['lines'] = 'abc'; json.dump(r, open(sys.argv[2], 'w')); r = json.load(open(sys.argv[1])); r['seed_root'] = 99; json.dump(r, open(sys.argv[3], 'w'))" \
  tests/fixtures/records/CartPoleStar2_completed.json "$out/text_lines.json" "$out/seed_root_99.json"
python -S -c "import json, sys; r = json.load(open(sys.argv[1])); r['strategies'][0]['mean_reward'] = float('nan'); json.dump(r, open(sys.argv[2], 'w')); r = json.load(open(sys.argv[1])); r['strategies'][0]['window']['episode_return'] = float('inf'); json.dump(r, open(sys.argv[3], 'w'))" \
  tests/fixtures/records/CartPoleStar2_completed.json "$out/nan_mean.json" "$out/inf_return.json"
for record in "$out/text_lines.json" "$out/seed_root_99.json" "$out/nan_mean.json" "$out/inf_return.json"; do
  for command in replay "metrics --no-rerun"; do
    status=0
    python -S -m policyloop.cli $command "$record" 2>"$out/stderr" || status=$?
    if [ "$status" -ne 2 ] || grep -q Traceback "$out/stderr"; then
      echo "$command on $(basename "$record") exited $status; expected 2 and no traceback"; exit 1
    fi
  done
done
# a mean reward that a float cannot hold, or that is not the mean of its
# strategy's returns, is refused as the record is read: exit 2, no traceback
python -S -c "import json, sys; r = json.load(open(sys.argv[1])); r['strategies'][0]['mean_reward'] = 10**400; json.dump(r, open(sys.argv[2], 'w')); r = json.load(open(sys.argv[1])); r['strategies'][-1]['mean_reward'] = 500.0; json.dump(r, open(sys.argv[3], 'w'))" \
  tests/fixtures/records/CartPole_random.json "$out/huge_mean.json" "$out/mean_not_returns.json"
for record in "$out/huge_mean.json" "$out/mean_not_returns.json"; do
  status=0
  python -S -m policyloop.cli metrics "$record" --no-rerun 2>"$out/stderr" || status=$?
  if [ "$status" -ne 2 ] || grep -q Traceback "$out/stderr"; then
    echo "metrics --no-rerun on $(basename "$record") exited $status; expected 2 and no traceback"; exit 1
  fi
done
# a cell is scored against its task's maximum and its records' epoch
# budget: the tasks without a maximum score with success absent, exit 0; a
# record above the maximum, which only a hand edit makes, and a bound given
# on the command line are usage errors, exit 2 and no traceback
for task in Acrobot Pendulum MountainCarContinuous MountainCarDiscrete; do
  python -S -m policyloop.cli metrics "tests/fixtures/records/${task}_random.json" --no-rerun >/dev/null
done
python -S -c "import json, sys; r = json.load(open(sys.argv[1])); s = r['strategies'][0]; s['mean_reward'] = 600.0; s['per_episode_returns'] = [600.0] * len(s['per_episode_returns']); json.dump(r, open(sys.argv[2], 'w'))" \
  tests/fixtures/records/CartPoleStar2_completed.json "$out/above_max.json"
for args in "$out/above_max.json --no-rerun" "tests/fixtures/records/Acrobot_random.json --r-max 500"; do
  status=0
  python -S -m policyloop.cli metrics $args 2>"$out/stderr" || status=$?
  if [ "$status" -ne 2 ] || grep -q Traceback "$out/stderr"; then
    echo "metrics $args exited $status; expected 2 and no traceback"; exit 1
  fi
done
# the frozen corpus: every record but the one made by a patched run
# replays, and its script still writes the committed bytes
for record in tests/fixtures/records/*.json; do
  case "$record" in */reports.json|*_aborted_error.json) continue ;; esac
  python -S -m policyloop.cli replay "$record"
done
python -S tests/fixtures/records/make_records.py --check
