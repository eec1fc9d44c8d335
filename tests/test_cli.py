"""The command-line surface: run, batch, replay, metrics."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from policyloop.cli import main
from policyloop.gateway import ScriptedBackend
from policyloop.loop import LoopConfig, RunRecord, run_replication

from conftest import FIXTURES, scripted_session, transcript_text


@pytest.fixture
def script_file(tmp_path):
    path = tmp_path / "session.json"
    path.write_text(json.dumps(scripted_session()))
    return path


def _run_args(tmp_path, script_file, extra=()):
    return [
        "run",
        "--task", "CartPoleStar2",
        "--script", str(script_file),
        "--epochs", "5",
        "--seed-root", "3",
        "--model", "scripted-model",
        "--out", str(tmp_path / "record.json"),
        *extra,
    ]


def test_run_writes_a_record(tmp_path, script_file, capsys):
    exit_code = main(_run_args(tmp_path, script_file))
    assert exit_code == 0
    out = capsys.readouterr().out
    assert "status=completed" in out
    record = RunRecord.load(tmp_path / "record.json")
    assert record.per_iteration_rewards[-1] == 500.0


def test_run_runs_under_an_ablation(tmp_path, script_file, capsys):
    exit_code = main(_run_args(tmp_path, script_file, extra=("--ablation", "NoSensoryMotorData")))
    assert exit_code == 0
    record = RunRecord.load(tmp_path / "record.json")
    assert record.config.ablation.value == "NoSensoryMotorData"
    # ablations change the reflection prompt, not the mechanics
    assert record.status.value == "completed"


def test_there_is_no_ablate_subcommand(tmp_path, script_file, capsys):
    error = _usage_error(capsys, ["ablate", "NoData", *_run_args(tmp_path, script_file)[1:]])
    assert "invalid choice: 'ablate'" in error
    assert not (tmp_path / "record.json").exists()


def test_replay_verifies_record(tmp_path, script_file, capsys):
    main(_run_args(tmp_path, script_file))
    exit_code = main(["replay", str(tmp_path / "record.json")])
    assert exit_code == 0
    assert "replay matches original" in capsys.readouterr().out


def test_replay_flags_tampered_record(tmp_path, script_file, capsys):
    main(_run_args(tmp_path, script_file))
    record_path = tmp_path / "record.json"
    data = json.loads(record_path.read_text())
    data["responses"][2] = data["responses"][-1]  # swap in the final policy early
    record_path.write_text(json.dumps(data))
    capsys.readouterr()
    exit_code = main(["replay", str(record_path)])
    assert exit_code == 1
    # the early 500 ends the rerun, so its transcript is the first to differ
    # in canonical key order
    out = capsys.readouterr().out
    assert out.startswith('REPLAY MISMATCH at responses[3]: "')
    assert out.endswith('... != (missing)\n')


def test_replay_names_the_first_differing_path(tmp_path, script_file, capsys):
    main(_run_args(tmp_path, script_file))
    record_path = tmp_path / "record.json"
    data = json.loads(record_path.read_text())
    # each mean is the mean of its returns, or the record is refused as read
    for strategy, reward in zip(data["strategies"][1:3], (1.5, 2.5)):
        strategy["mean_reward"] = reward
        strategy["per_episode_returns"] = [reward] * len(strategy["per_episode_returns"])
    data["wall_clock"] = -1.0  # not part of what replay compares
    record_path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["replay", str(record_path)]) == 1
    assert capsys.readouterr().out == "REPLAY MISMATCH at strategies[1].mean_reward: 1.5 != 4.7\n"


def test_batch_and_metrics(tmp_path, capsys):
    batch_config = tmp_path / "batch.json"
    batch_config.write_text(
        json.dumps(
            {
                "tasks": ["CartPoleStar2"],
                "models": ["scripted-model"],
                "temperatures": [0.0],
                "replications": 2,
                "seed_root": 3,
                "script": scripted_session(),
                "config": {"epochs": 5},
            }
        )
    )
    out_dir = tmp_path / "runs"
    exit_code = main(["batch", "--config", str(batch_config), "--out-dir", str(out_dir)])
    assert exit_code == 0
    record_files = sorted(out_dir.glob("*.json"))
    assert len(record_files) == 2

    report_json = tmp_path / "report.json"
    curve_csv = tmp_path / "curve.csv"
    exit_code = main(
        [
            "metrics",
            *[str(p) for p in record_files],
            "--n-eval", "20",
            "--json", str(report_json),
            "--csv", str(curve_csv),
        ]
    )
    assert exit_code == 0
    out = capsys.readouterr().out
    assert "AvgReward" in out
    report = json.loads(report_json.read_text())
    assert report[0]["success"] == 1.0
    assert report[0]["robustness"] == 1.0
    assert curve_csv.read_text().startswith("task,model,temperature")


SRC = Path(__file__).resolve().parent.parent / "src"


def _cli(hash_seed, *args):
    """``python -m policyloop.cli`` in a fresh process with its own hash seed."""
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "policyloop.cli", *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def _shown(hash_seed, proc):
    """What an assertion on a ``_cli`` run shows when it fails."""
    return (
        f"PYTHONHASHSEED={hash_seed} {' '.join(proc.args[1:])}: exit {proc.returncode}\n"
        f"--- stdout ---\n{proc.stdout}--- stderr ---\n{proc.stderr}"
    )


def test_records_and_reports_do_not_depend_on_the_hash_seed(tmp_path, script_file):
    """Replay in one process cannot see a dependence on set or dict-of-str
    order; a record made under one hash seed must replay under another."""
    run = _cli(1, *_run_args(tmp_path, script_file))
    assert run.returncode == 0, _shown(1, run)
    record = str(tmp_path / "record.json")
    replayed = _cli(2, "replay", record)
    assert replayed.returncode == 0, _shown(2, replayed)
    assert "replay matches original" in replayed.stdout, _shown(2, replayed)
    reports, shown = [], []
    for hash_seed in (1, 2):
        report = tmp_path / f"report_{hash_seed}.json"
        metrics = _cli(hash_seed, "metrics", record, "--n-eval", "50", "--json", str(report))
        shown.append(_shown(hash_seed, metrics))
        assert metrics.returncode == 0, shown[-1]
        reports.append(report.read_bytes())
    assert reports[0] == reports[1], "\n".join(shown)
    assert json.loads(reports[0])[0]["robustness"] == 1.0, "\n".join(shown)


def test_metrics_refuses_fewer_than_one_evaluation_episode(tmp_path, script_file, capsys):
    main(_run_args(tmp_path, script_file))
    capsys.readouterr()
    for bad in ("0", "-3"):
        with pytest.raises(SystemExit) as exit_info:
            main(["metrics", str(tmp_path / "record.json"), "--n-eval", bad])
        assert exit_info.value.code == 2
        assert f"policyloop: error: n_eval must be at least 1, got {bad}" in capsys.readouterr().err


def test_metrics_makes_the_directories_it_writes_into(tmp_path, script_file, capsys):
    main(_run_args(tmp_path, script_file))
    report, curves = tmp_path / "out" / "report.json", tmp_path / "curves" / "a" / "c.csv"
    assert main(["metrics", str(tmp_path / "record.json"), "--no-rerun",
                 "--json", str(report), "--csv", str(curves)]) == 0
    assert json.loads(report.read_text())[0]["success"] == 1.0
    assert curves.read_text().startswith("task,model,temperature")


@pytest.mark.parametrize("option", ["--json", "--csv"])
def test_a_failed_report_write_keeps_the_previous_file(
    tmp_path, script_file, capsys, monkeypatch, option
):
    main(_run_args(tmp_path, script_file))
    out = tmp_path / "report"
    args = ["metrics", str(tmp_path / "record.json"), "--no-rerun", option, str(out)]
    assert main(args) == 0
    before = out.read_bytes()

    def write_half_then_fail(self, text, *args, **kwargs):
        with open(self, "w", encoding="utf-8") as fh:
            fh.write(text[: len(text) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_text", write_half_then_fail)
    with pytest.raises(OSError, match="disk full"):
        main(args)
    assert out.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["record.json", "report", "session.json"]


@pytest.mark.parametrize("option", ["--epochs", "--eval-episodes", "--window-size"])
def test_count_options_refuse_zero(tmp_path, script_file, capsys, option):
    with pytest.raises(SystemExit) as exit_info:
        main(_run_args(tmp_path, script_file, extra=(option, "0")))
    assert exit_info.value.code == 2
    field = option[2:].replace("-", "_")
    assert f"loop settings: {field} must be at least 1, got 0" in capsys.readouterr().err


# -- records that stop short of a rerun -------------------------------------------

CORPUS = Path(__file__).resolve().parent / "fixtures" / "records"


def test_metrics_scores_a_cell_with_no_evaluation_beside_a_corpus_cell(tmp_path, capsys):
    """A run whose backend ran out at Prompt 2 left no strategy; its cell
    gets a row of its own, and the other cell is scored as before."""
    (tmp_path / "strategy.json").write_text(json.dumps([transcript_text("strategy_iter0.txt")]))
    aborted = tmp_path / "aborted.json"
    assert main(["run", "--task", "CartPoleStar2", "--script", str(tmp_path / "strategy.json"),
                 "--out", str(aborted)]) == 1
    assert RunRecord.load(aborted).strategies == []
    capsys.readouterr()
    report = tmp_path / "report.json"
    assert main(["metrics", str(aborted), str(CORPUS / "Acrobot_random.json"),
                 "--no-rerun", "--json", str(report)]) == 0
    rows = capsys.readouterr().out.splitlines()[2:4]
    assert [row.split() for row in rows] == [
        ["CartPoleStar2", "local-model", "0.0", "-", "0.00", "-", "-", "-", "-"],
        ["Acrobot", "random-model", "0.0", "-500.00", "-", "-", "-", "-", "-"],
    ]
    empty, acrobot = json.loads(report.read_text())
    assert (empty["average_reward"], empty["success"], empty["improvement_ratio"]) == (None, 0.0, None)
    assert acrobot["average_reward"] == -500.0


def test_a_first_maximal_program_that_no_longer_parses_is_a_usage_error(tmp_path):
    data = json.loads((CORPUS / "CartPoleStar2_completed.json").read_text())
    first = [s["mean_reward"] for s in data["strategies"]].index(500.0)
    data["strategies"][first]["program_source"] = "def get_action(:\n"
    (tmp_path / "record.json").write_text(json.dumps(data))
    done = _python([], "-m", "policyloop.cli", "metrics", "record.json", "--n-eval", "5",
                   cwd=tmp_path)
    assert done.returncode == 2, done.stdout + done.stderr
    assert "Traceback" not in done.stderr
    assert (f"policyloop: error: replication 0, iteration {first}: "
            "the first maximal program no longer parses (") in done.stderr
    scored = _python([], "-m", "policyloop.cli", "metrics", "record.json", "--no-rerun",
                     cwd=tmp_path)
    assert scored.returncode == 0, scored.stdout + scored.stderr
    assert scored.stdout.splitlines()[2].split()[3:5] == ["213.18", "1.00"]


def test_metrics_refuses_a_replication_given_twice(capsys):
    record = str(CORPUS / "CartPoleStar2_code_repaired.json")
    error = _usage_error(capsys, ["metrics", record, record, "--no-rerun"])
    assert error == ("policyloop: error: cell CartPoleStar2/scripted-model/t0.0 "
                     "holds two records of seed root 3, replication 0")


# -- output paths checked before the work that fills them ---------------------------


@pytest.fixture
def backends(monkeypatch):
    """Every scripted backend the CLI makes, with the requests it received."""
    made = []

    def recorded(responses):
        made.append(ScriptedBackend(responses))
        return made[-1]

    monkeypatch.setattr("policyloop.cli.ScriptedBackend", recorded)
    return made


@pytest.fixture
def taken(tmp_path):
    """An empty directory and a file, neither of which may change."""
    (tmp_path / "taken").mkdir()
    (tmp_path / "file").write_text("kept")
    yield {"directory": tmp_path / "taken", "under-a-file": tmp_path / "file" / "out.json"}
    assert list((tmp_path / "taken").iterdir()) == []
    assert (tmp_path / "file").read_text() == "kept"


def _usage_error(capsys, args) -> str:
    with pytest.raises(SystemExit) as exit_info:
        main(args)
    assert exit_info.value.code == 2
    return capsys.readouterr().err.splitlines()[-1]


@pytest.mark.parametrize("where", ["directory", "under-a-file"])
@pytest.mark.parametrize(
    "command", [["run"], ["run", "--ablation", "NoData"]], ids=["run", "run-ablation"]
)
def test_run_refuses_an_out_path_before_any_request(
    tmp_path, script_file, capsys, backends, taken, command, where
):
    args = _run_args(tmp_path, script_file, extra=("--out", str(taken[where])))[1:]
    error = _usage_error(capsys, command + args)
    assert error.startswith(f"policyloop: error: --out {taken[where]}: ")
    assert not any(backend.requests for backend in backends)


@pytest.mark.parametrize(
    "command", [["run"], ["run", "--ablation", "NoData"]], ids=["run", "run-ablation"]
)
def test_run_refuses_a_default_record_path_that_is_a_directory(
    tmp_path, script_file, capsys, monkeypatch, backends, command
):
    # without --out the record is saved in the working directory, under the
    # name run_batch would give the cell
    monkeypatch.chdir(tmp_path)
    name = "CartPoleStar2_scripted-model_t0_0_r000.json"
    (tmp_path / name).mkdir()
    args = ["--task", "CartPoleStar2", "--script", str(script_file), "--model", "scripted-model"]
    error = _usage_error(capsys, command + args)
    assert error == f"policyloop: error: record {name}: is a directory"
    assert backends == []
    assert sorted(p.name for p in tmp_path.iterdir()) == [name, script_file.name]
    assert list((tmp_path / name).iterdir()) == []


def test_batch_refuses_a_record_path_that_is_a_directory(tmp_path, capsys, backends):
    batch_config = tmp_path / "batch.json"
    batch_config.write_text(json.dumps(
        {**OFFLINE_BATCH, "temperatures": [0.0], "replications": 3, "script": scripted_session()}
    ))
    taken = tmp_path / "runs" / "CartPole_local-model_t0_0_r001.json"
    taken.mkdir(parents=True)
    args = ["batch", "--config", str(batch_config), "--out-dir", str(tmp_path / "runs")]
    error = _usage_error(capsys, args)
    assert error == (
        f"policyloop: error: batch settings in {batch_config}: cell (CartPole, 'local-model', "
        f"temperature 0.0, replication 1) would write {taken}, which is a directory"
    )
    assert backends == []
    assert list((tmp_path / "runs").iterdir()) == [taken]
    assert list(taken.iterdir()) == []


@pytest.mark.parametrize("where", ["file", "under-a-file"])
def test_batch_refuses_an_out_dir_before_any_request(tmp_path, capsys, backends, taken, where):
    batch_config = tmp_path / "batch.json"
    batch_config.write_text(json.dumps({**OFFLINE_BATCH, "script": scripted_session()}))
    out_dir = tmp_path / "file" if where == "file" else taken["under-a-file"]
    error = _usage_error(capsys, ["batch", "--config", str(batch_config), "--out-dir", str(out_dir)])
    assert error.startswith(f"policyloop: error: --out-dir {out_dir}: ")
    assert backends == []


@pytest.mark.parametrize("where", ["directory", "under-a-file"])
@pytest.mark.parametrize("option", ["--json", "--csv"])
def test_metrics_refuses_an_output_path_before_the_rerun(
    tmp_path, script_file, capsys, monkeypatch, taken, option, where
):
    main(_run_args(tmp_path, script_file))
    capsys.readouterr()
    scored = []
    monkeypatch.setattr("policyloop.cli.compute_report", lambda *a, **k: scored.append(a))
    error = _usage_error(capsys, ["metrics", str(tmp_path / "record.json"), option, str(taken[where])])
    assert error.startswith(f"policyloop: error: {option} {taken[where]}: ")
    assert scored == []


@pytest.mark.parametrize("where", ["directory", "under-a-file"])
def test_replay_refuses_an_out_path_before_the_rerun(
    tmp_path, script_file, capsys, monkeypatch, taken, where
):
    main(_run_args(tmp_path, script_file))
    capsys.readouterr()
    replayed = []
    monkeypatch.setattr("policyloop.cli.replay", lambda *a: replayed.append(a))
    error = _usage_error(capsys, ["replay", str(tmp_path / "record.json"), "--out", str(taken[where])])
    assert error.startswith(f"policyloop: error: --out {taken[where]}: ")
    assert replayed == []


@pytest.mark.parametrize(
    "case",
    ["metrics --json", "metrics --csv", "metrics --json --csv", "replay --out",
     "run --script", "run --config", "run --gateway-config", "run record --script"],
)
def test_an_output_path_that_names_one_of_the_commands_files_is_a_usage_error(
    tmp_path, script_file, capsys, monkeypatch, backends, taken, case
):
    """An output path that resolves to a file the command reads, or to the
    other output of ``metrics``, is refused, whether it is given as the
    input is, by another path or through a symbolic link; every file keeps
    its bytes. ``run`` without ``--out`` writes its record under the cell's
    name in the working directory, and a ``--script`` of that name is refused
    however it is spelled."""
    main(_run_args(tmp_path, script_file))
    capsys.readouterr()
    backends.clear()
    record, report = tmp_path / "record.json", tmp_path / "report.json"
    config, gateway = tmp_path / "cfg.json", tmp_path / "gateway.json"
    default = tmp_path / "CartPoleStar2_scripted-model_t0_0_r000.json"
    config.write_text(json.dumps({"epochs": 5}))
    gateway.write_text(json.dumps({"retries": 0}))
    default.write_bytes(script_file.read_bytes())
    links = tmp_path / "links"
    links.mkdir()
    metrics = ["metrics", str(record), "--no-rerun"]
    run = ["run", "--task", "CartPoleStar2", "--script", str(script_file), "--config",
           str(config), "--gateway-config", str(gateway), "--out"]
    command, target = {
        "metrics --json": (metrics + ["--json"], record),
        "metrics --csv": (metrics + ["--csv"], record),
        "metrics --json --csv": (metrics + ["--json", str(report), "--csv"], report),
        "replay --out": (["replay", str(record), "--out"], record),
        "run --script": (run, script_file),
        "run --config": (run, config),
        "run --gateway-config": (run, gateway),
        "run record --script": (["run", "--task", "CartPoleStar2", "--model", "scripted-model",
                                 "--script"], default),
    }[case]
    (links / target.name).symlink_to(target)
    files = {path: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()}
    if case == "run record --script":
        # the record's default path is the script's name in the working directory
        monkeypatch.chdir(tmp_path)
        for spelling in (str(default), default.name, f"links/{default.name}"):
            error = _usage_error(capsys, command + [spelling])
            assert error == f"policyloop: error: record {default.name}: names the same file as {spelling}"
    else:
        monkeypatch.chdir(taken["directory"])
        for spelling in (str(target), f"../{target.name}", f"../links/{target.name}"):
            error = _usage_error(capsys, command + [spelling])
            assert error == f"policyloop: error: {command[-1]} {spelling}: names the same file as {target}"
    assert {path: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()} == files
    assert backends == []


# -- bad gateway settings ----------------------------------------------------------


@pytest.mark.parametrize(
    "env, gateway_config, setting",
    [
        ({"POLICYLOOP_RETRIES": "abc"}, None, "POLICYLOOP_RETRIES"),
        ({"POLICYLOOP_RETRIES": "-1"}, None, "retries"),
        ({}, {"timeout": 0}, "timeout"),
        ({"POLICYLOOP_TIMEOUT": "inf"}, None, "timeout must be at most"),
        ({}, {"backoff": 1e300}, "the longest back-off"),
    ],
    ids=["retries-not-an-int", "retries-negative", "timeout-zero-in-file",
         "timeout-inf", "backoff-too-long-in-file"],
)
def test_bad_gateway_setting_is_a_usage_error(
    tmp_path, monkeypatch, env, gateway_config, setting
):
    """``policyloop run`` against an HTTP backend it never gets to call."""
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    args = ["run", "--task", "CartPole", "--backend-url", "http://127.0.0.1:9",
            "--out", str(tmp_path / "record.json")]
    if gateway_config is not None:
        (tmp_path / "gateway.json").write_text(json.dumps(gateway_config))
        args += ["--gateway-config", str(tmp_path / "gateway.json")]
    done = _cli(0, *args)
    assert done.returncode == 2, done.stdout + done.stderr
    assert "policyloop: error:" in done.stderr
    assert setting in done.stderr
    assert "Traceback" not in done.stderr
    assert not (tmp_path / "record.json").exists()


def test_batch_refuses_a_bad_gateway_setting(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("POLICYLOOP_RETRIES", "-1")
    batch_config = tmp_path / "batch.json"
    batch_config.write_text(json.dumps({"tasks": ["CartPole"], "base_url": "http://127.0.0.1:9"}))
    out_dir = tmp_path / "runs"
    with pytest.raises(SystemExit) as exit_info:
        main(["batch", "--config", str(batch_config), "--out-dir", str(out_dir)])
    assert exit_info.value.code == 2
    assert "gateway settings: retries must be at least 0, got -1" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "base_url, message",
    [
        ("localhost:11434",
         "base_url must be an http or https URL with a host, got 'localhost:11434'"),
        ("http://host:port",
         "base_url must be an http or https URL with a host, got 'http://host:port'"),
        ("http://a b:8000",
         "http.client cannot send to base_url 'http://a b:8000': "
         "URL can't contain control characters"),
        ("http://127.0.0.1:9/x y",
         "http.client cannot send to base_url 'http://127.0.0.1:9/x y': "
         "URL can't contain control characters"),
        ("http://127.0.0.1:9/\u00fc",
         "http.client cannot send to base_url 'http://127.0.0.1:9/\u00fc': "
         "'ascii' codec can't encode character"),
    ],
)
def test_a_backend_url_the_gateway_cannot_send_to_is_a_usage_error(tmp_path, base_url, message):
    done = _cli(0, "run", "--task", "CartPoleStar2", "--backend-url", base_url,
                "--out", str(tmp_path / "record.json"))
    assert done.returncode == 2, done.stdout + done.stderr
    assert message in done.stderr
    assert "Traceback" not in done.stderr
    assert not (tmp_path / "record.json").exists()


# -- bad settings files --------------------------------------------------------

# (the file to write, its JSON or None for a missing file, the command after
# "policyloop", and a word the error must name)
OFFLINE_BATCH = {"tasks": ["CartPole"], "script": ["x"], "config": {"epochs": 1}}
BAD_SETTINGS = {
    "config-repair-budget-zero": (
        "cfg.json", {"repair_budget": 0}, ["run", "--config", "cfg.json"], "repair_budget"
    ),
    "config-unknown-setting": (
        "cfg.json", {"bogus": 1}, ["run", "--config", "cfg.json"], "bogus"
    ),
    "config-missing": (
        "cfg.json", None, ["run", "--config", "cfg.json"], "cfg.json"
    ),
    "script-missing": (
        "gone.json", None, ["run", "--script", "gone.json"], "gone.json"
    ),
    "script-empty": (
        "session.json", [], ["run", "--script", "session.json"], "expected at least one response"
    ),
    "gateway-timeout-not-a-number": (
        "gw.json", {"timeout": "x"},
        ["run", "--backend-url", "http://127.0.0.1:9", "--gateway-config", "gw.json"], "gw.json",
    ),
    "gateway-config-not-an-object": (
        "gw.json", [1],
        ["run", "--backend-url", "http://127.0.0.1:9", "--gateway-config", "gw.json"], "gw.json",
    ),
    "gateway-base-url-not-a-string": (
        "gw.json", {"base_url": 5}, ["run", "--gateway-config", "gw.json"], "base_url"
    ),
    "gateway-base-url-without-a-scheme": (
        "gw.json", {"base_url": "localhost:11434"}, ["run", "--gateway-config", "gw.json"],
        "base_url",
    ),
    "gateway-config-missing": (
        "gw.json", None,
        ["run", "--backend-url", "http://127.0.0.1:9", "--gateway-config", "gw.json"], "gw.json",
    ),
    "batch-config-sets-seed-root": (
        "batch.json", {"tasks": ["CartPole"], "script": ["x"], "config": {"seed_root": 1}},
        ["batch", "--config", "batch.json"], "seed_root",
    ),
    "batch-config-sets-model-name": (
        "batch.json", {"tasks": ["CartPole"], "script": ["x"], "config": {"model_name": "m"}},
        ["batch", "--config", "batch.json"], "model_name",
    ),
    "batch-config-sets-temperatures": (
        "batch.json",
        {"tasks": ["CartPole"], "script": ["x"], "config": {"temperatures": [0.5, 0.9]}},
        ["batch", "--config", "batch.json"], "temperatures",
    ),
    "batch-unknown-key": (
        "batch.json", {**OFFLINE_BATCH, "replicatoins": 1},
        ["batch", "--config", "batch.json"], "'replicatoins'",
    ),
    "batch-zero-replications": (
        "batch.json", {**OFFLINE_BATCH, "replications": 0},
        ["batch", "--config", "batch.json"], "replications",
    ),
    "batch-negative-replications": (
        "batch.json", {**OFFLINE_BATCH, "replications": -1},
        ["batch", "--config", "batch.json"], "replications",
    ),
    "batch-bool-replications": (
        "batch.json", {**OFFLINE_BATCH, "replications": True},
        ["batch", "--config", "batch.json"], "replications",
    ),
    "batch-no-models": (
        "batch.json", {**OFFLINE_BATCH, "models": []},
        ["batch", "--config", "batch.json"], "model_names",
    ),
    "batch-base-url-without-a-scheme": (
        "batch.json", {"tasks": ["CartPole"], "base_url": "localhost:11434"},
        ["batch", "--config", "batch.json"], "base_url",
    ),
    "batch-empty-script": (
        "batch.json", {"tasks": ["CartPole"], "script": [], "base_url": "http://127.0.0.1:9"},
        ["batch", "--config", "batch.json"], "script",
    ),
}


@pytest.mark.parametrize("case", list(BAD_SETTINGS))
def test_bad_settings_are_usage_errors(tmp_path, script_file, case):
    """Exit 2 with ``policyloop: error:`` naming the file or the setting;
    no traceback and no record."""
    name, content, command, named = BAD_SETTINGS[case]
    if content is not None:
        (tmp_path / name).write_text(json.dumps(content))
    args = [str(tmp_path / a) if a == name else a for a in command]
    if command[0] == "run":
        args += ["--task", "CartPole", "--out", str(tmp_path / "record.json")]
        if "--config" in command:
            args += ["--script", str(script_file)]
    else:
        args += ["--out-dir", str(tmp_path / "runs")]
    done = _cli(0, *args)
    assert done.returncode == 2, done.stdout + done.stderr
    assert "policyloop: error:" in done.stderr
    assert named in done.stderr
    assert "Traceback" not in done.stderr
    assert not (tmp_path / "record.json").exists()
    assert not (tmp_path / "runs").exists()


# -- settings of the wrong type --------------------------------------------------

# (the gateway settings file, the text the error must hold)
WRONG_GATEWAY_SETTINGS = {
    "a-string-for-a-number": ({"timeout": "x"}, "timeout must be a number, got 'x'"),
    "a-float-for-an-int": ({"retries": 1.5}, "retries must be an int, got 1.5"),
    "a-bool-for-an-int": ({"retries": True}, "retries must be an int, got True"),
    "a-float-budget": ({"context_budget": 4096.0}, "context_budget must be an int, got 4096.0"),
    "a-bool-for-a-number": ({"backoff": False}, "backoff must be a number, got False"),
    "an-int-no-float-holds": ({"backoff": 10**400}, "backoff is too large for a float"),
    "an-unknown-key": ({"retires": 0}, "unexpected keyword argument 'retires'"),
}


@pytest.mark.parametrize("case", list(WRONG_GATEWAY_SETTINGS))
def test_gateway_file_of_the_wrong_form_is_a_usage_error(tmp_path, case):
    settings, message = WRONG_GATEWAY_SETTINGS[case]
    (tmp_path / "gw.json").write_text(json.dumps(settings))
    done = _cli(0, "run", "--task", "CartPole", "--backend-url", "http://127.0.0.1:9",
                "--gateway-config", str(tmp_path / "gw.json"),
                "--out", str(tmp_path / "record.json"))
    assert done.returncode == 2, done.stdout + done.stderr
    assert "policyloop: error: gateway settings in" in done.stderr
    assert message in done.stderr
    assert "Traceback" not in done.stderr
    assert not (tmp_path / "record.json").exists()


WRONG_LOOP_SETTINGS = {
    "epochs": (1.5, "epochs must be an int, got 1.5"),
    "eval_episodes": (2.5, "eval_episodes must be an int, got 2.5"),
    "window_size": (2.5, "window_size must be an int, got 2.5"),
    "repair_budget": (1.5, "repair_budget must be an int, got 1.5"),
    "seed_root": (True, "seed_root must be an int, got True"),
    "stop_on_max": ("no", "stop_on_max must be a bool, got 'no'"),
    "retest_at_max": (0, "retest_at_max must be a bool, got 0"),
    "model_name": (5, "model_name must be a string, got 5"),
    "temperatures": (["0.5"], "temperature must be a number, got '0.5'"),
}


@pytest.mark.parametrize("setting", list(WRONG_LOOP_SETTINGS))
def test_loop_setting_of_the_wrong_type_is_a_usage_error(tmp_path, script_file, capsys, setting):
    value, message = WRONG_LOOP_SETTINGS[setting]
    (tmp_path / "cfg.json").write_text(json.dumps({setting: value}))
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--task", "CartPoleStar2", "--script", str(script_file),
              "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "record.json")])
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "record.json").exists()


def test_script_with_a_response_that_is_not_text_is_a_usage_error(tmp_path, capsys):
    (tmp_path / "session.json").write_text(json.dumps([1, 2]))
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--task", "CartPole", "--script", str(tmp_path / "session.json"),
              "--out", str(tmp_path / "record.json")])
    assert exit_info.value.code == 2
    assert "expected a JSON list of strings" in capsys.readouterr().err
    assert not (tmp_path / "record.json").exists()


def test_batch_script_with_a_response_that_is_not_text_is_a_usage_error(tmp_path, capsys):
    (tmp_path / "batch.json").write_text(json.dumps({"tasks": ["CartPole"], "script": [1, 2]}))
    with pytest.raises(SystemExit) as exit_info:
        main(["batch", "--config", str(tmp_path / "batch.json"),
              "--out-dir", str(tmp_path / "runs")])
    assert exit_info.value.code == 2
    assert "script: expected a JSON list of strings" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_metrics_refuses_a_record_above_the_task_maximum(tmp_path):
    data = json.loads((CORPUS / "CartPoleStar2_completed.json").read_text())
    first = data["strategies"][0]
    first["mean_reward"] = 600.0
    first["per_episode_returns"] = [600.0] * len(first["per_episode_returns"])
    (tmp_path / "record.json").write_text(json.dumps(data))
    done = _python([], "-m", "policyloop.cli", "metrics", "record.json", "--no-rerun",
                   cwd=tmp_path)
    assert done.returncode == 2, done.stdout + done.stderr
    assert "Traceback" not in done.stderr
    assert "policyloop: error: a record reached 600.0, above the task maximum 500.0" in done.stderr


@pytest.mark.parametrize("flag", ["--r-max", "--t-max"])
def test_metrics_takes_no_reward_bound_or_horizon(capsys, flag):
    """A cell is scored against its task's maximum and its epoch budget."""
    with pytest.raises(SystemExit) as exit_info:
        main(["metrics", str(CORPUS / "Acrobot_random.json"), flag, "500", "--no-rerun"])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flag} 500" in capsys.readouterr().err


@pytest.mark.parametrize("task", ["Acrobot", "Pendulum", "MountainCarContinuous", "MountainCarDiscrete"])
def test_metrics_scores_a_task_without_a_maximum_with_success_absent(tmp_path, capsys, task):
    record = CORPUS / f"{task}_random.json"
    report = tmp_path / "report.json"
    assert main(["metrics", str(record), "--no-rerun", "--json", str(report)]) == 0
    # Success, Robustness, LearnTime and FoM
    assert capsys.readouterr().out.splitlines()[2].split()[4:8] == ["-"] * 4
    (scored,) = json.loads(report.read_text())
    assert (scored["r_max"], scored["success"]) == (None, None)
    assert scored["n_episodes"] == RunRecord.load(record).config.epochs


_NOT_A_RECORD = {
    "missing": (None, "No such file or directory"),
    "not-json": ("{", "Expecting property name"),
    "a-list": ("[]", "expected a JSON object"),
    "no-strategies": ('{"a": 1}', "not a run record (KeyError: 'strategies')"),
    "config-not-an-object": (
        '{"strategies": [], "task_id": "CartPole", "config": []}',
        "not a run record (AttributeError:",
    ),
}


@pytest.mark.parametrize("command", ["replay", "metrics"])
@pytest.mark.parametrize("case", sorted(_NOT_A_RECORD))
def test_a_record_file_that_cannot_be_read_is_a_usage_error(tmp_path, command, case):
    text, message = _NOT_A_RECORD[case]
    if text is not None:
        (tmp_path / "record.json").write_text(text, encoding="utf-8")
    done = _python([], "-m", "policyloop.cli", command, "record.json", cwd=tmp_path)
    assert done.returncode == 2, done.stdout + done.stderr
    assert "Traceback" not in done.stderr
    assert "policyloop: error: record.json: " in done.stderr
    assert message in done.stderr


@pytest.mark.parametrize("command", ["replay", "metrics"])
def test_a_usage_error_prints_the_subcommand_usage_line(tmp_path, command):
    done = _python([], "-m", "policyloop.cli", command, "nope.json", cwd=tmp_path)
    assert done.returncode == 2, done.stdout + done.stderr
    assert done.stderr.startswith(f"usage: policyloop {command} [-h] ")
    assert done.stderr.splitlines()[-1].startswith("policyloop: error: nope.json: ")


# a corpus record with one field set to a value of the wrong type; a
# "window." field is one of the first strategy's window
_WRONG_TYPES = {
    "mean-reward-null": ("mean_reward", None, "mean_reward must be a number, got None"),
    "mean-reward-text": ("mean_reward", "x", "mean_reward must be a number, got 'x'"),
    "program-source-int": ("program_source", 5, "program_source must be a string, got 5"),
    "temperature-text": ("temperature", "hot", "temperature must be a number, got 'hot'"),
    "replication-index-text": (
        "replication_index", "0", "replication_index must be an int, got '0'"
    ),
    "window-lines-text": ("window.lines", "abc", "lines must be a list, got 'abc'"),
    "window-line-int": ("window.lines", [5], "line must be a string, got 5"),
    "window-source-episode-text": (
        "window.source_episode", "0", "source_episode must be an int, got '0'"
    ),
    "window-episode-return-text": (
        "window.episode_return", "x", "episode_return must be a number, got 'x'"
    ),
    "window-invalid-value-text-int": (
        "window.invalid_value_text", 5, "invalid_value_text must be a string, got 5"
    ),
    # the constants json reads but JSON does not have: refused as the file is read
    "mean-reward-nan": ("mean_reward", math.nan, "NaN is not a JSON value"),
    "window-episode-return-inf": ("window.episode_return", math.inf, "Infinity is not a JSON value"),
    "temperature-minus-inf": ("temperature", -math.inf, "-Infinity is not a JSON value"),
}

# a corpus record with one of its config's copies changed, or its first
# strategy's mean reward, which must be the mean of its returns and a float
_DISAGREEING = {
    "seed-root": ("seed_root", 99, "seed_root 99 differs from config.seed_root 3"),
    "model-name": (
        "model_name",
        "other",
        "model_name 'other' differs from config.model_name 'meta-llama/Llama-3.1-70B-Instruct'",
    ),
    "temperature": ("temperature", 0.5, "temperature 0.5 is not in config.temperatures (0.0,)"),
    # no float holds it, so metrics could not score it
    "mean-reward-too-large": ("mean_reward", 10**400, "mean_reward is too large for a float"),
    # metrics would score it a success at its first iteration
    "mean-reward-not-the-mean": (
        "mean_reward", 500.0, "mean_reward 500.0 is not the mean of per_episode_returns, 51.1"
    ),
    "no-returns": ("per_episode_returns", [], "per_episode_returns is empty"),
}


def _refusal(tmp_path, capsys, command, field, value):
    """The last line ``command`` prints on the completed CartPoleStar2 corpus
    record with ``field`` set to ``value``, after checking that it exits 2
    with its usage line."""
    data = json.loads((FIXTURES / "records" / "CartPoleStar2_completed.json").read_text())
    target = data if field in data else data["strategies"][0]
    *outer, name = field.split(".")
    for key in outer:
        target = target[key]
    target[name] = value
    path = tmp_path / "record.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    # robustness re-runs the first maximal program, so metrics reads its source
    extra = ["--n-eval", "1"] if command == "metrics" else []
    with pytest.raises(SystemExit) as exit_info:
        main([command, str(path), *extra])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: policyloop {command} [-h] ")
    return err.splitlines()[-1].replace(str(path), "<record>")


@pytest.mark.parametrize("command", ["replay", "metrics"])
@pytest.mark.parametrize("case", sorted(_WRONG_TYPES))
def test_a_record_field_of_the_wrong_type_is_a_usage_error(tmp_path, capsys, command, case):
    field, value, message = _WRONG_TYPES[case]
    if not isinstance(value, float):
        message = f"not a run record (TypeError: {message})"
    assert _refusal(tmp_path, capsys, command, field, value) == (
        f"policyloop: error: <record>: {message}"
    )


@pytest.mark.parametrize("command", ["replay", "metrics"])
@pytest.mark.parametrize("case", sorted(_DISAGREEING))
def test_a_record_that_disagrees_with_itself_is_a_usage_error(tmp_path, capsys, command, case):
    """replay reruns from the config, while metrics seeds robustness from
    the record's seed_root, groups cells by its model and temperature, and
    reads each strategy's mean_reward and not its returns."""
    field, value, message = _DISAGREEING[case]
    assert _refusal(tmp_path, capsys, command, field, value) == (
        f"policyloop: error: <record>: not a run record (ValueError: {message})"
    )


def test_run_config_file_settings_sit_under_the_flags(tmp_path, script_file):
    settings = {
        "model_name": "from-file",
        "seed_root": 7,
        "temperatures": [0.5],
        "ablation": "NoData",
        "epochs": 3,
    }
    (tmp_path / "cfg.json").write_text(json.dumps(settings))
    base = ["--task", "CartPoleStar2", "--script", str(script_file),
            "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "record.json")]

    main(["run", *base])
    record = RunRecord.load(tmp_path / "record.json")
    assert (record.model_name, record.seed_root, record.temperature) == ("from-file", 7, 0.5)
    assert record.config.ablation.value == "NoData"
    assert record.config.epochs == 3

    main(["run", *base, "--model", "from-flag", "--seed-root", "2", "--temperature", "0"])
    record = RunRecord.load(tmp_path / "record.json")
    assert (record.model_name, record.seed_root, record.temperature) == ("from-flag", 2, 0.0)
    assert record.config.temperatures == (0.0,)
    assert record.config.ablation.value == "NoData"

    main(["run", *base, "--ablation", "NoSensoryMotorData"])
    record = RunRecord.load(tmp_path / "record.json")
    assert record.config.ablation.value == "NoSensoryMotorData"
    assert (record.model_name, record.seed_root) == ("from-file", 7)


def test_run_without_settings_uses_the_loop_defaults(tmp_path, script_file):
    main(["run", "--task", "CartPoleStar2", "--script", str(script_file),
          "--out", str(tmp_path / "record.json")])
    expected = run_replication(
        "CartPoleStar2",
        LoopConfig.for_task("CartPoleStar2"),
        ScriptedBackend(scripted_session()),
        0,
        0.0,
    )
    assert RunRecord.load(tmp_path / "record.json").canonical_json() == expected.canonical_json()


# -- without numpy ---------------------------------------------------------------


def _python(flags, *args, cwd):
    """``python <flags> <args>`` with only the package's source on the path."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *flags, *args],
        env=env, cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def _pipeline(out_dir, script_file, flags):
    """run --script, replay, then metrics --json, as one user would; returns
    the record and report bytes."""
    out_dir.mkdir()
    cli = ("-m", "policyloop.cli")
    for args in (
        _run_args(out_dir, script_file),
        ["replay", "record.json"],
        ["metrics", "record.json", "--n-eval", "50", "--json", "report.json"],
    ):
        done = _python(flags, *cli, *args, cwd=out_dir)
        assert done.returncode == 0, (flags, args, done.stdout + done.stderr)
    return _record_and_report(out_dir)


def _record_and_report(out_dir):
    """The bytes of ``record.json``, ``wall_clock`` masked, and of ``report.json``."""
    record = (out_dir / "record.json").read_text(encoding="utf-8")
    # the one field that differs between two runs of the same record
    record = re.sub(r'"wall_clock": [^,}]+', '"wall_clock": 0', record)
    return record, (out_dir / "report.json").read_bytes()


def test_pipeline_runs_without_site_packages(tmp_path, script_file):
    """``python -S`` skips site-packages, so numpy cannot load: the runtime
    needs nothing outside the standard library, and gives the same bytes."""
    no_numpy = _python(["-S"], "-c", "import numpy", cwd=tmp_path)
    assert "ModuleNotFoundError" in no_numpy.stderr
    bare = _pipeline(tmp_path / "bare", script_file, ["-S"])
    usual = _pipeline(tmp_path / "usual", script_file, [])
    assert bare == usual
    assert json.loads(bare[1])[0]["robustness"] == 1.0


# -- a closed stdout ---------------------------------------------------------------


def _with_closed_stdout(flags, args, cwd):
    """``python <flags> -m policyloop.cli <args>`` writing to a pipe whose
    reader is closed before the command starts, as ``| head -1`` leaves it."""
    read, write = os.pipe()
    os.close(read)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONUNBUFFERED", None)  # the flags choose the buffering
    try:
        return subprocess.run(
            [sys.executable, *flags, "-m", "policyloop.cli", *args],
            env=env, cwd=cwd, stdout=write, stderr=subprocess.PIPE, text=True, timeout=120,
        )
    finally:
        os.close(write)


@pytest.mark.parametrize("flags", [[], ["-u"]], ids=["buffered", "unbuffered"])
def test_a_closed_stdout_ends_the_command_after_its_files_are_written(
    tmp_path, script_file, flags
):
    """``run`` and ``metrics --json`` whose reader has gone write the files
    they write with an open stdout, then exit 1 with nothing on stderr."""
    written = {}
    for stdout in ("open", "closed"):
        out_dir = tmp_path / stdout
        out_dir.mkdir()
        for args in (
            _run_args(out_dir, script_file),
            ["metrics", "record.json", "--n-eval", "50", "--json", "report.json"],
        ):
            if stdout == "open":
                done = _python(flags, "-m", "policyloop.cli", *args, cwd=out_dir)
                assert done.returncode == 0, (args, done.stderr)
            else:
                done = _with_closed_stdout(flags, args, out_dir)
                assert (done.returncode, done.stderr) == (1, ""), args
        written[stdout] = _record_and_report(out_dir)
    assert written["closed"] == written["open"]


def test_importing_the_package_loads_no_numpy(tmp_path):
    check = (
        "import sys, policyloop, policyloop.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    )
    done = _python([], "-c", check, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"

