"""The command-line surface: run, ablate, batch, replay, metrics."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from policyloop.cli import main
from policyloop.gateway import ScriptedBackend
from policyloop.loop import LoopConfig, RunRecord, run_replication

from conftest import scripted_session


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


def test_ablate_runs_under_condition(tmp_path, script_file, capsys):
    exit_code = main(
        ["ablate", "NoSensoryMotorData"] + _run_args(tmp_path, script_file)[1:]
    )
    assert exit_code == 0
    record = RunRecord.load(tmp_path / "record.json")
    assert record.config.ablation.value == "NoSensoryMotorData"
    # ablations change the reflection prompt, not the mechanics
    assert record.status.value == "completed"


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
    data["strategies"][1]["mean_reward"] = 1.5
    data["strategies"][2]["mean_reward"] = 2.5
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
            "--r-max", "500",
            "--t-max", "5",
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


@pytest.mark.parametrize("option", ["--epochs", "--eval-episodes", "--window-size"])
def test_count_options_refuse_zero(tmp_path, script_file, capsys, option):
    with pytest.raises(SystemExit) as exit_info:
        main(_run_args(tmp_path, script_file, extra=(option, "0")))
    assert exit_info.value.code == 2
    field = option[2:].replace("-", "_")
    assert f"loop settings: {field} must be at least 1, got 0" in capsys.readouterr().err


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
        ("localhost:11434", "base_url must be an http or https URL with a host"),
        ("http://host:port", "base_url must be an http or https URL with a host"),
        ("http://a b:8000", "base_url's host must hold no space or control character"),
        ("http://127.0.0.1:9/x y",
         "base_url's path and query must be ASCII with no space or control character"),
        ("http://127.0.0.1:9/\u00fc",
         "base_url's path and query must be ASCII with no space or control character"),
    ],
)
def test_a_backend_url_the_gateway_cannot_send_to_is_a_usage_error(tmp_path, base_url, message):
    done = _cli(0, "run", "--task", "CartPoleStar2", "--backend-url", base_url,
                "--out", str(tmp_path / "record.json"))
    assert done.returncode == 2, done.stdout + done.stderr
    assert f"{message}, got {base_url!r}" in done.stderr
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


@pytest.mark.parametrize("bad", ["0", "-1"])
def test_metrics_refuses_a_horizon_below_one(tmp_path, script_file, capsys, bad):
    main(_run_args(tmp_path, script_file))
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        main(["metrics", str(tmp_path / "record.json"), "--t-max", bad, "--no-rerun"])
    assert exit_info.value.code == 2
    assert f"policyloop: error: t_max must be at least 1, got {bad}" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_metrics_refuses_a_reward_bound_that_is_not_finite(tmp_path, script_file, capsys, bad):
    main(_run_args(tmp_path, script_file))
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        # "--r-max -inf" would read -inf as an option
        main(["metrics", str(tmp_path / "record.json"), f"--r-max={bad}", "--no-rerun"])
    assert exit_info.value.code == 2
    assert f"policyloop: error: r_max must be finite, got {bad}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--t-max", "6"], "t_max 6 is above the records' epoch budget 5"),
        (["--r-max", "-5"], "r_max -5.0 is below the reward 500.0 the records reached"),
    ],
    ids=["t-max-above-epochs", "r-max-below-a-reached-reward"],
)
def test_metrics_refuses_bounds_the_records_contradict(tmp_path, script_file, capsys,
                                                       extra, message):
    main(_run_args(tmp_path, script_file))
    capsys.readouterr()
    record = str(tmp_path / "record.json")
    with pytest.raises(SystemExit) as exit_info:
        main(["metrics", record, *extra, "--no-rerun"])
    assert exit_info.value.code == 2
    assert f"policyloop: error: {message}" in capsys.readouterr().err
    # a bound no record reached is allowed
    assert main(["metrics", record, "--r-max", "600", "--no-rerun"]) == 0


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

    main(["ablate", "NoSensoryMotorData", *base])
    record = RunRecord.load(tmp_path / "record.json")
    assert record.config.ablation.value == "NoSensoryMotorData"  # the condition wins
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


def test_importing_the_package_loads_no_numpy(tmp_path):
    check = (
        "import sys, policyloop, policyloop.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    )
    done = _python([], "-c", check, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"

