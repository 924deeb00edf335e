from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from crosscheck import cli
from crosscheck.cli import _engine_config, _parse_weights, _write_bundle, build_parser, main
from crosscheck.corpus import GeneratorParams, adversarial_corpus, random_corpus, write_corpus
from crosscheck.engine import EngineConfig, run_pipeline
from crosscheck.scenario import load_scenario, save_scenario, scenario_from_dict
from crosscheck.values import NUMBER, Value

from test_scenario import _tool_variants


def _write_unanimous(path):
    obj = {
        "query": "q",
        "dag": {"steps": ["s1"], "edges": []},
        "experts": [
            {"expert_id": f"e0{i}", "class": "conservative", "temperature": 0.1, "seed": i,
             "traces": [{"steps": {"s1": {"value": 5, "confidence": 0.9}}, "response": 5}]}
            for i in (1, 2)
        ],
        "oracle": {"answer": 5},
    }
    save_scenario(scenario_from_dict(obj, name=path.stem), path)
    return path


def _write_infeasible(path):
    obj = {
        "query": "q",
        "dag": {"steps": ["s1"], "edges": []},
        "constraints": [{"id": "resp", "check": "kind", "scope": "response", "expect": "text"}],
        "experts": [
            {"expert_id": "e01", "class": "conservative", "temperature": 0.1, "seed": 1,
             "traces": [{"steps": {"s1": {"value": 1, "confidence": 0.9}}, "response": 1}]},
        ],
    }
    save_scenario(scenario_from_dict(obj, name=path.stem), path)
    return path


def test_run_unanimous_exits_zero(tmp_path, capsys):
    scenario = _write_unanimous(tmp_path / "u.json")
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 0
    answer = json.loads((out / "answer.json").read_text())
    assert answer["abstained"] is False
    assert answer["answer_literal"] == "num:5"
    assert answer["verify_calls"] == 0
    log_lines = (out / "audit.log").read_text().splitlines()
    entries = [json.loads(line) for line in log_lines]
    assert all(e["stage"] != "audit" for e in entries)  # nothing contested, nothing audited
    assert (out / "facts.jsonl").exists()


def _nan_answer(tmp_path):
    result = run_pipeline(load_scenario(_write_unanimous(tmp_path / "u.json")), EngineConfig())
    result.answer = Value(NUMBER, float("nan"))  # past the constructors, which reject it
    return result


def _lone_surrogate_expert(tmp_path):
    # The file holds the JSON escape "e\ud800x": it loads and runs, but no UTF-8 text can hold the id.
    obj = json.loads(_write_unanimous(tmp_path / "u.json").read_text())
    obj["experts"][0]["expert_id"] = "e\ud800x"
    path = tmp_path / "surrogate.json"
    path.write_text(json.dumps(obj), encoding="ascii")
    return run_pipeline(load_scenario(path), EngineConfig())


@pytest.mark.parametrize("unwritable", [_nan_answer, _lone_surrogate_expert], ids=["nan-answer", "lone-surrogate"])
def test_bundle_refuses_a_non_finite_number(tmp_path, unwritable):
    result = unwritable(tmp_path)
    out = tmp_path / "out"
    with pytest.raises(ValueError):
        _write_bundle(result, out)
    assert list(out.iterdir()) == []  # nothing written, not even the files that would encode


@pytest.mark.parametrize("scenario_file", [_write_unanimous, _write_infeasible])
def test_run_out_naming_a_file_exits_one(tmp_path, capsys, scenario_file):
    scenario = scenario_file(tmp_path / "s.json")
    out = tmp_path / "taken"
    out.write_text("x")
    assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert out.read_text() == "x"


def test_eval_out_naming_a_file_exits_one(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    _write_unanimous(corpus_dir / "u.json")
    out = tmp_path / "taken"
    out.write_text("x")
    assert main(["eval", "--corpus", str(corpus_dir), "--methods", "mv", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert out.read_text() == "x"


@pytest.mark.parametrize("exc_type", [ValueError, OSError])
@pytest.mark.parametrize("target", ["run_pipeline", "_write_bundle", "load_corpus", "evaluate_methods"])
def test_a_failure_inside_a_command_is_one_error_line(tmp_path, capsys, monkeypatch, target, exc_type):
    def boom(*args, **kwargs):
        raise exc_type("boom")

    monkeypatch.setattr(cli, target, boom)
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    scenario = _write_unanimous(corpus_dir / "u.json")
    if target in ("run_pipeline", "_write_bundle"):
        argv = ["run", "--scenario", str(scenario), "--out", str(tmp_path / "out")]
    else:
        argv = ["eval", "--corpus", str(corpus_dir), "--out", str(tmp_path / "report")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: boom\n"
    assert "Traceback" not in captured.err and captured.out == ""


def test_run_infeasible_exits_two(tmp_path):
    scenario = _write_infeasible(tmp_path / "i.json")
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 2
    answer = json.loads((out / "answer.json").read_text())
    assert answer["abstained"] is True
    assert answer["answer"] is None
    assert (out / "audit.log").exists()


def test_run_twice_is_byte_identical(tmp_path):
    corpus_dir = tmp_path / "corpus"
    write_corpus(adversarial_corpus(size=1, master_seed=9), corpus_dir)
    scenario_path = next(corpus_dir.glob("*.json"))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    flags = ["--theta", "3", "--budget", "2"]
    assert main(["run", "--scenario", str(scenario_path), "--out", str(out_a), *flags]) == 0
    assert main(["run", "--scenario", str(scenario_path), "--out", str(out_b), *flags]) == 0
    assert (out_a / "audit.log").read_bytes() == (out_b / "audit.log").read_bytes()
    assert (out_a / "answer.json").read_bytes() == (out_b / "answer.json").read_bytes()


def test_run_missing_scenario_exits_one(tmp_path):
    assert main(["run", "--scenario", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "out")]) == 1


def test_run_bad_weights_exits_one(tmp_path):
    scenario = _write_unanimous(tmp_path / "u.json")
    assert main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "o"),
                 "--weights", "1,2"]) == 1


@pytest.mark.parametrize("weights", ["nan,1,1", "1,inf,1", "1,1,-inf"])
def test_run_non_finite_weights_exit_one(tmp_path, capsys, weights):
    scenario = _write_unanimous(tmp_path / "u.json")
    out = tmp_path / "o"
    assert main(["run", "--scenario", str(scenario), "--out", str(out), "--weights", weights]) == 1
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_eval_mv_reports_per_scenario_verdicts(tmp_path):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    for i in range(3):
        _write_unanimous(corpus_dir / f"u{i}.json")
    out = tmp_path / "report"
    assert main(["eval", "--corpus", str(corpus_dir), "--methods", "mv", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert len(report["verdicts"]["mv"]) == 3
    assert report["scores"]["mv"] == 1.0
    assert (out / "report.txt").read_text().startswith("method")


def test_eval_dominance_columns(tmp_path):
    corpus_dir = tmp_path / "corpus"
    write_corpus(adversarial_corpus(size=5, master_seed=2), corpus_dir)
    out = tmp_path / "report"
    assert main(["eval", "--corpus", str(corpus_dir), "--methods", "audit,passn",
                 "--theta", "3", "--budget", "2", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["scores"]["passn"] >= report["scores"]["audit"]


def test_eval_empty_corpus_exits_one(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["eval", "--corpus", str(empty), "--methods", "mv",
                 "--out", str(tmp_path / "r")]) == 1
    assert "no scenario files" in capsys.readouterr().err


def test_eval_missing_corpus_directory_exits_one(tmp_path, capsys):
    missing = tmp_path / "no" / "such" / "dir"
    out = tmp_path / "r"
    assert main(["eval", "--corpus", str(missing), "--methods", "mv", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: corpus directory {missing} does not exist\n"
    assert not out.exists()


def test_eval_corpus_path_naming_a_file_exits_one(tmp_path, capsys):
    path = tmp_path / "u.json"
    _write_unanimous(path)
    out = tmp_path / "r"
    assert main(["eval", "--corpus", str(path), "--methods", "mv", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: corpus path {path} is not a directory\n"
    assert not out.exists()


def test_eval_corpus_with_a_bad_file_exits_one(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    _write_unanimous(corpus_dir / "a.json")
    bad = json.loads((corpus_dir / "a.json").read_text())
    bad["experts"][0]["temperature"] = "hot"
    (corpus_dir / "b.json").write_text(json.dumps(bad), encoding="utf-8")
    assert main(["eval", "--corpus", str(corpus_dir), "--methods", "mv",
                 "--out", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "temperature" in err
    assert "Traceback" not in err


def test_eval_corpus_with_an_integer_literal_too_long_to_convert_exits_one(tmp_path, capsys):
    # json.loads raises a plain ValueError here, not a JSONDecodeError; eval used to crash on it.
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    text = (_write_unanimous(corpus_dir / "a.json")).read_text(encoding="utf-8")
    (corpus_dir / "b.json").write_text(text.replace('"seed": 1', '"seed": ' + "1" * 5000), encoding="utf-8")
    assert main(["eval", "--corpus", str(corpus_dir), "--methods", "mv",
                 "--out", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "b.json" in err
    assert "Traceback" not in err


def test_eval_scores_a_scenario_where_every_expert_failed(tmp_path):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    _write_unanimous(corpus_dir / "a.json")
    failed = json.loads((corpus_dir / "a.json").read_text())
    for expert in failed["experts"]:
        expert["fail"] = True
        expert["traces"] = []
    (corpus_dir / "b.json").write_text(json.dumps(failed), encoding="utf-8")
    out = tmp_path / "report"
    assert main(["eval", "--corpus", str(corpus_dir), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert {m: v[1] for m, v in report["verdicts"].items()} == {
        "audit": "abstain", "mv": "abstain", "sv": "abstain", "passn": "wrong"}
    assert report["scores"]["mv"] == 0.5


def test_eval_unknown_method_exits_one(tmp_path):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    _write_unanimous(corpus_dir / "u.json")
    assert main(["eval", "--corpus", str(corpus_dir), "--methods", "voting",
                 "--out", str(tmp_path / "r")]) == 1


@pytest.mark.parametrize("methods, message", [("passn,passn", "given twice"), (",", "no methods given")])
def test_eval_repeated_or_empty_methods_exits_one(tmp_path, capsys, methods, message):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    _write_unanimous(corpus_dir / "u.json")
    out = tmp_path / "r"
    assert main(["eval", "--corpus", str(corpus_dir), "--methods", methods, "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
    assert not out.exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert "crosscheck" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["--help"], ["run", "--help"], ["eval", "--help"]])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.startswith("usage: crosscheck")


@pytest.mark.parametrize("argv", [
    ["run", "--scenario", "x.json", "--out", "o", "--theta", "abc"],
    ["run", "--scenario", "x.json", "--out", "o", "--seed", "4"],
    ["eval", "--corpus", "c", "--out", "o", "--seed", "4"],
    ["run", "--out", "o"],
    ["verify"],
])
def test_usage_error_exits_one_not_the_abstention_code(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: crosscheck")
    assert sum("error:" in line for line in captured.err.splitlines()) == 1


def test_run_and_eval_flag_defaults_are_the_engine_defaults():
    parser = build_parser()
    run_args = parser.parse_args(["run", "--scenario", "x.json", "--out", "o"])
    eval_args = parser.parse_args(["eval", "--corpus", "c", "--out", "o"])
    assert _engine_config(run_args, weights=_parse_weights(run_args.weights)) == EngineConfig()
    assert _engine_config(eval_args) == EngineConfig()


def test_schema_dump(capsys):
    assert main(["--schema-dump"]) == 0
    out = capsys.readouterr().out
    assert "scenario file" in out
    assert "verdict_table" in out


def test_no_command_prints_help(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().out


def _hash_seed_cases(tmp_path):
    """(scenario file, run flags, exit code): a desk scenario with seeded facts, an adversarial one,
    one whose audit re-runs a scripted tool, and an infeasible one."""
    desk = next(s for s in random_corpus(1, 8, GeneratorParams(with_constraints=True, with_facts=True))[0]
                if s.facts_seed)
    cases = [(desk, [], 0), (adversarial_corpus(size=1, master_seed=9)[0], ["--theta", "3"], 0),
             (scenario_from_dict(_tool_variants()[1], name="tool"), [], 0)]
    written = []
    for scenario, flags, code in cases:
        path = tmp_path / f"{scenario.name}.json"
        save_scenario(scenario, path)
        written.append((path, flags, code))
    return written + [(_write_infeasible(tmp_path / "infeasible.json"), [], 2)]


def test_run_writes_the_same_bytes_under_every_hash_seed(tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    cases = _hash_seed_cases(tmp_path)
    processes = {}
    for path, flags, _ in cases:
        for seed in ("0", "1"):
            argv = [sys.executable, "-m", "crosscheck.cli", "run", "--scenario", str(path),
                    "--out", str(tmp_path / f"{path.stem}-{seed}"), *flags]
            processes[path, seed] = subprocess.Popen(argv, env={**env, "PYTHONHASHSEED": seed},
                                                     stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    for path, flags, code in cases:
        bundles = []
        for seed in ("0", "1"):
            _, stderr = processes[path, seed].communicate(timeout=60)
            assert processes[path, seed].returncode == code, (path.stem, seed, stderr)
            out = tmp_path / f"{path.stem}-{seed}"
            bundles.append({name: (out / name).read_bytes() for name in ("audit.log", "answer.json", "facts.jsonl")})
        assert bundles[0] == bundles[1], path.stem
        args = build_parser().parse_args(["run", "--scenario", str(path), "--out", str(tmp_path), *flags])
        in_process = run_pipeline(load_scenario(path), _engine_config(args))
        assert bundles[0]["audit.log"] == in_process.audit_log.to_text().encode("utf-8"), path.stem
