from __future__ import annotations

import json

import pytest

from crosscheck.cli import main
from crosscheck.corpus import adversarial_corpus, write_corpus
from crosscheck.scenario import save_scenario, scenario_from_dict


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
    flags = ["--theta", "3", "--budget", "2", "--seed", "4"]
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


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert "crosscheck" in capsys.readouterr().out


def test_schema_dump(capsys):
    assert main(["--schema-dump"]) == 0
    out = capsys.readouterr().out
    assert "scenario file" in out
    assert "verdict_table" in out


def test_no_command_prints_help(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().out
