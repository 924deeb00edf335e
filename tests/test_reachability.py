"""A census of the ``src/`` functions that the product's paths enter.

A fixed set of entry points runs under ``sys.setprofile``: the corpus
writer over generated scenarios, ``crosscheck run`` on every written
file, ``crosscheck eval`` on the directory, ``--schema-dump``, one usage
error and ``run_ablation``. Every log the runs write is read back and
must replay clean. The census records the code objects these calls enter
under ``src/crosscheck``.

It then lists every module-level function and every method, property,
classmethod and staticmethod defined in ``src/crosscheck``. Methods that
``dataclasses`` generates have no source there, so they drop out. The
names never entered must be exactly those in ``UNREACHED``, each with its
reason. A function that no path enters fails the test until it is
deleted or listed; a listed function that a path enters, or that no
longer exists, fails it too, so the list only shrinks with the code.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
import sys
from pathlib import Path

import pytest

import crosscheck
from crosscheck import cli
from crosscheck.auditlog import AuditLog, replay
from crosscheck.baselines import run_ablation
from crosscheck.corpus import GeneratorParams, adversarial_corpus, random_corpus, random_scenario, write_corpus
from crosscheck.scenario import load_corpus
from test_scenario import _tool_variants

PACKAGE = Path(crosscheck.__file__).resolve().parent

# The bench's ``wide`` generator settings.
WIDE_PARAMS = GeneratorParams(max_experts=64, max_steps=64, agreement=0.5, distractors=4,
                              edge_prob=0.1, with_constraints=True)

FACTS_WRITE_TIER = "facts write tier: only the store workload (perfbench/ops.py) and tests write; ROADMAP item 7"
PROTOCOL = "Protocol stub: the classes that implement it are entered"
LIVE = "live backend, exported: needs a network endpoint (ROADMAP: live backends stay untested)"

# Never entered by the census, by ``module.Qualname``, each with its reason.
UNREACHED = {
    "auditlog._payload_encoder": "import time: picks the one payload encoder as the module loads",
    "baselines.AblationConfig.__post_init__": "import time: checks DEFAULT_ABLATION_ROWS as the module loads",
    "ensemble.ExpertBackend.sample": PROTOCOL,
    "ensemble.HttpBackend.__init__": LIVE,
    "ensemble.HttpBackend.sample": LIVE,
    "facts.ConsistencyReport.__post_init__": FACTS_WRITE_TIER,
    "facts.FactStore._add_base": FACTS_WRITE_TIER,
    "facts.FactStore.add_assumption": FACTS_WRITE_TIER,
    "facts.FactStore.add_given": FACTS_WRITE_TIER,
    "facts.FactStore.check_consistency": FACTS_WRITE_TIER,
    "facts.FactStore.from_lines": "reads a facts.jsonl dump back (README); no command reads one yet",
    "facts.FactStore.get_fact": FACTS_WRITE_TIER,
    "facts.FactStore.load_record": "bench trace hook facts.seed (perfbench/tracing.py, tests/test_surface.py)",
    "facts.FactStore.promote_fact": FACTS_WRITE_TIER,
    "facts.FactStore.provenance_chain": FACTS_WRITE_TIER,
    "facts.FactStore.summarize_to_note": FACTS_WRITE_TIER,
    "facts.FactStore.verify_promotion_soundness": FACTS_WRITE_TIER,
    "facts._render_summary": FACTS_WRITE_TIER,
    "facts.default_summarizer": FACTS_WRITE_TIER,
    "verifiers.VerifyOperator.examine": PROTOCOL,
}


def _kinds_scenario() -> dict:
    """Booleans, nested composites and quantities, and one expert whose backend fails."""
    nested = {"kind": "composite", "items": [1, {"kind": "composite", "items": ["x", True]}]}
    return {
        "name": "kinds",
        "query": "q",
        "dag": {"steps": ["b", "c", "q"], "edges": [["b", "c"], ["c", "q"]]},
        "constraints": [{"id": "unit", "check": "unit", "scope": "step", "step_pattern": "q", "unit": "m"},
                        {"id": "word", "check": "regex", "scope": "response", "pattern": "[a-z]+"}],
        "experts": [
            {"expert_id": "e01", "class": "conservative", "temperature": 0.1, "seed": 1,
             "traces": [{"steps": {"b": {"value": True, "confidence": 0.9},
                                   "c": {"value": nested, "confidence": 0.8},
                                   "q": {"value": {"kind": "quantity", "value": 3.5, "unit": "m"},
                                         "confidence": 0.7}},
                         "analysis": "a", "response": "yes"}]},
            {"expert_id": "e02", "class": "radical", "temperature": 0.9, "seed": 2,
             "traces": [{"steps": {"b": {"value": False, "confidence": 0.6},
                                   "c": {"value": [1, ["x", True]], "confidence": 0.5},
                                   "q": {"value": {"kind": "quantity", "value": 3.5, "unit": "s"},
                                         "confidence": 0.4}},
                         "response": "no"}]},
            {"expert_id": "e03", "class": "radical", "temperature": 1.0, "seed": 3, "fail": True},
        ],
        "verdict_table": {'b|bool:true': "support", 'c|list:[num:1,list:[txt:"x",bool:true]]': "support",
                          'q|qty:3.5:"m"': "support"},
        "oracle": {"answer": "yes", "truth": {"b": True}},
    }


def _infeasible_scenario() -> dict:
    """Every response breaks a response-scope range, so the run abstains."""
    return {
        "name": "infeasible",
        "query": "q",
        "dag": {"steps": ["s1"], "edges": []},
        "constraints": [{"id": "cap", "check": "range", "scope": "response", "max": 10}],
        "experts": [
            {"expert_id": f"e0{i}", "class": "conservative", "temperature": 0.1, "seed": i,
             "traces": [{"steps": {"s1": {"value": 50 + i, "confidence": 0.9}}, "response": 50 + i}]}
            for i in (1, 2)
        ],
        "oracle": {"answer": 5},
    }


def _run_entry_points(root: Path) -> None:
    """Every fixed entry point; a failing one fails the census."""
    corpus_dir = root / "corpus"
    scenarios, _ = random_corpus(1, 8, GeneratorParams(with_constraints=True, with_facts=True))
    adversarial = adversarial_corpus(3)
    wide = random_scenario(20_007, WIDE_PARAMS)  # 36 experts by 17 steps
    paths = write_corpus([*scenarios, *adversarial, wide], corpus_dir)
    # ``_tool_variants`` starts with ``_tool_scenario``: cross-execution runs only in these.
    extra = [*_tool_variants(), _kinds_scenario(), _infeasible_scenario()]
    for i, obj in enumerate(extra):
        path = corpus_dir / f"hand{i:02d}.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        paths.append(path)
    runs = [(path, []) for path in paths]
    runs += [(corpus_dir / f"{s.name}.json", ["--theta", "3"]) for s in adversarial]
    codes = []
    for i, (path, flags) in enumerate(runs):
        out = root / f"run{i:03d}"
        codes.append(cli.main(["run", "--scenario", str(path), "--out", str(out), *flags]))
        text = (out / "audit.log").read_text(encoding="utf-8")
        state = replay(AuditLog.from_lines(text.splitlines()))
        assert state.ok, (path.name, state.violations)
    assert set(codes) == {0, 2}, codes  # answers and the abstention
    assert cli.main(["eval", "--corpus", str(corpus_dir), "--out", str(root / "eval")]) == 0
    assert cli.main(["--schema-dump"]) == 0
    with pytest.raises(SystemExit) as usage:
        cli.main(["run", "--theta", "many"])
    assert usage.value.code == 1
    run_ablation(load_corpus(corpus_dir))


def _entered(root: Path) -> set:
    """The code objects under the package entered while the entry points run."""
    seen = set()
    prefix = str(PACKAGE)

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code not in seen and code.co_filename.startswith(prefix):
                seen.add(code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        _run_entry_points(root)
    finally:
        sys.setprofile(previous)
    return seen


def _defined() -> dict:
    """``module.Qualname`` -> code object of every function and class member defined under the package."""
    found = {}

    def add(module_name: str, fn) -> None:
        code = getattr(fn, "__code__", None)
        if code is not None and code.co_filename.startswith(str(PACKAGE)):
            found[f"{module_name}.{fn.__qualname__}"] = code

    for info in pkgutil.iter_modules(crosscheck.__path__):
        module = importlib.import_module(f"crosscheck.{info.name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                add(info.name, obj)
            elif inspect.isclass(obj):
                for member in vars(obj).values():
                    if isinstance(member, property):
                        for accessor in (member.fget, member.fset, member.fdel):
                            if accessor is not None:
                                add(info.name, accessor)
                    elif isinstance(member, (classmethod, staticmethod)):
                        add(info.name, member.__func__)
                    elif inspect.isfunction(member):
                        add(info.name, member)
    return found


def test_every_unentered_function_is_listed_with_its_reason(tmp_path, capsys):
    entered = _entered(tmp_path)
    defined = _defined()
    never = {name for name, code in defined.items() if code not in entered}
    assert sorted(never - set(UNREACHED)) == [], "entered by no path: delete it, or list it with a reason"
    assert sorted(set(UNREACHED) - never) == [], "listed, but entered or gone: drop the entry"
    assert all(reason.strip() for reason in UNREACHED.values())
