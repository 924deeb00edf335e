"""Command-line entry point.

``crosscheck run`` executes the verification pipeline on one scenario and
writes three artifacts into the output directory: ``answer.json`` (the
synthesized answer with its score, anchors, and conflict states),
``audit.log`` (line-delimited, byte-reproducible event journal) and
``facts.jsonl`` (the facts-store dump). ``crosscheck eval`` scores methods
over a corpus directory and writes ``report.json`` / ``report.txt``.

Exit codes are a total function of the outcome: 0 answer produced,
2 abstention (nothing feasible survived), 1 any error. An abstention is a
run result like an answer, so it writes the same three artifacts, with
``"abstained": true`` and a null answer in ``answer.json``. A command
handles no error itself: ``main`` dispatches through one command table
and turns any ``CrosscheckError``, ``ValueError`` or ``OSError`` a
command raises into one ``error:`` line on stderr and exit 1; a usage
error prints the usage before its ``error:`` line. Environment variables
configure only the optional live backend; every hermetic run is driven
entirely by flags and files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import NoReturn

from . import __version__
from .baselines import METHODS, evaluate_methods
from .engine import (BUDGET_CAP, DEFAULT_GATE_THRESHOLD, DEFAULT_THETA, DEFAULT_WEIGHTS,
                     EngineConfig, RunResult, run_pipeline)
from .errors import CrosscheckError
from .scenario import SCHEMA_TEXT, load_corpus, load_scenario
from .values import format_literal, value_to_json


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error: exit code 2 means abstention."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="crosscheck", description="Conflict-aware verification of multi-expert reasoning traces.")
    parser.add_argument("--version", action="version", version=f"crosscheck {__version__}")
    parser.add_argument(
        "--schema-dump", action="store_true",
        help="print the scenario/report file schemas and exit",
    )
    engine_flags = argparse.ArgumentParser(add_help=False)
    engine_flags.add_argument("--theta", type=int, default=DEFAULT_THETA,
                              help=f"anchor quorum (default {DEFAULT_THETA})")
    engine_flags.add_argument("--budget", type=int, default=None,
                              help=f"max verify calls (default: conflict count, capped at {BUDGET_CAP})")
    engine_flags.add_argument("--gate-threshold", type=float, default=DEFAULT_GATE_THRESHOLD,
                              help="minimum surviving fraction for a trace to pass the gate")
    sub = parser.add_subparsers(dest="command")

    run_p = sub.add_parser("run", parents=[engine_flags], help="verify one scenario and write the audit bundle")
    run_p.add_argument("--scenario", required=True, type=Path, help="scenario file (JSON)")
    run_p.add_argument("--weights", type=str, default=",".join(map(str, DEFAULT_WEIGHTS)),
                       help="anchor,conflict,confidence score weights")
    run_p.add_argument("--no-facts", action="store_true",
                       help="skip facts seeding and facts-consistency gating")
    run_p.add_argument("--out", required=True, type=Path, help="output directory")

    eval_p = sub.add_parser("eval", parents=[engine_flags], help="score methods over a corpus directory")
    eval_p.add_argument("--corpus", required=True, type=Path, help="directory of scenario files")
    eval_p.add_argument("--methods", type=str, default="audit,mv,sv,passn",
                        help=f"comma-separated subset of {{{','.join(METHODS)}}}")
    eval_p.add_argument("--out", required=True, type=Path, help="output directory")
    return parser


def _engine_config(args: argparse.Namespace, **more) -> EngineConfig:
    return EngineConfig(theta=args.theta, budget=args.budget, gate_threshold=args.gate_threshold, **more)


def _parse_weights(raw: str) -> tuple[float, float, float]:
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 3:
        raise CrosscheckError(f"--weights needs three comma-separated reals, got {raw!r}")
    return (float(parts[0]), float(parts[1]), float(parts[2]))


def _write_bundle(result: RunResult, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    answer_obj = {
        "abstained": result.abstained,
        "answer": None if result.answer is None else value_to_json(result.answer),
        "answer_literal": None if result.answer is None else format_literal(result.answer),
        "expert": result.winner_expert,
        "score": None if result.score is None else {
            "anchor_support": result.score.anchor_support,
            "conflict_agreement": result.score.conflict_agreement,
            "mean_confidence": result.score.mean_confidence,
            "total": result.score.total,
        },
        "anchors": [
            {"step": a.step, "value": format_literal(a.value), "supporters": list(a.supporters)}
            for a in result.anchors.items()
        ],
        "conflicts": [
            {"step": item.step, "state": item.state,
             "candidates": [format_literal(c.value) for c in item.candidates]}
            for item in result.conflicts.items()
        ],
        "verify_calls": result.verify_calls,
        "fallback_used": result.fallback_used,
    }
    # json.dumps raises ValueError for a NaN or an infinity, and _write_files
    # for a string UTF-8 cannot hold (a lone surrogate), before any file is
    # written: a failed run leaves no partial bundle behind.
    _write_files(out_dir, {
        "answer.json": json.dumps(answer_obj, indent=2, ensure_ascii=False, allow_nan=False) + "\n",
        "audit.log": result.audit_log.to_text(),
        "facts.jsonl": "".join(line + "\n" for line in result.facts.to_lines()),
    })


def _write_files(out_dir: Path, texts: dict[str, str]) -> None:
    """Write each text as UTF-8 under ``out_dir``, or, if one cannot be encoded, raise ValueError and write none."""
    encoded = {name: text.encode("utf-8") for name, text in texts.items()}
    for name, content in encoded.items():
        (out_dir / name).write_bytes(content)


def cmd_run(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    config = _engine_config(args, weights=_parse_weights(args.weights), facts_enabled=not args.no_facts)
    result = run_pipeline(scenario, config)
    _write_bundle(result, args.out)
    if result.abstained:
        print("abstained: no feasible candidate response", file=sys.stderr)
        return 2
    print(f"answer: {format_literal(result.answer)} (expert {result.winner_expert}, "
          f"score {result.score.total:.4f}, {result.verify_calls} verify calls)")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    corpus = load_corpus(args.corpus)
    if not corpus:
        raise CrosscheckError(f"corpus directory {args.corpus} contains no scenario files")
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    report = evaluate_methods(corpus, methods, _engine_config(args))
    table = report.to_table()
    args.out.mkdir(parents=True, exist_ok=True)
    _write_files(args.out, {
        "report.json": json.dumps(report.to_json(), indent=2, ensure_ascii=False, allow_nan=False) + "\n",
        "report.txt": table,
    })
    print(table, end="")
    return 0


_COMMANDS = {"run": cmd_run, "eval": cmd_eval}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.schema_dump:
        print(SCHEMA_TEXT, end="")
        return 0
    command = _COMMANDS.get(args.command)
    if command is None:
        parser.print_help()
        return 1
    try:
        return command(args)
    except (CrosscheckError, ValueError, OSError) as exc:  # OSError: e.g. --out names an existing file
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
