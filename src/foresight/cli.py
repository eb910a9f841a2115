"""Command-line surface: validate, stats, run, sweep, ci, report.

Exit codes: 0 success, 1 validation or metric failure, 2 I/O or
configuration error. JSON outputs use UTF-8 with sorted keys. Whole-file
outputs (``detailed_results.json``, ``summary.json``, ``sweep.json``,
``ci.json``) are written via temp-file-then-rename so readers never see
partial files. ``run`` also appends each finished unit to two JSON Lines
files as it goes, its memory to ``memory.jsonl`` and then its row to the
journal ``detailed_results.jsonl``, so a killed batch resumes where it
stopped; see ``cmd_run``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path
from typing import Iterable, Optional, Sequence

from foresight import backends as backend_mod
from foresight.config import VALID_BACKENDS, VALID_CONDITIONS, Condition, RunConfig
from foresight.harness import RunOutcome, run_many
from foresight.http_roles import HttpRoleBackends
from foresight.metrics import (
    ABSOLUTE_DELTA_METRICS,
    METRIC_FIELDS,
    AggregateRow,
    BootstrapConfig,
    MetricSet,
    PairingError,
    aggregate,
    paired_bootstrap,
)
from foresight.oracles import OracleBackends
from foresight.scenarios import (
    Scenario,
    ScenarioParseError,
    ScenarioSchemaError,
    ValidationReport,
    composition_stats,
    parse_scenario,
    stratify,
    validate_scenario,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_IO = 2

SWEEP_ENDPOINTS = ("t100", "user_effort", "anticipation_recall", "active_tokens")


def _collect_paths(paths: Sequence[str]) -> list[Path]:
    """Expand files and directories into a sorted list of scenario files."""
    out: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            out.extend(sorted(p.glob("*.json")))
        elif p.is_file():
            out.append(p)
        else:
            raise FileNotFoundError(f"no such file or directory: {raw}")
    if not out:
        raise FileNotFoundError(f"no scenario files found under: {', '.join(paths)}")
    return out


def _load_scenarios(paths: Sequence[str]) -> list[tuple[Path, Scenario]]:
    loaded = []
    for path in _collect_paths(paths):
        loaded.append((path, parse_scenario(path.read_text(encoding="utf-8"))))
    return loaded


def _write_text(path: Path, text: str) -> None:
    """Replaces ``path`` by ``text`` atomically, with the mode ``open`` gives a new file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: Path, payload: object) -> None:
    _write_text(path, json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True) + "\n")


# One compact line per row or memory. MemoryState.save writes the same text.
_encode_line = json.JSONEncoder(ensure_ascii=False, sort_keys=True, separators=(",", ":")).encode

JOURNAL_NAME = "detailed_results.jsonl"
MEMORY_NAME = "memory.jsonl"

UnitKey = tuple[str, str]  # (scenario_id, condition)


def _lines(path: Path) -> list[str]:
    # Not splitlines: with ensure_ascii=False a line may hold U+2028 or U+0085.
    return path.read_text(encoding="utf-8").split("\n")


def _parse_lines(lines: Iterable[str]) -> dict[UnitKey, tuple[str, dict]]:
    """The JSON lines by unit; a torn (unparsable) line is skipped, the last line of a unit wins."""
    by_key: dict[UnitKey, tuple[str, dict]] = {}
    for line in lines:
        try:
            doc = json.loads(line)
        except json.JSONDecodeError:
            continue
        by_key[(doc["scenario_id"], doc["condition"])] = (line, doc)
    return by_key


def _resume(out_dir: Path, wanted: set[UnitKey]) -> tuple[dict[UnitKey, str], dict[UnitKey, str]]:
    """Row and memory lines of the wanted units an earlier run completed.

    Rows come from the journal when a killed run left one, else from the
    roll-up. Rows are re-encoded canonically; failed rows are dropped, so
    their units rerun. Memory lines are kept only for the kept rows.
    """
    journal = out_dir / JOURNAL_NAME
    detailed = out_dir / "detailed_results.json"
    if journal.exists():
        docs = [doc for _, doc in _parse_lines(_lines(journal)).values()]
    elif detailed.exists():
        docs = json.loads(detailed.read_text(encoding="utf-8"))
    else:
        return {}, {}
    rows: dict[UnitKey, str] = {}
    for doc in docs:
        key = (doc["scenario_id"], doc["condition"])
        if key in wanted and doc["status"] != "failed":
            rows[key] = _encode_line(doc)
    memory_path = out_dir / MEMORY_NAME
    memories: dict[UnitKey, str] = {}
    if memory_path.exists():
        parsed = _parse_lines(_lines(memory_path))
        memories = {key: line for key, (line, _) in parsed.items() if key in rows}
    return rows, memories


def _join_lines(lines: Iterable[str]) -> str:
    return "".join(line + "\n" for line in lines)


def cmd_validate(args: argparse.Namespace) -> int:
    files = _collect_paths(args.paths)
    valid = 0
    for path in files:
        try:
            scenario = parse_scenario(path.read_text(encoding="utf-8"))
        except (ScenarioParseError, ScenarioSchemaError) as exc:
            print(json.dumps({"file": str(path), "code": "parse_error", "message": str(exc)}))
            continue
        report = validate_scenario(scenario)
        if report.valid:
            valid += 1
            continue
        for violation in report.violations:
            print(
                json.dumps(
                    {
                        "file": str(path),
                        "code": violation.code,
                        "message": violation.message,
                        "offending_ids": list(violation.offending_ids),
                    }
                )
            )
    print(f"{valid}/{len(files)} valid")
    return EXIT_OK if valid == len(files) else EXIT_FAIL


def cmd_stats(args: argparse.Namespace) -> int:
    rows = []
    for path, scenario in _load_scenarios(args.paths):
        stats = composition_stats(scenario)
        strata = stratify(scenario)
        rows.append(
            {
                "scenario_id": scenario.scenario_id,
                "domain": scenario.domain,
                "archetype": scenario.archetype,
                "opportunity": strata.opportunity.value,
                "fragmentation": strata.fragmentation.value,
                **dataclasses.asdict(stats),
            }
        )
    totals = {
        "scenarios": len(rows),
        "needs": sum(r["need_count"] for r in rows),
        "facts": sum(r["fact_count"] for r in rows),
        "predictable": sum(r["predictable_count"] for r in rows),
    }
    if args.json:
        print(json.dumps({"scenarios": rows, "totals": totals}, indent=2, sort_keys=True))
        return EXIT_OK
    for r in rows:
        print(
            f"{r['scenario_id']}: domain={r['domain']} archetype={r['archetype']} "
            f"needs={r['need_count']} facts={r['fact_count']} groups={r['group_count']} "
            f"predictable={r['predictable_count']} opportunity={r['opportunity']} "
            f"fragmentation={r['fragmentation']}"
        )
    print(
        f"total: {totals['scenarios']} scenarios, {totals['needs']} needs, "
        f"{totals['facts']} facts, {totals['predictable']} predictable"
    )
    return EXIT_OK


def _make_run_config(args: argparse.Namespace, budget_k: Optional[int] = None) -> RunConfig:
    return RunConfig(
        conditions=tuple(args.conditions),
        seed=args.seed,
        horizon=args.horizon,
        budget_k=budget_k if budget_k is not None else args.budget_k,
        backend=args.backend,
        endpoint=args.endpoint,
        parallel=args.parallel,
    )


def _backends_factory(cfg: RunConfig):
    """One unit's role backends; an http client is built (and its credential checked) here."""
    if cfg.backend == "oracle":
        return lambda scenario: OracleBackends(scenario, cfg=cfg)
    client = backend_mod.HttpChatClient(endpoint=cfg.endpoint)
    return lambda scenario: HttpRoleBackends(scenario, client, seed=cfg.seed)


def _validate_or_fail(loaded: list[tuple[Path, Scenario]]) -> tuple[list[ValidationReport], Optional[str]]:
    """Each scenario's report and None, or, at the first invalid scenario,
    the reports so far and its first violation as an error line."""
    reports: list[ValidationReport] = []
    for path, scenario in loaded:
        report = validate_scenario(scenario)
        if not report.valid:
            first = report.violations[0]
            return reports, f"{path}: {first.code}: {first.message}"
        reports.append(report)
    return reports, None


def _facets(scenario: Scenario, report: ValidationReport) -> dict:
    strata = stratify(scenario, report)
    return {
        "domain": scenario.domain,
        "archetype": scenario.archetype,
        "opportunity": strata.opportunity.value,
        "fragmentation": strata.fragmentation.value,
    }


def cmd_run(args: argparse.Namespace) -> int:
    # A configuration error (main exits 2) comes before any output is written.
    cfg = _make_run_config(args)
    backends_factory = _backends_factory(cfg)

    loaded = _load_scenarios(args.scenarios)
    reports, invalid = _validate_or_fail(loaded)
    if invalid:
        print(f"invalid scenario: {invalid}", file=sys.stderr)
        return EXIT_FAIL

    out_dir = Path(args.out)
    detailed_path = out_dir / "detailed_results.json"
    journal_path = out_dir / JOURNAL_NAME
    memory_path = out_dir / MEMORY_NAME

    # Resume: completed units are kept, failures rerun. The journal and
    # memory.jsonl restart from the kept lines, in unit order.
    wanted = {(s.scenario_id, c) for _, s in loaded for c in cfg.conditions}
    kept_rows, kept_memories = _resume(out_dir, wanted)
    _write_text(journal_path, _join_lines(kept_rows[key] for key in sorted(kept_rows)))
    _write_text(memory_path, _join_lines(kept_memories[key] for key in sorted(kept_memories)))

    scenarios = [s for _, s in loaded]
    facet_by_id = {s.scenario_id: _facets(s, report) for s, report in zip(scenarios, reports)}
    agg_rows = [
        AggregateRow(
            scenario_id=key[0],
            condition=key[1],
            metrics=MetricSet.from_dict(json.loads(line)["metrics"]),
            **facet_by_id[key[0]],
        )
        for key, line in kept_rows.items()
    ]
    row_lines = dict(kept_rows)
    failed: list[tuple[UnitKey, Optional[str]]] = []

    def record(outcome: RunOutcome) -> None:
        # The memory line goes first: the row line commits the unit.
        result = outcome.result
        key = (result.scenario_id, result.condition)
        if outcome.memory is not None:
            memory_fh.write(
                _encode_line(
                    {
                        "condition": result.condition,
                        "memory": outcome.memory.to_snapshot(),
                        "scenario_id": result.scenario_id,
                    }
                )
                + "\n"
            )
            memory_fh.flush()
        line = _encode_line(outcome.to_dict())
        journal_fh.write(line + "\n")
        journal_fh.flush()
        row_lines[key] = line
        agg_rows.append(
            AggregateRow(
                scenario_id=key[0], condition=key[1], metrics=outcome.metrics, **facet_by_id[key[0]]
            )
        )
        if result.status == "failed":
            failed.append((key, result.error))

    conditions = [Condition(c) for c in cfg.conditions]
    with open(journal_path, "a", encoding="utf-8") as journal_fh, open(
        memory_path, "a", encoding="utf-8"
    ) as memory_fh:
        run_many(
            scenarios, conditions, cfg, backends_factory, skip=set(kept_rows), on_outcome=record
        )

    _write_text(detailed_path, "[\n" + ",\n".join(row_lines[key] for key in sorted(row_lines)) + "\n]\n")
    if kept_memories:
        # Kept and rerun units interleave; restore unit order.
        memories = _parse_lines(_lines(memory_path))
        _write_text(memory_path, _join_lines(memories[key][0] for key in sorted(memories)))
    journal_path.unlink()

    agg_rows.sort(key=lambda row: (row.scenario_id, row.condition))
    try:
        summary = aggregate(agg_rows)
    except PairingError as exc:
        print(f"aggregation failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    summary["run"] = {
        "backend": cfg.backend,
        "seed": cfg.seed,
        "horizon": cfg.horizon,
        "budget_k": cfg.budget_k,
        "conditions": list(cfg.conditions),
        "scenario_count": len(scenarios),
    }
    _write_json(out_dir / "summary.json", summary)

    for (scenario_id, condition), error in failed:
        print(f"FAILED {scenario_id}/{condition}: {error}", file=sys.stderr)
    print(
        f"wrote {detailed_path} ({len(row_lines)} rows, {len(kept_rows)} resumed) "
        f"and {out_dir / 'summary.json'}"
    )
    return EXIT_FAIL if failed else EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    if not args.budgets:
        print("sweep requires at least one --budgets value", file=sys.stderr)
        return EXIT_IO
    configs = [_make_run_config(args, budget_k=k) for k in args.budgets]
    factories = [_backends_factory(cfg) for cfg in configs]

    loaded = _load_scenarios(args.scenarios)
    _, invalid = _validate_or_fail(loaded)
    if invalid:
        print(f"invalid scenario: {invalid}", file=sys.stderr)
        return EXIT_FAIL

    scenarios = [s for _, s in loaded]
    conditions = [Condition(c) for c in args.conditions]
    table_rows = []
    for cfg, backends_factory in zip(configs, factories):
        # condition -> [unit count, endpoint sums in unit order]
        sums: dict[str, list] = {}

        def tally(outcome: RunOutcome) -> None:
            entry = sums.setdefault(outcome.result.condition, [0] * (1 + len(SWEEP_ENDPOINTS)))
            entry[0] += 1
            for i, name in enumerate(SWEEP_ENDPOINTS, start=1):
                entry[i] += getattr(outcome.metrics, name)

        run_many(scenarios, conditions, cfg, backends_factory, on_outcome=tally)
        for condition in sorted(sums):
            n, *totals = sums[condition]
            row = {"budget_k": cfg.budget_k, "condition": condition, "n": n}
            for name, total in zip(SWEEP_ENDPOINTS, totals):
                row[name] = float(total / n)
            table_rows.append(row)

    header = f"{'k':>3}  {'condition':<16}" + "".join(f"  {name:>19}" for name in SWEEP_ENDPOINTS)
    print(header)
    for row in table_rows:
        cells = "".join(f"  {row[name]:>19.4f}" for name in SWEEP_ENDPOINTS)
        print(f"{row['budget_k']:>3}  {row['condition']:<16}{cells}")

    if args.out:
        payload = {
            "budgets": list(args.budgets),
            "conditions": [c.value for c in conditions],
            "rows": table_rows,
            "seed": args.seed,
        }
        _write_json(Path(args.out) / "sweep.json", payload)
        print(f"wrote {Path(args.out) / 'sweep.json'}")
    return EXIT_OK


def cmd_ci(args: argparse.Namespace) -> int:
    results_dir = Path(args.results)
    detailed_path = results_dir / "detailed_results.json"
    if not detailed_path.exists():
        print(f"missing {detailed_path}", file=sys.stderr)
        return EXIT_IO
    rows = json.loads(detailed_path.read_text(encoding="utf-8"))

    by_condition: dict[str, dict[str, dict]] = {}
    for row in rows:
        by_condition.setdefault(row["condition"], {})[row["scenario_id"]] = row["metrics"]

    target = "directed_idle"
    if target not in by_condition:
        print(f"no {target} rows in {detailed_path}", file=sys.stderr)
        return EXIT_FAIL

    cfg = BootstrapConfig(resamples=args.resamples, seed=args.seed, confidence=args.confidence)
    report: dict[str, dict] = {
        "config": {"resamples": cfg.resamples, "seed": cfg.seed, "confidence": cfg.confidence}
    }
    for baseline in ("reactive", "undirected_idle"):
        if baseline not in by_condition:
            continue
        ids = sorted(by_condition[target])
        if set(ids) != set(by_condition[baseline]):
            print(f"scenario sets differ between {target} and {baseline}", file=sys.stderr)
            return EXIT_FAIL
        entry = {}
        for name in METRIC_FIELDS:
            a = [float(by_condition[target][i][name]) for i in ids]
            b = [float(by_condition[baseline][i][name]) for i in ids]
            entry[name] = paired_bootstrap(a, b, cfg).to_dict()
        report[f"{target}_vs_{baseline}"] = entry

    out_path = Path(args.out) if args.out else results_dir / "ci.json"
    _write_json(out_path, report)
    print(f"wrote {out_path}")
    return EXIT_OK


def _fmt_mean(name: str, value: float) -> str:
    if name == "active_tokens":
        return f"{value:.0f}"
    return f"{value:.3f}"


def _fmt_delta(entry: Optional[dict]) -> str:
    if entry is None:
        return ""
    if entry["kind"] == "absolute":
        delta = entry["delta"]
        return f"{delta:+.0f}" if abs(delta) >= 10 else f"{delta:+.4f}"
    if entry["delta"] is None:
        return "n/a"
    return f"{entry['delta']:+.1f}%"


def _metric_table(summary: dict, names: Sequence[str], title: str) -> list[str]:
    conditions = sorted(summary["conditions"])
    deltas = summary.get("deltas", {})
    show_delta = len(conditions) > 1 and any(k.endswith("_vs_reactive") for k in deltas)
    lines = [f"## {title}", ""]
    header = ["metric"] + conditions
    if show_delta:
        header += [f"{c} Δ vs reactive" for c in conditions if c != "reactive"]
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|" + "|".join(["---"] * len(header)) + "|")
    for name in names:
        cells = [name]
        for condition in conditions:
            cells.append(_fmt_mean(name, summary["conditions"][condition]["means"][name]))
        if show_delta:
            for condition in conditions:
                if condition == "reactive":
                    continue
                entry = deltas.get(f"{condition}_vs_reactive", {}).get(name)
                cells.append(_fmt_delta(entry))
        lines.append("| " + " | ".join(cells) + " |")
    lines.append("")
    return lines


def _facet_table(summary: dict, facet_key: str, title: str) -> list[str]:
    facet = summary.get(facet_key, {})
    if not facet:
        return []
    lines = [f"### {title}", ""]
    lines.append("| " + " | ".join([title.lower(), "condition", "n", "t100", "user_effort", "anticipation_recall"]) + " |")
    lines.append("|" + "|".join(["---"] * 6) + "|")
    for key in sorted(facet):
        for condition in sorted(facet[key]):
            cell = facet[key][condition]
            lines.append(
                "| "
                + " | ".join(
                    [
                        key,
                        condition,
                        str(cell["n"]),
                        f"{cell['means']['t100']:.3f}",
                        f"{cell['means']['user_effort']:.3f}",
                        f"{cell['means']['anticipation_recall']:.4f}",
                    ]
                )
                + " |"
            )
    lines.append("")
    return lines


def cmd_report(args: argparse.Namespace) -> int:
    results_dir = Path(args.results)
    summary_path = results_dir / "summary.json"
    if not summary_path.exists():
        print(f"missing {summary_path}", file=sys.stderr)
        return EXIT_IO
    summary = json.loads(summary_path.read_text(encoding="utf-8"))

    lines = ["# Run Report", ""]
    run = summary.get("run", {})
    if run:
        lines.append(
            f"backend={run.get('backend')} seed={run.get('seed')} horizon={run.get('horizon')} "
            f"budget_k={run.get('budget_k')} scenarios={run.get('scenario_count')}"
        )
        lines.append("")

    lines += _metric_table(summary, ("t80", "t100", "user_effort"), "Efficiency")
    lines += _metric_table(
        summary,
        ("total_coverage", "must_have_coverage", "anticipation_recall", "judge_anticipation_recall"),
        "Coverage and Anticipation",
    )
    micro = summary.get("micro_anticipation", {})
    if micro:
        lines.append("Micro anticipation recall (pooled predictable needs):")
        for condition in sorted(micro):
            m = micro[condition]
            lines.append(
                f"- {condition}: {m['numerator']}/{m['denominator']} = {m['recall']:.4f}"
            )
        lines.append("")
    lines += _metric_table(
        summary, ("fact_accuracy", "hallucination_rate", "active_tokens"), "Integrity and Cost"
    )

    ci_path = results_dir / "ci.json"
    if ci_path.exists():
        ci = json.loads(ci_path.read_text(encoding="utf-8"))
        lines.append("## Confidence Intervals")
        lines.append("")
        lines.append("| comparison | metric | delta | 95% CI |")
        lines.append("|---|---|---|---|")
        for comparison in sorted(k for k in ci if k != "config"):
            for name in METRIC_FIELDS:
                entry = ci[comparison].get(name)
                if entry is None:
                    continue
                lines.append(
                    f"| {comparison} | {name} | {entry['point_delta']:+.4f} "
                    f"| [{entry['ci_low']:.4f}, {entry['ci_high']:.4f}] |"
                )
        lines.append("")

    appendix = _facet_table(summary, "by_domain", "Domain") + _facet_table(
        summary, "by_archetype", "Archetype"
    )
    if appendix:
        lines.append("## Appendix: Facet Breakdowns")
        lines.append("")
        lines += appendix

    text = "\n".join(lines).rstrip() + "\n"
    if args.out:
        out_path = Path(args.out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(text, encoding="utf-8")
        print(f"wrote {out_path}")
    else:
        print(text, end="")
    return EXIT_OK


def _add_run_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--scenarios", nargs="+", required=True, help="scenario files or directories")
    sub.add_argument("--seed", type=int, default=42)
    sub.add_argument("--horizon", type=int, default=12)
    sub.add_argument("--budget-k", type=int, default=3, dest="budget_k")
    sub.add_argument("--backend", choices=list(VALID_BACKENDS), default="oracle")
    sub.add_argument("--endpoint", default=None, help="chat-completions URL for the http backend")
    sub.add_argument("--parallel", type=int, default=1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="foresight")
    subparsers = parser.add_subparsers(dest="command", required=True)

    p_validate = subparsers.add_parser("validate", help="structural checks over scenario files")
    p_validate.add_argument("paths", nargs="+")
    p_validate.set_defaults(func=cmd_validate)

    p_stats = subparsers.add_parser("stats", help="composition statistics per scenario")
    p_stats.add_argument("paths", nargs="+")
    p_stats.add_argument("--json", action="store_true")
    p_stats.set_defaults(func=cmd_stats)

    p_run = subparsers.add_parser("run", help="execute scenarios under one or more conditions")
    _add_run_flags(p_run)
    p_run.add_argument(
        "--conditions", nargs="+", choices=list(VALID_CONDITIONS), default=list(VALID_CONDITIONS)
    )
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_sweep = subparsers.add_parser("sweep", help="budget sweep over k values")
    _add_run_flags(p_sweep)
    p_sweep.add_argument("--budgets", nargs="+", type=int, required=True)
    p_sweep.add_argument(
        "--conditions",
        nargs="+",
        choices=list(VALID_CONDITIONS),
        default=["undirected_idle", "directed_idle"],
    )
    p_sweep.add_argument("--out", default=None, help="optional output directory for sweep.json")
    p_sweep.set_defaults(func=cmd_sweep)

    p_ci = subparsers.add_parser("ci", help="paired bootstrap confidence intervals")
    p_ci.add_argument("results", help="directory containing detailed_results.json")
    p_ci.add_argument("--resamples", type=int, default=10000)
    p_ci.add_argument("--seed", type=int, default=2026)
    p_ci.add_argument("--confidence", type=float, default=0.95)
    p_ci.add_argument("--out", default=None)
    p_ci.set_defaults(func=cmd_ci)

    p_report = subparsers.add_parser("report", help="render markdown tables from a results directory")
    p_report.add_argument("results", help="directory containing summary.json")
    p_report.add_argument("--out", default=None, help="optional markdown output path")
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except backend_mod.ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_IO
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_IO
    except (ScenarioParseError, ScenarioSchemaError) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except json.JSONDecodeError as exc:
        print(f"malformed JSON input: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
