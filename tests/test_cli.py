"""End-to-end tests for the command-line entry points.

Every test drives ``main(argv)`` directly and asserts on the returned
exit code plus whatever the command printed or wrote to disk. Exit code
contract: 0 success, 1 validation or metric failure, 2 I/O or
configuration error.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foresight import cli, scenarios
from foresight.cli import EXIT_FAIL, EXIT_IO, EXIT_OK, main
from foresight.harness import Condition, run_scenario
from foresight.memory import MemoryState
from scripted_transport import scripted_backends

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
FINANCE = str(SCENARIO_DIR / "finance_basic_01.json")
SWEEP = str(SCENARIO_DIR / "budget_sweep_01.json")


@pytest.fixture(scope="module")
def results_dir(tmp_path_factory) -> Path:
    """One full oracle run over the finance scenario, shared read-only."""
    out = tmp_path_factory.mktemp("results") / "out"
    rc = main(["run", "--scenarios", FINANCE, "--out", str(out)])
    assert rc == EXIT_OK
    return out


@pytest.fixture
def validated(monkeypatch) -> list[str]:
    """The ids of the scenarios ``validate_scenario`` checks, in call order."""
    validate = scenarios.validate_scenario
    calls: list[str] = []

    def counting(scenario):
        calls.append(scenario.scenario_id)
        return validate(scenario)

    monkeypatch.setattr(scenarios, "validate_scenario", counting)
    monkeypatch.setattr(cli, "validate_scenario", counting)
    return calls


def _broken_scenario(tmp_path: Path) -> Path:
    # key_fact_ids pointing at a fact that does not exist -> FACT_REF
    doc = json.loads(Path(FINANCE).read_text(encoding="utf-8"))
    doc["user_needs"][0]["key_fact_ids"] = ["F99"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


# ---------------------------------------------------------------- validate


def test_validate_all_valid_exits_zero(capsys):
    rc = main(["validate", str(SCENARIO_DIR)])
    assert rc == EXIT_OK
    assert capsys.readouterr().out.strip() == "2/2 valid"


def test_validate_reports_violations_as_json_lines(tmp_path, capsys):
    _broken_scenario(tmp_path)
    (tmp_path / "good.json").write_text(Path(SWEEP).read_text(encoding="utf-8"), encoding="utf-8")

    rc = main(["validate", str(tmp_path)])
    assert rc == EXIT_FAIL
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1] == "1/2 valid"
    record = json.loads(lines[0])
    assert record["file"].endswith("bad.json")
    assert record["code"] == "FACT_REF"
    assert "F99" in record["offending_ids"]


def test_validate_unparseable_file(tmp_path, capsys):
    junk = tmp_path / "junk.json"
    junk.write_text("{not json", encoding="utf-8")
    rc = main(["validate", str(junk)])
    assert rc == EXIT_FAIL
    lines = capsys.readouterr().out.strip().splitlines()
    assert json.loads(lines[0])["code"] == "parse_error"
    assert lines[-1] == "0/1 valid"


def _not_utf8(tmp_path: Path) -> Path:
    path = tmp_path / "bad" / "x.json"
    path.parent.mkdir()
    path.write_bytes(b"\xff\xfe{}")
    return path


def test_validate_reports_a_file_that_is_not_utf8(tmp_path, capsys):
    path = _not_utf8(tmp_path)
    assert main(["validate", str(path.parent)]) == EXIT_FAIL
    captured = capsys.readouterr()
    assert captured.err == ""
    assert [json.loads(line) for line in captured.out.splitlines()[:-1]] == [
        {"file": str(path), "code": "parse_error", "message": "not UTF-8: byte 0: invalid start byte"}
    ]
    assert captured.out.splitlines()[-1] == "0/1 valid"


@pytest.mark.parametrize(
    "command",
    [["stats"], ["run", "--scenarios"], ["sweep", "--budgets", "1", "--scenarios"]],
    ids=["stats", "run", "sweep"],
)
def test_a_file_that_is_not_utf8_is_a_scenario_error_in_one_line(tmp_path, capsys, command):
    path = _not_utf8(tmp_path)
    out = tmp_path / "out"
    flags = ["--out", str(out)] if command[0] != "stats" else []
    assert main([*command, str(path.parent), *flags]) == EXIT_FAIL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"scenario error: {path}: not UTF-8: byte 0: invalid start byte"]
    assert not out.exists()


def test_validate_missing_path_is_io_error(tmp_path, capsys):
    rc = main(["validate", str(tmp_path / "nope.json")])
    assert rc == EXIT_IO
    assert "nope.json" in capsys.readouterr().err


# ---------------------------------------------------------------- stats


def test_stats_text_output(capsys):
    rc = main(["stats", str(SCENARIO_DIR)])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "finance_basic_01: domain=financial_planning" in out
    assert out.strip().splitlines()[-1] == (
        "total: 2 scenarios, 17 needs, 34 facts, 8 predictable"
    )


def test_stats_json_payload(capsys):
    rc = main(["stats", FINANCE, "--json"])
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["totals"] == {"scenarios": 1, "needs": 12, "facts": 28, "predictable": 4}
    row = payload["scenarios"][0]
    assert row["scenario_id"] == "finance_basic_01"
    assert row["opportunity"] == "low"
    assert row["fragmentation"] == "medium"
    assert row["cross_group_links"] == 3
    assert row["intra_group_links"] == 1


def test_stats_rejects_an_invalid_scenario_in_one_line(tmp_path, capsys):
    bad = _broken_scenario(tmp_path)
    rc = main(["stats", FINANCE, str(bad)])
    assert rc == EXIT_FAIL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"invalid scenario: {bad}: FACT_REF: need N1 references unknown fact F99"
    ]


def test_stats_validates_each_scenario_once_and_allows_stratification_violations(tmp_path, capsys, validated):
    # No cross-group link: only CROSS_GROUP or AUDITABLE fail, which stats allow.
    doc = json.loads(Path(FINANCE).read_text(encoding="utf-8"))
    for need in doc["user_needs"]:
        need["predictable_after"] = None
    loose = tmp_path / "loose.json"
    loose.write_text(json.dumps(doc), encoding="utf-8")
    report = scenarios.validate_scenario(scenarios.parse_scenario(loose.read_bytes()))
    codes = {v.code for v in report.violations}
    assert codes and codes <= {"CROSS_GROUP", "AUDITABLE"}

    validated.clear()
    assert main(["stats", str(loose), SWEEP]) == EXIT_OK
    assert validated == ["finance_basic_01", "budget_sweep_01"]
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("finance_basic_01: domain=financial_planning ")
    assert "predictable=0 " in lines[0]
    assert len(lines) == 3


def _two_copies_of_finance(tmp_path: Path) -> tuple[Path, Path]:
    copies = tmp_path / "copies"
    copies.mkdir()
    first, second = copies / "a.json", copies / "b.json"
    for path in (first, second):
        path.write_text(Path(FINANCE).read_text(encoding="utf-8"), encoding="utf-8")
    return first, second


@pytest.mark.parametrize("command", [["run"], ["sweep", "--budgets", "1"]])
def test_run_and_sweep_reject_a_repeated_scenario_id(tmp_path, capsys, command):
    first, second = _two_copies_of_finance(tmp_path)
    out = tmp_path / "out"
    rc = main([*command, "--scenarios", str(first.parent), "--out", str(out)])
    assert rc == EXIT_FAIL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"invalid scenario: {second}: DUPLICATE_SCENARIO_ID: scenario_id 'finance_basic_01' is also in {first}"
    ]
    assert not out.exists()


def test_validate_flags_a_repeated_scenario_id(tmp_path, capsys):
    first, second = _two_copies_of_finance(tmp_path)
    assert main(["validate", str(first.parent)]) == EXIT_FAIL
    lines = capsys.readouterr().out.splitlines()
    assert [json.loads(line) for line in lines[:-1]] == [
        {
            "file": str(second),
            "code": "DUPLICATE_SCENARIO_ID",
            "message": f"scenario_id 'finance_basic_01' is also in {first}",
            "offending_ids": ["finance_basic_01"],
        }
    ]
    assert lines[-1] == "1/2 valid"


def test_stats_rejects_a_repeated_scenario_id_in_one_line(tmp_path, capsys):
    first, second = _two_copies_of_finance(tmp_path)
    assert main(["stats", str(first.parent)]) == EXIT_FAIL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"invalid scenario: {second}: DUPLICATE_SCENARIO_ID: scenario_id 'finance_basic_01' is also in {first}"
    ]


# ---------------------------------------------------------------- run


def test_run_writes_results_and_summary(results_dir):
    rows = json.loads((results_dir / "detailed_results.json").read_text(encoding="utf-8"))
    assert [(r["scenario_id"], r["condition"]) for r in rows] == [
        ("finance_basic_01", "directed_idle"),
        ("finance_basic_01", "reactive"),
        ("finance_basic_01", "undirected_idle"),
    ]
    assert all(r["status"] == "completed" for r in rows)

    summary = json.loads((results_dir / "summary.json").read_text(encoding="utf-8"))
    directed = summary["conditions"]["directed_idle"]["means"]
    reactive = summary["conditions"]["reactive"]["means"]
    assert directed["t100"] == 6.0
    assert directed["user_effort"] == 6.0
    assert directed["anticipation_recall"] == 0.75
    assert directed["active_tokens"] == 647.0
    assert reactive["t100"] == 9.0
    assert reactive["active_tokens"] == 0.0
    assert summary["micro_anticipation"]["directed_idle"] == {
        "numerator": 3,
        "denominator": 4,
        "recall": 0.75,
    }
    assert summary["run"]["backend"] == "oracle"
    assert summary["run"]["seed"] == 42
    assert summary["run"]["budget_k"] == 3
    assert summary["run"]["scenario_count"] == 1

    memories = [json.loads(line) for line in (results_dir / "memory.jsonl").read_text().splitlines()]
    assert [(m["scenario_id"], m["condition"]) for m in memories] == [
        ("finance_basic_01", "directed_idle"),
        ("finance_basic_01", "reactive"),
        ("finance_basic_01", "undirected_idle"),
    ]


# The fields of a stored memory record: its content and what surrounds it,
# and no vector, since a restore embeds the content.
RECORD_KEYS = {
    "id", "kind", "content", "content_hash", "created_at", "updated_at", "status", "merged_into", "merged_from",
}


def test_memory_lines_store_records_without_vectors(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--scenarios", str(SCENARIO_DIR), "--out", str(out)]) == EXIT_OK
    lines = [json.loads(line) for line in (out / "memory.jsonl").read_text(encoding="utf-8").splitlines()]
    assert len(lines) == 6
    kinds = set()
    for line in lines:
        memory = line["memory"]
        for record in memory["records"]:
            assert record.keys() == RECORD_KEYS
            kinds.add(record["kind"])
        assert MemoryState.from_snapshot(memory).to_snapshot() == memory
    assert "artifact" in kinds


def test_run_is_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["run", "--scenarios", FINANCE, "--out", str(out)]) == EXIT_OK
    for name in ("detailed_results.json", "summary.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_run_resume_reruns_only_failed_rows(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--scenarios", FINANCE, "--out", str(out)]) == EXIT_OK
    detailed = out / "detailed_results.json"
    pristine = detailed.read_bytes()
    capsys.readouterr()

    # one failure to rerun plus one stale row that is no longer wanted
    rows = json.loads(pristine)
    rows[0]["status"] = "failed"
    rows[0]["error"] = "RuntimeError: injected"
    rows.append(dict(rows[1], scenario_id="ghost"))
    detailed.write_text(json.dumps(rows), encoding="utf-8")

    assert main(["run", "--scenarios", FINANCE, "--out", str(out)]) == EXIT_OK
    assert "2 resumed" in capsys.readouterr().out
    assert detailed.read_bytes() == pristine


RUN_OUTPUTS = ("detailed_results.json", "summary.json", "memory.jsonl")
BATCH = ["run", "--scenarios", FINANCE, SWEEP]  # 6 units

# Runs a batch in a child process whose backends factory exits the process
# without any clean-up when unit N + 1 starts, as a kill would.
KILLER = """
import os, sys
from foresight import cli

N = int(sys.argv[1])
real = cli._backends_factory
started = 0

def dying(cfg):
    make = real(cfg)
    def factory(scenario):
        global started
        started += 1
        if started > N:
            os._exit(9)
        return make(scenario)
    return factory

cli._backends_factory = dying
sys.exit(cli.main(sys.argv[2:]))
"""


def _killed_run(out: Path, units_done: int) -> None:
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    argv = [sys.executable, "-c", KILLER, str(units_done), *BATCH, "--out", str(out)]
    assert subprocess.run(argv, env=env, capture_output=True, timeout=120).returncode == 9


@pytest.fixture(scope="module")
def batch_dir(tmp_path_factory) -> Path:
    """The six-unit batch run without interruption."""
    out = tmp_path_factory.mktemp("batch") / "out"
    assert main([*BATCH, "--out", str(out)]) == EXIT_OK
    return out


def _assert_same_outputs(out: Path, reference: Path) -> None:
    for name in RUN_OUTPUTS:
        assert (out / name).read_bytes() == (reference / name).read_bytes(), name
    assert not (out / "detailed_results.jsonl").exists()


def test_run_streams_lines_and_removes_journal(batch_dir):
    rows = json.loads((batch_dir / "detailed_results.json").read_text(encoding="utf-8"))
    lines = (batch_dir / "detailed_results.json").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "[" and lines[-1] == "]" and len(lines) == len(rows) + 2
    for line, row in zip(lines[1:-1], rows):
        assert line.rstrip(",") == _stdlib_line(row)
    assert not (batch_dir / "detailed_results.jsonl").exists()
    assert not list(batch_dir.glob("*.tmp"))

    # each memory value is exactly the text MemoryState.save writes
    memory_lines = (batch_dir / "memory.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(memory_lines) == len(rows)
    for line, row in zip(memory_lines, rows):
        doc = json.loads(line)
        assert (doc["scenario_id"], doc["condition"]) == (row["scenario_id"], row["condition"])
        path = batch_dir.parent / "one_memory.json"
        MemoryState.from_snapshot(doc["memory"]).save(str(path))
        saved = path.read_text(encoding="utf-8")
        assert line == f'{{"condition":"{doc["condition"]}","memory":{saved},"scenario_id":"{doc["scenario_id"]}"}}'


def _stdlib_line(value: object) -> str:
    """The canonical line in stdlib ``json``: compact, keys sorted, non-ASCII kept."""
    return json.dumps(value, ensure_ascii=False, sort_keys=True, separators=(",", ":"))


# Text that JSON must escape or that is easy to mangle: quotes, backslashes,
# control characters, U+2028 and an astral character, mixed with any other
# code point a str can encode to UTF-8.
_TEXT = st.text(
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\u2028", "\U0001f600"])
    | st.characters(blacklist_categories=("Cs",))
)


def _signed(magnitudes):
    return magnitudes.flatmap(lambda x: st.sampled_from([x, -x]))


# Floats that both encoders write in positional form; outside this range
# orjson writes e.g. 1e-05 as 0.00001 where stdlib json writes 1e-05.
_PLAIN_FLOATS = _signed(st.just(0.0) | st.floats(min_value=1e-4, max_value=1e16, exclude_max=True))
_OTHER_FLOATS = _signed(
    st.floats(min_value=0.0, max_value=1e-4, exclude_min=True, exclude_max=True)
    | st.floats(min_value=1e16, allow_infinity=False)
)
_SCALARS = st.none() | st.booleans() | st.integers(-(2**63), 2**63) | _PLAIN_FLOATS | _TEXT
_VALUES = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4))


@settings(max_examples=300, deadline=None)
@given(_VALUES)
def test_encode_line_matches_stdlib_json(value):
    assert cli._encode_line(value) == _stdlib_line(value)


@settings(max_examples=300, deadline=None)
@given(_OTHER_FLOATS)
def test_encode_line_writes_other_floats_to_the_same_value(value):
    assert json.loads(cli._encode_line([value])) == json.loads(_stdlib_line([value])) == [value]


@pytest.mark.parametrize("condition", [c.value for c in Condition])
def test_http_rows_encode_as_stdlib_json(finance_scenario, condition):
    backends, _ = scripted_backends(finance_scenario)
    outcome = run_scenario(finance_scenario, condition, backends=backends)
    assert outcome.result.status == "completed"
    row = outcome.to_dict()
    assert cli._encode_line(row) == _stdlib_line(row)


def test_run_killed_batch_resumes_to_same_outputs(batch_dir, tmp_path, capsys):
    out = tmp_path / "out"
    _killed_run(out, units_done=4)
    assert not (out / "detailed_results.json").exists()
    assert len((out / "detailed_results.jsonl").read_text(encoding="utf-8").splitlines()) == 4
    assert len((out / "memory.jsonl").read_text(encoding="utf-8").splitlines()) == 4

    assert main([*BATCH, "--out", str(out)]) == EXIT_OK
    assert "4 resumed" in capsys.readouterr().out
    _assert_same_outputs(out, batch_dir)


def test_run_resume_skips_torn_lines(batch_dir, tmp_path, capsys):
    out = tmp_path / "out"
    _killed_run(out, units_done=3)
    journal = out / "detailed_results.jsonl"
    first, second, third = journal.read_text(encoding="utf-8").splitlines()
    # The first unit failed, so it reruns among the later units; the third
    # row and a memory line after it were cut short by the kill.
    first = json.dumps(dict(json.loads(first), status="failed", error="RuntimeError: injected"))
    journal.write_text(f"{first}\n{second}\n{third[:-40]}", encoding="utf-8")
    with open(out / "memory.jsonl", "a", encoding="utf-8") as fh:
        fh.write('{"condition":"reactive","memory":{"pro')

    assert main([*BATCH, "--out", str(out)]) == EXIT_OK
    assert "1 resumed" in capsys.readouterr().out
    _assert_same_outputs(out, batch_dir)


def _assert_results_file_error(err: str, path: Path) -> None:
    assert err.startswith(f"malformed results file {path}: ")
    assert err.count("\n") == 1


def test_run_resume_from_rows_without_keys_exits_2_in_one_line(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    detailed = out / "detailed_results.json"
    detailed.write_text('[{"x": 1}]', encoding="utf-8")
    assert main(["run", "--scenarios", FINANCE, "--out", str(out)]) == EXIT_IO
    _assert_results_file_error(capsys.readouterr().err, detailed)
    assert list(out.iterdir()) == [detailed]
    assert detailed.read_text(encoding="utf-8") == '[{"x": 1}]'


def test_run_resume_keeps_lines_with_unicode_line_separators(tmp_path):
    # Compact lines keep U+2028 and U+0085 unescaped; they must not split a line.
    doc = json.loads(Path(FINANCE).read_text(encoding="utf-8"))
    for fact in doc["facts"]:
        fact["content"] += " \u2028\x85"
    scenario = tmp_path / "finance.json"
    scenario.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    out = tmp_path / "out"
    argv = ["run", "--scenarios", str(scenario), "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert "\u2028" in (out / "memory.jsonl").read_text(encoding="utf-8")
    pristine = {name: (out / name).read_bytes() for name in RUN_OUTPUTS}

    detailed = out / "detailed_results.json"
    rows = json.loads(detailed.read_text(encoding="utf-8"))
    rows[0]["status"] = "failed"
    detailed.write_text(json.dumps(rows), encoding="utf-8")
    assert main(argv) == EXIT_OK
    assert {name: (out / name).read_bytes() for name in RUN_OUTPUTS} == pristine


@pytest.mark.parametrize("torn", [cli.JOURNAL_NAME, cli.MEMORY_NAME])
def test_run_resume_skips_a_line_torn_inside_a_character(tmp_path, torn):
    # A kill can cut a line between the two bytes of "é"; only that line is lost.
    doc = json.loads(Path(FINANCE).read_text(encoding="utf-8"))
    doc["user_profile"]["persona"] += " at the café"
    for fact in doc["facts"]:
        fact["content"] += " (café)"
    scenario = tmp_path / "finance.json"
    scenario.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    out = tmp_path / "out"
    argv = ["run", "--scenarios", str(scenario), "--out", str(out)]
    assert main(argv) == EXIT_OK
    pristine = {name: (out / name).read_bytes() for name in RUN_OUTPUTS}

    # What a kill leaves while it writes the last unit's memory line (the
    # row is not written yet) or its row line (the memory line is whole).
    rows = pristine["detailed_results.json"].split(b"\n")[1:-2]
    lines = {
        cli.JOURNAL_NAME: [row.rstrip(b",") for row in rows],
        cli.MEMORY_NAME: pristine[cli.MEMORY_NAME].split(b"\n")[:-1],
    }
    if torn == cli.MEMORY_NAME:
        del lines[cli.JOURNAL_NAME][-1]
    last = lines[torn][-1]
    lines[torn][-1] = last[: last.index("é".encode()) + 1]
    for name, kept in lines.items():
        (out / name).write_bytes(b"\n".join(kept) + (b"" if name == torn else b"\n"))
    (out / "detailed_results.json").unlink()
    (out / "summary.json").unlink()

    assert main(argv) == EXIT_OK
    assert {name: (out / name).read_bytes() for name in RUN_OUTPUTS} == pristine


def test_run_parallel_writes_same_bytes(batch_dir, tmp_path):
    out = tmp_path / "out"
    assert main([*BATCH, "--out", str(out), "--parallel", "2"]) == EXIT_OK
    _assert_same_outputs(out, batch_dir)


def test_run_outputs_get_default_file_mode(batch_dir):
    plain = batch_dir.parent / "plain.txt"
    with open(plain, "w", encoding="utf-8") as fh:
        fh.write("x")
    for name in RUN_OUTPUTS:
        assert (batch_dir / name).stat().st_mode == plain.stat().st_mode, name


def test_run_reactive_only(tmp_path):
    out = tmp_path / "out"
    rc = main(["run", "--scenarios", FINANCE, "--out", str(out), "--conditions", "reactive"])
    assert rc == EXIT_OK
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert list(summary["conditions"]) == ["reactive"]
    assert summary["conditions"]["reactive"]["means"]["active_tokens"] == 0.0
    assert summary["micro_anticipation"]["reactive"]["numerator"] == 0


def test_run_validates_each_scenario_once(tmp_path, validated):
    # Each row's facets come from the report of the check before the run,
    # not from validating the scenario again.
    out = tmp_path / "out"
    assert main(["run", "--scenarios", FINANCE, SWEEP, "--out", str(out), "--conditions", "reactive"]) == EXIT_OK
    assert validated == ["finance_basic_01", "budget_sweep_01"]
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert sorted(summary["by_opportunity"]) == ["high", "low"]


def test_run_http_requires_endpoint(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["run", "--scenarios", FINANCE, "--out", str(out), "--backend", "http"])
    assert rc == EXIT_IO
    assert "requires --endpoint" in capsys.readouterr().err
    assert not out.exists()


def test_run_http_requires_credential(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("FORESIGHT_API_KEY", raising=False)
    out = tmp_path / "out"
    rc = main(
        [
            "run",
            "--scenarios",
            FINANCE,
            "--out",
            str(out),
            "--backend",
            "http",
            "--endpoint",
            "https://api.example.test/v1/chat/completions",
        ]
    )
    assert rc == EXIT_IO
    assert "FORESIGHT_API_KEY" in capsys.readouterr().err
    assert not out.exists()


def _cli(*argv: str) -> subprocess.CompletedProcess:
    """``foresight`` in a child process, so an uncaught error would print its traceback."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    argv = [sys.executable, "-m", "foresight.cli", *argv]
    return subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)


def _assert_configuration_error(proc: subprocess.CompletedProcess) -> None:
    assert proc.returncode == EXIT_IO
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("configuration error: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "flags",
    [["--parallel", "0"], ["--horizon", "0"], ["--budget-k", "-1"], ["--conditions", "reactive", "reactive"]],
)
def test_run_configuration_error_exits_2_in_one_line(tmp_path, flags):
    out = tmp_path / "out"
    _assert_configuration_error(_cli("run", "--scenarios", FINANCE, "--out", str(out), *flags))
    assert not out.exists()


def test_run_rejects_invalid_scenario(tmp_path, capsys):
    bad = _broken_scenario(tmp_path)
    rc = main(["run", "--scenarios", str(bad), "--out", str(tmp_path / "out")])
    assert rc == EXIT_FAIL
    err = capsys.readouterr().err
    assert "invalid scenario" in err
    assert "FACT_REF" in err


# ---------------------------------------------------------------- sweep


def test_sweep_table_and_json(tmp_path, capsys):
    rc = main(
        ["sweep", "--scenarios", SWEEP, "--budgets", "1", "2", "3", "4", "--out", str(tmp_path)]
    )
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines()[0].split() == [
        "k", "condition", "t100", "user_effort", "anticipation_recall", "active_tokens",
    ]

    payload = json.loads((tmp_path / "sweep.json").read_text(encoding="utf-8"))
    assert payload["budgets"] == [1, 2, 3, 4]
    assert payload["conditions"] == ["undirected_idle", "directed_idle"]
    assert payload["seed"] == 42

    directed = {
        row["budget_k"]: (row["t100"], row["user_effort"], row["anticipation_recall"], row["active_tokens"])
        for row in payload["rows"]
        if row["condition"] == "directed_idle"
    }
    # budget 3 saturates this scenario: 4 adds the same trace
    assert directed == {
        1: (3.0, 3.0, 0.5, 184.0),
        2: (3.0, 3.0, 0.5, 292.0),
        3: (2.0, 2.0, 0.75, 274.0),
        4: (2.0, 2.0, 0.75, 274.0),
    }
    undirected = {
        row["budget_k"]: (row["t100"], row["anticipation_recall"], row["active_tokens"])
        for row in payload["rows"]
        if row["condition"] == "undirected_idle"
    }
    assert undirected == {
        1: (5.0, 0.0, 514.0),
        2: (5.0, 0.0, 835.0),
        3: (5.0, 0.0, 1168.0),
        4: (5.0, 0.0, 1168.0),
    }


def test_sweep_requires_budgets():
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "--scenarios", SWEEP])
    assert excinfo.value.code == 2


# ---------------------------------------------------------------- ci


def test_ci_writes_paired_bootstrap_report(results_dir, tmp_path, capsys):
    rc = main(["ci", str(results_dir), "--resamples", "200", "--seed", "7",
               "--out", str(tmp_path / "ci.json")])
    assert rc == EXIT_OK
    report = json.loads((tmp_path / "ci.json").read_text(encoding="utf-8"))
    assert sorted(report) == [
        "config",
        "directed_idle_vs_reactive",
        "directed_idle_vs_undirected_idle",
    ]
    assert report["config"] == {"resamples": 200, "seed": 7, "confidence": 0.95}
    # single scenario -> every resample is the same pair, zero-width interval
    entry = report["directed_idle_vs_reactive"]["user_effort"]
    assert entry == {"point_delta": -3.0, "ci_low": -3.0, "ci_high": -3.0}

    capsys.readouterr()
    rc = main(["ci", str(results_dir), "--resamples", "200", "--seed", "7",
               "--out", str(tmp_path / "ci2.json")])
    assert rc == EXIT_OK
    assert (tmp_path / "ci.json").read_bytes() == (tmp_path / "ci2.json").read_bytes()


def test_ci_missing_results_is_io_error(tmp_path, capsys):
    rc = main(["ci", str(tmp_path / "empty")])
    assert rc == EXIT_IO
    assert "detailed_results.json" in capsys.readouterr().err


@pytest.mark.parametrize("content", [b"\xff\xfe[]", b'[{"x": 1}]'], ids=["not-utf-8", "no-metrics"])
def test_ci_malformed_results_exit_2_in_one_line(tmp_path, capsys, content):
    results = tmp_path / "results"
    results.mkdir()
    detailed = results / "detailed_results.json"
    detailed.write_bytes(content)
    assert main(["ci", str(results)]) == EXIT_IO
    _assert_results_file_error(capsys.readouterr().err, detailed)
    assert list(results.iterdir()) == [detailed]


@pytest.mark.parametrize("flags", [["--confidence", "1.5"], ["--resamples", "0"]])
def test_ci_configuration_error_exits_2_in_one_line(results_dir, tmp_path, flags):
    out = tmp_path / "ci.json"
    _assert_configuration_error(_cli("ci", str(results_dir), "--out", str(out), *flags))
    assert not out.exists()


def test_ci_requires_directed_rows(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--scenarios", FINANCE, "--out", str(out),
                 "--conditions", "reactive"]) == EXIT_OK
    capsys.readouterr()
    rc = main(["ci", str(out)])
    assert rc == EXIT_FAIL
    assert "no directed_idle rows" in capsys.readouterr().err


# ---------------------------------------------------------------- report


def test_report_renders_metric_sections(results_dir, tmp_path, capsys):
    # ci.json inside the results dir feeds the interval table
    assert main(["ci", str(results_dir), "--resamples", "100"]) == EXIT_OK
    capsys.readouterr()

    out_md = tmp_path / "report.md"
    rc = main(["report", str(results_dir), "--out", str(out_md)])
    assert rc == EXIT_OK
    text = out_md.read_text(encoding="utf-8")

    assert "## Efficiency" in text
    assert "## Coverage and Anticipation" in text
    assert "## Integrity and Cost" in text
    assert "## Confidence Intervals" in text
    assert "## Appendix: Facet Breakdowns" in text
    assert "- directed_idle: 3/4 = 0.7500" in text
    assert "- reactive: 0/4 = 0.0000" in text
    # conditions are sorted columns; active_tokens renders as integers
    assert "| active_tokens | 647 | 0 | 2944 |" in text
    assert "directed_idle Δ vs reactive" in text
    # percent delta for t100, absolute for anticipation_recall
    assert "| t100 | 6.000 | 9.000 | 9.000 | -33.3% |" in text
    assert "| anticipation_recall | 0.750 | 0.000 | 0.000 | +0.7500 |" in text


def test_report_single_condition_has_no_delta_columns(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--scenarios", FINANCE, "--out", str(out),
                 "--conditions", "reactive"]) == EXIT_OK
    capsys.readouterr()
    rc = main(["report", str(out)])
    assert rc == EXIT_OK
    text = capsys.readouterr().out
    assert "## Efficiency" in text
    assert "Δ vs reactive" not in text
    assert "| active_tokens | 0 |" in text


def test_report_missing_summary_is_io_error(tmp_path, capsys):
    rc = main(["report", str(tmp_path / "empty")])
    assert rc == EXIT_IO
    assert "summary.json" in capsys.readouterr().err


def test_report_malformed_summary_exits_2_in_one_line(tmp_path, capsys):
    results = tmp_path / "results"
    results.mkdir()
    summary = results / "summary.json"
    summary.write_text('{"x": 1}', encoding="utf-8")
    out = tmp_path / "report.md"
    assert main(["report", str(results), "--out", str(out)]) == EXIT_IO
    captured = capsys.readouterr()
    _assert_results_file_error(captured.err, summary)
    assert captured.out == ""
    assert not out.exists()
