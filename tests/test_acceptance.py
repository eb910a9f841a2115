"""Acceptance gate: nine numbered criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they print. Each criterion re-derives its expected values independently
(brute force or hand computation) rather than trusting library output,
and asserts a wall-clock budget so regressions in speed also fail loudly.
"""

from __future__ import annotations

import contextlib
import json
import random
import re
import time
from datetime import datetime, timedelta, timezone
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import make_scenario
from foresight.acquisition import AcquisitionDecision, ValueScores, gate, value_score
from foresight.delivery import DeliveryAction, PushAssessment, decide_delivery, push_score
from foresight.embedding import cosine, embed
from foresight.harness import Condition, run_scenario
from foresight.memory import AddOutcome, MemoryState, content_hash
from foresight.metrics import (
    AssistantReply,
    BootstrapConfig,
    JudgeVerdict,
    NeedMark,
    ScenarioResult,
    TurnRecord,
    compute_metrics,
    paired_bootstrap,
    t_alpha,
)
from foresight.scenarios import composition_stats, parse_scenario, validate_scenario
from scripted_transport import RUNTIME_ROLES, scripted_backends

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def _load(name: str):
    return parse_scenario((SCENARIO_DIR / name).read_text(encoding="utf-8"))


@contextlib.contextmanager
def _gate(number: int, label: str, limit: float):
    """Prints exactly one criterion line whether the body passes or fails."""
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL - {label}")
        raise
    elapsed = time.perf_counter() - start
    verdict = "PASS" if elapsed < limit else "FAIL"
    print(f"criterion {number}: {verdict} - {label} ({elapsed:.2f}s < {limit:.0f}s)")
    assert elapsed < limit, f"criterion {number} runtime {elapsed:.2f}s exceeds {limit}s"


# ---------------------------------------------------------------------------


def test_criterion_1_worked_example_exactness():
    with _gate(1, "value gate and push policy worked examples", limit=1.0):
        composite = value_score(ValueScores(95, 80, 90, 95))
        assert composite == 90.0

        rows = [
            ((95, 80, 90, 95), AcquisitionDecision.SEARCH_NOW),
            ((90, 75, 80, 85), AcquisitionDecision.SEARCH_NOW),
            ((70, 35, 40, 70), AcquisitionDecision.QUEUE),
            ((55, 70, 45, 50), AcquisitionDecision.STORE_ONLY),
        ]
        for raw, expected in rows:
            scores = ValueScores(*raw)
            assert gate(scores, value_score(scores)) == expected

        assert push_score(88, 22) == 100.0
        assert push_score(76, 50) == 76.0
        assert push_score(45, 60) == 35.0

        t0 = datetime(2026, 1, 1, tzinfo=timezone.utc)
        assessments = [
            PushAssessment("a1", 88, 22, t0),
            PushAssessment("a2", 76, 50, t0 + timedelta(seconds=1)),
            PushAssessment("a3", 45, 60, t0 + timedelta(seconds=2)),
        ]
        actions = decide_delivery(assessments)
        assert actions == {
            "a1": DeliveryAction.PUSH,
            "a2": DeliveryAction.QUEUE,
            "a3": DeliveryAction.STORE,
        }


def test_criterion_2_pipeline_trace_reproduction():
    with _gate(2, "oracle pipeline trace on the finance scenario", limit=5.0):
        scenario = _load("finance_basic_01.json")

        directed = run_scenario(scenario, Condition.DIRECTED_IDLE)
        assert directed.result.status == "completed"
        assert directed.metrics.t100 == 6.0
        cumulative = [len(s) for s in directed.result.covered_by_turn()]
        assert cumulative == [3, 5, 7, 9, 10, 12]
        assert cumulative[-1] == len(scenario.needs)

        reactive = run_scenario(scenario, Condition.REACTIVE)
        assert reactive.result.status == "completed"
        assert len(reactive.result.turns) == 9
        assert reactive.metrics.t100 == 9.0
        assert len(reactive.result.covered_by_turn()[-1]) == 12


def _turn(index, target=None, marks=(), conveyed=(), distorted=(), hallucinated=(), spend=0):
    explicit = target is not None
    return TurnRecord(
        index=index,
        user_message=f"turn {index}" if explicit else None,
        explicit_ask=explicit,
        target_need_id=target,
        assistant_reply=AssistantReply(text=f"r{index}", delivered_fact_ids=tuple(conveyed)),
        verdict=JudgeVerdict(
            facts_conveyed=tuple(conveyed),
            facts_distorted=tuple(distorted),
            hallucinated_claims=tuple(hallucinated),
            needs_addressed=tuple(NeedMark(n, m) for n, m in marks),
        ),
        idle_token_spend=spend,
    )


def test_criterion_3_metric_formula_oracle_equivalence():
    with _gate(3, "metric formulas vs brute force on 100 random timelines", limit=10.0):
        rng = random.Random(311)
        frac80, frac100 = Fraction(4, 5), Fraction(1, 1)
        for case in range(100):
            n_needs = rng.randint(1, 8)
            needs = [
                SimpleNamespace(
                    id=f"N{i + 1}",
                    importance=rng.choice(["must_have", "nice_to_have"]),
                    predictable_after="N1" if i > 0 and rng.random() < 0.4 else None,
                )
                for i in range(n_needs)
            ]
            scenario = SimpleNamespace(needs=needs)
            horizon = rng.randint(2, 10)
            turns = []
            for t in range(1, rng.randint(1, horizon) + 1):
                marked = rng.sample(needs, k=rng.randint(0, min(2, n_needs)))
                marks = [(n.id, rng.choice(["reactive", "proactive"])) for n in marked]
                target = marked[0].id if marked and rng.random() < 0.7 else None
                turns.append(
                    _turn(
                        t,
                        target=target,
                        marks=marks,
                        conveyed=tuple(f"F{t}{j}" for j in range(rng.randint(0, 3))),
                        distorted=tuple(f"D{t}{j}" for j in range(rng.randint(0, 2))),
                        hallucinated=tuple(f"H{t}{j}" for j in range(rng.randint(0, 2))),
                        spend=rng.randint(0, 50),
                    )
                )
            result = ScenarioResult("s", "reactive", tuple(turns), "completed")
            got = compute_metrics(result, scenario, horizon)

            # brute force, recomputed from the raw marks
            must = {n.id for n in needs if n.importance == "must_have"}
            predictable = {n.id for n in needs if n.predictable_after is not None}
            covered, timeline = set(), []
            first_turn, first_mode = {}, {}
            conv = dist = hall = 0
            for turn in turns:
                for mark in turn.verdict.needs_addressed:
                    if mark.need_id not in first_turn:
                        first_turn[mark.need_id] = turn.target_need_id
                        first_mode[mark.need_id] = mark.mode
                    covered.add(mark.need_id)
                timeline.append(len(covered & must))
                conv += len(turn.verdict.facts_conveyed)
                dist += len(turn.verdict.facts_distorted)
                hall += len(turn.verdict.hallucinated_claims)

            def first_reach(frac):
                if not must:
                    return 1
                threshold = -((-frac.numerator * len(must)) // frac.denominator)
                for i, c in enumerate(timeline, start=1):
                    if c >= threshold:
                        return i
                return horizon + 1

            assert got.t80 == float(first_reach(frac80)), f"case {case}"
            assert got.t100 == float(first_reach(frac100)), f"case {case}"
            assert got.t80 <= got.t100
            assert got.fact_accuracy == (conv / (conv + dist) if conv + dist else 1.0)
            assert got.hallucination_rate == (
                hall / (conv + dist + hall) if conv + dist + hall else 0.0
            )
            assert got.total_coverage == len(covered) / n_needs
            assert got.must_have_coverage == (
                len(covered & must) / len(must) if must else 1.0
            )
            anticipated = {
                n for n in predictable & set(first_turn) if first_turn[n] != n
            }
            judge_anticipated = {
                n for n in predictable & set(first_mode) if first_mode[n] == "proactive"
            }
            assert got.anticipation_recall == (
                len(anticipated) / len(predictable) if predictable else 0.0
            )
            assert got.judge_anticipation_recall == (
                len(judge_anticipated) / len(predictable) if predictable else 0.0
            )
            assert got.user_effort == sum(1 for t in turns if t.explicit_ask)
            assert got.active_tokens == sum(t.idle_token_spend for t in turns)

        # sentinel: a timeline that never reaches 100% of must-haves
        assert t_alpha([0, 1, 1], 1.0, 2, 12) == 13


def _scan_store(state: MemoryState) -> None:
    """Structural invariants that must hold after every mutation."""
    active = state.active_records()
    digests = [r.content_hash for r in active]
    assert len(digests) == len(set(digests)), "duplicate active hashes"
    assert state.hash_index == {r.content_hash: r.id for r in active}
    for record in state.records.values():
        assert record.content_hash == content_hash(record.content)
        if record.status == "merged":
            assert record.merged_into in state.records
        for source in record.merged_from:
            assert state.records[source].status == "merged"


def test_criterion_4_deduplication_lifecycle():
    with _gate(4, "memory dedup lifecycle over randomized add sequences", limit=30.0):
        words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]
        total_adds = 0
        for seed in range(40):
            rng = random.Random(1000 + seed)

            def arbiter(new_content, existing, _rng=rng):
                roll = _rng.random()
                if roll < 0.34:
                    return SimpleNamespace(action="skip", merged_content=None)
                if roll < 0.67:
                    return SimpleNamespace(action="replace", merged_content=None)
                return SimpleNamespace(action="merge", merged_content=None)

            state = MemoryState()
            for _ in range(14):
                content = " ".join(rng.choice(words) for _ in range(rng.randint(3, 8)))
                outcome = state.add_knowledge("research_fact", content, arbiter)
                total_adds += 1
                assert outcome.outcome in tuple(AddOutcome)
                _scan_store(state)

                # idempotent re-add: any active record's exact content is a no-op
                actives = state.active_records()
                if actives:
                    record = rng.choice(actives)
                    before = state.to_snapshot()
                    again = state.add_knowledge(record.kind, record.content, arbiter)
                    assert again.outcome == AddOutcome.DUPLICATE
                    assert again.record_id == record.id
                    assert state.to_snapshot() == before
                    _scan_store(state)

                # vector search must agree with brute-force cosine ranking
                query = " ".join(rng.choice(words) for _ in range(3))
                got = state.vector_search(query, k=3, threshold=0.1)
                q = embed(query)
                brute = sorted(
                    ((cosine(q, embed(r.content)), r.id) for r in state.active_records()),
                    key=lambda pair: (-pair[0], pair[1]),
                )
                brute = [(rid, sim) for sim, rid in brute if sim >= 0.1][:3]
                assert [(r.id, round(s, 9)) for r, s in got] == [
                    (rid, round(s, 9)) for rid, s in brute
                ]
        assert total_adds >= 500


def test_criterion_5_delivery_policy_invariants():
    with _gate(5, "delivery policy invariants on 1000 random windows", limit=5.0):
        rng = random.Random(555)
        t0 = datetime(2026, 1, 1, tzinfo=timezone.utc)
        for _ in range(1000):
            n = rng.randint(0, 8)
            assessments = [
                PushAssessment(
                    artifact_id=f"a{idx}",
                    value=rng.choice([rng.uniform(0, 100), float(rng.randint(0, 100))]),
                    cost=rng.choice([rng.uniform(0, 100), float(rng.randint(0, 100))]),
                    created_at=t0 + timedelta(seconds=rng.randint(0, 5)),
                )
                for idx in range(n)
            ]
            actions = decide_delivery(assessments)
            assert set(actions) == {a.artifact_id for a in assessments}

            scores = {a.artifact_id: push_score(a.value, a.cost) for a in assessments}
            assert all(0.0 <= s <= 100.0 for s in scores.values())
            pushed = [aid for aid, act in actions.items() if act == DeliveryAction.PUSH]
            assert len(pushed) <= 1
            eligible = [a for a in assessments if scores[a.artifact_id] > 40.0]
            if not eligible:
                assert not pushed
                assert all(act == DeliveryAction.STORE for act in actions.values())
            else:
                best = min(
                    eligible,
                    key=lambda a: (-scores[a.artifact_id], a.created_at, a.artifact_id),
                )
                assert pushed == [best.artifact_id]
                for a in assessments:
                    expected = (
                        DeliveryAction.QUEUE
                        if scores[a.artifact_id] > 40.0 and a is not best
                        else DeliveryAction.STORE
                    )
                    if a is best:
                        continue
                    assert actions[a.artifact_id] == expected

        # monotone in value and in -cost
        for _ in range(200):
            v1, v2 = sorted((rng.uniform(0, 100), rng.uniform(0, 100)))
            c = rng.uniform(0, 100)
            assert push_score(v1, c) <= push_score(v2, c)
            c1, c2 = sorted((rng.uniform(0, 100), rng.uniform(0, 100)))
            v = rng.uniform(0, 100)
            assert push_score(v, c2) <= push_score(v, c1)


def test_criterion_6_closed_loop_superiority():
    with _gate(6, "directed idle beats reactive on 25 generated scenarios", limit=60.0):
        rng = random.Random(2026)
        for i in range(25):
            scenario = make_scenario(rng, f"accept_{i:02d}")
            assert validate_scenario(scenario).valid
            assert composition_stats(scenario).cross_group_links >= 2

            directed = run_scenario(scenario, Condition.DIRECTED_IDLE)
            reactive = run_scenario(scenario, Condition.REACTIVE)
            assert directed.result.status == "completed", scenario.scenario_id
            assert reactive.result.status == "completed", scenario.scenario_id
            assert directed.metrics.user_effort < reactive.metrics.user_effort
            assert directed.metrics.anticipation_recall > 0.0
            assert reactive.metrics.anticipation_recall == 0.0
            assert reactive.metrics.active_tokens == 0


def test_criterion_7_bootstrap_determinism_and_correctness():
    with _gate(7, "paired bootstrap determinism and percentile oracle", limit=30.0):
        data_rng = random.Random(5)
        a = [data_rng.uniform(0, 10) for _ in range(12)]
        b = [data_rng.uniform(0, 10) for _ in range(12)]
        cfg = BootstrapConfig(resamples=2000, seed=2026, confidence=0.95)
        first = json.dumps(paired_bootstrap(a, b, cfg).to_dict(), sort_keys=True)
        second = json.dumps(paired_bootstrap(a, b, cfg).to_dict(), sort_keys=True)
        assert first.encode() == second.encode()

        # degenerate inputs collapse to zero-width intervals
        equal = paired_bootstrap(a, list(a), cfg)
        assert (equal.point_delta, equal.ci_low, equal.ci_high) == (0.0, 0.0, 0.0)
        shifted = paired_bootstrap(a, [x + 2.5 for x in a], cfg)
        assert shifted.ci_low == shifted.ci_high == shifted.point_delta
        assert shifted.point_delta == pytest.approx(-2.5)

        # percentile extraction vs a sort-based oracle
        cfg_small = BootstrapConfig(resamples=499, seed=2026, confidence=0.9)
        got = paired_bootstrap(a, b, cfg_small)
        diffs = np.asarray(a) - np.asarray(b)
        n = len(diffs)
        rng = np.random.default_rng(cfg_small.seed)
        idx = rng.integers(0, n, size=(cfg_small.resamples, n))
        means = sorted(float(np.mean(diffs[row])) for row in idx)

        def oracle_percentile(q: float) -> float:
            rank = q / 100.0 * (len(means) - 1)
            low = int(rank)
            if low == rank:
                return means[low]
            return means[low] + (rank - low) * (means[low + 1] - means[low])

        assert got.ci_low == pytest.approx(oracle_percentile(5.0), abs=1e-12)
        assert got.ci_high == pytest.approx(oracle_percentile(95.0), abs=1e-12)
        assert got.point_delta == pytest.approx(float(np.mean(diffs)), abs=1e-12)


def test_criterion_8_information_hiding_audit():
    with _gate(8, "no gold labels in runtime prompts", limit=5.0):
        # Audit the prompts HttpRoleBackends actually sends, as received by
        # an in-process transport; only the simulator and judge see gold data.
        scenario = _load("finance_basic_01.json")
        backends, transport = scripted_backends(scenario)
        outcome = run_scenario(scenario, Condition.DIRECTED_IDLE, backends=backends)
        assert outcome.result.status == "completed"
        assert len(transport.prompts) > 10
        runtime_prompts = [(role, p) for role, p in transport.prompts if role not in ("simulator", "judge")]
        assert {role for role, _ in runtime_prompts} == RUNTIME_ROLES

        forbidden_ids = [n.id for n in scenario.needs] + [g.id for g in scenario.groups]
        forbidden_literals = ["key_fact_ids", "predictable_after", "reveal_group"]
        for _, prompt in runtime_prompts:
            for ident in forbidden_ids:
                assert not re.search(rf"\b{re.escape(ident)}\b", prompt), ident
            for literal in forbidden_literals:
                assert literal not in prompt, literal


def test_criterion_9_budget_sweep_monotonicity():
    with _gate(9, "anticipation recall nondecreasing in budget k", limit=30.0):
        from foresight.config import RunConfig

        scenarios = [_load("budget_sweep_01.json"), _load("finance_basic_01.json")]
        directed_recall: list[float] = []
        for k in (1, 2, 3, 4):
            cfg = RunConfig(budget_k=k)
            directed = [
                run_scenario(s, Condition.DIRECTED_IDLE, cfg).metrics.anticipation_recall
                for s in scenarios
            ]
            undirected = [
                run_scenario(s, Condition.UNDIRECTED_IDLE, cfg).metrics.anticipation_recall
                for s in scenarios
            ]
            directed_recall.append(sum(directed) / len(directed))
            assert all(r == 0.0 for r in undirected), f"k={k}"

        assert directed_recall == sorted(directed_recall), directed_recall
        assert directed_recall[0] > 0.0
        assert directed_recall[-1] >= directed_recall[0]
