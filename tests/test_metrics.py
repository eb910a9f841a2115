import math
import random
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from foresight.metrics import (
    ABSOLUTE_DELTA_METRICS,
    METRIC_FIELDS,
    AggregateRow,
    AssistantReply,
    BootstrapConfig,
    JudgeVerdict,
    MetricSet,
    NeedMark,
    PairingError,
    ScenarioResult,
    TurnRecord,
    aggregate,
    compute_metrics,
    merge_verdicts,
    paired_bootstrap,
    t_alpha,
)


def turn(index, target=None, explicit=None, marks=(), conveyed=(), distorted=(), hallucinated=(), spend=0):
    explicit = explicit if explicit is not None else target is not None
    return TurnRecord(
        index=index,
        user_message=f"turn {index}" if explicit else None,
        explicit_ask=explicit,
        target_need_id=target,
        assistant_reply=AssistantReply(text=f"reply {index}", delivered_fact_ids=tuple(conveyed)),
        verdict=JudgeVerdict(
            facts_conveyed=tuple(conveyed),
            facts_distorted=tuple(distorted),
            hallucinated_claims=tuple(hallucinated),
            needs_addressed=tuple(NeedMark(n, m) for n, m in marks),
        ),
        idle_token_spend=spend,
    )


def need(need_id, importance="must_have", predictable_after=None):
    return SimpleNamespace(id=need_id, importance=importance, predictable_after=predictable_after)


# -- t_alpha ------------------------------------------------------------------


def test_t_alpha_worked_cases():
    assert t_alpha([1, 2, 3, 4, 5], 0.8, 5, 12) == 4
    assert t_alpha([1, 2, 3, 4, 5], 1.0, 5, 12) == 5
    assert t_alpha([0, 0, 1], 1.0, 1, 12) == 3
    # sentinel when never reached inside the timeline
    assert t_alpha([0, 1, 1], 1.0, 2, 12) == 13
    assert t_alpha([], 0.8, 3, 7) == 8


def test_t_alpha_zero_must_haves_is_vacuous():
    assert t_alpha([], 0.8, 0, 12) == 1
    assert t_alpha([0, 0], 1.0, 0, 12) == 1


def test_t_alpha_accepts_sets_and_ints():
    timeline = [set(), {"N1"}, {"N1", "N2"}]
    assert t_alpha(timeline, 1.0, 2, 12) == 3
    assert t_alpha([0, 1, 2], 1.0, 2, 12) == 3


def test_t_alpha_validates_inputs():
    with pytest.raises(ValueError):
        t_alpha([1], 0.0, 1, 12)
    with pytest.raises(ValueError):
        t_alpha([1], 1.1, 1, 12)
    with pytest.raises(ValueError):
        t_alpha([1], 0.8, -1, 12)


def test_t_alpha_matches_fraction_oracle():
    rng = random.Random(17)
    alphas = [(0.8, Fraction(4, 5)), (1.0, Fraction(1, 1)), (0.5, Fraction(1, 2)), (0.25, Fraction(1, 4))]
    for _ in range(100):
        must = rng.randint(1, 40)
        horizon = rng.randint(1, 15)
        timeline = []
        count = 0
        for _ in range(horizon):
            count = min(must, count + rng.randint(0, 3))
            timeline.append(count)
        for alpha, frac in alphas:
            threshold = -((-frac.numerator * must) // frac.denominator)  # exact ceil
            expected = next(
                (i for i, c in enumerate(timeline, start=1) if c >= threshold), horizon + 1
            )
            assert t_alpha(timeline, alpha, must, horizon) == expected


# -- verdict structures -------------------------------------------------------


def test_need_mark_mode_vocabulary():
    with pytest.raises(ValueError):
        NeedMark("N1", "speculative")


def test_judge_verdict_rejects_conveyed_distorted_overlap():
    with pytest.raises(ValueError):
        JudgeVerdict(facts_conveyed=("F1",), facts_distorted=("F1",))


def test_judge_verdict_to_dict():
    verdict = JudgeVerdict(
        facts_conveyed=("F1", "F2"),
        facts_distorted=("F3",),
        hallucinated_claims=("made up",),
        needs_addressed=(NeedMark("N1", "reactive"), NeedMark("N2", "proactive")),
    )
    assert verdict.to_dict() == {
        "facts_conveyed": ["F1", "F2"],
        "facts_distorted": ["F3"],
        "hallucinated_claims": ["made up"],
        "needs_addressed": [{"need_id": "N1", "mode": "reactive"}, {"need_id": "N2", "mode": "proactive"}],
    }


def test_merge_verdicts_base_wins():
    base = JudgeVerdict(
        facts_conveyed=("F1",),
        needs_addressed=(NeedMark("N1", "reactive"),),
    )
    extra = JudgeVerdict(
        facts_conveyed=("F2", "F1"),
        hallucinated_claims=("claim",),
        needs_addressed=(NeedMark("N1", "proactive"), NeedMark("N2", "proactive")),
    )
    merged = merge_verdicts(base, extra)
    assert merged.facts_conveyed == ("F1", "F2")
    assert merged.hallucinated_claims == ("claim",)
    marks = {m.need_id: m.mode for m in merged.needs_addressed}
    assert marks == {"N1": "reactive", "N2": "proactive"}


def test_turn_record_explicit_ask_needs_target():
    with pytest.raises(ValueError):
        turn(1, target=None, explicit=True)
    record = turn(3, target="N2", marks=(("N2", "reactive"),), conveyed=("F1",), spend=42)
    assert record.to_dict() == {
        "index": 3,
        "user_message": "turn 3",
        "explicit_ask": True,
        "target_need_id": "N2",
        "assistant_reply": {"text": "reply 3", "delivered_fact_ids": ["F1"], "distorted_fact_ids": []},
        "verdict": record.verdict.to_dict(),
        "pushes": [],
        "idle_token_spend": 42,
    }


def test_scenario_result_to_dict_and_coverage():
    result = ScenarioResult(
        scenario_id="s1",
        condition="directed_idle",
        turns=(
            turn(1, target="N1", marks=(("N1", "reactive"), ("N3", "proactive"))),
            turn(2, target="N2", marks=(("N2", "reactive"),)),
            turn(3, target=None, explicit=False),
        ),
        status="completed",
        error=None,
        role_tokens={"predictor": {"prompt_tokens": 5, "completion_tokens": 2, "calls": 1}},
    )
    assert result.to_dict() == {  # no "error" key when error is None
        "scenario_id": "s1",
        "condition": "directed_idle",
        "turns": [t.to_dict() for t in result.turns],
        "status": "completed",
        "role_tokens": {"predictor": {"prompt_tokens": 5, "completion_tokens": 2, "calls": 1}},
    }
    assert result.covered_by_turn() == [{"N1", "N3"}, {"N1", "N2", "N3"}, {"N1", "N2", "N3"}]
    failed = ScenarioResult("s1", "reactive", (), "failed", error="RuntimeError: boom")
    assert failed.to_dict() == {
        "scenario_id": "s1",
        "condition": "reactive",
        "turns": [],
        "status": "failed",
        "role_tokens": {},
        "error": "RuntimeError: boom",
    }


def test_metric_set_validation_and_round_trip():
    with pytest.raises(ValueError):
        MetricSet(5.0, 4.0, 1, 1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0)
    with pytest.raises(ValueError):
        MetricSet(1.0, 1.0, 1, 1.5, 0.0, 1.0, 1.0, 0.0, 0.0, 0)
    metrics = MetricSet(2.0, 4.0, 5, 0.75, 0.2, 1.0, 1.0, 0.5, 0.5, 123, 2, 1)
    data = metrics.to_dict()
    data["unknown_extra"] = "ignored"
    assert MetricSet.from_dict(data) == metrics


# -- compute_metrics ----------------------------------------------------------


def _hand_built():
    scenario = SimpleNamespace(
        needs=[
            need("A"),
            need("B"),
            need("C", predictable_after="A"),
            need("F"),
            need("D", importance="nice_to_have", predictable_after="B"),
            need("E", importance="nice_to_have"),
        ]
    )
    result = ScenarioResult(
        scenario_id="hand",
        condition="directed_idle",
        turns=(
            turn(1, target="A", marks=(("A", "reactive"), ("C", "proactive")),
                 conveyed=("FA", "FC"), spend=100),
            turn(2, target="B", marks=(("B", "reactive"),), conveyed=("FB",), distorted=("FX",)),
            turn(3, target="E", marks=(("E", "reactive"),), hallucinated=("made-up claim",)),
            turn(4, target="F", marks=(("F", "reactive"),)),
            turn(5, target="D", marks=(("D", "reactive"),), spend=23),
        ),
        status="completed",
    )
    return scenario, result


def test_compute_metrics_hand_built_timeline():
    scenario, result = _hand_built()
    metrics = compute_metrics(result, scenario, horizon=12)
    assert metrics.t80 == 4.0  # ceil(0.8 * 4 musts) = 4, reached on turn 4
    assert metrics.t100 == 4.0
    assert metrics.user_effort == 5
    assert metrics.fact_accuracy == pytest.approx(3 / 4)
    assert metrics.hallucination_rate == pytest.approx(1 / 5)
    assert metrics.total_coverage == 1.0
    assert metrics.must_have_coverage == 1.0
    # C was first covered on a turn targeting A; D only when asked directly.
    assert metrics.anticipation_recall == 0.5
    assert metrics.judge_anticipation_recall == 0.5
    assert metrics.active_tokens == 123
    assert metrics.predictable_count == 2
    assert metrics.anticipated_count == 1


def test_compute_metrics_horizon_sentinel():
    scenario = SimpleNamespace(needs=[need("A"), need("B")])
    result = ScenarioResult(
        "s", "reactive", (turn(1, target="A", marks=(("A", "reactive"),)),), "horizon"
    )
    metrics = compute_metrics(result, scenario, horizon=12)
    assert metrics.t100 == 13.0
    assert metrics.total_coverage == 0.5


def test_compute_metrics_zero_denominator_conventions():
    scenario = SimpleNamespace(needs=[])
    result = ScenarioResult("s", "reactive", (), "completed")
    metrics = compute_metrics(result, scenario, horizon=12)
    assert metrics.t80 == 1.0 and metrics.t100 == 1.0
    assert metrics.fact_accuracy == 1.0
    assert metrics.hallucination_rate == 0.0
    assert metrics.total_coverage == 1.0
    assert metrics.must_have_coverage == 1.0
    assert metrics.anticipation_recall == 0.0
    assert metrics.judge_anticipation_recall == 0.0
    assert metrics.user_effort == 0
    assert metrics.active_tokens == 0


def test_compute_metrics_judge_variant_can_differ():
    # Structurally anticipated (covered on another need's turn) but the judge
    # marked it reactive: only the structural variant counts it.
    scenario = SimpleNamespace(needs=[need("A"), need("C", predictable_after="A")])
    result = ScenarioResult(
        "s",
        "directed_idle",
        (turn(1, target="A", marks=(("A", "reactive"), ("C", "reactive"))),),
        "completed",
    )
    metrics = compute_metrics(result, scenario, horizon=12)
    assert metrics.anticipation_recall == 1.0
    assert metrics.judge_anticipation_recall == 0.0


# -- aggregation ----------------------------------------------------------------


def ms(**overrides):
    base = dict(
        t80=2.0,
        t100=4.0,
        user_effort=5,
        fact_accuracy=1.0,
        hallucination_rate=0.0,
        total_coverage=1.0,
        must_have_coverage=1.0,
        anticipation_recall=0.5,
        judge_anticipation_recall=0.5,
        active_tokens=100,
        predictable_count=2,
        anticipated_count=1,
    )
    base.update(overrides)
    return MetricSet(**base)


def row(sid, condition, metrics=None, **facets):
    return AggregateRow(
        scenario_id=sid, condition=condition, metrics=metrics or ms(),
        **{k: facets.get(k, "") for k in ("domain", "archetype", "opportunity", "fragmentation")},
    )


def test_aggregate_micro_vs_macro_recall():
    rows = [
        row("s1", "directed_idle", ms(anticipation_recall=0.5, predictable_count=2, anticipated_count=1)),
        row("s2", "directed_idle", ms(anticipation_recall=0.375, predictable_count=8, anticipated_count=3)),
    ]
    out = aggregate(rows, baseline="reactive")
    micro = out["micro_anticipation"]["directed_idle"]
    assert micro == {"numerator": 4, "denominator": 10, "recall": 0.4}
    assert out["conditions"]["directed_idle"]["means"]["anticipation_recall"] == pytest.approx(0.4375)
    assert out["deltas"] == {}


def test_aggregate_percent_and_absolute_deltas():
    rows = [
        row("s1", "reactive", ms(t100=8.110, anticipation_recall=0.0, active_tokens=0,
                                 predictable_count=2, anticipated_count=0)),
        row("s1", "directed_idle", ms(t100=6.910, anticipation_recall=0.75, active_tokens=647,
                                      predictable_count=2, anticipated_count=1)),
    ]
    out = aggregate(rows, baseline="reactive")
    deltas = out["deltas"]["directed_idle_vs_reactive"]
    assert deltas["t100"]["kind"] == "percent"
    assert deltas["t100"]["delta"] == pytest.approx((6.910 - 8.110) / 8.110 * 100.0)
    assert deltas["anticipation_recall"] == {"kind": "absolute", "delta": 0.75}
    assert deltas["active_tokens"] == {"kind": "absolute", "delta": 647.0}
    for name in METRIC_FIELDS:
        expected_kind = "absolute" if name in ABSOLUTE_DELTA_METRICS else "percent"
        assert deltas[name]["kind"] == expected_kind


def test_aggregate_zero_baseline_percent_is_none():
    rows = [
        row("s1", "reactive", ms(hallucination_rate=0.0)),
        row("s1", "directed_idle", ms(hallucination_rate=0.1)),
    ]
    out = aggregate(rows)
    assert out["deltas"]["directed_idle_vs_reactive"]["hallucination_rate"]["delta"] is None


def test_aggregate_pairing_error_on_mismatched_sets():
    rows = [
        row("s1", "reactive"),
        row("s2", "reactive"),
        row("s1", "directed_idle"),
    ]
    with pytest.raises(PairingError):
        aggregate(rows)


def test_aggregate_facets():
    rows = [
        row("s1", "reactive", domain="finance", archetype="readiness_follow_through"),
        row("s2", "reactive", domain="travel", archetype="readiness_follow_through"),
        row("s1", "directed_idle", domain="finance", archetype="readiness_follow_through"),
        row("s2", "directed_idle", domain="travel", archetype="readiness_follow_through"),
    ]
    out = aggregate(rows)
    assert set(out["by_domain"]) == {"finance", "travel"}
    assert out["by_domain"]["finance"]["reactive"]["n"] == 1
    assert set(out["by_archetype"]) == {"readiness_follow_through"}
    assert out["by_archetype"]["readiness_follow_through"]["reactive"]["n"] == 2
    assert out["by_opportunity"] == {}


# -- paired bootstrap ----------------------------------------------------------


def test_bootstrap_config_validation():
    with pytest.raises(ValueError):
        BootstrapConfig(resamples=0)
    with pytest.raises(ValueError):
        BootstrapConfig(confidence=1.0)
    with pytest.raises(ValueError):
        BootstrapConfig(confidence=0.0)


def test_bootstrap_requires_paired_samples():
    with pytest.raises(PairingError):
        paired_bootstrap([1.0, 2.0], [1.0])
    with pytest.raises(PairingError):
        paired_bootstrap([], [])


def test_bootstrap_is_deterministic():
    a = [9.0, 6.0, 7.0, 11.0, 8.0]
    b = [6.0, 5.0, 7.0, 8.0, 6.0]
    first = paired_bootstrap(a, b)
    second = paired_bootstrap(a, b)
    assert first == second
    # the point estimate never depends on the resampling seed
    shifted = paired_bootstrap(a, b, BootstrapConfig(seed=7))
    assert shifted.point_delta == first.point_delta


def test_bootstrap_degenerate_is_zero_width():
    result = paired_bootstrap([5.0, 5.0, 5.0], [3.0, 3.0, 3.0])
    assert result.point_delta == 2.0
    assert result.ci_low == result.ci_high == 2.0


def test_bootstrap_detects_consistent_improvement():
    a = [9.0, 8.5, 10.0, 7.5, 9.5, 8.0]
    b = [6.0, 6.5, 7.0, 5.5, 7.5, 6.0]
    result = paired_bootstrap(a, b)
    assert result.ci_low > 0
    assert result.ci_low <= result.point_delta <= result.ci_high


def test_bootstrap_matches_percentile_oracle():
    cfg = BootstrapConfig(resamples=500, seed=2026, confidence=0.9)
    a = [4.0, 7.0, 5.0, 9.0, 6.0, 8.0, 3.0]
    b = [3.0, 6.0, 5.5, 7.0, 6.5, 6.0, 4.0]
    got = paired_bootstrap(a, b, cfg)

    diffs = np.asarray(a) - np.asarray(b)
    n = len(diffs)
    rng = np.random.default_rng(cfg.seed)
    idx = rng.integers(0, n, size=(cfg.resamples, n))
    means = np.sort(diffs[idx].mean(axis=1))

    def percentile(values, q):
        rank = q / 100.0 * (len(values) - 1)
        lo = math.floor(rank)
        hi = min(lo + 1, len(values) - 1)
        return values[lo] + (values[hi] - values[lo]) * (rank - lo)

    assert got.point_delta == pytest.approx(float(diffs.mean()))
    assert got.ci_low == pytest.approx(percentile(means, 5.0))
    assert got.ci_high == pytest.approx(percentile(means, 95.0))


def test_bootstrap_result_to_dict():
    result = paired_bootstrap([2.0, 3.0], [1.0, 1.0])
    data = result.to_dict()
    assert set(data) == {"point_delta", "ci_low", "ci_high"}
