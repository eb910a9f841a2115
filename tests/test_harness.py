import dataclasses
import random

import pytest

from conftest import SCENARIO_DIR
from foresight.acquisition import Evidence, ValueScores
from foresight.backends import ACTIVE_ROLES, Role, TokenLedger
from foresight.config import RunConfig
from foresight.delivery import PushAssessment
from foresight.harness import Condition, run_many, run_scenario
from foresight.memory import ArbiterVerdict, MemoryState
from foresight.metrics import AssistantReply, JudgeVerdict
from foresight.oracles import OracleBackends
from foresight.prediction import CandidateNeed
from foresight.scenarios import parse_scenario
from scripted_transport import ASSISTANT, scripted_backends


def test_reactive_frozen_trace(finance_scenario):
    outcome = run_scenario(finance_scenario, Condition.REACTIVE)
    result, metrics = outcome.result, outcome.metrics
    assert result.status == "completed"
    assert len(result.turns) == 9
    assert [len(s) for s in result.covered_by_turn()] == [2, 3, 4, 6, 7, 9, 10, 11, 12]
    assert (metrics.t80, metrics.t100) == (6.0, 9.0)
    assert metrics.user_effort == 9
    assert metrics.total_coverage == 1.0
    assert metrics.must_have_coverage == 1.0
    assert metrics.fact_accuracy == 1.0
    assert metrics.hallucination_rate == 0.0
    assert metrics.anticipation_recall == 0.0
    assert metrics.judge_anticipation_recall == 0.0
    assert metrics.active_tokens == 0
    assert all(t.explicit_ask for t in result.turns)
    assert all(t.pushes == () for t in result.turns)


def test_directed_frozen_trace(finance_scenario):
    outcome = run_scenario(finance_scenario, Condition.DIRECTED_IDLE)
    result, metrics = outcome.result, outcome.metrics
    assert result.status == "completed"
    assert len(result.turns) == 6
    assert [len(s) for s in result.covered_by_turn()] == [3, 5, 7, 9, 10, 12]
    assert (metrics.t80, metrics.t100) == (4.0, 6.0)
    assert metrics.user_effort == 6
    assert metrics.total_coverage == 1.0
    assert metrics.fact_accuracy == 1.0
    assert metrics.hallucination_rate == 0.0
    assert metrics.anticipation_recall == 0.75
    assert metrics.judge_anticipation_recall == 0.75
    assert metrics.active_tokens == 647
    assert (metrics.predictable_count, metrics.anticipated_count) == (4, 3)
    assert [t.idle_token_spend for t in result.turns] == [141, 201, 73, 73, 39, 120]


def test_undirected_frozen_trace(finance_scenario):
    outcome = run_scenario(finance_scenario, Condition.UNDIRECTED_IDLE)
    result, metrics = outcome.result, outcome.metrics
    assert result.status == "completed"
    assert len(result.turns) == 9
    # generic intents never anticipate the scenario's needs but still spend
    assert metrics.anticipation_recall == 0.0
    assert metrics.user_effort == 9
    assert metrics.active_tokens == 2944
    assert all(t.idle_token_spend > 0 for t in result.turns)
    assert all(t.pushes == () for t in result.turns)


def test_reactive_never_invokes_proactive_roles(finance_scenario):
    ledger = TokenLedger()
    from foresight.oracles import OracleBackends

    backends = OracleBackends(finance_scenario, ledger=ledger)
    outcome = run_scenario(finance_scenario, "reactive", backends=backends)
    for role in ACTIVE_ROLES:
        assert ledger.calls[role] == 0, role
    assert ledger.active_total() == 0
    assert ledger.calls[Role.SIMULATOR] > 0
    assert ledger.calls[Role.JUDGE] > 0
    assert all(t.idle_token_spend == 0 for t in outcome.result.turns)


def test_directed_pushes_are_high_priority_must_haves(finance_scenario):
    outcome = run_scenario(finance_scenario, "directed_idle")
    pushed = [t for t in outcome.result.turns if t.pushes]
    assert pushed, "expected at least one push"
    for record in pushed:
        push = record.pushes[0]
        assert set(push) == {"artifact_id", "topic", "body", "high_priority"}
        assert push["artifact_id"].startswith("art-")
        assert push["high_priority"] is True
    # push folds into the same turn's verdict: proactive marks present
    first = pushed[0]
    assert any(m.mode == "proactive" for m in first.verdict.needs_addressed)


def test_directed_queued_artifacts_integrate_next_turn(two_branch_scenario):
    # Covering N1 unlocks two must-have branches; one artifact pushes during
    # turn 1's window, the other queues and rides along with turn 2's reply.
    outcome = run_scenario(two_branch_scenario, "directed_idle")
    result = outcome.result
    assert result.status == "completed"
    assert len(result.turns) == 2

    first, second = result.turns
    assert first.target_need_id == "N1"
    assert len(first.pushes) == 1
    marks1 = {m.need_id: m.mode for m in first.verdict.needs_addressed}
    assert marks1 == {"N1": "reactive", "N2": "proactive"}

    assert second.target_need_id == "N4"
    assert second.pushes == ()
    assert second.assistant_reply.delivered_fact_ids == ("F4", "F3")
    marks2 = {m.need_id: m.mode for m in second.verdict.needs_addressed}
    assert marks2 == {"N4": "reactive", "N3": "proactive"}

    assert outcome.metrics.user_effort == 2
    assert outcome.metrics.anticipation_recall == 1.0


def test_reactive_ignores_queued_artifacts(two_branch_scenario):
    outcome = run_scenario(two_branch_scenario, "reactive")
    assert len(outcome.result.turns) == 4
    for record in outcome.result.turns:
        assert len(record.assistant_reply.delivered_fact_ids) == 1


def test_directed_memory_contains_artifacts(finance_scenario):
    outcome = run_scenario(finance_scenario, "directed_idle")
    assert isinstance(outcome.memory, MemoryState)
    kinds = {r.kind for r in outcome.memory.active_records()}
    assert "artifact" in kinds
    assert outcome.memory.profile["persona"] == finance_scenario.user_profile.persona

    reactive = run_scenario(finance_scenario, "reactive")
    assert all(r.kind != "artifact" for r in reactive.memory.active_records())


def test_run_scenario_accepts_custom_memory(finance_scenario):
    memory = MemoryState()
    outcome = run_scenario(finance_scenario, "reactive", memory=memory)
    assert outcome.memory is memory


def test_condition_accepts_plain_string(finance_scenario):
    outcome = run_scenario(finance_scenario, "reactive")
    assert outcome.result.condition == "reactive"
    with pytest.raises(ValueError):
        run_scenario(finance_scenario, "imagined_condition")


class EndlessBackends:
    """Simulator that never runs out; judge that never credits coverage."""

    def __init__(self):
        self.ledger = TokenLedger()

    def simulate(self, covered):
        return "N1", "same question again"

    def respond(self, target, queued, user_message=""):
        return AssistantReply(text="unhelpful", delivered_fact_ids=())

    def judge(self, reply, target):
        return JudgeVerdict()


class ExplodingBackends(EndlessBackends):
    def respond(self, target, queued, user_message=""):
        raise RuntimeError("boom")


class SlottedBackends:
    """Every role forwarded to an oracle; no ``covered`` attribute can be set."""

    __slots__ = ("_oracle",)

    def __init__(self, oracle):
        self._oracle = oracle

    def __getattr__(self, name):
        return getattr(self._oracle, name)


class CountingIdleBackends(EndlessBackends):
    """One idle window over fixed candidates; records each ``assess_value``
    call and searches only the topics in ``searched``."""

    def __init__(self, candidates, searched):
        super().__init__()
        self.candidates = candidates
        self.searched = searched
        self.assessed = []
        self.searches = []

    def unguided(self, history, memory):
        return list(self.candidates)

    def assess_value(self, candidate):
        self.assessed.append(candidate.topic)
        return ValueScores(90, 90, 90, 90) if candidate.topic in self.searched else ValueScores(0, 0, 0, 0)

    def search(self, query):
        self.searches.append(query)
        return [Evidence("search", query, f"notes on {query}")]

    def synthesize(self, candidate, evidence):
        return evidence[0].excerpt

    def arbitrate(self, content, record):
        return ArbiterVerdict("skip")

    def assess_push(self, artifact):
        return PushAssessment(artifact.id, value=0, cost=100, created_at=artifact.created_at)


def test_idle_window_assesses_in_order_and_stops_at_the_budget(sweep_scenario):
    def cand(topic, confidence, source):
        return CandidateNeed(
            topic=topic, need=f"know {topic}", reason="test", confidence=confidence,
            retrieval_query=topic, source=source,
        )

    # In (-confidence, source rank, topic, need) order; the budget of 2
    # is spent on the second searched topic, so the last is never assessed.
    ordered = [
        cand("zulu harbour tides", 0.9, "scenario"),
        cand("alpha river bank", 0.9, "related"),
        cand("bravo mountain pass", 0.8, "related"),
        cand("charlie desert road", 0.8, "related"),
        cand("able forest trail", 0.8, "memory_gap"),
        cand("delta city tram", 0.7, "scenario"),
        cand("echo island ferry", 0.65, "scenario"),
    ]
    shuffled = ordered[:]
    random.Random(7).shuffle(shuffled)
    searched = {"zulu harbour tides", "delta city tram", "echo island ferry"}
    backends = CountingIdleBackends(shuffled, searched)
    cfg = RunConfig(horizon=1, budget_k=2)
    outcome = run_scenario(sweep_scenario, "undirected_idle", cfg, backends=backends)
    assert outcome.result.status == "horizon", outcome.result.error
    assert backends.assessed == [c.topic for c in ordered[:-1]]
    assert backends.searches == ["zulu harbour tides", "delta city tram"]


def test_directed_run_sets_no_covered_attribute_on_the_backends(finance_scenario):
    backends = SlottedBackends(OracleBackends(finance_scenario))
    with pytest.raises(AttributeError):
        backends.covered = set()
    outcome = run_scenario(finance_scenario, "directed_idle", backends=backends)
    assert outcome.result.status == "completed", outcome.result.error
    assert outcome.to_dict() == run_scenario(finance_scenario, "directed_idle").to_dict()


def test_horizon_status_when_needs_never_covered(sweep_scenario):
    cfg = RunConfig(horizon=4)
    outcome = run_scenario(sweep_scenario, "reactive", cfg, backends=EndlessBackends())
    assert outcome.result.status == "horizon"
    assert len(outcome.result.turns) == 4
    assert outcome.metrics.t100 == 5.0  # horizon + 1 sentinel
    assert outcome.metrics.total_coverage == 0.0
    assert outcome.metrics.user_effort == 4


def test_failed_status_records_error(sweep_scenario):
    outcome = run_scenario(sweep_scenario, "reactive", backends=ExplodingBackends())
    assert outcome.result.status == "failed"
    assert outcome.result.error == "RuntimeError: boom"
    assert outcome.result.turns == ()


def test_reactive_sends_only_simulator_assistant_and_judge_prompts(finance_scenario):
    backends, transport = scripted_backends(finance_scenario)
    outcome = run_scenario(finance_scenario, "reactive", backends=backends)
    assert outcome.result.status == "completed"
    assert set(transport.roles()) == {"simulator", ASSISTANT, "judge"}


def test_directed_idle_sends_every_idle_role_prompt(finance_scenario):
    backends, transport = scripted_backends(finance_scenario)
    outcome = run_scenario(finance_scenario, "directed_idle", backends=backends)
    assert outcome.result.status == "completed"
    idle_roles = {"predictor", "value_assessor", "searcher", "synthesizer", "push_assessor", "arbiter"}
    assert idle_roles <= set(transport.roles())


def test_undirected_idle_sends_no_predictor_prompt(finance_scenario):
    backends, transport = scripted_backends(finance_scenario)
    outcome = run_scenario(finance_scenario, "undirected_idle", backends=backends)
    assert outcome.result.status == "completed"
    assert "value_assessor" in transport.roles()  # the idle windows did run
    assert "predictor" not in transport.roles()


def test_run_many_ordering(finance_scenario, sweep_scenario):
    outcomes = []
    run_many([finance_scenario, sweep_scenario], ["directed_idle", "reactive"], on_outcome=outcomes.append)
    keys = [(o.result.scenario_id, o.result.condition) for o in outcomes]
    assert keys == [
        ("budget_sweep_01", "directed_idle"),
        ("budget_sweep_01", "reactive"),
        ("finance_basic_01", "directed_idle"),
        ("finance_basic_01", "reactive"),
    ]


def test_run_many_skip(finance_scenario, sweep_scenario):
    outcomes = []
    run_many(
        [finance_scenario, sweep_scenario],
        ["directed_idle", "reactive"],
        skip={("finance_basic_01", "reactive")},
        on_outcome=outcomes.append,
    )
    keys = [(o.result.scenario_id, o.result.condition) for o in outcomes]
    assert ("finance_basic_01", "reactive") not in keys
    assert len(keys) == 3


def test_run_many_parallel_equivalence(finance_scenario, sweep_scenario):
    serial_cfg = RunConfig(parallel=1)
    parallel_cfg = RunConfig(parallel=4)
    conditions = ["reactive", "directed_idle", "undirected_idle"]
    serial, parallel = [], []
    run_many([finance_scenario, sweep_scenario], conditions, serial_cfg, on_outcome=serial.append)
    run_many([finance_scenario, sweep_scenario], conditions, parallel_cfg, on_outcome=parallel.append)
    assert [o.to_dict() for o in serial] == [o.to_dict() for o in parallel]


def test_budget_zero_disables_acquisition(finance_scenario):
    cfg = RunConfig(budget_k=0)
    outcome = run_scenario(finance_scenario, "directed_idle", cfg)
    assert outcome.result.status == "completed"
    # no acquisitions: no artifacts, no pushes, nothing anticipated
    assert all(t.pushes == () for t in outcome.result.turns)
    assert outcome.metrics.anticipation_recall == 0.0
    assert all(r.kind != "artifact" for r in outcome.memory.active_records())


def test_budget_zero_spends_what_reactive_spends_over_the_scenarios():
    # With no budget an idle window predicts nothing, so it charges no role.
    cfg = RunConfig(budget_k=0)
    paths = sorted(SCENARIO_DIR.glob("*.json"))
    assert paths
    for path in paths:
        scenario = parse_scenario(path.read_bytes())
        spent = {
            condition: run_scenario(scenario, condition, cfg).metrics.active_tokens
            for condition in ("reactive", "undirected_idle", "directed_idle")
        }
        assert spent == dict.fromkeys(spent, spent["reactive"]), path.name


def test_run_config_validation():
    from foresight.backends import ConfigurationError

    with pytest.raises(ConfigurationError):
        RunConfig(conditions=())
    with pytest.raises(ConfigurationError):
        RunConfig(conditions=("sideways",))
    with pytest.raises(ConfigurationError):
        RunConfig(horizon=0)
    with pytest.raises(ConfigurationError):
        RunConfig(budget_k=-1)
    with pytest.raises(ConfigurationError):
        RunConfig(backend="quantum")
    with pytest.raises(ConfigurationError):
        RunConfig(parallel=0)
    with pytest.raises(ConfigurationError):
        RunConfig(conditions=("reactive", "reactive"))
    with pytest.raises(ConfigurationError):
        RunConfig(backend="http")
    cfg = RunConfig()
    assert cfg.seed == 42
    assert cfg.horizon == 12
    assert cfg.budget_k == 3


def test_run_config_fields_are_what_a_run_sets(monkeypatch):
    from foresight import cli

    set_by_cli = []
    monkeypatch.setattr(cli, "RunConfig", lambda **kwargs: set_by_cli.append(sorted(kwargs)))
    for argv in (["run", "--scenarios", "s", "--out", "o"], ["sweep", "--scenarios", "s", "--budgets", "1"]):
        cli._make_run_config(cli.build_parser().parse_args(argv))
    names = [f.name for f in dataclasses.fields(RunConfig)]
    assert names == ["conditions", "seed", "horizon", "budget_k", "backend", "endpoint", "parallel"]
    assert set_by_cli == [sorted(names)] * 2

    # The paper's fixed hyperparameters are class constants, not settable fields.
    constants = {
        "confidence_threshold": 0.6,
        "value_threshold": 60.0,
        "max_predictor_candidates": 3,
        "topic_dedup_threshold": 0.85,
        "near_dup_threshold": 0.88,
        "coverage_threshold": 0.80,
        "memory_gap_confidence": 0.70,
        "gap_staleness_seconds": 3600.0,
        "search_round_cap": 4,
    }
    for name, value in constants.items():
        assert getattr(RunConfig, name) == getattr(RunConfig(), name) == value, name
    with pytest.raises(TypeError):
        RunConfig(value_threshold=50.0)


def test_conditions_vocabulary_is_the_condition_enum():
    import foresight
    from foresight import config

    assert foresight.Condition is Condition is config.Condition
    assert config.VALID_CONDITIONS == ("reactive", "undirected_idle", "directed_idle")
    assert RunConfig().conditions == tuple(c.value for c in Condition)
