import dataclasses

import pytest

from foresight.backends import ACTIVE_ROLES, Role, TokenLedger
from foresight.config import RunConfig
from foresight.harness import Condition, run_many, run_scenario
from foresight.memory import MemoryState
from foresight.metrics import AssistantReply, JudgeVerdict
from foresight.oracles import OracleBackends
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

    def respond(self, target, condition, queued, user_message=""):
        return AssistantReply(text="unhelpful", delivered_fact_ids=())

    def judge(self, reply, target):
        return JudgeVerdict()


class ExplodingBackends(EndlessBackends):
    def respond(self, target, condition, queued, user_message=""):
        raise RuntimeError("boom")


class SlottedBackends:
    """Every role forwarded to an oracle; no ``covered`` attribute can be set."""

    __slots__ = ("_oracle",)

    def __init__(self, oracle):
        self._oracle = oracle

    def __getattr__(self, name):
        return getattr(self._oracle, name)


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
    outcomes = run_many([finance_scenario, sweep_scenario], ["directed_idle", "reactive"])
    keys = [(o.result.scenario_id, o.result.condition) for o in outcomes]
    assert keys == [
        ("budget_sweep_01", "directed_idle"),
        ("budget_sweep_01", "reactive"),
        ("finance_basic_01", "directed_idle"),
        ("finance_basic_01", "reactive"),
    ]


def test_run_many_skip(finance_scenario, sweep_scenario):
    outcomes = run_many(
        [finance_scenario, sweep_scenario],
        ["directed_idle", "reactive"],
        skip={("finance_basic_01", "reactive")},
    )
    keys = [(o.result.scenario_id, o.result.condition) for o in outcomes]
    assert ("finance_basic_01", "reactive") not in keys
    assert len(keys) == 3


def test_run_many_parallel_equivalence(finance_scenario, sweep_scenario):
    serial_cfg = RunConfig(parallel=1)
    parallel_cfg = RunConfig(parallel=4)
    conditions = ["reactive", "directed_idle", "undirected_idle"]
    serial = run_many([finance_scenario, sweep_scenario], conditions, serial_cfg)
    parallel = run_many([finance_scenario, sweep_scenario], conditions, parallel_cfg)
    assert [o.to_dict() for o in serial] == [o.to_dict() for o in parallel]


def test_budget_zero_disables_acquisition(finance_scenario):
    cfg = RunConfig(budget_k=0)
    outcome = run_scenario(finance_scenario, "directed_idle", cfg)
    assert outcome.result.status == "completed"
    # no acquisitions: no artifacts, no pushes, nothing anticipated
    assert all(t.pushes == () for t in outcome.result.turns)
    assert outcome.metrics.anticipation_recall == 0.0
    assert all(r.kind != "artifact" for r in outcome.memory.active_records())


def test_run_config_validation():
    from foresight.acquisition import ConfigurationError

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
    cfg = RunConfig()
    assert cfg.seed == 42
    assert cfg.horizon == 12
    assert cfg.budget_k == 3
    assert dataclasses.asdict(cfg.weights) == {
        "relevance": 0.25, "knowledge_gap": 0.25, "incremental_value": 0.25, "timeliness": 0.25,
    }


def test_conditions_vocabulary_is_the_condition_enum():
    import foresight
    from foresight import config

    assert foresight.Condition is Condition is config.Condition
    assert config.VALID_CONDITIONS == ("reactive", "undirected_idle", "directed_idle")
    assert RunConfig().conditions == tuple(c.value for c in Condition)
