"""Unit tests of the fault-plan model: rules, windows, determinism, specs."""

from __future__ import annotations

import json
import sys

import pytest

from repro.faults import (
    ALL_SITES,
    FaultInjected,
    FaultPlan,
    FaultRule,
    WAL_FSYNC,
)
from repro.faults.plan import _error_name, _resolve_error
from repro.server import GatewayConfig
from repro.service import SessionConfig
from repro.service.config import ENV_FAULTS, fault_plan_from_env


class TestFaultRule:
    def test_defaults_raise_fault_injected_on_the_first_hit(self):
        rule = FaultRule(WAL_FSYNC)
        assert rule.action == "raise"
        assert rule.error is FaultInjected
        assert rule.matches(1)
        assert not rule.matches(2)

    def test_window_selects_hits_after_through_count(self):
        rule = FaultRule(WAL_FSYNC, after=3, count=2)
        assert [rule.matches(hit) for hit in range(1, 7)] == [
            False, False, True, True, False, False,
        ]

    def test_open_ended_window_with_count_none(self):
        rule = FaultRule(WAL_FSYNC, after=2, count=None)
        assert not rule.matches(1)
        assert all(rule.matches(hit) for hit in range(2, 50))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"action": "explode"},
            {"after": 0},
            {"count": 0},
            {"delay_s": -0.1},
            {"probability": 1.5},
            {"probability": -0.1},
            {"error": "NoSuchError"},
            {"error": 42},
            # A BaseException outside Exception escapes every error
            # boundary and would stop the process the plan was loaded into.
            {"error": "SystemExit"},
            {"error": "KeyboardInterrupt"},
            {"error": GeneratorExit},
            # A class whose spec string would not load back: a saved
            # config carrying the plan would fail to recover.
            {"error": type("Local", (RuntimeError,), {})},
        ],
    )
    def test_invalid_parameters_are_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultRule(WAL_FSYNC, **kwargs)

    def test_spec_round_trip(self):
        rule = FaultRule(
            WAL_FSYNC, after=2, count=None, probability=0.5
        )
        rebuilt = FaultRule.from_spec(rule.spec())
        assert rebuilt == rule

    def test_spec_round_trip_for_builtin_and_dotted_errors(self):
        for error in (OSError, FaultInjected):
            rule = FaultRule(WAL_FSYNC, error=error)
            assert FaultRule.from_spec(rule.spec()).error is error
        dotted = FaultRule(WAL_FSYNC, error="repro.core.errors.BackendError")
        assert FaultRule.from_spec(dotted.spec()).error is dotted.error

    def test_from_spec_rejects_non_specs(self):
        with pytest.raises(ValueError):
            FaultRule.from_spec({"action": "raise"})  # no site
        with pytest.raises(ValueError):
            FaultRule.from_spec({"site": WAL_FSYNC, "bogus": 1})
        with pytest.raises(ValueError):
            FaultRule.from_spec("wal.fsync")

    def test_error_name_helpers(self):
        assert _error_name(FaultInjected) == "FaultInjected"
        assert _error_name(OSError) == "OSError"
        assert "." in _error_name(type("Weird", (RuntimeError,), {}))
        assert _resolve_error(OSError) is OSError
        with pytest.raises(ValueError):
            _resolve_error(int)  # a class, but not an exception
        with pytest.raises(ValueError):
            _resolve_error("no.such.module.Error")

    def test_dotted_names_resolve_only_under_repro(self, monkeypatch):
        monkeypatch.delitem(sys.modules, "smtplib", raising=False)
        with pytest.raises(ValueError):
            FaultRule(WAL_FSYNC, error="smtplib.SMTPException")
        assert "smtplib" not in sys.modules


class TestFaultPlan:
    def test_fire_counts_hits_and_raises_in_the_window(self):
        plan = FaultPlan([FaultRule(WAL_FSYNC, after=2, count=1)])
        assert plan.fire(WAL_FSYNC) is None
        with pytest.raises(FaultInjected, match="hit 2"):
            plan.fire(WAL_FSYNC)
        assert plan.fire(WAL_FSYNC) is None  # window exhausted
        assert plan.stats()["hits"] == {WAL_FSYNC: 3}
        assert plan.stats()["fired"] == {WAL_FSYNC: 1}

    def test_unrelated_sites_never_fire(self):
        plan = FaultPlan([FaultRule(WAL_FSYNC)])
        for site in ALL_SITES:
            if site != WAL_FSYNC:
                assert plan.fire(site) is None

    def test_kill_rules_load_as_fault_injected_raises(self):
        rule = FaultRule(WAL_FSYNC, action="kill")
        assert rule == FaultRule(WAL_FSYNC)
        assert rule.spec() == {
            "site": WAL_FSYNC, "action": "raise", "error": "FaultInjected"
        }
        # Plans saved while "kill" was a distinct action still load.
        plan = FaultPlan.from_spec([{"site": WAL_FSYNC, "action": "kill"}])
        with pytest.raises(FaultInjected):
            plan.fire(WAL_FSYNC)
        assert plan.fire(WAL_FSYNC) is None

    def test_delay_rules_sleep_and_return_none(self):
        plan = FaultPlan([FaultRule(WAL_FSYNC, action="delay", delay_s=0.0)])
        assert plan.fire(WAL_FSYNC) is None
        assert plan.stats()["fired"] == {WAL_FSYNC: 1}

    def test_probability_is_deterministic_under_the_seed(self):
        def decisions(seed: int) -> list:
            plan = FaultPlan(
                [FaultRule(WAL_FSYNC, count=None, probability=0.5)], seed=seed
            )
            outcome = []
            for _ in range(64):
                try:
                    plan.fire(WAL_FSYNC)
                    outcome.append(False)
                except FaultInjected:
                    outcome.append(True)
            return outcome

        assert decisions(7) == decisions(7)
        assert decisions(7) != decisions(8)
        assert any(decisions(7)) and not all(decisions(7))

    def test_first_matching_rule_wins(self):
        plan = FaultPlan(
            [
                FaultRule(WAL_FSYNC, error=KeyError),
                FaultRule(WAL_FSYNC, error=OSError, count=None),
            ]
        )
        with pytest.raises(KeyError):
            plan.fire(WAL_FSYNC)
        with pytest.raises(OSError):
            plan.fire(WAL_FSYNC)

    def test_spec_round_trip_including_json_string(self):
        plan = FaultPlan(
            [FaultRule(WAL_FSYNC, after=2), FaultRule("shard.submit")], seed=3
        )
        assert FaultPlan.from_spec(plan.spec()).spec() == plan.spec()
        assert FaultPlan.from_spec(json.dumps(plan.spec())).spec() == plan.spec()

    def test_from_spec_accepts_a_bare_rule_list(self):
        plan = FaultPlan.from_spec([{"site": WAL_FSYNC}])
        assert len(plan.rules) == 1
        assert plan.seed == 0

    def test_from_spec_accepts_rule_dicts_in_the_constructor(self):
        plan = FaultPlan([{"site": WAL_FSYNC, "after": 4}])
        assert plan.rules[0] == FaultRule(WAL_FSYNC, after=4)

    @pytest.mark.parametrize(
        "payload",
        ["{not json", 42, {"seed": 1, "bogus": []}],
    )
    def test_from_spec_rejects_malformed_payloads(self, payload):
        with pytest.raises(ValueError):
            FaultPlan.from_spec(payload)

    def test_from_env_round_trip(self, monkeypatch):
        # REPRO_FAULTS is parsed by the configuration layer, the default of
        # both SessionConfig and GatewayConfig.
        monkeypatch.delenv(ENV_FAULTS, raising=False)
        assert fault_plan_from_env() is None
        monkeypatch.setenv(ENV_FAULTS, "   ")
        assert fault_plan_from_env() is None
        spec = {"seed": 5, "rules": [{"site": WAL_FSYNC, "after": 2}]}
        monkeypatch.setenv(ENV_FAULTS, json.dumps(spec))
        expected = FaultPlan.from_spec(spec).spec()
        assert fault_plan_from_env().spec() == expected
        assert SessionConfig(backend="reference").fault_plan.spec() == expected
        assert GatewayConfig().fault_plan.spec() == expected

    def test_from_env_warns_and_ignores_malformed_values(self, monkeypatch):
        monkeypatch.setenv(ENV_FAULTS, "{broken")
        with pytest.warns(RuntimeWarning, match=ENV_FAULTS):
            assert fault_plan_from_env() is None
        with pytest.warns(RuntimeWarning, match=ENV_FAULTS):
            assert SessionConfig(backend="reference").fault_plan is None
        with pytest.warns(RuntimeWarning, match=ENV_FAULTS):
            assert GatewayConfig().fault_plan is None

    def test_injected_error_is_an_oserror(self):
        # The persistence layer suspends on OSError: the default error
        # must reach that behaviour through its real except clause.
        assert issubclass(FaultInjected, OSError)
