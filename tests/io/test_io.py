"""Tests for JSON and CSV serialisation."""

import json

import pytest

from repro.core import Assignment, FlexOffer, SerializationError, TimeSeries
from repro.io import (
    assignment_from_dict,
    assignment_to_dict,
    event_from_dict,
    flexoffer_from_dict,
    flexoffer_to_dict,
    flexoffers_from_csv,
    flexoffers_from_json,
    flexoffers_to_csv,
    flexoffers_to_json,
    measurements_to_csv,
    read_flexoffers_csv,
    schedule_from_dict,
    schedule_to_dict,
    timeseries_from_dict,
    timeseries_to_dict,
    write_flexoffers_csv,
)
from repro.scheduling import EarliestStartScheduler


class TestJsonRoundTrips:
    def test_flexoffer_round_trip(self, fig1, fig7_f6):
        for flex_offer in (fig1, fig7_f6):
            assert flexoffer_from_dict(flexoffer_to_dict(flex_offer)) == flex_offer

    def test_flexoffers_json_round_trip(self, fig1, fig5_f4):
        text = flexoffers_to_json([fig1, fig5_f4])
        parsed = flexoffers_from_json(text)
        assert parsed == [fig1, fig5_f4]
        assert isinstance(json.loads(text), list)

    def test_timeseries_round_trip(self):
        series = TimeSeries(3, (1, -2, 0))
        assert timeseries_from_dict(timeseries_to_dict(series)) == series

    def test_assignment_round_trip(self, fig1):
        assignment = Assignment(fig1, 2, (2, 3, 1, 2))
        restored = assignment_from_dict(assignment_to_dict(assignment))
        assert restored.start_time == 2
        assert restored.values == (2, 3, 1, 2)
        assert restored.flex_offer == fig1

    def test_schedule_round_trip(self, fig1, fig5_f4):
        schedule = EarliestStartScheduler().schedule([fig1, fig5_f4])
        restored = schedule_from_dict(schedule_to_dict(schedule))
        assert len(restored) == 2
        assert restored.total_energy() == schedule.total_energy()

    def test_malformed_payloads_raise_serialization_error(self):
        with pytest.raises(SerializationError):
            flexoffer_from_dict({"earliest_start": 0})
        with pytest.raises(SerializationError):
            flexoffers_from_json("{not json")
        with pytest.raises(SerializationError):
            flexoffers_from_json('{"a": 1}')
        with pytest.raises(SerializationError):
            timeseries_from_dict({"start": "x"})
        with pytest.raises(SerializationError):
            assignment_from_dict({"start_time": 1})
        with pytest.raises(SerializationError):
            schedule_from_dict({})

    # Decoders must not coerce: int(2.9) == 2, int(True) == 1 and
    # int("3") == 3 would each turn a malformed document into a valid one.
    NOT_INTS = [2.9, True, "3"]

    @pytest.mark.parametrize("bad", NOT_INTS)
    @pytest.mark.parametrize("field", ["earliest_start", "latest_start"])
    def test_flexoffer_start_times_are_not_coerced(self, fig1, field, bad):
        payload = flexoffer_to_dict(fig1)
        payload[field] = bad
        with pytest.raises(SerializationError, match="must be an int"):
            flexoffer_from_dict(payload)

    @pytest.mark.parametrize("bad", NOT_INTS)
    def test_timeseries_start_is_not_coerced(self, bad):
        with pytest.raises(SerializationError, match="must be an int"):
            timeseries_from_dict({"start": bad, "values": [1, 2]})

    @pytest.mark.parametrize("bad", NOT_INTS)
    def test_assignment_start_time_is_not_coerced(self, fig1, bad):
        payload = assignment_to_dict(Assignment(fig1, 2, (2, 3, 1, 2)))
        payload["start_time"] = bad
        with pytest.raises(SerializationError, match="must be an int"):
            assignment_from_dict(payload)

    @pytest.mark.parametrize("bad", NOT_INTS)
    def test_tick_time_is_not_coerced(self, bad):
        with pytest.raises(SerializationError, match="must be an int"):
            event_from_dict({"kind": "tick", "time": bad})


class TestCsv:
    def test_csv_round_trip(self, fig1, fig6_f5, fig7_f6):
        text = flexoffers_to_csv([fig1, fig6_f5, fig7_f6])
        parsed = flexoffers_from_csv(text)
        assert parsed == [fig1, fig6_f5, fig7_f6]

    def test_csv_file_round_trip(self, tmp_path, fig1):
        path = tmp_path / "offers.csv"
        write_flexoffers_csv(path, [fig1])
        assert read_flexoffers_csv(path) == [fig1]

    def test_unnamed_flexoffer_round_trips_with_none_name(self):
        anonymous = FlexOffer(0, 1, [(0, 2)])
        parsed = flexoffers_from_csv(flexoffers_to_csv([anonymous]))
        assert parsed[0].name is None
        assert parsed[0] == anonymous

    def test_malformed_profile_rejected(self):
        text = (
            "name,earliest_start,latest_start,profile,total_energy_min,total_energy_max\n"
            "bad,0,1,oops,0,1\n"
        )
        with pytest.raises(SerializationError):
            flexoffers_from_csv(text)

    def test_measurements_to_csv(self):
        rows = [{"measure": "product", "value": 60}, {"measure": "time", "value": 5}]
        text = measurements_to_csv(rows)
        assert text.splitlines()[0] == "measure,value"
        assert "product,60" in text

    def test_measurements_to_csv_empty(self):
        assert measurements_to_csv([]) == ""
