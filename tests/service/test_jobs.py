"""Job model: spec validation, point expansion, lifecycle states."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.service.jobs import (
    Job,
    JobSpec,
    JobState,
    TERMINAL_STATES,
    spec_from_payload,
    spec_points,
)


def _spec(**overrides):
    fields = dict(kind="simulate", payload={"kernel": "copy", "stride": 1})
    fields.update(overrides)
    return JobSpec(**fields)


class TestSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            _spec(kind="fold-proteins")

    def test_non_dict_payload_rejected(self):
        with pytest.raises(ConfigurationError):
            _spec(payload=["not", "a", "dict"])

    def test_empty_tenant_rejected(self):
        with pytest.raises(ConfigurationError):
            _spec(tenant="")

    def test_non_positive_deadline_rejected(self):
        with pytest.raises(ConfigurationError):
            _spec(deadline_seconds=0)
        with pytest.raises(ConfigurationError):
            _spec(deadline_seconds=-1.0)

    def test_from_payload_defaults(self):
        spec = spec_from_payload({"kind": "grid"})
        assert spec.kind == "grid"
        assert spec.tenant == "default"
        assert spec.deadline_seconds is None

    def test_from_payload_rejects_non_dict(self):
        with pytest.raises(ConfigurationError):
            spec_from_payload("grid")


class TestSpecPoints:
    def test_simulate_is_one_point(self):
        points = spec_points(
            _spec(
                payload={
                    "system": "cacheline-serial",
                    "kernel": "scale",
                    "stride": 19,
                    "elements": 128,
                }
            )
        )
        assert len(points) == 1
        assert points[0].system == "cacheline-serial"
        assert points[0].trace.kernel == "scale"
        assert points[0].trace.stride == 19

    def test_grid_is_the_cross_product(self):
        points = spec_points(
            JobSpec(
                kind="grid",
                payload={
                    "systems": ["pva-sdram", "cacheline-serial"],
                    "kernels": ["copy", "scale", "saxpy"],
                    "strides": [1, 19],
                    "elements": 64,
                },
            )
        )
        assert len(points) == 2 * 3 * 2
        # Deterministic product order: the journal-replayed job must
        # rebuild the exact same index -> point mapping.
        assert points[0].system == "pva-sdram"
        assert points[-1].system == "cacheline-serial"
        assert all(point.trace.elements == 64 for point in points)

    def test_grid_scalar_fields_are_promoted_to_lists(self):
        points = spec_points(
            JobSpec(kind="grid", payload={"kernels": "copy", "strides": 4})
        )
        assert len(points) == 1

    def test_grid_empty_list_rejected(self):
        with pytest.raises(ConfigurationError):
            spec_points(JobSpec(kind="grid", payload={"kernels": []}))

    def test_bench_has_no_point_expansion(self):
        with pytest.raises(ConfigurationError):
            spec_points(JobSpec(kind="bench", payload={}))

    def test_params_document_configures_every_point(self):
        from repro.params import SystemParams

        params = SystemParams(
            num_banks=8, num_channels=2, sim_mode="reference"
        )
        points = spec_points(
            JobSpec(
                kind="grid",
                payload={
                    "kernels": ["copy", "scale"],
                    "strides": [1, 19],
                    "params": params.to_dict(),
                },
            )
        )
        assert len(points) == 4
        for point in points:
            assert point.params == params
            assert point.params.config_key() == params.config_key()

    def test_params_document_survives_a_json_round_trip(self):
        # The journal stores the payload as JSON; replay must rebuild
        # the identical configuration.
        from repro.params import SystemParams

        params = SystemParams(num_channels=2, row_policy="close")
        payload = json.loads(
            json.dumps({"kernel": "copy", "params": params.to_dict()})
        )
        (point,) = spec_points(_spec(payload=payload))
        assert point.params == params

    def test_bad_params_document_rejected(self):
        with pytest.raises(ConfigurationError):
            spec_points(
                _spec(payload={"kernel": "copy", "params": {"turbo": 1}})
            )


class TestJobLifecycle:
    def test_starts_queued_with_a_short_id(self):
        job = Job(_spec())
        assert job.state == JobState.QUEUED
        assert not job.terminal
        assert len(job.id) == 12

    def test_mark_running_then_terminal(self):
        job = Job(_spec())
        job.mark_running()
        assert job.state == JobState.RUNNING
        assert job.started_at is not None
        job.mark_terminal(JobState.DONE, result={"cycles": [145]})
        assert job.terminal
        assert job.finished_at is not None
        assert job.result == {"cycles": [145]}

    def test_mark_terminal_rejects_non_terminal_states(self):
        job = Job(_spec())
        with pytest.raises(ConfigurationError):
            job.mark_terminal(JobState.RUNNING)

    def test_terminal_states_are_exactly_the_resting_ones(self):
        assert TERMINAL_STATES == {
            JobState.DONE,
            JobState.FAILED,
            JobState.CANCELLED,
        }

    def test_cancel_and_shutdown_are_independent_flags(self):
        job = Job(_spec())
        assert not job.cancel_requested and not job.shutdown_requested
        job.request_cancel()
        assert job.cancel_requested and not job.shutdown_requested
        job.request_shutdown()
        assert job.shutdown_requested

    def test_requeue_resets_to_queued(self):
        job = Job(_spec())
        job.mark_running()
        job.mark_requeued()
        assert job.state == JobState.QUEUED
        assert job.started_at is None
        assert not job.terminal

    def test_deadline_only_ticks_once_started(self):
        job = Job(_spec(deadline_seconds=0.0001))
        assert not job.deadline_expired()  # not started yet
        job.mark_running()
        job.started_at -= 1.0
        assert job.deadline_expired()

    def test_no_deadline_never_expires(self):
        job = Job(_spec())
        job.mark_running()
        job.started_at -= 10_000
        assert not job.deadline_expired()

    def test_describe_is_json_safe(self):
        job = Job(_spec(), recovered=True)
        job.mark_terminal(JobState.FAILED, error="boom")
        snapshot = json.loads(json.dumps(job.describe()))
        assert snapshot["state"] == JobState.FAILED
        assert snapshot["recovered"] is True
        assert snapshot["error"] == "boom"
        assert snapshot["spec"]["kind"] == "simulate"
