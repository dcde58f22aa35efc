"""Tests for the exception hierarchy."""

from __future__ import annotations

import pytest

from repro.exceptions import (
    DataValidationError,
    DeviceError,
    DeviceOutOfMemoryError,
    EmulationError,
    KernelLaunchError,
    ParameterError,
    ReproError,
)


@pytest.mark.parametrize(
    "exc",
    [
        ParameterError,
        DataValidationError,
        DeviceError,
        DeviceOutOfMemoryError,
        KernelLaunchError,
        EmulationError,
    ],
)
def test_all_derive_from_repro_error(exc):
    assert issubclass(exc, ReproError)


def test_parameter_error_is_value_error():
    assert issubclass(ParameterError, ValueError)


def test_data_validation_error_is_value_error():
    assert issubclass(DataValidationError, ValueError)


def test_device_errors_are_runtime_errors():
    assert issubclass(DeviceError, RuntimeError)
    assert issubclass(DeviceOutOfMemoryError, DeviceError)
    assert issubclass(KernelLaunchError, DeviceError)


def test_oom_carries_sizes():
    err = DeviceOutOfMemoryError(requested=100, free=10, total=50)
    assert err.requested == 100
    assert err.free == 10
    assert err.total == 50
    assert "100" in str(err) and "50" in str(err)
