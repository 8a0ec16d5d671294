"""The :mod:`repro.hooks` slot contract, shared by every hook client:
uses nest and restore the outer value (also on an exception),
``use(None)`` suppresses, and :func:`~repro.hooks.instrumented` leaves
a slot alone when it is given nothing to install there."""

from __future__ import annotations

import pytest

from repro.hooks import (DEVICE_FAULTS, DISK_FAULTS, JOB_FAULTS, SANITIZER,
                         TRACER, instrumented)
from repro.resilience import Resilience


@pytest.mark.parametrize(
    "slot", [SANITIZER, TRACER, DEVICE_FAULTS, JOB_FAULTS, DISK_FAULTS],
    ids=lambda slot: slot.name)
def test_slot_contract(slot):
    outer, inner = object(), object()
    assert slot.value is None
    with slot.use(outer) as got:
        assert got is outer and slot.value is outer
        with slot.use(inner):
            assert slot.value is inner
        assert slot.value is outer

        with pytest.raises(KeyError):
            with slot.use(inner):
                raise KeyError("boom")
        assert slot.value is outer

        with instrumented(sanitizer=None, tracer=None, resilience=None):
            assert slot.value is outer
        with instrumented(resilience=Resilience()):   # no fault plan
            assert slot.value is outer

        with slot.use(None):
            assert slot.value is None
        assert slot.value is outer
    assert slot.value is None
