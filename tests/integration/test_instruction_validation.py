"""The Section 2.3 validation sweep: all 156 instructions pass.

Each implemented instruction gets a generated microbenchmark, runs on
a full compute unit, and its architectural effects are compared with
an oracle written independently of the simulator's semantics module.
"""

import pytest

from repro.isa.categories import FunctionalUnit
from repro.isa.tables import ISA
from repro.validation import (
    ValidationRecord,
    report,
    validate_all,
    validate_instruction,
)


@pytest.fixture(scope="module")
def records():
    return validate_all()


def test_every_implemented_instruction_validates(records):
    failed = [r for r in records if not r.passed]
    assert not failed, "\n" + report(records)
    assert len(records) == 156


def test_sweep_covers_all_units(records):
    validated = {r.name for r in records}
    for unit in FunctionalUnit:
        for spec in ISA.for_unit(unit):
            assert spec.name in validated, spec.name


@pytest.mark.parametrize("name", [
    # One representative per validator family, run standalone so a
    # regression pinpoints the family immediately.
    "s_add_u32", "s_and_b64", "s_movk_i32", "s_cmp_lt_i32",
    "s_and_saveexec_b64", "s_cbranch_scc1", "s_waitcnt",
    "v_mad_f32", "v_cmp_gt_u32", "v_cndmask_b32", "v_addc_u32",
    "v_mac_f32", "v_rcp_f32",
    "s_load_dwordx4", "s_buffer_load_dword", "buffer_load_sbyte",
    "tbuffer_store_format_xy", "ds_read2_b32", "ds_add_u32",
])
def test_family_representatives(name):
    record = validate_instruction(name)
    assert record.passed, record


def test_validator_reports_failures_cleanly(monkeypatch):
    """A broken semantic must surface as FAIL, not crash the sweep.

    ``v_and_b32``'s emitted form computes the ufunc of the shared
    ``vector.UFUNC_IMPL`` table in place, bound when the program is
    prepared, so the fault goes into that table and the
    prepared-program cache is cleared around it: the sweep must run an
    executor built with it, and later tests must not.
    """
    import numpy as np

    from repro.cu import vector
    from repro.cu.prepared import clear_prepared_cache

    monkeypatch.setitem(vector.UFUNC_IMPL, "v_and_b32",
                        np.bitwise_or)  # wrong on purpose
    clear_prepared_cache()
    try:
        record = validate_instruction("v_and_b32")
    finally:
        clear_prepared_cache()
    assert not record.passed
    assert "want" in record.detail


def test_report_rendering(records):
    text = report(records)
    assert "156 passed" in text
    bad = report([ValidationRecord("v_bogus", False, "boom")])
    assert "FAIL v_bogus" in bad
