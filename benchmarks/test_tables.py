"""Tables 7.1-7.4: configuration tables regenerated from live objects."""

from conftest import emit

from repro.config import ARCC_MEMORY_CONFIG, BASELINE_MEMORY_CONFIG
from repro.experiments.tables import (
    render_table_7_1,
    render_table_7_2,
    render_table_7_3,
    render_table_7_4,
)
from repro.faults.models import upgraded_page_fraction
from repro.faults.types import FaultType


def test_table_7_1_memory_configurations(once):
    table = once(render_table_7_1)
    emit("Table 7.1: Memory Configurations", table)
    # Paper rows: Baseline DDR2 X4 / 2 chan / 1 rank / 36; ARCC X8 / 2 / 2 / 18.
    assert BASELINE_MEMORY_CONFIG.devices_per_rank == 36
    assert ARCC_MEMORY_CONFIG.devices_per_rank == 18
    assert BASELINE_MEMORY_CONFIG.total_devices == (
        ARCC_MEMORY_CONFIG.total_devices
    )


def test_table_7_2_processor(once):
    table = once(render_table_7_2)
    emit("Table 7.2: Processor Microarchitecture", table)
    assert "2" in table and "16" in table


def test_table_7_3_workloads(once):
    table = once(render_table_7_3)
    emit("Table 7.3: Workloads", table)
    assert table.count("Mix") >= 12


def test_table_7_4_fault_modeling(once):
    table = once(render_table_7_4)
    emit("Table 7.4: Fault Modeling Details", table)
    # The paper's exact fractions.
    assert upgraded_page_fraction(FaultType.LANE) == 1.0
    assert upgraded_page_fraction(FaultType.DEVICE) == 0.5
    assert upgraded_page_fraction(FaultType.BANK) == 1 / 16
    assert upgraded_page_fraction(FaultType.COLUMN) == 1 / 32
