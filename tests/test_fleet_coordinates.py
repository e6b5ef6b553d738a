"""Spatial fault coordinates: round trips, goldens, and spatial models.

Three pins on the coordinate extension of the fleet pipeline:

* **golden bit-identity** — the sub-device coordinates are drawn from
  their own derived seed stream, so every rank-level artifact a
  pre-coordinate checkout produced is reproduced byte for byte. The
  hashes below were captured *before* the coordinate arrays existed;
  a divergence means the rank-level draw order changed.
* **round trips and validation** — hypothesis-driven batch<->history
  conversions carry ``bank``/``row``/``column`` exactly, and
  structurally invalid coordinates are rejected.
* **spatial models** — ``multi-row-cluster``/``retention-cluster``/
  ``bank-wear`` concentrate only the sub-device coordinates; the
  rank-level arrays are bit-identical with and without a model.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.lifetime import FaultEvent
from repro.faults.types import FaultType
from repro.fleet.engine import sample_block
from repro.fleet.events import FaultEventBatch
from repro.fleet.policies import plan_fleet_compare
from repro.fleet.report import plan_fleet
from repro.fleet.scenario_file import scenario_from_mapping, scenario_to_mapping
from repro.fleet.scenarios import SPATIAL_KINDS, SpatialFaultModel
from repro.runner.executor import execute_plan

# -- golden bit-identity ------------------------------------------------------

#: sha256 of rank-level outputs captured on the pre-coordinate engine.
RANK_LEVEL_GOLDENS = {
    "block_11": (
        "58961d492ab306aaf4929b1d786c9a43f9b969eadf1a5b2655c43be7b2cb98ad"
    ),
    "block_burnin": (
        "51f024fd1407481e9df89d94d29164afdb6a8e4ed7a47cabbd600ae3453c7d68"
    ),
    "fleet_table": (
        "efbac2eb27d30d76636ab1d1a2312850ded1f0c9692d9a27f831c44728a06dae"
    ),
    "compare_rank_level": (
        "0e9e44aad1e2ced7bb0293075449fa26e2e085933ac13c08df36ff573e6cad38"
    ),
}


def _rank_level_digest(batch: FaultEventBatch) -> str:
    import hashlib

    h = hashlib.sha256()
    for name in ("offsets", "time_hours", "type_code", "channel", "rank", "device"):
        h.update(np.ascontiguousarray(getattr(batch, name)).tobytes())
    return h.hexdigest()


class TestRankLevelGoldens:
    def test_sample_block_is_bit_identical_to_pre_coordinate_engine(self):
        batch = sample_block(11, 256, 7.0, rate_multiplier=8.0)
        assert _rank_level_digest(batch) == RANK_LEVEL_GOLDENS["block_11"]

    def test_burn_in_schedule_is_bit_identical(self):
        batch = sample_block(
            99,
            128,
            4.0,
            rate_multiplier=10.0,
            phases=((0.0, 0.5, 4.0), (0.5, 3.5, 1.0)),
        )
        assert _rank_level_digest(batch) == RANK_LEVEL_GOLDENS["block_burnin"]

    def test_fleet_report_table_is_bit_identical(self):
        import hashlib

        report = execute_plan(
            plan_fleet("mixed-generations", channels=1500, seed=0xBEEF)
        )
        digest = hashlib.sha256(report.to_table().encode()).hexdigest()
        assert digest == RANK_LEVEL_GOLDENS["fleet_table"]

    def test_policy_compare_rank_level_fields_are_bit_identical(self):
        """Power/performance overheads never consult the sub-device
        coordinates, so they reproduce the pre-coordinate values even
        though the uncorrectable screen itself became exact."""
        import hashlib

        compare = execute_plan(
            plan_fleet_compare(
                "mixed-generations",
                channels=1200,
                seed=0xC0FFEE,
            )
        )
        digest = hashlib.sha256(
            repr(
                [
                    (
                        r.policy,
                        r.slice_name,
                        r.power_overhead,
                        r.performance_overhead,
                    )
                    for r in compare.slices
                ]
            ).encode()
        ).hexdigest()
        assert digest == RANK_LEVEL_GOLDENS["compare_rank_level"]


# -- hypothesis round trips and validation ------------------------------------

_events = st.lists(
    st.builds(
        FaultEvent,
        time_hours=st.floats(0.0, 1e5, allow_nan=False),
        fault_type=st.sampled_from(list(FaultType)),
        channel=st.integers(0, 3),
        rank=st.integers(0, 3),
        device=st.integers(0, 35),
        bank=st.integers(0, 7),
        row=st.integers(0, 16383),
        column=st.integers(0, 2047),
    ),
    max_size=6,
).map(lambda evs: sorted(evs, key=lambda e: e.time_hours))

_histories = st.lists(_events, max_size=5)


class TestCoordinateRoundTrips:
    @settings(max_examples=60, deadline=None)
    @given(histories=_histories)
    def test_batch_history_round_trip_is_exact(self, histories):
        batch = FaultEventBatch.from_histories(histories)
        batch.validate()
        assert batch.to_histories() == [list(evs) for evs in histories]
        assert FaultEventBatch.from_histories(batch.to_histories()) == batch

    def test_coordinates_are_required(self):
        """Every producer carries bank/row/column, so a batch built
        without them is a construction error, not a zero-filled batch."""
        batch = sample_block(3, 64, 5.0, rate_multiplier=12.0)
        for name in ("bank", "row", "column"):
            fields = {
                f.name: getattr(batch, f.name)
                for f in dataclasses.fields(batch)
                if f.init and f.name != name
            }
            with pytest.raises(TypeError, match=name):
                FaultEventBatch(**fields)

    def test_negative_coordinates_are_rejected(self):
        batch = sample_block(3, 64, 5.0, rate_multiplier=12.0)
        for name in ("bank", "row", "column"):
            bad = dataclasses.replace(
                batch, **{name: getattr(batch, name) - 10**6}
            )
            with pytest.raises(ValueError, match=name):
                bad.validate()

    def test_coordinate_length_mismatch_is_rejected(self):
        batch = sample_block(3, 64, 5.0, rate_multiplier=12.0)
        bad = dataclasses.replace(batch, row=batch.row[:-1])
        with pytest.raises(ValueError, match="row length"):
            bad.validate()


# -- spatial fault models -----------------------------------------------------


def _spatial(kind: str) -> SpatialFaultModel:
    return SpatialFaultModel(kind=kind, fraction=1.0, banks=2, rows=8, columns=8)


class TestSpatialModels:
    @pytest.mark.parametrize("kind", SPATIAL_KINDS)
    def test_rank_level_arrays_are_invariant_under_spatial(self, kind):
        plain = sample_block(21, 192, 6.0, rate_multiplier=10.0)
        shaped = sample_block(
            21, 192, 6.0, rate_multiplier=10.0,
            spatial=dataclasses.asdict(_spatial(kind)),
        )
        assert _rank_level_digest(shaped) == _rank_level_digest(plain)

    def test_multi_row_cluster_concentrates_banks_and_rows(self):
        shaped = sample_block(
            21, 512, 6.0, rate_multiplier=20.0,
            spatial=dataclasses.asdict(_spatial("multi-row-cluster")),
        )
        assert shaped.num_events > 50
        assert int(shaped.bank.max()) < 2
        assert int(shaped.row.max()) < 8
        # Columns stay uniform: the window is far wider than 8.
        assert int(shaped.column.max()) >= 8

    def test_retention_cluster_concentrates_columns_too(self):
        shaped = sample_block(
            21, 512, 6.0, rate_multiplier=20.0,
            spatial=dataclasses.asdict(_spatial("retention-cluster")),
        )
        assert int(shaped.column.max()) < 8

    def test_bank_wear_leaves_rows_uniform(self):
        shaped = sample_block(
            21, 512, 6.0, rate_multiplier=20.0,
            spatial=dataclasses.asdict(_spatial("bank-wear")),
        )
        assert int(shaped.bank.max()) < 2
        assert int(shaped.row.max()) >= 8

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ValueError, match="unknown spatial kind"):
            SpatialFaultModel(kind="meteor-strike")

    @pytest.mark.parametrize(
        "field, value",
        [("fraction", 0.0), ("fraction", 1.5), ("banks", 0), ("rows", 0)],
    )
    def test_invalid_extents_are_rejected(self, field, value):
        with pytest.raises(ValueError):
            SpatialFaultModel(kind="bank-wear", **{field: value})

    def test_scenario_mapping_round_trips_spatial_models(self):
        from repro.fleet.scenarios import FleetScenario, SubPopulation

        model = SpatialFaultModel(
            kind="retention-cluster",
            fraction=0.25,
            banks=2,
            rows=32,
            columns=16,
        )
        scenario = FleetScenario(
            name="spatial-rt",
            description="spatial round trip",
            populations=(
                SubPopulation(name="hot", channels=64, spatial=model),
            ),
        )
        mapping = scenario_to_mapping(scenario)
        assert mapping["populations"][0]["spatial"] == dataclasses.asdict(model)
        rebuilt = scenario_from_mapping(mapping)
        assert rebuilt.scenario.populations[0].spatial == model
        assert rebuilt.scenario == scenario

    def test_wear_out_scenario_reports_end_to_end(self):
        report = execute_plan(
            plan_fleet("wear-out", channels=300, seed=0xFADE)
        )
        assert {p.name for p in report.subpopulations} == {
            "steady",
            "row-clusters",
            "retention",
        }
