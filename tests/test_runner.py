"""Tests for the parallel experiment runner (jobs, cache, executor)."""

import dataclasses
import enum
import hashlib
import json
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import ARCC_MEMORY_CONFIG
from repro.faults.types import FaultType
from repro.runner.cache import ResultCache
from repro.runner.executor import execute_plan, execute_plans, run_jobs
from repro.runner.job import (
    ExperimentPlan,
    Job,
    describe_value,
    encode_job,
    encode_value,
    job_identity,
)


def _square(x, seed=0):
    return x * x + seed


def _record(x, seed=0, path=None):
    """Worker with an observable side effect (for cache-hit counting)."""
    if path is not None:
        with open(path, "a") as handle:
            handle.write(f"{x}\n")
    return x + seed


def _boom(x, seed=0):
    raise RuntimeError("boom")


@dataclasses.dataclass(frozen=True)
class _Volts:
    level: float


@dataclasses.dataclass(frozen=True)
class _Amps:
    level: float


@dataclasses.dataclass(frozen=True)
class _Reading:
    sensor: object


@dataclasses.dataclass(frozen=True)
class _Pair:
    """Frozen; ``Zed`` sorts before ``__dataclass__``, ``alpha`` after."""

    Zed: object
    alpha: object


@dataclasses.dataclass
class _Box:
    """Not frozen: its description can change between batches."""

    item: object


class _Color(enum.Enum):
    RED = "r"
    BLUE = 2


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


def _unbox(box, seed=0):
    return box.item


def _oracle(value):
    return json.dumps(describe_value(value), sort_keys=True)


_leaves = st.one_of(
    st.integers(),
    st.floats(),
    st.sampled_from([-0.0, 1e300, float("nan"), float("inf"), float("-inf")]),
    st.sampled_from([1, 1.0, True, False, None]),
    st.floats().map(np.float64),
    st.text(),
    st.sampled_from(["\u00e9t\u00e9", "\u2603", "\U0001f600", "\x00\n\""]),
    st.sampled_from(list(_Color) + list(_Level)),
)
_keys = st.one_of(
    st.text(max_size=4),
    st.integers(),
    st.floats(allow_nan=False),
    st.sampled_from(list(_Color) + list(_Level)),
)
_values = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_keys, children, max_size=4),
        st.builds(_Pair, children, children),
        st.builds(_Box, children),
        st.builds(_Reading, children),
    ),
    max_leaves=12,
)


class _CountingCache(ResultCache):
    """A :class:`ResultCache` that counts its lookups."""

    gets = 0

    def get(self, job):
        self.gets += 1
        return super().get(job)


class TestJob:
    def test_create_sorts_config(self):
        a = Job.create("j", _square, x=1)
        b = Job("j", _square, (("x", 1),))
        assert a == b

    def test_kwargs_include_seed(self):
        job = Job.create("j", _square, seed=7, x=2)
        assert job.kwargs == {"x": 2, "seed": 7}

    def test_kwargs_omit_missing_seed(self):
        job = Job.create("j", _square, x=2)
        assert job.kwargs == {"x": 2}

    def test_execute(self):
        assert Job.create("j", _square, seed=1, x=3).execute() == 10

    def test_describe_is_stable(self):
        a = Job.create("j", _square, x=1, y=2.5).describe()
        b = Job.create("j", _square, y=2.5, x=1).describe()
        assert a == b
        assert a["fn"].endswith("_square")


class TestDescribeValue:
    def test_enum(self):
        assert describe_value(FaultType.LANE) == "FaultType.LANE"

    def test_dataclass(self):
        desc = describe_value(ARCC_MEMORY_CONFIG)
        assert desc["__dataclass__"] == "MemoryConfig"
        assert desc["devices_per_rank"] == 18

    def test_nested_containers(self):
        desc = describe_value({"k": (1, FaultType.ROW)})
        assert desc == {"k": [1, "FaultType.ROW"]}

    def test_callable(self):
        assert "test_runner" in describe_value(_square)

    def test_nested_dataclass_type_is_part_of_the_description(self):
        """Same fields, different nested types: the keys must differ."""
        volts = describe_value(_Reading(_Volts(1.5)))
        amps = describe_value(_Reading(_Amps(1.5)))
        assert volts != amps
        assert volts["sensor"] == {"__dataclass__": "_Volts", "level": 1.5}

    @pytest.mark.parametrize(
        "value, name",
        [
            (np.arange(2000), "ndarray"),
            ({1, 2}, "set"),
            (b"bytes", "bytes"),
            (_Reading(np.arange(2000)), "ndarray"),
        ],
        ids=["ndarray", "set", "bytes", "ndarray-in-dataclass"],
    )
    def test_inexact_type_raises(self, value, name):
        """No ``repr`` fallback: an elided ndarray repr could collide."""
        with pytest.raises(TypeError, match=name):
            describe_value(value)

    def test_ndarray_config_cannot_be_keyed(self, tmp_path):
        job = Job.create("j", _square, x=np.arange(2000))
        with pytest.raises(TypeError, match="ndarray"):
            job_identity(job)
        with pytest.raises(TypeError, match="ndarray"):
            ResultCache(tmp_path / "cache", version="v1").key(job)


class TestEncodeValue:
    """The one-pass encoder writes exactly the oracle's text."""

    @settings(max_examples=300, deadline=None)
    @given(value=_values)
    @example(value=[[], (), {}, _Box(())])
    @example(value=(-0.0, np.float64(-0.0), 1e300, float("-inf")))
    def test_matches_describe_value_json(self, value):
        assert encode_value(value) == _oracle(value)
        fragments = {}
        assert encode_value(value, fragments) == _oracle(value)
        # A memo shared across repeats and enclosing values changes nothing.
        shared = [value, _Box(value), (value,)]
        assert encode_value(shared, fragments) == _oracle(shared)

    @settings(max_examples=100, deadline=None)
    @given(config=st.dictionaries(st.text(max_size=4), _values, max_size=4),
           seed=st.one_of(st.none(), st.integers(0, 2**64)))
    @example(config={"fn": [], "name": 0, "seed": 1, "group": None}, seed=None)
    def test_job_identity_matches_description_json(self, config, seed):
        # Built directly, not through ``Job.create``: a config key may be
        # named like one of ``create``'s own parameters.
        job = Job(name="j", fn=_square, config=tuple(sorted(config.items())),
                  seed=seed)
        description = job.describe()
        description.pop("name")
        assert job_identity(job, {}) == json.dumps(description, sort_keys=True)

    def test_memo_is_per_batch(self, tmp_path):
        """A non-frozen config mutated between two batches keys anew:
        nothing from the first batch's memo reaches the second."""
        box = _Box(1)
        cache = ResultCache(tmp_path / "cache", version="v1")
        (first,) = run_jobs([Job.create("j", _unbox, box=box)], cache=cache)
        box.item = 2
        job = Job.create("j", _unbox, box=box)
        (second,) = run_jobs([job], cache=cache)
        assert (first.value, second.value) == (1, 2)
        assert not second.cached
        assert '"item": 2' in job_identity(job)


class TestRunJobs:
    def test_results_in_job_order(self):
        jobs = [Job.create(f"j{i}", _square, x=i) for i in range(6)]
        results = run_jobs(jobs, max_workers=1)
        assert [r.value for r in results] == [i * i for i in range(6)]
        assert [r.name for r in results] == [f"j{i}" for i in range(6)]

    def test_pool_matches_inline(self):
        jobs = [Job.create(f"j{i}", _square, seed=i, x=i) for i in range(8)]
        inline = [r.value for r in run_jobs(jobs, max_workers=1)]
        pooled = [r.value for r in run_jobs(jobs, max_workers=4)]
        assert inline == pooled


class TestResultCache:
    def test_second_run_hits_cache(self, tmp_path):
        log = tmp_path / "calls.log"
        cache = ResultCache(tmp_path / "cache")
        jobs = [Job.create("j", _record, x=3, path=str(log))]
        first = run_jobs(jobs, cache=cache)
        second = run_jobs(jobs, cache=cache)
        assert first[0].value == second[0].value == 3
        assert not first[0].cached and second[0].cached
        assert log.read_text().count("3") == 1  # executed exactly once

    def test_different_config_misses(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_jobs([Job.create("j", _square, x=2)], cache=cache)
        (result,) = run_jobs([Job.create("j", _square, x=3)], cache=cache)
        assert not result.cached
        assert result.value == 9

    def test_key_matches_full_description_hash(self, tmp_path):
        """The key is the hash of ``{"code", "job"}`` JSON, byte for byte.

        Recomputes the original formula — the sorted-key JSON of the code
        version and the name-less job description — so reusing
        ``job_identity`` inside the key cannot silently re-key caches.
        """
        cache = ResultCache(tmp_path / "cache", version="v1")
        job = Job.create(
            "named",
            _square,
            seed=11,
            x=2.5,
            config=ARCC_MEMORY_CONFIG,
            fault=FaultType.LANE,
            grid={"b": (1, 2), "a": None},
        )
        description = job.describe()
        description.pop("name")
        payload = json.dumps({"code": "v1", "job": description}, sort_keys=True)
        expected = hashlib.sha256(payload.encode()).hexdigest()[:32]
        assert cache.key(job) == expected
        assert cache.key(job) == cache.key(dataclasses.replace(job, name="other"))

    def test_cold_run_encodes_each_job_once(self, tmp_path, monkeypatch):
        """A cold miss needs the identity for the lookup, the dedup and
        the store; the job's identity is encoded once for all three."""
        encoded = []

        def counting(job, fragments=None):
            encoded.append(job.name)
            return encode_job(job, fragments)

        monkeypatch.setattr("repro.runner.job.encode_job", counting)
        jobs = [Job.create(f"sq[{x}]", _square, x=x) for x in range(3)]
        jobs.append(Job.create("same-as-sq[1]", _square, x=1))
        cache = ResultCache(tmp_path / "cache", version="v1")
        results = run_jobs(jobs, cache=cache)
        assert [r.value for r in results] == [0, 1, 4, 1]
        assert sorted(encoded) == sorted(job.name for job in jobs)
        assert run_jobs(jobs, cache=cache)[0].cached
        assert len(encoded) == len(jobs)  # kept on each job, not re-encoded

    def test_identity_is_not_shared_between_equal_values(self):
        """``1``, ``1.0`` and ``True`` compare equal but key apart, also
        in one batch's memo."""
        jobs = [Job.create("j", _square, x=x) for x in (1, 1.0, True)]
        fragments = {}
        assert len({job_identity(job, fragments) for job in jobs}) == 3

    def test_registry_keys_match_description_hash(self):
        """Every registry job, full scale and ``--quick``, keys exactly as
        a fresh, unmemoized description hashes."""
        from repro.runner.registry import build_plans

        cache = ResultCache("unused", version="fixed")
        for quick in (False, True):
            for plan in build_plans(quick=quick):
                for job in plan.jobs:
                    description = job.describe()
                    description.pop("name")
                    payload = json.dumps(
                        {"code": "fixed", "job": description}, sort_keys=True
                    )
                    expected = hashlib.sha256(payload.encode()).hexdigest()[:32]
                    assert cache.key(job) == expected, job.name

    def test_code_version_invalidates(self, tmp_path):
        old = ResultCache(tmp_path / "cache", version="v1")
        new = ResultCache(tmp_path / "cache", version="v2")
        job = Job.create("j", _square, x=4)
        run_jobs([job], cache=old)
        hit_old, _ = old.get(job)
        hit_new, _ = new.get(job)
        assert hit_old and not hit_new

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_jobs([Job.create("j", _square, x=1)], cache=cache)
        assert cache.clear() == 1
        assert cache.get(Job.create("j", _square, x=1)) == (False, None)

    def test_one_pack_per_writer(self, tmp_path):
        """A writer appends every entry to one pack; no per-entry files."""
        cache = ResultCache(tmp_path / "cache", version="v1")
        run_jobs([Job.create("j", _square, x=x) for x in range(4)], cache=cache)
        (pack,) = (tmp_path / "cache").iterdir()
        assert pack.name.startswith("v1-") and pack.suffix == ".pack"
        fresh = ResultCache(tmp_path / "cache", version="v1")
        assert fresh.get(Job.create("j", _square, x=3)) == (True, 9)

    def test_flipped_body_byte_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        job = Job.create("j", _square, x=1000)
        run_jobs([job], cache=cache)
        (pack,) = (tmp_path / "cache").glob("*.pack")
        data = bytearray(pack.read_bytes())
        # The top byte of the pickled int: still a valid pickle, of
        # another value, so only the CRC can tell.
        data[-2] ^= 0x01
        assert pickle.loads(bytes(data[-len(pickle.dumps(10**6, 5)) :])) != 10**6
        pack.write_bytes(bytes(data))
        assert cache.get(job) == (False, None)
        assert ResultCache(tmp_path / "cache").get(job) == (False, None)

    @pytest.mark.parametrize(
        "cut",
        [3, len(pickle.dumps(2, protocol=pickle.HIGHEST_PROTOCOL)) + 30],
        ids=["mid-body", "mid-header"],  # the key alone is 32 bytes
    )
    def test_truncated_pack_misses_only_the_torn_entry(self, tmp_path, cut):
        """A torn write (e.g. the process was killed mid-record) reads as
        a miss for that record alone, and heals on rerun."""
        log = tmp_path / "calls.log"
        jobs = [Job.create(f"j{x}", _record, x=x, path=str(log)) for x in range(3)]
        run_jobs(jobs, cache=ResultCache(tmp_path / "cache"))
        (pack,) = (tmp_path / "cache").glob("*.pack")
        pack.write_bytes(pack.read_bytes()[:-cut])
        torn = ResultCache(tmp_path / "cache")
        assert [torn.get(job) for job in jobs] == [(True, 0), (True, 1), (False, None)]
        results = run_jobs(jobs, cache=torn)
        assert [r.cached for r in results] == [True, True, False]
        assert log.read_text().split() == ["0", "1", "2", "2"]
        healed = ResultCache(tmp_path / "cache")
        assert [healed.get(job) for job in jobs] == [(True, 0), (True, 1), (True, 2)]

    def test_two_writers_visible_to_a_third(self, tmp_path):
        first = ResultCache(tmp_path / "cache")
        second = ResultCache(tmp_path / "cache")
        run_jobs([Job.create("j", _square, x=2)], cache=first)
        run_jobs([Job.create("j", _square, x=3)], cache=second)
        assert len(list((tmp_path / "cache").glob("*.pack"))) == 2
        third = ResultCache(tmp_path / "cache")
        assert third.get(Job.create("j", _square, x=2)) == (True, 4)
        assert third.get(Job.create("j", _square, x=3)) == (True, 9)

    def test_other_version_packs_are_never_read(self, tmp_path):
        """A pack named for code version ``v1`` is not read by a ``v2``
        cache, even when it holds a record under the ``v2`` key."""
        job = Job.create("j", _square, x=4)
        v2 = ResultCache(tmp_path / "cache", version="v2")
        run_jobs([job], cache=v2)
        v2.close()
        (pack,) = (tmp_path / "cache").glob("*.pack")
        pack.rename(pack.with_name("v1-" + pack.name.partition("-")[2]))
        assert ResultCache(tmp_path / "cache", version="v1").get(job) == (
            False,
            None,
        )
        assert ResultCache(tmp_path / "cache", version="v2").get(job) == (
            False,
            None,
        )

    def test_keying_and_missing_root_touch_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cache = ResultCache("missing-dir")
        job = Job.create("j", _square, x=1)
        cache.key(job)
        assert cache.get(job) == (False, None)
        assert list(tmp_path.iterdir()) == []

    def test_clear_tolerates_concurrent_removal(self, tmp_path, monkeypatch):
        """A pack unlinked by another process between the directory
        listing and the unlink must not crash ``clear()``."""
        import os

        for x in range(2):
            run_jobs(
                [Job.create("j", _square, x=x), Job.create("j", _square, x=x + 2)],
                cache=ResultCache(tmp_path / "cache"),
            )
        real_listdir = os.listdir

        def racing_listdir(path):
            names = real_listdir(path)
            os.unlink(os.path.join(path, sorted(names)[0]))  # a concurrent clear
            return names

        cache = ResultCache(tmp_path / "cache")
        monkeypatch.setattr(os, "listdir", racing_listdir)
        assert cache.clear() == 2
        monkeypatch.undo()
        assert list((tmp_path / "cache").iterdir()) == []
        assert cache.get(Job.create("j", _square, x=0)) == (False, None)


class TestCrashSafety:
    """Every finished job persists immediately — a failing job (or a
    killed process) must not discard the batch's completed work."""

    def test_results_persist_before_batch_failure(self, tmp_path):
        log = tmp_path / "calls.log"
        cache = ResultCache(tmp_path / "cache")
        good = [
            Job.create(f"g{i}", _record, x=i, path=str(log))
            for i in range(3)
        ]
        bad = Job.create("bad", _boom, x=0)
        with pytest.raises(RuntimeError, match="boom"):
            run_jobs(good + [bad], max_workers=1, cache=cache)
        assert len(log.read_text().splitlines()) == 3  # all ran...
        rerun = run_jobs(good, cache=cache)
        assert all(result.cached for result in rerun)  # ...and survived
        assert len(log.read_text().splitlines()) == 3  # none re-ran

    def test_failed_job_runs_again(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        bad = Job.create("bad", _boom, x=0)
        with pytest.raises(RuntimeError):
            run_jobs([bad], cache=cache)
        # Failures are never cached: the retry really retries.
        with pytest.raises(RuntimeError):
            run_jobs([bad], cache=cache)


class TestSourceTreeDigest:
    """code_version() must see compiled-kernel sources, not just .py."""

    def _tree(self, tmp_path):
        (tmp_path / "mod.py").write_text("x = 1\n")
        kernel = tmp_path / "_kernel"
        kernel.mkdir()
        (kernel / "kernel.c").write_text("int replay(void) { return 1; }\n")
        (kernel / "kernel.h").write_text("int replay(void);\n")
        return kernel

    def test_patterns_cover_compiled_sources(self):
        from repro.runner.cache import SOURCE_PATTERNS

        assert "*.c" in SOURCE_PATTERNS
        assert "*.h" in SOURCE_PATTERNS

    def test_kernel_c_edit_changes_digest(self, tmp_path):
        from repro.runner.cache import source_tree_digest

        kernel = self._tree(tmp_path)
        before = source_tree_digest(tmp_path)
        (kernel / "kernel.c").write_text("int replay(void) { return 2; }\n")
        assert source_tree_digest(tmp_path) != before

    def test_header_edit_changes_digest(self, tmp_path):
        from repro.runner.cache import source_tree_digest

        kernel = self._tree(tmp_path)
        before = source_tree_digest(tmp_path)
        (kernel / "kernel.h").write_text("int replay(int n);\n")
        assert source_tree_digest(tmp_path) != before

    def test_non_source_files_ignored(self, tmp_path):
        from repro.runner.cache import source_tree_digest

        self._tree(tmp_path)
        before = source_tree_digest(tmp_path)
        (tmp_path / "README.md").write_text("docs\n")
        (tmp_path / "mod.pyc").write_bytes(b"\x00bytecode")
        assert source_tree_digest(tmp_path) == before

    def test_deterministic_across_calls(self, tmp_path):
        from repro.runner.cache import source_tree_digest

        self._tree(tmp_path)
        assert source_tree_digest(tmp_path) == source_tree_digest(tmp_path)

    def test_package_digest_includes_kernel_source(self):
        """The live package's kernel.c actually participates."""
        from pathlib import Path

        import repro
        from repro.runner.cache import SOURCE_PATTERNS

        package_root = Path(repro.__file__).resolve().parent
        c_sources = [
            p
            for pattern in SOURCE_PATTERNS
            for p in package_root.rglob(pattern)
            if p.suffix in (".c", ".h")
        ]
        assert c_sources, "expected compiled kernel sources in the package"


class TestPlans:
    def test_execute_plan_assembles(self):
        plan = ExperimentPlan(
            name="p",
            jobs=[Job.create(f"j{i}", _square, x=i) for i in range(3)],
            assemble=sum,
        )
        assert execute_plan(plan) == 0 + 1 + 4

    def test_execute_plans_splits_results(self):
        plans = [
            ExperimentPlan(
                name=f"p{n}",
                jobs=[
                    Job.create(f"p{n}j{i}", _square, x=10 * n + i)
                    for i in range(n + 1)
                ],
                assemble=list,
            )
            for n in range(3)
        ]
        results = execute_plans(plans, max_workers=1)
        assert results[0] == [0]
        assert results[1] == [100, 121]
        assert results[2] == [400, 441, 484]

    def test_empty_plan(self):
        plan = ExperimentPlan(name="tables", jobs=[], assemble=lambda v: "ok")
        assert execute_plan(plan) == "ok"


class TestRegistry:
    def test_known_figures(self):
        from repro.runner.registry import FIGURES, build_plans

        plans = build_plans()
        assert [p.name for p in plans] == list(FIGURES)

    def test_quick_scales_down(self):
        from repro.runner.registry import FIGURES

        full = FIGURES["fig7.1"].plan()
        quick = FIGURES["fig7.1"].plan(quick=True)
        assert len(quick.jobs) < len(full.jobs)

    def test_unknown_figure_rejected(self):
        from repro.runner.registry import build_plans

        with pytest.raises(KeyError):
            build_plans(["fig9.9"])


class TestJobDeduplication:
    """Identical computations run once per batch, whatever their names."""

    def test_duplicate_jobs_share_one_execution(self, tmp_path):
        marker = str(tmp_path / "calls")
        jobs = [
            Job.create("a[3]", _record, x=3, path=marker),
            Job.create("b[3]", _record, x=3, path=marker),  # same computation
            Job.create("c[4]", _record, x=4, path=marker),
        ]
        results = run_jobs(jobs)
        assert [r.value for r in results] == [3, 3, 4]
        assert [r.name for r in results] == ["a[3]", "b[3]", "c[4]"]
        # Only two executions happened; the duplicate reports cached.
        with open(marker) as handle:
            assert len(handle.readlines()) == 2
        assert results[1].cached and not results[0].cached

    def test_dedup_respects_differing_seeds(self, tmp_path):
        marker = str(tmp_path / "calls")
        jobs = [
            Job.create("a", _record, seed=1, x=3, path=marker),
            Job.create("b", _record, seed=2, x=3, path=marker),
        ]
        run_jobs(jobs)
        with open(marker) as handle:
            assert len(handle.readlines()) == 2

    def test_cache_is_read_once_per_unique_identity(self, tmp_path):
        """Duplicates share their representative's lookup, cold or warm."""
        jobs = [
            Job.create("a", _square, x=3),
            Job.create("b", _square, x=3),
            Job.create("c", _square, x=4),
            Job.create("d", _square, x=3),
        ]
        unique = len({job_identity(job) for job in jobs})
        for cached in ([False, True, False, True], [True] * 4):
            cache = _CountingCache(tmp_path / "cache", version="v1")
            results = run_jobs(jobs, cache=cache)
            assert cache.gets == unique == 2
            assert [r.value for r in results] == [9, 9, 16, 9]
            assert [r.cached for r in results] == cached

    def test_pool_dedup_matches_inline(self):
        jobs = [
            Job.create(f"dup{i}", _square, x=7) for i in range(6)
        ] + [Job.create("other", _square, x=2)]
        inline = [r.value for r in run_jobs(jobs, max_workers=1)]
        pooled = [r.value for r in run_jobs(jobs, max_workers=4)]
        assert inline == pooled == [49] * 6 + [4]
