"""The fault-injection harness and the crash-safe write helpers.

Covers the PR-8 contracts:

- :class:`FaultSpec` validation and dict round-trips (specs ride
  through pipeline config and into spawned workers);
- firing semantics: warm-up (``after``), budgets (``max_fires``),
  context ``match``, and seed-deterministic ``rate`` draws;
- the mode table: raise / hang / slow / torn;
- the atomic-write helpers — and the regression that a write torn
  mid-way never damages the destination file.
"""

import os

import numpy as np
import pytest

from repro.common import (
    atomic_savez,
    atomic_write_bytes,
    atomic_write_text,
    atomic_writer,
    file_sha256,
)
from repro.testing.faults import (
    FaultSpec,
    InjectedFault,
    InjectedTimeout,
    active_specs,
    fault_point,
    fires,
    install,
    install_plan,
    reset,
)


@pytest.fixture(autouse=True)
def clean_injector():
    reset()
    yield
    reset()


class TestFaultSpec:
    def test_roundtrip(self):
        spec = FaultSpec(site="shard.search", mode="hang", rate=0.5,
                         after=2, max_fires=3, delay=0.01,
                         match={"shard": 1}, seed=7)
        assert FaultSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown spec key"):
            FaultSpec.from_dict({"site": "x", "mdoe": "raise"})

    @pytest.mark.parametrize("bad", [
        {"site": ""},
        {"site": "x", "mode": "explode"},
        {"site": "x", "rate": 0.0},
        {"site": "x", "rate": 1.5},
        {"site": "x", "after": -1},
        {"site": "x", "max_fires": 0},
        {"site": "x", "delay": -0.1},
        # retired: no site runs in a process it could kill
        {"site": "x", "mode": "kill"},
    ])
    def test_invalid_fields_rejected(self, bad):
        with pytest.raises(ValueError):
            FaultSpec(**bad)


class TestFiring:
    def test_noop_without_plan(self):
        fault_point("shard.search", shard=0)  # must not raise

    def test_raise_mode_carries_site_and_context(self):
        install(FaultSpec(site="shard.search"))
        with pytest.raises(InjectedFault) as err:
            fault_point("shard.search", shard=3)
        assert err.value.site == "shard.search"
        assert err.value.context == {"shard": 3}
        assert not err.value.torn

    def test_other_sites_untouched(self):
        install(FaultSpec(site="shard.search"))
        fault_point("engine.slice", slice=0)  # different site: no-op

    def test_match_restricts_to_context(self):
        install(FaultSpec(site="shard.search", match={"shard": 2}))
        fault_point("shard.search", shard=0)
        fault_point("shard.search", shard=1)
        with pytest.raises(InjectedFault):
            fault_point("shard.search", shard=2)
        assert fires("shard.search") == 1

    def test_after_warmup(self):
        install(FaultSpec(site="s", after=2))
        fault_point("s")
        fault_point("s")
        with pytest.raises(InjectedFault):
            fault_point("s")

    def test_max_fires_budget(self):
        install(FaultSpec(site="s", max_fires=2))
        for _ in range(2):
            with pytest.raises(InjectedFault):
                fault_point("s")
        fault_point("s")  # budget spent: back to a no-op
        assert fires() == 2

    def test_rate_is_seed_deterministic(self):
        def pattern(seed):
            install_plan([FaultSpec(site="s", rate=0.4, seed=seed)])
            hits = []
            for _ in range(50):
                try:
                    fault_point("s")
                    hits.append(False)
                except InjectedFault:
                    hits.append(True)
            reset()
            return hits

        first = pattern(seed=5)
        assert pattern(seed=5) == first
        assert 0 < sum(first) < 50
        assert pattern(seed=6) != first

    def test_hang_raises_injected_timeout(self):
        install(FaultSpec(site="s", mode="hang", delay=0.0))
        with pytest.raises(InjectedTimeout):
            fault_point("s")

    def test_slow_continues(self):
        install(FaultSpec(site="s", mode="slow", delay=0.0))
        fault_point("s")  # sleeps, then returns normally
        assert fires() == 1

    def test_install_plan_replaces_and_reset_clears(self):
        install(FaultSpec(site="a"))
        install_plan([FaultSpec(site="b")])
        assert [spec.site for spec in active_specs()] == ["b"]
        reset()
        assert active_specs() == []
        fault_point("b")  # cleared: no-op


class TestAtomicWrites:
    def test_text_and_bytes(self, tmp_path):
        path = tmp_path / "note.txt"
        atomic_write_text(path, "hello")
        assert path.read_text() == "hello"
        atomic_write_bytes(path, b"\x00\x01")
        assert path.read_bytes() == b"\x00\x01"

    def test_savez_roundtrip(self, tmp_path):
        path = tmp_path / "arrays.npz"
        atomic_savez(path, {"a": np.arange(5), "b": np.eye(2)})
        with np.load(path) as data:
            np.testing.assert_array_equal(data["a"], np.arange(5))
            np.testing.assert_array_equal(data["b"], np.eye(2))

    def test_savez_stores_and_deflated_archives_still_load(self, tmp_path):
        """Models, checkpoints and index sets are stored, not deflated;
        the deflated ones already published read back the same way."""
        arrays = {"a": np.arange(5), "b": np.eye(2)}
        stored = atomic_savez(tmp_path / "stored.npz", arrays)
        np.savez_compressed(tmp_path / "deflated.npz", **arrays)
        with np.load(stored) as new, \
                np.load(tmp_path / "deflated.npz") as old:
            assert all(i.compress_type == 0 for i in new.zip.infolist())
            assert all(i.compress_type != 0 for i in old.zip.infolist())
            for name, array in arrays.items():
                np.testing.assert_array_equal(new[name], array)
                np.testing.assert_array_equal(old[name], array)

    def test_no_temp_files_left(self, tmp_path):
        path = tmp_path / "out.bin"
        atomic_write_bytes(path, b"x" * 1024)
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    def test_failed_write_leaves_destination_untouched(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "original")
        with pytest.raises(RuntimeError, match="mid-write"):
            with atomic_writer(path, "w") as handle:
                handle.write("partial garbage")
                raise RuntimeError("simulated crash mid-write")
        assert path.read_text() == "original"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_torn_fault_regression(self, tmp_path):
        """A write torn mid-way must never damage the old file.

        The ``torn`` fault truncates the staged temp file and raises
        before the rename — exactly a crash between write and publish.
        The destination must still carry the previous bytes.
        """
        path = tmp_path / "model.npz"
        atomic_savez(path, {"w": np.arange(64, dtype=np.float64)})
        before = file_sha256(path)
        install(FaultSpec(site="io.atomic_write", mode="torn"))
        with pytest.raises(InjectedFault) as err:
            atomic_savez(path, {"w": np.zeros(64)})
        assert err.value.torn
        reset()
        assert file_sha256(path) == before
        with np.load(path) as data:
            np.testing.assert_array_equal(data["w"],
                                          np.arange(64, dtype=np.float64))

    def test_stale_tmp_swept_on_next_write(self, tmp_path):
        path = tmp_path / "out.txt"
        stale = tmp_path / (path.name + ".tmp-deadbeef")
        stale.write_text("leftover from a crash")
        atomic_write_text(path, "fresh")
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
