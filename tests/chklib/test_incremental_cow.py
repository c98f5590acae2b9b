"""Extension features: incremental checkpointing and copy-on-write capture."""

import numpy as np
import pytest

from repro.apps import SOR, Ising, TSP
from repro.chklib import (
    CheckpointRuntime,
    CoordinatedScheme,
    FaultModel,
    IndependentScheme,
)
from repro.chklib.incremental import (
    PAGE_SIZE,
    IncrementalState,
    dirty_pages,
    page_hashes,
)
from repro.machine import MachineParams

MACHINE = MachineParams(n_nodes=4)


class TestPageTracking:
    def test_page_hashes_count(self):
        blob = b"x" * (PAGE_SIZE * 3 + 100)
        assert len(page_hashes(blob)) == 4

    def test_identical_blobs_zero_dirty(self):
        blob = bytes(range(256)) * 64
        h = page_hashes(blob)
        assert dirty_pages(h, h) == 0

    def test_single_byte_change_dirties_one_page(self):
        blob = bytearray(PAGE_SIZE * 8)
        h1 = page_hashes(bytes(blob))
        blob[PAGE_SIZE * 3 + 17] = 0xFF
        h2 = page_hashes(bytes(blob))
        assert dirty_pages(h1, h2) == 1

    def test_growth_counts_as_dirty(self):
        h1 = page_hashes(b"a" * PAGE_SIZE)
        h2 = page_hashes(b"a" * (PAGE_SIZE * 3))
        assert dirty_pages(h1, h2) == 2

    def test_invalid_page_size(self):
        with pytest.raises(ValueError):
            page_hashes(b"abc", page_size=0)

    def test_incremental_state_plan_cycle(self):
        inc = IncrementalState(full_every=3)
        blob1 = bytes(PAGE_SIZE * 4)
        is_full, nbytes, h = inc.plan(blob1)
        assert is_full and nbytes == len(blob1)
        inc.advance(is_full, h)
        # one dirty page
        blob2 = bytearray(blob1)
        blob2[0] = 1
        is_full, nbytes, h = inc.plan(bytes(blob2))
        assert not is_full and nbytes == PAGE_SIZE
        inc.advance(is_full, h)
        # second increment
        is_full, nbytes, h = inc.plan(bytes(blob2))
        assert not is_full and nbytes == 0
        inc.advance(is_full, h)
        # full_every=3 -> the next one is full again
        is_full, nbytes, h = inc.plan(bytes(blob2))
        assert is_full

    def test_reset_forces_full(self):
        inc = IncrementalState()
        _, _, h = inc.plan(bytes(PAGE_SIZE))
        inc.advance(False, h)
        inc.reset()
        is_full, _, _ = inc.plan(bytes(PAGE_SIZE))
        assert is_full


def baseline(app_factory, seed=3):
    return CheckpointRuntime(app_factory(), machine=MACHINE, seed=seed).run()


class TestIncrementalScheme:
    def make_app(self):
        # ISING: the bond couplings (the bulk of the state) never change,
        # so increments are small — the showcase workload.
        app = Ising(n=48, iters=16, flops_per_cell=2000.0)
        app.image_bytes = 64 * 1024
        return app

    def test_incremental_writes_fewer_bytes(self):
        base = baseline(self.make_app)
        times = [base.sim_time / 4, base.sim_time / 2]
        full = CheckpointRuntime(
            self.make_app(),
            scheme=CoordinatedScheme.NBMS(times),
            machine=MACHINE,
            seed=3,
        ).run()
        inc = CheckpointRuntime(
            self.make_app(),
            scheme=CoordinatedScheme.NBMS(times, incremental=True),
            machine=MACHINE,
            seed=3,
        ).run()
        assert inc.result == full.result == base.result
        assert inc.storage_bytes_written < 0.7 * full.storage_bytes_written
        assert inc.counters["chk.full_ckpts"] == 4  # round 1 on 4 ranks
        assert inc.counters["chk.incremental_ckpts"] == 4  # round 2

    def test_incremental_crash_recovery_reads_chain(self):
        base = baseline(self.make_app)
        times = [base.sim_time * f for f in (0.2, 0.4, 0.6)]
        report = CheckpointRuntime(
            self.make_app(),
            scheme=CoordinatedScheme.NBM(times, incremental=True, full_every=8),
            machine=MACHINE,
            seed=3,
            fault_model=FaultModel.machine_crash(0.85 * base.sim_time),
        ).run()
        assert len(report.recoveries) == 1
        assert report.result == base.result  # exact replay through the chain

    def test_commit_keeps_incremental_chain(self):
        base = baseline(self.make_app)
        times = [base.sim_time * f for f in (0.2, 0.4, 0.6)]
        rt = CheckpointRuntime(
            self.make_app(),
            scheme=CoordinatedScheme.NBM(times, incremental=True, full_every=8),
            machine=MACHINE,
            seed=3,
        )
        rt.run()
        for rank in range(4):
            chain = rt.store.chain(rank)
            # commit of 3 may not discard 1 and 2: they are 3's bases
            assert [r.index for r in chain] == [1, 2, 3]
            assert chain[0].base_index is None
            assert chain[1].base_index == 1
            assert chain[2].base_index == 2
            assert rt.store.chain_base(rank, 3) == 1
            assert rt.store.restore_read_bytes(rank, 3) == sum(
                r.write_bytes for r in chain
            )

    def test_independent_incremental(self):
        base = baseline(self.make_app)
        times = [base.sim_time / 4, base.sim_time / 2]
        report = CheckpointRuntime(
            self.make_app(),
            scheme=IndependentScheme.IndepM(times, incremental=True),
            machine=MACHINE,
            seed=3,
        ).run()
        assert report.result == base.result
        assert report.counters.get("chk.incremental_ckpts", 0) > 0

    def test_read_only_state_increments_are_tiny(self):
        """TSP's search state barely changes between checkpoints."""
        app = TSP(n_cities=8, flops_per_node=100000.0)
        app.image_bytes = 256 * 1024
        base = CheckpointRuntime(app, machine=MACHINE, seed=3).run()
        times = [base.sim_time / 4, base.sim_time / 2]

        def fresh():
            a = TSP(n_cities=8, flops_per_node=100000.0)
            a.image_bytes = 256 * 1024
            return a

        rt = CheckpointRuntime(
            fresh(),
            scheme=CoordinatedScheme.NBMS(times, incremental=True),
            machine=MACHINE,
            seed=3,
        )
        rt.run()
        for rank in range(4):
            rec = rt.store.get(rank, 2)
            assert rec.incremental
            # a handful of dirty pages vs a ~260 KiB full image
            assert rec.write_bytes < 0.05 * rec.state_bytes


class TestCowCapture:
    def make_app(self):
        app = SOR(n=34, iters=12, flops_per_cell=2400.0)
        app.image_bytes = 64 * 1024
        return app

    def test_cow_result_unchanged(self):
        base = baseline(self.make_app)
        times = [base.sim_time / 4, base.sim_time / 2]
        report = CheckpointRuntime(
            self.make_app(),
            scheme=CoordinatedScheme.NBC(times),
            machine=MACHINE,
            seed=3,
        ).run()
        assert report.result == base.result
        assert report.checkpoints_taken == 8

    def test_cow_blocks_less_than_memcopy(self):
        base = baseline(self.make_app)
        times = [base.sim_time / 4, base.sim_time / 2]
        memcopy = CheckpointRuntime(
            self.make_app(),
            scheme=CoordinatedScheme.NBM(times),
            machine=MACHINE,
            seed=3,
        ).run()
        cow = CheckpointRuntime(
            self.make_app(),
            scheme=CoordinatedScheme.NBC(times),
            machine=MACHINE,
            seed=3,
        ).run()
        assert cow.blocked_time < memcopy.blocked_time

    def test_cow_crash_recovery_exact(self):
        base = baseline(self.make_app)
        times = [base.sim_time / 4, base.sim_time / 2]
        report = CheckpointRuntime(
            self.make_app(),
            scheme=CoordinatedScheme.NBCS(times, incremental=True),
            machine=MACHINE,
            seed=3,
            fault_model=FaultModel.machine_crash(0.8 * base.sim_time),
        ).run()
        assert report.result == base.result

    def test_cow_window_interference_accounted(self):
        from repro.core import Engine
        from repro.machine import Node, NodeParams

        eng = Engine()
        node = Node(eng, 0, NodeParams(cpu_flops=1000.0, cow_fault_interference=0.5))
        node.cow_window_opened()
        assert node.slowdown == pytest.approx(1.5)
        node.bg_stream_started()
        assert node.slowdown == pytest.approx(1.8)  # 1 + 0.3 + 0.5
        node.cow_window_closed()
        node.bg_stream_stopped()
        assert node.slowdown == 1.0
        with pytest.raises(RuntimeError):
            node.cow_window_closed()

    def test_invalid_capture_mode_rejected(self):
        with pytest.raises(ValueError):
            CoordinatedScheme([1.0], staggered=False, name="x", capture="magic")
        with pytest.raises(ValueError):
            IndependentScheme([1.0], name="x", capture="magic")
