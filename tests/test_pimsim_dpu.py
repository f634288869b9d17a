"""DPU timing model: water-filled pipeline + serial DMA engine."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import KernelLaunchError
from repro.pimsim.config import CostModel, DpuConfig
from repro.pimsim.dpu import Dpu


def make_dpu(**cfg) -> Dpu:
    return Dpu(dpu_id=0, config=DpuConfig(**cfg), cost=CostModel())


class TestCharging:
    def test_zero_charges_zero_time(self):
        assert make_dpu().compute_seconds() == 0.0

    def test_invalid_tasklet_rejected(self):
        dpu = make_dpu()
        with pytest.raises(KernelLaunchError):
            dpu.charge_instructions(16, 100)

    def test_negative_dma_rejected(self):
        dpu = make_dpu()
        with pytest.raises(KernelLaunchError):
            dpu.charge_mram_read(0, -5)

    def test_vector_charge_shape_checked(self):
        dpu = make_dpu()
        with pytest.raises(KernelLaunchError):
            dpu.charge_instructions_all(np.zeros(3))

    def test_reset(self):
        dpu = make_dpu()
        dpu.charge_instructions(0, 1000)
        dpu.reset_charges()
        assert dpu.compute_seconds() == 0.0

    def test_run_stats(self):
        dpu = make_dpu()
        dpu.charge_instructions(0, 500)
        dpu.charge_mram_read(1, 4096, requests=2)
        stats = dpu.run_stats()
        assert stats.instructions == 500
        assert stats.dma_requests == 2
        assert stats.dma_bytes == 4096
        assert stats.compute_seconds > 0


class TestPipelineModel:
    def test_single_tasklet_rate(self):
        """One tasklet issues once per pipeline_saturation cycles."""
        dpu = make_dpu(clock_hz=100.0, pipeline_saturation=11)
        dpu.charge_instructions(0, 100)
        assert dpu.compute_seconds() == pytest.approx(100 * 11 / 100.0)

    def test_saturated_pipeline_full_throughput(self):
        """16 equal tasklets retire 1 instr/cycle aggregate."""
        dpu = make_dpu(clock_hz=100.0, num_tasklets=16, pipeline_saturation=11)
        dpu.charge_instructions_all(np.full(16, 100.0))
        assert dpu.compute_seconds() == pytest.approx(1600 / 100.0)

    def test_balanced_charge_equals_manual_split(self):
        a = make_dpu()
        a.charge_balanced(1600)
        b = make_dpu()
        b.charge_instructions_all(np.full(16, 100.0))
        assert a.compute_seconds() == pytest.approx(b.compute_seconds())

    def test_imbalance_costs_more(self):
        balanced = make_dpu()
        balanced.charge_instructions_all(np.full(16, 100.0))
        skewed = make_dpu()
        charges = np.zeros(16)
        charges[0] = 1600
        skewed.charge_instructions_all(charges)
        assert skewed.compute_seconds() > balanced.compute_seconds()

    @settings(max_examples=40, deadline=None)
    @given(
        charges=st.lists(
            st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=16, max_size=16
        )
    )
    def test_time_bounds(self, charges):
        """Water-filled time is between total/clock and slowest*sat/clock bounds."""
        dpu = make_dpu(clock_hz=350e6)
        arr = np.array(charges)
        dpu.charge_instructions_all(arr)
        t = dpu.compute_seconds()
        lower = arr.sum() / 350e6
        upper = arr.sum() * 11 / 350e6 + 1e-12
        assert lower - 1e-12 <= t <= upper

    def test_monotone_in_instructions(self):
        a = make_dpu()
        a.charge_instructions(0, 100)
        b = make_dpu()
        b.charge_instructions(0, 200)
        assert b.compute_seconds() > a.compute_seconds()


class TestDmaModel:
    def test_dma_is_serial_across_tasklets(self):
        """The MRAM engine is shared: N tasklets' DMA sums, not overlaps."""
        one = make_dpu()
        one.charge_mram_read(0, 1 << 20)
        spread = make_dpu()
        for tk in range(16):
            spread.charge_mram_read(tk, (1 << 20) // 16)
        assert spread.compute_seconds() == pytest.approx(one.compute_seconds(), rel=0.01)

    def test_dma_request_latency_counts(self):
        few = make_dpu()
        few.charge_mram_read(0, 4096, requests=1)
        many = make_dpu()
        many.charge_mram_read(0, 4096, requests=64)
        assert many.compute_seconds() > few.compute_seconds()

    def test_compute_dma_overlap_takes_max(self):
        """A DPU busy on both resources finishes at the slower one."""
        dpu = make_dpu(clock_hz=350e6)
        dpu.charge_instructions_all(np.full(16, 1000.0))  # tiny pipeline load
        dpu.charge_mram_read(0, 10 << 20)  # dominant DMA
        dma_only = make_dpu(clock_hz=350e6)
        dma_only.charge_mram_read(0, 10 << 20)
        assert dpu.compute_seconds() == pytest.approx(dma_only.compute_seconds())

    def test_write_bandwidth_used_for_writes(self):
        r = make_dpu()
        r.charge_mram_read(0, 1 << 20, requests=0)
        w = make_dpu()
        w.charge_mram_write(0, 1 << 20, requests=0)
        ratio = r.compute_seconds() / w.compute_seconds()
        cost = CostModel()
        assert ratio == pytest.approx(
            cost.mram_write_bandwidth / cost.mram_read_bandwidth, rel=1e-6
        )


def _ledgers(dpu: Dpu) -> tuple:
    """Everything a DMA charge touches, floats as hex."""
    instr, dma = dpu.charge_vectors()
    stats = dpu.run_stats()
    return (
        [x.hex() for x in instr.tolist()],
        [x.hex() for x in dma.tolist()],
        stats.dma_requests,
        stats.dma_bytes,
        stats.compute_seconds.hex(),
        dpu.lifetime_dma_requests,
        dpu.lifetime_dma_bytes,
    )


class TestVectorDmaCharges:
    """``charge_mram_read_all`` / ``charge_mram_write_all`` equal one scalar
    charge per tasklet, to the bit, in every ledger."""

    sizes = st.lists(st.integers(0, 1 << 30), min_size=16, max_size=16)
    counts = st.lists(st.integers(0, 1 << 20), min_size=16, max_size=16)

    @settings(max_examples=60, deadline=None)
    @given(
        read_bytes=sizes, read_reqs=counts, write_bytes=sizes, write_reqs=counts,
        instr=st.lists(st.floats(0, 1e9), min_size=16, max_size=16),
    )
    def test_bit_identical_to_scalar_calls(
        self, read_bytes, read_reqs, write_bytes, write_reqs, instr
    ):
        """Read then write per tasklet, as the remap pass charges them, after
        an earlier vector of instructions."""
        scalar, vector = make_dpu(), make_dpu()
        for dpu in (scalar, vector):
            dpu.charge_instructions_all(np.array(instr))
            dpu.charge_mram_read(3, 777, requests=5)  # a prior ledger entry
        for tk in range(16):
            scalar.charge_mram_read(tk, read_bytes[tk], requests=read_reqs[tk])
            scalar.charge_mram_write(tk, write_bytes[tk], requests=write_reqs[tk])
        vector.charge_mram_read_all(np.array(read_bytes), np.array(read_reqs))
        vector.charge_mram_write_all(np.array(write_bytes), np.array(write_reqs))
        assert _ledgers(vector) == _ledgers(scalar)

    def test_write_then_read_order_kept(self):
        """The local kernel charges write then read per tasklet."""
        rng = np.random.default_rng(3)
        nbytes = rng.integers(0, 10**7, 16)
        reqs = rng.integers(0, 500, 16)
        scalar, vector = make_dpu(), make_dpu()
        for tk in range(16):
            scalar.charge_mram_write(tk, int(nbytes[tk]), requests=int(reqs[tk]))
            scalar.charge_mram_read(tk, int(nbytes[tk]) // 3, requests=0)
        vector.charge_mram_write_all(nbytes, reqs)
        vector.charge_mram_read_all(nbytes // 3, np.zeros(16, dtype=np.int64))
        assert _ledgers(vector) == _ledgers(scalar)

    def test_other_tasklet_counts(self):
        scalar, vector = make_dpu(num_tasklets=11), make_dpu(num_tasklets=11)
        nbytes = np.arange(11) * 1001
        for tk in range(11):
            scalar.charge_mram_read(tk, int(nbytes[tk]), requests=tk)
        vector.charge_mram_read_all(nbytes, np.arange(11))
        assert _ledgers(vector) == _ledgers(scalar)

    @pytest.mark.parametrize("method", ["charge_mram_read_all", "charge_mram_write_all"])
    def test_refuses_negative_input(self, method):
        dpu = make_dpu()
        ok = np.ones(16, dtype=np.int64)
        bad = ok.copy()
        bad[7] = -1
        for nbytes, reqs in ((bad, ok), (ok, bad)):
            with pytest.raises(KernelLaunchError, match="non-negative"):
                getattr(dpu, method)(nbytes, reqs)
        assert _ledgers(dpu) == _ledgers(make_dpu())

    @pytest.mark.parametrize("method", ["charge_mram_read_all", "charge_mram_write_all"])
    def test_refuses_wrong_length(self, method):
        dpu = make_dpu()
        ok = np.ones(16, dtype=np.int64)
        for nbytes, reqs in ((ok[:15], ok), (ok, ok[:15]), (np.ones(17), ok), (5, ok)):
            with pytest.raises(KernelLaunchError, match="tasklet DMA charges"):
                getattr(dpu, method)(nbytes, reqs)
        assert _ledgers(dpu) == _ledgers(make_dpu())


class TestBalancedSeconds:
    """``Dpu.balanced_seconds`` equals, core by core and to the bit, one
    ``Dpu`` charged with balanced instructions and an even MRAM read."""

    @staticmethod
    def _one_core(dpu: Dpu, instr: float, nbytes: int, requests: int) -> float:
        tasklets = dpu.config.num_tasklets
        dpu.reset_charges()
        dpu.charge_balanced(instr)
        dpu.charge_mram_read_all(
            np.full(tasklets, nbytes // tasklets, dtype=np.int64),
            np.full(tasklets, requests, dtype=np.int64),
        )
        return dpu.compute_seconds()

    @pytest.mark.parametrize("tasklets", [16, 11, 13])
    def test_bit_identical_to_per_dpu_calls(self, tasklets):
        rng = np.random.default_rng(tasklets)
        cores = 400
        instr = rng.random(cores) * 10.0 ** rng.integers(0, 10, cores)
        nbytes = rng.integers(0, 1 << 27, cores)
        requests = rng.integers(1, 5000, cores)
        # Zero-work cores, and cores with only one of the two resources.
        instr[::9] = 0.0
        nbytes[::9] = 0
        requests[::9] = 0
        instr[1::7] = 0.0
        nbytes[2::11] = 0
        dpu = make_dpu(num_tasklets=tasklets)
        got = Dpu.balanced_seconds(dpu.config, dpu.cost, instr, nbytes, requests)
        want = [
            self._one_core(dpu, float(instr[i]), int(nbytes[i]), int(requests[i]))
            for i in range(cores)
        ]
        assert [float(x).hex() for x in got] == [x.hex() for x in want]
        assert got[0] == 0.0

    def test_pipeline_and_dma_bound_cores(self):
        dpu = make_dpu()
        got = Dpu.balanced_seconds(
            dpu.config, dpu.cost, np.array([1e9, 16.0]), np.array([0, 1 << 30]),
            np.array([0, 1]),
        )
        pipeline, dma = got
        assert pipeline == pytest.approx(1e9 / dpu.config.clock_hz)
        # DMA time sums over the tasklets: the bytes once, one setup each.
        setup = 16 * dpu.cost.mram_dma_latency_cycles / dpu.config.clock_hz
        assert dma == pytest.approx((1 << 30) / dpu.cost.mram_read_bandwidth + setup)
