"""Differential tests of the two execution engines (interp vs fast).

The fast engine (batched functional pass + timing replay) must be
behaviorally indistinguishable from the interleaved interpreter:
identical output buffers, instruction counts, CompactionStats
fingerprints, total cycles (for mask-deterministic kernels), and
identical memory-fault semantics (misalignment checked before range,
first offending enabled lane wins).  These tests pin that equivalence on
seeded random programs, hand-built fault kernels, and registry
workloads.
"""

import random

import numpy as np
import pytest

from repro.gpu import GpuConfig, GpuSimulator
from repro.isa.builder import KernelBuilder
from repro.isa.registers import FlagRef
from repro.isa.types import CmpOp, DType
from repro.kernels import WORKLOAD_REGISTRY
from repro.kernels.workload import run_workload
from repro.verify.differential import _stats_fingerprint
from repro.verify.engines import run_engine_parity, verify_engine_results


def _run_both(program, global_size, make_buffers, scalars=None,
              local_size=None, **config_kwargs):
    """Run *program* under both engines on fresh buffers; return results."""
    out = {}
    for engine in ("interp", "fast"):
        buffers = make_buffers()
        config = GpuConfig(engine=engine, **config_kwargs)
        result = GpuSimulator(config).run(
            program, global_size, local_size=local_size,
            buffers=buffers, scalars=dict(scalars or {}))
        out[engine] = (result, buffers)
    return out["interp"], out["fast"]


def _assert_parity(interp, fast):
    """Full behavioral-identity check between two engine runs."""
    interp_result, interp_buffers = interp
    fast_result, fast_buffers = fast
    for name in interp_buffers:
        np.testing.assert_array_equal(
            interp_buffers[name], fast_buffers[name],
            err_msg=f"buffer {name!r} diverges between engines")
    assert fast_result.instructions == interp_result.instructions
    assert fast_result.total_cycles == interp_result.total_cycles
    assert (_stats_fingerprint(fast_result.alu_stats)
            == _stats_fingerprint(interp_result.alu_stats))
    assert (_stats_fingerprint(fast_result.simd_stats)
            == _stats_fingerprint(interp_result.simd_stats))


def _random_program(seed):
    """Seeded random kernel: ALU mix, divergent control flow, memory ops.

    Deliberately exercises the trickier replay paths — predication,
    IF/ELSE reconvergence, a bounded divergent loop, int shifts beyond
    the 32-bit width (the clamp regression), and gather/scatter with a
    write-back at the end so functional divergence is observable.
    """
    rng = random.Random(seed)
    width = rng.choice((8, 16))
    b = KernelBuilder(f"fuzz{seed}", width)
    surf = b.surface_arg("data")
    gid = b.global_id()
    addr = b.shl(b.vreg(DType.I32), gid, 2)
    x = b.load(b.vreg(DType.F32), addr, surf)
    live_f = [x]
    live_i = [gid]
    for _ in range(rng.randrange(8, 20)):
        roll = rng.random()
        if roll < 0.45:
            op = rng.choice(("add", "sub", "mul", "min_", "max_", "mad"))
            a, c = rng.choice(live_f), rng.choice(live_f)
            if op == "mad":
                r = b.mad(b.vreg(DType.F32), a, c, rng.choice(live_f))
            else:
                r = getattr(b, op)(b.vreg(DType.F32), a, c)
            live_f.append(r)
        elif roll < 0.65:
            op = rng.choice(("and_", "or_", "xor", "add", "shl", "shr"))
            a = rng.choice(live_i)
            c = (rng.choice(live_i) if rng.random() < 0.5
                 else rng.randrange(0, 40))
            live_i.append(getattr(b, op)(b.vreg(DType.I32), a, c))
        elif roll < 0.8:
            flag = b.cmp(rng.choice(list(CmpOp)), rng.choice(live_i),
                         rng.randrange(0, width * 4), flag=FlagRef(1))
            live_f.append(b.sel(b.vreg(DType.F32), flag,
                                rng.choice(live_f), rng.choice(live_f)))
        else:
            flag = b.cmp(CmpOp.LT, gid, rng.randrange(1, width * 4),
                         flag=FlagRef(1))
            live_f.append(b.mul(b.vreg(DType.F32), rng.choice(live_f),
                                1.0009765625, pred=flag))
    # Divergent IF/ELSE region with per-branch stores.
    branch = b.cmp(CmpOp.GE, gid, rng.randrange(1, width * 3),
                   flag=FlagRef(1))
    with b.if_(branch):
        b.store(b.add(b.vreg(DType.F32), rng.choice(live_f), 1.0),
                addr, surf)
        b.else_()
        b.store(b.sub(b.vreg(DType.F32), rng.choice(live_f), 2.0),
                addr, surf)
    # Bounded divergent loop: lanes exit at different trip counts.
    it = b.mov(b.vreg(DType.I32), 0)
    limit = b.and_(b.vreg(DType.I32), gid, 3)
    b.do_()
    b.add(it, it, 1)
    again = b.cmp(CmpOp.LT, it, limit, flag=FlagRef(1))
    b.while_(again)
    b.store(b.cvt(b.vreg(DType.F32), it), addr, surf)
    return b.finish(), width


class TestRandomProgramParity:
    """Seeded random kernels run bit- and cycle-identically on both engines."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_kernel_parity(self, seed):
        program, width = _random_program(seed)
        global_size = width * 18  # multiple EUs, partial last workgroup

        def buffers():
            rng = np.random.default_rng(seed)
            return {"data": rng.standard_normal(
                global_size, dtype=np.float32) + 2.0}

        _assert_parity(*_run_both(program, global_size, buffers))

    @pytest.mark.parametrize("seed", (0, 3, 7))
    @pytest.mark.parametrize("policy", ("raw", "scc"))
    def test_parity_holds_across_policies(self, seed, policy):
        from repro.core.policy import parse_policy

        program, width = _random_program(seed)
        global_size = width * 12

        def buffers():
            rng = np.random.default_rng(seed)
            return {"data": rng.standard_normal(
                global_size, dtype=np.float32) + 2.0}

        _assert_parity(*_run_both(program, global_size, buffers,
                                  policy=parse_policy(policy)))

    def test_partial_tail_thread_parity(self):
        """A ragged NDRange (partial dispatch mask) replays identically."""
        program, width = _random_program(5)
        global_size = width * 7 + 3

        def buffers():
            # Round the surface up so in-range lanes stay in range.
            return {"data": np.linspace(
                1.0, 2.0, width * 8, dtype=np.float32)}

        _assert_parity(*_run_both(program, global_size, buffers))



def _barrier_program(width, local_size):
    """Divergent trip counts before a BARRIER, then cross-thread SLM reads.

    Each thread of a four-thread workgroup loops a lane- and
    thread-dependent number of times and publishes its result to SLM.
    Thread 1 then waits at the first barrier while threads 0 and 2 loop
    again, overwrite their slots and meet it at a second barrier site;
    afterwards each reads the slot of the next thread.  Thread 1's read
    sits at a lower pc than the overwrites, so only a barrier that holds
    it until the others arrive lets it see the new value.  Thread 3
    skips both barriers and reaches EOT early, so the barrier opens on
    the retired-thread rule.
    """
    b = KernelBuilder("barrier_mix", width, slm_bytes=local_size * 4)
    out = b.surface_arg("out")
    gid = b.global_id()
    lid = b.local_id()
    trips = b.and_(b.vreg(DType.I32), b.add(b.vreg(DType.I32),
                                             b.shr(b.vreg(DType.I32), gid, 1),
                                             gid), 15)
    acc = b.mov(b.vreg(DType.F32), 0.0)
    slot = b.shl(b.vreg(DType.I32), lid, 2)
    neighbour = b.add(b.vreg(DType.I32), lid, width)
    b.and_(neighbour, neighbour, local_size - 1)
    b.shl(neighbour, neighbour, 2)
    out_addr = b.shl(b.vreg(DType.I32), gid, 2)

    def divergent_loop():
        it = b.mov(b.vreg(DType.I32), 0)
        b.do_()
        b.add(it, it, 1)
        b.mad(acc, acc, 0.5, 1.25)
        again = b.cmp(CmpOp.LT, it, trips, flag=FlagRef(1))
        b.while_(again)
        b.store_slm(acc, slot)

    def read_neighbour():
        b.store(b.load_slm(b.vreg(DType.F32), neighbour), out_addr, out)

    divergent_loop()
    stays = b.cmp(CmpOp.LT, lid, local_size - width, flag=FlagRef(1))
    with b.if_(stays):
        waits = b.cmp(CmpOp.NE, b.and_(b.vreg(DType.I32), lid, width), 0,
                      flag=FlagRef(1))
        with b.if_(waits):
            b.barrier()
            read_neighbour()
            b.else_()
            b.add(trips, trips, 3)
            divergent_loop()
            b.barrier()
            read_neighbour()
    return b.finish()


class TestBarrierParity:
    """Barriers after divergent loops release identically on both engines."""

    @pytest.mark.parametrize("width", (8, 16))
    def test_divergent_arrival_then_slm_exchange(self, width):
        local_size = width * 4
        global_size = local_size * 3

        def buffers():
            return {"out": np.full(global_size, -1.0, dtype=np.float32)}

        interp, fast = _run_both(_barrier_program(width, local_size),
                                 global_size, buffers, local_size=local_size)
        _assert_parity(interp, fast)
        out = fast[1]["out"].reshape(3, 4, width)
        # Three threads per workgroup read the next thread's SLM slot;
        # the fourth retired before the barrier and left its output.
        assert np.all(out[:, :3] > 0.0)
        assert np.all(out[:, 3] == -1.0)

def _fault_program(width, offsets, dtype=DType.F32, store=False):
    """Kernel that gathers (or scatters) from fixed per-lane offsets."""
    b = KernelBuilder("fault", width)
    surf = b.surface_arg("data")
    gid = b.global_id()
    lane_off = b.vreg(DType.I32)
    # Build the offset vector lane by lane: off = table[lid].
    table = b.surface_arg("offsets")
    b.load(lane_off, b.shl(b.vreg(DType.I32), gid, 2), table)
    if store:
        b.store(b.cvt(b.vreg(DType.F32), gid), lane_off, surf)
    else:
        b.load(b.vreg(dtype), lane_off, surf)
    return b.finish()


def _fault_from_both(width, offsets, store=False):
    """Run the fault kernel under both engines; return raised exceptions."""
    errors = {}
    for engine in ("interp", "fast"):
        buffers = {
            "data": np.ones(width, dtype=np.float32),
            "offsets": np.asarray(offsets, dtype=np.int32),
        }
        config = GpuConfig(engine=engine)
        with pytest.raises((ValueError, IndexError)) as excinfo:
            GpuSimulator(config).run(_fault_program(width, offsets,
                                                    store=store),
                                     width, buffers=buffers)
        errors[engine] = excinfo.value
    return errors["interp"], errors["fast"]


class TestMemoryFaultParity:
    """Gather/scatter error semantics agree exactly between engines."""

    def test_out_of_range_gather(self):
        interp, fast = _fault_from_both(4, [0, 4, 4096, 8])
        assert type(interp) is type(fast) is IndexError
        assert str(interp) == str(fast)
        assert "lane 2" in str(interp)

    def test_misaligned_gather(self):
        interp, fast = _fault_from_both(4, [0, 6, 8, 12])
        assert type(interp) is type(fast) is ValueError
        assert str(interp) == str(fast)
        assert "byte offset 6" in str(interp)

    def test_misalignment_checked_before_range(self):
        # Offset 4097 is both misaligned and out of range: both engines
        # must report the alignment fault, not the range fault.
        interp, fast = _fault_from_both(4, [0, 4097, 4096, 8])
        assert type(interp) is type(fast) is ValueError
        assert str(interp) == str(fast)

    def test_first_offending_lane_wins(self):
        # Lanes 1 and 3 are both out of range: lane 1 must be reported.
        interp, fast = _fault_from_both(4, [0, 4096, 8, 8192])
        assert type(interp) is type(fast) is IndexError
        assert str(interp) == str(fast)
        assert "lane 1" in str(interp)

    def test_negative_offset_out_of_range(self):
        interp, fast = _fault_from_both(4, [0, -4, 8, 12])
        assert type(interp) is type(fast) is IndexError
        assert str(interp) == str(fast)

    def test_scatter_fault_parity(self):
        interp, fast = _fault_from_both(4, [0, 4, 8, 4096], store=True)
        assert type(interp) is type(fast) is IndexError
        assert str(interp) == str(fast)
        assert "writes" in str(interp)


class TestWorkloadParity:
    """Registry workloads agree between engines end to end."""

    @pytest.mark.parametrize("name", ("va", "nested_l2", "bsearch"))
    def test_mask_deterministic_workload(self, name):
        results = {}
        for engine in ("interp", "fast"):
            config = GpuConfig(engine=engine)
            results[engine] = run_workload(WORKLOAD_REGISTRY[name](),
                                           config, verify=True)
        interp, fast = results["interp"], results["fast"]
        assert fast.buffers_digest == interp.buffers_digest
        assert fast.buffers_digest is not None
        assert verify_engine_results(name, interp, fast,
                                     mask_deterministic=True) == []

    def test_mask_nondeterministic_workload_digest_only(self):
        # Level-synchronous BFS races benignly: digests and instruction
        # counts must match, cycles only within tolerance.
        results = {}
        for engine in ("interp", "fast"):
            config = GpuConfig(engine=engine)
            results[engine] = run_workload(WORKLOAD_REGISTRY["bfs"](),
                                           config, verify=True)
        interp, fast = results["interp"], results["fast"]
        assert fast.buffers_digest == interp.buffers_digest
        assert verify_engine_results("bfs", interp, fast,
                                     mask_deterministic=False) == []

    def test_verify_engine_results_flags_divergence(self):
        import dataclasses

        config = GpuConfig()
        result = run_workload(WORKLOAD_REGISTRY["va"](), config, verify=True)
        tampered = dataclasses.replace(
            result, total_cycles=result.total_cycles + 1,
            buffers_digest="0" * 64, instructions=result.instructions + 7)
        violations = verify_engine_results("va", result, tampered,
                                           mask_deterministic=True)
        checks = {v.check for v in violations}
        assert "engine-functional-identity" in checks
        assert "engine-instruction-count" in checks
        assert "engine-total-cycles" in checks

    def test_run_engine_parity_end_to_end(self, tmp_path):
        from repro.runner import Runner

        runner = Runner(workers=1, cache=tmp_path / "cache")
        verdicts = run_engine_parity(["va"], GpuConfig(), runner)
        assert len(verdicts) == 1
        assert verdicts[0].passed, verdicts[0].violations
        assert verdicts[0].workload == "va@engines"
        assert (verdicts[0].metrics["interp"]["total_cycles"]
                == verdicts[0].metrics["fast"]["total_cycles"])
