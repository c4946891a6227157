"""Unit tests for the SIMD array processor (IAP sub-types)."""

import pytest

from repro.core.errors import CapabilityError, ProgramError
from repro.machine import ArrayProcessor, ArraySubtype, assemble
from repro.machine.kernels import (
    reduction_reference,
    simd_gather_reverse,
    simd_reduction_shuffle,
    simd_vector_add,
    vector_add_reference,
)
from repro.machine.program import Opcode, Program, ins


class TestConstruction:
    def test_needs_multiple_lanes(self):
        with pytest.raises(ValueError, match="at least 2"):
            ArrayProcessor(1)

    def test_capabilities_by_subtype(self):
        from repro.machine import Capability

        assert Capability.LANE_SHUFFLE not in ArrayProcessor(4, ArraySubtype.IAP_I).capabilities()
        assert Capability.LANE_SHUFFLE in ArrayProcessor(4, ArraySubtype.IAP_II).capabilities()
        assert Capability.GLOBAL_MEMORY in ArrayProcessor(4, ArraySubtype.IAP_III).capabilities()
        caps = ArrayProcessor(4, ArraySubtype.IAP_IV).capabilities()
        assert Capability.LANE_SHUFFLE in caps and Capability.GLOBAL_MEMORY in caps


class TestDataLayout:
    def test_scatter_gather_roundtrip(self):
        iap = ArrayProcessor(4)
        values = list(range(13))
        iap.scatter(0, values)
        assert iap.gather(0, 13) == values

    def test_scatter_layout(self):
        iap = ArrayProcessor(4)
        iap.scatter(0, [10, 11, 12, 13, 14])
        assert iap.lanes[0].load(0) == 10
        assert iap.lanes[1].load(0) == 11
        assert iap.lanes[0].load(1) == 14

    def test_global_address_split(self):
        iap = ArrayProcessor(4, bank_size=256)
        assert iap.split_global_address(256 * 2 + 17) == (2, 17)
        with pytest.raises(ProgramError, match="bank"):
            iap.split_global_address(256 * 4)


class TestSimdExecution:
    def test_vector_add_all_subtypes(self):
        a = list(range(8))
        b = [100] * 8
        for subtype in ArraySubtype:
            iap = ArrayProcessor(4, subtype)
            iap.scatter(0, a)
            iap.scatter(64, b)
            iap.run(simd_vector_add(2))
            assert iap.gather(128, 8) == vector_add_reference(a, b)

    def test_lockstep_operation_count(self):
        iap = ArrayProcessor(4)
        result = iap.run(assemble("ldi r1, 1\nhalt"))
        assert result.cycles == 2
        assert result.operations == 8  # 2 instructions x 4 lanes
        assert result.operations_per_cycle == 4.0

    def test_laneid_differs_per_lane(self):
        iap = ArrayProcessor(4)
        result = iap.run(assemble("laneid r1\nhalt"))
        assert [regs[1] for regs in result.outputs["registers"]] == [0, 1, 2, 3]

    def test_divergent_branch_rejected(self):
        iap = ArrayProcessor(4)
        # Branch on the lane id: lane 0 disagrees with the others.
        with pytest.raises(ProgramError, match="divergent"):
            iap.run(assemble("laneid r1\nbne r1, r0, 0\nhalt"))

    def test_arbitrary_precision_is_preserved(self):
        """Chained MULs overflow int64 fast; lane registers stay exact."""
        program = Program(
            [
                ins(Opcode.LDI, rd=1, imm=2**30 + 7),
                ins(Opcode.MUL, rd=1, rs1=1, rs2=1),
                ins(Opcode.MUL, rd=1, rs1=1, rs2=1),
                ins(Opcode.SHR, rd=2, rs1=1, imm=100),
                ins(Opcode.HALT),
            ],
            "bigint",
        )
        iap = ArrayProcessor(8, ArraySubtype.IAP_I)
        iap.run(program)
        value = (2**30 + 7) ** 4  # > 2**120: far past any fixed width
        assert all(lane.registers[1] == value for lane in iap.lanes)
        assert all(lane.registers[2] == value >> 100 for lane in iap.lanes)

    def test_uniform_branch_allowed(self):
        iap = ArrayProcessor(4)
        program = assemble("""
            ldi r1, 3
        loop:
            addi r1, r1, -1
            bne r1, r0, loop
            halt
        """)
        result = iap.run(program)
        assert all(regs[1] == 0 for regs in result.outputs["registers"])


class TestShuffle:
    def test_shuffle_reduction(self):
        iap = ArrayProcessor(8, ArraySubtype.IAP_II)
        values = [3, 1, 4, 1, 5, 9, 2, 6]
        for lane, value in zip(iap.lanes, values):
            lane.store(0, value)
        result = iap.run(simd_reduction_shuffle(8))
        assert result.outputs["registers"][0][3] == reduction_reference(values)

    def test_shuffle_reduction_sixteen_lanes(self):
        iap = ArrayProcessor(16, ArraySubtype.IAP_IV)
        values = [3 * i + 1 for i in range(16)]
        iap.scatter(0, values)
        result = iap.run(simd_reduction_shuffle(16))
        assert result.outputs["registers"][0][3] == reduction_reference(values)
        assert (result.cycles, result.operations) == (19, 304)

    def test_shuffle_is_simultaneous(self):
        """A full-rotation shuffle must not read half-updated registers."""
        iap = ArrayProcessor(4, ArraySubtype.IAP_II)
        program = assemble("""
            laneid r1
            ldi r2, 1
            add r3, r1, r2   ; partner = lane + 1 (mod 4 via shuf)
            mov r4, r1       ; value to exchange = lane id
            shuf r5, r4, r3
            halt
        """)
        result = iap.run(program)
        got = [regs[5] for regs in result.outputs["registers"]]
        assert got == [1, 2, 3, 0]  # each lane sees its neighbour's id

    def test_shuffle_refused_without_switch(self):
        iap = ArrayProcessor(4, ArraySubtype.IAP_I)
        with pytest.raises(CapabilityError, match="missing"):
            iap.run(simd_reduction_shuffle(4))

    def test_shuffle_reduction_needs_power_of_two(self):
        with pytest.raises(ProgramError, match="power-of-two"):
            simd_reduction_shuffle(6)


class TestGlobalMemory:
    def test_gather_reverse(self):
        iap = ArrayProcessor(4, ArraySubtype.IAP_IV, bank_size=512)
        for lane_id, lane in enumerate(iap.lanes):
            lane.store(0, lane_id * 7)
        iap.run(simd_gather_reverse(4, 512))
        assert [lane.load(1) for lane in iap.lanes] == [21, 14, 7, 0]

    def test_global_refused_on_iap_ii(self):
        iap = ArrayProcessor(4, ArraySubtype.IAP_II)
        with pytest.raises(CapabilityError):
            iap.run(simd_gather_reverse(4, 1024))

    def test_global_store(self):
        iap = ArrayProcessor(2, ArraySubtype.IAP_III, bank_size=128)
        # every lane writes its id into bank 0 at (2 + laneid)
        program = assemble("""
            laneid r1
            ldi r2, 2
            add r3, r1, r2
            gst r3, r1, 0
            halt
        """)
        iap.run(program)
        assert iap.lanes[0].load(2) == 0
        assert iap.lanes[0].load(3) == 1


@pytest.mark.parametrize(
    "program, message",
    [
        (
            Program(
                [
                    ins(Opcode.LANEID, rd=1),
                    ins(Opcode.LDI, rd=2, imm=0),
                    ins(Opcode.BEQ, rs1=1, rs2=2, imm=4),
                    ins(Opcode.NOP),
                    ins(Opcode.HALT),
                ],
                "divergent",
            ),
            "divergent branch at pc=2 (beq r1, r2, 4): "
            "a single-IP array processor has one program counter",
        ),
        (
            Program(
                [
                    ins(Opcode.LDI, rd=1, imm=5),
                    ins(Opcode.LANEID, rd=2),
                    ins(Opcode.DIV, rd=3, rs1=1, rs2=2),
                    ins(Opcode.HALT),
                ],
                "divzero",
            ),
            "core 0: division by zero",
        ),
        (
            Program(
                [
                    ins(Opcode.LDI, rd=1, imm=4000),
                    ins(Opcode.LD, rd=2, rs1=1, imm=0),
                    ins(Opcode.HALT),
                ],
                "out-of-bounds",
            ),
            "core 0: memory address 4000 out of range 0..1023",
        ),
    ],
    ids=["divergent", "divzero", "out-of-bounds"],
)
def test_program_errors_name_the_faulting_lane(program, message):
    with pytest.raises(ProgramError) as error:
        ArrayProcessor(8, ArraySubtype.IAP_I).run(program)
    assert str(error.value) == message


class TestGuards:
    def test_missing_halt(self):
        iap = ArrayProcessor(2)
        with pytest.raises(ProgramError, match="ran past"):
            iap.run(assemble("nop"))

    def test_cycle_guard(self):
        iap = ArrayProcessor(2)
        with pytest.raises(ProgramError, match="exceeded"):
            iap.run(assemble("loop:\njmp loop"), max_cycles=10)

    def test_reset(self):
        iap = ArrayProcessor(2)
        iap.lanes[0].store(0, 5)
        iap.reset()
        assert iap.lanes[0].load(0) == 0
