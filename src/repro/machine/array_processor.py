"""SIMD array processors — the IAP-I..IV classes of Fig. 4.

One instruction processor broadcasts each instruction to ``n`` data
processors (lanes); every lane owns a register file and a local
data-memory bank. The four sub-types differ exactly as the taxonomy
says:

* **IAP-I** — each DP is hard-wired to its own DM; lanes can neither
  exchange registers nor touch other banks.
* **IAP-II** — adds the DP-DP crossbar: the ``SHUF`` instruction works.
* **IAP-III** — adds the DP-DM crossbar instead: ``GLD``/``GST`` reach
  any bank through a flat global address space.
* **IAP-IV** — both switches: the most flexible array organisation.

Control flow is SIMD: branches must resolve identically on every lane
(divergence raises ProgramError — there is only one program counter).
"""

from __future__ import annotations

import enum

from repro.core.errors import CapabilityError, ProgramError
from repro.faults import FaultInjector, FaultPlan, FaultPolicy, FaultRuntime
from repro.machine.base import Capability, ExecutionResult, check_capabilities, traced_run
from repro.machine.program import Instruction, Opcode, Program, required_capabilities
from repro.machine.scalar import ExtensionPort, ScalarCore

__all__ = ["ArraySubtype", "ArrayProcessor"]

class ArraySubtype(enum.Enum):
    """IAP sub-types with their switch complement."""

    IAP_I = ("IAP-I", False, False)
    IAP_II = ("IAP-II", False, True)
    IAP_III = ("IAP-III", True, False)
    IAP_IV = ("IAP-IV", True, True)

    def __init__(self, label: str, dm_switched: bool, dp_switched: bool):
        self.label = label
        self.dm_switched = dm_switched
        self.dp_switched = dp_switched


class _LanePort(ExtensionPort):
    """Extension semantics for one lane, closing over the whole array."""

    def __init__(self, machine: "ArrayProcessor"):
        self.machine = machine
        #: register snapshot for SHUF (pre-instruction values, so the
        #: exchange is simultaneous across lanes as real hardware is).
        self.snapshot: list[list[int]] = []

    def shuffle(self, core: ScalarCore, rs1: int, rs2: int) -> int:
        if not self.machine.subtype.dp_switched:
            raise CapabilityError(
                f"{self.machine.subtype.label} has no DP-DP switch: "
                "SHUF is unavailable"
            )
        source_lane = core.registers[rs2] % self.machine.n_lanes
        return self.snapshot[source_lane][rs1]

    def global_load(self, core: ScalarCore, address: int) -> int:
        if not self.machine.subtype.dm_switched:
            raise CapabilityError(
                f"{self.machine.subtype.label} has no DP-DM switch: "
                "GLD is unavailable"
            )
        bank, offset = self.machine.split_global_address(address)
        return self.machine.lanes[bank].load(offset)

    def global_store(self, core: ScalarCore, address: int, value: int) -> None:
        if not self.machine.subtype.dm_switched:
            raise CapabilityError(
                f"{self.machine.subtype.label} has no DP-DM switch: "
                "GST is unavailable"
            )
        bank, offset = self.machine.split_global_address(address)
        self.machine.lanes[bank].store(offset, value)


class ArrayProcessor:
    """IAP: one shared program counter over ``n`` SIMD lanes."""

    def __init__(
        self,
        n_lanes: int,
        subtype: ArraySubtype = ArraySubtype.IAP_IV,
        *,
        bank_size: int = 1024,
    ):
        if n_lanes <= 1:
            raise ValueError(
                "an array processor needs at least 2 lanes (1 lane is an IUP)"
            )
        self.n_lanes = n_lanes
        self.subtype = subtype
        self.bank_size = bank_size
        self.lanes = [
            ScalarCore(core_id=i, memory_size=bank_size) for i in range(n_lanes)
        ]
        self._port = _LanePort(self)

    # -- capability view ------------------------------------------------

    def capabilities(self) -> set[Capability]:
        """The capability set this machine grants; programs needing more are refused."""
        caps = {Capability.INSTRUCTION_EXECUTION, Capability.DATA_PARALLEL}
        if self.subtype.dp_switched:
            caps.add(Capability.LANE_SHUFFLE)
        if self.subtype.dm_switched:
            caps.add(Capability.GLOBAL_MEMORY)
        return caps

    # -- memory helpers ---------------------------------------------------

    def split_global_address(self, address: int) -> tuple[int, int]:
        """Flat global address -> (bank, offset)."""
        bank, offset = divmod(address, self.bank_size)
        if not 0 <= bank < self.n_lanes:
            raise ProgramError(
                f"global address {address} maps to bank {bank}, outside "
                f"0..{self.n_lanes - 1}"
            )
        return bank, offset

    def scatter(self, base: int, values: "list[int]") -> None:
        """Distribute ``values`` round-robin across lane banks at ``base``.

        Element ``i`` lands in lane ``i % n_lanes`` at offset
        ``base + i // n_lanes`` — the canonical SIMD data layout used by
        the kernel library.
        """
        per_lane: list[list[int]] = [[] for _ in range(self.n_lanes)]
        for index, value in enumerate(values):
            per_lane[index % self.n_lanes].append(value)
        for lane, chunk in zip(self.lanes, per_lane):
            lane.write_block(base, chunk)

    def gather(self, base: int, count: int) -> list[int]:
        """Inverse of :meth:`scatter`."""
        out: list[int] = []
        for index in range(count):
            lane = self.lanes[index % self.n_lanes]
            out.append(lane.load(base + index // self.n_lanes))
        return out

    def reset(self) -> None:
        """Restore run state to the post-construction configuration."""
        self.lanes = [
            ScalarCore(core_id=i, memory_size=self.bank_size)
            for i in range(self.n_lanes)
        ]

    # -- execution -------------------------------------------------------------

    def _branch_decision(self, instruction: Instruction, lane: ScalarCore) -> bool:
        regs = lane.registers
        if instruction.op is Opcode.BEQ:
            return regs[instruction.rs1] == regs[instruction.rs2]
        if instruction.op is Opcode.BNE:
            return regs[instruction.rs1] != regs[instruction.rs2]
        if instruction.op is Opcode.BLT:
            return regs[instruction.rs1] < regs[instruction.rs2]
        return True  # JMP

    @traced_run("machine.run")
    def run(
        self,
        program: Program,
        *,
        max_cycles: int = 1_000_000,
        faults: "FaultPlan | FaultInjector | None" = None,
        policy: "FaultPolicy | None" = None,
    ) -> ExecutionResult:
        """Broadcast-execute to HALT.

        Every cycle all lanes execute the same instruction; lane-variant
        behaviour comes from LANEID and per-lane data. Divergent branch
        conditions are a program error on a single-PC machine.

        ``faults`` injects a seeded :class:`FaultPlan` and ``policy``
        decides how the array responds. Remapping is only possible when
        the sub-type has a switched DP-DM or DP-DP site — a lane's work
        can be rehosted only if its state is reachable through an ``x``
        cell; IAP-I's all-direct wiring cannot remap (spare lanes still
        can step in, being full replicas).
        """
        check_capabilities(
            self.capabilities(),
            required_capabilities(program),
            machine=self.subtype.label,
        )
        runtime = FaultRuntime.create(
            faults,
            policy,
            n_units=self.n_lanes,
            can_remap=self.subtype.dm_switched or self.subtype.dp_switched,
            machine=self.subtype.label,
            unit_noun="lane",
        )
        pc = 0
        cycles = 0
        operations = 0
        while True:
            if pc >= len(program):
                raise ProgramError(
                    f"array PC {pc} ran past the end of {program.name!r}"
                )
            if runtime is None:
                cycles += 1
            else:
                cycles += runtime.issue_cost()
                cycles += runtime.absorb(cycles)
            if cycles > max_cycles:
                raise ProgramError(
                    f"{self.subtype.label}: exceeded {max_cycles} cycles"
                )
            if runtime is None:
                live = range(self.n_lanes)
            else:
                live = runtime.executing_units(cycles)
                if not live:
                    # Every surviving lane is momentarily stunned; the
                    # array idles this cycle and retries the same pc.
                    continue
            instruction = program[pc]
            if instruction.is_branch:
                decisions = {
                    self._branch_decision(instruction, self.lanes[i]) for i in live
                }
                if len(decisions) > 1:
                    raise ProgramError(
                        f"divergent branch at pc={pc} ({instruction}): a "
                        "single-IP array processor has one program counter"
                    )
                taken = decisions.pop()
                pc = instruction.imm if taken else pc + 1
                operations += len(live)
                continue
            if instruction.op is Opcode.HALT:
                operations += len(live)
                break
            if instruction.op is Opcode.SHUF:
                # Snapshot pre-instruction registers so the exchange is
                # simultaneous (hardware semantics), then execute per lane.
                self._port.snapshot = [list(lane.registers) for lane in self.lanes]
            for lane_id in live:
                lane = self.lanes[lane_id]
                lane.pc = pc
                outcome = lane.execute(instruction, self._port, lane_id=lane_id)
                assert outcome.executed
                operations += 1
            pc += 1
        stats = {
            "machine": self.subtype.label,
            "n_lanes": self.n_lanes,
            "program": program.name,
        }
        if runtime is not None:
            stats.update(runtime.stats())
            stats["nominal_parallelism"] = float(self.n_lanes)
            stats["achieved_parallelism"] = (
                operations / cycles if cycles else 0.0
            )
        return ExecutionResult(
            cycles=cycles,
            operations=operations,
            outputs={
                "registers": [list(lane.registers) for lane in self.lanes],
            },
            stats=stats,
        )
