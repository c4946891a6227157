"""Executable machine models for the taxonomy's classes: token-driven
data-flow engines (DUP/DMP), the Von Neumann uni-processor (IUP), SIMD
array processors (IAP), MIMD multiprocessors (IMP), spatially-composable
processors (ISP) and the LUT-fabric universal machine (USP)."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "base": ("Capability", "ExecutionResult", "check_capabilities"),
        "dataflow": ("DFOp", "DFNode", "DataflowGraph", "DataflowMachine", "DataflowSubtype"),
        "instruction": ("Uniprocessor",),
        "array_processor": ("ArrayProcessor", "ArraySubtype"),
        "multiprocessor": ("Multiprocessor", "MultiprocessorSubtype"),
        "spatial": ("SpatialMachine", "VliwBundle", "VliwProgram"),
        "fabric": ("CellConfig", "LutFabric"),
        "netlist": ("Bus", "NetlistBuilder"),
        "universal": ("UniversalMachine", "SoftOp", "SoftInstruction", "SoftProgram"),
        "program": (
            "Instruction",
            "NUM_REGISTERS",
            "Opcode",
            "Program",
            "assemble",
            "ins",
            "required_capabilities",
        ),
        "scalar": ("ExtensionPort", "ScalarCore", "StepOutcome"),
        "morph": ("MorphDemonstration", "can_emulate", "demonstrate_morphs"),
    },
)
