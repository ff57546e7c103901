"""Fixed-width binary encoding of instructions.

Each instruction encodes to 12 bytes (little-endian):

==========  =====  ==========================================
bytes       field  meaning
==========  =====  ==========================================
0           op     opcode ordinal (enum definition order)
1           dest   dest register index + 1 (0 means none)
2           src1   first source register index + 1 (0 = none)
3           src2   second source register index + 1 (0 = none)
4..7        imm    signed 32-bit immediate / displacement
8..11       tgt    signed 32-bit branch target index (-1 = none)
==========  =====  ==========================================

Label names are not preserved — targets are resolved indices, which is
all the simulator needs.
"""

from __future__ import annotations

import struct

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.registers import Register

ENCODED_SIZE = 12
_STRUCT = struct.Struct("<BBBBii")
_OPCODES = list(Opcode)
_ORDINAL = {opcode: i for i, opcode in enumerate(_OPCODES)}


class DecodeError(ValueError):
    """Raised when a byte string is not a valid encoded instruction."""


def encode_instruction(inst: Instruction) -> bytes:
    """Encode one instruction to its 12-byte form."""
    if len(inst.sources) > 2:
        raise ValueError(f"cannot encode {len(inst.sources)} sources")
    dest = inst.dest.index + 1 if inst.dest is not None else 0
    src1 = inst.sources[0].index + 1 if len(inst.sources) >= 1 else 0
    src2 = inst.sources[1].index + 1 if len(inst.sources) >= 2 else 0
    target = inst.target if inst.target is not None else -1
    return _STRUCT.pack(_ORDINAL[inst.opcode], dest, src1, src2, inst.imm, target)


def decode_instruction(data: bytes) -> Instruction:
    """Decode a 12-byte form back into an :class:`Instruction`."""
    if len(data) != ENCODED_SIZE:
        raise DecodeError(f"expected {ENCODED_SIZE} bytes, got {len(data)}")
    op_ord, dest, src1, src2, imm, target = _STRUCT.unpack(data)
    if op_ord >= len(_OPCODES):
        raise DecodeError(f"bad opcode ordinal: {op_ord}")
    try:
        sources = tuple(
            Register(code - 1) for code in (src1, src2) if code
        )
        dest_reg = Register(dest - 1) if dest else None
    except ValueError as exc:
        raise DecodeError(str(exc)) from None
    return Instruction(
        opcode=_OPCODES[op_ord],
        dest=dest_reg,
        sources=sources,
        imm=imm,
        target=target if target >= 0 else None,
    )
