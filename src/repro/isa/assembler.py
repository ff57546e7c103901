"""Two-pass assembler and disassembler for the kernel ISA.

Syntax, one instruction per line::

    loop:                     ; labels end with a colon
        ld   r3, 8(r2)        # comments start with '#' or ';'
        addi r2, r2, 8
        add  r4, r4, r3
        bne  r2, r5, loop
        halt

The first pass collects labels; the second parses operands and resolves
branch targets to instruction indices.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode, lookup_mnemonic
from repro.isa.program import Program
from repro.isa.registers import Register, int_reg

_MEM_OPERAND = re.compile(r"^(-?\w+)\((\w+)\)$")
_LABEL_DEF = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*):$")


class AssemblyError(ValueError):
    """Raised for any syntax or semantic error, with line information."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _strip(line: str) -> str:
    for marker in ("#", ";"):
        pos = line.find(marker)
        if pos >= 0:
            line = line[:pos]
    return line.strip()


def _parse_imm(token: str, line_no: int) -> int:
    try:
        return int(token, 0)
    except ValueError:
        raise AssemblyError(line_no, f"bad immediate: {token!r}") from None


def _parse_reg(token: str, line_no: int) -> Register:
    try:
        return Register.parse(token)
    except ValueError as exc:
        raise AssemblyError(line_no, str(exc)) from None


def _split_operands(rest: str) -> List[str]:
    return [tok.strip() for tok in rest.split(",") if tok.strip()]


def _parse_line(
    mnemonic: str, operands: List[str], line_no: int
) -> Instruction:
    try:
        info = lookup_mnemonic(mnemonic)
    except KeyError:
        raise AssemblyError(line_no, f"unknown mnemonic: {mnemonic!r}") from None
    fmt = info.fmt

    def need(n: int) -> None:
        if len(operands) != n:
            raise AssemblyError(
                line_no,
                f"{mnemonic} expects {n} operand(s), got {len(operands)}",
            )

    if fmt == "rrr":
        need(3)
        return Instruction(
            opcode=info.opcode,
            dest=_parse_reg(operands[0], line_no),
            sources=(
                _parse_reg(operands[1], line_no),
                _parse_reg(operands[2], line_no),
            ),
        )
    if fmt == "rri":
        need(3)
        return Instruction(
            opcode=info.opcode,
            dest=_parse_reg(operands[0], line_no),
            sources=(_parse_reg(operands[1], line_no),),
            imm=_parse_imm(operands[2], line_no),
        )
    if fmt == "ri":
        need(2)
        imm: float
        if info.opcode is Opcode.FMOV:
            try:
                imm = int(float(operands[1]))
            except ValueError:
                raise AssemblyError(
                    line_no, f"bad fp immediate: {operands[1]!r}"
                ) from None
        else:
            imm = _parse_imm(operands[1], line_no)
        return Instruction(
            opcode=info.opcode,
            dest=_parse_reg(operands[0], line_no),
            imm=int(imm),
        )
    if fmt == "mem":
        need(2)
        match = _MEM_OPERAND.match(operands[1].replace(" ", ""))
        if not match:
            raise AssemblyError(
                line_no, f"bad memory operand: {operands[1]!r} (want imm(reg))"
            )
        disp = _parse_imm(match.group(1), line_no)
        base = _parse_reg(match.group(2), line_no)
        value_reg = _parse_reg(operands[0], line_no)
        if info.is_store:
            return Instruction(
                opcode=info.opcode, sources=(base, value_reg), imm=disp
            )
        return Instruction(opcode=info.opcode, dest=value_reg, sources=(base,), imm=disp)
    if fmt == "brr":
        need(3)
        return Instruction(
            opcode=info.opcode,
            sources=(
                _parse_reg(operands[0], line_no),
                _parse_reg(operands[1], line_no),
            ),
            label=operands[2],
        )
    if fmt == "br":
        need(2)
        return Instruction(
            opcode=info.opcode,
            sources=(_parse_reg(operands[0], line_no),),
            label=operands[1],
        )
    if fmt == "j":
        need(1)
        dest = int_reg(1) if info.opcode is Opcode.JAL else None
        return Instruction(opcode=info.opcode, dest=dest, label=operands[0])
    if fmt == "jr":
        need(1)
        return Instruction(
            opcode=info.opcode, sources=(_parse_reg(operands[0], line_no),)
        )
    if fmt == "none":
        need(0)
        return Instruction(opcode=info.opcode)
    raise AssemblyError(line_no, f"unhandled format {fmt!r}")


def assemble(text: str, name: str = "program", base_address: int = 0x1000) -> Program:
    """Assemble source text into a validated :class:`Program`."""
    lines = text.splitlines()
    labels = {}
    parsed: List[Tuple[int, str, List[str]]] = []
    # Pass 1: collect labels, record instruction lines.
    for line_no, raw in enumerate(lines, start=1):
        line = _strip(raw)
        if not line:
            continue
        # Allow "label: instr" on one line.
        while True:
            match = re.match(r"^([A-Za-z_][A-Za-z0-9_]*):\s*(.*)$", line)
            if not match:
                break
            label = match.group(1)
            if label in labels:
                raise AssemblyError(line_no, f"duplicate label: {label!r}")
            labels[label] = len(parsed)
            line = match.group(2).strip()
        if not line:
            continue
        parts = line.split(None, 1)
        mnemonic = parts[0]
        operands = _split_operands(parts[1]) if len(parts) > 1 else []
        parsed.append((line_no, mnemonic, operands))

    # Pass 2: parse operands.
    program = Program(labels=labels, base_address=base_address, name=name)
    for line_no, mnemonic, operands in parsed:
        program.instructions.append(_parse_line(mnemonic, operands, line_no))
    try:
        program.resolve_labels()
    except KeyError as exc:
        raise AssemblyError(0, str(exc.args[0])) from None
    program.validate()
    return program


def disassemble(inst: Instruction, target_label: Optional[str] = None) -> str:
    """Render one instruction back to assembly text."""
    info = inst.info
    mnemonic = info.mnemonic
    fmt = info.fmt
    label = target_label or inst.label or (
        f"@{inst.target}" if inst.target is not None else "?"
    )
    if fmt == "rrr":
        return f"{mnemonic} {inst.dest}, {inst.sources[0]}, {inst.sources[1]}"
    if fmt == "rri":
        return f"{mnemonic} {inst.dest}, {inst.sources[0]}, {inst.imm}"
    if fmt == "ri":
        return f"{mnemonic} {inst.dest}, {inst.imm}"
    if fmt == "mem":
        if info.is_store:
            base, value = inst.sources
            return f"{mnemonic} {value}, {inst.imm}({base})"
        return f"{mnemonic} {inst.dest}, {inst.imm}({inst.sources[0]})"
    if fmt == "brr":
        return f"{mnemonic} {inst.sources[0]}, {inst.sources[1]}, {label}"
    if fmt == "br":
        return f"{mnemonic} {inst.sources[0]}, {label}"
    if fmt == "j":
        return f"{mnemonic} {label}"
    if fmt == "jr":
        return f"{mnemonic} {inst.sources[0]}"
    return mnemonic
