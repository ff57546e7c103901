"""Register model: 32 integer registers and 32 floating-point registers.

Registers are identified by small integers: 0..31 are the integer
registers ``r0``..``r31`` (``r0`` is hardwired to zero, as in MIPS and
RISC-V), and 32..63 are the floating point registers ``f0``..``f31``.
A thin :class:`Register` wrapper keeps the integer/FP distinction
explicit in instruction operands.
"""

from __future__ import annotations

from dataclasses import dataclass

INT_REGISTER_COUNT = 32
FP_REGISTER_COUNT = 32

_ALIASES = {"zero": 0, "ra": 1, "sp": 2, "gp": 3, "tp": 4}
_ALIAS_BY_INDEX = {index: name for name, index in _ALIASES.items()}


@dataclass(frozen=True, order=True)
class Register:
    """A register operand; ``index`` spans both banks (0..63)."""

    index: int

    def __post_init__(self) -> None:
        if not 0 <= self.index < INT_REGISTER_COUNT + FP_REGISTER_COUNT:
            raise ValueError(f"register index out of range: {self.index}")

    @property
    def is_fp(self) -> bool:
        return self.index >= INT_REGISTER_COUNT

    @property
    def bank_index(self) -> int:
        """Index within the register's own bank (0..31)."""
        if self.is_fp:
            return self.index - INT_REGISTER_COUNT
        return self.index

    @property
    def name(self) -> str:
        if self.is_fp:
            return f"f{self.bank_index}"
        return f"r{self.bank_index}"

    def __str__(self) -> str:
        return self.name

    @classmethod
    def parse(cls, text: str) -> "Register":
        """Parse ``r<k>``, ``f<k>`` or an alias such as ``zero``."""
        token = text.strip().lower()
        if token in _ALIASES:
            return cls(_ALIASES[token])
        if len(token) >= 2 and token[0] in ("r", "f") and token[1:].isdigit():
            bank_index = int(token[1:])
            if bank_index >= INT_REGISTER_COUNT:
                raise ValueError(f"register number out of range: {text!r}")
            if token[0] == "f":
                return cls(INT_REGISTER_COUNT + bank_index)
            return cls(bank_index)
        raise ValueError(f"not a register: {text!r}")


REG_ZERO = Register(0)


def int_reg(bank_index: int) -> Register:
    """Integer register ``r<bank_index>``."""
    if not 0 <= bank_index < INT_REGISTER_COUNT:
        raise ValueError(f"integer register out of range: {bank_index}")
    return Register(bank_index)


def fp_reg(bank_index: int) -> Register:
    """Floating point register ``f<bank_index>``."""
    if not 0 <= bank_index < FP_REGISTER_COUNT:
        raise ValueError(f"fp register out of range: {bank_index}")
    return Register(INT_REGISTER_COUNT + bank_index)


class RegisterFile:
    """Architectural register state for the functional executor.

    ``values`` is one list indexed by :attr:`Register.index`: integer
    registers hold Python ints (wrapped to 64-bit two's complement on
    write), FP registers hold floats. Slot 0 (``r0``) always reads zero
    and writes to it are discarded. The executor reads and writes the
    list in place, so it is the state :meth:`read` reports.
    """

    _INT_MASK = (1 << 64) - 1

    def __init__(self) -> None:
        self.values = [0] * INT_REGISTER_COUNT + [0.0] * FP_REGISTER_COUNT

    @staticmethod
    def _wrap(value: int) -> int:
        value &= RegisterFile._INT_MASK
        if value >= 1 << 63:
            value -= 1 << 64
        return value

    def read(self, reg: Register) -> float:
        return self.values[reg.index]

    def write(self, reg: Register, value: float) -> None:
        if reg.is_fp:
            self.values[reg.index] = float(value)
        elif reg.index != 0:
            self.values[reg.index] = self._wrap(int(value))

    def snapshot(self) -> dict:
        """Return a name->value dict of all non-zero registers."""
        return {
            Register(i).name: value
            for i, value in enumerate(self.values)
            if value and i != 0
        }
