"""SDRAM command vocabulary.

SDRAM is commanded, not strobed: "it is more appropriate to consider these
as commands issued to an SDRAM chip at the edge of the clock"
(section 2.3.3).  These are the operations the access scheduler reorders.
"""

from __future__ import annotations

import enum

__all__ = ["SDRAMCommand"]


class SDRAMCommand(enum.Enum):
    """One per-cycle command on an SDRAM command bus."""

    NOP = "nop"
    ACTIVATE = "activate"  # RAS: open a row in an internal bank
    READ = "read"  # CAS read
    WRITE = "write"  # CAS write
    READ_AP = "read_ap"  # CAS read with auto-precharge
    WRITE_AP = "write_ap"  # CAS write with auto-precharge
    PRECHARGE = "precharge"  # close the open row

    @staticmethod
    def column(is_write: bool, auto_precharge: bool = False) -> "SDRAMCommand":
        """The CAS command moving data in the given direction, with or
        without a folded-in auto-precharge."""
        if is_write:
            return SDRAMCommand.WRITE_AP if auto_precharge else SDRAMCommand.WRITE
        return SDRAMCommand.READ_AP if auto_precharge else SDRAMCommand.READ

    @property
    def is_column(self) -> bool:
        """True for CAS (data-moving) commands."""
        return self in (
            SDRAMCommand.READ,
            SDRAMCommand.WRITE,
            SDRAMCommand.READ_AP,
            SDRAMCommand.WRITE_AP,
        )

    @property
    def is_read(self) -> bool:
        return self in (SDRAMCommand.READ, SDRAMCommand.READ_AP)

    @property
    def is_write(self) -> bool:
        return self in (SDRAMCommand.WRITE, SDRAMCommand.WRITE_AP)

    @property
    def auto_precharge(self) -> bool:
        return self in (SDRAMCommand.READ_AP, SDRAMCommand.WRITE_AP)
