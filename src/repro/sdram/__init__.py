"""Bank memory substrate: one device model for both memory technologies
(SDRAM, and the rowless SRAM of the PVA-SRAM comparison system),
internal-bank state machines, timing enforcement (the paper's
*restimers*, section 5.2.5), and a functional storage array so
scatter/gather results can be checked for correctness."""

from repro.sdram.commands import SDRAMCommand
from repro.sdram.restimer import Restimer
from repro.sdram.bank import InternalBank
from repro.sdram.device import BankDevice, DeviceStats

__all__ = [
    "SDRAMCommand",
    "Restimer",
    "InternalBank",
    "BankDevice",
    "DeviceStats",
]
