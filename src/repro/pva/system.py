"""The full PVA memory system: front end, vector bus, bank controllers.

Implements the overall operation of section 5.2.6 under the evaluation
assumptions of section 6.2 (an infinitely fast CPU that issues vector
commands as soon as bus and transaction resources allow):

* **VEC_READ** — one request cycle broadcasts ``<B, S, id>`` to all bank
  controllers; each gathers its subvector in parallel; when every BC
  releases the transaction-complete line the front end issues a
  **STAGE_READ** (one command cycle) and the BCs merge the 128-byte line
  over 16 data cycles of the 128-bit BC bus.
* **VEC_WRITE** — the front end first issues **STAGE_WRITE** and streams
  the line over 16 data cycles, then broadcasts the VEC_WRITE command;
  the transaction-complete line deasserting signals commitment.

The bus multiplexes requests and data (one action per cycle) and pays one
turnaround cycle when the data direction between memory controller and
BCs reverses.

The system owns each bank's memory (a plain ``storage`` dict) and
command-log slot.  The banks sit behind one *bank side*, built with the
system over them from the memory's timing record (``params.sdram`` or
``params.sram``): the reference object graph (:class:`_BankComponent`,
whose :class:`~repro.sdram.device.BankDevice` models read and write the
same dicts) or the fast automaton
(:class:`~repro.pva.soa.SoaBankAutomaton`, which builds no device
model).  Each owns its banks' timing state across runs and answers the
same calls, so nothing else asks which backend runs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Deque, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.pla import shared_k1_pla
from repro.errors import ConfigurationError, ProtocolError, VectorSpecError
from repro.interleave.logical import LogicalBankView
from repro.interleave.schemes import InterleaveScheme
from repro.params import SystemParams
from repro.bus.vector_bus import VectorBus
from repro.pva.bank_controller import BankController
from repro.pva.soa import SoaBankAutomaton
from repro.sdram.device import BankDevice, DeviceStats
from repro.sim.events import HORIZON
from repro.sim.kernel import SimKernel
from repro.sim.runner import Watchdog
from repro.sim.stats import ComponentCycles, RunResult, SpanLedger
from repro.types import AccessType, ExplicitCommand, VectorCommand

AnyCommand = Union[VectorCommand, ExplicitCommand]

#: The bank memory technologies, each timed by the ``SystemParams``
#: field of its name.
_MEMORIES = ("sdram", "sram")


def _command_words(command: AnyCommand) -> frozenset:
    """The set of global word addresses a command touches."""
    if isinstance(command, ExplicitCommand):
        return frozenset(command.addresses)
    return frozenset(command.vector.addresses())


def _command_length(command: AnyCommand) -> int:
    """Element count of either command flavour."""
    if isinstance(command, ExplicitCommand):
        return command.length
    return command.vector.length

__all__ = ["PVAMemorySystem"]


@dataclass
class _Transaction:
    """Front-end bookkeeping for one outstanding bus transaction.  The
    bank automaton keeps no other completion state: its banks count
    elements here and, for ``capture_data`` reads, drop each gathered
    value into ``line`` by element index."""

    txn_id: int
    trace_index: int
    is_write: bool
    issue_cycle: int
    expected: int
    done: int = 0
    last_data_cycle: int = -1
    words: frozenset = frozenset()  # writes: word addresses, for WAW gating
    line: Optional[List[int]] = None  # capture_data reads, by index


def _check_complete(txn: _Transaction, event: str) -> None:
    """A transaction may leave the banks only with every element issued."""
    if txn.done != txn.expected:
        raise ProtocolError(
            f"{event} for transaction {txn.txn_id} with {txn.done} of "
            f"{txn.expected} elements issued"
        )


class _FrontEnd:
    """The PVA front end, owner of every transaction from issue to
    retirement (section 5.2.6).

    Its issue phase (:meth:`tick`, the kernel's ``front-end``) releases
    transaction ids and arbitrates the one bus action per cycle between
    staging transfers and new command broadcasts.  Its completion phase
    (:meth:`retire`, ticked after the banks as the kernel's
    ``completion``) watches the wired-OR transaction-complete lines.  It
    owns the id pool, the transaction table the banks report into and
    both phases' ledgers, and reports the vector bus's ledger entry: the
    bus never acts on its own, it carries what the front end schedules."""

    name = "front-end"

    def __init__(
        self,
        system: "PVAMemorySystem",
        commands: Sequence[AnyCommand],
        bus: VectorBus,
        capture_data: bool,
    ):
        self.system = system
        self.bank_side = system._bank_side
        self.commands = commands
        self.bus = bus
        self.max_transactions = system.params.max_transactions
        self.free_ids: Deque[int] = deque(range(self.max_transactions))
        self.outstanding: Dict[int, _Transaction] = {}
        #: Transactions whose last element has issued, awaiting their
        #: last data cycle (appended by the banks, read by :meth:`retire`).
        self.fully_issued: List[_Transaction] = []
        self.stage_queue: Deque[_Transaction] = deque()
        #: (cycle, txn_id) in release order: STAGE_READ transfers
        #: serialize on the bus, so release cycles strictly increase.
        self.releases: Deque[Tuple[int, int]] = deque()
        self.read_lines: Optional[List[Optional[Tuple[int, ...]]]] = None
        read_order: List[int] = []
        if capture_data:
            read_order = [
                i for i, c in enumerate(commands) if c.access is AccessType.READ
            ]
            self.read_lines = [None] * len(read_order)
        self.read_slot_of_trace = {t: i for i, t in enumerate(read_order)}
        self.latencies: List[int] = [0] * len(commands)
        self.next_cmd = 0
        self.end_cycle = 0
        self.next_issue_allowed = 0
        self.issue_interval = system.params.issue_interval
        # WAW-gate cache: the next command's word footprint (computed at
        # most once per trace index, only when a hazard check needs it).
        self._waw_words: frozenset = frozenset()
        self._waw_cmd = -1
        #: The issue phase's ledger (pending: work remains) and the
        #: completion phase's (pending: a transaction is outstanding).
        #: Each phase marks the other's where it changes that state.
        self.ledger = SpanLedger()
        self.completion_ledger = SpanLedger()

    def _words_for_next(self, command: AnyCommand) -> frozenset:
        if self._waw_cmd != self.next_cmd:
            self._waw_words = _command_words(command)
            self._waw_cmd = self.next_cmd
        return self._waw_words

    def _waw_blocked(self) -> bool:
        """Write-after-write hazard gate: a write broadcast stalls while
        an older outstanding *write* covers any of its words.

        The bank schedulers freely reorder same-polarity contexts across
        internal banks — the polarity rule orders only mixed read/write
        pairs (a younger context with the opposite polarity of an older
        one can never overtake it), so WAW is the one cross-command
        hazard the banks cannot see.  Holding the younger broadcast
        until every conflicting older write retires restores program
        order per word; commands with disjoint write footprints — every
        paper kernel — never stall.
        """
        command = self.commands[self.next_cmd]
        if command.access is not AccessType.WRITE:
            return False
        words = None
        for txn in self.outstanding.values():
            if not txn.is_write:
                continue
            if words is None:
                words = self._words_for_next(command)
            if not words.isdisjoint(txn.words):
                return True
        return False

    def done(self) -> bool:
        """Loop-exit predicate: trace drained, no outstanding work."""
        return self.next_cmd >= len(self.commands) and not self.outstanding

    def work_remains(self) -> bool:
        """The front end's ledger state: a command to issue, a
        transaction outstanding, or a staging transfer to finish."""
        return bool(
            self.next_cmd < len(self.commands)
            or self.outstanding
            or self.releases
            or self.stage_queue
        )

    def tick(self, cycle: int) -> bool:
        acted = False
        # -- release transaction ids whose staging transfer finished --
        releases = self.releases
        while releases and releases[0][0] <= cycle:
            self.free_ids.append(releases.popleft()[1])
            acted = True

        # -- one bus action per cycle ---------------------------------
        # New commands take the bus while transaction ids remain (the
        # infinitely-fast-CPU front end keeps the banks fed); staged
        # read returns drain otherwise.  Staging strictly first would
        # starve broadcasts whenever completions return quickly.
        if self.bus.is_free(cycle):
            commands = self.commands
            issue_first = (
                self.next_cmd < len(commands)
                and self.free_ids
                and cycle >= self.next_issue_allowed
                and not self._waw_blocked()
            )
            if self.stage_queue and not issue_first:
                acted = True
                txn = self.stage_queue.popleft()
                _check_complete(txn, "STAGE_READ")
                self.bank_side.stage_read(txn)
                if self.read_lines is not None:
                    self.read_lines[
                        self.read_slot_of_trace[txn.trace_index]
                    ] = tuple(txn.line)
                transfer_end = self.bus.stage_read(cycle)
                self.releases.append((transfer_end, txn.txn_id))
                self.latencies[txn.trace_index] = (
                    transfer_end - txn.issue_cycle
                )
                del self.outstanding[txn.txn_id]
                self.completion_ledger.mark(cycle, bool(self.outstanding))
                self.end_cycle = max(self.end_cycle, transfer_end)
            elif issue_first:
                acted = True
                command = commands[self.next_cmd]
                txn_id = self.free_ids.popleft()
                if txn_id in self.outstanding:
                    raise ProtocolError(
                        f"transaction id {txn_id} reused while outstanding"
                    )
                if len(self.outstanding) >= self.max_transactions:
                    raise ProtocolError(
                        f"transaction {txn_id} exceeds the "
                        f"{self.max_transactions} outstanding transactions"
                    )
                request_cycles = (
                    command.broadcast_cycles
                    if isinstance(command, ExplicitCommand)
                    else 1
                )
                is_write = command.access is AccessType.WRITE
                expected = _command_length(command)
                txn = _Transaction(
                    txn_id, self.next_cmd, is_write, cycle, expected
                )
                if is_write:
                    # STAGE_WRITE command + data cycles, then the
                    # VEC_WRITE (or explicit-address) broadcast.
                    write_line = self.system._write_line(command)
                    request_cycle = self.bus.stage_write(cycle, request_cycles)
                    txn.words = self._words_for_next(command)
                else:
                    write_line = None
                    request_cycle = cycle
                    self.bus.broadcast_request(cycle, request_cycles)
                    if self.read_lines is not None:
                        txn.line = [0] * expected
                # A multi-cycle broadcast (explicit address stream) only
                # finishes delivering addresses on its last bus cycle:
                # the banks cannot act on the command before then, so a
                # write cannot commit while its addresses are on the bus.
                self.system._broadcast(
                    txn_id,
                    command,
                    request_cycle + request_cycles - 1,
                    write_line,
                    cycle,
                )
                self.outstanding[txn_id] = txn
                self.completion_ledger.mark(cycle, True)
                self.next_cmd += 1
                self.next_issue_allowed = cycle + self.issue_interval
        if acted:
            self.ledger.act(cycle, self.work_remains())
        return acted

    def note_issue(self, bank: int, issued) -> None:
        """A bank issued a column for one of our transactions."""
        txn = self.outstanding.get(issued.txn_id)
        if txn is None:
            raise ProtocolError(
                f"bank {bank} issued for unknown "
                f"transaction {issued.txn_id}"
            )
        txn.done += 1
        if issued.data_cycle > txn.last_data_cycle:
            txn.last_data_cycle = issued.data_cycle
        if txn.done >= txn.expected:
            self.fully_issued.append(txn)

    def next_event_cycle(self, cycle: int) -> int:
        target = self.releases[0][0] if self.releases else HORIZON
        if self.stage_queue and self.bus.busy_until < target:
            # A staged read waits only for the bus.
            target = self.bus.busy_until
        if self.next_cmd < len(self.commands) and self.free_ids:
            # The next broadcast waits for the bus and the issue
            # throttle; with no free transaction id it instead
            # unblocks via a completion/release event.
            gate = self.bus.busy_until
            if self.next_issue_allowed > gate:
                gate = self.next_issue_allowed
            if gate < target:
                target = gate
        return target

    def retire(self, cycle: int) -> bool:
        """The completion phase: retire the transactions whose banks
        have all reported and whose last data cycle has passed.  The
        banks hand over each transaction as its last element issues
        (:attr:`fully_issued`), so a tick reads only those.  Ticked
        after the banks, so a completion lands in the cycle of the final
        column issue."""
        pending = self.fully_issued
        # Allocation-free fast path for the common nothing-completes
        # cycle.
        for txn in pending:
            if cycle >= txn.last_data_cycle:
                break
        else:
            return False
        due = [txn for txn in pending if cycle >= txn.last_data_cycle]
        pending[:] = [txn for txn in pending if cycle < txn.last_data_cycle]
        # Same-cycle completions retire in trace order.
        due.sort(key=lambda txn: txn.trace_index)
        for txn in due:
            if not txn.is_write:
                self.stage_queue.append(txn)
                continue
            _check_complete(txn, "write retirement")
            self.bank_side.retire_write(txn.txn_id)
            self.free_ids.append(txn.txn_id)
            self.latencies[txn.trace_index] = cycle + 1 - txn.issue_cycle
            del self.outstanding[txn.txn_id]
            self.end_cycle = max(self.end_cycle, cycle + 1)
        self.completion_ledger.act(cycle, bool(self.outstanding))
        # A write retirement can leave the front end with no work.
        self.ledger.mark(cycle, self.work_remains())
        return True

    def retire_bound(self, cycle: int) -> int:
        """The completion phase's bound: a fully-issued transaction
        completes once its last data cycle passes.  Staged reads are the
        bus's problem, bounded by :meth:`next_event_cycle`."""
        target = HORIZON
        for txn in self.fully_issued:
            if txn.last_data_cycle < target:
                target = txn.last_data_cycle
        return target

    def account(self, total_cycles: int) -> Dict[str, ComponentCycles]:
        # Every transfer starts on a free bus and ends by the run's last
        # cycle, so the bus is busy for exactly its occupancy count.
        busy = self.bus.stats.busy_cycles
        return {
            self.name: self.ledger.close(total_cycles),
            "vector-bus": ComponentCycles(busy=busy, idle=total_cycles - busy),
        }

    def account_completion(
        self, total_cycles: int
    ) -> Dict[str, ComponentCycles]:
        return {"completion": self.completion_ledger.close(total_cycles)}


class _BankComponent:
    """The reference backend's bank side: every bank controller, ticked
    in bank order.  Acting means observable progress: a column issue, a
    request injected into a vector context, a row activate/precharge,
    or an auto-refresh.  Its bound is the current cycle, so the loop
    visits every cycle and each bank books each one: stalled while its
    FIFO or window holds work."""

    name = "banks"

    def __init__(self, banks: List[BankController], logs: List):
        self.banks = banks
        self.devices = [bank.device for bank in banks]
        self.logs = logs
        self.front: Optional[_FrontEnd] = None
        self.ledgers: List[SpanLedger] = []

    def bind(self, front: _FrontEnd, bus: VectorBus) -> None:
        """Start a run: hand each device its bank's command-log slot and
        open a fresh ledger."""
        self.front = front
        for device, log in zip(self.devices, self.logs):
            device.log = log
        self.ledgers = [SpanLedger() for _ in self.banks]

    def unbind(self) -> None:
        self.front = None

    def tick(self, cycle: int) -> bool:
        note_issue = self.front.note_issue
        acted_any = False
        for bank, ledger in zip(self.banks, self.ledgers):
            issued = bank.tick(cycle)
            if issued is not None:
                note_issue(bank.bank, issued)
            # The controller records whether the tick changed any state
            # (refresh, dequeue, row operation) — no counter diffing.
            pending = bool(bank.rqf or bank.scheduler.window)
            if issued is not None or bank.acted:
                ledger.act(cycle, pending)
                acted_any = True
            else:
                ledger.mark(cycle, pending)
        return acted_any

    def next_event_cycle(self, cycle: int) -> int:
        return cycle

    def account(self, total_cycles: int) -> Dict[str, ComponentCycles]:
        return {
            f"bank-{bank.bank}": ledger.close(total_cycles)
            for bank, ledger in zip(self.banks, self.ledgers)
        }

    def broadcast_vector(
        self, txn_id, vector, is_write, cycle, write_line, call_cycle
    ) -> int:
        return sum(
            bank.broadcast(txn_id, vector, is_write, cycle, write_line=write_line)
            for bank in self.banks
        )

    def broadcast_explicit(
        self, txn_id, addresses, is_write, cycle, write_line, call_cycle
    ) -> int:
        return sum(
            bank.broadcast_explicit(
                txn_id, addresses, is_write, cycle, write_line=write_line
            )
            for bank in self.banks
        )

    def broadcast_pairs(
        self, txn_id, per_bank, is_write, cycle, write_line, stride, call_cycle
    ) -> int:
        return sum(
            bank.broadcast_pairs(
                txn_id,
                tuple(per_bank[bank.bank]),
                is_write,
                cycle,
                write_line=write_line,
                stride=stride,
            )
            for bank in self.banks
        )

    def stage_read(self, txn: _Transaction) -> None:
        """Drain every bank's read staging unit (section 5.2.2) into
        ``txn.line``, which only ``capture_data`` runs allocate."""
        line = txn.line
        for bank in self.banks:
            for index, value in bank.drain_read(txn.txn_id):
                if line is not None:
                    line[index] = value

    def retire_write(self, txn_id: int) -> None:
        for bank in self.banks:
            bank.release_write(txn_id)

    def device_stats(self) -> DeviceStats:
        total = DeviceStats()
        for device in self.devices:
            stats = device.stats()
            total.activates += stats.activates
            total.precharges += stats.precharges
            total.auto_precharges += stats.auto_precharges
            total.reads += stats.reads
            total.writes += stats.writes
            total.turnarounds += stats.turnarounds
        return total


class PVAMemorySystem:
    """The paper's prototype: M word-interleaved banks behind a PVA unit.

    Parameters
    ----------
    params:
        Geometry and microarchitecture (defaults: the section 5.1
        prototype).
    memory:
        Each bank's memory technology: ``"sdram"`` (the prototype's
        modules, timed by ``params.sdram``) or ``"sram"`` (the PVA-SRAM
        comparison system's idealized banks, timed by ``params.sram``).
    name:
        Label used in results.

    Each bank's memory is a plain dict, :attr:`storage` (indexed by
    bank, keyed by local word), and :attr:`logs` holds its command-log
    slot.  Only a reference system builds device models
    (:attr:`devices`) and bank controllers (:attr:`banks`).
    """

    def __init__(
        self,
        params: Optional[SystemParams] = None,
        memory: str = "sdram",
        name: str = "pva-sdram",
        interleave: Optional[InterleaveScheme] = None,
    ):
        self.params = params or SystemParams()
        self.name = name
        if memory not in _MEMORIES:
            raise ConfigurationError(
                f"memory must be one of {_MEMORIES}, got {memory!r}"
            )
        self.memory = memory
        if interleave is not None and (
            interleave.num_banks != self.params.num_banks
        ):
            raise ConfigurationError(
                f"interleave scheme has {interleave.num_banks} banks but "
                f"the system has {self.params.num_banks}"
            )
        #: Non-word interleave (cache-line or block, section 4.1.3);
        #: None selects the prototype's word-interleaved fast path.
        self.interleave = (
            None
            if interleave is None or interleave.chunk_words == 1
            else interleave
        )
        self._logical_view = (
            LogicalBankView(self.interleave)
            if self.interleave is not None
            else None
        )
        self._pla = shared_k1_pla(self.params.num_banks)
        self.reset()

    def reset(self) -> None:
        """Discard all memory contents and statistics, returning the
        system to its just-constructed state.  Idempotent.  Makes each
        bank's storage dict and (empty) command-log slot, and over them
        the bank side ``sim_mode`` names, built from the memory's timing
        record, which owns all other bank state.
        """
        #: Set while a run is inside the kernel loop; still set after a
        #: run that raised (a watchdog timeout, say), whose banks hold
        #: half-applied work until :meth:`reset`.
        self._unfinished = False
        params = self.params
        self.storage: List[Dict[int, int]] = [
            {} for _ in range(params.num_banks)
        ]
        self.logs: List = [None] * params.num_banks
        timing = getattr(params, self.memory)
        if params.sim_mode == "fast":
            self._bank_side = SoaBankAutomaton(
                self.storage, self.logs, params, self._pla, timing
            )
        else:
            self._bank_side = _BankComponent(
                [
                    BankController(
                        bank,
                        params,
                        BankDevice(timing, params.bus_turnaround, storage),
                        self._pla,
                    )
                    for bank, storage in enumerate(self.storage)
                ],
                self.logs,
            )

    @property
    def banks(self) -> List[BankController]:
        """The bank controllers, indexed by bank: only a reference system
        has them (a fast system raises AttributeError)."""
        return self._bank_side.banks

    @property
    def devices(self) -> List[BankDevice]:
        """The device models, indexed by bank, each over its bank's
        :attr:`storage`: only a reference system has them (a fast system
        raises AttributeError)."""
        return self._bank_side.devices

    def attach_command_logs(self):
        """Attach a :class:`~repro.sim.trace_log.CommandLog` to every
        bank and return them (indexed by bank number).

        Call before :meth:`run`; the logs then capture the full SDRAM
        command stream of every later run, one logic-analyzer trace per
        bank.
        """
        from repro.sim.trace_log import CommandLog

        self.logs[:] = [CommandLog() for _ in self.logs]
        return list(self.logs)

    # ----------------------------------------------------------------- #
    # Functional memory access (test setup / verification)
    # ----------------------------------------------------------------- #

    def _locate(self, address: int) -> Tuple[int, int]:
        if self.interleave is not None:
            return (
                self.interleave.bank_of(address),
                self.interleave.local_word(address),
            )
        bank = address & (self.params.num_banks - 1)
        return bank, address >> self.params.bank_bits

    def poke(self, address: int, value: int) -> None:
        """Write one word directly into the backing storage."""
        bank, local = self._locate(address)
        self.storage[bank][local] = value

    def peek(self, address: int) -> int:
        """Read one word directly from the backing storage."""
        bank, local = self._locate(address)
        return self.storage[bank].get(local, 0)

    # ----------------------------------------------------------------- #
    # Trace execution
    # ----------------------------------------------------------------- #

    def run(
        self,
        commands: Sequence[VectorCommand],
        capture_data: bool = False,
    ) -> RunResult:
        """Execute a command trace; return cycle counts and statistics.

        A :class:`repro.sim.kernel.SimKernel` drives three clocked
        components, in this order: the front end's issue phase, the bank
        side (the object graph under ``reference``, one automaton for
        every bank under ``fast``) and the front end's completion phase.
        The kernel owns watchdog probing and the next-event advance.
        Each component settles its own cycle-attribution ledger (the
        front end also the vector bus's); after the loop the run merges
        them, in component order, into :attr:`RunResult.attribution`.

        A run on a system whose previous run raised (a watchdog
        timeout, say) raises :class:`~repro.errors.ConfigurationError`
        under either backend: call :meth:`reset` first.
        """
        if self._unfinished:
            raise ConfigurationError(
                f"{self.name}: the previous run did not finish; call "
                f"reset() before running the system again"
            )
        for command in commands:
            if _command_length(command) > self.params.max_vector_length:
                raise VectorSpecError(
                    f"command length {_command_length(command)} exceeds "
                    f"the cache-line command limit "
                    f"{self.params.max_vector_length}; split it first"
                )
        bus = VectorBus(self.params)
        front = _FrontEnd(self, commands, bus, capture_data)
        bank_side = self._bank_side
        # The completion phase holds no logic of its own: the kernel
        # ticks the front end's retire step after the banks.
        completion = SimpleNamespace(
            name="completion",
            tick=front.retire,
            next_event_cycle=front.retire_bound,
            account=front.account_completion,
        )
        components = [front, bank_side, completion]
        watchdog = Watchdog(len(commands), self.params, system=self.name)
        kernel = SimKernel(components, watchdog=watchdog)
        self._unfinished = True
        bank_side.bind(front, bus)
        try:
            exit_cycle = kernel.run(front.done)
        finally:
            bank_side.unbind()
        self._unfinished = False

        total_cycles = max(front.end_cycle, exit_cycle)
        attribution: Dict[str, ComponentCycles] = {}
        for component in components:
            attribution.update(component.account(total_cycles))
        device_stats = bank_side.device_stats()
        reads = sum(1 for c in commands if c.access is AccessType.READ)
        writes = len(commands) - reads
        result = RunResult(
            system=self.name,
            cycles=total_cycles,
            commands=len(commands),
            read_commands=reads,
            write_commands=writes,
            elements_read=sum(
                _command_length(c)
                for c in commands
                if c.access is AccessType.READ
            ),
            elements_written=sum(
                _command_length(c)
                for c in commands
                if c.access is AccessType.WRITE
            ),
            device=device_stats,
            bus=bus.stats,
            command_latencies=front.latencies,
            attribution=attribution,
        )
        if front.read_lines is not None:
            result.read_lines = [
                line if line is not None else ()
                for line in front.read_lines
            ]
        return result

    # ----------------------------------------------------------------- #
    # Internals
    # ----------------------------------------------------------------- #

    def _broadcast(
        self,
        txn_id: int,
        command: AnyCommand,
        cycle: int,
        write_line: Optional[Tuple[int, ...]],
        call_cycle: int,
    ) -> None:
        """All banks observe one command, delivered at ``cycle``."""
        is_write = command.access is AccessType.WRITE
        if self.interleave is not None:
            total = self._broadcast_interleaved(
                txn_id, command, cycle, write_line, call_cycle
            )
        elif isinstance(command, ExplicitCommand):
            total = self._bank_side.broadcast_explicit(
                txn_id, command.addresses, is_write, cycle, write_line, call_cycle
            )
        else:
            total = self._bank_side.broadcast_vector(
                txn_id, command.vector, is_write, cycle, write_line, call_cycle
            )
        if total != _command_length(command):
            raise ProtocolError(
                f"banks claimed {total} elements of a "
                f"{_command_length(command)}-element command — element "
                "partition broken"
            )

    def _broadcast_interleaved(
        self,
        txn_id: int,
        command: AnyCommand,
        cycle: int,
        write_line: Optional[Tuple[int, ...]],
        call_cycle: int,
    ) -> int:
        """Broadcast under a cache-line/block interleave (section 4.1.3).

        Each bank controller conceptually runs ``W*N`` copies of the
        word-interleave FirstHit logic over the logical-bank view; the
        resulting per-bank element lists are queued with the same
        FHP/FHC pipeline timing as the word-interleaved unit.
        """
        scheme = self.interleave
        is_write = command.access is AccessType.WRITE
        banks = range(self.params.num_banks)
        if isinstance(command, ExplicitCommand):
            per_bank: List[List[Tuple[int, int]]] = [[] for _ in banks]
            for index, address in enumerate(command.addresses):
                per_bank[scheme.bank_of(address)].append(
                    (scheme.local_word(address), index)
                )
            stride = None
        else:
            per_bank = [
                [
                    (scheme.local_word(address), index)
                    for index, address in self._logical_view.subvector(
                        command.vector, bank
                    )
                ]
                for bank in banks
            ]
            stride = command.vector.stride
        return self._bank_side.broadcast_pairs(
            txn_id, per_bank, is_write, cycle, write_line, stride, call_cycle
        )

    def _write_line(self, command: AnyCommand) -> Tuple[int, ...]:
        """The cache line the front end stages ahead of a VEC_WRITE.

        ``command.data`` supplies real data (the command checked its
        length); performance traces without data scatter a deterministic
        placeholder pattern.
        """
        if command.data is not None:
            return tuple(command.data)
        return tuple(range(_command_length(command)))
