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
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.decode import TopologyDecoder
from repro.core.pla import shared_k1_pla
from repro.errors import ConfigurationError, ProtocolError, VectorSpecError
from repro.interleave.logical import LogicalBankView
from repro.interleave.schemes import InterleaveScheme
from repro.params import SystemParams
from repro.bus.vector_bus import VectorBus
from repro.pva.bank_controller import BankController
from repro.pva.window import WindowBankAutomaton
from repro.sdram.device import DeviceStats, SDRAMDevice
from repro.sim.events import HORIZON
from repro.sim.kernel import PassiveComponent, SimKernel
from repro.sim.runner import Watchdog
from repro.sim.stats import BusStats, RunResult
from repro.types import AccessType, ExplicitCommand, VectorCommand

AnyCommand = Union[VectorCommand, ExplicitCommand]


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
    line: Optional[List[int]] = None  # automaton capture_data reads


def _check_complete(txn: _Transaction, event: str) -> None:
    """A transaction may leave the banks only with every element issued."""
    if txn.done != txn.expected:
        raise ProtocolError(
            f"{event} for transaction {txn.txn_id} with {txn.done} of "
            f"{txn.expected} elements issued"
        )


class _FrontEnd:
    """The PVA front end as a kernel component: transaction-id releases
    plus the one-bus-action-per-cycle arbitration between staging
    transfers and new command broadcasts.  Owns the shared per-run
    bookkeeping the bank and completion components report into."""

    name = "front-end"

    def __init__(
        self,
        system: "PVAMemorySystem",
        commands: Sequence[AnyCommand],
        bus: VectorBus,
        capture_data: bool,
    ):
        self.system = system
        self.commands = commands
        self.bus = bus
        self.max_transactions = system.params.max_transactions
        self.free_ids: Deque[int] = deque(range(self.max_transactions))
        self.outstanding: Dict[int, _Transaction] = {}
        #: Transactions whose last element has issued, awaiting their
        #: last data cycle (appended by the banks, read by completion).
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
                if self.system._automaton is None:
                    # The object graph's read staging units hold the
                    # gathered subvectors (section 5.2.2).
                    line = self.system._assemble_line(
                        txn.txn_id, commands[txn.trace_index]
                    )
                else:
                    line = txn.line
                if self.read_lines is not None:
                    self.read_lines[
                        self.read_slot_of_trace[txn.trace_index]
                    ] = tuple(line)
                transfer_end = self.bus.stage_read(cycle)
                self.releases.append((transfer_end, txn.txn_id))
                self.latencies[txn.trace_index] = (
                    transfer_end - txn.issue_cycle
                )
                del self.outstanding[txn.txn_id]
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
                expected = _command_length(command)
                if command.access is AccessType.READ:
                    # A multi-cycle broadcast (explicit address
                    # stream) only finishes delivering addresses on
                    # its last bus cycle; the banks cannot act on the
                    # command before then.
                    self.system._broadcast(
                        txn_id, command, cycle + request_cycles - 1, None, cycle
                    )
                    self.bus.broadcast_request(cycle, request_cycles)
                    self.outstanding[txn_id] = _Transaction(
                        txn_id=txn_id,
                        trace_index=self.next_cmd,
                        is_write=False,
                        issue_cycle=cycle,
                        expected=expected,
                        line=(
                            [0] * expected
                            if self.read_lines is not None
                            and self.system._automaton is not None
                            else None
                        ),
                    )
                else:
                    # STAGE_WRITE command + data cycles, then the
                    # VEC_WRITE (or explicit-address) broadcast.
                    line = self.system._write_line(command)
                    vec_write_cycle = self.bus.stage_write(
                        cycle, request_cycles
                    )
                    # As for reads: the banks see the command once the
                    # last broadcast cycle has delivered the final
                    # addresses, so a write cannot commit while its
                    # address stream is still on the bus.
                    self.system._broadcast(
                        txn_id,
                        command,
                        vec_write_cycle + request_cycles - 1,
                        line,
                        cycle,
                    )
                    self.outstanding[txn_id] = _Transaction(
                        txn_id=txn_id,
                        trace_index=self.next_cmd,
                        is_write=True,
                        issue_cycle=cycle,
                        expected=expected,
                        words=self._words_for_next(command),
                    )
                self.next_cmd += 1
                self.next_issue_allowed = cycle + self.issue_interval
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

    def account(self, start: int, end: int) -> Tuple[int, int, int]:
        span = end - start
        if (
            self.next_cmd < len(self.commands)
            or self.outstanding
            or self.releases
            or self.stage_queue
        ):
            return (0, span, 0)
        return (0, 0, span)


class _BusComponent(PassiveComponent):
    """The vector bus is a pure occupancy state machine — every transfer
    is scheduled by the front end, so its tick never acts; it exists as
    a component for the attribution ledger (busy = carrying a request,
    data, or turnaround; never stalled)."""

    name = "vector-bus"

    def __init__(self, bus: VectorBus):
        self.bus = bus

    def account(self, start: int, end: int) -> Tuple[int, int, int]:
        busy_end = min(end, self.bus.busy_until)
        busy = busy_end - start if busy_end > start else 0
        return (busy, 0, (end - start) - busy)


class _BankComponent:
    """One bank controller under the reference tick loop.  Acting means
    observable progress: a column issue, a request injected into a
    vector context, a row activate/precharge, or an auto-refresh."""

    def __init__(self, bank: BankController, front: _FrontEnd):
        self.bank = bank
        self.front = front
        self.name = f"bank-{bank.bank}"

    def tick(self, cycle: int) -> bool:
        bank = self.bank
        issued = bank.tick(cycle)
        if issued is not None:
            self.front.note_issue(bank.bank, issued)
            return True
        # The controller records whether the tick changed any state
        # (refresh, dequeue, row operation) — no counter diffing needed.
        return bank.acted

    def next_event_cycle(self, cycle: int) -> int:
        # No lower bound: the kernel ticks every bank on every cycle.
        return cycle

    def account(self, start: int, end: int) -> Tuple[int, int, int]:
        span = end - start
        if self.bank.rqf or self.bank.scheduler.window:
            return (0, span, 0)
        return (0, 0, span)


class _CompletionUnit:
    """The front end's view of the wired-OR transaction-complete line
    (section 5.2.6): retires transactions whose banks have all reported
    and whose last data cycle has passed.  The banks hand over each
    transaction as its last element issues (``front.fully_issued``), so
    a tick reads only those.  Ticks after the banks so a completion
    lands in the same cycle as the final column issue, exactly as the
    monolithic loop ordered it."""

    name = "completion"

    def __init__(self, front: _FrontEnd):
        self.front = front

    def tick(self, cycle: int) -> bool:
        pending = self.front.fully_issued
        # Allocation-free fast path for the common nothing-completes
        # cycle.
        for txn in pending:
            if cycle >= txn.last_data_cycle:
                break
        else:
            return False
        front = self.front
        due = [txn for txn in pending if cycle >= txn.last_data_cycle]
        pending[:] = [txn for txn in pending if cycle < txn.last_data_cycle]
        # Same-cycle completions retire in trace order.
        due.sort(key=lambda txn: txn.trace_index)
        for txn in due:
            if not txn.is_write:
                front.stage_queue.append(txn)
                continue
            _check_complete(txn, "write retirement")
            if front.system._automaton is None:
                for bank in front.system.banks:
                    bank.release_write(txn.txn_id)
            front.free_ids.append(txn.txn_id)
            front.latencies[txn.trace_index] = cycle + 1 - txn.issue_cycle
            del front.outstanding[txn.txn_id]
            front.end_cycle = max(front.end_cycle, cycle + 1)
        return True

    def next_event_cycle(self, cycle: int) -> int:
        # A fully-issued transaction completes once its last data cycle
        # passes.  Staged reads are the bus's problem, bounded by the
        # front end.
        target = HORIZON
        for txn in self.front.fully_issued:
            if txn.last_data_cycle < target:
                target = txn.last_data_cycle
        return target

    def account(self, start: int, end: int) -> Tuple[int, int, int]:
        span = end - start
        if self.front.outstanding:
            return (0, span, 0)
        return (0, 0, span)


class PVAMemorySystem:
    """The paper's prototype: M word-interleaved banks behind a PVA unit.

    Parameters
    ----------
    params:
        Geometry and microarchitecture (defaults: the section 5.1
        prototype).
    device_factory:
        Callable producing one memory-device model per bank; defaults to
        the SDRAM module.  The PVA-SRAM comparison system passes an SRAM
        factory here.
    name:
        Label used in results.
    """

    def __init__(
        self,
        params: Optional[SystemParams] = None,
        device_factory: Optional[Callable[[SystemParams], object]] = None,
        name: str = "pva-sdram",
        interleave: Optional[InterleaveScheme] = None,
    ):
        self.params = params or SystemParams()
        self.name = name
        if device_factory is None:
            device_factory = lambda p: SDRAMDevice(
                p.sdram, bus_turnaround=p.bus_turnaround
            )
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
        self._device_factory = device_factory
        self._pla = shared_k1_pla(self.params.num_banks)
        #: Channel/rank-aware decode of the word-interleaved topology
        #: (None under a non-word interleave scheme, which predates the
        #: topology layer and stays single-channel).
        self.decoder: Optional[TopologyDecoder] = (
            TopologyDecoder(self.params.topology)
            if self.interleave is None
            else None
        )
        #: Live bank automaton during a fast run (broadcasts route to it
        #: instead of the bank controllers).
        self._automaton: Optional[WindowBankAutomaton] = None
        self.banks: List[BankController] = [
            BankController(
                bank, self.params, device_factory(self.params), self._pla
            )
            for bank in range(self.params.num_banks)
        ]

    def reset(self) -> None:
        """Discard all device contents and statistics, returning the
        system to its just-constructed state.  Idempotent."""
        self.banks = [
            BankController(
                bank, self.params, self._device_factory(self.params), self._pla
            )
            for bank in range(self.params.num_banks)
        ]

    def attach_command_logs(self):
        """Attach a :class:`~repro.sim.trace_log.CommandLog` to every
        bank's device and return them (indexed by bank number).

        Call before :meth:`run`; the logs then capture the full SDRAM
        command stream of the run, one logic-analyzer trace per device.
        """
        from repro.sim.trace_log import CommandLog

        logs = []
        for bank in self.banks:
            log = CommandLog()
            bank.device.log = log
            logs.append(log)
        return logs

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

    def locate(self, address: int):
        """Full physical decode of ``address`` — the system-wide bank
        plus its (channel, rank, bank-within-rank) coordinates.  Only
        defined for the word-interleaved topology path."""
        if self.decoder is None:
            raise ConfigurationError(
                "locate() needs the word-interleaved topology decoder; "
                "this system runs a custom interleave scheme"
            )
        return self.decoder.coordinates(address)

    def poke(self, address: int, value: int) -> None:
        """Write one word directly into the backing storage."""
        bank, local = self._locate(address)
        self.banks[bank].device.poke(local, value)

    def peek(self, address: int) -> int:
        """Read one word directly from the backing storage."""
        bank, local = self._locate(address)
        return self.banks[bank].device.peek(local)

    # ----------------------------------------------------------------- #
    # Trace execution
    # ----------------------------------------------------------------- #

    def run(
        self,
        commands: Sequence[VectorCommand],
        capture_data: bool = False,
    ) -> RunResult:
        """Execute a command trace; return cycle counts and statistics.

        The run is driven by the shared simulation kernel
        (:class:`repro.sim.kernel.SimKernel`): the front end, the vector
        bus, the banks (one component per bank controller under
        ``reference``, one automaton for all of them under ``fast``) and
        the completion unit register as clocked components, and the
        kernel owns watchdog probing, the time-skip advance, and the
        per-component cycle-attribution ledger surfaced as
        :attr:`RunResult.attribution`.

        Under ``fast`` a system the automaton does not model raises
        :class:`~repro.errors.ConfigurationError`: a device other than
        ``SDRAMDevice``/``SRAMDevice``, mixed device models, or banks
        still holding work from an unfinished run (call :meth:`reset`).
        """
        for command in commands:
            if _command_length(command) > self.params.max_vector_length:
                raise VectorSpecError(
                    f"command length {_command_length(command)} exceeds "
                    f"the cache-line command limit "
                    f"{self.params.max_vector_length}; split it first"
                )
        bus = VectorBus(self.params)
        watchdog = Watchdog(len(commands), system=self.name)
        #: The fast backend jumps idle gaps via next-event lower bounds
        #: instead of ticking through them (see repro.sim.events), and
        #: steps every bank as one window automaton (repro.pva.window,
        #: falling back chain by chain to the SoA walk of repro.pva.soa).
        #: The reference backend ticks the object graph.
        fast = self.params.sim_mode == "fast"
        front = _FrontEnd(self, commands, bus, capture_data)
        kernel = SimKernel(watchdog=watchdog, time_skip=fast)
        kernel.register(front)
        kernel.register(_BusComponent(bus))
        if fast:
            self._automaton = WindowBankAutomaton(
                self.banks, front, bus, self.params, kernel
            )
            kernel.register(self._automaton)
        else:
            for bank in self.banks:
                kernel.register(_BankComponent(bank, front))
        kernel.register(_CompletionUnit(front))
        try:
            exit_cycle = kernel.run(front.done)
        finally:
            # Restore the object graph before any statistics are read
            # (or before the caller inspects state after a timeout).
            if self._automaton is not None:
                self._automaton.writeback()
                self._automaton = None

        total_cycles = max(front.end_cycle, exit_cycle)
        device_stats = self._aggregate_device_stats()
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
            attribution=kernel.finalize(total_cycles),
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
        is_write = command.access is AccessType.WRITE
        automaton = self._automaton
        total = 0
        if self.interleave is not None:
            total = self._broadcast_interleaved(
                txn_id, command, cycle, write_line, call_cycle
            )
        elif isinstance(command, ExplicitCommand):
            if automaton is not None:
                total = automaton.broadcast_explicit(
                    txn_id,
                    command.addresses,
                    is_write,
                    cycle,
                    write_line,
                    call_cycle,
                )
            else:
                for bank in self.banks:
                    total += bank.broadcast_explicit(
                        txn_id,
                        command.addresses,
                        is_write,
                        cycle,
                        write_line=write_line,
                    )
        elif automaton is not None:
            total = automaton.broadcast_vector(
                txn_id, command.vector, is_write, cycle, write_line, call_cycle
            )
        else:
            for bank in self.banks:
                total += bank.broadcast(
                    txn_id,
                    command.vector,
                    is_write,
                    cycle,
                    write_line=write_line,
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
        total = 0
        if isinstance(command, ExplicitCommand):
            per_bank = {bank.bank: [] for bank in self.banks}
            for index, address in enumerate(command.addresses):
                per_bank[scheme.bank_of(address)].append(
                    (scheme.local_word(address), index)
                )
            stride = None
        else:
            per_bank = {
                bank.bank: [
                    (scheme.local_word(address), index)
                    for index, address in self._logical_view.subvector(
                        command.vector, bank.bank
                    )
                ]
                for bank in self.banks
            }
            stride = command.vector.stride
        automaton = self._automaton
        if automaton is not None:
            total = automaton.broadcast_pairs(
                txn_id,
                [per_bank[bank.bank] for bank in self.banks],
                is_write,
                cycle,
                write_line,
                stride,
                call_cycle,
            )
        else:
            for bank in self.banks:
                total += bank.broadcast_pairs(
                    txn_id,
                    tuple(per_bank[bank.bank]),
                    is_write,
                    cycle,
                    write_line=write_line,
                    stride=stride,
                )
        return total

    def _write_line(self, command: AnyCommand) -> Tuple[int, ...]:
        """The cache line the front end stages ahead of a VEC_WRITE.

        ``command.data`` supplies real data; performance traces without
        data scatter a deterministic placeholder pattern.
        """
        length = _command_length(command)
        if command.data is not None:
            if len(command.data) < length:
                raise VectorSpecError(
                    f"write command carries {len(command.data)} words for a "
                    f"{length}-element vector"
                )
            return tuple(command.data)
        return tuple(range(length))

    def _assemble_line(
        self, txn_id: int, command: AnyCommand
    ) -> Tuple[int, ...]:
        """Merge the staged subvectors of all banks into the dense line
        returned to the processor (gathered in index order)."""
        line: List[int] = [0] * _command_length(command)
        for bank in self.banks:
            for index, value in bank.drain_read(txn_id):
                line[index] = value
        return tuple(line)

    def _aggregate_device_stats(self) -> DeviceStats:
        total = DeviceStats()
        for bank in self.banks:
            stats = bank.device.stats()
            total.activates += stats.activates
            total.precharges += stats.precharges
            total.auto_precharges += stats.auto_precharges
            total.reads += stats.reads
            total.writes += stats.writes
            total.turnarounds += stats.turnarounds
        return total
