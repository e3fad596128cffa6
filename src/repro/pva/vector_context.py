"""Vector Contexts (VCs): the access scheduler's in-flight request slots.

Each VC holds one vector request whose accesses are ready to issue, and
expands its address sequence live: a shift-and-add for base-stride
requests (start at the FirstHit address, repeatedly add ``S << (m -
s)``; section 4.2, steps 6-7), or a walk over an explicit
``(local_word, index)`` list.  The property suite in
``tests/pva/test_schedule.py`` fuzzes this walk against the closed-form
hit tables the fast backend uses.  The window holds up to four VCs in
the prototype; arbitration, row prediction and the polarity rule live in
:mod:`repro.pva.scheduler`.
"""

from __future__ import annotations

from typing import Optional

from repro.pva.request import BCRequest

__all__ = ["VectorContext"]


class VectorContext:
    """One in-flight vector request inside a bank controller."""

    __slots__ = (
        "req",
        "is_write",
        "local_addr",
        "index",
        "remaining",
        "issued_any",
        "entered_cycle",
        "_pos",
    )

    def __init__(self, req: BCRequest, entered_cycle: int):
        self.req = req
        #: Mirrored from the request: read every cycle by the polarity
        #: rule, so a plain slot beats a delegating property.
        self.is_write = req.is_write
        self._pos = 0
        if req.explicit is not None:
            self.local_addr, self.index = req.explicit[0]
        else:
            self.local_addr = req.local_first
            self.index = req.sub.first_index
        self.remaining = req.count
        #: Has the very first operation for this request been issued?
        #: (drives the autoprecharge predictor update, section 5.2.2).
        self.issued_any = False
        self.entered_cycle = entered_cycle

    @property
    def done(self) -> bool:
        return self.remaining == 0

    @property
    def next_local_addr(self) -> Optional[int]:
        """Address of the element after the current one, if any — used by
        the row-management heuristic to decide auto-precharge."""
        if self.remaining <= 1:
            return None
        if self.req.explicit is not None:
            return self.req.explicit[self._pos + 1][0]
        return self.local_addr + self.req.local_step

    def write_value(self) -> int:
        """Datum for the current element of a scattered write, pulled from
        the staged line by vector index."""
        line = self.req.write_line
        if line is None:
            raise ValueError("write context has no staged data")
        return line[self.index]

    def advance(self) -> None:
        """Step to the next owned element: a shift-and-add for base-stride
        requests, a list walk for explicit scatter/gather."""
        self.remaining -= 1
        self.issued_any = True
        if self.req.explicit is not None:
            self._pos += 1
            if self.remaining > 0:
                self.local_addr, self.index = self.req.explicit[self._pos]
            return
        self.local_addr += self.req.local_step
        self.index += self.req.sub.delta

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "W" if self.is_write else "R"
        return (
            f"VC(txn={self.req.txn_id} {kind} addr={self.local_addr} "
            f"left={self.remaining})"
        )
