"""Bank-controller request records (Register File entries).

A :class:`BCRequest` is what the Request FIFO / Register File of a bank
controller holds between the FirstHit Predict broadcast and the access
scheduler's dequeue: the vector command, the subvector this bank owns, the
"address calculation complete" (ACC) flag and the cycle at which the entry
becomes visible to the scheduler (which encodes the FHC latency and the
bypass paths of section 5.2.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.subvector import SubVector
from repro.types import Vector

__all__ = ["BCRequest"]


@dataclass(slots=True)
class BCRequest:
    """One vector request as seen by a single bank controller."""

    txn_id: int
    vector: Optional[Vector]
    is_write: bool
    #: Subvector descriptor for base-stride requests; ``None`` when the
    #: request carries an explicit address list instead.
    sub: Optional[SubVector]
    #: Local word index (bank-internal address) of the first element.
    local_first: int
    #: Local word step between consecutive owned elements.
    local_step: int
    #: Address calculation complete: set immediately by the FHP for
    #: power-of-two strides, later by the FHC otherwise.
    acc: bool
    #: First cycle at which the access scheduler may dequeue this entry.
    ready_cycle: int
    #: Write data for the whole command line, indexed by vector index
    #: (None for reads).
    write_line: Optional[Tuple[int, ...]] = None
    #: For explicit scatter/gather commands (vector-indirect,
    #: bit-reversal): this bank's ``(local_word, element_index)`` pairs in
    #: element order.  ``None`` for base-stride requests, which the vector
    #: context expands arithmetically instead.
    explicit: Optional[Tuple[Tuple[int, int], ...]] = None

    @property
    def count(self) -> int:
        if self.explicit is not None:
            return len(self.explicit)
        return self.sub.count
