"""Rules both serial baselines share (``repro.baselines.serial_core``)."""

import pytest

from repro.api import build_system
from repro.errors import ConfigurationError
from repro.params import SystemParams
from repro.types import AccessType, ExplicitCommand, Vector, VectorCommand

SERIAL_SYSTEMS = ("cacheline-serial", "gathering-serial")


@pytest.mark.parametrize("system", SERIAL_SYSTEMS)
def test_explicit_command_rejected_before_costing(system):
    """The serial cost models price only base-stride vector commands: an
    explicit scatter/gather raises ConfigurationError before any command
    is costed, not an AttributeError midway through the trace."""
    instance = build_system(system, SystemParams())
    trace = [
        VectorCommand(
            vector=Vector(base=0, stride=1, length=4),
            access=AccessType.WRITE,
            data=(1, 2, 3, 4),
        ),
        ExplicitCommand(
            addresses=(3, 19), access=AccessType.READ, broadcast_cycles=1
        ),
    ]
    with pytest.raises(ConfigurationError, match="base-stride vector"):
        instance.run(trace)
    # The leading write never ran.
    assert [instance.peek(a) for a in range(4)] == [0, 0, 0, 0]
