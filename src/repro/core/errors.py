"""Exception hierarchy for the taxonomy library.

All errors raised by :mod:`repro` derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to discriminate the precise failure mode.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class SignatureError(ReproError):
    """An architecture signature is structurally invalid.

    Raised when component multiplicities and link kinds cannot describe
    any machine — e.g. a data-flow machine (zero instruction processors)
    that nevertheless declares an IP-DP connection.
    """


class ClassificationError(ReproError):
    """A signature cannot be mapped onto any taxonomy class."""


class NotImplementableError(ClassificationError):
    """The signature maps onto one of the paper's NI classes (11-14).

    The paper marks configurations with ``n`` instruction processors
    driving a single data processor as "practically not implementable";
    the classifier can either surface them (``allow_ni=True``) or raise
    this error.
    """


class NamingError(ReproError):
    """A taxonomic name cannot be parsed or formatted."""


class CapabilityError(ReproError):
    """A machine was asked to perform an operation its class forbids.

    This is the operational face of the paper's flexibility argument: an
    IAP-I cannot shuffle data between its data processors because it has
    no DP-DP switch, an IUP cannot execute a data-parallel kernel wider
    than its single data processor, and so on.
    """


class ConfigurationError(ReproError):
    """A reconfigurable fabric received an invalid configuration."""


class RoutingError(ReproError):
    """An interconnect cannot realise a requested route."""


class FaultError(ReproError):
    """A hardware fault could not be tolerated by the machine's structure.

    The taxonomy's flexibility argument (§III-B) has an operational
    consequence under failure: a switched (``x``) site can route *around*
    a dead processing element, port or wire by selecting a different
    path, while a direct (``-``) link is a single hard wire — when it
    (or either of its endpoints) dies, nothing can be reselected and the
    connection is simply gone. Machines therefore raise this error when
    a fault lands on a resource that their class has no structural means
    of replacing: direct-linked lanes under a ``remap`` policy, severed
    point-to-point wiring, a partitioned mesh, or a ``fail-fast`` policy
    observing any fault at all.
    """


class ProgramError(ReproError):
    """A machine program is malformed (bad opcode, operand, or graph)."""


class RegistryError(ReproError):
    """A registry lookup failed (unknown architecture name)."""


class CheckpointError(ReproError):
    """A sweep checkpoint journal cannot be used safely.

    Raised when two opens of the same job checkpoint race for its
    journal: the advisory file lock a :class:`~repro.perf.journal.SweepCheckpoint`
    takes on open is already held by a live process, so appending would
    interleave two writers' records. The holder's identity (pid, start
    time) is reported so the operator can find the competing run.
    """

