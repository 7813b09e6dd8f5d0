"""CXL memory-device command interface (the mailbox).

CXL 2.0 Type-3 devices expose a register-based mailbox through which system
software issues management commands (Identify Memory Device, partition
management, the Label Storage Area, health, and — crucial for the paper's
persistence story — the Set Shutdown State command that firmware uses to
mark clean vs dirty shutdowns).

The model keeps command payloads as plain dictionaries; handlers are
registered by the owning device.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.errors import CxlError, CxlMailboxError


class MailboxOpcode(enum.IntEnum):
    """Command opcodes (values follow the CXL 2.0 command set numbering)."""

    IDENTIFY_MEMORY_DEVICE = 0x4000
    GET_PARTITION_INFO = 0x4100
    SET_PARTITION_INFO = 0x4101
    GET_LSA = 0x4102
    SET_LSA = 0x4103
    GET_HEALTH_INFO = 0x4200
    GET_SHUTDOWN_STATE = 0x4203
    SET_SHUTDOWN_STATE = 0x4204
    SANITIZE = 0x4400


class ReturnCode(enum.IntEnum):
    SUCCESS = 0x0000
    INVALID_INPUT = 0x0002
    UNSUPPORTED = 0x0003
    INTERNAL_ERROR = 0x0004
    BUSY = 0x0005


@dataclass
class MailboxResponse:
    """Outcome of one mailbox command."""

    opcode: MailboxOpcode
    return_code: ReturnCode
    payload: dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.return_code is ReturnCode.SUCCESS


Handler = Callable[[Mapping[str, Any]], dict[str, Any]]


class Mailbox:
    """Primary mailbox of a CXL memory device.

    One command executes at a time (the doorbell protocol); issuing a
    command while another is in flight returns ``BUSY`` exactly as hardware
    would.
    """

    def __init__(self) -> None:
        self._handlers: dict[MailboxOpcode, Handler] = {}
        self._busy = False

    def register(self, opcode: MailboxOpcode, handler: Handler) -> None:
        if opcode in self._handlers:
            raise CxlMailboxError(f"handler already registered for {opcode.name}")
        self._handlers[opcode] = handler

    @property
    def supported_opcodes(self) -> tuple[MailboxOpcode, ...]:
        return tuple(sorted(self._handlers, key=int))

    def execute(self, opcode: MailboxOpcode,
                payload: Mapping[str, Any] | None = None) -> MailboxResponse:
        """Ring the doorbell: run one command to completion."""
        payload = payload or {}
        if self._busy:
            return MailboxResponse(opcode, ReturnCode.BUSY)
        handler = self._handlers.get(opcode)
        if handler is None:
            return MailboxResponse(opcode, ReturnCode.UNSUPPORTED)
        self._busy = True
        try:
            out = handler(payload)
        except (ValueError, KeyError, TypeError, CxlError) as exc:
            # a payload field of the wrong type is malformed input too
            return MailboxResponse(
                opcode, ReturnCode.INVALID_INPUT, {"error": str(exc)}
            )
        finally:
            self._busy = False
        return MailboxResponse(opcode, ReturnCode.SUCCESS, out)
