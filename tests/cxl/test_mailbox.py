"""Mailbox command interface."""

import pytest

from repro import units
from repro.cxl.device import MediaController, Type3Device
from repro.cxl.mailbox import (
    Mailbox,
    MailboxOpcode,
    MailboxResponse,
    ReturnCode,
)
from repro.errors import CxlMailboxError
from repro.machine.dram import DDR4_1333


@pytest.fixture()
def dev() -> Type3Device:
    media = MediaController("m", DDR4_1333, 2, 2, units.mib(512), 0.6, 130.0)
    return Type3Device("mb-dut", media, battery_backed=True)


class TestDispatch:
    def test_unsupported_opcode(self):
        mb = Mailbox()
        resp = mb.execute(MailboxOpcode.SANITIZE)
        assert resp.return_code is ReturnCode.UNSUPPORTED
        assert not resp.ok

    def test_duplicate_registration_rejected(self):
        mb = Mailbox()
        mb.register(MailboxOpcode.SANITIZE, lambda p: {})
        with pytest.raises(CxlMailboxError):
            mb.register(MailboxOpcode.SANITIZE, lambda p: {})

    def test_handler_error_becomes_invalid_input(self):
        mb = Mailbox()

        def bad(payload):
            raise ValueError("nope")

        mb.register(MailboxOpcode.SANITIZE, bad)
        resp = mb.execute(MailboxOpcode.SANITIZE)
        assert resp.return_code is ReturnCode.INVALID_INPUT
        assert "nope" in resp.payload["error"]

    def test_busy_while_executing(self):
        mb = Mailbox()
        seen: list[MailboxResponse] = []

        def reentrant(payload):
            seen.append(mb.execute(MailboxOpcode.SANITIZE))
            return {}

        mb.register(MailboxOpcode.SANITIZE, reentrant)
        assert mb.execute(MailboxOpcode.SANITIZE).ok
        assert seen[0].return_code is ReturnCode.BUSY

    def test_supported_opcodes_sorted(self, dev):
        ops = dev.mailbox.supported_opcodes
        assert list(ops) == sorted(ops, key=int)
        assert MailboxOpcode.IDENTIFY_MEMORY_DEVICE in ops


class TestDeviceCommands:
    def test_identify(self, dev):
        resp = dev.mailbox.execute(MailboxOpcode.IDENTIFY_MEMORY_DEVICE)
        assert resp.ok
        assert resp.payload["total_capacity"] == dev.capacity_bytes
        assert resp.payload["battery_backed"] is True
        assert resp.payload["device_type"] == 3

    def test_partition_roundtrip(self, dev):
        resp = dev.mailbox.execute(MailboxOpcode.SET_PARTITION_INFO,
                                   {"volatile_bytes": 0})
        assert resp.ok
        info = dev.mailbox.execute(MailboxOpcode.GET_PARTITION_INFO)
        assert info.payload["active_persistent"] == dev.capacity_bytes

    def test_partition_bad_alignment(self, dev):
        resp = dev.mailbox.execute(MailboxOpcode.SET_PARTITION_INFO,
                                   {"volatile_bytes": 999})
        assert resp.return_code is ReturnCode.INVALID_INPUT

    def test_lsa_roundtrip(self, dev):
        resp = dev.mailbox.execute(MailboxOpcode.SET_LSA,
                                   {"offset": 0, "data": b"labels!"})
        assert resp.ok and resp.payload["written"] == 7
        out = dev.mailbox.execute(MailboxOpcode.GET_LSA,
                                  {"offset": 0, "length": 7})
        assert out.payload["data"] == b"labels!"

    def test_lsa_bounds_checked(self, dev):
        resp = dev.mailbox.execute(
            MailboxOpcode.SET_LSA, {"offset": 1 << 20, "data": b"x"})
        assert resp.return_code is ReturnCode.INVALID_INPUT

    def test_lsa_negative_length_rejected(self, dev):
        resp = dev.mailbox.execute(MailboxOpcode.GET_LSA,
                                   {"offset": 0, "length": -1})
        assert resp.return_code is ReturnCode.INVALID_INPUT

    def test_lsa_data_of_wrong_type_rejected(self, dev):
        resp = dev.mailbox.execute(MailboxOpcode.SET_LSA, {"data": 5})
        assert resp.return_code is ReturnCode.INVALID_INPUT

    def test_partition_size_of_wrong_type_rejected(self, dev):
        resp = dev.mailbox.execute(MailboxOpcode.SET_PARTITION_INFO,
                                   {"volatile_bytes": None})
        assert resp.return_code is ReturnCode.INVALID_INPUT

    def test_health_reflects_poison(self, dev):
        assert dev.mailbox.execute(
            MailboxOpcode.GET_HEALTH_INFO).payload["health_status"] == "ok"
        dev.inject_poison(0)
        health = dev.mailbox.execute(MailboxOpcode.GET_HEALTH_INFO).payload
        assert health["health_status"] == "degraded"
        assert health["media_errors"] == 1

    def test_shutdown_state_commands(self, dev):
        dev.mailbox.execute(MailboxOpcode.SET_SHUTDOWN_STATE,
                            {"state": "dirty"})
        got = dev.mailbox.execute(MailboxOpcode.GET_SHUTDOWN_STATE)
        assert got.payload["state"] == "dirty"

    def test_sanitize_wipes_everything(self, dev):
        dev.memory.write(0, b"secret")
        dev.mailbox.execute(MailboxOpcode.SANITIZE)
        assert dev.memory.read(0, 6) == b"\x00" * 6
