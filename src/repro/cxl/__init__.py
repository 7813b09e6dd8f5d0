"""Transaction-level CXL substrate.

This package rebuilds, in Python, the pieces of the Compute Express Link
stack that the paper's FPGA prototype implements in hardware (Intel R-Tile
hard IP + soft IP transaction layers, Section 2.2):

* :mod:`repro.cxl.spec` — protocol constants, opcodes, versions;
* :mod:`repro.cxl.transaction` — CXL.mem M2S/S2M message classes;
* :mod:`repro.cxl.flit` — 68-byte flit packing and wire-efficiency math;
* :mod:`repro.cxl.link` — PCIe PHY rates and effective link bandwidth;
* :mod:`repro.cxl.hdm` — host-managed device memory (HDM) decoders;
* :mod:`repro.cxl.device` — Type-1/2/3 devices; the Type-3 expander holds
  real backing memory and a persistence-domain model;
* :mod:`repro.cxl.mailbox` — the memory-device command interface;
* :mod:`repro.cxl.enumeration` — CXL.io config-space walk;
* :mod:`repro.cxl.switch` — CXL 2.0 switching and multi-logical-device
  pooling;
* :mod:`repro.cxl.port` — root ports and host bridges.
"""

from repro.cxl.spec import (
    CACHELINE_BYTES,
    CxlVersion,
    DeviceType,
    M2SReqOpcode,
    M2SRwDOpcode,
    S2MDRSOpcode,
    S2MNDROpcode,
)
from repro.cxl.transaction import M2SReq, M2SRwD, S2MDRS, S2MNDR
from repro.cxl.flit import (
    FlitPacker,
    class_half_slots,
    message_half_slots,
    stream_efficiency,
)
from repro.cxl.link import CxlLink
from repro.cxl.hdm import HdmDecoder, HdmDecoderSet
from repro.cxl.device import MediaController, Type3Device
from repro.cxl.mailbox import Mailbox, MailboxOpcode
from repro.cxl.host import CxlMemPort, PortStats
from repro.cxl.port import HostBridge, RootPort
from repro.cxl.enumeration import (
    CxlEndpointInfo,
    enumerate_endpoints,
    enumerate_host,
)
from repro.cxl.switch import (
    BindEvent,
    CxlSwitch,
    LogicalDevice,
    MultiLogicalDevice,
)

__all__ = [
    "BindEvent",
    "CACHELINE_BYTES",
    "CxlEndpointInfo",
    "CxlLink",
    "CxlMemPort",
    "CxlSwitch",
    "CxlVersion",
    "DeviceType",
    "FlitPacker",
    "HdmDecoder",
    "HdmDecoderSet",
    "HostBridge",
    "LogicalDevice",
    "M2SReq",
    "M2SReqOpcode",
    "M2SRwD",
    "M2SRwDOpcode",
    "Mailbox",
    "PortStats",
    "MailboxOpcode",
    "MediaController",
    "MultiLogicalDevice",
    "RootPort",
    "S2MDRS",
    "S2MDRSOpcode",
    "S2MNDR",
    "S2MNDROpcode",
    "Type3Device",
    "class_half_slots",
    "enumerate_endpoints",
    "enumerate_host",
    "message_half_slots",
    "stream_efficiency",
]
