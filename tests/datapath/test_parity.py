"""Datapath parity: every registered method through one entry point.

Every registered method must round-trip payloads at the boundary sizes
(1 B … 4 KiB): codec methods through the generic ``driver.submit()``,
the rest through their transfer orchestration layer; and the read paths
must work via the device decoders.  Byte-for-byte wire equality with
the pre-refactor tree is pinned by the golden fingerprint benchmark
(``benchmarks/test_golden_datapath_parity.py``).
"""

import pytest

from repro.datapath import names, registry
from repro.host.driver import DriverError
from repro.nvme.command import NvmeCommand
from repro.nvme.constants import PAGE_SIZE, IoOpcode
from repro.nvme.passthrough import PassthruRequest
from repro.ssd.context import MODE_TAGGED
from repro.testbed import make_block_testbed

#: Boundary sizes: 1 B, chunk edges (63/64/65), a mid size, page edges.
BOUNDARY_SIZES = (1, 63, 64, 65, 256, 512, 4095, 4096)

#: Registered methods whose host codec drives the generic submit path.
CODEC_METHODS = tuple(
    spec.name for spec in registry.specs() if spec.host_codec is not None)

#: Registered methods with no codec (orchestrated in repro.transfer).
ORCHESTRATED_METHODS = tuple(
    spec.name for spec in registry.specs() if spec.host_codec is None)


def _payload(i: int, size: int) -> bytes:
    return bytes((i * 13 + j) & 0xFF for j in range(size))


def _testbed_for(method: str):
    mode = (MODE_TAGGED if registry.resolve(method).caps.tag_reassembly
            else None)
    if mode is None:
        return make_block_testbed(include_mmio=True)
    return make_block_testbed(mode=mode, include_mmio=False)


# ------------------------------------------------- generic round-trips


@pytest.mark.parametrize("method", CODEC_METHODS)
def test_codec_methods_roundtrip_boundary_sizes(method):
    tb = _testbed_for(method)
    spec = registry.resolve(method)
    for i, size in enumerate(BOUNDARY_SIZES):
        payload = _payload(i, size)
        offset = i * 2 * PAGE_SIZE
        cmd = NvmeCommand(opcode=IoOpcode.WRITE, nsid=1,
                          cdw10=offset & 0xFFFFFFFF)
        kwargs = {"payload_id": i} if spec.caps.tag_reassembly else {}
        tb.driver.submit(method, cmd, payload, qid=1, **kwargs)
        assert tb.driver.wait(1).ok, (method, size)
        assert tb.personality.read_back(offset, size) == payload, \
            (method, size)


@pytest.mark.parametrize("method", ORCHESTRATED_METHODS)
def test_orchestrated_methods_roundtrip_boundary_sizes(method):
    """Methods without a host codec round-trip through their transfer
    orchestration layer (the registry factory built them)."""
    tb = _testbed_for(method)
    # The BAR byte window has no LBA addressing (its commit command
    # carries only a length), so bar_window writes all land at offset 0.
    addressable = not registry.resolve(method).caps.bar_window
    for i, size in enumerate(BOUNDARY_SIZES):
        payload = _payload(i, size)
        offset = i * 2 * PAGE_SIZE if addressable else 0
        stats = tb.method(method).write(payload, cdw10=offset & 0xFFFFFFFF)
        assert stats.ok, (method, size)
        assert tb.personality.read_back(offset, size) == payload, \
            (method, size)


@pytest.mark.parametrize("method", ORCHESTRATED_METHODS)
def test_codecless_methods_refuse_generic_submit(method):
    tb = _testbed_for(method)
    cmd = NvmeCommand(opcode=IoOpcode.WRITE, nsid=1)
    with pytest.raises(DriverError):
        tb.driver.submit(method, cmd, b"x" * 64, qid=1)


def test_generic_submit_rejects_unknown_method():
    tb = make_block_testbed(include_mmio=False)
    cmd = NvmeCommand(opcode=IoOpcode.WRITE, nsid=1)
    with pytest.raises(DriverError):
        tb.driver.submit("warp-drive", cmd, b"x", qid=1)


def test_generic_submit_accepts_spec_objects():
    tb = make_block_testbed(include_mmio=False)
    cmd = NvmeCommand(opcode=IoOpcode.WRITE, nsid=1, cdw10=0)
    tb.driver.submit(registry.resolve(names.PRP), cmd, b"spec!" * 8, qid=1)
    assert tb.driver.wait(1).ok
    assert tb.personality.read_back(0, 40) == b"spec!" * 8


# -------------------------------------------------- decoder read paths


@pytest.mark.parametrize("write_method", (names.PRP, names.SGL,
                                          names.BYTEEXPRESS))
def test_read_back_through_prp_decoder(write_method):
    """Writes land via any codec; the PRP decoder pushes them back."""
    tb = make_block_testbed(include_mmio=False)
    payload = _payload(3, PAGE_SIZE)
    tb.driver.submit(write_method,
                     NvmeCommand(opcode=IoOpcode.WRITE, nsid=1, cdw10=0),
                     payload, qid=1)
    assert tb.driver.wait(1).ok
    res = tb.driver.passthru(
        PassthruRequest(opcode=IoOpcode.READ, read_len=PAGE_SIZE, cdw10=0))
    assert res.ok
    assert res.data == payload


def test_read_back_through_sgl_decoder():
    """The SGL decoder's push path (bit-bucket read, §5)."""
    tb = make_block_testbed(include_mmio=False)
    payload = _payload(5, PAGE_SIZE)
    tb.driver.submit(names.PRP,
                     NvmeCommand(opcode=IoOpcode.WRITE, nsid=1, cdw10=0),
                     payload, qid=1)
    assert tb.driver.wait(1).ok
    cmd = NvmeCommand(opcode=IoOpcode.READ, nsid=1, cdw10=0)
    _, buf = tb.driver.submit_read_sgl(cmd, want=64, total=PAGE_SIZE, qid=1)
    assert tb.driver.wait(1).ok
    assert tb.driver.memory.read(buf, 64) == payload[:64]
