"""``make_methods`` builds one object per buildable registry spec: the
generic codec adapter for codec-only specs, one BAR-window body for both
load/store comparators, and the registered factory otherwise."""

import pytest

from repro.datapath import names, registry
from repro.datapath.codecs import SGL_WRITE_CODEC
from repro.datapath.spec import DatapathSpec
from repro.ssd.context import MODE_TAGGED
from repro.testbed import make_block_testbed
from repro.transfer import (
    MMIO_WINDOW,
    PIO_WINDOW,
    BarWindowTransfer,
    CodecTransfer,
    TaggedByteExpressTransfer,
)

BASE = [names.PRP, names.SGL, names.BANDSLIM, names.BYTEEXPRESS]


def test_roster_follows_the_rig():
    assert list(make_block_testbed().methods) == BASE + [
        names.MMIO, names.PIO_COHERENT, names.HYBRID]
    assert list(make_block_testbed(include_mmio=False).methods) == BASE + [
        names.HYBRID]
    assert list(make_block_testbed(mode=MODE_TAGGED,
                                   include_mmio=False).methods) == BASE + [
        names.BYTEEXPRESS_TAGGED, names.HYBRID]


@pytest.mark.parametrize("method", [names.PRP, names.SGL, names.BYTEEXPRESS])
def test_codec_only_specs_get_the_generic_adapter(method):
    spec = registry.resolve(method)
    assert spec.factory is None and spec.host_codec is not None
    built = make_block_testbed(include_mmio=False).method(method)
    assert type(built) is CodecTransfer
    assert built.name == method


def test_tagged_method_keeps_its_payload_id_allocator():
    tb = make_block_testbed(mode=MODE_TAGGED, include_mmio=False)
    assert type(tb.method(names.BYTEEXPRESS_TAGGED)) is \
        TaggedByteExpressTransfer


def test_bar_window_methods_share_one_body():
    tb = make_block_testbed()
    mmio, pio = tb.method(names.MMIO), tb.method(names.PIO_COHERENT)
    assert type(mmio) is type(pio) is BarWindowTransfer
    assert type(mmio.interface) is type(pio.interface)
    assert mmio.path is MMIO_WINDOW and pio.path is PIO_WINDOW
    assert mmio.name == names.MMIO and pio.name == names.PIO_COHERENT
    assert {MMIO_WINDOW.commit_reg, MMIO_WINDOW.status_reg}.isdisjoint(
        {PIO_WINDOW.commit_reg, PIO_WINDOW.status_reg})


def test_bar_window_paths_charge_their_own_costs():
    """The two bodies differ only by their path record: per-line store,
    commit and latch costs, and the status poll — a link round trip on
    MMIO, ``pio_poll_ns`` on the coherent link."""
    tb = make_block_testbed()
    timing = tb.ssd.config.timing
    payload = b"c" * 256
    lines = 4
    mmio = tb.method(names.MMIO).write(payload).latency_ns
    pio = tb.method(names.PIO_COHERENT).write(payload).latency_ns
    round_trip = tb.ssd.link.host_mmio_read(4, MMIO_WINDOW.control_category)
    expected = (lines * (timing.mmio_cacheline_ns - timing.pio_store_ns)
                + (timing.doorbell_write_ns - timing.pio_store_ns)
                + (round_trip - timing.pio_poll_ns)
                + lines * (timing.mmio_latch_ns - timing.pio_latch_ns))
    assert mmio - pio == pytest.approx(expected)


def test_buildable_predicate():
    assert not DatapathSpec(name="bare").buildable
    assert DatapathSpec(name="codec", host_codec=SGL_WRITE_CODEC).buildable
    assert DatapathSpec(name="layered",
                        factory=lambda ssd, driver, built: None).buildable
