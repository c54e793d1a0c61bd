"""Datapath registry: registration, lookup, capability filters, specs.

The registry is the single source of truth for transfer methods
(ISSUE 5): the driver, controller, engine, CLI, and sweeps all resolve
methods through it.  These tests pin its contract — including the
acceptance criterion that a method registered in one module shows up in
``make_methods``, the CLI choices, and the Figure-5 sweep automatically.
"""

import pytest

from repro.datapath import names, registry
from repro.datapath.spec import DatapathCaps, DatapathSpec


# ------------------------------------------------------------- lookup


def test_builtin_methods_registered_in_order():
    assert registry.method_names() == (
        names.PRP, names.SGL, names.BANDSLIM, names.BYTEEXPRESS,
        names.BYTEEXPRESS_TAGGED, names.MMIO, names.PIO_COHERENT,
        names.HYBRID)


def test_figure5_filter_matches_paper_sweep():
    assert registry.method_names(figure5=True) == (
        names.PRP, names.BANDSLIM, names.BYTEEXPRESS,
        names.PIO_COHERENT)


def test_engine_capable_filter():
    assert set(registry.method_names(engine_capable=True)) == {
        names.PRP, names.BANDSLIM, names.BYTEEXPRESS}


def test_unknown_capability_flag_raises():
    with pytest.raises(AttributeError):
        registry.method_names(warp_drive=True)


def test_resolve_returns_spec():
    spec = registry.resolve(names.BYTEEXPRESS)
    assert spec.name == names.BYTEEXPRESS
    assert spec.caps.inline and spec.caps.supports_write


def test_resolve_unknown_names_the_alternatives():
    with pytest.raises(registry.UnknownMethodError) as exc:
        registry.resolve("warp-drive")
    assert "warp-drive" in str(exc.value)
    assert names.PRP in str(exc.value)


def test_is_registered():
    assert registry.is_registered(names.PRP)
    assert not registry.is_registered("warp-drive")


# ------------------------------------------------------- registration


def test_duplicate_registration_rejected():
    spec = registry.resolve(names.PRP)
    with pytest.raises(ValueError):
        registry.register(spec)
    # replace=True is the explicit escape hatch (idempotent here).
    assert registry.register(spec, replace=True) is spec


def test_new_method_appears_everywhere():
    """Acceptance: registering a method in one place surfaces it in
    make_methods, the CLI method choices, and the Figure-5 sweep set."""
    from repro.cli import _suite_methods
    from repro.datapath.codecs import PRP_WRITE_CODEC
    from repro.testbed import make_block_testbed

    # A host codec alone is enough: make_methods wraps it in the generic
    # adapter, no factory needed.
    spec = DatapathSpec(
        name="test-datapath",
        caps=DatapathCaps(figure5=True),
        host_codec=PRP_WRITE_CODEC,
        summary="toy method for the registry test")
    registry.register(spec)
    try:
        assert "test-datapath" in registry.method_names(figure5=True)
        assert "test-datapath" in _suite_methods()
        tb = make_block_testbed(include_mmio=False)
        assert "test-datapath" in tb.methods
        stats = tb.method("test-datapath").write(b"hello", cdw10=0)
        assert stats.ok
    finally:
        registry.unregister("test-datapath")
    assert not registry.is_registered("test-datapath")


# ------------------------------------------------------------ specs


def test_spec_requires_a_name():
    with pytest.raises(ValueError):
        DatapathSpec(name="", caps=DatapathCaps())


def test_tag_reassembly_requires_inline():
    with pytest.raises(ValueError):
        DatapathSpec(name="bad", caps=DatapathCaps(tag_reassembly=True))


def test_slots_needed_inline_counts_chunks():
    from repro.core.chunking import chunk_count
    from repro.core.reassembly import tagged_chunk_count

    caps = registry.resolve(names.BYTEEXPRESS).caps
    tagged = registry.resolve(names.BYTEEXPRESS_TAGGED).caps
    for size in (1, 63, 64, 65, 256, 4096):
        assert caps.slots_needed(size) == 1 + chunk_count(size)
        assert caps.slots_needed(size, tagged=True) == \
            1 + tagged_chunk_count(size)
        # A tag_reassembly spec always uses the self-describing framing.
        assert tagged.slots_needed(size) == 1 + tagged_chunk_count(size)


def test_slots_needed_fragmented_counts_fragments():
    from repro.nvme.constants import BANDSLIM_FRAGMENT_CAPACITY

    caps = registry.resolve(names.BANDSLIM).caps
    assert caps.slots_needed(0) == 1
    assert caps.slots_needed(1) == 1
    assert caps.slots_needed(BANDSLIM_FRAGMENT_CAPACITY + 1) == 2


def test_slots_needed_paged_methods_use_one_slot():
    for method in (names.PRP, names.SGL):
        caps = registry.resolve(method).caps
        assert caps.slots_needed(4096) == 1
