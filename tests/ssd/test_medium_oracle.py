"""Model-based test: the NAND-off block medium against a flat bytearray.

Random writes straddle pages, overlap, and land at in-page offsets past
anything written before; every read, through ``read_back`` and through
the READ command, must equal the oracle, with never-written bytes as
zeros.  A ``snapshot``/``restore``/``scrub`` round trip must carry the
medium exactly.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nvme.constants import IoOpcode
from repro.nvme.passthrough import PassthruRequest
from repro.sim.config import PAGE_SIZE
from repro.testbed import make_block_testbed

#: The span the ops address: four pages, so writes and reads straddle.
SPAN = 4 * PAGE_SIZE

_offsets = st.one_of(
    st.integers(0, SPAN - 1),
    # Near a page boundary, so short writes straddle it.
    st.builds(lambda page, back: page * PAGE_SIZE - back,
              st.integers(1, 3), st.integers(1, 64)),
)
_writes = st.tuples(st.just("write"), _offsets,
                    st.integers(1, PAGE_SIZE + 64), st.integers(1, 255))
_reads = st.tuples(st.sampled_from(["read_back", "read_cmd"]), _offsets,
                   st.integers(1, PAGE_SIZE + 64), st.just(0))
_ops = st.lists(st.one_of(_writes, _reads), min_size=1, max_size=30)


class _Rig:
    """A NAND-off block rig beside its flat-bytearray oracle."""

    def __init__(self) -> None:
        self.tb = make_block_testbed()
        self.medium = self.tb.personality
        self.oracle = bytearray(SPAN + 2 * PAGE_SIZE)

    def write(self, offset: int, data: bytes) -> None:
        res = self.tb.driver.passthru(PassthruRequest(
            opcode=IoOpcode.WRITE, data=data, cdw10=offset))
        assert res.ok
        self.oracle[offset:offset + len(data)] = data

    def read_cmd(self, offset: int, nbytes: int) -> bytes:
        res = self.tb.driver.passthru(PassthruRequest(
            opcode=IoOpcode.READ, read_len=nbytes, cdw10=offset))
        assert res.ok
        return bytes(res.data)

    def check(self, kind: str, offset: int, nbytes: int) -> None:
        want = bytes(self.oracle[offset:offset + nbytes])
        if kind == "read_back":
            got = self.medium.read_back(offset, nbytes)
        else:
            got = self.read_cmd(offset, nbytes)
        assert got == want, f"{kind}({offset}, {nbytes}) diverged"

    def check_all(self) -> None:
        assert self.medium.read_back(0, len(self.oracle)) == self.oracle


def _run(rig: _Rig, ops) -> None:
    for kind, offset, nbytes, tag in ops:
        if kind == "write":
            rig.write(offset, bytes((tag + i) % 256 for i in range(nbytes)))
        else:
            rig.check(kind, offset, nbytes)


@given(_ops)
@settings(max_examples=60, deadline=None)
def test_medium_agrees_with_bytearray_oracle(ops):
    rig = _Rig()
    _run(rig, ops)
    rig.check_all()


@given(_ops, _ops)
@settings(max_examples=30, deadline=None)
def test_snapshot_restore_scrub_round_trip(before, after):
    rig = _Rig()
    _run(rig, before)
    state = rig.medium.snapshot()
    saved = bytes(rig.oracle)

    # Writes after the snapshot must not leak into it.
    _run(rig, after)
    rig.check_all()

    rig.medium.scrub()
    rig.oracle[:] = bytes(len(rig.oracle))
    rig.check_all()
    assert rig.read_cmd(0, PAGE_SIZE) == bytes(PAGE_SIZE)

    rig.medium.restore(state)
    rig.oracle[:] = saved
    rig.check_all()
    # The restored medium accepts new writes like the live one.
    _run(rig, after)
    rig.check_all()
