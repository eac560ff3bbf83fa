"""Wire encoding: cells and blobs across the coordinator/worker link."""

import pytest

from repro.dist.wire import (
    COMPRESS_MIN,
    WireError,
    decode_blob,
    decode_blob_ex,
    decode_cell,
    encode_blob,
    encode_cell,
    fn_name,
    resolve_fn,
)
from repro.parallel.executor import CellSpec
from repro.service.sandbox import SandboxPolicy, run_script_cell


def square(x):
    return x * x


class TestBlobs:
    def test_roundtrip_arbitrary_values(self):
        for value in (41, "text", [1, {"a": (2, 3)}], None):
            assert decode_blob(encode_blob(value)) == value

    def test_undecodable_blob_is_a_wire_error(self):
        with pytest.raises(WireError):
            decode_blob("not base64 pickle!!")


class TestCompression:
    def test_large_compressible_blob_ships_compressed(self):
        value = "grid " * 10_000  # pickles far past COMPRESS_MIN, zlib-friendly
        text = encode_blob(value)
        assert text.startswith("z:")
        decoded, wire, raw = decode_blob_ex(text)
        assert decoded == value
        assert wire == len(text)
        assert wire < raw  # the wire really carried fewer bytes

    def test_small_blob_stays_plain_base64(self):
        text = encode_blob(41)
        assert not text.startswith("z:")
        assert decode_blob(text) == 41

    def test_incompressible_blob_stays_plain(self):
        """zlib losing the trade keeps the plain encoding — never pay
        the marker for a bigger wire blob."""
        import random

        rng = random.Random(7)
        noise = bytes(rng.randrange(256) for _ in range(COMPRESS_MIN * 4))
        text = encode_blob(noise)
        assert not text.startswith("z:")
        assert decode_blob(text) == noise

    def test_corrupt_compressed_blob_is_a_wire_error(self):
        with pytest.raises(WireError):
            decode_blob("z:not!!valid")


class TestFnResolution:
    def test_name_roundtrip(self):
        name = fn_name(square)
        assert name == "tests.dist.test_wire:square"
        assert resolve_fn(name) is square

    def test_missing_attribute_rejected(self):
        with pytest.raises(WireError):
            resolve_fn("tests.dist.test_wire:nope")

    def test_bad_module_rejected(self):
        with pytest.raises(WireError):
            resolve_fn("no.such.module:thing")

    def test_not_callable_rejected(self):
        with pytest.raises(WireError):
            resolve_fn("tests.dist.test_wire:__doc__")


class TestCells:
    def test_cell_roundtrip(self):
        spec = CellSpec(key="t/sq/3", fn=square, args=(3,),
                        kwargs={}, cacheable=False)
        rebuilt = decode_cell(encode_cell(spec))
        assert rebuilt.key == "t/sq/3"
        assert rebuilt.fn is square
        assert rebuilt.args == (3,)
        assert rebuilt.cacheable is False
        assert rebuilt.fn(*rebuilt.args) == 9

    def test_missing_fields_rejected(self):
        with pytest.raises(WireError):
            decode_cell({"key": "x"})
        # A cell always travels inline: nothing stands in for ``blob``.
        doc = encode_cell(CellSpec(key="t/sq/3", fn=square, args=(3,)))
        del doc["blob"]
        with pytest.raises(WireError, match="'blob'"):
            decode_cell({**doc, "blob_digest": "0" * 64})

    def test_the_largest_admissible_script_ships_inline(self):
        """The biggest thing a campaign can send — a service script at
        the sandbox's byte cap, random enough that zlib only halves it
        — is still one document with its blob in it."""
        import random

        cap = SandboxPolicy().max_script_bytes
        script = random.Random(7).randbytes(cap // 2).hex()
        spec = CellSpec(key="service/script", fn=run_script_cell,
                        args=(script, (), "condor", 600.0, 2003, 100_000))
        doc = encode_cell(spec)
        assert sorted(doc) == ["blob", "cacheable", "fn", "key"]
        assert len(doc["blob"]) > cap // 2
        rebuilt = decode_cell(doc)
        assert rebuilt.fn is run_script_cell
        assert rebuilt.args == spec.args


def test_layout_guard_one_way_to_carry_a_cell_and_one_lookup():
    """A source grep, as in tests/service/test_http.py: payload-by-
    digest, the ``__main__`` re-homing pickler and a store lookup
    behind ``run_cells``' own have to argue their way back in past
    this line."""
    import pathlib
    import re

    import repro

    root = pathlib.Path(repro.__file__).parent
    gone = re.compile(r"PayloadTable|PayloadCache|blob_digest|"
                      r"reducer_override|_main_alias|store\.fetch\(")
    offenders = [str(path.relative_to(root))
                 for path in sorted(root.rglob("*.py"))
                 if gone.search(path.read_text())]
    assert offenders == []
