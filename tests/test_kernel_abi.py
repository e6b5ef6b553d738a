"""The kernel's C parameter struct and its ctypes mirror agree.

``ReplayParams`` exists twice: in ``kernel.c`` and as the
``ctypes.Structure`` in ``repro.perf._kernel.loader``. ctypes lays the
mirror out from ``_fields_`` alone, so a field added, removed or moved
on one side only would shift every later field — every double after it
would be read from the wrong offset — without any error. These tests
parse the C source (no compiler needed, so they also run where the
kernel cannot be built) and check field names, order and C types, and
the ``REPLAY_*`` status and ``STAT_*`` slot constants, against the
loader.
"""

import ctypes
import re
from pathlib import Path

from repro.perf._kernel import loader

SOURCE = (Path(loader.__file__).with_name("kernel.c")).read_text()

#: The C spellings the struct uses, and the ctypes type each must map to.
C_TYPES = {"i64": ctypes.c_longlong, "double": ctypes.c_double}


def _c_struct_fields():
    body = re.search(
        r"typedef struct \{(.*?)\} ReplayParams;", SOURCE, re.DOTALL
    ).group(1)
    body = re.sub(r"/\*.*?\*/", "", body, flags=re.DOTALL)
    return re.findall(r"^\s*(\w+)\s+(\w+);", body, re.MULTILINE)


def _c_defines(prefix):
    return {
        name: int(value)
        for name, value in re.findall(
            rf"^#define ({prefix}\w+) (\d+)$", SOURCE, re.MULTILINE
        )
    }


def _loader_constants(prefix):
    return {
        name: value
        for name, value in vars(loader).items()
        if name.startswith(prefix) and isinstance(value, int)
    }


def test_struct_fields_match_in_name_order_and_type():
    c_fields = _c_struct_fields()
    assert c_fields, "ReplayParams not found in kernel.c"
    assert [name for _, name in c_fields] == [
        name for name, _ in loader.ReplayParams._fields_
    ]
    for (c_type, name), (_, py_type) in zip(
        c_fields, loader.ReplayParams._fields_
    ):
        assert C_TYPES[c_type] is py_type, name


def test_struct_has_no_padding():
    """Integers first, then doubles, all eight bytes wide."""
    c_types = [c_type for c_type, _ in _c_struct_fields()]
    assert c_types == sorted(c_types, key=lambda t: t != "i64")
    assert ctypes.sizeof(loader.ReplayParams) == 8 * len(c_types)


def test_status_codes_match():
    c_codes = _c_defines("REPLAY_")
    assert c_codes == _loader_constants("REPLAY_")
    assert c_codes["REPLAY_OK"] == 0
    assert len(set(c_codes.values())) == len(c_codes)


def test_stat_slots_match():
    assert _c_defines("STAT_") == _loader_constants("STAT_")
