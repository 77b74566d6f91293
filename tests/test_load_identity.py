"""A DMV load must store exactly what it stored before the batch load path.

One sha1 per (store, table) over everything a load leaves behind: the row
store's row tuples (by ``repr``, so an int widened to a float or a float
that moved in its last bit fails) and each index's ``(key, rid)`` entry
list; the columnar store's typed arrays, null masks, dictionary codes and
decode lists and each index's arrays; each table's version; and the
catalog's generation. The digests were recorded on the commit before the
batch load path landed, so any drift of the generator's random stream or
of the way rows reach the stores fails here.

``PYTHONPATH=src:. python tests/test_load_identity.py`` prints the digests
of the checkout it runs on.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.dmv import load_dmv

SCALE = 0.02

_GENERATION = "(28, 2, (2000, 2251, 2000, 5742, 200, 1680))"
_SUMMARY = (
    "DmvSummary(owners=2000, cars=2251, demographics=2000, accidents=5742, "
    "locations=200, times=1680)"
)
GOLDEN = {
    "row": {
        "Accidents": "9ad3f4fed755513b8704eb79c5cebe11d8be5f38",
        "Car": "7079ff5759c5dfb8949212551ba740bdcdcf85d7",
        "Demographics": "815b3675076b5550172c05816b6e85c7ee1eb472",
        "Location": "02aaa43dff47f4658bdb234a02df4ce18711e57f",
        "Owner": "f4edf0e7f5f1320c4e49d4095245d2d1b20e82b1",
        "Time": "d93aff900509bd9c093562974c5ef8ab65170b60",
        "generation": _GENERATION,
        "summary": _SUMMARY,
    },
    "columnar": {
        "Accidents": "c8eb927d4ec78645e42b10c768edbfae1ab4631f",
        "Car": "38e73683cb6c39e49d56321e81596a803cf1aae4",
        "Demographics": "109fa2c968816cf5b5f2a4ec004ad54d072b990f",
        "Location": "95304b49958825893bf6f961c047c15d42bede2e",
        "Owner": "17e1305dcc6ef4177bb165fdda0740cb9f9e7246",
        "Time": "940233aaf19ffa4894da7a81a6d14d458d5f51d6",
        "generation": _GENERATION,
        "summary": _SUMMARY,
    },
}


def _update(digest, value) -> None:
    digest.update(repr(value).encode())
    digest.update(b"\x00")


def _fold_columnar_table(digest, table) -> None:
    for slot in range(len(table.schema.columns)):
        column = table.column_store(slot)
        if column.kind == "str":
            digest.update(column.codes.tobytes())
            _update(digest, column.decode)
            _update(digest, list(column.encode.items()))
        else:
            _update(digest, (column.kind, column.typecode))
            digest.update(column.data.tobytes())
            digest.update(bytes(column.nulls))


def _fold_columnar_index(digest, index) -> None:
    for array in (index._ent_rids, index._bounds_np, index._totals_np):
        _update(digest, array.dtype.str)
        digest.update(array.tobytes())
    if index._keys_np is not None:
        _update(digest, index._keys_np.dtype.str)
        digest.update(index._keys_np.tobytes())
    _update(digest, index._str_keys)


def load_digests(backend: str) -> dict[str, str]:
    """``{table name: sha1}`` of an extended DMV load on *backend*, plus
    the catalog's generation under ``"generation"``."""
    db, summary = load_dmv(scale=SCALE, extended=True, backend=backend)
    catalog = db.catalog
    digests = {"generation": repr(catalog.generation())}
    for name in catalog.table_names():
        table = catalog.table(name)
        digest = hashlib.sha1()
        _update(digest, (len(table), table.version))
        if backend == "row":
            _update(digest, list(table.raw_rows()))
        else:
            _fold_columnar_table(digest, table)
        for column, index in sorted(catalog.indexes_of(name).items()):
            _update(digest, (column, index.name, len(index), index._built_upto))
            if backend == "row":
                _update(digest, index._entries)
            else:
                _fold_columnar_index(digest, index)
        digests[name] = digest.hexdigest()
    digests["summary"] = repr(summary)
    return digests


@pytest.mark.parametrize("backend", sorted(GOLDEN))
def test_a_dmv_load_stores_what_it_stored_before(backend):
    assert load_digests(backend) == GOLDEN[backend]


if __name__ == "__main__":
    import pprint

    pprint.pprint({backend: load_digests(backend) for backend in GOLDEN})
