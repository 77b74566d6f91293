"""Shared fixtures and reference implementations for the test suite."""

from __future__ import annotations

import itertools
import random

import pytest

from repro import Database
from repro.catalog.statistics import StatisticsLevel
from repro.query.query import QuerySpec


def table_rows(table) -> list[tuple]:
    """*table*'s rows in RID order, read off its columns (a columnar table
    keeps no row tuples)."""
    return list(zip(*(
        table.column_values(column.name) for column in table.schema.columns
    )))


def reference_join(db: Database, spec: QuerySpec) -> list[tuple]:
    """Brute-force evaluation of a query, independent of the executor.

    Materializes the cross product of the (locally filtered) tables and
    applies every join predicate — O(prod of table sizes), so only usable
    on the small tables the correctness tests build. Returns projected rows
    in arbitrary order.
    """
    filtered: dict[str, list[tuple]] = {}
    schemas = {}
    for alias, table_name in spec.tables.items():
        table = db.catalog.table(table_name)
        schemas[alias] = table.schema
        tests = [p.bind(table.schema) for p in spec.locals_of(alias)]
        filtered[alias] = [
            row for row in table_rows(table) if all(t(row) for t in tests)
        ]
    aliases = list(spec.tables)
    results = []
    projection = spec.projection
    for combo in itertools.product(*(filtered[a] for a in aliases)):
        binding = dict(zip(aliases, combo))
        ok = True
        for predicate in spec.join_predicates:
            left = binding[predicate.left][
                schemas[predicate.left].position_of(predicate.left_column)
            ]
            right = binding[predicate.right][
                schemas[predicate.right].position_of(predicate.right_column)
            ]
            if left is None or right is None or left != right:
                ok = False
                break
        if not ok:
            continue
        results.append(
            tuple(
                binding[out.alias][schemas[out.alias].position_of(out.column)]
                for out in projection
            )
        )
    return results


def build_three_table_db(
    owners: int = 40,
    seed: int = 7,
    analyze: StatisticsLevel | None = StatisticsLevel.BASIC,
    backend: str = "row",
    unindexed: tuple[tuple[str, str], ...] = (),
) -> Database:
    """A small Owner/Car/Demo database with correlated, skewed data.

    Every join and most local columns are indexed, but for the ``(table,
    column)`` pairs in *unindexed*."""
    rng = random.Random(seed)
    db = Database(backend=backend)
    db.create_table(
        "Owner",
        [("id", "int"), ("name", "string"), ("country", "string")],
    )
    db.create_table(
        "Car",
        [("id", "int"), ("ownerid", "int"), ("make", "string")],
    )
    db.create_table("Demo", [("ownerid", "int"), ("salary", "int")])
    db.insert(
        "Owner",
        [
            (i, f"n{i}", "DE" if rng.random() < 0.6 else rng.choice(["US", "FR"]))
            for i in range(owners)
        ],
    )
    rows = []
    car_id = 0
    for owner in range(owners):
        for _ in range(rng.choice([0, 1, 1, 2])):
            make = "Rare" if rng.random() < 0.05 else rng.choice(["A", "B"])
            rows.append((car_id, owner, make))
            car_id += 1
    db.insert("Car", rows)
    db.insert("Demo", [(i, 20_000 + rng.randrange(80_000)) for i in range(owners)])
    for table, column in [
        ("Owner", "id"),
        ("Owner", "country"),
        ("Car", "ownerid"),
        ("Car", "make"),
        ("Demo", "ownerid"),
        ("Demo", "salary"),
    ]:
        if (table, column) not in unindexed:
            db.create_index(table, column)
    if analyze is not None:
        db.analyze(level=analyze)
    return db


@pytest.fixture
def three_table_db() -> Database:
    return build_three_table_db()


@pytest.fixture(scope="session")
def mini_dmv():
    """A session-cached tiny DMV database for integration tests."""
    from repro.dmv import load_dmv

    return load_dmv(scale=0.02)
