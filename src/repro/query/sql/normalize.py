"""SQL text canonicalization: plan-cache keys and template signatures.

Shared by the database's plan cache (:mod:`repro.optimizer.plancache`)
and the flight recorder (:mod:`repro.obs.recorder`), which groups
telemetry records per query *template*.
"""

from __future__ import annotations

import re

# Split SQL into single-quoted string literals and everything else, so
# normalization never rewrites inside a literal ('' is the escaped quote).
_TOKEN = re.compile(r"'(?:[^']|'')*'|[^']+")
_WS = re.compile(r"\s+")
_NUMBER = re.compile(r"\b\d+(?:\.\d+)?\b")


def normalize_sql(sql: str) -> str:
    """Canonical text of *sql*: whitespace collapsed outside string literals.

    This is the **plan-cache key**. Literals are deliberately preserved:
    a :class:`~repro.optimizer.plans.PipelinePlan` embeds its predicate
    constants (index ranges, residual comparisons), so two queries that
    differ only in literals need *different* plans — the cache may only
    hit on semantically identical statements.
    """
    parts: list[str] = []
    for match in _TOKEN.finditer(sql):
        token = match.group(0)
        if token.startswith("'"):
            parts.append(token)
        else:
            parts.append(_WS.sub(" ", token))
    return "".join(parts).strip()


def template_signature(sql: str) -> str:
    """The query's *template*: literals replaced by ``?``.

    Used for grouping metrics and telemetry (per-template hit rates,
    latency, estimate errors) — never as a plan-cache key, because plans
    embed their constants.
    """
    parts: list[str] = []
    for match in _TOKEN.finditer(sql):
        token = match.group(0)
        if token.startswith("'"):
            parts.append("?")
        else:
            parts.append(_NUMBER.sub("?", _WS.sub(" ", token)))
    return "".join(parts).strip()
