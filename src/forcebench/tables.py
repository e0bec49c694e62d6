"""Every module-level table of the package, named in one place.

``COMPUTED`` tables hold values that any caller may recompute, so they may be
emptied at any time, even while audits run.  ``INTERNING`` tables hold objects
whose equality is identity: counted, never cleared.  Each is looked up per call.
"""
from __future__ import annotations

import importlib

COMPUTED = (
    ("free_algebra", "_APPLY_MEMO"), ("free_algebra", "_QUANT_MEMO"),
    ("bvm", "_ATOMIC_MEMO"), ("bvm", "_EVAL_MEMO"),
    ("finite_cba", "_byte_masks"), ("finite_cba", "_at_most_table"),
    ("morphisms", "_predense_families"), ("report", "_fresh_draws"),
    ("two_step", "_narrow_view"), ("two_step", "_checked_sum"), ("two_step", "_narrow_pairs"),
)
INTERNING = (("free_algebra", "_UNIQUE"), ("free_algebra", "_KEYS"), ("free_algebra", "_NAMES"),
             ("bvm", "_INTERNED"))


def _table(module: str, attribute: str):
    return getattr(importlib.import_module(f"{__package__}.{module}"), attribute)


def entries() -> dict[str, int]:
    """The entry count of every table, keyed ``module.attribute``."""
    out = {}
    for module, attribute in COMPUTED + INTERNING:
        table = _table(module, attribute)
        info = getattr(table, "cache_info", None)  # an lru_cache, else a dict
        out[f"{module}.{attribute}"] = info().currsize if info else len(table)
    return out


def clear() -> None:
    """Empty every computed table; the interning tables are left whole."""
    for module, attribute in COMPUTED:
        table = _table(module, attribute)
        (getattr(table, "cache_clear", None) or table.clear)()
