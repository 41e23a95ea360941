"""The deterministic group catalog and the group-spec mini-language.

Spec grammar: ``sym:n``, ``alt:n``, ``cyc:n``, ``dih:n``, ``psl2:q``,
``product(a,b,...)``, ``wreath(base,p)``, ``file:path``.  The same
configuration always yields the same catalog, names and generators
included, so sweeps and certificates are stable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .group import PermGroup, load_generator_file
from . import constructions as cons


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    group: PermGroup


_CYCLIC_SIZES = (2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 15, 16, 18, 20, 21, 24, 30)
_DIHEDRAL_SIZES = (3, 4, 5, 6, 7, 8, 9, 10, 11, 12)
_SYMMETRIC_SIZES = (3, 4, 5, 6)
_ALTERNATING_SIZES = (4, 5, 6)
_PSL2_SIZES = (4, 5, 7, 8)
_PRODUCT_SPECS = (
    "product(sym:3,sym:3)",
    "product(sym:3,cyc:4)",
    "product(alt:4,cyc:3)",
    "product(dih:4,cyc:3)",
    "product(sym:4,sym:3)",
    "product(alt:4,alt:4)",
    "product(alt:5,cyc:2)",
    "product(cyc:6,cyc:10)",
    "product(sym:3,sym:3,cyc:2)",
)
_WREATH_SPECS = (
    "wreath(cyc:2,2)",
    "wreath(cyc:3,2)",
    "wreath(cyc:2,3)",
    "wreath(cyc:4,2)",
    "wreath(cyc:5,2)",
    "wreath(sym:3,2)",
    "wreath(cyc:2,5)",
    "wreath(alt:4,2)",
    "wreath(sym:3,3)",
)

DEFAULT_MAX_ORDER = 2000


def default_specs():
    specs = []
    specs += [f"cyc:{n}" for n in _CYCLIC_SIZES]
    specs += [f"dih:{n}" for n in _DIHEDRAL_SIZES]
    specs += [f"sym:{n}" for n in _SYMMETRIC_SIZES]
    specs += [f"alt:{n}" for n in _ALTERNATING_SIZES]
    specs += [f"psl2:{q}" for q in _PSL2_SIZES]
    specs += list(_PRODUCT_SPECS)
    specs += list(_WREATH_SPECS)
    return specs


def build_catalog(max_order: int = DEFAULT_MAX_ORDER):
    """All default family members of order at most max_order, in spec order."""
    entries = []
    for spec in default_specs():
        group = parse_group_spec(spec)
        if group.order() <= max_order:
            entries.append(CatalogEntry(name=spec, group=group))
    return entries


def _split_args(body: str):
    parts = []
    depth = 0
    current = []
    for ch in body:
        if ch == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
            continue
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError("unbalanced parentheses in group spec")
        current.append(ch)
    parts.append("".join(current).strip())
    if depth != 0:
        raise ValueError("unbalanced parentheses in group spec")
    return parts


def parse_group_spec(spec: str) -> PermGroup:
    spec = spec.strip()
    if not spec:
        raise ValueError("empty group spec")
    if spec.startswith("file:"):
        return load_generator_file(spec[5:])
    if spec.startswith("product(") and spec.endswith(")"):
        factors = [parse_group_spec(s) for s in _split_args(spec[8:-1])]
        return cons.direct_product(factors)
    if spec.startswith("wreath(") and spec.endswith(")"):
        args = _split_args(spec[7:-1])
        if len(args) != 2:
            raise ValueError("wreath(base,p) takes exactly two arguments")
        base = parse_group_spec(args[0])
        return cons.wreath_regular(base, int(args[1])).group
    if ":" in spec:
        name, _, arg = spec.partition(":")
        n = int(arg)
        builders = {"sym": cons.symmetric, "alt": cons.alternating,
                    "cyc": cons.cyclic, "dih": cons.dihedral}
        if name in builders:
            return builders[name](n)
        if name == "psl2":
            return cons.psl2(n)
        if name == "sl2":
            return cons.sl2(n)
    raise ValueError(f"unrecognized group spec: {spec!r}")
