"""Disparity-filtered backbone of a susceptibility matrix.

Edge weights are absolute susceptibilities; the sign is kept as an
attribute.  For a node direction with degree k >= 2 and strength s, the edge
disparity is ``alpha = (1 - w / s)**(k - 1)``; an edge survives when alpha
falls below the significance level in either direction (the library
argument ``mode="out"`` restricts the test to the out-direction).  Single
edges of degree-1 directions are preserved and flagged, since the formula is
uninformative there.  The diagonal is always excluded.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Mapping, Sequence
from xml.sax.saxutils import escape, quoteattr

import numpy as np

from .errors import InvalidP, UnsupportedFormat
from .iodata import _fmt, write_table
from .sectors import sector_metadata
from .susceptibility import SusceptibilityMatrix


@dataclass(frozen=True)
class BackboneEdge:
    source: str
    target: str
    weight: float      # |rho_ij|
    sign: int
    alpha: float       # min over tested directions
    preserved: bool    # kept only by the degree-1 rule


@dataclass(frozen=True)
class BackboneNode:
    code: str
    group: str
    in_weight: float   # sum of retained incoming weights
    value: float       # optional per-node annotation (nan when unset)


@dataclass(frozen=True)
class BackboneGraph:
    nodes: tuple[BackboneNode, ...]
    edges: tuple[BackboneEdge, ...]
    p: float
    mode: str


def _direction_alpha(weights: np.ndarray) -> np.ndarray:
    """Disparity of each weight within one node direction (1.0 for k < 2)."""
    nz = weights != 0.0
    k = int(nz.sum())
    alpha = np.ones_like(weights)
    if k >= 2:
        s = weights[nz].sum()
        alpha[nz] = (1.0 - weights[nz] / s) ** (k - 1)
    return alpha


def disparity_filter(
    rho: SusceptibilityMatrix | np.ndarray,
    p: float,
    sectors: Sequence[str] | None = None,
    mode: str = "either",
    node_values: Mapping[str, float] | None = None,
) -> BackboneGraph:
    """Extract the significant backbone of a susceptibility matrix.

    ``mode="either"`` (default) keeps an edge significant in the out- or
    in-direction; ``mode="out"`` tests the out-direction only.
    """
    if not 0.0 < p < 1.0:
        raise InvalidP(f"p must satisfy 0 < p < 1, got {p!r}")
    if mode not in ("either", "out"):
        raise ValueError(f"unknown mode {mode!r}")
    if isinstance(rho, SusceptibilityMatrix):
        values = rho.values
        if sectors is None:
            sectors = rho.sectors
    else:
        values = np.asarray(rho, dtype=float)
        if sectors is None:
            sectors = tuple(f"S{k:02d}" for k in range(values.shape[0]))
    n = values.shape[0]
    if values.shape != (n, n) or len(sectors) != n:
        raise ValueError("matrix must be square with one label per row")

    w = np.abs(np.asarray(values, dtype=float))
    np.fill_diagonal(w, 0.0)

    alpha_out = np.stack([_direction_alpha(w[i, :]) for i in range(n)])
    alpha_in = np.stack([_direction_alpha(w[:, j]) for j in range(n)], axis=1)
    out_deg = (w != 0.0).sum(axis=1)
    in_deg = (w != 0.0).sum(axis=0)

    if mode == "either":
        alpha = np.minimum(alpha_out, alpha_in)
        degree_one = (out_deg[:, None] == 1) | (in_deg[None, :] == 1)
    else:
        alpha = alpha_out
        degree_one = out_deg[:, None] == 1

    support = w != 0.0
    significant = support & (alpha < p)
    preserved = support & degree_one & ~significant
    keep = significant | preserved

    edges = []
    in_weight = np.zeros(n)
    for i in range(n):
        for j in range(n):
            if keep[i, j]:
                edges.append(
                    BackboneEdge(
                        source=sectors[i],
                        target=sectors[j],
                        weight=float(w[i, j]),
                        sign=1 if values[i, j] > 0.0 else -1,
                        alpha=float(alpha[i, j]),
                        preserved=bool(preserved[i, j]),
                    )
                )
                in_weight[j] += w[i, j]
    edges.sort(key=lambda e: (e.source, e.target))

    node_values = node_values or {}
    nodes = tuple(
        BackboneNode(
            code=code,
            group=sector_metadata(code)[1],
            in_weight=float(in_weight[k]),
            value=float(node_values.get(code, float("nan"))),
        )
        for k, code in enumerate(sectors)
    )
    return BackboneGraph(nodes=nodes, edges=tuple(edges), p=float(p), mode=mode)


def export_graph(graph: BackboneGraph, fmt: str = "edgelist") -> str:
    """Serialize a backbone as edge-list text or GraphML."""
    if fmt == "edgelist":
        buf = io.StringIO()
        fields = ("source", "target", "weight", "sign", "alpha")
        write_table(buf, "from,to,weight,sign,alpha,preserved_flag",
                    [[getattr(e, f) for e in graph.edges] for f in fields]
                    + [[int(e.preserved) for e in graph.edges]])
        return buf.getvalue()
    if fmt == "graphml":
        return _graphml(graph)
    raise UnsupportedFormat(f"unknown export format {fmt!r}")


_GRAPHML_KEYS = """\
  <key id="group" for="node" attr.name="group" attr.type="string"/>
  <key id="in_weight" for="node" attr.name="in_weight" attr.type="double"/>
  <key id="value" for="node" attr.name="value" attr.type="double"/>
  <key id="weight" for="edge" attr.name="weight" attr.type="double"/>
  <key id="sign" for="edge" attr.name="sign" attr.type="int"/>
  <key id="alpha" for="edge" attr.name="alpha" attr.type="double"/>
  <key id="preserved" for="edge" attr.name="preserved" attr.type="boolean"/>
"""


def _graphml(graph: BackboneGraph) -> str:
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
        _GRAPHML_KEYS.rstrip("\n"),
        '  <graph id="backbone" edgedefault="directed">',
    ]
    for node in graph.nodes:
        out.append(f"    <node id={quoteattr(node.code)}>")
        out.append(f"      <data key=\"group\">{escape(node.group)}</data>")
        out.append(f"      <data key=\"in_weight\">{_fmt(node.in_weight)}</data>")
        if node.value == node.value:  # skip NaN annotations
            out.append(f"      <data key=\"value\">{_fmt(node.value)}</data>")
        out.append("    </node>")
    for e in graph.edges:
        out.append(
            f"    <edge source={quoteattr(e.source)} target={quoteattr(e.target)}>"
        )
        out.append(f"      <data key=\"weight\">{_fmt(e.weight)}</data>")
        out.append(f"      <data key=\"sign\">{e.sign}</data>")
        out.append(f"      <data key=\"alpha\">{_fmt(e.alpha)}</data>")
        out.append(f"      <data key=\"preserved\">{str(e.preserved).lower()}</data>")
        out.append("    </edge>")
    out.append("  </graph>")
    out.append("</graphml>")
    return "\n".join(out) + "\n"
