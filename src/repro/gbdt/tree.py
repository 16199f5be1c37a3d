"""Array-encoded regression trees and the SRAM node-table format.

The paper maps a grown tree to a table "where each entry captures a vertex by
encoding its predicate ... and pointers to the vertex's left and right
children" (step 5, Sec. III-B); each BU walks that table with one SRAM access
per tree level.  :class:`Tree` keeps exactly that representation as parallel
NumPy arrays, so functional prediction, the Booster timing model, and the
node-table export all share one structure.

Predicate semantics per node:

* numerical field:  go left iff ``bin_code <= threshold_bin`` (missing code
  follows ``missing_left``);
* categorical field (one-hot one-vs-rest): go left iff
  ``bin_code == threshold_bin`` (missing follows ``missing_left``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..datasets.schema import DatasetSpec

__all__ = ["Tree", "NodeTable", "NODE_ENTRY_BYTES"]

_NO_CHILD = -1

#: Bytes per SRAM node-table entry (see :meth:`NodeTable.entry_bytes`).
NODE_ENTRY_BYTES = 8


@dataclass
class NodeTable:
    """The tree-as-table encoding broadcast into Booster SRAMs.

    Fields are *renumbered* among the tree's relevant fields (Sec. III-B:
    "the original field 228 may be renumbered as the new field 7"), so a BU
    only needs the relevant single-field columns.
    """

    relevant_fields: np.ndarray  # original field ids, position = new id
    field_renumbered: np.ndarray  # per node; -1 for leaves
    threshold_bin: np.ndarray
    is_categorical: np.ndarray
    missing_left: np.ndarray
    left: np.ndarray
    right: np.ndarray
    weight: np.ndarray
    is_leaf: np.ndarray

    @property
    def n_nodes(self) -> int:
        return int(self.left.shape[0])

    def entry_bytes(self) -> int:
        """Bytes per SRAM table entry.

        field# (1B) + bin (2B) + flags (1B) + two child pointers (2B each) or
        a leaf weight (4B) -> 8 bytes, matching the 2 KB SRAM / 256-entry
        sizing argument.
        """
        return NODE_ENTRY_BYTES

    def table_bytes(self) -> int:
        return self.n_nodes * self.entry_bytes()


class Tree:
    """A single regression tree grown by the trainer.

    Nodes are stored in creation (BFS-ish) order; node 0 is the root.  Leaf
    nodes carry the (learning-rate-scaled) output weight.
    """

    def __init__(self, spec: DatasetSpec) -> None:
        self.spec = spec
        self.field: list[int] = []
        self.threshold_bin: list[int] = []
        self.is_categorical: list[bool] = []
        self.missing_left: list[bool] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.weight: list[float] = []
        self.depth: list[int] = []
        self._frozen: dict[str, np.ndarray] | None = None

    # -- construction -----------------------------------------------------------

    def add_leaf(self, depth: int, weight: float) -> int:
        """Append a leaf node; returns its id."""
        return self._add(depth, -1, -1, False, False, weight)

    def add_split(
        self,
        depth: int,
        split_field: int,
        threshold_bin: int,
        is_categorical: bool,
        missing_left: bool,
    ) -> int:
        """Append an interior node (children attached later); returns its id."""
        if split_field < 0 or split_field >= self.spec.n_fields:
            raise ValueError(f"split field {split_field} out of range")
        return self._add(depth, split_field, threshold_bin, is_categorical, missing_left, 0.0)

    def _add(
        self,
        depth: int,
        split_field: int,
        threshold_bin: int,
        is_categorical: bool,
        missing_left: bool,
        weight: float,
    ) -> int:
        self._frozen = None
        self.field.append(split_field)
        self.threshold_bin.append(threshold_bin)
        self.is_categorical.append(is_categorical)
        self.missing_left.append(missing_left)
        self.left.append(_NO_CHILD)
        self.right.append(_NO_CHILD)
        self.weight.append(weight)
        self.depth.append(depth)
        return len(self.field) - 1

    def set_children(self, node: int, left: int, right: int) -> None:
        self._frozen = None
        self.left[node] = left
        self.right[node] = right

    # -- views ------------------------------------------------------------------

    def _arrays(self) -> dict[str, np.ndarray]:
        if self._frozen is None:
            self._frozen = {
                "field": np.asarray(self.field, dtype=np.int64),
                "threshold_bin": np.asarray(self.threshold_bin, dtype=np.int64),
                "is_categorical": np.asarray(self.is_categorical, dtype=bool),
                "missing_left": np.asarray(self.missing_left, dtype=bool),
                "left": np.asarray(self.left, dtype=np.int64),
                "right": np.asarray(self.right, dtype=np.int64),
                "weight": np.asarray(self.weight, dtype=np.float64),
                "depth": np.asarray(self.depth, dtype=np.int64),
            }
        return self._frozen

    @property
    def n_nodes(self) -> int:
        return len(self.field)

    @property
    def n_leaves(self) -> int:
        a = self._arrays()
        return int((a["left"] == _NO_CHILD).sum())

    @property
    def max_depth(self) -> int:
        a = self._arrays()
        return int(a["depth"].max()) if self.n_nodes else 0

    def relevant_fields(self) -> np.ndarray:
        """Original ids of fields referenced by interior nodes, sorted."""
        a = self._arrays()
        interior = a["field"][a["field"] >= 0]
        return np.unique(interior)

    def leaf_depths(self) -> np.ndarray:
        a = self._arrays()
        return a["depth"][a["left"] == _NO_CHILD]

    # -- prediction ---------------------------------------------------------------

    def go_left(self, codes_col: np.ndarray, node: int) -> np.ndarray:
        """Vector predicate evaluation for one node's field codes."""
        a = self._arrays()
        f = int(a["field"][node])
        spec_field = self.spec.fields[f]
        thr = int(a["threshold_bin"][node])
        miss_left = bool(a["missing_left"][node])
        missing = codes_col == spec_field.missing_bin
        if bool(a["is_categorical"][node]):
            left = codes_col == thr
        else:
            left = codes_col <= thr
        return np.where(missing, miss_left, left)

    def predict(
        self, codes: np.ndarray, return_depth: bool = False
    ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """Traverse all records; returns weights (and per-record path length).

        Vectorized level-by-level descent: every record holds a current node
        id; leaves stay put.  Path length counts interior hops, i.e. the
        number of SRAM table lookups a BU would perform.
        """
        a = self._arrays()
        n = codes.shape[0]
        cur = np.zeros(n, dtype=np.int64)
        depth_out = np.zeros(n, dtype=np.int64)
        for _ in range(self.max_depth + 1):
            is_interior = a["left"][cur] != _NO_CHILD
            if not is_interior.any():
                break
            idx = np.nonzero(is_interior)[0]
            nodes = cur[idx]
            fields = a["field"][nodes]
            codes_sel = codes[idx, fields]
            thr = a["threshold_bin"][nodes]
            cat = a["is_categorical"][nodes]
            miss_left = a["missing_left"][nodes]
            missing_bins = self._missing_bins()[fields]
            missing = codes_sel == missing_bins
            left = np.where(cat, codes_sel == thr, codes_sel <= thr)
            left = np.where(missing, miss_left, left)
            cur[idx] = np.where(left, a["left"][nodes], a["right"][nodes])
            depth_out[idx] += 1
        out = a["weight"][cur]
        if return_depth:
            return out, depth_out
        return out

    def _missing_bins(self) -> np.ndarray:
        return np.asarray([f.missing_bin for f in self.spec.fields], dtype=np.int64)

    # -- export -------------------------------------------------------------------

    def node_table(self) -> NodeTable:
        """Export the SRAM table with relevant-field renumbering."""
        a = self._arrays()
        relevant = self.relevant_fields()
        renumber = {int(orig): new for new, orig in enumerate(relevant)}
        fr = np.array(
            [renumber[int(f)] if f >= 0 else -1 for f in a["field"]], dtype=np.int64
        )
        return NodeTable(
            relevant_fields=relevant,
            field_renumbered=fr,
            threshold_bin=a["threshold_bin"].copy(),
            is_categorical=a["is_categorical"].copy(),
            missing_left=a["missing_left"].copy(),
            left=a["left"].copy(),
            right=a["right"].copy(),
            weight=a["weight"].copy(),
            is_leaf=a["left"] == _NO_CHILD,
        )

    def validate(self) -> None:
        """Structural invariants: children exist, one parent each, leaves closed."""
        a = self._arrays()
        n = self.n_nodes
        interior = a["left"] != _NO_CHILD
        if (a["right"][interior] == _NO_CHILD).any():
            raise ValueError("interior node with only one child")
        kids = np.concatenate([a["left"][interior], a["right"][interior]])
        if kids.size and (kids.min() < 0 or kids.max() >= n):
            raise ValueError("child pointer out of range")
        if kids.size != np.unique(kids).size:
            raise ValueError("node has two parents")
        if n > 1 and kids.size != n - 1:
            raise ValueError("orphan nodes present")
