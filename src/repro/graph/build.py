"""Builders that turn edge collections into :class:`~repro.graph.csr.Graph`.

The builders accept anything array-like: a sequence of ``(src, dst)`` or
``(src, dst, weight)`` tuples, or separate numpy arrays. Options cover the
clean-ups the paper's loaders perform implicitly: symmetrising an
undirected edge list, dropping self loops, and de-duplicating parallel
edges.
"""

from __future__ import annotations

import os
import shutil
from typing import Iterable, Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.csr import Graph, unique_sorted

EdgeLike = Union[Tuple[int, int], Tuple[int, int, float], Sequence[float]]


def from_edges(
    src: np.ndarray,
    dst: np.ndarray,
    weights: Optional[np.ndarray] = None,
    num_vertices: Optional[int] = None,
    directed: bool = True,
    dedup: bool = False,
    drop_self_loops: bool = False,
    name: str = "graph",
) -> Graph:
    """Build a CSR :class:`Graph` from parallel arrays of arc endpoints.

    Parameters
    ----------
    src, dst:
        arc endpoints; integer arrays of equal length.
    weights:
        optional per-arc weights.
    num_vertices:
        total vertex count; inferred as ``max(endpoint) + 1`` when omitted.
    directed:
        if ``False``, the reverse of every arc is added (unless already
        present and ``dedup`` is set) and the result reports undirected
        edge counts.
    dedup:
        drop duplicate ``(src, dst)`` pairs, keeping the minimum weight
        (the natural choice for shortest-path workloads).
    drop_self_loops:
        remove arcs with ``src == dst``.
    """
    src = np.asarray(src, dtype=np.int64).ravel()
    dst = np.asarray(dst, dtype=np.int64).ravel()
    if src.shape != dst.shape:
        raise GraphFormatError("src and dst arrays must have equal length")
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64).ravel()
        if weights.shape != src.shape:
            raise GraphFormatError("weights must align with src/dst")

    if src.size and (src.min() < 0 or dst.min() < 0):
        raise GraphFormatError("vertex ids must be non-negative")
    inferred_n = int(max(src.max(), dst.max()) + 1) if src.size else 0
    if num_vertices is None:
        num_vertices = inferred_n
    elif num_vertices < inferred_n:
        raise GraphFormatError(
            f"num_vertices={num_vertices} but edges reference vertex "
            f"{inferred_n - 1}"
        )

    if drop_self_loops and src.size:
        keep = src != dst
        src, dst = src[keep], dst[keep]
        if weights is not None:
            weights = weights[keep]

    if not directed and src.size:
        src, dst, weights = _symmetrise(src, dst, weights)

    if dedup and src.size:
        # _dedup_min_weight emits arcs in (src, dst) order, so the
        # lexsort below would be an identity permutation — skip it.
        src, dst, weights = _dedup_min_weight(src, dst, weights, num_vertices)
    else:
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        if weights is not None:
            weights = weights[order]

    counts = np.bincount(src, minlength=num_vertices)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    return Graph(indptr, dst, weights, directed=directed, name=name)


def from_edge_list(
    edges: Iterable[EdgeLike],
    num_vertices: Optional[int] = None,
    directed: bool = True,
    dedup: bool = False,
    drop_self_loops: bool = False,
    name: str = "graph",
) -> Graph:
    """Build a graph from an iterable of ``(src, dst[, weight])`` tuples."""
    edge_list = list(edges)
    if not edge_list:
        return from_edges(
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            num_vertices=num_vertices or 0,
            directed=directed,
            name=name,
        )
    widths = {len(e) for e in edge_list}
    if widths == {2}:
        arr = np.asarray(edge_list, dtype=np.int64)
        weights = None
    elif widths == {3}:
        raw = np.asarray(edge_list, dtype=np.float64)
        arr = raw[:, :2].astype(np.int64)
        weights = raw[:, 2]
    else:
        raise GraphFormatError(
            "edges must be uniformly (src, dst) or (src, dst, weight) tuples"
        )
    return from_edges(
        arr[:, 0],
        arr[:, 1],
        weights,
        num_vertices=num_vertices,
        directed=directed,
        dedup=dedup,
        drop_self_loops=drop_self_loops,
        name=name,
    )


def _symmetrise(
    src: np.ndarray, dst: np.ndarray, weights: Optional[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Append the reverse of every arc (caller dedups if needed)."""
    new_src = np.concatenate([src, dst])
    new_dst = np.concatenate([dst, src])
    new_weights = None if weights is None else np.concatenate([weights, weights])
    return new_src, new_dst, new_weights


def _dedup_min_weight(
    src: np.ndarray,
    dst: np.ndarray,
    weights: Optional[np.ndarray],
    num_vertices: int,
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Collapse duplicate arcs, keeping the smallest weight per pair.

    Output arcs are sorted by ``(src, dst)`` — i.e. by composite key —
    which lets :func:`from_edges` skip its lexsort after dedup. The
    unweighted path uses :func:`unique_sorted` rather than ``np.unique``:
    numpy's hash-based unique is ~50x slower than sort+mask on these
    millions-of-random-int64 key arrays, and both return the same
    sorted uniques.
    """
    keys = src * np.int64(num_vertices) + dst
    if weights is None:
        unique_keys = unique_sorted(keys)
        return unique_keys // num_vertices, unique_keys % num_vertices, None
    order = np.lexsort((weights, keys))
    keys_sorted = keys[order]
    first = np.concatenate(([True], keys_sorted[1:] != keys_sorted[:-1]))
    chosen = order[first]
    return src[chosen], dst[chosen], weights[chosen]


# ----------------------------------------------------------------------
# Out-of-core build: edge blocks -> external merge -> on-disk CSR
# ----------------------------------------------------------------------

#: Working bytes one in-flight edge costs inside the chunked builder:
#: the endpoint draws, composite keys, the sort copy, and the boundary
#: mask (undirected graphs double it for the symmetrised reverse arcs).
BUILD_BYTES_PER_EDGE = 48

#: Elements loaded per run per refill during the K-way merge.
DEFAULT_MERGE_CHUNK = 1 << 18


def choose_block_edges(
    directed: bool = True, budget_bytes: Optional[int] = None
) -> int:
    """Edges per generation block honouring the ``--max-ram`` budget
    (half the budget goes to the block in flight, half to the merge
    buffers and counts array)."""
    from repro.graph.csr import (
        DEFAULT_STREAM_BUDGET_BYTES,
        streaming_budget_bytes,
    )

    budget = (
        budget_bytes
        or streaming_budget_bytes()
        or DEFAULT_STREAM_BUDGET_BYTES
    )
    per_edge = BUILD_BYTES_PER_EDGE * (1 if directed else 2)
    return int(min(max(budget // (per_edge * 2), 1 << 16), 1 << 23))


def build_csr_on_disk(
    blocks: Iterable[Tuple[np.ndarray, ...]],
    num_vertices: int,
    directory: "os.PathLike[str]",
    directed: bool = True,
    dedup: bool = True,
    drop_self_loops: bool = True,
    name: str = "graph",
    merge_chunk: int = DEFAULT_MERGE_CHUNK,
):
    """Build an on-disk CSR directory from an edge-block stream.

    ``blocks`` yields ``(src, dst)`` or ``(src, dst, weights)`` arrays;
    each block is cleaned (self loops, symmetrisation), sorted by
    composite ``src * n + dst`` key, deduplicated within itself, and
    spilled as a sorted run. A vectorised K-way merge then streams the
    runs into ``indices.npy``/``weights.npy`` while accumulating the
    per-source arc counts (integer-exact, so chunking cannot change
    them), and ``indptr.npy`` plus the ``graph.json`` sidecar are
    written at the end. At no point does the full edge list — or any
    O(m) intermediate — exist in memory.

    Byte-identity with the in-RAM path holds by construction: the merge
    emits the globally sorted unique composite keys, which is exactly
    what ``_dedup_min_weight`` produces, and for weighted inputs the
    per-key minimum of per-run minima equals the global per-key minimum
    (same float values, hence the same bits). ``dedup=False`` is
    rejected — a merge of sorted runs cannot reproduce the undeduped
    input order.

    Returns the finished :class:`repro.graph.io.MappedGraph`.
    """
    from repro.graph.io import (
        NpyStreamWriter,
        fingerprint_csr_dir,
        open_mapped,
        write_csr_meta,
    )

    if not dedup:
        raise GraphFormatError(
            "build_csr_on_disk requires dedup=True: the external merge "
            "emits unique sorted arcs"
        )
    if num_vertices < 0:
        raise GraphFormatError("num_vertices must be non-negative")
    if num_vertices and num_vertices > int(np.sqrt(2**63 - 1)):
        raise GraphFormatError(
            "num_vertices too large for int64 composite keys"
        )
    directory = os.fspath(directory)
    os.makedirs(directory, exist_ok=True)
    runs_dir = os.path.join(directory, "runs.tmp")
    shutil.rmtree(runs_dir, ignore_errors=True)
    os.makedirs(runs_dir)

    weighted: Optional[bool] = None
    run_paths = []
    try:
        for run_id, block in enumerate(blocks):
            src, dst = block[0], block[1]
            weights = block[2] if len(block) > 2 else None
            src = np.asarray(src, dtype=np.int64).ravel()
            dst = np.asarray(dst, dtype=np.int64).ravel()
            if src.shape != dst.shape:
                raise GraphFormatError(
                    "src and dst arrays must have equal length"
                )
            if weights is not None:
                weights = np.asarray(weights, dtype=np.float64).ravel()
                if weights.shape != src.shape:
                    raise GraphFormatError("weights must align with src/dst")
            if weighted is None:
                weighted = weights is not None
            elif weighted != (weights is not None):
                raise GraphFormatError(
                    "edge blocks must be uniformly weighted or unweighted"
                )
            if src.size == 0:
                continue
            if src.min() < 0 or dst.min() < 0:
                raise GraphFormatError("vertex ids must be non-negative")
            if max(int(src.max()), int(dst.max())) >= num_vertices:
                raise GraphFormatError(
                    "edge endpoint out of range for num_vertices"
                )
            if drop_self_loops:
                keep = src != dst
                src, dst = src[keep], dst[keep]
                if weights is not None:
                    weights = weights[keep]
            if not directed and src.size:
                src, dst, weights = _symmetrise(src, dst, weights)
            if src.size == 0:
                continue
            keys = src * np.int64(num_vertices) + dst
            base = os.path.join(runs_dir, f"run-{run_id:06d}")
            if weights is None:
                np.save(base + "-keys.npy", unique_sorted(keys))
            else:
                order = np.lexsort((weights, keys))
                keys_sorted = keys[order]
                first = np.empty(keys.size, dtype=bool)
                first[0] = True
                np.not_equal(
                    keys_sorted[1:], keys_sorted[:-1], out=first[1:]
                )
                np.save(base + "-keys.npy", keys_sorted[first])
                np.save(base + "-weights.npy", weights[order][first])
            run_paths.append(base)

        weighted = bool(weighted)
        counts = np.zeros(num_vertices, dtype=np.int64)
        indices_writer = NpyStreamWriter(
            os.path.join(directory, "indices.npy"), np.int64
        )
        weights_writer = (
            NpyStreamWriter(os.path.join(directory, "weights.npy"), np.float64)
            if weighted
            else None
        )
        for batch_keys, batch_weights in _merge_sorted_runs(
            run_paths, weighted, merge_chunk
        ):
            counts += np.bincount(
                batch_keys // np.int64(num_vertices), minlength=num_vertices
            )
            indices_writer.write(batch_keys % np.int64(num_vertices))
            if weights_writer is not None:
                weights_writer.write(batch_weights)
        num_arcs = indices_writer.close()
        if weights_writer is not None:
            weights_writer.close()
        indptr = np.concatenate(([0], np.cumsum(counts)))
        if int(indptr[-1]) != num_arcs:
            raise GraphFormatError(
                "merge count mismatch: "
                f"indptr says {int(indptr[-1])}, wrote {num_arcs} arcs"
            )
        np.save(os.path.join(directory, "indptr.npy"), indptr)
        del counts, indptr
    finally:
        shutil.rmtree(runs_dir, ignore_errors=True)

    write_csr_meta(
        directory,
        name=name,
        directed=directed,
        num_vertices=num_vertices,
        num_arcs=num_arcs,
        weighted=weighted,
        fingerprint="",
    )
    write_csr_meta(
        directory,
        name=name,
        directed=directed,
        num_vertices=num_vertices,
        num_arcs=num_arcs,
        weighted=weighted,
        fingerprint=fingerprint_csr_dir(directory),
    )
    return open_mapped(directory)


def _merge_sorted_runs(
    run_paths, weighted: bool, merge_chunk: int
) -> Iterator[Tuple[np.ndarray, Optional[np.ndarray]]]:
    """K-way merge of sorted-unique key runs, vectorised over batches.

    Each iteration loads at most ``merge_chunk`` elements per run,
    finds the smallest "boundary" key any partially-loaded run is
    guaranteed to have fully surfaced, and emits every element ``<=``
    boundary across all runs, deduplicated (minimum weight per key for
    weighted runs). Equal keys always fall in the same batch — every
    instance compares ``<=`` the boundary — so batches are globally
    sorted, unique, and complete.
    """
    key_maps = [np.load(p + "-keys.npy", mmap_mode="r") for p in run_paths]
    weight_maps = (
        [np.load(p + "-weights.npy", mmap_mode="r") for p in run_paths]
        if weighted
        else None
    )
    cursors = [0] * len(run_paths)
    buffers = [np.empty(0, dtype=np.int64) for _ in run_paths]
    wbuffers = [np.empty(0, dtype=np.float64) for _ in run_paths]
    while True:
        for i, keys in enumerate(key_maps):
            if buffers[i].size == 0 and cursors[i] < keys.size:
                stop = cursors[i] + merge_chunk
                buffers[i] = np.asarray(keys[cursors[i] : stop])
                if weighted:
                    wbuffers[i] = np.asarray(
                        weight_maps[i][cursors[i] : stop]
                    )
                cursors[i] = min(stop, keys.size)
        active = [i for i in range(len(buffers)) if buffers[i].size]
        if not active:
            return
        # A run loaded only partially caps the batch at its last loaded
        # key; fully-drained runs impose no cap.
        partial_tails = [
            int(buffers[i][-1])
            for i in active
            if cursors[i] < key_maps[i].size
        ]
        boundary = (
            min(partial_tails)
            if partial_tails
            else max(int(buffers[i][-1]) for i in active)
        )
        batch_parts = []
        weight_parts = []
        for i in active:
            take = int(
                np.searchsorted(buffers[i], boundary, side="right")
            )
            if take == 0:
                continue
            batch_parts.append(buffers[i][:take])
            buffers[i] = buffers[i][take:]
            if weighted:
                weight_parts.append(wbuffers[i][:take])
                wbuffers[i] = wbuffers[i][take:]
        batch_keys = (
            batch_parts[0]
            if len(batch_parts) == 1
            else np.concatenate(batch_parts)
        )
        if weighted:
            batch_weights = (
                weight_parts[0]
                if len(weight_parts) == 1
                else np.concatenate(weight_parts)
            )
            order = np.lexsort((batch_weights, batch_keys))
            batch_keys = batch_keys[order]
            batch_weights = batch_weights[order]
        else:
            batch_keys = np.sort(batch_keys)
            batch_weights = None
        first = np.empty(batch_keys.size, dtype=bool)
        first[0] = True
        np.not_equal(batch_keys[1:], batch_keys[:-1], out=first[1:])
        if not first.all():
            batch_keys = batch_keys[first]
            if weighted:
                batch_weights = batch_weights[first]
        yield batch_keys, batch_weights
