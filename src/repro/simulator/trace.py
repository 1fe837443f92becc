"""Address-trace helpers: mapping program data structures to cache lines.

Application kernels are instrumented by replaying the *index streams* they
would issue against named arrays.  :class:`MemoryLayout` assigns each array
a base address (contiguous, page-aligned) and converts ``(array, index)``
references into cache-line numbers for the hierarchy.

This is the crucial link between vertex ordering and simulated memory
behaviour: after reordering, vertex-indexed arrays are laid out in rank
order, so neighbours with small gaps share or neighbour cache lines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ArraySpec", "MemoryLayout", "csr_layout"]

PAGE = 4096


@dataclass(frozen=True)
class ArraySpec:
    """One named array in the simulated address space."""

    name: str
    length: int
    element_bytes: int

    @property
    def size_bytes(self) -> int:
        """Total footprint in bytes."""
        return self.length * self.element_bytes


class MemoryLayout:
    """Assigns base addresses to arrays and resolves element lines."""

    def __init__(self, line_bytes: int = 64) -> None:
        self._line_bytes = line_bytes
        self._arrays: dict[str, tuple[int, int]] = {}  # name -> (base, esz)
        self._next_base = PAGE  # leave page zero unused

    @property
    def line_bytes(self) -> int:
        """Cache line size used for address-to-line conversion."""
        return self._line_bytes

    def add_array(self, name: str, length: int, element_bytes: int) -> None:
        """Place a new array after the previously placed ones."""
        if name in self._arrays:
            raise ValueError(f"array {name!r} already placed")
        if length < 0 or element_bytes <= 0:
            raise ValueError("invalid array geometry")
        base = self._next_base
        self._arrays[name] = (base, element_bytes)
        size = length * element_bytes
        # Round the next base up to a page so arrays never share lines.
        self._next_base = (base + size + PAGE - 1) // PAGE * PAGE

    def address(self, name: str, index: int) -> int:
        """Byte address of ``array[index]``."""
        base, esz = self._arrays[name]
        return base + index * esz

    def line(self, name: str, index: int) -> int:
        """Cache line number of ``array[index]``."""
        return self.address(name, index) // self._line_bytes

    def lines_for_batch(self, name: str, indices: np.ndarray) -> np.ndarray:
        """Cache-line numbers for a whole index stream of one array.

        The vectorised counterpart of :meth:`line`: an entire numpy index
        stream is converted to line numbers in one shot, which is what the
        region replay (:class:`repro.simulator.parallel.SimulatedMachine`)
        and the chunked trace builders in :mod:`repro.apps` consume.
        """
        base, esz = self._arrays[name]
        return (base + np.asarray(indices, dtype=np.int64) * esz) // (
            self._line_bytes
        )

    def lines(self, name: str, indices: np.ndarray) -> np.ndarray:
        """Vectorised line numbers for many indices of one array."""
        return self.lines_for_batch(name, indices)

    @property
    def total_bytes(self) -> int:
        """Footprint of everything placed so far."""
        return self._next_base - PAGE


def csr_layout(
    num_vertices: int,
    num_directed_edges: int,
    *,
    line_bytes: int = 64,
    vertex_payload_bytes: int = 8,
    extra_vertex_arrays: tuple[str, ...] = (),
) -> MemoryLayout:
    """The canonical layout of a CSR graph computation.

    Arrays:

    * ``indptr`` — ``n + 1`` 8-byte offsets,
    * ``indices`` — ``2 m`` 8-byte neighbour ids,
    * ``vdata`` — per-vertex payload (community id, visited flag, rank...),
    * any ``extra_vertex_arrays`` — additional 8-byte per-vertex arrays.
    """
    layout = MemoryLayout(line_bytes)
    layout.add_array("indptr", num_vertices + 1, 8)
    layout.add_array("indices", num_directed_edges, 8)
    layout.add_array("vdata", num_vertices, vertex_payload_bytes)
    for name in extra_vertex_arrays:
        layout.add_array(name, num_vertices, 8)
    return layout
