"""DRAM address mappings (Table 4).

Addresses are decoded at cache-line granularity (the DRAM transaction
unit).  A mapping is an MSB-to-LSB field order; the two from the paper:

* ``Row:Rank:Bank:Column:Channel`` — the baseline (and HMC CPU-channel)
  map: channel interleaves at line granularity, and consecutive lines in a
  channel walk the columns of one row — *locality-optimized* (page
  striped).
* ``Row:Column:Rank:Bank:Channel`` — the HMC IP-channel map: consecutive
  lines stripe across banks first — *parallelism-optimized* (line
  striped).
"""

from __future__ import annotations

from typing import NamedTuple


class DramCoord(NamedTuple):
    """One transaction's DRAM coordinates (an immutable record)."""

    channel: int
    rank: int
    bank: int
    row: int
    column: int


class AddressMapping:
    """Bit-field address decoder with a configurable MSB->LSB field order."""

    FIELDS = ("row", "rank", "bank", "column", "channel")

    def __init__(self, order: tuple[str, ...], line_bytes: int = 128) -> None:
        if sorted(order) != sorted(self.FIELDS):
            raise ValueError(f"order must be a permutation of {self.FIELDS}")
        self.order = order
        self.line_bytes = line_bytes
        self._compiled: dict[tuple, object] = {}

    def field_sizes(self, channels: int, ranks: int, banks: int,
                    rows: int, columns: int) -> dict[str, int]:
        return {"channel": channels, "rank": ranks, "bank": banks,
                "row": rows, "column": columns}

    def decode(self, address: int, channels: int, ranks: int, banks: int,
               rows: int, columns: int) -> DramCoord:
        """Decode a byte address into DRAM coordinates."""
        return self.compiled(channels, ranks, banks, rows, columns)(address)

    def compiled(self, channels: int, ranks: int, banks: int,
                 rows: int, columns: int):
        """A decoder specialized to one geometry: ``fn(address) -> DramCoord``.

        The line index is split LSB-first along the reversed order, so a
        field's value is the line index over the product of the sizes
        below it, modulo its own size.  The strides are computed once
        here: memory controllers decode every transaction.
        """
        key = (channels, ranks, banks, rows, columns)
        fn = self._compiled.get(key)
        if fn is None:
            sizes = self.field_sizes(channels, ranks, banks, rows, columns)
            strides = {}
            stride = 1
            for name in reversed(self.order):
                strides[name] = stride
                stride *= sizes[name]
            (ch_div, ch_mod), (rk_div, rk_mod), (bk_div, bk_mod), \
                (row_div, row_mod), (col_div, col_mod) = [
                    (strides[name], sizes[name]) for name in DramCoord._fields]
            line_bytes = self.line_bytes

            def fn(address: int) -> DramCoord:
                block = address // line_bytes
                return DramCoord(block // ch_div % ch_mod,
                                 block // rk_div % rk_mod,
                                 block // bk_div % bk_mod,
                                 block // row_div % row_mod,
                                 block // col_div % col_mod)

            self._compiled[key] = fn
        return fn


# Table 4 mappings.
BASELINE_MAPPING = AddressMapping(("row", "rank", "bank", "column", "channel"))
IP_CHANNEL_MAPPING = AddressMapping(("row", "column", "rank", "bank", "channel"))
