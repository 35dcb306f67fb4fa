"""Data TLB model.

The DTLB is architecturally a small, page-granular cache-like structure
(Section 4.6 treats it with the same inversion mechanisms as the DL0), so
the model specialises :class:`~repro.uarch.backends.reference.Cache` with
page-sized lines and an entry-count geometry.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.uarch.backends import Cache, CacheConfig

DEFAULT_PAGE_BYTES = 4096


@dataclass(frozen=True, slots=True)
class TLBConfig:
    """Geometry of a TLB in entries rather than bytes.

    Examples
    --------
    >>> TLBConfig(name="DTLB-128", entries=128, ways=8).cache_config().sets
    16
    """

    name: str
    entries: int
    ways: int = 8
    page_bytes: int = DEFAULT_PAGE_BYTES

    def __post_init__(self) -> None:
        if self.entries <= 0 or self.ways <= 0 or self.page_bytes <= 0:
            raise ValueError("TLB geometry must be positive")
        if self.entries % self.ways:
            raise ValueError(
                f"{self.name}: entries {self.entries} not divisible by "
                f"ways {self.ways}"
            )

    def cache_config(self) -> CacheConfig:
        return CacheConfig(
            name=self.name,
            size_bytes=self.entries * self.page_bytes,
            ways=self.ways,
            line_bytes=self.page_bytes,
        )


class TLB(Cache):
    """A data TLB: a page-granular cache of translations."""

    __slots__ = ("tlb_config",)

    def __init__(self, config: TLBConfig) -> None:
        super().__init__(config.cache_config())
        self.tlb_config = config

    def translate(self, address: int) -> bool:
        """Look up the page of a byte address; returns hit/miss."""
        return self.access(address)
