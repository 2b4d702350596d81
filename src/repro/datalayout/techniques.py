"""The data-side technique axis: store behaviour × layout transform.

A :class:`DataTechnique` bundles the two knobs the data-side study turns:

* **store behaviour** — how the write buffer and b-cache treat retired
  stores (:attr:`write_coalescing`, :attr:`non_allocating_writes`), i.e.
  the fields added to :class:`repro.arch.memory.MemoryConfig`;
* **layout transform** — how protocol state blocks are laid out
  (:attr:`pack`, :attr:`split`), i.e. the offset remaps planned by
  :mod:`repro.datalayout.transforms`.

The registry :data:`DATA_TECHNIQUES` is the study's second axis, crossed
against the paper's code-technique configurations (BAD..ALL) exactly like
the code techniques are crossed against the two stacks.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Mapping, Optional, Tuple

from repro.arch.memory import MemoryConfig
from repro.datalayout.transforms import layout_transform

__all__ = ["DataTechnique", "DATA_TECHNIQUES", "TECHNIQUE_NAMES"]


@dataclass(frozen=True)
class DataTechnique:
    """One point on the data-side technique axis."""

    name: str
    description: str
    write_coalescing: bool = False
    non_allocating_writes: bool = False
    pack: bool = False
    split: bool = False

    def memory(self, base: Optional[MemoryConfig] = None) -> MemoryConfig:
        """The technique's memory configuration, on top of ``base``."""
        return dataclasses.replace(
            base or MemoryConfig(),
            write_coalescing=self.write_coalescing,
            non_allocating_writes=self.non_allocating_writes,
        )

    @property
    def layout(self) -> str:
        """The layout transform applied: ``"none"``, ``"pack"`` or
        ``"split"`` (see :func:`~repro.datalayout.transforms.
        layout_transform`)."""
        return layout_transform(pack=self.pack, split=self.split)

    def to_json(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "description": self.description,
            "write_coalescing": self.write_coalescing,
            "non_allocating_writes": self.non_allocating_writes,
            "pack": self.pack,
            "split": self.split,
        }


DATA_TECHNIQUES: Mapping[str, DataTechnique] = MappingProxyType({
    t.name: t
    for t in (
        DataTechnique(
            "baseline",
            "stock hierarchy, authored field layout",
        ),
        DataTechnique(
            "coalesce",
            "write buffer merges entries at two-block granularity",
            write_coalescing=True,
        ),
        DataTechnique(
            "stream",
            "stores retire around the b-cache without allocating",
            non_allocating_writes=True,
        ),
        DataTechnique(
            "pack",
            "cap alignment gaps between touched fields",
            pack=True,
        ),
        DataTechnique(
            "split",
            "move error-path-only fields past a block boundary",
            split=True,
        ),
        DataTechnique(
            "all",
            "coalescing + streaming stores on split-and-packed state",
            write_coalescing=True,
            non_allocating_writes=True,
            pack=True,
            split=True,
        ),
    )
})

TECHNIQUE_NAMES: Tuple[str, ...] = tuple(DATA_TECHNIQUES)
