"""Data-side techniques: store behaviour and data-layout transforms.

The paper's Section 2 techniques reshape instruction streams; this package
attacks the complementary, data-side latency floor the attribution study
exposed — the write-buffer stall plateau (~990 cycles per roundtrip on
tcp/ip, ~1005 on rpc) that none of the code techniques move.  It bundles

* the layout transforms (:mod:`repro.datalayout.transforms`) — field
  packing and hot/cold splitting of the protocol state blocks the IR
  addresses symbolically, planned from one survey of a build and applied
  by re-addressing its walk,
* the technique axis (:mod:`repro.datalayout.techniques`) crossing those
  transforms with the store behaviours of
  :class:`repro.arch.memory.MemoryConfig` (write coalescing,
  non-allocating stores), and
* the grid study (:mod:`repro.datalayout.study`) measuring every data
  technique over all 12 (stack × configuration) cells, counting each
  cell's write-buffer and d-cache stalls and cross-checking it with
  static bounds.
"""

from repro.datalayout.techniques import (
    DATA_TECHNIQUES,
    TECHNIQUE_NAMES,
    DataTechnique,
)
from repro.datalayout.transforms import (
    EXCLUDED_REGIONS,
    PACK_GAP,
    DataSurvey,
    LayoutPlan,
    LayoutReport,
    RegionLayout,
    apply_data_layout,
    readdress,
    survey_data_refs,
)
from repro.datalayout.study import (
    DatalayoutCell,
    DatalayoutStudy,
    datalayout_cell,
    run_datalayout_study,
)

__all__ = [
    "DATA_TECHNIQUES",
    "TECHNIQUE_NAMES",
    "DataTechnique",
    "EXCLUDED_REGIONS",
    "PACK_GAP",
    "DataSurvey",
    "LayoutPlan",
    "LayoutReport",
    "RegionLayout",
    "apply_data_layout",
    "readdress",
    "survey_data_refs",
    "DatalayoutCell",
    "DatalayoutStudy",
    "datalayout_cell",
    "run_datalayout_study",
]
