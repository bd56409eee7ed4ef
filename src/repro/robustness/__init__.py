"""Fault-injection campaign engine and mitigation strategies.

This package answers the question the two statistical non-ideal
factors cannot: *how much accuracy does a deployed system lose to hard
defects (stuck-at faults, broken lines), and how much do the two
mitigations win back?*

* :mod:`repro.robustness.mitigation` — spare-column remapping
  (redundancy repair through :mod:`repro.xbar.redundancy`) and
  fault-aware SAAB retraining (each boosting round evaluates its
  learner on a chip carrying that chip's defect map, so Algorithm 1's
  noise-aware re-weighting also sees the faults).
* :mod:`repro.robustness.campaign` — the sweep engine: a grid of
  :class:`~repro.device.faults.FaultModel` points x defect seeds x
  benchmarks, mapped under a :class:`~repro.parallel.RetryPolicy`
  (:func:`repro.parallel.get_executor`) so campaigns survive worker
  crashes, with every defect-map seed and the mitigation comparison
  recorded in the run manifest.

CLI: ``python -m repro faults --scale fast``; driver:
:func:`repro.experiments.fig_faults.run_fig_faults`; docs:
``docs/robustness.md``.
"""

from repro.robustness.campaign import CampaignConfig, run_campaign

__all__ = [
    "CampaignConfig",
    "run_campaign",
]
