"""``repro.api`` — the declarative experiment layer.

One typed :class:`~repro.api.spec.ExperimentSpec` (``workload`` /
``model`` / ``train`` / ``compute`` / ``output`` sections) drives every
model family, every registered workload and every entry point:

.. code-block:: python

    from repro.api import ExperimentSpec, apply_overrides, run_experiment

    spec = ExperimentSpec()                       # lhnn × superblue
    spec = apply_overrides(spec, ["model.family=unet",
                                  "train.epochs=5",
                                  "workload.suite=hotspot"])
    result = run_experiment(spec)
    print(result.metrics["f1"], result.manifest_path)

Specs load from TOML/JSON (:func:`load_spec`; see ``examples/specs/``),
accept ``--set section.key=value`` dotted overrides, fingerprint through
the pipeline's canonical-JSON scheme, and every run leaves a
schema-validated JSON result manifest under
``<artifacts_dir>/experiments/``.  The CLI ``train`` / ``experiment``
subcommands are thin shells over this module; see
``docs/experiment_api.md`` for the full spec schema and manifest format.
"""

from .experiment import (ExperimentResult, find_result_manifest, load_dataset,
                         run_experiment, validate_result_manifest)
from .spec import (ExperimentSpec, ModelSpec, OutputSpec, SpecError, TrainSpec,
                   WorkloadSpec, apply_overrides, dumps_spec, load_spec,
                   spec_fingerprint, spec_from_dict, spec_to_dict)

__all__ = [
    "ExperimentSpec", "WorkloadSpec", "ModelSpec", "TrainSpec",
    "OutputSpec", "SpecError",
    "load_spec", "spec_from_dict", "spec_to_dict", "dumps_spec",
    "apply_overrides", "spec_fingerprint",
    "run_experiment", "ExperimentResult", "load_dataset",
    "validate_result_manifest", "find_result_manifest",
]
