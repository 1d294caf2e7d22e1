"""The benchmark's workloads: exact specs, run options and expectations.

Each workload is a list of specs that one closed-loop client runs in order;
one run of that list is a *pass*.  Only the ``seed`` field of a spec depends
on the benchmark's ``--seed``; every other field is fixed here.  ``tiny``
shrinks the grids to 8 or 8x8 sites and the Boolean space to 8 dimensions,
for the benchmark's self-tests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHIPPED_CONFIGS = ROOT / "src" / "emergence" / "configs"

ETA = [[1.0, 0.0], [0.0, 1.0]]

# One sentence each on why the workload exists; BENCHMARK.json repeats them.
WHY = {
    "gravity_24x24": "dense operator_core algebra on 576-site grids "
                     "dominates; where the diagonal-Gram shortcut and "
                     "structured circulant operators should show",
    "boolean_256": "diagonal-times-dense act and evaluate_family on a 256-dim "
                   "plain space with nothing circulant; predicts no change "
                   "from circulant-only work",
    "certify_jobs2": "880 verify_emergence draws at n=256 on the --jobs 2 "
                     "thread pool; where batched certification should show, "
                     "and the known jobs slowdown",
    "shipped_configs": "the six shipped configs at 8 and 8x8 sites: per-call "
                       "overhead, schema validation, rendering and the error "
                       "path; bypass workload for kernel changes",
}


@dataclass(frozen=True)
class Entry:
    """One spec of a workload, how the CLI runs it and what it must do."""

    label: str
    spec: dict
    args: tuple = ()
    exit_code: int = 0
    error_type: str | None = None


def _gravity(grid) -> list[Entry]:
    common = {"grid": grid, "mass": 1.0, "field_strength": 1.0, "eta": ETA,
              "samples": 100, "tol": 1e-8}
    return [
        Entry("gravity_from_noncommutativity",
              {"name": "gravity_from_noncommutativity",
               "theta_values": [0.1, 0.5, 1.0], **common}),
        Entry("noncommutativity_from_gravity",
              {"name": "noncommutativity_from_gravity",
               "h_scales": [0.1, 0.5, 1.0], **common}),
    ]


def _shipped() -> list[Entry]:
    entries = []
    for path in sorted(SHIPPED_CONFIGS.glob("*.json")):
        spec = json.loads(path.read_text(encoding="utf-8"))
        if path.stem == "idempotent_projector":
            entries.append(Entry(path.stem, spec, exit_code=2,
                                 error_type="NotScalarForm"))
        else:
            entries.append(Entry(path.stem, spec))
    return entries


def entries(workload: str, tiny: bool = False) -> list[Entry]:
    """The workload's specs without their seed, in pass order."""
    if workload == "gravity_24x24":
        return _gravity([8, 8] if tiny else [24, 24])
    if workload == "boolean_256":
        return [Entry("boolean", {"name": "boolean", "grid": [8], "masks": 8,
                                  "block": 1 if tiny else 32,
                                  "samples": 100, "tol": 1e-8})]
    if workload == "certify_jobs2":
        return [Entry("idempotent", {"name": "idempotent",
                                     "grid": [8] if tiny else [256],
                                     "variant": "identity", "samples": 400,
                                     "tol": 1e-8},
                      args=("--jobs", "2"))]
    if workload == "shipped_configs":
        return _shipped()
    raise KeyError(f"unknown workload {workload!r}; known: {sorted(WHY)}")


def write_specs(workload: str, seed: int, directory: Path,
                tiny: bool = False) -> Path:
    """Write the seeded specs and a manifest the workload process reads.

    The program sees only the spec files; the manifest carries the run
    options and expectations for the benchmark's own processes.
    """
    manifest = []
    for i, entry in enumerate(entries(workload, tiny)):
        path = directory / f"spec-{i}-{entry.label}.json"
        path.write_text(json.dumps({**entry.spec, "seed": seed}, indent=2)
                        + "\n", encoding="utf-8")
        manifest.append({"label": entry.label, "config": str(path),
                         "args": list(entry.args),
                         "exit_code": entry.exit_code,
                         "error_type": entry.error_type})
    out = directory / "manifest.json"
    out.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return out
