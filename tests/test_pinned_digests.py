"""Pinned result digests of the register-file, Vmin and Penelope studies.

Each digest is the sha256 of a point's flattened metrics as canonical
JSON (sorted keys, exact float reprs).  They were recorded before the
bit-sliced aging, by-value bias accounting, table-driven repair and
fused profiling pass went in, with and without numpy; any speed-up of
these layers must leave every one unchanged.  Regenerate only for a
change that is *meant* to alter simulated results.
"""

import hashlib
import json

import pytest

from repro.experiments import get_study

LENGTH = 1500

PINNED = {
    ("regfile", "specint2000", 0): "cf45a668ed76be948540dccdaff76978da958757dbf7a0a8c1021bd5abe64eb2",
    ("regfile", "specint2000", 1): "e17975d5f66282dfe66bbdede0fd97e19cf0e80e77f9ef32b7cc3a9424a9008d",
    ("regfile", "office", 0): "b5581d2c4dcd66039f5cf175530c85accb169313002ca0a6d301db6f9671faae",
    ("regfile", "office", 1): "f55a87d4ce4ac9809574b234ec3787824905a6d537826acdd0cd332e47789b60",
    ("regfile", "multimedia", 0): "2725ba7f18ad4dee5a6fc763b2379282aaf70470a90c7ddbc3eea44b8fbd4657",
    ("regfile", "multimedia", 1): "1ac60cae3aaf88db0f0754d3a462a29a8b95cb73616ee2f3670fee7c77d3bf95",
    ("vmin_power", "specint2000", 0): "78c365b4c4a146e2029445e876ae0427284367bc1ed8cfad7e1c7279398d5c23",
    ("vmin_power", "specint2000", 1): "cbf913b619c1286a42c953d3854d3423efca852d3fdad3fb32680b7a02df0d13",
    ("vmin_power", "office", 0): "9dc4776ff5a7584bc079d52f70c2fec2d95dd2d7506ba44f7d5a2c0bbbd29aa3",
    ("vmin_power", "office", 1): "aa1c812d7a1f8d338d218266595fa7b48c930c30142649210971b4a30d37863a",
    ("vmin_power", "multimedia", 0): "b1ca3e7017aa17536e3e4065ce628bfa74635e026e477766371c52b90b2f6780",
    ("vmin_power", "multimedia", 1): "b2cc2549fb4d6eb1cfd99dc27d5f731bba83ca98f83af1dcd40d103062a4367d",
    ("penelope", "specint2000", 0): "26efae1b7a729259f9fe07df6c9119a7dc40e90a894c7b3a47435efc26b1eaf2",
    ("penelope", "specint2000", 1): "115bcc9a6799740e84678899e9c5bebc8355a2f8e327a15b690d44b4ce9955c9",
    ("penelope", "office", 0): "8d86a855ebbe6684de75f49a23255eb9bc137d428ce81d195d6dacb9cab75250",
    ("penelope", "office", 1): "fd52dbca6669005c90de832ffef577619c5ef6469a3c86dc335be45fcd025298",
    ("penelope", "multimedia", 0): "c24e67a7157f239d3b991c6f76278171b9d5577461ce13748611ef2acb7ac2dd",
    ("penelope", "multimedia", 1): "d01378a0417d9b29d5bb94cc3cb1f0065c24cf0a5e26648503d08e4fedb1f6a0",
}


def metrics_digest(metrics) -> str:
    blob = json.dumps(metrics, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("study,suite,seed", sorted(PINNED))
def test_point_matches_pinned_digest(study, suite, seed):
    metrics = get_study(study).execute(
        {"suite": suite, "seed": seed, "length": LENGTH})
    assert metrics_digest(metrics) == PINNED[(study, suite, seed)]
