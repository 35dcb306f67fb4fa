"""Pinned result digests of six studies: the single-suite cache studies
(``caches``, ``invert_ratio``, ``victim_policy``), the register-file
and Vmin studies, and the whole-processor Penelope study.

Each digest is the sha256 of a point's metric dict as canonical JSON
(sorted keys, exact float reprs).  The register-file, Vmin and Penelope
digests were recorded before the bit-sliced aging, by-value bias
accounting, table-driven repair and fused profiling pass went in; the
cache-study digests before the studies returned plain dicts and
``victim_policy`` replayed its baseline once.  Each holds with and
without numpy, on every supported Python; any speed-up or refactor of
these layers must leave every one unchanged.  Regenerate only for a
change that is *meant* to alter simulated results.
"""

import hashlib
import json

import pytest

from repro.experiments import get_study

LENGTH = 1500

PINNED = {
    ("caches", "specint2000", 0): "c689df1c82e7ede493c05280bfccc30621e7e19a4f4f287b872199a01429b4bf",
    ("caches", "specint2000", 1): "08c0adb4deb15c7fe15a1467037d4c18e8a32161f0bb919262d47546780f9089",
    ("caches", "office", 0): "05a654935b3e12f2df2fd46c973a8ede40e66126d4cf4c68ac12c834b7f5218e",
    ("caches", "office", 1): "5f689a9160e62eb9d502476f2d1856ae64599e92b01318f3c95f73b2ae0d7fa1",
    ("caches", "multimedia", 0): "e5b4762f6df21e418a39fbb437849cca761d3a33b1bb89bdd1e9a01adfb1de4b",
    ("caches", "multimedia", 1): "26b6689ce4ba5006532847a08fffd1d77760f7ec2d4ed6e661e599efeeba118e",
    ("invert_ratio", "specint2000", 0): "9a9853467aeca14df003212d89d4c4968c7c409d0ef4af2c91104f84f437064e",
    ("invert_ratio", "specint2000", 1): "9c2071e4b1d395b912314366893a49f5205e17125b6bd5cb136edef8d4819fb9",
    ("invert_ratio", "office", 0): "81974959a1fa20462139195fe0979a0a7cccf9fdcab776f36f1959d3e4f3c81d",
    ("invert_ratio", "office", 1): "2e646fd843e29f84c0fb60f42892766386688bdac88b3ef6d7f6d5d7418eee3d",
    ("invert_ratio", "multimedia", 0): "2dd045c5b766d7f6b3589ecca194000c52baf8203ce114836ac3584cc8ab8380",
    ("invert_ratio", "multimedia", 1): "41999e8929d7b4f21262c23b8171cfa1f1abe9a5abb479db2ae51b7e4269dec6",
    ("victim_policy", "specint2000", 0): "8eaf0431e05b59b2a835a7a5430cd12471338c30a172cf1c9a3396727608b560",
    ("victim_policy", "specint2000", 1): "d9a2120a709905e06b54f2e99b3e5c2532d5c46d0c1cf5896800f3ce153ce7f0",
    ("victim_policy", "office", 0): "4ef1da8f22b52cf39bb56469f237684a1f6f2869aca9fe795d5e691a41a614ad",
    ("victim_policy", "office", 1): "0010486b834bf5451f7feef6b43271defb9d41b7b3740cd269de2db54ceec8da",
    ("victim_policy", "multimedia", 0): "24fe290e33900c4275a8d2d309f70b8bd50ef6df7e0dd0667b4cd0d63af07391",
    ("victim_policy", "multimedia", 1): "65ff35205d97273bda6c73d01ded7035bafe7039641839ddfb4a025e44d7379c",
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
